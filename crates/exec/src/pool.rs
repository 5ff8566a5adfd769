//! The persistent scoped worker pool and its deterministic parallel
//! primitives.
//!
//! Every primitive partitions work into **chunks whose layout depends only
//! on the problem size and the chunk length** — never on the worker count.
//! Chunk outputs are either disjoint writes (no reduction at all) or are
//! reduced on the submitting thread in a fixed-shape pairwise tree over
//! chunk order. Both make results bit-identical for any thread count,
//! including one; see the crate docs for the full argument.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Per-thread CPU time in nanoseconds (`CLOCK_THREAD_CPUTIME_ID`), via a
/// raw `clock_gettime` syscall so the crate stays free of a libc
/// dependency. `None` where the syscall is unavailable; callers fall back
/// to wall-clock time.
///
/// This is what makes worker *busy* attribution honest on oversubscribed
/// hosts: wall time inside a lane includes involuntary preemption (other
/// lanes sharing the core), CPU time does not — so
/// `wait = wall − cpu_busy` cleanly separates "worked" from "waited".
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn thread_cpu_ns() -> Option<u64> {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
    let mut ts = [0i64; 2];
    let ret: i64;
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_THREAD_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    (ret == 0).then(|| ts[0] as u64 * 1_000_000_000 + ts[1] as u64)
}

/// See the x86_64 variant; aarch64 `clock_gettime` is syscall 113.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
pub fn thread_cpu_ns() -> Option<u64> {
    const SYS_CLOCK_GETTIME: i64 = 113;
    const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
    let mut ts = [0i64; 2];
    let ret: i64;
    unsafe {
        std::arch::asm!(
            "svc #0",
            inlateout("x0") CLOCK_THREAD_CPUTIME_ID => ret,
            in("x1") ts.as_mut_ptr(),
            in("x8") SYS_CLOCK_GETTIME,
            options(nostack),
        );
    }
    (ret == 0).then(|| ts[0] as u64 * 1_000_000_000 + ts[1] as u64)
}

/// Fallback for platforms without the raw-syscall path.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Lane busy-time stopwatch: CPU time when the platform provides it,
/// wall time otherwise.
struct BusyTimer {
    wall: Instant,
    cpu: Option<u64>,
}

impl BusyTimer {
    fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: thread_cpu_ns(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        match (self.cpu, thread_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => self.wall.elapsed().as_nanos() as u64,
        }
    }
}

/// Test-only per-lane startup delay, enabled by the determinism suite to
/// randomize guided-claim interleavings. Off (and a single relaxed atomic
/// load) in normal operation.
static JITTER_ON: AtomicBool = AtomicBool::new(false);
static JITTER_NS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Install (`Some`) or clear (`None`) a per-lane region-start delay table
/// in nanoseconds; lane `l` sleeps `table[l % table.len()]` at the top of
/// every parallel region. Exists so determinism tests can randomize worker
/// start order — results must not change. Not a stable API.
#[doc(hidden)]
pub fn set_test_start_jitter(jitter: Option<Vec<u64>>) {
    match jitter {
        Some(table) => {
            *JITTER_NS.lock().unwrap() = table;
            JITTER_ON.store(true, Ordering::Release);
        }
        None => {
            JITTER_ON.store(false, Ordering::Release);
            JITTER_NS.lock().unwrap().clear();
        }
    }
}

#[inline]
fn apply_start_jitter(lane: usize) {
    if JITTER_ON.load(Ordering::Acquire) {
        let ns = {
            let table = JITTER_NS.lock().unwrap();
            if table.is_empty() {
                0
            } else {
                table[lane % table.len()]
            }
        };
        if ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
    }
}

/// One parallel region: a lane-indexed closure erased to a raw pointer so
/// the persistent workers can run borrowed closures. The pointee is only
/// valid while the submitting [`ExecPool::run`] call is blocked, which the
/// epoch/pending protocol guarantees.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    /// Time each lane into `lane_busy`: captured once per region from the
    /// recorder that reads the slots, so a region run with telemetry off
    /// reads no clock.
    timed: bool,
}

// SAFETY: the pointer is dereferenced only between job publication and the
// final `pending` decrement, during which the submitter keeps the closure
// alive (it is blocked in `run`). The pointee is `Sync`, so shared calls
// from many workers are sound.
unsafe impl Send for Job {}

struct PoolState {
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current epoch.
    pending: usize,
    /// Panic payloads captured from worker lanes this epoch.
    panics: Vec<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch.
    work: Condvar,
    /// The submitter waits here for `pending == 0`.
    done: Condvar,
    /// Lock-free per-lane busy-time slots (`lane_busy[lane]`, ns) for the
    /// most recent timed region — the one lane record, folded into the
    /// telemetry phase table's `LaneStats`. Each lane writes only its own
    /// slot; the submitter reads them after the barrier, so plain relaxed
    /// ordering suffices (the `pending`-protocol mutex orders the accesses).
    lane_busy: Vec<AtomicU64>,
}

thread_local! {
    /// True inside a pool lane (worker thread, or the caller while it runs
    /// lane 0). Nested `run` calls execute inline instead of deadlocking on
    /// the submission lock.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A persistent scoped worker pool over `std::thread`.
///
/// `threads` is the total lane count: the submitting thread always executes
/// lane 0, and `threads − 1` background workers execute the rest, so a
/// 1-thread pool spawns nothing and runs everything inline (the sequential
/// fast path has zero synchronization). Threads are parked between regions
/// and shut down when the pool is dropped.
pub struct ExecPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Serializes parallel regions from concurrent submitters (e.g. two
    /// test threads sharing the global pool).
    submit: Mutex<()>,
    threads: usize,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ExecPool {
    /// Pool with `threads` lanes (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                pending: 0,
                panics: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            lane_busy: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        });
        let workers = (1..threads)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("apr-exec-{lane}"))
                    .spawn(move || worker_loop(lane, &shared))
                    .expect("spawn exec worker")
            })
            .collect();
        Self {
            shared,
            workers,
            submit: Mutex::new(()),
            threads,
        }
    }

    /// Single-lane pool: everything runs inline on the caller.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Total lane count (worker threads + the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `f(lane)` once per lane `0..threads()`, returning when every
    /// lane has finished. The closure may borrow from the caller's stack.
    ///
    /// Nested calls (from inside a lane) run all lanes inline on the
    /// current thread — parallelism does not compose, determinism does.
    ///
    /// # Panics
    /// Re-raises the first lane panic after all lanes have stopped, so
    /// borrowed data is never freed while a worker may still touch it.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        let jittered = |lane: usize| {
            apply_start_jitter(lane);
            f(lane)
        };
        self.run_inner(&jittered);
    }

    fn run_inner(&self, f: &(dyn Fn(usize) + Sync)) {
        let lanes = self.threads;
        if lanes == 1 || IN_POOL.with(|p| p.get()) {
            if IN_POOL.with(|p| p.get()) || !apr_telemetry::is_enabled() {
                for lane in 0..lanes {
                    f(lane);
                }
                return;
            }
            // Sequential top-level region with telemetry on: time the
            // single lane so the phase table's worker attribution covers
            // APR_THREADS=1 runs too (imbalance is exactly 1.0). IN_POOL
            // is set so a nested region is not double-attributed.
            let t0 = Instant::now();
            let busy_timer = BusyTimer::start();
            IN_POOL.with(|p| p.set(true));
            let result = catch_unwind(AssertUnwindSafe(|| f(0)));
            IN_POOL.with(|p| p.set(false));
            let busy = busy_timer.elapsed_ns();
            let wall = t0.elapsed().as_nanos() as u64;
            apr_telemetry::global().record_parallel_region(wall, &[busy]);
            if let Err(payload) = result {
                resume_unwind(payload);
            }
            return;
        }
        // Poison is harmless here: the guard only serializes regions, and a
        // previous lane panic leaves no broken invariant behind.
        let _region = self
            .submit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let timed = apr_telemetry::is_enabled();
        let start = timed.then(Instant::now);
        // Erase the closure's lifetime for the workers; `run` does not
        // return until every lane is done, keeping the borrow alive.
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static _>(f) };
        {
            let mut st = self.shared.state.lock().unwrap();
            st.epoch += 1;
            st.job = Some(Job { f: erased, timed });
            st.pending = lanes - 1;
            self.shared.work.notify_all();
        }
        // Lane 0 on the submitting thread.
        let t0 = timed.then(BusyTimer::start);
        IN_POOL.with(|p| p.set(true));
        let lane0 = catch_unwind(AssertUnwindSafe(|| f(0)));
        IN_POOL.with(|p| p.set(false));
        if let Some(t0) = t0 {
            self.shared.lane_busy[0].store(t0.elapsed_ns(), Ordering::Relaxed);
        }
        // Wait for the workers even if lane 0 panicked.
        let panics = {
            let mut st = self.shared.state.lock().unwrap();
            while st.pending > 0 {
                st = self.shared.done.wait(st).unwrap();
            }
            st.job = None;
            std::mem::take(&mut st.panics)
        };
        if let Some(start) = start.filter(|_| panics.is_empty() && lane0.is_ok()) {
            let wall_ns = start.elapsed().as_nanos() as u64;
            let lane_ns: Vec<u64> = self.shared.lane_busy[..lanes]
                .iter()
                .map(|slot| slot.load(Ordering::Relaxed))
                .collect();
            apr_telemetry::global().record_parallel_region(wall_ns, &lane_ns);
        }
        if let Err(payload) = lane0 {
            resume_unwind(payload);
        }
        if let Some(payload) = panics.into_iter().next() {
            resume_unwind(payload);
        }
    }

    /// Deterministic static chunking over `0..len`: `f(chunk_index, range)`
    /// for every chunk of `chunk_len` items (last chunk may be short).
    /// Chunk layout depends only on `len` and `chunk_len`; lanes process
    /// contiguous runs of chunks.
    pub fn par_for_ranges(
        &self,
        len: usize,
        chunk_len: usize,
        f: impl Fn(usize, Range<usize>) + Sync,
    ) {
        if len == 0 {
            return;
        }
        let chunk_len = chunk_len.max(1);
        let chunks = len.div_ceil(chunk_len);
        self.run(&|lane| {
            for chunk in lane_chunks(chunks, self.threads, lane) {
                let start = chunk * chunk_len;
                let end = (start + chunk_len).min(len);
                f(chunk, start..end);
            }
        });
    }

    /// Deterministic parallel iteration over disjoint mutable chunks of a
    /// slice: `f(chunk_index, chunk)` for every `chunk_len`-sized chunk.
    pub fn par_for_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let chunk_len = chunk_len.max(1);
        let slice = UnsafeSlice::new(data);
        self.par_for_ranges(slice.len(), chunk_len, |chunk, range| {
            // SAFETY: chunk ranges are pairwise disjoint by construction.
            let part = unsafe { slice.slice_mut(range.start, range.len()) };
            f(chunk, part);
        });
    }

    /// Deterministic map–reduce: maps every fixed-size chunk of `0..len` to
    /// an `R`, then reduces the per-chunk values on the calling thread in a
    /// **fixed-shape ordered pairwise tree** over chunk index — adjacent
    /// pairs first, repeatedly, so the reduction shape (and therefore the
    /// floating-point rounding) depends only on the chunk count. Returns
    /// `None` for `len == 0`.
    pub fn par_map_reduce<R: Send>(
        &self,
        len: usize,
        chunk_len: usize,
        map: impl Fn(usize, Range<usize>) -> R + Sync,
        mut reduce: impl FnMut(R, R) -> R,
    ) -> Option<R> {
        if len == 0 {
            return None;
        }
        let chunk_len = chunk_len.max(1);
        let chunks = len.div_ceil(chunk_len);
        let mut partials: Vec<Option<R>> = Vec::with_capacity(chunks);
        partials.resize_with(chunks, || None);
        let slots = UnsafeSlice::new(&mut partials);
        self.run(&|lane| {
            for chunk in lane_chunks(chunks, self.threads, lane) {
                let start = chunk * chunk_len;
                let end = (start + chunk_len).min(len);
                // SAFETY: each chunk index is visited by exactly one lane.
                let slot = unsafe { &mut slots.slice_mut(chunk, 1)[0] };
                *slot = Some(map(chunk, start..end));
            }
        });
        // Ordered pairwise tree: (0,1)(2,3)… then (01,23)… — shape is a
        // function of the chunk count alone.
        let mut level: Vec<R> = partials
            .into_iter()
            .map(|p| p.expect("chunk ran"))
            .collect();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(reduce(a, b)),
                    None => next.push(a),
                }
            }
            level = next;
        }
        level.into_iter().next()
    }

    /// Deterministic **guided** chunking over a [`ChunkPlan`]: chunks are
    /// claimed in fixed ascending order from a shared atomic cursor by
    /// whichever lane frees up next, so a lane that drew cheap chunks keeps
    /// pulling work instead of idling at the barrier. `f(chunk, range)` runs
    /// exactly once per chunk.
    ///
    /// The chunk *layout* comes from the plan alone and the per-chunk
    /// computation must not depend on which lane runs it (the same contract
    /// as [`Self::par_for_ranges`]) — under that contract the claim
    /// interleaving is unobservable and results stay bit-identical for any
    /// thread count and any scheduling accident.
    pub fn par_for_guided(&self, plan: &ChunkPlan, f: impl Fn(usize, Range<usize>) + Sync) {
        if plan.is_empty() {
            return;
        }
        let sched = GuidedScheduler::guided(plan);
        self.run(&|_| {
            while let Some((chunk, range)) = sched.claim() {
                f(chunk, range);
            }
        });
    }
}

/// A precomputed chunk layout over `0..len`: contiguous, non-overlapping,
/// covering ranges whose boundaries depend only on the inputs used to build
/// the plan — never on the thread count that later executes it (the
/// *assignment* of chunks to lanes may vary; the layout does not).
///
/// Built either with fixed-size chunks ([`ChunkPlan::fixed`]) or by
/// grouping variable-cost units so every chunk carries roughly equal cost
/// ([`ChunkPlan::from_costs`] — e.g. z-planes weighted by fluid-node count,
/// so a plane of walls does not occupy a lane as long as a plane of fluid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Chunk `c` covers `bounds[c]..bounds[c + 1]`; strictly increasing
    /// except for the degenerate empty plan `[0, 0]`.
    bounds: Vec<usize>,
}

impl ChunkPlan {
    /// Fixed-size chunks of `chunk_len` over `0..len` (last may be short) —
    /// the same layout as [`ExecPool::par_for_ranges`].
    pub fn fixed(len: usize, chunk_len: usize) -> Self {
        let chunk_len = chunk_len.max(1);
        let chunks = len.div_ceil(chunk_len).max(1);
        let mut bounds = Vec::with_capacity(chunks + 1);
        for c in 0..=chunks {
            bounds.push((c * chunk_len).min(len));
        }
        Self { bounds }
    }

    /// Cost-balanced chunks over `0..unit_len * costs.len()`, where unit
    /// `u` (indices `u*unit_len..(u+1)*unit_len`) carries `costs[u]`.
    /// Contiguous units are grouped until a chunk reaches ~`total/target`
    /// cost, so every chunk represents a comparable amount of work while
    /// staying unit-aligned. Every chunk contains at least one unit.
    pub fn from_costs(unit_len: usize, costs: &[u64], target_chunks: usize) -> Self {
        let unit_len = unit_len.max(1);
        if costs.is_empty() {
            return Self { bounds: vec![0, 0] };
        }
        let len = unit_len * costs.len();
        let total: u64 = costs.iter().sum();
        let target = target_chunks.clamp(1, costs.len());
        let per = (total.div_ceil(target as u64)).max(1);
        let mut bounds = vec![0];
        let mut acc = 0u64;
        for (u, &c) in costs.iter().enumerate() {
            acc += c;
            if acc >= per && u + 1 < costs.len() {
                bounds.push((u + 1) * unit_len);
                acc = 0;
            }
        }
        bounds.push(len);
        Self { bounds }
    }

    /// Total index-space length the plan covers.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        *self.bounds.last().expect("plan has bounds")
    }

    /// Whether the plan covers an empty index space.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of chunks.
    pub fn chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Index range of chunk `c`.
    pub fn range(&self, c: usize) -> Range<usize> {
        self.bounds[c]..self.bounds[c + 1]
    }

    /// The chunk containing `index`.
    pub fn chunk_of(&self, index: usize) -> usize {
        debug_assert!(index < self.len());
        self.bounds.partition_point(|&b| b <= index) - 1
    }
}

/// Claim-based chunk scheduler for a single parallel region: lanes [claim]
/// chunks from a shared cursor, [mark them done][Self::mark_done] as
/// completion milestones, and may then [claim drain work][Self::claim_drain]
/// over completed chunks — the mechanism the fused kernels use to overlap
/// their deferred cross-chunk swap drain with the tail of the sweep.
///
/// [claim]: Self::claim
pub struct GuidedScheduler<'a> {
    plan: &'a ChunkPlan,
    cursor: AtomicUsize,
    /// `done[c]` is set (Release) after chunk `c`'s sweep completes;
    /// readers Acquire-load it before touching anything the sweep wrote.
    done: Vec<AtomicBool>,
    drain: AtomicUsize,
}

impl<'a> GuidedScheduler<'a> {
    /// Scheduler with a shared claim cursor (dynamic load balancing).
    pub fn guided(plan: &'a ChunkPlan) -> Self {
        Self {
            plan,
            cursor: AtomicUsize::new(0),
            done: (0..plan.chunks()).map(|_| AtomicBool::new(false)).collect(),
            drain: AtomicUsize::new(0),
        }
    }

    /// Number of chunks in the region's plan.
    pub fn chunks(&self) -> usize {
        self.plan.chunks()
    }

    /// The chunk containing `index`.
    pub fn chunk_of(&self, index: usize) -> usize {
        self.plan.chunk_of(index)
    }

    /// Claim the next chunk from the shared cursor; `None` once every
    /// chunk has been handed out.
    pub fn claim(&self) -> Option<(usize, Range<usize>)> {
        let c = self.cursor.fetch_add(1, Ordering::Relaxed);
        (c < self.plan.chunks()).then(|| (c, self.plan.range(c)))
    }

    /// Publish chunk `c` as complete (Release: everything the sweep wrote
    /// is visible to whoever observes [`Self::is_done`]).
    pub fn mark_done(&self, c: usize) {
        self.done[c].store(true, Ordering::Release);
    }

    /// Whether chunk `c` has been published complete (Acquire).
    pub fn is_done(&self, c: usize) -> bool {
        self.done[c].load(Ordering::Acquire)
    }

    /// Claim the next chunk index from the drain cursor — shared across
    /// lanes, ascending, each chunk handed out exactly once. Callers must
    /// check [`Self::is_done`] before reading chunk state: a claimed chunk
    /// may still be in flight on another lane, in which case its drain work
    /// is left for the post-barrier pass.
    pub fn claim_drain(&self) -> Option<usize> {
        let c = self.drain.fetch_add(1, Ordering::Relaxed);
        (c < self.plan.chunks()).then_some(c)
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Contiguous run of chunk indices assigned to `lane` out of `lanes`.
/// Depends only on `(chunks, lanes, lane)` — and the *results* computed
/// from it never depend on `lanes` because chunks are independent.
fn lane_chunks(chunks: usize, lanes: usize, lane: usize) -> Range<usize> {
    let per = chunks.div_ceil(lanes);
    let start = (lane * per).min(chunks);
    let end = ((lane + 1) * per).min(chunks);
    start..end
}

fn worker_loop(lane: usize, shared: &Shared) {
    IN_POOL.with(|p| p.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.job {
                    if st.epoch != seen_epoch {
                        seen_epoch = st.epoch;
                        break job;
                    }
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        let t0 = job.timed.then(BusyTimer::start);
        // SAFETY: see `Job` — the submitter keeps the closure alive until
        // `pending` reaches zero below.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.f)(lane) }));
        if let Some(t0) = t0 {
            shared.lane_busy[lane].store(t0.elapsed_ns(), Ordering::Relaxed);
        }
        let mut st = shared.state.lock().unwrap();
        if let Err(payload) = result {
            st.panics.push(payload);
        }
        st.pending -= 1;
        if st.pending == 0 {
            shared.done.notify_all();
        }
    }
}

/// A shared view of a mutable slice for disjoint-range parallel writes.
///
/// The pool primitives use this to hand each chunk its own sub-slice; it is
/// public so call sites with multiple zipped arrays (e.g. the lattice
/// collision touching `f`, `rho` and `vel` per node) can do the same.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access is coordinated by the caller handing out disjoint ranges.
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wrap a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable sub-slice `[start, start + len)`.
    ///
    /// # Safety
    /// The caller must guarantee that concurrently outstanding sub-slices
    /// are pairwise disjoint and within bounds.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_covers_every_lane_once() {
        for threads in [1, 2, 4, 7] {
            let pool = ExecPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            pool.run(&|lane| {
                hits[lane].fetch_add(1, Ordering::SeqCst);
            });
            for (lane, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "lane {lane}");
            }
        }
    }

    #[test]
    fn par_for_chunks_mut_writes_every_chunk() {
        for threads in [1, 3, 8] {
            let pool = ExecPool::new(threads);
            let mut data = vec![0usize; 103];
            pool.par_for_chunks_mut(&mut data, 10, |chunk, part| {
                for v in part.iter_mut() {
                    *v = chunk + 1;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i / 10 + 1, "index {i}");
            }
        }
    }

    #[test]
    fn map_reduce_is_thread_count_invariant() {
        // A floating-point sum whose value depends on association order:
        // identical partials + a fixed tree ⇒ identical bits on any pool.
        let data: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let sum_with = |threads: usize| {
            let pool = ExecPool::new(threads);
            pool.par_map_reduce(
                data.len(),
                64,
                |_, range| data[range].iter().sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap()
        };
        let s1 = sum_with(1);
        for threads in [2, 4, 8] {
            assert_eq!(
                s1.to_bits(),
                sum_with(threads).to_bits(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn map_reduce_empty_is_none() {
        let pool = ExecPool::new(2);
        assert!(pool
            .par_map_reduce(0, 8, |_, _| 1.0f64, |a, b| a + b)
            .is_none());
    }

    #[test]
    fn nested_runs_execute_inline() {
        let pool = ExecPool::new(4);
        let outer = AtomicUsize::new(0);
        pool.run(&|_| {
            // A nested region must not deadlock on the submission lock.
            pool.run(&|_| {
                outer.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(outer.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn lane_panic_propagates_after_completion() {
        let pool = ExecPool::new(4);
        let survived = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|lane| {
                if lane == 1 {
                    panic!("lane 1 fails");
                }
                survived.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err());
        assert_eq!(survived.load(Ordering::SeqCst), 3);
        // The pool stays usable after a panic.
        pool.run(&|_| {});
    }

    #[test]
    fn chunk_plan_fixed_matches_ranges_layout() {
        let plan = ChunkPlan::fixed(103, 10);
        assert_eq!(plan.len(), 103);
        assert_eq!(plan.chunks(), 11);
        assert_eq!(plan.range(0), 0..10);
        assert_eq!(plan.range(10), 100..103);
        assert_eq!(plan.chunk_of(0), 0);
        assert_eq!(plan.chunk_of(99), 9);
        assert_eq!(plan.chunk_of(102), 10);
        let empty = ChunkPlan::fixed(0, 8);
        assert!(empty.is_empty());
        assert_eq!(empty.chunks(), 1);
    }

    #[test]
    fn chunk_plan_from_costs_balances_and_aligns() {
        // 8 units of 4 indices; cost concentrated in the middle. Chunks
        // must stay unit-aligned, cover everything, and split the heavy
        // units apart rather than by unit count.
        let costs = [0, 0, 100, 100, 100, 100, 0, 0];
        let plan = ChunkPlan::from_costs(4, &costs, 4);
        assert_eq!(plan.len(), 32);
        assert!(plan.chunks() >= 4, "heavy units split: {:?}", plan);
        let mut covered = 0;
        for c in 0..plan.chunks() {
            let r = plan.range(c);
            assert_eq!(r.start % 4, 0, "unit-aligned");
            assert!(r.start <= r.end);
            covered += r.len();
            for i in r {
                assert_eq!(plan.chunk_of(i), c);
            }
        }
        assert_eq!(covered, 32);
        // Degenerate inputs.
        assert!(ChunkPlan::from_costs(4, &[], 3).is_empty());
        let all_zero = ChunkPlan::from_costs(2, &[0, 0, 0], 2);
        assert_eq!(all_zero.len(), 6);
    }

    #[test]
    fn par_for_guided_covers_every_chunk_once_any_thread_count() {
        let costs: Vec<u64> = (0..13).map(|u| (u % 5) as u64).collect();
        let plan = ChunkPlan::from_costs(7, &costs, 6);
        for threads in [1, 2, 4, 8] {
            let pool = ExecPool::new(threads);
            let mut cover = vec![0usize; plan.len()];
            let slots = UnsafeSlice::new(&mut cover);
            let calls = AtomicUsize::new(0);
            pool.par_for_guided(&plan, |_, range| {
                calls.fetch_add(1, Ordering::SeqCst);
                for i in range {
                    // SAFETY: chunks are disjoint; a double claim would
                    // show up as a double count.
                    unsafe { slots.slice_mut(i, 1)[0] += 1 };
                }
            });
            assert_eq!(calls.load(Ordering::SeqCst), plan.chunks());
            assert!(cover.iter().all(|&c| c == 1), "{threads} threads");
        }
    }

    #[test]
    fn guided_scheduler_hands_out_claims_and_drains_once() {
        let plan = ChunkPlan::fixed(40, 10);
        let sched = GuidedScheduler::guided(&plan);
        let mut seen = vec![0; plan.chunks()];
        while let Some((c, range)) = sched.claim() {
            assert_eq!(range, plan.range(c));
            seen[c] += 1;
            sched.mark_done(c);
        }
        assert!(seen.iter().all(|&s| s == 1), "each chunk claimed once");
        let mut drained = vec![0; plan.chunks()];
        while let Some(c) = sched.claim_drain() {
            assert!(sched.is_done(c));
            drained[c] += 1;
        }
        assert!(drained.iter().all(|&d| d == 1));
    }

    #[test]
    fn start_jitter_does_not_change_guided_results() {
        let plan = ChunkPlan::fixed(500, 7);
        let run_once = || {
            let pool = ExecPool::new(4);
            let mut out = vec![0u64; plan.len()];
            let slots = UnsafeSlice::new(&mut out);
            pool.par_for_guided(&plan, |chunk, range| {
                for i in range {
                    // SAFETY: disjoint chunk ranges.
                    unsafe { slots.slice_mut(i, 1)[0] = (chunk as u64) << 32 | i as u64 };
                }
            });
            out
        };
        let baseline = run_once();
        for round in 0u64..3 {
            let table: Vec<u64> = (0..4)
                .map(|l| (l * 37 + round * 101) % 200 * 1_000)
                .collect();
            set_test_start_jitter(Some(table));
            let jittered = run_once();
            set_test_start_jitter(None);
            assert_eq!(baseline, jittered, "round {round}");
        }
    }

    #[test]
    fn thread_cpu_time_is_monotonic_when_available() {
        if let Some(a) = thread_cpu_ns() {
            std::hint::black_box((0..100_000).sum::<u64>());
            let b = thread_cpu_ns().expect("still available");
            assert!(b >= a, "thread CPU time went backwards: {a} -> {b}");
        }
    }

    #[test]
    fn stress_repeat_100_race_smoke() {
        // Loom-free race smoke: hammer all primitives from a fresh pool 100
        // times so TSan-style runs and repeat-CI catch protocol races.
        for round in 0..100 {
            let threads = 1 + round % 8;
            let pool = ExecPool::new(threads);
            let mut data = vec![0u64; 257];
            pool.par_for_chunks_mut(&mut data, 16, |chunk, part| {
                for (k, v) in part.iter_mut().enumerate() {
                    *v = (chunk * 16 + k) as u64;
                }
            });
            let direct: u64 = data.iter().sum();
            let reduced = pool
                .par_map_reduce(
                    data.len(),
                    16,
                    |_, range| data[range].iter().sum::<u64>(),
                    |a, b| a + b,
                )
                .unwrap();
            assert_eq!(direct, reduced, "round {round}");
        }
    }
}

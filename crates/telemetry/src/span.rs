//! Span-based profiler: RAII guards, nestable, thread-aware, with
//! wall/self-time accounting.
//!
//! A [`ScopedSpan`] measures the region between its creation and its drop.
//! Spans nest: each thread keeps a stack, a closing span charges its
//! duration to its parent's child-time accumulator, and the recorder
//! aggregates per-name **wall** time (inclusive) and **self** time
//! (exclusive of children) — the two columns of the §3.4-style breakdown.
//!
//! When the recorder is disabled, [`Recorder::span`] performs a single
//! relaxed atomic load and returns an inert guard: no lock, no allocation,
//! no clock read.

use crate::clock::Clock;
use crate::events::{TelemetryEvent, TimedEvent};
use crate::metrics::MetricValue;
use crate::record::{Record, RecordRing};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Default bound on retained span and event records (~88 MB when full);
/// beyond it the oldest records are overwritten while the flat aggregates
/// keep updating.
pub const DEFAULT_RECORD_CAPACITY: usize = 1_000_000;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small dense thread id for trace export (`std::thread::ThreadId` has
    /// no stable integer form).
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

thread_local! {
    /// Session id spans on this thread are attributed to (0 = unscoped).
    /// Set by [`SessionScope`], read at span open.
    static SESSION: Cell<u64> = const { Cell::new(0) };
}

/// Session id currently scoped on this thread (0 = unscoped).
pub fn current_session() -> u64 {
    SESSION.with(Cell::get)
}

/// RAII guard attributing every span opened on this thread to a serve
/// session while it lives. Scopes nest (innermost wins; the previous id is
/// restored on drop), so a scheduler worker that runs session after
/// session never leaks one session's id into the next slice.
#[must_use = "the scope attributes spans only while the guard lives"]
#[derive(Debug)]
pub struct SessionScope {
    prev: u64,
}

/// Attribute spans (and anything else reading [`current_session`]) on this
/// thread to `session` until the returned guard drops.
pub fn session_scope(session: u64) -> SessionScope {
    let prev = SESSION.with(|s| s.replace(session));
    SessionScope { prev }
}

impl Drop for SessionScope {
    fn drop(&mut self) {
        SESSION.with(|s| s.set(self.prev));
    }
}

thread_local! {
    /// Rank id spans on this thread are attributed to (`None` = unscoped).
    /// Set by [`RankScope`], read at span open.
    static RANK: Cell<Option<u32>> = const { Cell::new(None) };
    /// Simulation step spans on this thread are attributed to
    /// (0 = unscoped). Set by [`StepScope`], read at span open.
    static STEP: Cell<u64> = const { Cell::new(0) };
}

/// Rank currently scoped on this thread (`None` = unscoped).
pub fn current_rank() -> Option<u32> {
    RANK.with(Cell::get)
}

/// Simulation step currently scoped on this thread (0 = unscoped).
pub fn current_step() -> u64 {
    STEP.with(Cell::get)
}

/// RAII guard attributing every span opened on this thread to a logical
/// rank (an `apr-parallel` slab) while it lives. Like [`SessionScope`],
/// scopes nest and the previous rank is restored on drop. Rank 0 is a
/// real rank, so the unscoped state is `None`, not zero.
#[must_use = "the scope attributes spans only while the guard lives"]
#[derive(Debug)]
pub struct RankScope {
    prev: Option<u32>,
}

/// Attribute spans (and anything else reading [`current_rank`]) on this
/// thread to `rank` until the returned guard drops.
pub fn rank_scope(rank: u32) -> RankScope {
    let prev = RANK.with(|r| r.replace(Some(rank)));
    RankScope { prev }
}

impl Drop for RankScope {
    fn drop(&mut self) {
        RANK.with(|r| r.set(self.prev));
    }
}

/// RAII guard attributing every span opened on this thread to a
/// simulation step while it lives (1-based by convention so that 0 means
/// "unscoped"; `AprEngine::step` scopes `steps + 1`). Together with
/// [`SessionScope`] and [`RankScope`] this forms the correlation-ID
/// triple the Chrome export writes into each span's `args`.
#[must_use = "the scope attributes spans only while the guard lives"]
#[derive(Debug)]
pub struct StepScope {
    prev: u64,
}

/// Attribute spans (and anything else reading [`current_step`]) on this
/// thread to simulation step `step` until the returned guard drops.
pub fn step_scope(step: u64) -> StepScope {
    let prev = STEP.with(|s| s.replace(step));
    StepScope { prev }
}

impl Drop for StepScope {
    fn drop(&mut self) {
        STEP.with(|s| s.set(self.prev));
    }
}

/// One completed span occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (static, from the span taxonomy in DESIGN.md §8).
    pub name: &'static str,
    /// Dense thread id.
    pub tid: u64,
    /// Start, nanoseconds since the recorder clock origin.
    pub start_ns: u64,
    /// Inclusive duration in nanoseconds.
    pub dur_ns: u64,
    /// Exclusive (self) duration: `dur_ns` minus child span time.
    pub self_ns: u64,
    /// Nesting depth at creation (0 = top level).
    pub depth: u16,
    /// Serve session the span ran under (0 = unscoped), captured from the
    /// thread's [`SessionScope`] when the span opened.
    pub session: u64,
    /// Logical rank the span ran under (`None` = unscoped), captured from
    /// the thread's [`RankScope`] when the span opened.
    pub rank: Option<u32>,
    /// Simulation step the span ran under (0 = unscoped), captured from
    /// the thread's [`StepScope`] when the span opened.
    pub step: u64,
}

/// Aggregated per-lane busy-time statistics attached to a span name —
/// "lane" meaning an `apr-exec` worker ([`PhaseStat::workers`]).
///
/// One *region* is one parallel section (one pool dispatch); each region
/// contributes `lanes` samples of per-lane busy time plus one imbalance
/// observation `max_lane / mean_lane`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaneStats {
    /// Parallel regions recorded under this phase.
    pub regions: u64,
    /// Total per-lane samples (`Σ lanes` over regions).
    pub samples: u64,
    /// Total busy nanoseconds summed over all lanes of all regions.
    pub busy_ns: u64,
    /// Fastest single lane sample.
    pub min_ns: u64,
    /// Slowest single lane sample.
    pub max_ns: u64,
    /// Total barrier-wait nanoseconds summed over all lanes of all
    /// regions: each lane's wait is the region span (dispatch-to-barrier
    /// wall time) minus that lane's busy time. Kept separate from
    /// [`busy_ns`] so a lane idling at a barrier is never mistaken for a
    /// lane working — the distinction behind the paper's rank-wait
    /// analysis.
    ///
    /// [`busy_ns`]: LaneStats::busy_ns
    pub wait_ns: u64,
    /// Sum of per-region imbalance factors (see [`LaneStats::imbalance`]).
    pub imbalance_sum: f64,
}

impl LaneStats {
    /// Mean busy nanoseconds per lane sample.
    pub fn mean_ns(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.samples as f64
        }
    }

    /// Mean load-imbalance factor over regions: `max_lane / mean_lane`
    /// per region, averaged. 1.0 means perfectly balanced (and is the
    /// value reported when no regions were recorded); the paper's
    /// CPU-vs-GPU rank-wait analysis is the analogue at MPI scale.
    pub fn imbalance(&self) -> f64 {
        if self.regions == 0 {
            1.0
        } else {
            self.imbalance_sum / self.regions as f64
        }
    }

    fn record_region(&mut self, region_ns: u64, lane_busy_ns: &[u64]) {
        if lane_busy_ns.is_empty() {
            return;
        }
        if self.samples == 0 {
            self.min_ns = u64::MAX;
        }
        let sum: u64 = lane_busy_ns.iter().sum();
        let max = *lane_busy_ns.iter().max().unwrap();
        let min = *lane_busy_ns.iter().min().unwrap();
        self.regions += 1;
        self.samples += lane_busy_ns.len() as u64;
        self.busy_ns += sum;
        self.wait_ns += lane_busy_ns
            .iter()
            .map(|&b| region_ns.saturating_sub(b))
            .sum::<u64>();
        self.min_ns = self.min_ns.min(min);
        self.max_ns = self.max_ns.max(max);
        let mean = sum as f64 / lane_busy_ns.len() as f64;
        self.imbalance_sum += if mean > 0.0 { max as f64 / mean } else { 1.0 };
    }

    fn merge(&mut self, other: &LaneStats) {
        if other.samples == 0 {
            return;
        }
        if self.samples == 0 {
            self.min_ns = u64::MAX;
        }
        self.regions += other.regions;
        self.samples += other.samples;
        self.busy_ns += other.busy_ns;
        self.wait_ns += other.wait_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.imbalance_sum += other.imbalance_sum;
    }
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseStat {
    /// Phase name.
    pub name: String,
    /// Completed occurrences.
    pub count: u64,
    /// Total inclusive nanoseconds.
    pub total_ns: u64,
    /// Total exclusive nanoseconds: wall minus child spans minus time
    /// blocked on the `apr-exec` pool barrier — main-thread work only.
    pub self_ns: u64,
    /// Fastest single occurrence.
    pub min_ns: u64,
    /// Slowest single occurrence.
    pub max_ns: u64,
    /// Total nanoseconds the owning thread spent blocked on pool barriers
    /// inside this phase (parallel-region wall minus its own lane's work).
    pub barrier_ns: u64,
    /// Per-worker attribution from `apr-exec` parallel regions.
    pub workers: LaneStats,
}

impl PhaseStat {
    /// Mean inclusive nanoseconds per occurrence.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    barrier_ns: u64,
    workers: LaneStats,
    depth: u16,
    session: u64,
    rank: Option<u32>,
    step: u64,
}

#[derive(Debug, Default)]
struct PhaseAcc {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    min_ns: u64,
    max_ns: u64,
    barrier_ns: u64,
    workers: LaneStats,
}

#[derive(Debug)]
pub(crate) struct Inner {
    stacks: HashMap<u64, Vec<Frame>>,
    /// Completed spans and events, in completion order.
    pub(crate) records: RecordRing,
    stats: BTreeMap<&'static str, PhaseAcc>,
    pub(crate) metrics: BTreeMap<&'static str, MetricValue>,
    pub(crate) metric_rows: Vec<String>,
    pub(crate) attributes: BTreeMap<&'static str, String>,
}

impl Inner {
    fn new(capacity: usize) -> Self {
        Self {
            stacks: HashMap::new(),
            records: RecordRing::new(capacity),
            stats: BTreeMap::new(),
            metrics: BTreeMap::new(),
            metric_rows: Vec::new(),
            attributes: BTreeMap::new(),
        }
    }
}

/// The telemetry recorder: span profiler, metrics registry and event
/// stream behind one enable flag and one clock.
///
/// Most code uses the process-global recorder through the free functions
/// in the crate root; tests construct their own (optionally with a manual
/// clock) for isolation.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    clock: Clock,
    pub(crate) inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// New disabled recorder on the real monotonic clock.
    pub fn new() -> Self {
        Self::with_clock(Clock::real())
    }

    /// New disabled recorder on an explicit clock (tests pass
    /// [`Clock::manual`] for deterministic span timing).
    pub fn with_clock(clock: Clock) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            clock,
            inner: Mutex::new(Inner::new(DEFAULT_RECORD_CAPACITY)),
        }
    }

    /// Start recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Stop recording (already-captured data is kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Is the recorder currently capturing?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The recorder's clock (spans, events and manual timing all read it).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Drop all captured data (spans, stats, metrics, events); keeps the
    /// enable state and capacity.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        let cap = inner.records.capacity();
        *inner = Inner::new(cap);
    }

    /// Bound the retained span and event records to `cap` (default
    /// [`DEFAULT_RECORD_CAPACITY`]). Past it the oldest records are
    /// overwritten and counted by [`Recorder::dropped`]; the per-phase
    /// aggregates keep updating.
    pub fn set_capacity(&self, cap: usize) {
        self.inner.lock().unwrap().records.set_capacity(cap);
    }

    /// Span and event records overwritten since the last reset.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().records.dropped()
    }

    /// Open a span; the returned guard closes it on drop. Near-zero cost
    /// when disabled.
    #[inline]
    pub fn span(&self, name: &'static str) -> ScopedSpan<'_> {
        if !self.is_enabled() {
            return ScopedSpan { rec: None, name };
        }
        self.begin_span(name);
        ScopedSpan {
            rec: Some(self),
            name,
        }
    }

    fn begin_span(&self, name: &'static str) {
        let now = self.clock.now_ns();
        let tid = current_tid();
        let session = current_session();
        let rank = current_rank();
        let step = current_step();
        let mut inner = self.inner.lock().unwrap();
        let stack = inner.stacks.entry(tid).or_default();
        let depth = stack.len() as u16;
        stack.push(Frame {
            name,
            start_ns: now,
            child_ns: 0,
            barrier_ns: 0,
            workers: LaneStats::default(),
            depth,
            session,
            rank,
            step,
        });
    }

    fn end_span(&self, name: &'static str) {
        let now = self.clock.now_ns();
        let tid = current_tid();
        let mut inner = self.inner.lock().unwrap();
        let stack = inner.stacks.entry(tid).or_default();
        let Some(frame) = stack.pop() else { return };
        debug_assert_eq!(frame.name, name, "span guards must nest");
        let dur_ns = now.saturating_sub(frame.start_ns);
        // Self time is main-thread work only: wall minus child spans minus
        // time blocked on the exec-pool barrier (the workers' share is
        // reported separately through `PhaseStat::workers`).
        let self_ns = dur_ns
            .saturating_sub(frame.child_ns)
            .saturating_sub(frame.barrier_ns);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let acc = inner.stats.entry(frame.name).or_default();
        if acc.count == 0 {
            acc.min_ns = u64::MAX;
        }
        acc.count += 1;
        acc.total_ns += dur_ns;
        acc.self_ns += self_ns;
        acc.min_ns = acc.min_ns.min(dur_ns);
        acc.max_ns = acc.max_ns.max(dur_ns);
        acc.barrier_ns += frame.barrier_ns;
        acc.workers.merge(&frame.workers);
        inner.records.push(Record::Span(SpanRecord {
            name: frame.name,
            tid,
            start_ns: frame.start_ns,
            dur_ns,
            self_ns,
            depth: frame.depth,
            session: frame.session,
            rank: frame.rank,
            step: frame.step,
        }));
    }

    /// Attribute one `apr-exec` parallel region to the innermost open span
    /// on the calling thread. `wall_ns` is the region's dispatch-to-barrier
    /// wall time; `lane_busy_ns[i]` is lane `i`'s busy time, lane 0 being
    /// the submitting thread itself. The submitting thread's barrier wait
    /// (`wall_ns - lane_busy_ns[0]`) is subtracted from the span's self
    /// time when it closes. No-op when disabled or with no open span.
    pub fn record_parallel_region(&self, wall_ns: u64, lane_busy_ns: &[u64]) {
        if !self.is_enabled() || lane_busy_ns.is_empty() {
            return;
        }
        let tid = current_tid();
        let mut inner = self.inner.lock().unwrap();
        let Some(frame) = inner.stacks.entry(tid).or_default().last_mut() else {
            return;
        };
        frame.barrier_ns += wall_ns.saturating_sub(lane_busy_ns[0]);
        frame.workers.record_region(wall_ns, lane_busy_ns);
    }

    /// Time `f` on the recorder clock, returning its result and the
    /// elapsed nanoseconds. The measurement is taken whether or not the
    /// recorder is enabled; when enabled, a span named `name` is recorded
    /// from the same two clock reads — one clock path for printed numbers
    /// and trace output.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = self.clock.now_ns();
        let span = self.span(name);
        let out = f();
        drop(span);
        (out, self.clock.now_ns().saturating_sub(start))
    }

    /// Add `delta` to a named counter (created at zero on first touch).
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        match inner.metrics.entry(name).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += delta,
            other => debug_assert!(false, "metric {name} is not a counter: {other:?}"),
        }
    }

    /// Set a named gauge to `v`.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, v: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        match inner.metrics.entry(name).or_insert(MetricValue::Gauge(0.0)) {
            MetricValue::Gauge(g) => *g = v,
            other => debug_assert!(false, "metric {name} is not a gauge: {other:?}"),
        }
    }

    /// Current value of a metric, if registered.
    pub fn metric(&self, name: &str) -> Option<MetricValue> {
        self.inner.lock().unwrap().metrics.get(name).cloned()
    }

    /// Set a run-level attribute: a small key → value annotation describing
    /// *how* the run was configured (e.g. `lattice.kernel` → `fused`), kept
    /// alongside the metrics and exported as Chrome-trace metadata so a
    /// profile is self-describing. Last write per key wins.
    #[inline]
    pub fn set_attribute(&self, key: &'static str, value: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        self.inner
            .lock()
            .unwrap()
            .attributes
            .insert(key, value.into());
    }

    /// All run-level attributes set so far, sorted by key.
    pub fn attributes(&self) -> Vec<(String, String)> {
        self.inner
            .lock()
            .unwrap()
            .attributes
            .iter()
            .map(|(&k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// Emit a typed event, stamped with the recorder clock.
    #[inline]
    pub fn emit(&self, event: TelemetryEvent) {
        if !self.is_enabled() {
            return;
        }
        let t_ns = self.clock.now_ns();
        self.inner
            .lock()
            .unwrap()
            .records
            .push(Record::Event(TimedEvent { t_ns, event }));
    }

    /// Retained events, in emission order.
    pub fn events(&self) -> Vec<TimedEvent> {
        let inner = self.inner.lock().unwrap();
        inner
            .records
            .iter()
            .filter_map(|r| match r {
                Record::Event(e) => Some(*e),
                Record::Span(_) => None,
            })
            .collect()
    }

    /// Retained span records, in completion order.
    pub fn span_records(&self) -> Vec<SpanRecord> {
        self.spans_where(|_| true)
    }

    /// Retained span records attributed to one serve session (see
    /// [`session_scope`]); `session` 0 selects unscoped spans.
    pub fn session_span_records(&self, session: u64) -> Vec<SpanRecord> {
        self.spans_where(|s| s == session)
    }

    fn spans_where(&self, keep: impl Fn(u64) -> bool) -> Vec<SpanRecord> {
        let inner = self.inner.lock().unwrap();
        inner
            .records
            .iter()
            .filter_map(|r| match r {
                Record::Span(s) if keep(s.session) => Some(*s),
                _ => None,
            })
            .collect()
    }

    /// Flat per-phase table (wall/self time), sorted by total wall time
    /// descending.
    pub fn phase_stats(&self) -> Vec<PhaseStat> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<PhaseStat> = inner
            .stats
            .iter()
            .map(|(&name, a)| PhaseStat {
                name: name.to_string(),
                count: a.count,
                total_ns: a.total_ns,
                self_ns: a.self_ns,
                min_ns: a.min_ns,
                max_ns: a.max_ns,
                barrier_ns: a.barrier_ns,
                workers: a.workers,
            })
            .collect();
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        out
    }
}

/// RAII span guard returned by [`Recorder::span`]; the span closes when
/// this drops. Inert (a single `Option` check on drop) when the recorder
/// was disabled at creation.
#[must_use = "a span measures the region until the guard drops"]
#[derive(Debug)]
pub struct ScopedSpan<'a> {
    rec: Option<&'a Recorder>,
    name: &'static str,
}

impl Drop for ScopedSpan<'_> {
    fn drop(&mut self) {
        if let Some(rec) = self.rec {
            rec.end_span(self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_captures_nothing() {
        let rec = Recorder::new();
        {
            let _s = rec.span("phantom");
        }
        rec.counter_add("c", 1);
        rec.gauge_set("g", 1.0);
        assert!(rec.span_records().is_empty());
        assert!(rec.phase_stats().is_empty());
        assert!(rec.metric("c").is_none());
    }

    #[test]
    fn nested_spans_split_wall_and_self_time() {
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        {
            let _outer = rec.span("outer");
            rec.clock().advance(100);
            {
                let _inner = rec.span("inner");
                rec.clock().advance(40);
            }
            rec.clock().advance(10);
        }
        let stats = rec.phase_stats();
        let outer = stats.iter().find(|s| s.name == "outer").unwrap();
        let inner = stats.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.total_ns, 150);
        assert_eq!(outer.self_ns, 110);
        assert_eq!(inner.total_ns, 40);
        assert_eq!(inner.self_ns, 40);
        let records = rec.span_records();
        assert_eq!(records.len(), 2);
        // Completion order: inner first, at depth 1.
        assert_eq!(records[0].name, "inner");
        assert_eq!(records[0].depth, 1);
        assert_eq!(records[1].depth, 0);
    }

    #[test]
    fn sibling_children_accumulate_into_parent() {
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        {
            let _outer = rec.span("outer");
            for _ in 0..3 {
                let _child = rec.span("child");
                rec.clock().advance(20);
            }
            rec.clock().advance(5);
        }
        let stats = rec.phase_stats();
        let outer = stats.iter().find(|s| s.name == "outer").unwrap();
        let child = stats.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(outer.total_ns, 65);
        assert_eq!(outer.self_ns, 5);
        assert_eq!(child.count, 3);
        assert_eq!(child.total_ns, 60);
        assert_eq!(child.min_ns, 20);
        assert_eq!(child.max_ns, 20);
    }

    #[test]
    fn full_buffer_keeps_the_newest_records_in_completion_order() {
        let (cap, k) = (6usize, 5usize);
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        rec.set_capacity(cap);
        // Spans and events interleaved, each record stamped with its
        // completion index so the survivors can be named.
        for i in 0..(cap + k) as u64 {
            rec.clock().advance(1);
            if i % 2 == 0 {
                let _s = rec.span("p");
            } else {
                rec.emit(TelemetryEvent::EscapedCells { step: i, count: 1 });
            }
        }
        let kept: Vec<u64> = rec
            .inner
            .lock()
            .unwrap()
            .records
            .iter()
            .map(|r| match r {
                Record::Span(s) => s.start_ns - 1,
                Record::Event(e) => e.event.step(),
            })
            .collect();
        assert_eq!(kept, (k as u64..(cap + k) as u64).collect::<Vec<_>>());
        assert_eq!(rec.dropped(), k as u64);
        assert_eq!(rec.span_records().len() + rec.events().len(), cap);
        assert_eq!(rec.phase_stats()[0].count, (cap + k).div_ceil(2) as u64);
        let summary = crate::validate_chrome_trace(&rec.chrome_trace_json()).unwrap();
        assert_eq!(summary.span_records + summary.event_records, cap);
        // Shrinking keeps the newest; zero capacity keeps nothing.
        rec.set_capacity(2);
        assert_eq!(
            rec.events().last().unwrap().event.step(),
            (cap + k - 2) as u64
        );
        assert_eq!(rec.dropped(), (k + cap - 2) as u64);
        rec.set_capacity(0);
        rec.emit(TelemetryEvent::EscapedCells { step: 0, count: 1 });
        assert!(rec.events().is_empty() && rec.span_records().is_empty());
        assert_eq!(rec.dropped(), (k + cap + 1) as u64);
    }

    #[test]
    fn time_measures_with_and_without_recording() {
        let rec = Recorder::with_clock(Clock::manual());
        let (_, ns) = rec.time("bench", || rec.clock().advance(123));
        assert_eq!(ns, 123);
        assert!(rec.span_records().is_empty());
        rec.enable();
        let (_, ns) = rec.time("bench", || rec.clock().advance(55));
        assert_eq!(ns, 55);
        let recs = rec.span_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].dur_ns, 55);
    }

    #[test]
    fn parallel_region_subtracts_barrier_from_self_time() {
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        {
            let _s = rec.span("par");
            rec.clock().advance(100);
            // One pool dispatch: 60 ns wall, lane 0 (the span's own
            // thread) busy 20 ns, lane 1 busy 40 ns → 40 ns barrier wait.
            rec.record_parallel_region(60, &[20, 40]);
        }
        let stats = rec.phase_stats();
        let par = stats.iter().find(|s| s.name == "par").unwrap();
        assert_eq!(par.total_ns, 100);
        assert_eq!(par.barrier_ns, 40);
        assert_eq!(par.self_ns, 60, "self excludes the barrier wait");
        assert_eq!(par.workers.regions, 1);
        assert_eq!(par.workers.samples, 2);
        assert_eq!(par.workers.busy_ns, 60);
        assert_eq!(par.workers.min_ns, 20);
        assert_eq!(par.workers.max_ns, 40);
        assert_eq!(par.workers.wait_ns, 60, "(60-20) + (60-40)");
        // max/mean = 40/30.
        assert!((par.workers.imbalance() - 4.0 / 3.0).abs() < 1e-12);
        let records = rec.span_records();
        assert_eq!(records[0].self_ns, 60);
    }

    #[test]
    fn balanced_region_has_unit_imbalance_and_skew_exceeds_it() {
        let mut balanced = LaneStats::default();
        balanced.record_region(200, &[50, 50, 50, 50]);
        assert_eq!(balanced.imbalance(), 1.0);
        assert_eq!(balanced.wait_ns, 600, "each lane waited 150 of 200 ns");
        let mut skewed = LaneStats::default();
        skewed.record_region(200, &[10, 190]);
        assert!((skewed.imbalance() - 1.9).abs() < 1e-12);
        assert_eq!(skewed.wait_ns, 200);
        // Sequential runs (one lane) are balanced by definition.
        let mut solo = LaneStats::default();
        solo.record_region(123, &[123]);
        assert_eq!(solo.imbalance(), 1.0);
        assert_eq!(solo.wait_ns, 0);
        assert_eq!(LaneStats::default().imbalance(), 1.0);
    }

    #[test]
    fn orphan_region_without_open_span_is_ignored() {
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        rec.record_parallel_region(10, &[10]);
        assert!(rec.phase_stats().is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let rec = Recorder::new();
        rec.enable();
        {
            let _s = rec.span("x");
        }
        rec.counter_add("c", 2);
        rec.emit(TelemetryEvent::EscapedCells { step: 1, count: 2 });
        rec.set_attribute("k", "v");
        rec.reset();
        assert!(rec.span_records().is_empty());
        assert!(rec.events().is_empty());
        assert!(rec.metric("c").is_none());
        assert!(rec.attributes().is_empty());
        assert!(rec.is_enabled(), "reset keeps the enable state");
    }

    #[test]
    fn session_scope_attributes_spans_and_nests() {
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        {
            let _s = rec.span("outside");
            rec.clock().advance(1);
        }
        {
            let _scope = session_scope(7);
            {
                let _s = rec.span("inside");
                rec.clock().advance(1);
            }
            {
                let _nested = session_scope(9);
                let _s = rec.span("nested");
                rec.clock().advance(1);
            }
            assert_eq!(current_session(), 7, "inner scope restored outer id");
        }
        assert_eq!(current_session(), 0);
        let by_name = |n: &str| {
            rec.span_records()
                .into_iter()
                .find(|r| r.name == n)
                .unwrap()
        };
        assert_eq!(by_name("outside").session, 0);
        assert_eq!(by_name("inside").session, 7);
        assert_eq!(by_name("nested").session, 9);
        assert_eq!(rec.session_span_records(7).len(), 1);
        assert_eq!(rec.session_span_records(0).len(), 1);
    }

    #[test]
    fn rank_and_step_scopes_attribute_spans_and_nest() {
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        {
            let _s = rec.span("unscoped");
            rec.clock().advance(1);
        }
        {
            let _rank = rank_scope(0); // rank 0 is a real rank, not "unset"
            let _step = step_scope(3);
            {
                let _s = rec.span("scoped");
                rec.clock().advance(1);
            }
            {
                let _inner_rank = rank_scope(2);
                let _inner_step = step_scope(4);
                let _s = rec.span("nested");
                rec.clock().advance(1);
            }
            assert_eq!(current_rank(), Some(0), "inner scope restored");
            assert_eq!(current_step(), 3);
        }
        assert_eq!(current_rank(), None);
        assert_eq!(current_step(), 0);
        let by_name = |n: &str| {
            rec.span_records()
                .into_iter()
                .find(|r| r.name == n)
                .unwrap()
        };
        let unscoped = by_name("unscoped");
        assert_eq!(unscoped.rank, None);
        assert_eq!(unscoped.step, 0);
        let scoped = by_name("scoped");
        assert_eq!(scoped.rank, Some(0));
        assert_eq!(scoped.step, 3);
        let nested = by_name("nested");
        assert_eq!(nested.rank, Some(2));
        assert_eq!(nested.step, 4);
    }

    #[test]
    fn attributes_record_last_write_and_respect_enable() {
        let rec = Recorder::new();
        rec.set_attribute("lattice.kernel", "reference");
        assert!(rec.attributes().is_empty(), "disabled recorder drops them");
        rec.enable();
        rec.set_attribute("lattice.kernel", "reference");
        rec.set_attribute("lattice.kernel", "fused");
        assert_eq!(
            rec.attributes(),
            vec![("lattice.kernel".to_string(), "fused".to_string())]
        );
    }
}

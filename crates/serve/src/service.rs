//! The scheduler: N ≫ cores sessions time-sliced over a fixed set of
//! workers by checkpoint-preempt-resume.
//!
//! ## Scheduling policy
//!
//! Round-robin over a FIFO ready queue, with the slice budget measured in
//! **engine steps**, not wall time — a deterministic unit, so the sequence
//! of states every session passes through is independent of machine load,
//! worker count, and scheduling order. Each worker owns one exec pool of
//! `lanes_per_worker` lanes, installed as its thread's current pool for the
//! worker's lifetime (every `apr_exec::current()` call an engine makes
//! lands on it, so lane occupancy never exceeds `workers ×
//! lanes_per_worker`). A granted session steps at most `slice_steps`, then
//! either completes or is **preempted**: suspended via the engine's
//! bit-exact checkpoint, parked in an in-memory [`MemoryStore`], and
//! re-queued at the back. Nothing touches disk on the preempt hot path.
//!
//! ## Determinism
//!
//! Suspend/resume is bit-exact, stepping is bit-identical for any lane
//! count, and checkpoint blobs at step boundaries are kernel-independent;
//! therefore a session preempted N times produces a final checkpoint
//! byte-identical to the same scenario run straight through — the
//! zero-cross-session-nondeterminism contract
//! (`tests/preempt_determinism.rs` pins it).
//!
//! ## Worker isolation
//!
//! Each slice runs under `catch_unwind`: a session whose engine panics
//! (numerical blow-up) completes with an error result; the worker thread,
//! its pool, and every other session are unaffected.

use crate::cache::WarmCache;
use crate::metrics::ServiceMetrics;
use crate::progress::{ProgressHub, ProgressSample, ProgressSubscription};
use crate::session::{JobSpec, SessionResult, SessionStats, SessionStatus};
use crate::store::SpillStore;
use apr_core::SimSession;
use apr_exec::ExecPool;
use apr_guard::FileStore;
use apr_telemetry::TelemetryEvent;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Service sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Scheduler worker threads (concurrent sessions in flight).
    pub workers: usize,
    /// Lanes of each worker's exec pool; total lane occupancy never
    /// exceeds `workers * lanes_per_worker`.
    pub lanes_per_worker: usize,
    /// Time-slice budget in engine steps (deterministic preemption unit).
    pub slice_steps: u64,
    /// Admission-control cap on in-flight (admitted, not yet completed)
    /// sessions; [`SimService::submit`] rejects beyond it.
    pub max_sessions: usize,
    /// Warm-state cache capacity in scenarios.
    pub cache_capacity: usize,
    /// Byte cap on parked checkpoints held in memory. Beyond it the
    /// oldest-parked blobs spill to an atomic-write file store in a
    /// service-private temp directory (see [`crate::SpillStore`]).
    /// `usize::MAX` (the default) never spills and never touches disk.
    pub park_bytes_cap: usize,
}

impl ServeConfig {
    /// Config for `workers` single-lane workers with serve defaults:
    /// 10-step slices, 64-session admission cap, 8-scenario cache,
    /// unbounded in-memory parking.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            lanes_per_worker: 1,
            slice_steps: 10,
            max_sessions: 64,
            cache_capacity: 8,
            park_bytes_cap: usize::MAX,
        }
    }
}

/// Why [`SimService::submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The in-flight session count is at `max_sessions`.
    Saturated {
        /// Sessions currently admitted and not yet completed.
        inflight: usize,
        /// The configured cap.
        max: usize,
    },
    /// The service is shutting down.
    ShuttingDown,
    /// The job's scenario failed [`apr_scenarios::ScenarioSpec::validate`]
    /// (bad physics parameters, out-of-bounds or overlapping windows).
    /// Rejected at admission so a doomed build never occupies a worker.
    InvalidScenario,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Saturated { inflight, max } => {
                write!(f, "admission refused: {inflight}/{max} sessions in flight")
            }
            AdmitError::ShuttingDown => write!(f, "admission refused: service shutting down"),
            AdmitError::InvalidScenario => {
                write!(f, "admission refused: scenario spec failed validation")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

struct SessionEntry {
    spec: JobSpec,
    status: SessionStatus,
    steps_done: u64,
    site_updates: u64,
    stats: SessionStats,
    result: Option<SessionResult>,
}

struct State {
    next_id: u64,
    queue: VecDeque<u64>,
    sessions: HashMap<u64, SessionEntry>,
    /// Parked checkpoints of preempted sessions, keyed `session-<id>`;
    /// memory-resident up to `park_bytes_cap`, spilled to disk beyond.
    parked: SpillStore,
    /// Global slice-grant counter (fairness clock).
    grants: u64,
    inflight: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for runnable sessions.
    ready: Condvar,
    /// Waiters ([`SimService::wait`]/[`SimService::wait_all`]) wait here.
    done: Condvar,
    cache: WarmCache,
    /// Per-slice session progress, published as slices retire.
    progress: ProgressHub,
    shutdown: AtomicBool,
}

fn park_key(id: u64) -> String {
    format!("session-{id}")
}

/// The multi-tenant simulation service. Construct with
/// [`SimService::start`]; submit jobs; wait; shut down (automatic on
/// drop).
pub struct SimService {
    shared: Arc<Shared>,
    config: ServeConfig,
    workers: Vec<JoinHandle<()>>,
    started: Instant,
    /// Spill directory for parked checkpoints; removed on shutdown.
    spill_dir: Option<std::path::PathBuf>,
}

impl SimService {
    /// Start the service: spawns `config.workers` scheduler threads, each
    /// with its own `lanes_per_worker`-lane exec pool.
    pub fn start(config: ServeConfig) -> Self {
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let service_id = INSTANCE.fetch_add(1, Ordering::Relaxed);
        // A finite park cap needs somewhere to spill: a service-private
        // temp directory, removed on shutdown.
        let spill_dir = (config.park_bytes_cap < usize::MAX).then(|| {
            std::env::temp_dir().join(format!(
                "apr-serve-spill-{}-{service_id}",
                std::process::id()
            ))
        });
        let parked = match &spill_dir {
            Some(dir) => SpillStore::new(
                config.park_bytes_cap,
                Some(FileStore::open(dir).expect("create spill directory")),
            ),
            None => SpillStore::unbounded(),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                next_id: 0,
                queue: VecDeque::new(),
                sessions: HashMap::new(),
                parked,
                grants: 0,
                inflight: 0,
            }),
            ready: Condvar::new(),
            done: Condvar::new(),
            cache: WarmCache::new(config.cache_capacity),
            progress: ProgressHub::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("apr-serve-{i}"))
                    .spawn(move || {
                        let pool = Arc::new(ExecPool::new(config.lanes_per_worker));
                        apr_exec::with_pool(pool, || worker_loop(&shared, config))
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            shared,
            config,
            workers,
            started: Instant::now(),
            spill_dir,
        }
    }

    /// The service's sizing config.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The warm-state cache (hit/miss counters feed the metrics).
    pub fn cache(&self) -> &WarmCache {
        &self.shared.cache
    }

    /// Admit a job. Returns its session id, or refuses when the in-flight
    /// count is at `max_sessions` (admission control: parked state is
    /// resident memory, so the cap bounds the service's footprint).
    pub fn submit(&self, spec: JobSpec) -> Result<u64, AdmitError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(AdmitError::ShuttingDown);
        }
        if spec.scenario.validate().is_err() {
            return Err(AdmitError::InvalidScenario);
        }
        let mut st = self.shared.state.lock().unwrap();
        if st.inflight >= self.config.max_sessions {
            return Err(AdmitError::Saturated {
                inflight: st.inflight,
                max: self.config.max_sessions,
            });
        }
        st.next_id += 1;
        let id = st.next_id;
        let scenario = spec.scenario.hash();
        let mut stats = SessionStats::new(Instant::now());
        stats.queued_at_grant = st.grants;
        st.sessions.insert(
            id,
            SessionEntry {
                spec,
                status: SessionStatus::Queued,
                steps_done: 0,
                site_updates: 0,
                stats,
                result: None,
            },
        );
        st.queue.push_back(id);
        st.inflight += 1;
        drop(st);
        apr_telemetry::emit(TelemetryEvent::SessionAdmitted {
            session: id,
            scenario,
        });
        self.shared.ready.notify_one();
        Ok(id)
    }

    /// A session's lifecycle status (`None` for unknown ids).
    pub fn status(&self, id: u64) -> Option<SessionStatus> {
        self.shared
            .state
            .lock()
            .unwrap()
            .sessions
            .get(&id)
            .map(|e| e.status)
    }

    /// Subscribe to live per-slice progress. Every scheduler slice
    /// publishes a [`ProgressSample`] (steps done, steps/s, cache-hit,
    /// completion) on this service's progress channel; this returns a
    /// bounded subscription to it, filtered to `session` when `Some`, or
    /// covering all sessions when `None`. Samples push as slices retire;
    /// nothing is pulled under the scheduler lock.
    pub fn subscribe_progress(&self, session: Option<u64>) -> ProgressSubscription {
        self.shared.progress.subscribe(session)
    }

    /// Scheduler bookkeeping for one session (`None` for unknown ids).
    pub fn session_stats(&self, id: u64) -> Option<SessionStats> {
        self.shared
            .state
            .lock()
            .unwrap()
            .sessions
            .get(&id)
            .map(|e| e.stats.clone())
    }

    /// Block until session `id` completes; returns its result (`None` for
    /// unknown ids).
    pub fn wait(&self, id: u64) -> Option<SessionResult> {
        let mut st = self.shared.state.lock().unwrap();
        loop {
            match st.sessions.get(&id) {
                None => return None,
                Some(e) => {
                    if let Some(r) = &e.result {
                        return Some(r.clone());
                    }
                }
            }
            st = self.shared.done.wait(st).unwrap();
        }
    }

    /// Block until every admitted session completes; returns all results
    /// sorted by session id.
    pub fn wait_all(&self) -> Vec<SessionResult> {
        let mut st = self.shared.state.lock().unwrap();
        while st.inflight > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        let mut out: Vec<SessionResult> = st
            .sessions
            .values()
            .filter_map(|e| e.result.clone())
            .collect();
        out.sort_unstable_by_key(|r| r.session);
        out
    }

    /// Service-level metrics over everything observed so far.
    pub fn metrics(&self) -> ServiceMetrics {
        let st = self.shared.state.lock().unwrap();
        ServiceMetrics::compute(
            st.sessions.values().map(|e| (&e.stats, e.result.as_ref())),
            self.started.elapsed().as_secs_f64(),
            &self.shared.cache,
            &st.parked,
        )
    }

    /// Stop the workers after their current slices; in-queue sessions stay
    /// incomplete. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Unblock any wait()/wait_all() callers stuck on sessions that
        // will now never complete.
        self.shared.done.notify_all();
        if let Some(dir) = &self.spill_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

impl Drop for SimService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What one slice produced, applied to the session entry under the state
/// lock afterwards.
struct SliceOutcome {
    stepped: u64,
    site_updates: u64,
    /// Final checkpoint when the session reached its target.
    completed: Option<Vec<u8>>,
    /// Parked checkpoint when preempted.
    parked: Option<Vec<u8>>,
    /// `Some` on the first slice: did setup hit the warm cache?
    cache_hit: Option<bool>,
    /// Instant stepping began (for time-to-first-step on slice one).
    stepping_started: Instant,
    setup_ns: u64,
    resume_ns: u64,
    step_ns: u64,
    suspend_ns: u64,
}

/// Build the per-slice progress sample published on the service's
/// progress channel, from the just-updated session entry. It is published
/// under the state lock: a session's samples arrive in slice order, and
/// its completion sample is queued before `wait`/`wait_all` can return.
fn progress_sample(
    id: u64,
    entry: &SessionEntry,
    stepped: u64,
    step_ns: u64,
    completed: bool,
) -> ProgressSample {
    ProgressSample {
        session: id,
        steps_done: entry.steps_done,
        target_steps: entry.spec.target_steps,
        slice: entry.stats.resumes,
        steps_per_sec: stepped as f64 * 1e9 / step_ns.max(1) as f64,
        cache_hit: entry.stats.cache_hit,
        completed,
    }
}

fn worker_loop(shared: &Arc<Shared>, cfg: ServeConfig) {
    loop {
        let mut st = shared.state.lock().unwrap();
        let id = loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if let Some(id) = st.queue.pop_front() {
                break id;
            }
            st = shared.ready.wait(st).unwrap();
        };
        st.grants += 1;
        let grant = st.grants;
        let parked = st
            .parked
            .take(&park_key(id))
            .expect("parked checkpoint retrieval failed");
        let entry = st.sessions.get_mut(&id).expect("queued session exists");
        entry.status = SessionStatus::Running;
        // Grants are counted and sessions popped under this one lock, so
        // the gap is exactly 1 + the sessions that were ahead in the queue.
        let gap = grant - entry.stats.queued_at_grant;
        entry.stats.max_grant_gap = entry.stats.max_grant_gap.max(gap);
        entry.stats.resumes += 1;
        let spec = entry.spec.clone();
        let steps_done = entry.steps_done;
        drop(st);

        let slice = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_slice(
                &shared.cache,
                id,
                &spec,
                steps_done,
                parked,
                cfg.slice_steps,
            )
        }));

        let mut st = shared.state.lock().unwrap();
        let grants = st.grants;
        let entry = st.sessions.get_mut(&id).expect("running session exists");
        match slice {
            Ok(out) => {
                entry.steps_done += out.stepped;
                entry.site_updates += out.site_updates;
                entry.stats.setup_ns += out.setup_ns;
                entry.stats.resume_ns += out.resume_ns;
                entry.stats.step_ns += out.step_ns;
                entry.stats.suspend_ns += out.suspend_ns;
                if let Some(hit) = out.cache_hit {
                    entry.stats.cache_hit = Some(hit);
                    entry.stats.time_to_first_step =
                        Some(out.stepping_started.duration_since(entry.stats.admitted_at));
                }
                if let Some(final_checkpoint) = out.completed {
                    entry.status = SessionStatus::Completed;
                    entry.result = Some(SessionResult {
                        session: id,
                        scenario: spec.scenario.hash(),
                        steps: entry.steps_done,
                        site_updates: entry.site_updates,
                        final_checkpoint,
                        cache_hit: entry.stats.cache_hit.unwrap_or(false),
                        preempts: entry.stats.preempts,
                        error: None,
                    });
                    shared.progress.publish(progress_sample(
                        id,
                        entry,
                        out.stepped,
                        out.step_ns,
                        true,
                    ));
                    st.inflight -= 1;
                    drop(st);
                    shared.done.notify_all();
                } else {
                    entry.stats.preempts += 1;
                    entry.status = SessionStatus::Queued;
                    entry.stats.queued_at_grant = grants;
                    shared.progress.publish(progress_sample(
                        id,
                        entry,
                        out.stepped,
                        out.step_ns,
                        false,
                    ));
                    let blob = out.parked.expect("preempted slice parks a checkpoint");
                    st.parked
                        .put(&park_key(id), blob)
                        .expect("parking a checkpoint failed");
                    st.queue.push_back(id);
                    drop(st);
                    shared.ready.notify_one();
                }
            }
            Err(payload) => {
                // The session's engine blew up; the session completes
                // with an error and the worker moves on.
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                entry.status = SessionStatus::Completed;
                entry.result = Some(SessionResult {
                    session: id,
                    scenario: spec.scenario.hash(),
                    steps: entry.steps_done,
                    site_updates: entry.site_updates,
                    final_checkpoint: Vec::new(),
                    cache_hit: entry.stats.cache_hit.unwrap_or(false),
                    preempts: entry.stats.preempts,
                    error: Some(message),
                });
                shared
                    .progress
                    .publish(progress_sample(id, entry, 0, 1, true));
                st.inflight -= 1;
                drop(st);
                shared.done.notify_all();
            }
        }
    }
}

/// Run one time slice of session `id`: materialize the engine (parked
/// checkpoint → warm cache → cold build, in that order), step up to
/// `slice_steps`, and suspend. Runs on the worker's pool and inside the
/// session's telemetry scope.
fn run_slice(
    cache: &WarmCache,
    id: u64,
    spec: &JobSpec,
    steps_done: u64,
    parked: Option<Vec<u8>>,
    slice_steps: u64,
) -> SliceOutcome {
    let _scope = apr_telemetry::session_scope(id);
    let scenario = spec.scenario.hash();
    let mut cache_hit = None;
    let mut setup_ns = 0u64;
    let mut resume_ns = 0u64;

    let mut engine: Box<dyn SimSession> = if let Some(blob) = parked {
        let t = Instant::now();
        let mut shell = spec
            .scenario
            .build_shell()
            .expect("admitted scenario must build a shell");
        shell
            .resume(&blob)
            .expect("parked checkpoint must restore into its own recipe");
        resume_ns = t.elapsed().as_nanos() as u64;
        shell
    } else {
        let t = Instant::now();
        let eng = match cache.lookup(scenario) {
            Some(warm) => {
                cache_hit = Some(true);
                apr_telemetry::emit(TelemetryEvent::WarmCacheHit {
                    session: id,
                    scenario,
                });
                let mut shell = spec
                    .scenario
                    .build_shell()
                    .expect("admitted scenario must build a shell");
                shell
                    .resume(&warm)
                    .expect("warm checkpoint must restore into its own recipe");
                shell
            }
            None => {
                cache_hit = Some(false);
                apr_telemetry::emit(TelemetryEvent::WarmCacheMiss {
                    session: id,
                    scenario,
                });
                let eng = spec
                    .scenario
                    .build_cold()
                    .expect("admitted scenario must build cold");
                cache.insert(scenario, eng.suspend());
                eng
            }
        };
        setup_ns = t.elapsed().as_nanos() as u64;
        eng
    };
    apr_telemetry::emit(TelemetryEvent::SessionResumed {
        session: id,
        step: engine.steps(),
    });

    let stepping_started = Instant::now();
    let run = (spec.target_steps - steps_done).min(slice_steps.max(1));
    let t = Instant::now();
    let site_updates = engine.step_n(run);
    let step_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let blob = engine.suspend();
    let suspend_ns = t.elapsed().as_nanos() as u64;

    let done = steps_done + run >= spec.target_steps;
    if done {
        apr_telemetry::emit(TelemetryEvent::SessionCompleted {
            session: id,
            step: engine.steps(),
        });
    } else {
        apr_telemetry::emit(TelemetryEvent::SessionPreempted {
            session: id,
            step: engine.steps(),
            bytes: blob.len() as u64,
        });
    }
    SliceOutcome {
        stepped: run,
        site_updates,
        completed: done.then(|| blob.clone()),
        parked: (!done).then_some(blob),
        cache_hit,
        stepping_started,
        setup_ns,
        resume_ns,
        step_ns,
        suspend_ns,
    }
}

//! Session records: what a job asked for, where it is, and what it
//! produced.

use apr_scenarios::ScenarioSpec;
use std::time::{Duration, Instant};

/// What a client submits: a scenario plus how long to run it. The target
/// counts *session* steps — warmup (cold-built or restored warm) is
/// setup, not progress. Any zoo scenario is a valid job, including
/// multi-window specs (the shell behind the scheduler is a
/// `Box<dyn SimSession>` either way).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The scenario to run.
    pub scenario: ScenarioSpec,
    /// Steps to run beyond the scenario's warmup.
    pub target_steps: u64,
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// In the ready queue (never yet run, or parked after a preempt).
    Queued,
    /// A worker is running a slice right now.
    Running,
    /// Reached its target (or failed); result available.
    Completed,
}

/// Per-session bookkeeping the scheduler maintains. Timing fields feed
/// [`crate::ServiceMetrics`]; grant fields feed the fairness assertion.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// When the service admitted the session.
    pub admitted_at: Instant,
    /// Admission → first engine step of the first slice.
    pub time_to_first_step: Option<Duration>,
    /// Slices granted (= resumes; the first grant is the cold/warm start).
    pub resumes: u64,
    /// Preemptions (slices that ended before the target).
    pub preempts: u64,
    /// Did setup hit the warm cache? `None` until the first slice ran.
    pub cache_hit: Option<bool>,
    /// Global grant-counter value when this session last entered the
    /// ready queue (admission or re-queue after a preempt).
    pub queued_at_grant: u64,
    /// Most grants handed to *anyone*, its own included, during one of
    /// this session's waits in the ready queue. The queue is FIFO, so this
    /// is 1 + the sessions ahead of it at most: never more than the
    /// number of active sessions. A starved session shows up as a large
    /// value.
    pub max_grant_gap: u64,
    /// Nanoseconds spent stepping the engine.
    pub step_ns: u64,
    /// Nanoseconds spent suspending (checkpointing) on preempt/complete.
    pub suspend_ns: u64,
    /// Nanoseconds spent rebuilding + restoring on resume (excludes the
    /// one-time cold build, which is setup cost, not preempt overhead).
    pub resume_ns: u64,
    /// Nanoseconds of the first slice's setup (cold build or warm
    /// restore).
    pub setup_ns: u64,
}

impl SessionStats {
    pub(crate) fn new(admitted_at: Instant) -> Self {
        Self {
            admitted_at,
            time_to_first_step: None,
            resumes: 0,
            preempts: 0,
            cache_hit: None,
            queued_at_grant: 0,
            max_grant_gap: 0,
            step_ns: 0,
            suspend_ns: 0,
            resume_ns: 0,
            setup_ns: 0,
        }
    }
}

/// What a completed session hands back.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Service-assigned session id.
    pub session: u64,
    /// Scenario hash the session ran.
    pub scenario: u64,
    /// Session steps completed (== target unless the session failed).
    pub steps: u64,
    /// Engine site updates performed across all slices.
    pub site_updates: u64,
    /// Final engine checkpoint at the target step. Byte-identical to the
    /// same scenario run straight through with no preemption — the
    /// zero-cross-session-nondeterminism contract.
    pub final_checkpoint: Vec<u8>,
    /// Did the session's setup hit the warm cache?
    pub cache_hit: bool,
    /// Times the session was preempted mid-run.
    pub preempts: u64,
    /// Panic message if the session's engine blew up (checkpoint empty).
    pub error: Option<String>,
}

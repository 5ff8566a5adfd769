//! Typed telemetry events: discrete happenings in the APR step loop that a
//! flat timer cannot express — window moves, insertion repopulations,
//! guardian rollbacks, halo resends.
//!
//! Every variant is `Copy` with no heap payload so that constructing one on
//! a disabled recorder costs nothing (the no-alloc guarantee the hot loop
//! relies on).

/// One discrete occurrence in the simulation, stamped by the recorder with
/// the shared clock on emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// The fine window recentred on the CTC.
    WindowMove {
        /// Engine step the move happened at.
        step: u64,
        /// Window-centre displacement (fine lattice units).
        shift: [f64; 3],
        /// Cells kept in place (capture region).
        captured: u32,
        /// Deformed copies placed into the fill region.
        copied: u32,
        /// Cells removed because they left the new window.
        removed: u32,
    },
    /// A hematocrit-maintenance sweep inserted cells.
    Repopulation {
        /// Engine step of the sweep.
        step: u64,
        /// Subregions below threshold.
        needy_subregions: u32,
        /// Cells successfully inserted.
        inserted: u32,
        /// Candidates rejected (overlap or out of region).
        rejected: u32,
    },
    /// Cells crossed the window boundary and were removed.
    EscapedCells {
        /// Engine step of the maintenance sweep.
        step: u64,
        /// Cells removed.
        count: u32,
    },
    /// The divergence sentinel found the state unhealthy.
    SentinelTrip {
        /// Engine step the inspection ran at.
        step: u64,
        /// Issues detected (truncated at the sentinel's cap).
        issues: u32,
        /// Kind of the first issue (e.g. `"non_finite_density"`).
        first_kind: &'static str,
    },
    /// A healthy checkpoint was captured.
    CheckpointSaved {
        /// Engine step the checkpoint represents.
        step: u64,
        /// Serialized size in bytes.
        bytes: u64,
    },
    /// The guardian rolled the engine back to the last good checkpoint.
    Rollback {
        /// Step the failure was detected at.
        step: u64,
        /// Consecutive recovery attempt number (1-based).
        attempt: u32,
        /// Step the engine was restored to.
        restored_step: u64,
        /// Fresh insertion-RNG seed after the rollback.
        new_seed: u64,
        /// Fine-lattice τ after any Eq.-7 tightening.
        fine_tau: f64,
    },
    /// The guardian exhausted its retry budget and gave up.
    RetriesExhausted {
        /// Step of the fatal incident.
        step: u64,
        /// Attempts consumed.
        attempts: u32,
    },
    /// A sealed halo message failed validation or timed out and was
    /// re-requested from the sender's retained buffer.
    HaloResend {
        /// 0-based exchange round.
        round: u64,
        /// Resend attempt within the round (1-based).
        attempt: u32,
        /// Messages re-requested in this attempt.
        messages: u32,
    },
    /// The rank supervisor declared a rank dead (panic, kill, or
    /// heartbeat stall).
    RankDown {
        /// Step at which the loss was detected.
        step: u64,
        /// The lost rank.
        rank: u32,
        /// Detection reason (e.g. `"killed"`, `"panicked"`, `"hung"`).
        reason: &'static str,
    },
    /// A lost rank was respawned and restored from its buddy replica; all
    /// ranks rolled back to the common checkpoint epoch.
    RankRestored {
        /// Step at which recovery completed (pre-replay).
        step: u64,
        /// The recovered rank.
        rank: u32,
        /// Checkpoint epoch (step) the run was rolled back to.
        restored_epoch: u64,
    },
    /// The serve scheduler admitted a session into the job queue.
    SessionAdmitted {
        /// Service-assigned session id.
        session: u64,
        /// Scenario hash the session will run.
        scenario: u64,
    },
    /// A session was granted a time slice and (re)started stepping —
    /// either cold-built or restored from a parked checkpoint.
    SessionResumed {
        /// Session id.
        session: u64,
        /// Engine step the slice starts from.
        step: u64,
    },
    /// A session's slice expired: its engine was checkpointed to memory
    /// and the workers were handed to the next session.
    SessionPreempted {
        /// Session id.
        session: u64,
        /// Engine step the checkpoint represents.
        step: u64,
        /// Parked checkpoint size in bytes.
        bytes: u64,
    },
    /// A session reached its target step count and left the service.
    SessionCompleted {
        /// Session id.
        session: u64,
        /// Final engine step.
        step: u64,
    },
    /// A session's scenario was found pre-relaxed in the warm-state cache
    /// (setup skipped entirely).
    WarmCacheHit {
        /// Session id.
        session: u64,
        /// Scenario hash that hit.
        scenario: u64,
    },
    /// A session's scenario was not cached; it was built cold and the
    /// relaxed state was inserted for successors.
    WarmCacheMiss {
        /// Session id.
        session: u64,
        /// Scenario hash that missed.
        scenario: u64,
    },
}

impl TelemetryEvent {
    /// Stable machine-readable kind tag (used as the Chrome-trace event
    /// name and by tests asserting event sequences).
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::WindowMove { .. } => "window_move",
            TelemetryEvent::Repopulation { .. } => "repopulation",
            TelemetryEvent::EscapedCells { .. } => "escaped_cells",
            TelemetryEvent::SentinelTrip { .. } => "sentinel_trip",
            TelemetryEvent::CheckpointSaved { .. } => "checkpoint_saved",
            TelemetryEvent::Rollback { .. } => "rollback",
            TelemetryEvent::RetriesExhausted { .. } => "retries_exhausted",
            TelemetryEvent::HaloResend { .. } => "halo_resend",
            TelemetryEvent::RankDown { .. } => "rank_down",
            TelemetryEvent::RankRestored { .. } => "rank_restored",
            TelemetryEvent::SessionAdmitted { .. } => "session_admitted",
            TelemetryEvent::SessionResumed { .. } => "session_resumed",
            TelemetryEvent::SessionPreempted { .. } => "session_preempted",
            TelemetryEvent::SessionCompleted { .. } => "session_completed",
            TelemetryEvent::WarmCacheHit { .. } => "warm_cache_hit",
            TelemetryEvent::WarmCacheMiss { .. } => "warm_cache_miss",
        }
    }

    /// Engine step the event refers to (`HaloResend` reports its round;
    /// admission and cache events, which precede any stepping, report 0).
    pub fn step(&self) -> u64 {
        match *self {
            TelemetryEvent::WindowMove { step, .. }
            | TelemetryEvent::Repopulation { step, .. }
            | TelemetryEvent::EscapedCells { step, .. }
            | TelemetryEvent::SentinelTrip { step, .. }
            | TelemetryEvent::CheckpointSaved { step, .. }
            | TelemetryEvent::Rollback { step, .. }
            | TelemetryEvent::RetriesExhausted { step, .. }
            | TelemetryEvent::RankDown { step, .. }
            | TelemetryEvent::RankRestored { step, .. } => step,
            TelemetryEvent::SessionResumed { step, .. }
            | TelemetryEvent::SessionPreempted { step, .. }
            | TelemetryEvent::SessionCompleted { step, .. } => step,
            TelemetryEvent::HaloResend { round, .. } => round,
            TelemetryEvent::SessionAdmitted { .. }
            | TelemetryEvent::WarmCacheHit { .. }
            | TelemetryEvent::WarmCacheMiss { .. } => 0,
        }
    }

    /// Session id for serve-layer events (`None` for engine/rank events).
    pub fn session(&self) -> Option<u64> {
        match *self {
            TelemetryEvent::SessionAdmitted { session, .. }
            | TelemetryEvent::SessionResumed { session, .. }
            | TelemetryEvent::SessionPreempted { session, .. }
            | TelemetryEvent::SessionCompleted { session, .. }
            | TelemetryEvent::WarmCacheHit { session, .. }
            | TelemetryEvent::WarmCacheMiss { session, .. } => Some(session),
            _ => None,
        }
    }
}

/// An event plus the recorder timestamp it was emitted at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Nanoseconds since the recorder's clock origin.
    pub t_ns: u64,
    /// The payload.
    pub event: TelemetryEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_distinct() {
        let evs = [
            TelemetryEvent::WindowMove {
                step: 1,
                shift: [1.0, 0.0, 0.0],
                captured: 0,
                copied: 0,
                removed: 0,
            },
            TelemetryEvent::SentinelTrip {
                step: 2,
                issues: 3,
                first_kind: "non_finite_density",
            },
            TelemetryEvent::HaloResend {
                round: 7,
                attempt: 1,
                messages: 1,
            },
        ];
        let kinds: Vec<_> = evs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["window_move", "sentinel_trip", "halo_resend"]);
        assert_eq!(evs[2].step(), 7);
    }
}

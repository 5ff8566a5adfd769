//! Seeded chaos harness for the distributed runtime.
//!
//! A [`ChaosPlan`] is a deterministic schedule of injected failures —
//! message drops/corruptions/delays, rank kills, hangs, and panics — keyed
//! by step (for rank faults) or exchange round (for message faults). Every
//! entry is **one-shot**: it is consumed when it fires, so a replay after
//! recovery runs clean and bit-identical recovery is testable at all.
//!
//! [`ChaosPlan::from_seed`] derives a whole schedule from a single `u64`
//! with `apr-guard`'s dependency-free splitmix64 generator, so a CI matrix
//! row is reproduced locally by quoting one number.
//!
//! The plan and every fault kind are compiled unconditionally (the
//! headline rank-recovery test runs in the default build); a production
//! run simply never schedules anything. The supervisor's plane exchange
//! applies the message-level faults — attaching a plan is the opt-in.

/// What to do to a rank's outgoing halo messages in one exchange round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFault {
    /// Silently discard every send (lost message; heals via NACK resend).
    Drop,
    /// Flip a payload bit after sealing (detected by CRC, healed by
    /// resend from the retained buffer).
    Corrupt,
    /// Withhold sends until the first resend request (late message).
    Delay,
}

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Fail-stop rank `rank` at the start of step `step` (1-based, i.e.
    /// the rank dies before contributing to that step).
    KillRank {
        /// Step the kill fires at.
        step: u64,
        /// Victim rank.
        rank: usize,
    },
    /// Rank `rank` stops making progress (heartbeat stalls) for `lasts`
    /// steps starting at `step`; the supervisor declares it dead once its
    /// stall patience is exceeded.
    HangRank {
        /// First stalled step.
        step: u64,
        /// Victim rank.
        rank: usize,
        /// Stalled step count.
        lasts: u64,
    },
    /// Rank `rank` panics inside its step closure at step `step`
    /// (exercises the supervisor's `catch_unwind` containment).
    PanicRank {
        /// Step the panic fires at.
        step: u64,
        /// Victim rank.
        rank: usize,
    },
    /// Apply `fault` to every message rank `rank` sends during exchange
    /// round `round` (0-based).
    Message {
        /// Exchange round the fault fires in.
        round: u64,
        /// Sending rank whose messages are affected.
        rank: usize,
        /// What happens to the messages.
        fault: MsgFault,
    },
}

/// A deterministic, one-shot schedule of injected failures.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
    /// Events that already fired (kept for post-mortem assertions).
    fired: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// Empty plan (no faults — the production value).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule one event.
    pub fn schedule(&mut self, event: ChaosEvent) -> &mut Self {
        self.events.push(event);
        self
    }

    /// Convenience: kill `rank` at `step`.
    pub fn kill_rank(&mut self, step: u64, rank: usize) -> &mut Self {
        self.schedule(ChaosEvent::KillRank { step, rank })
    }

    /// Convenience: hang `rank` for `lasts` steps starting at `step`.
    pub fn hang_rank(&mut self, step: u64, rank: usize, lasts: u64) -> &mut Self {
        self.schedule(ChaosEvent::HangRank { step, rank, lasts })
    }

    /// Convenience: panic `rank` at `step`.
    pub fn panic_rank(&mut self, step: u64, rank: usize) -> &mut Self {
        self.schedule(ChaosEvent::PanicRank { step, rank })
    }

    /// Convenience: apply `fault` to `rank`'s sends in exchange `round`.
    pub fn message_fault(&mut self, round: u64, rank: usize, fault: MsgFault) -> &mut Self {
        self.schedule(ChaosEvent::Message { round, rank, fault })
    }

    /// Derive a mixed schedule from a seed: one kill in the middle half of
    /// the run, plus a handful of message drops/corruptions/delays spread
    /// over the early exchange rounds. Identical seeds yield identical
    /// plans on every platform.
    pub fn from_seed(seed: u64, max_step: u64, ranks: usize) -> Self {
        assert!(ranks >= 1, "chaos plan needs at least one rank");
        assert!(max_step >= 4, "chaos plan needs at least four steps");
        let mut state = seed;
        let mut next = || apr_guard::splitmix64(&mut state);
        let mut plan = Self::new();
        // One fail-stop kill somewhere in the middle half of the run.
        let kill_step = max_step / 4 + 1 + next() % (max_step / 2).max(1);
        let kill_rank = (next() % ranks as u64) as usize;
        plan.kill_rank(kill_step, kill_rank);
        // Message-level faults in rounds before the kill so both healing
        // paths (resend and rollback) are exercised in one run.
        let kinds = [MsgFault::Drop, MsgFault::Corrupt, MsgFault::Delay];
        for kind in kinds {
            let round = next() % kill_step.max(1);
            let rank = (next() % ranks as u64) as usize;
            plan.message_fault(round, rank, kind);
        }
        plan
    }

    /// True if nothing is scheduled and nothing has fired.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.fired.is_empty()
    }

    /// Events still waiting to fire.
    pub fn pending(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Events that already fired, in firing order.
    pub fn fired(&self) -> &[ChaosEvent] {
        &self.fired
    }

    /// Consume and return the ranks killed at `step`.
    pub fn take_kills_due(&mut self, step: u64) -> Vec<usize> {
        self.take(|ev| match ev {
            ChaosEvent::KillRank { step: s, rank } if s == step => Some(rank),
            _ => None,
        })
    }

    /// Consume and return `(rank, lasts)` hangs starting at `step`.
    pub fn take_hangs_due(&mut self, step: u64) -> Vec<(usize, u64)> {
        self.take(|ev| match ev {
            ChaosEvent::HangRank {
                step: s,
                rank,
                lasts,
            } if s == step => Some((rank, lasts)),
            _ => None,
        })
    }

    /// Consume and return the ranks that panic at `step`.
    pub fn take_panics_due(&mut self, step: u64) -> Vec<usize> {
        self.take(|ev| match ev {
            ChaosEvent::PanicRank { step: s, rank } if s == step => Some(rank),
            _ => None,
        })
    }

    /// Consume and return `(rank, fault)` message faults for exchange
    /// `round`.
    pub fn take_message_faults_due(&mut self, round: u64) -> Vec<(usize, MsgFault)> {
        self.take(|ev| match ev {
            ChaosEvent::Message {
                round: r,
                rank,
                fault,
            } if r == round => Some((rank, fault)),
            _ => None,
        })
    }

    fn take<T>(&mut self, mut pick: impl FnMut(ChaosEvent) -> Option<T>) -> Vec<T> {
        let mut out = Vec::new();
        let mut remaining = Vec::with_capacity(self.events.len());
        for ev in self.events.drain(..) {
            match pick(ev) {
                Some(v) => {
                    self.fired.push(ev);
                    out.push(v);
                }
                None => remaining.push(ev),
            }
        }
        self.events = remaining;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_one_shot() {
        let mut plan = ChaosPlan::new();
        plan.kill_rank(5, 2).message_fault(3, 0, MsgFault::Drop);
        assert!(plan.take_kills_due(4).is_empty());
        assert_eq!(plan.take_kills_due(5), [2]);
        assert!(plan.take_kills_due(5).is_empty(), "kills fire once");
        assert_eq!(plan.take_message_faults_due(3), [(0, MsgFault::Drop)]);
        assert!(plan.take_message_faults_due(3).is_empty());
        assert_eq!(plan.pending().len(), 0);
        assert_eq!(plan.fired().len(), 2);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = ChaosPlan::from_seed(42, 40, 4);
        let b = ChaosPlan::from_seed(42, 40, 4);
        assert_eq!(a.pending(), b.pending());
        let c = ChaosPlan::from_seed(43, 40, 4);
        assert_ne!(a.pending(), c.pending(), "different seeds must differ");
    }

    #[test]
    fn seeded_plan_kills_within_the_middle_half() {
        for seed in 0..32u64 {
            let plan = ChaosPlan::from_seed(seed, 40, 3);
            let kill = plan
                .pending()
                .iter()
                .find_map(|ev| match *ev {
                    ChaosEvent::KillRank { step, rank } => Some((step, rank)),
                    _ => None,
                })
                .expect("every seeded plan schedules a kill");
            assert!(kill.0 > 40 / 4 && kill.0 <= 40 / 4 + 40 / 2, "{kill:?}");
            assert!(kill.1 < 3);
        }
    }

    #[test]
    fn hang_and_panic_events_round_trip() {
        let mut plan = ChaosPlan::new();
        plan.hang_rank(7, 1, 3).panic_rank(9, 0);
        assert_eq!(plan.take_hangs_due(7), [(1, 3)]);
        assert_eq!(plan.take_panics_due(9), [0]);
    }
}

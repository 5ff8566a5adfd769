//! Deterministic fault injection.
//!
//! Recovery code that is never exercised is broken code. This module lets
//! tests schedule precise corruptions — a NaN in a membrane force, a
//! corrupted lattice distribution, a mass leak — at chosen steps, so the
//! sentinel → rollback → retry path runs end to end in every
//! `cargo test`. An empty plan (the default) injects nothing. Faults are
//! **one-shot**: once taken they do not re-fire, so a post-rollback retry
//! of the same steps proceeds clean, exactly like a transient hardware
//! fault.

/// What to corrupt. (Halo-message drops are scheduled by
/// `apr_parallel::ChaosPlan` — message loss is a property of the
/// exchange, not of engine state.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Poison one vertex of the `cell_index`-th live cell with NaN before
    /// the step, so the next membrane-force evaluation yields NaN forces
    /// that spread into the fluid — the classic membrane blow-up signature.
    MembraneNan {
        /// Index into the live-cell iteration order.
        cell_index: usize,
        /// Vertex whose position is poisoned.
        vertex: usize,
    },
    /// Scale one lattice node's distributions by `magnitude` (a large
    /// value models a bit-flip in the state arrays).
    DistributionCorrupt {
        /// Flat node index on the fine lattice.
        node: usize,
        /// Multiplier applied to all 19 distributions.
        magnitude: f64,
    },
    /// Drain a small fraction of one fine-lattice node's distributions
    /// (`fraction` in (0, 1), e.g. 0.1 removes 10% of that node's mass).
    /// Unlike [`FaultKind::DistributionCorrupt`] the post-fault state is
    /// *numerically healthy* — density stays finite and in range, Mach
    /// stays low — so only the conservation ledger's mass accounting can
    /// catch it. Exists to prove the physics-drift trip path end to end.
    MassLeak {
        /// Flat node index on the fine lattice.
        node: usize,
        /// Fraction of the node's mass removed.
        fraction: f64,
    },
}

/// A fault scheduled for a specific step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Engine step (1-based, i.e. the value `steps()` will have *after*
    /// the step in which the fault fires) at which to inject.
    pub step: u64,
    /// The corruption to apply.
    pub kind: FaultKind,
}

/// A schedule of one-shot faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    fired: usize,
}

impl FaultPlan {
    /// New empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a fault.
    pub fn schedule(&mut self, step: u64, kind: FaultKind) -> &mut Self {
        self.faults.push(Fault { step, kind });
        self
    }

    /// Remove and return every fault due at `step`. Each fault fires at
    /// most once for the whole plan's lifetime — a rolled-back re-run of
    /// the same step stays clean.
    pub fn take_due(&mut self, step: u64) -> Vec<Fault> {
        let mut due = Vec::new();
        self.faults.retain(|f| {
            if f.step == step {
                due.push(*f);
                false
            } else {
                true
            }
        });
        self.fired += due.len();
        due
    }

    /// Faults injected so far.
    pub fn fired_count(&self) -> usize {
        self.fired
    }

    /// Faults still pending.
    pub fn pending_count(&self) -> usize {
        self.faults.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once_at_their_step() {
        let mut plan = FaultPlan::new();
        plan.schedule(
            10,
            FaultKind::MembraneNan {
                cell_index: 0,
                vertex: 3,
            },
        )
        .schedule(
            10,
            FaultKind::DistributionCorrupt {
                node: 2,
                magnitude: 1e9,
            },
        )
        .schedule(
            20,
            FaultKind::DistributionCorrupt {
                node: 5,
                magnitude: 1e6,
            },
        );
        assert!(plan.take_due(9).is_empty());
        let due = plan.take_due(10);
        assert_eq!(due.len(), 2);
        // One-shot: replaying step 10 after a rollback injects nothing.
        assert!(plan.take_due(10).is_empty());
        assert_eq!(plan.pending_count(), 1);
        assert_eq!(plan.fired_count(), 2);
        assert_eq!(plan.take_due(20).len(), 1);
        assert_eq!(plan.pending_count(), 0);
    }
}

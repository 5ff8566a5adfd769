//! Conservation ledger: per-step mass/momentum accounting for the bulk
//! domain and the moving fine window, with drift detection.
//!
//! The paper's APR scheme is only credible if the moving window conserves
//! what it claims to: fill/capture across a window move exchanges mass
//! between the coarse bulk and the fine window, the Eq.-7 coupling
//! restricts the fine solution back onto the coarse grid, and a bug in
//! either silently corrupts the physics while every node stays finite —
//! invisible to the NaN/Mach sentinel. The ledger closes that gap: the
//! engine feeds it per-step totals, it tracks step-over-step drift, and
//! any drift beyond the configured tolerances is *latched* as a
//! [`DriftBreach`] until the guardian inspects (and converts it into a
//! `HealthIssue::ConservationDrift`) or a rollback resets continuity.
//!
//! The totals of the state step `t` ends in are what step `t + 1`'s first
//! collides read anyway, so the engine does not sweep the lattices for
//! them. At the end of step `t` it keeps a [`PendingRow`] (the step's
//! hematocrit and flux) and asks each lattice for its totals
//! (`Lattice::request_totals`); during step `t + 1` the collides compute
//! them, summed in a fixed per-plane order, so they are bit-identical to
//! an explicit sweep of that state and never perturb the physics; at the
//! end of step `t + 1` the engine records row `t`. A row therefore lands
//! one step late. `close_ledger` on the engines records the pending row at
//! once with one sweep; the guardian calls it before every inspection, so
//! a healthy verdict covers the current state. A pending row belongs to
//! one step: a rollback, a restore, or a step taken with the ledger taken
//! out drops it.
//!
//! Window moves are accounted, not flagged: a step whose
//! [`WindowFlux::moved`] is set legitimately changes the window totals
//! (fill/capture), so the ledger records the flux counts and restarts
//! window continuity instead of reporting drift.

/// Mass/momentum totals over one domain (bulk lattice or fine window),
/// produced by `Lattice::take_totals` or `Lattice::mass_momentum_totals`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DomainTotals {
    /// Total mass: Σ over fluid nodes of Σ_i f_i.
    pub mass: f64,
    /// Total momentum: Σ over fluid nodes of Σ_i f_i c_i.
    pub momentum: [f64; 3],
    /// Fluid nodes included in the sums.
    pub fluid_nodes: u64,
}

impl From<(f64, [f64; 3], usize)> for DomainTotals {
    /// From a lattice's `(mass, momentum, fluid nodes)`.
    fn from((mass, momentum, fluid_nodes): (f64, [f64; 3], usize)) -> Self {
        Self {
            mass,
            momentum,
            fluid_nodes: fluid_nodes as u64,
        }
    }
}

/// A step's row waiting for its totals (see the module docs): what the
/// engine captured at the end of the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingRow {
    /// The step the row describes.
    pub step: u64,
    /// Window hematocrit at the end of the step.
    pub hematocrit: Option<f64>,
    /// The step's fill/capture flux.
    pub flux: WindowFlux,
}

/// Window fill/capture flux counts for one step (all zero on steps
/// without a window move).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowFlux {
    /// Cells captured into the window by the move.
    pub captured: u32,
    /// Fine nodes copied (window overlap preserved across the move).
    pub copied: u32,
    /// Cells removed (escaped or dropped) by the move.
    pub removed: u32,
    /// True when a window move happened this step: the window totals
    /// legitimately change and window continuity restarts.
    pub moved: bool,
}

/// Drift tolerances and which checks are armed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerConfig {
    /// Maximum tolerated relative step-over-step change of bulk mass.
    /// The coarse restrict overwrites the covered region with the fine
    /// solution every step, so a small physical exchange is expected;
    /// the default gives it generous headroom while still catching a
    /// leaked node (one node's mass is ~1e-4 of a small tube's total).
    pub bulk_mass_tol: f64,
    /// Maximum tolerated relative step-over-step change of window mass
    /// (only checked between moves; a move restarts continuity).
    pub window_mass_tol: f64,
    /// Optional absolute tolerance on step-over-step change of momentum
    /// magnitude. `None` (default) disarms the check: force-driven flows
    /// legitimately gain momentum every step.
    pub momentum_tol: Option<f64>,
    /// Maximum tolerated absolute hematocrit drift from the first
    /// recorded value.
    pub ht_drift_tol: f64,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        Self {
            bulk_mass_tol: 1e-2,
            window_mass_tol: 5e-2,
            momentum_tol: None,
            ht_drift_tol: 0.2,
        }
    }
}

impl LedgerConfig {
    /// Strict profile for flows that conserve mass exactly (periodic +
    /// bounce-back closed lattices): drift beyond accumulated rounding
    /// is a bug. This is the profile the conservation integration tests
    /// pin the kernels against.
    pub fn strict() -> Self {
        Self {
            bulk_mass_tol: 1e-12,
            window_mass_tol: 1e-12,
            momentum_tol: None,
            ht_drift_tol: 0.2,
        }
    }
}

/// One per-step ledger record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerSample {
    /// Engine step the totals were taken after.
    pub step: u64,
    /// Bulk (coarse lattice) totals.
    pub bulk: DomainTotals,
    /// Fine-window totals.
    pub window: DomainTotals,
    /// Window hematocrit, when a controller reports one.
    pub hematocrit: Option<f64>,
    /// Fill/capture flux for this step.
    pub flux: WindowFlux,
    /// Relative step-over-step bulk-mass change (0 on the first sample).
    pub bulk_mass_drift: f64,
    /// Relative step-over-step window-mass change (0 on the first sample
    /// and on move steps, where continuity restarts).
    pub window_mass_drift: f64,
}

/// A latched tolerance violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftBreach {
    /// Which quantity drifted: `"bulk_mass"`, `"window_mass"`,
    /// `"momentum"` or `"hematocrit"`.
    pub quantity: &'static str,
    /// Observed drift (relative for mass, absolute otherwise).
    pub observed: f64,
    /// The tolerance it exceeded.
    pub tolerance: f64,
    /// Step the drift was measured at.
    pub step: u64,
}

fn rel_change(now: f64, before: f64) -> f64 {
    if before.abs() < f64::MIN_POSITIVE {
        if now.abs() < f64::MIN_POSITIVE {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((now - before) / before).abs()
    }
}

fn momentum_mag(m: [f64; 3]) -> f64 {
    (m[0] * m[0] + m[1] * m[1] + m[2] * m[2]).sqrt()
}

/// Per-step conservation accounting with latched drift detection.
///
/// Breaches accumulate in [`ConservationLedger::breaches`] until either a
/// guardian inspection converts them into health issues or a rollback
/// calls [`ConservationLedger::reset_continuity`] (a restored engine's
/// totals are discontinuous with the pre-restore ones by construction).
#[derive(Debug, Clone)]
pub struct ConservationLedger {
    config: LedgerConfig,
    prev: Option<LedgerSample>,
    baseline_ht: Option<f64>,
    breaches: Vec<DriftBreach>,
    samples: u64,
    cumulative_flux: (u64, u64, u64),
}

impl ConservationLedger {
    /// New ledger with `config` tolerances.
    pub fn new(config: LedgerConfig) -> Self {
        Self {
            config,
            prev: None,
            baseline_ht: None,
            breaches: Vec::new(),
            samples: 0,
            cumulative_flux: (0, 0, 0),
        }
    }

    /// The configured tolerances.
    pub fn config(&self) -> &LedgerConfig {
        &self.config
    }

    /// Record one step's totals; computes drift and latches breaches.
    /// Returns the sample.
    pub fn record(
        &mut self,
        step: u64,
        bulk: DomainTotals,
        window: DomainTotals,
        hematocrit: Option<f64>,
        flux: WindowFlux,
    ) -> LedgerSample {
        let mut sample = LedgerSample {
            step,
            bulk,
            window,
            hematocrit,
            flux,
            bulk_mass_drift: 0.0,
            window_mass_drift: 0.0,
        };
        if let Some(prev) = self.prev {
            sample.bulk_mass_drift = rel_change(bulk.mass, prev.bulk.mass);
            if sample.bulk_mass_drift > self.config.bulk_mass_tol {
                self.breaches.push(DriftBreach {
                    quantity: "bulk_mass",
                    observed: sample.bulk_mass_drift,
                    tolerance: self.config.bulk_mass_tol,
                    step,
                });
            }
            // A window move exchanges mass with the bulk by design; the
            // flux counts account for it and continuity restarts.
            if !flux.moved {
                sample.window_mass_drift = rel_change(window.mass, prev.window.mass);
                if sample.window_mass_drift > self.config.window_mass_tol {
                    self.breaches.push(DriftBreach {
                        quantity: "window_mass",
                        observed: sample.window_mass_drift,
                        tolerance: self.config.window_mass_tol,
                        step,
                    });
                }
            }
            if let Some(tol) = self.config.momentum_tol {
                let d = (momentum_mag(bulk.momentum) - momentum_mag(prev.bulk.momentum)).abs();
                if d > tol {
                    self.breaches.push(DriftBreach {
                        quantity: "momentum",
                        observed: d,
                        tolerance: tol,
                        step,
                    });
                }
            }
        }
        if let Some(ht) = hematocrit {
            match self.baseline_ht {
                None => self.baseline_ht = Some(ht),
                Some(base) => {
                    let d = (ht - base).abs();
                    if d > self.config.ht_drift_tol {
                        self.breaches.push(DriftBreach {
                            quantity: "hematocrit",
                            observed: d,
                            tolerance: self.config.ht_drift_tol,
                            step,
                        });
                    }
                }
            }
        }
        self.cumulative_flux.0 += flux.captured as u64;
        self.cumulative_flux.1 += flux.copied as u64;
        self.cumulative_flux.2 += flux.removed as u64;
        self.samples += 1;
        self.prev = Some(sample);
        sample
    }

    /// Latched breaches since the last [`reset_continuity`] /
    /// [`take_breaches`] (peek; the guardian's inspection reads these).
    ///
    /// [`reset_continuity`]: ConservationLedger::reset_continuity
    /// [`take_breaches`]: ConservationLedger::take_breaches
    pub fn breaches(&self) -> &[DriftBreach] {
        &self.breaches
    }

    /// Drain the latched breaches.
    pub fn take_breaches(&mut self) -> Vec<DriftBreach> {
        std::mem::take(&mut self.breaches)
    }

    /// Restart step-over-step continuity and clear latched breaches.
    /// Called after a checkpoint restore: the restored totals are
    /// discontinuous with the pre-restore ones by construction, and the
    /// breaches that triggered the rollback are now handled.
    pub fn reset_continuity(&mut self) {
        self.prev = None;
        self.breaches.clear();
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<LedgerSample> {
        self.prev
    }

    /// Samples recorded since construction.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Cumulative `(captured, copied, removed)` fill/capture counts over
    /// every recorded step — the window's total exchange with the bulk.
    pub fn cumulative_flux(&self) -> (u64, u64, u64) {
        self.cumulative_flux
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(mass: f64) -> DomainTotals {
        DomainTotals {
            mass,
            momentum: [0.0; 3],
            fluid_nodes: 100,
        }
    }

    #[test]
    fn steady_totals_latch_nothing() {
        let mut ledger = ConservationLedger::new(LedgerConfig::strict());
        for step in 1..=10 {
            let s = ledger.record(
                step,
                totals(1000.0),
                totals(50.0),
                None,
                WindowFlux::default(),
            );
            assert_eq!(s.bulk_mass_drift, 0.0);
        }
        assert!(ledger.breaches().is_empty());
        assert_eq!(ledger.samples(), 10);
    }

    #[test]
    fn mass_jump_latches_until_reset() {
        let mut ledger = ConservationLedger::new(LedgerConfig {
            bulk_mass_tol: 1e-6,
            ..LedgerConfig::default()
        });
        ledger.record(1, totals(1000.0), totals(50.0), None, WindowFlux::default());
        ledger.record(2, totals(999.0), totals(50.0), None, WindowFlux::default());
        // Drift happened at step 2; later clean steps must not clear it.
        ledger.record(3, totals(999.0), totals(50.0), None, WindowFlux::default());
        let breaches = ledger.breaches();
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].quantity, "bulk_mass");
        assert_eq!(breaches[0].step, 2);
        assert!((breaches[0].observed - 1e-3).abs() < 1e-9);
        ledger.reset_continuity();
        assert!(ledger.breaches().is_empty());
        // Continuity restarted: the next sample compares against nothing.
        let s = ledger.record(4, totals(500.0), totals(50.0), None, WindowFlux::default());
        assert_eq!(s.bulk_mass_drift, 0.0);
        assert!(ledger.breaches().is_empty());
    }

    #[test]
    fn window_move_is_accounted_not_flagged() {
        let mut ledger = ConservationLedger::new(LedgerConfig {
            window_mass_tol: 1e-9,
            ..LedgerConfig::default()
        });
        ledger.record(1, totals(1000.0), totals(50.0), None, WindowFlux::default());
        // The move doubles window mass — legitimate fill/capture.
        let moved = WindowFlux {
            captured: 3,
            copied: 120,
            removed: 1,
            moved: true,
        };
        let s = ledger.record(2, totals(1000.0), totals(100.0), None, moved);
        assert_eq!(s.window_mass_drift, 0.0);
        assert!(ledger.breaches().is_empty());
        assert_eq!(ledger.cumulative_flux(), (3, 120, 1));
        // But an unexplained jump (no move) on the next step is drift.
        ledger.record(3, totals(1000.0), totals(90.0), None, WindowFlux::default());
        assert_eq!(ledger.breaches().len(), 1);
        assert_eq!(ledger.breaches()[0].quantity, "window_mass");
    }

    #[test]
    fn hematocrit_drifts_against_first_sample() {
        let mut ledger = ConservationLedger::new(LedgerConfig {
            ht_drift_tol: 0.05,
            ..LedgerConfig::default()
        });
        ledger.record(
            1,
            totals(1.0),
            totals(1.0),
            Some(0.25),
            WindowFlux::default(),
        );
        ledger.record(
            2,
            totals(1.0),
            totals(1.0),
            Some(0.27),
            WindowFlux::default(),
        );
        assert!(ledger.breaches().is_empty());
        ledger.record(
            3,
            totals(1.0),
            totals(1.0),
            Some(0.31),
            WindowFlux::default(),
        );
        assert_eq!(ledger.breaches().len(), 1);
        assert_eq!(ledger.breaches()[0].quantity, "hematocrit");
    }

    #[test]
    fn momentum_check_is_opt_in() {
        let mut cfg = LedgerConfig::default();
        let with_momentum = |m: [f64; 3]| DomainTotals {
            mass: 1.0,
            momentum: m,
            fluid_nodes: 1,
        };
        let mut ledger = ConservationLedger::new(cfg);
        ledger.record(
            1,
            with_momentum([0.0; 3]),
            totals(1.0),
            None,
            WindowFlux::default(),
        );
        ledger.record(
            2,
            with_momentum([5.0, 0.0, 0.0]),
            totals(1.0),
            None,
            WindowFlux::default(),
        );
        assert!(ledger.breaches().is_empty(), "disarmed by default");
        cfg.momentum_tol = Some(1.0);
        let mut armed = ConservationLedger::new(cfg);
        armed.record(
            1,
            with_momentum([0.0; 3]),
            totals(1.0),
            None,
            WindowFlux::default(),
        );
        armed.record(
            2,
            with_momentum([5.0, 0.0, 0.0]),
            totals(1.0),
            None,
            WindowFlux::default(),
        );
        assert_eq!(armed.breaches().len(), 1);
        assert_eq!(armed.breaches()[0].quantity, "momentum");
    }
}

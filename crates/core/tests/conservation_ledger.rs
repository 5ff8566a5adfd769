//! Conservation-ledger integration: a clean APR campaign stays inside
//! the default drift tolerances (the coarse↔fine coupling exchanges a
//! little mass by design, but boundedly), and a mass leak that keeps every
//! node numerically healthy still trips the guardian through the ledger's
//! `ConservationDrift` issue and is healed by rollback. Rows land one
//! step late (the next step's collides compute their totals), and every
//! row still describes the state its own step ended in.

use apr_core::{AprEngine, LedgerConfig, LedgerSample};
use apr_coupling::fine_tau;
use apr_lattice::{force_driven_tube, Lattice};
use apr_telemetry::ledger::DomainTotals;
use std::collections::HashMap;

/// Small APR tube (same recipe as the guardian tests, refinement 2, no
/// cells): coarse force-driven tube along z with a cubic fine window.
fn tube_engine(config: LedgerConfig) -> AprEngine {
    let (nx, ny, nz) = (21usize, 21usize, 48usize);
    let (tau_c, lambda, g, n) = (0.9, 0.3, 4e-6, 2usize);
    let coarse = force_driven_tube(nx, ny, nz, tau_c, 9.0, g);
    let span = 8usize;
    let fine_dim = span * n + 1;
    let mut fine = Lattice::new(fine_dim, fine_dim, fine_dim, fine_tau(tau_c, n, lambda));
    fine.body_force = [0.0, 0.0, g / n as f64];
    let origin = [
        (nx as f64 - 1.0) / 2.0 - span as f64 / 2.0,
        (ny as f64 - 1.0) / 2.0 - span as f64 / 2.0,
        4.0,
    ];
    AprEngine::builder(coarse, fine, origin, n, lambda)
        .ledger(config)
        .build()
}

/// Sweeps of both lattices as the current step leaves them, keyed by
/// step: what that step's ledger row must hold.
#[derive(Default)]
struct EndStates(HashMap<u64, (DomainTotals, DomainTotals)>);

impl EndStates {
    fn note(&mut self, eng: &AprEngine) {
        let bulk = eng.coarse.mass_momentum_totals().into();
        let window = eng.fine.mass_momentum_totals().into();
        self.0.insert(eng.steps(), (bulk, window));
    }

    /// The row equals, bit for bit, the sweeps of the state its step
    /// ended in.
    fn audit(&self, row: &LedgerSample) {
        let (bulk, window) = self.0[&row.step];
        assert_eq!(row.bulk, bulk, "bulk totals of row {}", row.step);
        assert_eq!(row.window, window, "window totals of row {}", row.step);
    }
}

/// Newest ledger row, if the ledger recorded one since `seen` samples.
fn new_row(eng: &AprEngine, seen: &mut u64) -> Option<LedgerSample> {
    let ledger = eng.ledger.as_ref().expect("ledger armed");
    (ledger.samples() > *seen).then(|| {
        assert_eq!(ledger.samples(), *seen + 1, "at most one row per call");
        *seen = ledger.samples();
        ledger.last().expect("sample recorded")
    })
}

#[test]
fn clean_apr_campaign_stays_inside_default_tolerances() {
    let mut eng = tube_engine(LedgerConfig::default());
    for _ in 0..60 {
        eng.step();
    }
    assert_eq!(
        eng.ledger.as_ref().unwrap().samples(),
        59,
        "rows land a step late"
    );
    eng.close_ledger();
    let ledger = eng.ledger.as_ref().expect("ledger armed via builder");
    assert_eq!(ledger.samples(), 60, "one ledger sample per step");
    assert!(
        ledger.breaches().is_empty(),
        "clean run latched breaches: {:?}",
        ledger.breaches()
    );
    let last = ledger.last().expect("sample recorded");
    assert_eq!(last.step, 60);
    assert!(last.bulk.mass > 0.0 && last.window.mass > 0.0);
    assert!(
        last.bulk.fluid_nodes > 0 && last.window.fluid_nodes > 0,
        "totals must count fluid nodes"
    );
    // No window move happened (no tracked cell), so no flux accrued and
    // window continuity was never restarted.
    assert_eq!(ledger.cumulative_flux(), (0, 0, 0));
}

/// Every row is recorded one step late, or by `close_ledger`, and holds
/// the totals of the state its own step ended in.
#[test]
fn every_row_describes_the_state_its_step_ended_in() {
    let mut eng = tube_engine(LedgerConfig::default());
    let mut ends = EndStates::default();
    let mut seen = 0;
    let mut labels = Vec::new();
    for step in 1..=12u64 {
        eng.step();
        ends.note(&eng);
        if let Some(row) = new_row(&eng, &mut seen) {
            assert_eq!(row.step, step - 1);
            ends.audit(&row);
            labels.push(row.step);
        }
    }
    eng.close_ledger();
    let row = new_row(&eng, &mut seen).expect("close_ledger records the pending row");
    ends.audit(&row);
    labels.push(row.step);
    assert_eq!(labels, (1..=12).collect::<Vec<_>>());
    eng.close_ledger();
    assert!(new_row(&eng, &mut seen).is_none(), "nothing left to close");
}

/// The benchmark's observer toggle: take the ledger out, step, put it
/// back and reset its continuity. No row may describe the step it missed;
/// the row pending when it was taken out is dropped with it.
#[test]
fn a_step_with_the_ledger_out_records_no_row() {
    let mut eng = tube_engine(LedgerConfig::default());
    let mut ends = EndStates::default();
    let mut seen = 0;
    let mut labels = Vec::new();
    for step in 1..=8u64 {
        if step == 6 {
            let ledger = eng.ledger.take();
            eng.step();
            eng.ledger = ledger;
            eng.ledger.as_mut().unwrap().reset_continuity();
        } else {
            eng.step();
        }
        ends.note(&eng);
        if let Some(row) = new_row(&eng, &mut seen) {
            ends.audit(&row);
            labels.push(row.step);
        }
    }
    eng.close_ledger();
    let row = new_row(&eng, &mut seen).expect("pending row");
    ends.audit(&row);
    labels.push(row.step);
    assert_eq!(labels, [1, 2, 3, 4, 7, 8]);
}

/// A resume (the guardian's rollback path) drops the pending row: the
/// state it was to describe is gone, and the step after the resume must
/// not record it from the restored state.
#[test]
fn a_resume_drops_the_pending_row() {
    use apr_core::SimSession;
    let mut eng = tube_engine(LedgerConfig::default());
    for _ in 0..3 {
        eng.step();
    }
    let blob = eng.suspend();
    let mut ends = EndStates::default();
    let mut seen = eng.ledger.as_ref().unwrap().samples();
    for _ in 0..2 {
        eng.step();
        ends.note(&eng);
        new_row(&eng, &mut seen);
    }
    eng.resume(&blob).expect("resume");
    assert_eq!(eng.steps(), 3);
    eng.step();
    assert!(
        new_row(&eng, &mut seen).is_none(),
        "row 5 recorded after the resume"
    );
    ends.note(&eng);
    eng.step();
    let row = new_row(&eng, &mut seen).expect("row 4 of the resumed run");
    assert_eq!(row.step, 4);
    ends.audit(&row);
}

#[test]
fn disarmed_engine_records_nothing() {
    let (nx, ny, nz) = (21usize, 21usize, 48usize);
    let coarse = force_driven_tube(nx, ny, nz, 0.9, 9.0, 4e-6);
    let fine = Lattice::new(17, 17, 17, fine_tau(0.9, 2, 0.3));
    let mut eng = AprEngine::builder(coarse, fine, [6.0, 6.0, 4.0], 2, 0.3).build();
    for _ in 0..5 {
        eng.step();
    }
    assert!(eng.ledger.is_none(), "ledger is strictly opt-in");
}

mod fault_injection {
    use super::*;
    use apr_core::Guardian;
    use apr_guard::{FaultKind, HealthIssue, RecoveryAction, RetryPolicy, SentinelConfig};

    /// A mass leak leaves every node finite, in density range, and slow —
    /// invisible to the numeric sentinel — yet the ledger must latch the
    /// drift and the guardian must roll it back within one check interval.
    /// The tolerance is self-calibrated: a clean probe run measures the
    /// legitimate coupling drift, the tolerance is set well above it, and
    /// the injected leak is sized well above the tolerance.
    #[test]
    fn mass_leak_trips_the_guardian_within_one_check_interval() {
        // Phase 1: calibrate the clean drift with a disarmed ledger.
        let disarmed = LedgerConfig {
            bulk_mass_tol: f64::INFINITY,
            window_mass_tol: f64::INFINITY,
            momentum_tol: None,
            ht_drift_tol: f64::INFINITY,
        };
        let mut probe = tube_engine(disarmed);
        let mut clean_drift = 0.0f64;
        for step in 0..40 {
            probe.step();
            probe.close_ledger();
            let s = probe.ledger.as_ref().unwrap().last().unwrap();
            if step > 0 {
                clean_drift = clean_drift.max(s.window_mass_drift);
            }
        }
        let last = probe.ledger.as_ref().unwrap().last().unwrap();
        let tol = (clean_drift * 8.0).max(1e-11);
        let fluid_nodes = last.window.fluid_nodes as f64;

        // Phase 2: size the leak to 8× the tolerance, spread over interior
        // nodes at 30% each so every node stays in the sentinel's healthy
        // density range (min_rho = 0.2).
        let per_node_fraction = 0.3;
        let needed_rel_drop = tol * 8.0;
        let nodes_needed =
            ((needed_rel_drop * fluid_nodes / per_node_fraction).ceil() as usize).max(1);

        let config = LedgerConfig {
            window_mass_tol: tol,
            ..LedgerConfig::default()
        };
        let mut eng = tube_engine(config);
        let check_interval = 5u64;
        let mut guardian = Guardian::new(
            SentinelConfig::default(),
            RetryPolicy::default(),
            check_interval,
        );
        // Interior nodes only: shell nodes are re-imposed from the coarse
        // solution every substep, which would erase the leak.
        let fault_step = 13u64;
        let mut scheduled = 0usize;
        'outer: for z in 4..13usize {
            for y in 4..13usize {
                for x in 4..13usize {
                    if scheduled == nodes_needed {
                        break 'outer;
                    }
                    guardian.faults.schedule(
                        fault_step,
                        FaultKind::MassLeak {
                            node: eng.fine.idx(x, y, z),
                            fraction: per_node_fraction,
                        },
                    );
                    scheduled += 1;
                }
            }
        }
        assert_eq!(
            scheduled, nodes_needed,
            "interior region too small for the calibrated leak \
             ({nodes_needed} nodes at {per_node_fraction} each, tol {tol:e})"
        );

        // Phase 3: the trip must land at the first inspection after the
        // leak — within one check interval.
        let mut tripped_at = None;
        while eng.steps() < 40 {
            let outcome = guardian.step(&mut eng).expect("recovery must succeed");
            if outcome.rolled_back && tripped_at.is_none() {
                tripped_at = Some(guardian.log.events[0].step);
            }
        }
        let tripped_at = tripped_at.unwrap_or_else(|| {
            panic!(
                "leak of {nodes_needed} nodes (rel drop {needed_rel_drop:e}, tol {tol:e}) \
                 never tripped the sentinel:\n{}",
                guardian.log.summary()
            )
        });
        assert!(
            tripped_at >= fault_step && tripped_at < fault_step + check_interval,
            "trip at step {tripped_at}, fault at {fault_step}, interval {check_interval}"
        );
        assert_eq!(guardian.faults.fired_count(), scheduled, "leak never fired");

        // The incident report must name the conservation drift — not a
        // numeric issue (the leak keeps every node healthy by design).
        let incident = &guardian.log.events[0];
        assert!(matches!(incident.action, RecoveryAction::RolledBack { .. }));
        let drift = incident
            .report
            .issues
            .iter()
            .find_map(|i| match i {
                HealthIssue::ConservationDrift {
                    quantity,
                    observed,
                    tolerance,
                    step,
                } => Some((*quantity, *observed, *tolerance, *step)),
                _ => None,
            })
            .expect("incident carries no ConservationDrift issue");
        assert_eq!(drift.0, "window_mass");
        assert_eq!(drift.3, fault_step, "the breach names the step of the leak");
        assert!(
            drift.1 > drift.2,
            "observed {} <= tolerance {}",
            drift.1,
            drift.2
        );
        assert!(
            !incident.report.issues.iter().any(|i| {
                matches!(
                    i,
                    HealthIssue::NonFiniteDensity { .. } | HealthIssue::DensityOutOfRange { .. }
                )
            }),
            "leak was supposed to stay numerically healthy: {:?}",
            incident.report.issues
        );

        // Rollback healed it: the fault is one-shot, the ledger continuity
        // was reset by the restore, and the rest of the campaign is clean.
        assert_eq!(
            guardian.log.rollback_count(),
            1,
            "{}",
            guardian.log.summary()
        );
        assert!(
            eng.ledger.as_ref().unwrap().breaches().is_empty(),
            "breaches survived the rollback"
        );
    }

    /// A step that panics part-way leaves the previous step's row pending
    /// (its requests partly answered by the panicked step's collides).
    /// The guardian's rollback must drop it: recorded from the replay, it
    /// would describe the restored state under a later step's label.
    #[test]
    fn a_guardian_rollback_drops_the_pending_row() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static PANICKED: AtomicBool = AtomicBool::new(false);
        let mut eng = tube_engine(LedgerConfig::default());
        eng.set_bulk_driver(Box::new(|_, steps| {
            if steps == 12 && !PANICKED.swap(true, Ordering::Relaxed) {
                panic!("injected step failure");
            }
        }));
        let mut guardian = Guardian::new(SentinelConfig::default(), RetryPolicy::default(), 5);
        let mut ends = EndStates::default();
        let mut rows = 0;
        while eng.steps() < 20 {
            let outcome = guardian.step(&mut eng).expect("recovery must succeed");
            ends.note(&eng);
            let ledger = eng.ledger.as_ref().unwrap();
            if let Some(row) = ledger.last().filter(|_| ledger.samples() > rows) {
                assert!(
                    row.step <= eng.steps(),
                    "row {} after step {}",
                    row.step,
                    eng.steps()
                );
                ends.audit(&row);
            }
            rows = ledger.samples();
            if outcome.rolled_back {
                assert_eq!(eng.steps(), 10, "rolled back to the step-10 checkpoint");
            }
        }
        assert_eq!(
            guardian.log.rollback_count(),
            1,
            "{}",
            guardian.log.summary()
        );
        assert!(eng.ledger.as_ref().unwrap().breaches().is_empty());
    }
}

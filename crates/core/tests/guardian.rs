//! Robustness-layer integration tests: full-engine checkpoints are
//! resume-identical (byte-for-byte, including across a window move),
//! corruption is rejected with a typed error, and an injected NaN trips
//! the sentinel, rolls the campaign back, and the run still completes near
//! the clean result.

use apr_cells::ContactParams;
use apr_core::{restore_engine, save_engine, AprEngine};
use apr_coupling::fine_tau;
use apr_guard::GuardError;
use apr_lattice::{force_driven_tube, Lattice};
use apr_membrane::{Membrane, MembraneMaterial, ReferenceState};
use apr_mesh::{biconcave_rbc_mesh, icosphere, Vec3};
use apr_window::{HematocritController, InsertionContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Small APR tube problem (same recipe as the engine tests): coarse
/// force-driven tube along z, cubic window, refinement `n`, λ = 0.3.
fn tube_engine(n: usize, nz_coarse: usize, g: f64) -> AprEngine {
    let (nx, ny) = (21usize, 21usize);
    let tau_c = 0.9;
    let lambda = 0.3;
    let coarse = force_driven_tube(nx, ny, nz_coarse, tau_c, 9.0, g);
    let span = 8usize;
    let fine_dim = span * n + 1;
    let mut fine = Lattice::new(fine_dim, fine_dim, fine_dim, fine_tau(tau_c, n, lambda));
    fine.body_force = [0.0, 0.0, g / n as f64];
    let origin = [
        (nx as f64 - 1.0) / 2.0 - span as f64 / 2.0,
        (ny as f64 - 1.0) / 2.0 - span as f64 / 2.0,
        4.0,
    ];
    let side = span as f64 * n as f64;
    AprEngine::builder(coarse, fine, origin, n, lambda)
        .window(side * 0.22, side * 0.12, side * 0.14)
        .contact(ContactParams {
            cutoff: 1.2,
            strength: 5e-4,
        })
        .build()
}

fn rbc_insertion(radius: f64, gs: f64) -> (InsertionContext, HematocritController) {
    let rbc_mesh = biconcave_rbc_mesh(1, radius);
    let re = Arc::new(ReferenceState::build(&rbc_mesh));
    let membrane = Arc::new(Membrane::new(re, MembraneMaterial::rbc(gs, gs * 0.05)));
    let mut rng = StdRng::seed_from_u64(99);
    let volume = rbc_mesh.enclosed_volume();
    let tile = apr_cells::RbcTile::build(
        40.0_f64.max(radius * 10.0),
        0.15,
        radius,
        radius * 0.6,
        volume,
        &mut rng,
    );
    let controller = HematocritController::new(0.12, 0.85, volume);
    (
        InsertionContext {
            rbc_mesh,
            rbc_membrane: membrane,
            tile,
            min_gap: 0.8,
        },
        controller,
    )
}

/// Engine with live hematocrit maintenance (RNG-driven insertion churn).
fn hematocrit_engine() -> AprEngine {
    let mut eng = tube_engine(3, 48, 4e-6);
    let (ctx, controller) = rbc_insertion(3.0, 2e-4);
    eng.insertion = Some(ctx);
    eng.controller = Some(controller);
    eng.maintenance_interval = 10;
    let placed = eng.populate_window();
    assert!(placed > 5, "initial packing placed only {placed} cells");
    eng
}

fn ctc_membrane() -> (Arc<Membrane>, apr_mesh::TriMesh) {
    let mesh = icosphere(2, 3.5);
    let re = Arc::new(ReferenceState::build(&mesh));
    (
        Arc::new(Membrane::new(re, MembraneMaterial::ctc(2e-3, 1e-4))),
        mesh,
    )
}

#[test]
fn checkpoint_resume_is_bit_identical() {
    // Run past several maintenance sweeps so the RNG stream, free-list and
    // diagnostics all carry real state, then checkpoint.
    let mut live = hematocrit_engine();
    for _ in 0..60 {
        live.step();
    }
    let blob = save_engine(&live);

    // Restore onto a freshly built engine (same recipe, never stepped).
    let mut resumed = hematocrit_engine();
    restore_engine(&mut resumed, &blob, None).unwrap();
    assert_eq!(resumed.steps(), live.steps());
    assert_eq!(
        save_engine(&resumed),
        blob,
        "restored engine must re-serialize to the identical checkpoint"
    );

    // Stepping both engines K more steps (crossing maintenance sweeps that
    // consume the insertion RNG) must stay byte-for-byte identical.
    for _ in 0..30 {
        live.step();
        resumed.step();
    }
    assert_eq!(
        save_engine(&live),
        save_engine(&resumed),
        "resumed trajectory diverged from the uninterrupted run"
    );
}

#[test]
fn checkpoint_resume_is_bit_identical_across_a_window_move() {
    let (mem, mesh) = ctc_membrane();
    let build = || {
        let mut eng = tube_engine(3, 96, 6e-6);
        let center = eng.anatomy.center;
        let verts: Vec<Vec3> = mesh.vertices.iter().map(|&v| v + center).collect();
        eng.add_ctc(Arc::clone(&mem), verts);
        eng
    };

    // Advance until the window has moved at least once, then a bit more.
    let mut live = build();
    let mut steps = 0;
    while live.window_moves() == 0 {
        live.step();
        steps += 1;
        assert!(steps < 3000, "window never moved");
    }
    for _ in 0..20 {
        live.step();
    }
    let blob = save_engine(&live);

    // The fresh engine still has the *initial* window origin; restore must
    // bring back the moved origin, coupling and translated CTC exactly.
    let mut resumed = build();
    restore_engine(&mut resumed, &blob, Some(&mem)).unwrap();
    assert_eq!(
        resumed.map.origin, live.map.origin,
        "window origin not restored"
    );
    assert_eq!(resumed.window_moves(), live.window_moves());

    for _ in 0..25 {
        live.step();
        resumed.step();
    }
    assert_eq!(
        save_engine(&live),
        save_engine(&resumed),
        "post-move resumed trajectory diverged"
    );
}

#[test]
fn corrupted_checkpoint_is_rejected_with_typed_error() {
    let mut eng = hematocrit_engine();
    for _ in 0..20 {
        eng.step();
    }
    let good = save_engine(&eng);

    // Flip a bit deep inside a payload: must surface as a CRC error naming
    // the damaged section, never a panic or silent bad state.
    let mut bad = good.clone();
    let idx = bad.len() / 2;
    bad[idx] ^= 0x10;
    let mut target = hematocrit_engine();
    match restore_engine(&mut target, &bad, None) {
        Err(GuardError::Crc {
            section,
            expected,
            actual,
        }) => {
            assert!(!section.is_empty());
            assert_ne!(expected, actual);
        }
        other => panic!("expected Crc error, got {other:?}"),
    }

    // Truncation is a format error, also typed.
    let cut = &good[..good.len() - 9];
    assert!(matches!(
        restore_engine(&mut target, cut, None),
        Err(GuardError::Format(_))
    ));

    // The engine is still usable after the rejected restores.
    restore_engine(&mut target, &good, None).unwrap();
    target.step();
}

#[test]
fn missing_ctc_membrane_is_reported_not_panicked() {
    let (mem, mesh) = ctc_membrane();
    let mut eng = tube_engine(3, 48, 4e-6);
    let center = eng.anatomy.center;
    let verts: Vec<Vec3> = mesh.vertices.iter().map(|&v| v + center).collect();
    eng.add_ctc(mem, verts);
    let blob = save_engine(&eng);

    let mut target = tube_engine(3, 48, 4e-6);
    assert!(matches!(
        restore_engine(&mut target, &blob, None),
        Err(GuardError::MissingContext(_))
    ));
}

mod fault_injection {
    use super::*;
    use apr_core::Guardian;
    use apr_guard::{FaultKind, RetryPolicy, SentinelConfig};

    /// End-to-end recovery: a NaN injected into a membrane mid-campaign
    /// trips the sentinel, the guardian rolls back to the last good
    /// checkpoint and the campaign completes with a hematocrit matching
    /// the clean run's. The telemetry event stream must tell the same
    /// story: checkpoint → sentinel trip → rollback, in that order.
    #[test]
    fn injected_nan_is_rolled_back_and_campaign_completes() {
        let total_steps = 200u64;
        apr_telemetry::enable();

        // Clean reference run.
        let mut clean = hematocrit_engine();
        for _ in 0..total_steps {
            clean.step();
        }
        let clean_ht = clean.window_hematocrit().unwrap();

        // Guarded run with a vertex NaN scheduled mid-campaign. The
        // guardian dumps the newest telemetry records on the trip.
        let dump = std::env::temp_dir().join(format!("apr_trip_trace_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&dump);
        let mut eng = hematocrit_engine();
        let mut guardian = Guardian::new(SentinelConfig::default(), RetryPolicy::default(), 5);
        guardian.set_trip_trace_path(&dump);
        guardian.faults.schedule(
            73,
            FaultKind::MembraneNan {
                cell_index: 2,
                vertex: 4,
            },
        );

        let mut stepped = 0u64;
        while stepped < total_steps {
            let outcome = guardian.step(&mut eng).expect("recovery must succeed");
            if !outcome.rolled_back {
                stepped = eng.steps();
            }
        }

        assert_eq!(guardian.faults.fired_count(), 1, "fault never fired");
        assert!(
            guardian.log.rollback_count() >= 1,
            "sentinel never tripped on the injected NaN:\n{}",
            guardian.log.summary()
        );
        for cell in eng.pool.iter() {
            assert!(cell.is_finite(), "NaN survived recovery");
        }
        let ht = eng.window_hematocrit().unwrap();
        assert!(
            (ht - clean_ht).abs() < 0.05,
            "recovered hematocrit {ht} far from clean run {clean_ht} \
             (log:\n{})",
            guardian.log.summary()
        );

        // Typed event stream. The global recorder is shared with other
        // tests in this binary, so select this incident by the step its
        // rollback was logged at (guardian tests use disjoint step ranges).
        use apr_telemetry::TelemetryEvent;
        let incident = guardian
            .log
            .events
            .first()
            .expect("recovery log lost the incident");
        let trip_step = incident.step;
        let events = apr_telemetry::global().events();
        let trip = events
            .iter()
            .find(|e| {
                matches!(e.event, TelemetryEvent::SentinelTrip { step, issues, .. }
                    if step == trip_step && issues > 0)
            })
            .expect("no sentinel-trip event for the injected NaN");
        let rollback = events
            .iter()
            .find(|e| matches!(e.event, TelemetryEvent::Rollback { step, .. } if step == trip_step))
            .expect("no rollback event paired with the sentinel trip");
        assert!(
            rollback.t_ns >= trip.t_ns,
            "rollback recorded before its sentinel trip"
        );
        if let TelemetryEvent::Rollback {
            restored_step,
            step,
            ..
        } = rollback.event
        {
            assert!(
                restored_step < step,
                "rollback must restore an earlier step ({restored_step} vs {step})"
            );
        }
        // A healthy checkpoint must have been saved before the trip — the
        // state the rollback restored.
        assert!(
            events.iter().any(|e| matches!(
                e.event,
                TelemetryEvent::CheckpointSaved { step, .. } if step < trip_step
            ) && e.t_ns <= trip.t_ns),
            "no checkpoint event precedes the sentinel trip"
        );

        // The dump written at the trip is a Chrome trace the CI validator
        // accepts, holding the sentinel-trip instant for this incident and
        // the run attributes (kernel, threads) that produced it.
        let text = std::fs::read_to_string(&dump).expect("guardian did not write the trip trace");
        let summary = apr_telemetry::validate_chrome_trace(&text).expect("trip trace validates");
        assert!(summary.span_records > 0, "trip trace holds no spans");
        let doc = apr_telemetry::json::parse(&text).unwrap();
        let records = doc.as_arr().unwrap();
        let field = |r: &apr_telemetry::json::Value, k: &str| {
            r.get(k).and_then(|v| v.as_str().map(str::to_string))
        };
        assert!(
            records.iter().any(|r| {
                field(r, "ph").as_deref() == Some("i")
                    && field(r, "name").as_deref() == Some("sentinel_trip")
                    && r.get("args")
                        .and_then(|a| a.get("step"))
                        .and_then(|s| s.as_f64())
                        == Some(trip_step as f64)
            }),
            "trip trace is missing the sentinel-trip event"
        );
        let attributes: Vec<_> = records
            .iter()
            .filter(|r| field(r, "name").as_deref() == Some("run_attribute"))
            .filter_map(|r| r.get("args"))
            .collect();
        for key in ["runtime.kernel", "runtime.threads"] {
            assert!(
                attributes.iter().any(|a| a.get(key).is_some()),
                "trip trace is missing the {key} run attribute"
            );
        }
        let _ = std::fs::remove_file(&dump);
    }

    /// A NaN in the CTC's membrane rolls back like one in an RBC: the
    /// guardian restores through the engine's own session state, which
    /// holds the CTC membrane `add_ctc` captured.
    #[test]
    fn ctc_nan_is_rolled_back_and_campaign_completes() {
        let (mem, mesh) = ctc_membrane();
        let mut eng = tube_engine(3, 48, 4e-6);
        let center = eng.anatomy.center;
        eng.add_ctc(mem, mesh.vertices.iter().map(|&v| v + center).collect());
        let mut guardian = Guardian::new(SentinelConfig::default(), RetryPolicy::default(), 5);
        guardian.faults.schedule(
            8,
            FaultKind::MembraneNan {
                cell_index: 0,
                vertex: 3,
            },
        );
        while eng.steps() < 20 {
            guardian.step(&mut eng).expect("CTC rollback must succeed");
        }
        assert_eq!(guardian.faults.fired_count(), 1, "fault never fired");
        assert_eq!(
            guardian.log.rollback_count(),
            1,
            "{}",
            guardian.log.summary()
        );
        assert_eq!(eng.pool.live_count(), 1);
        assert!(
            eng.pool.iter().all(|c| c.is_finite()),
            "NaN survived recovery"
        );
    }

    /// A corrupted lattice distribution also trips the sentinel and is
    /// healed by rollback (the replay is clean — one-shot faults model
    /// transient corruption).
    #[test]
    fn corrupted_distribution_is_rolled_back() {
        let mut eng = hematocrit_engine();
        // Must be an interior node: shell nodes are overwritten from the
        // coarse solution every substep, which would erase the fault.
        let node = eng.fine.idx(12, 12, 12);
        let mut guardian = Guardian::new(SentinelConfig::default(), RetryPolicy::default(), 5);
        guardian.faults.schedule(
            12,
            FaultKind::DistributionCorrupt {
                node,
                magnitude: 1e6,
            },
        );
        let mut stepped = 0u64;
        while stepped < 40 {
            let outcome = guardian.step(&mut eng).expect("recovery must succeed");
            if !outcome.rolled_back {
                stepped = eng.steps();
            }
        }
        assert_eq!(
            guardian.log.rollback_count(),
            1,
            "{}",
            guardian.log.summary()
        );
        // After recovery the lattice is sane again.
        let report = guardian.inspect(&mut eng);
        assert!(report.is_healthy(), "{report:?}");
    }
}

#[test]
fn retry_budget_is_enforced() {
    use apr_core::Guardian;
    use apr_guard::{RetryPolicy, SentinelConfig};

    // A sentinel that can never pass (min density above physical rho ≈ 1)
    // trips at every check; the guardian must roll back `max_retries`
    // times and then give up with a typed fatal error.
    let mut eng = hematocrit_engine();
    let sentinel = SentinelConfig {
        min_rho: 2.0,
        ..SentinelConfig::default()
    };
    let policy = RetryPolicy {
        max_retries: 2,
        tau_tighten: Some(1.25),
        ..RetryPolicy::default()
    };
    let mut guardian = Guardian::new(sentinel, policy, 5);

    let mut fatal = None;
    for _ in 0..20 {
        match guardian.step(&mut eng) {
            Ok(_) => {}
            Err(e) => {
                fatal = Some(e);
                break;
            }
        }
    }
    match fatal {
        Some(GuardError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 3),
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(guardian.log.rollback_count(), 2);
    assert!(guardian.log.summary().contains("gave up"));
    // τ tightening compounds across the rollbacks (Eq. 7 damping).
    let base = fine_tau(0.9, 3, 0.3);
    assert!(
        eng.fine.tau > base,
        "tau was not tightened: {} vs {base}",
        eng.fine.tau
    );
}

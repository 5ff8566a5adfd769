//! Execution-backend determinism: the ISSUE acceptance criterion that the
//! same APR problem produces **bit-identical** results for every worker
//! thread count, and that the guardian checkpoint→rollback cycle replays
//! the identical trajectory under a multithreaded pool.
//!
//! apr-exec guarantees this by construction — chunk layout depends only on
//! the problem size, never the thread count, reductions fold in fixed chunk
//! order and the force scatter partitions its output — so these tests pin
//! the contract end-to-end through the full engine (LBM, IBM spreading,
//! membrane forces, hematocrit maintenance, RNG-driven insertion).
//!
//! The worker pool is process-global, so every test that swaps it holds
//! `POOL_LOCK` to keep concurrent test threads from racing on it.

use apr_suite::cells::RbcTile;
use apr_suite::core::{restore_engine, save_engine, AprEngine};
use apr_suite::coupling::fine_tau;
use apr_suite::lattice::{force_driven_tube, Lattice};
use apr_suite::membrane::{Membrane, MembraneMaterial, ReferenceState};
use apr_suite::mesh::biconcave_rbc_mesh;
use apr_suite::window::{HematocritController, InsertionContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

static POOL_LOCK: Mutex<()> = Mutex::new(());

/// The guardian-test recipe: force-driven tube with a refined window kept
/// at target hematocrit by RNG-driven insertion — every parallel code path
/// (collide, stream, spread, interpolate, membrane forces, advection) runs.
fn hematocrit_engine() -> AprEngine {
    let (nx, ny, nz) = (21usize, 21usize, 48usize);
    let (n, tau_c, lambda, g) = (3usize, 0.9f64, 0.3f64, 4e-6f64);
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
    let mut eng = AprEngine::builder(coarse, fine, origin, n, lambda)
        .maintenance_interval(10)
        .build();

    let radius = 3.0;
    let rbc_mesh = biconcave_rbc_mesh(1, radius);
    let re = Arc::new(ReferenceState::build(&rbc_mesh));
    let membrane = Arc::new(Membrane::new(re, MembraneMaterial::rbc(2e-4, 1e-5)));
    let mut rng = StdRng::seed_from_u64(99);
    let volume = rbc_mesh.enclosed_volume();
    let tile = RbcTile::build(40.0, 0.15, radius, radius * 0.6, volume, &mut rng);
    eng.insertion = Some(InsertionContext {
        rbc_mesh,
        rbc_membrane: membrane,
        tile,
        min_gap: 0.8,
    });
    eng.controller = Some(HematocritController::new(0.12, 0.85, volume));
    let placed = eng.populate_window();
    assert!(placed > 5, "initial packing placed only {placed} cells");
    eng
}

/// Run 100 APR steps on `threads` workers; return the full engine
/// checkpoint (distributions, moments, cells, RNG — everything), the raw
/// bits of the fine lattice's distributions, and the bits of the window
/// hematocrit.
fn run_100_steps(threads: usize) -> (Vec<u8>, Vec<u64>, u64) {
    apr_suite::exec::set_threads(threads);
    let mut eng = hematocrit_engine();
    for _ in 0..100 {
        eng.step();
    }
    let f_bits: Vec<u64> = (0..eng.fine.node_count())
        .flat_map(|node| eng.fine.distributions(node).iter().map(|v| v.to_bits()))
        .collect();
    let ht_bits = eng
        .window_hematocrit()
        .expect("controller is configured")
        .to_bits();
    (save_engine(&eng), f_bits, ht_bits)
}

#[test]
fn hundred_steps_bit_identical_across_thread_counts() {
    let _guard = POOL_LOCK.lock().unwrap();
    let (blob_1, f_1, ht_1) = run_100_steps(1);
    for threads in [2usize, 4, 8] {
        let (blob_t, f_t, ht_t) = run_100_steps(threads);
        assert_eq!(
            f_1, f_t,
            "fine-lattice distributions diverged at {threads} threads"
        );
        assert_eq!(
            ht_1, ht_t,
            "window hematocrit diverged at {threads} threads"
        );
        assert_eq!(
            blob_1, blob_t,
            "engine checkpoint diverged at {threads} threads"
        );
    }
    apr_suite::exec::set_threads(1);
}

#[test]
fn guardian_rollback_replays_identically_at_four_threads() {
    let _guard = POOL_LOCK.lock().unwrap();
    apr_suite::exec::set_threads(4);
    let mut eng = hematocrit_engine();
    for _ in 0..30 {
        eng.step();
    }
    let checkpoint = save_engine(&eng);
    for _ in 0..20 {
        eng.step();
    }
    let end_state = save_engine(&eng);

    // Roll back to the checkpoint and replay the same 20 steps: the pool
    // is still running 4 workers, so any scheduling nondeterminism would
    // surface as a byte diff here.
    restore_engine(&mut eng, &checkpoint, None).expect("rollback must succeed");
    assert_eq!(
        save_engine(&eng),
        checkpoint,
        "restored engine must re-serialize to the identical checkpoint"
    );
    for _ in 0..20 {
        eng.step();
    }
    assert_eq!(
        save_engine(&eng),
        end_state,
        "replayed trajectory diverged from the pre-rollback run"
    );
    apr_suite::exec::set_threads(1);
}

/// Guided chunking claims chunks from a shared cursor, so which lane
/// computes which chunk depends on thread timing. The results must not:
/// 20 runs with randomized per-lane start delays (forcing different claim
/// interleavings every run) all land on the identical trajectory.
#[test]
fn guided_chunking_survives_randomized_worker_starts() {
    use apr_suite::lattice::KernelKind;
    use rand::Rng;

    let _guard = POOL_LOCK.lock().unwrap();
    apr_suite::exec::set_threads(4);
    let run_once = || {
        let mut lat = force_driven_tube(13, 13, 24, 0.9, 5.0, 1e-6);
        lat.set_kernel(Some(KernelKind::FusedSwap));
        for _ in 0..30 {
            lat.step();
        }
        let bits: Vec<u64> = lat.storage_f().iter().map(|v| v.to_bits()).collect();
        bits
    };
    let mut rng = StdRng::seed_from_u64(0xC1A1);
    let baseline = run_once();
    for round in 0..20 {
        let table: Vec<u64> = (0..4).map(|_| rng.gen_range(0..300_000u64)).collect();
        apr_suite::exec::set_test_start_jitter(Some(table));
        let jittered = run_once();
        apr_suite::exec::set_test_start_jitter(None);
        assert_eq!(
            baseline, jittered,
            "trajectory changed with start jitter (round {round})"
        );
    }
    apr_suite::exec::set_threads(1);
}

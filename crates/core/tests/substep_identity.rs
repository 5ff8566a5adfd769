//! `AprEngine::step` is bit-identical to the stage functions it is made of.
//!
//! (a) Twin engines: one is stepped with `step()`, the other is driven
//! through the public stage functions in `step`'s order (shell snapshots
//! around the coarse step; per sub-step membrane forces,
//! `compute_contact_forces`, `clear_forces`, `spread_cell_forces`,
//! collide, `impose_shell`, stream, `advect_cells`; then `restrict`). Their
//! `suspend()` blobs agree byte for byte after every step, at 1 and 2
//! lanes. `step` builds one stencil per vertex per sub-step for both
//! transfers and rebuilds the contact grid on the last sub-step only; the
//! stage functions build a stencil per transfer and rebuild the grid on
//! every sub-step. The contact grids, which no blob holds, are compared
//! sample by sample: after `step()` the grid holds the positions from the
//! start of the last sub-step.
//! (b) Golden hashes: the `suspend()` blobs of an `rbc_window`-class and a
//! `ctc_transit`-class scenario, through maintenance sweeps and a window
//! move, hash to the values the engine produced while every transfer still
//! built its own stencil and every sub-step rebuilt the grid. Maintenance
//! and moves read the grid, so a grid that held other positions after
//! `step()` changes which cells are removed and inserted.

use apr_core::{fsi, AprEngine, SimSession};
use apr_exec::ExecPool;
use apr_guard::{ByteReader, ByteWriter, CheckpointReader, CheckpointWriter};
use apr_lattice::SubStep;
use apr_scenarios::ScenarioSpec;
use std::sync::Arc;

/// A static 25³ window (n = 3) at the `rbc_window` workload's hematocrit
/// in a body-force-driven tube: that workload at a test's size.
const RBC_WINDOW: &str = r#"{"schema":"apr.scenario.v1","name":"rbc_window_small","dims":[21,21,40],
 "geometry":{"kind":"tube","radius":9.0},
 "inlet":{"kind":"body_force","g":0.000004},
 "refine":3,"span":8,"tau_c":0.9,"lambda":0.3,"hematocrit":0.17,
 "windows":[{"origin":[6.0,6.0,12.0],"ctc_radius":0.0}],
 "seed":2,"warmup_steps":0,
 "runtime":{"kernel":"auto","threads":0}}"#;

/// A cell-laden window following a CTC down a tube: the `ctc_transit`
/// workload at a test's size, driven harder so the window first moves at
/// step 37 instead of after a warm-up.
const CTC_TRANSIT: &str = r#"{"schema":"apr.scenario.v1","name":"ctc_transit_small","dims":[21,21,64],
 "geometry":{"kind":"tube","radius":9.0},
 "inlet":{"kind":"body_force","g":0.002},
 "refine":3,"span":8,"tau_c":0.9,"lambda":0.3,"hematocrit":0.2,
 "windows":[{"origin":[6.0,6.0,4.0],"ctc_radius":3.0}],
 "seed":2,"warmup_steps":0,
 "runtime":{"kernel":"auto","threads":0}}"#;

/// A packed engine built from `json`, at step 0.
fn packed(json: &str) -> AprEngine {
    let spec = ScenarioSpec::from_json(json).expect("valid spec");
    let mut eng = spec.build_apr().expect("engine builds");
    assert!(eng.populate_window() > 0, "{}: no cells placed", spec.name);
    eng
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn lanes(threads: usize) -> Arc<ExecPool> {
    Arc::new(ExecPool::new(threads))
}

// --- (a) twin engines --------------------------------------------------------

/// One coarse step of `eng` through the stage functions, in `step`'s order.
/// Counters, trajectory, moves and maintenance are `step`'s own business
/// and are left out: the twin runs with neither a CTC nor maintenance.
fn staged_step(eng: &mut AprEngine) {
    let old = eng.map.snapshot(&eng.coarse, &eng.fine);
    eng.coarse.step();
    let new = eng.map.snapshot(&eng.coarse, &eng.fine);
    let n = eng.map.n;
    for k in 0..n {
        let theta = (k + 1) as f64 / n as f64;
        fsi::compute_membrane_forces(&mut eng.pool);
        fsi::compute_contact_forces(&mut eng.pool, &mut eng.grid, eng.contact);
        eng.fine.clear_forces();
        fsi::spread_cell_forces(&mut eng.fine, &eng.pool, eng.kernel, |v| v, 1.0);
        eng.fine.advance(SubStep::Collide);
        eng.map.impose_shell(&mut eng.fine, &old, &new, theta);
        eng.fine.advance(SubStep::Stream);
        fsi::advect_cells(&eng.fine, &mut eng.pool, eng.kernel, |v| v, 1.0);
    }
    eng.map.restrict(&mut eng.coarse, &eng.fine);
}

/// `blob` with the step and site-update counters (the first two words of
/// its `meta` section) replaced, every other byte kept.
fn with_counters(blob: &[u8], steps: u64, site_updates: u64) -> Vec<u8> {
    let ckpt = CheckpointReader::parse(blob).expect("engine blob parses");
    let mut out = CheckpointWriter::new();
    for name in ckpt.section_names() {
        let payload = ckpt.get(name).expect("listed section");
        if name == "meta" {
            let mut meta = ByteWriter::new();
            meta.u64(steps);
            meta.u64(site_updates);
            let mut rest = ByteReader::new(payload);
            rest.u64().expect("meta.steps");
            rest.u64().expect("meta.site_updates");
            meta.bytes(rest.bytes(rest.remaining()).expect("meta tail"));
            out.section(name, meta.into_bytes());
        } else {
            out.section(name, payload.to_vec());
        }
    }
    out.finish()
}

/// Every sample of the engine's contact grid as `(cell, vertex, position
/// bits)`, sorted. The grid is not part of a blob; maintenance and window
/// moves read it after the step.
fn grid_samples(eng: &AprEngine) -> Vec<(u64, u32, [u64; 3])> {
    let mut out = Vec::with_capacity(eng.grid.len());
    let centre = eng.anatomy.center;
    let reach = 2.0 * eng.fine.nx.max(eng.fine.ny).max(eng.fine.nz) as f64;
    eng.grid.for_each_neighbor(centre, reach, u64::MAX, |e| {
        let p = e.position;
        out.push((
            e.cell_id,
            e.vertex,
            [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()],
        ));
    });
    assert_eq!(out.len(), eng.grid.len(), "the query missed samples");
    out.sort_unstable();
    out
}

fn twin_engines_agree(threads: usize) {
    apr_exec::with_pool(lanes(threads), || {
        let mut stepped = packed(RBC_WINDOW);
        let mut staged = packed(RBC_WINDOW);
        for eng in [&mut stepped, &mut staged] {
            eng.maintenance_interval = u64::MAX;
        }
        assert_eq!(
            stepped.suspend(),
            staged.suspend(),
            "twins differ at set-up"
        );
        for step in 1..=3 {
            let report = stepped.step();
            assert!(!report.moved && report.insertion.is_none());
            staged_step(&mut staged);
            let want = stepped.suspend();
            let got = with_counters(&staged.suspend(), stepped.steps(), stepped.site_updates());
            assert!(
                want == got,
                "{threads} lane(s), step {step}: step() and the stage functions disagree"
            );
            assert_eq!(
                grid_samples(&stepped),
                grid_samples(&staged),
                "{threads} lane(s), step {step}: the contact grids disagree"
            );
        }
    });
}

#[test]
fn step_matches_the_stage_functions_at_one_lane() {
    twin_engines_agree(1);
}

#[test]
fn step_matches_the_stage_functions_at_two_lanes() {
    twin_engines_agree(2);
}

// --- (b) golden hashes ---------------------------------------------------------

/// Step `eng` to `checkpoints.last()`, hashing its blob at each checkpoint;
/// also returns the steps that ran a maintenance sweep and moved the window.
fn hash_run(eng: &mut AprEngine, checkpoints: &[u64]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let (mut hashes, mut sweeps, mut moves) = (Vec::new(), Vec::new(), Vec::new());
    for &at in checkpoints {
        while eng.steps() < at {
            let report = eng.step();
            if report.insertion.is_some() {
                sweeps.push(eng.steps());
            }
            if report.moved {
                moves.push(eng.steps());
            }
        }
        hashes.push(fnv1a(&eng.suspend()));
    }
    (hashes, sweeps, moves)
}

#[test]
fn rbc_window_blobs_match_their_golden_hashes() {
    let (hashes, sweeps, moves) = apr_exec::with_pool(lanes(1), || {
        hash_run(&mut packed(RBC_WINDOW), &[0, 10, 20, 24])
    });
    assert_eq!(sweeps, [10, 20]);
    assert!(moves.is_empty());
    assert_eq!(
        hashes,
        [
            0x8d3b_3e94_bb59_93a3,
            0xfa6e_e905_d978_3e29,
            0x8fdd_15be_30c2_d33e,
            0xc6b8_8d16_a09f_bcd9,
        ],
        "rbc_window hashes: {hashes:#018x?}"
    );
}

#[test]
fn ctc_transit_blobs_match_their_golden_hashes() {
    let (hashes, sweeps, moves) = apr_exec::with_pool(lanes(2), || {
        hash_run(&mut packed(CTC_TRANSIT), &[0, 10, 20, 30, 37, 40])
    });
    assert_eq!(sweeps, [10, 20, 30, 40]);
    assert_eq!(moves, [37]);
    assert_eq!(
        hashes,
        [
            0xb212_f802_57c9_3fa2,
            0x1d2b_46a2_2b22_49e8,
            0x68a3_cb6d_b5aa_f593,
            0xa718_059d_7885_74f2,
            0xa877_d7f2_46fc_b40d,
            0x3025_2259_7e30_5ab1,
        ],
        "ctc_transit hashes: {hashes:#018x?}"
    );
}

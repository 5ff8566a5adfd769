//! Every registered scenario must build, run 20 steps, and keep its
//! conservation ledger clean — the contract the `scenarios` CI job
//! enforces. A registry entry that cannot survive this smoke test does
//! not belong in the zoo.

use apr_kernels::{AdjacencyTable, RowLayout};
use apr_lattice::{equilibrium_all, Boundary, KernelKind, Lattice, NodeClass, Q};
use apr_scenarios::{registry, SimSession};
use std::sync::Arc;

const SMOKE_STEPS: u64 = 20;

#[test]
fn every_registered_scenario_builds_steps_and_conserves() {
    for spec in registry() {
        if spec.windows.len() == 1 {
            let mut eng = spec
                .build_apr()
                .unwrap_or_else(|e| panic!("{}: build failed: {e}", spec.name));
            if spec.hematocrit > 0.0 {
                assert!(eng.populate_window() > 0, "{}: no cells packed", spec.name);
            }
            eng.step_n(SMOKE_STEPS);
            assert_eq!(SimSession::steps(&eng), SMOKE_STEPS, "{}", spec.name);
            // The last step's row is recorded by the next step; close it
            // so the last step is audited too.
            eng.close_ledger();
            let ledger = eng.ledger.as_ref().expect("build_apr arms the ledger");
            assert!(
                ledger.breaches().is_empty(),
                "{}: ledger breaches {:?}",
                spec.name,
                ledger.breaches()
            );
        } else {
            let mut eng = spec
                .build_multi()
                .unwrap_or_else(|e| panic!("{}: build failed: {e}", spec.name));
            if spec.hematocrit > 0.0 {
                eng.populate_windows();
            }
            eng.step_n(SMOKE_STEPS);
            assert_eq!(SimSession::steps(&eng), SMOKE_STEPS, "{}", spec.name);
            eng.close_ledger();
            let ledger = eng.ledger.as_ref().expect("build_multi arms the ledger");
            assert!(
                ledger.breaches().is_empty(),
                "{}: ledger breaches {:?}",
                spec.name,
                ledger.breaches()
            );
        }
    }
}

#[test]
fn cold_builds_are_deterministic_per_scenario() {
    // Same spec, two cold builds → bit-identical suspend blobs. This is
    // the property the warm-state cache keys on (spec hash → state).
    for spec in registry() {
        let a = spec
            .build_cold()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let b = spec
            .build_cold()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(
            a.suspend(),
            b.suspend(),
            "{}: cold build drifted",
            spec.name
        );
    }
}

/// Fluid nodes that read a streaming op row: a non-fluid or out-of-domain
/// neighbour, or a place on the box's faces (where links may wrap).
fn slow_nodes(lat: &Lattice) -> usize {
    (0..lat.node_count())
        .filter(|&node| {
            let (x, y, z) = lat.coords(node);
            let face = [(x, lat.nx), (y, lat.ny), (z, lat.nz)]
                .iter()
                .any(|&(c, n)| c == 0 || c + 1 == n);
            lat.flag(node) == NodeClass::Fluid
                && (face
                    || (1..Q).any(|i| {
                        lat.link_neighbor(node, i)
                            .is_none_or(|m| lat.flag(m) != NodeClass::Fluid)
                    }))
        })
        .count()
}

/// Heap bytes of one lattice: its per-node arrays plus the kernel's
/// scratch.
fn lattice_bytes(lat: &Lattice) -> usize {
    let f64s = lat.storage_f().len()
        + lat.rho.len()
        + lat.vel.len()
        + lat.force.len()
        + lat.tau_field().map_or(0, <[f64]>::len);
    f64s * std::mem::size_of::<f64>() + lat.node_count() + lat.kernel_scratch_bytes()
}

/// The streaming table the fused kernel compiles for `lat`.
fn adjacency(lat: &Lattice) -> AdjacencyTable {
    let flags: Vec<NodeClass> = (0..lat.node_count()).map(|n| lat.flag(n)).collect();
    let moving: Vec<(usize, [f64; 3])> = (0..lat.node_count())
        .filter_map(|n| match lat.boundary(n) {
            Some(Boundary::MovingWall(u)) if lat.flag(n) == NodeClass::Wall => Some((n, u)),
            _ => None,
        })
        .collect();
    let layout = lat
        .storage_layout()
        .expect("a stepped lattice has a layout");
    AdjacencyTable::build(
        lat.nx,
        lat.ny,
        lat.nz,
        lat.periodic,
        &flags,
        &moving,
        layout,
    )
}

/// The zoo's memory table: for every lattice of every registry scenario,
/// its size, fluid fraction, `Fast`/`Slow` split, stored nodes and their
/// distribution bytes, the fused kernel's scratch (op table, deferred-swap
/// lists, chunk plan) and the lattice's bytes per fluid point, printed
/// (`--nocapture`) before the checks:
/// - the op table has one row per `Slow` node and stays within `19 · 4`
///   bytes per `Slow` node plus 4 bytes per node;
/// - distributions are stored for the stateful nodes, the gaps between
///   them in a row and the nodes that hold anything but the rest state
///   only: `stored ≤` the nodes in each row's hull of those. A coarse
///   bulk is `stateful + gap`; a window is seeded before its geometry is
///   flagged, so its walls hold seeded (non-rest) values and stay stored;
/// - at 1, 2 and 4 lanes the deferred-swap lists (with the chunk plan) are
///   no larger than the op table.
#[test]
fn zoo_memory_table_prices_the_kernel_by_its_slow_nodes() {
    let mut rows = Vec::new();
    for spec in registry() {
        let lattices: Vec<(String, Lattice)> = if spec.windows.len() == 1 {
            let eng = spec.build_apr().expect("build");
            vec![("coarse".into(), eng.coarse), ("fine".into(), eng.fine)]
        } else {
            let eng = spec.build_multi().expect("build");
            let fines = eng.windows.into_iter().enumerate();
            std::iter::once(("coarse".into(), eng.coarse))
                .chain(fines.map(|(k, w)| (format!("fine {k}"), w.fine)))
                .collect()
        };
        for (which, mut lat) in lattices {
            lat.set_kernel(Some(KernelKind::FusedSwap));
            let lists: Vec<usize> = [1, 2, 4]
                .map(|lanes| {
                    let mut lat = lat.clone();
                    let pool = Arc::new(apr_exec::ExecPool::new(lanes));
                    apr_exec::with_pool(pool, || lat.step());
                    lat.kernel_scratch_bytes() - adjacency(&lat).bytes()
                })
                .to_vec();
            lat.step();
            rows.push((format!("{} {which}", spec.name), lat, lists));
        }
    }
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>5} {:>6} {:>9} {:>8} {:>8} {:>8} {:>7}",
        "lattice",
        "nodes",
        "fluid",
        "fast",
        "slow",
        "stored",
        "f B",
        "table B",
        "bound B",
        "kernel B",
        "B/fluid"
    );
    let mut checks = Vec::new();
    for (name, lat, lists) in &rows {
        let (n, fluid, slow) = (lat.node_count(), lat.fluid_node_count(), slow_nodes(lat));
        let table = adjacency(lat);
        let bound = slow * Q * 4 + n * 4;
        let stored = lat.stored_node_count();
        let rest = equilibrium_all(1.0, 0.0, 0.0, 0.0);
        let flags: Vec<NodeClass> = (0..n)
            .map(|node| {
                let held = lat.distributions(node) != rest;
                match lat.flag(node) {
                    NodeClass::Wall | NodeClass::Exterior if held => NodeClass::Fluid,
                    class => class,
                }
            })
            .collect();
        let stateful_and_gaps = RowLayout::stateful(lat.nx, lat.ny, lat.nz, &flags).slots();
        println!(
            "{name:<22} {n:>6} {:>5.1}% {:>6} {slow:>5} {stored:>6} {:>9} {:>8} {bound:>8} {:>8} {:>7.0}",
            100.0 * fluid as f64 / n as f64,
            fluid - slow,
            std::mem::size_of_val(lat.storage_f()),
            table.bytes(),
            lat.kernel_scratch_bytes(),
            lattice_bytes(lat) as f64 / fluid as f64,
        );
        checks.push((name, table, slow, bound, stored, stateful_and_gaps, lists));
    }
    for (name, table, slow, bound, stored, stateful_and_gaps, lists) in checks {
        let bytes = table.bytes();
        assert_eq!(table.slow_count(), slow, "{name}: one op row per Slow node");
        assert!(bytes <= bound, "{name}: op table {bytes} B > {bound} B");
        assert!(
            stored <= stateful_and_gaps,
            "{name}: {stored} stored > {stateful_and_gaps} stateful, gap and non-rest nodes"
        );
        for (lanes, lists) in [1, 2, 4].iter().zip(lists) {
            assert!(
                *lists <= bytes,
                "{name}: {lanes} lanes: deferred-swap lists {lists} B > op table {bytes} B"
            );
        }
    }
}

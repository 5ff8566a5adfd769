//! The junction-transit acceptance tests: a refinement window following
//! its tracked cell through a branch point.
//!
//! Two layers, matching what each tolerance can honestly promise:
//!
//! 1. The *closed bulk lumen* (side-branch union, periodic z, body
//!    force) conserves mass to machine precision — `LedgerConfig::strict`
//!    (≤ 1e-12 relative drift) over hundreds of steps, bit-identical
//!    under 1 and 4 threads.
//! 2. The *full APR engine* on the registered `branch_transit` scenario
//!    crosses the junction: window moves fire, the tracked cell ends up
//!    past the branch point, the default-tolerance ledger stays clean
//!    (APR coupling deliberately exchanges mass between domains, so
//!    machine-precision drift is not the contract there), and the entire
//!    run — suspend blob included — is bit-identical under 1 and 4
//!    threads.

use apr_geom::{voxelize, Capsule, Cylinder, Sdf, Union};
use apr_lattice::Lattice;
use apr_mesh::Vec3;
use apr_scenarios::{lookup, GeometrySpec, SimSession};
use apr_telemetry::ledger::{ConservationLedger, DomainTotals, LedgerConfig, WindowFlux};

/// The `branch_transit` bulk lumen, built exactly as the scenario does.
fn closed_side_branch_lattice() -> Lattice {
    let spec = lookup("branch_transit").unwrap();
    let GeometrySpec::SideBranch {
        radius,
        branch_radius,
        junction_z,
        branch_angle,
        branch_length,
    } = spec.geometry
    else {
        panic!("branch_transit is a side-branch scenario");
    };
    let (cx, cy) = ((spec.nx - 1) as f64 / 2.0, (spec.ny - 1) as f64 / 2.0);
    let junction = Vec3::new(cx, cy, junction_z);
    let dir = Vec3::new(branch_angle.sin(), 0.0, branch_angle.cos());
    let sdf = Union(vec![
        Box::new(Cylinder::new(Vec3::new(cx, cy, 0.0), Vec3::Z, radius)) as Box<dyn Sdf>,
        Box::new(Capsule::new(
            junction,
            junction + dir * branch_length,
            branch_radius,
        )),
    ]);
    let mut lat = Lattice::new(spec.nx, spec.ny, spec.nz, spec.tau_c);
    lat.periodic = [false, false, true];
    lat.body_force = [0.0, 0.0, 4e-4];
    voxelize(&mut lat, &sdf, Vec3::ZERO, 1.0);
    lat
}

fn domain_totals(lat: &Lattice) -> DomainTotals {
    let (mass, momentum, fluid_nodes) = lat.mass_momentum_totals();
    DomainTotals {
        mass,
        momentum,
        fluid_nodes: fluid_nodes as u64,
    }
}

#[test]
fn closed_branch_lumen_holds_strict_ledger_and_thread_invariance() {
    const STEPS: u64 = 200;
    let mut ledger = ConservationLedger::new(LedgerConfig::strict());

    apr_exec::set_threads(1);
    let mut single = closed_side_branch_lattice();
    for step in 0..STEPS {
        single.step();
        ledger.record(
            step,
            domain_totals(&single),
            DomainTotals::default(),
            None,
            WindowFlux::default(),
        );
    }
    assert!(
        ledger.breaches().is_empty(),
        "strict (1e-12) ledger breached on the closed lumen: {:?}",
        ledger.breaches()
    );

    apr_exec::set_threads(4);
    let mut quad = closed_side_branch_lattice();
    for _ in 0..STEPS {
        quad.step();
    }
    apr_exec::set_threads(1);

    assert_eq!(
        apr_guard::write_lattice(&single),
        apr_guard::write_lattice(&quad),
        "closed side-branch run must be bit-identical under 1 and 4 threads"
    );
}

#[test]
fn window_crosses_generation_one_junction() {
    const STEPS: u64 = 600;
    let spec = lookup("branch_transit").unwrap();
    let GeometrySpec::SideBranch { junction_z, .. } = spec.geometry else {
        panic!("branch_transit is a side-branch scenario");
    };

    apr_exec::set_threads(1);
    let mut eng = spec.build_apr().unwrap();
    eng.step_n(STEPS);
    eng.close_ledger();

    let ledger = eng.ledger.as_ref().expect("ledger armed");
    assert!(
        ledger.breaches().is_empty(),
        "ledger breaches during junction transit: {:?}",
        ledger.breaches()
    );
    assert!(
        eng.window_moves() > 0,
        "window never moved while chasing the cell"
    );
    let ctc = eng.ctc_position().expect("branch_transit tracks a CTC");
    let world = eng.fine_to_world(ctc);
    assert!(
        world.z > junction_z,
        "tracked cell should be past the junction (z = {junction_z}): got {world:?}"
    );
    let blob1 = SimSession::suspend(&eng);

    // Thread invariance of the complete APR run, suspend blob included.
    apr_exec::set_threads(4);
    let mut quad = spec.build_apr().unwrap();
    quad.step_n(STEPS);
    apr_exec::set_threads(1);
    assert_eq!(
        blob1,
        SimSession::suspend(&quad),
        "branch_transit must be bit-identical under 1 and 4 threads"
    );
}

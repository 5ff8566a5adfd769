//! Coupled bulk/window shear-flow verification — the paper's §3.1 problem
//! at test scale. A fine window at viscosity ratio λ spans the middle layer
//! of a three-layer Couette stack; the coupled steady state must reproduce
//! the piecewise-linear analytic profile (Eq. 8) in both lattices.

use apr_coupling::{coupled_step, fine_tau, CouplingMap};
use apr_hemo::analytic::ThreeLayerCouette;
use apr_hemo::error::l2_error_norm;
use apr_lattice::{couette_channel, Lattice};

/// Build the coupled Couette problem.
///
/// Coarse channel: walls at y = 0 and y = ny−1, fluid height `ny − 2`
/// lattice units, periodic x/z. The window spans coarse y ∈ [y_lo, y_hi]
/// (node-aligned) at refinement `n` and viscosity ratio `lambda`.
struct CoupledCouette {
    coarse: Lattice,
    fine: Lattice,
    map: CouplingMap,
    u_lid: f64,
    analytic: ThreeLayerCouette,
}

fn build(n: usize, lambda: f64) -> CoupledCouette {
    let (nx_c, ny_c, nz_c) = (4usize, 26usize, 4usize);
    let u_lid = 0.02;
    let tau_c = 1.0;
    let coarse = couette_channel(nx_c, ny_c, nz_c, tau_c, u_lid);

    // Window spans coarse y ∈ [8, 16]; physical heights (walls at 0.5 and
    // 24.5): layers of 7.5 / 8.0 / 8.5 lattice units.
    let (y_lo, y_hi) = (8usize, 16usize);
    let fine_ny = (y_hi - y_lo) * n + 1;
    let mut fine = Lattice::new(nx_c * n, fine_ny, nz_c * n, fine_tau(tau_c, n, lambda));
    fine.periodic = [true, false, true];

    let mut coarse = coarse;
    let map = CouplingMap::new(&coarse, &fine, [0.0, y_lo as f64, 0.0], n, lambda, 1.0);
    // Fluid-only window: the window region physically holds the λ-viscosity
    // fluid, so the coarse footprint carries the λ-scaled relaxation time.
    map.apply_window_viscosity(&mut coarse, &fine);
    map.seed_fine_from_coarse(&coarse, &mut fine);

    let analytic = ThreeLayerCouette::new([7.5, 8.0, 8.5], [1.0, lambda, 1.0], u_lid);
    CoupledCouette {
        coarse,
        fine,
        map,
        u_lid,
        analytic,
    }
}

/// Run the coupled problem to steady state and return (bulk L2, window L2)
/// velocity errors against Eq. 8.
fn run_case(n: usize, lambda: f64, steps: usize) -> (f64, f64) {
    let mut sys = build(n, lambda);
    for _ in 0..steps {
        coupled_step(&mut sys.coarse, &mut sys.fine, &sys.map, |_, _| {});
    }

    // Bulk error: coarse fluid nodes outside the window (regions 1 and 3).
    let mut sim = Vec::new();
    let mut exact = Vec::new();
    for y in 1..sys.coarse.ny - 1 {
        if (8..=16).contains(&y) {
            continue;
        }
        let node = sys.coarse.idx(2, y, 2);
        sim.push(sys.coarse.velocity_at(node)[0]);
        exact.push(sys.analytic.velocity(y as f64 - 0.5));
    }
    let bulk = l2_error_norm(&sim, &exact);

    // Window error: fine nodes through the window interior.
    let mut sim = Vec::new();
    let mut exact = Vec::new();
    for j in 1..sys.fine.ny - 1 {
        let node = sys.fine.idx(sys.fine.nx / 2, j, sys.fine.nz / 2);
        sim.push(sys.fine.velocity_at(node)[0]);
        exact.push(sys.analytic.velocity(7.5 + j as f64 / n as f64));
    }
    let window = l2_error_norm(&sim, &exact);
    let _ = sys.u_lid;
    (bulk, window)
}

#[test]
fn uniform_viscosity_coupling_recovers_linear_profile() {
    // λ = 1 degenerates to plain grid refinement: the classic linear
    // Couette profile must appear in both lattices.
    let (bulk, window) = run_case(2, 1.0, 6000);
    assert!(bulk < 0.01, "bulk L2 error {bulk}");
    assert!(window < 0.01, "window L2 error {window}");
}

#[test]
fn paper_lambda_half_n2() {
    let (bulk, window) = run_case(2, 0.5, 8000);
    // Paper Table 1 reports ~1% bulk and ~1.8% window for λ = 1/2.
    assert!(bulk < 0.04, "bulk L2 error {bulk}");
    assert!(window < 0.06, "window L2 error {window}");
}

#[test]
fn paper_lambda_quarter_n2() {
    let (bulk, window) = run_case(2, 0.25, 10000);
    // Paper Table 1: ~1% bulk, ~3.9% window for λ = 1/4.
    assert!(bulk < 0.05, "bulk L2 error {bulk}");
    assert!(window < 0.08, "window L2 error {window}");
}

#[test]
fn refinement_ratio_five() {
    let (bulk, window) = run_case(5, 0.5, 6000);
    assert!(bulk < 0.04, "bulk L2 error {bulk}");
    assert!(window < 0.06, "window L2 error {window}");
}

#[test]
fn window_shear_rate_is_amplified_by_viscosity_contrast() {
    // Physics check: the plasma layer shears 1/λ faster than the bulk.
    let lambda = 0.5;
    let mut sys = build(2, lambda);
    for _ in 0..8000 {
        coupled_step(&mut sys.coarse, &mut sys.fine, &sys.map, |_, _| {});
    }
    // Shear rate in the window (central difference around mid-window).
    let n = 2.0;
    let mid = sys.fine.ny / 2;
    let u_hi = sys.fine.velocity_at(sys.fine.idx(2, mid + 2, 2))[0];
    let u_lo = sys.fine.velocity_at(sys.fine.idx(2, mid - 2, 2))[0];
    let window_rate = (u_hi - u_lo) / (4.0 / n); // per coarse spacing
                                                 // Shear rate in region 1 (coarse).
    let u4 = sys.coarse.velocity_at(sys.coarse.idx(2, 4, 2))[0];
    let u2 = sys.coarse.velocity_at(sys.coarse.idx(2, 2, 2))[0];
    let bulk_rate = (u4 - u2) / 2.0;
    let ratio = window_rate / bulk_rate;
    assert!(
        (ratio - 1.0 / lambda).abs() < 0.15 / lambda,
        "shear amplification {ratio}, expected {}",
        1.0 / lambda
    );
}

#[test]
fn seeding_reproduces_coarse_state() {
    let sys = build(2, 0.5);
    // Freshly seeded fine lattice must mirror the (resting) coarse state.
    for j in [1usize, 5, 9, 15] {
        let node = sys.fine.idx(2, j, 2);
        let (rho, u) = sys.fine.moments_at(node);
        assert!((rho - 1.0).abs() < 1e-9);
        assert!(u.iter().all(|c| c.abs() < 1e-9));
    }
}

#[test]
fn mass_stays_bounded_through_coupling() {
    let mut sys = build(2, 0.5);
    let m0 = sys.coarse.mass_momentum_totals().0 + sys.fine.mass_momentum_totals().0;
    for _ in 0..2000 {
        coupled_step(&mut sys.coarse, &mut sys.fine, &sys.map, |_, _| {});
    }
    let m1 = sys.coarse.mass_momentum_totals().0 + sys.fine.mass_momentum_totals().0;
    // Interface exchange is not exactly conservative (interpolation), but
    // drift must stay far below a percent over thousands of steps.
    assert!((m1 - m0).abs() / m0 < 5e-3, "mass drift {m0} -> {m1}");
}

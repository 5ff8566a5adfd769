//! Physics verification of the LBM solver against analytic solutions.

use apr_lattice::{
    couette_channel, couette_height, couette_y_position, force_driven_tube, poiseuille_slit,
    Boundary, Lattice, NodeClass,
};

/// Run until the x-velocity field change per step falls below `tol`.
fn run_to_steady(lat: &mut Lattice, max_steps: usize, tol: f64) -> usize {
    let mut prev: Vec<f64> = lat.vel.clone();
    for s in 0..max_steps {
        lat.step();
        if s % 50 == 49 {
            let diff = lat
                .vel
                .iter()
                .zip(&prev)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            if diff < tol {
                return s + 1;
            }
            prev.copy_from_slice(&lat.vel);
        }
    }
    max_steps
}

#[test]
fn couette_profile_is_linear() {
    let (nx, ny, nz) = (4, 22, 4);
    let u_lid = 0.05;
    let mut lat = couette_channel(nx, ny, nz, 0.9, u_lid);
    run_to_steady(&mut lat, 20000, 1e-12);
    let h = couette_height(ny);
    for y in 1..ny - 1 {
        let node = lat.idx(2, y, 2);
        let u = lat.velocity_at(node)[0];
        let expected = u_lid * couette_y_position(y) / h;
        assert!(
            (u - expected).abs() < 2e-4 * u_lid.max(1e-30) + 1e-7,
            "y = {y}: u = {u}, expected {expected}"
        );
    }
}

#[test]
fn couette_mass_is_conserved() {
    let mut lat = couette_channel(6, 10, 6, 1.0, 0.03);
    let m0 = lat.mass_momentum_totals().0;
    for _ in 0..500 {
        lat.step();
    }
    let m1 = lat.mass_momentum_totals().0;
    assert!((m1 - m0).abs() / m0 < 1e-10, "mass drifted {m0} -> {m1}");
}

#[test]
fn poiseuille_slit_profile_is_parabolic() {
    let (nx, ny, nz) = (4, 26, 4);
    let g = 1e-6;
    let tau = 0.8;
    let mut lat = poiseuille_slit(nx, ny, nz, tau, g);
    run_to_steady(&mut lat, 40000, 1e-13);
    let nu = lat.lattice_viscosity();
    let h = (ny - 2) as f64;
    let mut worst = 0.0f64;
    for y in 1..ny - 1 {
        let node = lat.idx(2, y, 2);
        let u = lat.velocity_at(node)[0];
        let yy = couette_y_position(y);
        let expected = g * yy * (h - yy) / (2.0 * nu);
        worst = worst.max((u - expected).abs() / (g * h * h / (8.0 * nu)));
    }
    assert!(worst < 0.01, "max relative deviation {worst}");
}

#[test]
fn poiseuille_peak_velocity_scales_with_force() {
    let center_velocity = |g: f64| -> f64 {
        let mut lat = poiseuille_slit(4, 18, 4, 0.9, g);
        run_to_steady(&mut lat, 30000, 1e-13);
        lat.velocity_at(lat.idx(2, 9, 2))[0]
    };
    let u1 = center_velocity(5e-7);
    let u2 = center_velocity(1e-6);
    assert!((u2 / u1 - 2.0).abs() < 0.01, "ratio = {}", u2 / u1);
}

#[test]
fn tube_poiseuille_profile() {
    let (nx, ny, nz) = (23, 23, 4);
    let radius = 9.0;
    let g = 1e-6;
    let mut lat = force_driven_tube(nx, ny, nz, 0.9, radius, g);
    run_to_steady(&mut lat, 40000, 1e-13);
    let nu = lat.lattice_viscosity();
    let (cx, cy) = ((nx as f64 - 1.0) / 2.0, (ny as f64 - 1.0) / 2.0);
    // Halfway bounce-back puts the wall ~half a spacing beyond the last
    // fluid node; compare against the analytic profile with a fitted radius.
    let r_wall = radius + 0.0; // nominal
    let mut samples = Vec::new();
    for y in 0..ny {
        for x in 0..nx {
            let node = lat.idx(x, y, 1);
            if lat.flag(node) != NodeClass::Fluid {
                continue;
            }
            let r = ((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt();
            let u = lat.velocity_at(node)[2];
            let expected = g * (r_wall * r_wall - r * r).max(0.0) / (4.0 * nu);
            samples.push((u, expected));
        }
    }
    let u_max = g * r_wall * r_wall / (4.0 * nu);
    let rms: f64 =
        (samples.iter().map(|(u, e)| (u - e) * (u - e)).sum::<f64>() / samples.len() as f64).sqrt()
            / u_max;
    assert!(rms < 0.08, "tube profile RMS error {rms}");
}

#[test]
fn velocity_bc_drives_plug_flow() {
    // A duct with an inlet velocity plane and an outlet pressure plane
    // reaches a plug-like mean flow of the prescribed rate.
    let (nx, ny, nz) = (4, 4, 30);
    let u_in = 0.02;
    let mut lat = Lattice::new(nx, ny, nz, 0.8);
    lat.periodic = [true, true, false];
    for y in 0..ny {
        for x in 0..nx {
            let inlet = lat.idx(x, y, 0);
            lat.set_boundary(inlet, Boundary::Velocity([0.0, 0.0, u_in]));
            let outlet = lat.idx(x, y, nz - 1);
            lat.set_boundary(outlet, Boundary::Pressure(1.0));
        }
    }
    for _ in 0..3000 {
        lat.step();
    }
    let mid = lat.idx(2, 2, nz / 2);
    let u = lat.velocity_at(mid)[2];
    assert!((u - u_in).abs() < 0.05 * u_in, "u = {u}, target {u_in}");
}

#[test]
fn moving_wall_transfers_momentum_direction() {
    // Lid moving +x must produce non-negative x-velocity everywhere in
    // steady Couette flow (sign check on the bounce-back correction).
    let mut lat = couette_channel(4, 12, 4, 1.0, 0.04);
    run_to_steady(&mut lat, 8000, 1e-12);
    for y in 1..11 {
        let u = lat.velocity_at(lat.idx(1, y, 1))[0];
        assert!(u > -1e-9, "u({y}) = {u}");
    }
    // And it must increase monotonically toward the lid.
    let mut prev = -1.0;
    for y in 1..11 {
        let u = lat.velocity_at(lat.idx(1, y, 1))[0];
        assert!(u > prev, "profile not monotone at y={y}");
        prev = u;
    }
}

#[test]
fn body_force_accelerates_periodic_box() {
    // Fully periodic box with uniform force: du/dt = g (unit density).
    let mut lat = Lattice::new(8, 8, 8, 1.0);
    lat.periodic = [true, true, true];
    lat.body_force = [1e-6, 0.0, 0.0];
    let steps = 100;
    for _ in 0..steps {
        lat.step();
    }
    let u = lat.velocity_at(lat.idx(4, 4, 4))[0];
    let expected = 1e-6 * steps as f64; // impulse per unit mass
    assert!(
        (u - expected).abs() < 0.02 * expected,
        "u = {u}, expected ≈ {expected}"
    );
}

#[test]
fn ibm_style_point_force_conserves_momentum_budget() {
    // A localized force adds exactly F per step to total fluid momentum in a
    // periodic box (spreading of membrane forces relies on this).
    let mut lat = Lattice::new(10, 10, 10, 0.9);
    lat.periodic = [true, true, true];
    let node = lat.idx(5, 5, 5);
    let fpoint = 1e-5;
    let steps = 50;
    for _ in 0..steps {
        lat.clear_forces();
        lat.add_force(node, [0.0, fpoint, 0.0]);
        lat.step();
    }
    // Total momentum = Σ f c over all nodes.
    let mut py = 0.0;
    for n in 0..lat.node_count() {
        let (rho, u) = lat.moments_at(n);
        py += rho * u[1];
    }
    let expected = fpoint * steps as f64;
    assert!(
        (py - expected).abs() < 0.05 * expected,
        "py = {py}, expected ≈ {expected}"
    );
}

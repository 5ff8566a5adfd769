//! Property-based tests of the D3Q19 kernel invariants.

use apr_lattice::{equilibrium_all, Lattice, C, Q};
use proptest::prelude::*;

proptest! {
    /// Equilibrium moments recover (ρ, u) for any admissible state.
    #[test]
    fn equilibrium_moments_exact(
        rho in 0.5..2.0f64,
        ux in -0.1..0.1f64,
        uy in -0.1..0.1f64,
        uz in -0.1..0.1f64,
    ) {
        let f = equilibrium_all(rho, ux, uy, uz);
        let mass: f64 = f.iter().sum();
        prop_assert!((mass - rho).abs() < 1e-12);
        for a in 0..3 {
            let mom: f64 = (0..Q).map(|i| f[i] * C[i][a] as f64).sum();
            let expected = rho * [ux, uy, uz][a];
            prop_assert!((mom - expected).abs() < 1e-12);
        }
    }

    /// All equilibrium populations stay positive at low Mach number.
    #[test]
    fn equilibrium_positivity(
        rho in 0.5..2.0f64,
        ux in -0.08..0.08f64,
        uy in -0.08..0.08f64,
        uz in -0.08..0.08f64,
    ) {
        let f = equilibrium_all(rho, ux, uy, uz);
        for (i, &fi) in f.iter().enumerate() {
            prop_assert!(fi > 0.0, "f[{i}] = {fi}");
        }
    }

    /// A uniform equilibrium state is a fixed point of the dynamics in a
    /// fully periodic box for any (ρ, u, τ).
    #[test]
    fn uniform_state_is_invariant(
        rho in 0.8..1.2f64,
        u in -0.05..0.05f64,
        tau in 0.6..1.8f64,
    ) {
        let mut lat = Lattice::new(6, 6, 6, tau);
        lat.periodic = [true, true, true];
        lat.initialize_equilibrium(rho, [u, 0.0, 0.0]);
        for _ in 0..5 {
            lat.step();
        }
        let (r, v) = lat.moments_at(lat.idx(3, 3, 3));
        prop_assert!((r - rho).abs() < 1e-12);
        prop_assert!((v[0] - u).abs() < 1e-12);
    }

    /// Mass conservation in a random walled box with arbitrary τ.
    #[test]
    fn mass_conserved_with_walls(tau in 0.6..1.5f64, u_lid in 0.0..0.08f64) {
        let mut lat = apr_lattice::couette_channel(5, 8, 5, tau, u_lid);
        let m0 = lat.mass_momentum_totals().0;
        for _ in 0..50 {
            lat.step();
        }
        prop_assert!((lat.mass_momentum_totals().0 - m0).abs() / m0 < 1e-9);
    }
}

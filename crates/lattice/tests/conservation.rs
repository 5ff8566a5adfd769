//! Mass conservation on the periodic force-driven tube: the collide +
//! stream cycle only rearranges distribution values (the body force is
//! velocity-shifting, not mass-adding), so total mass must be preserved
//! to floating-point round-off — for every kernel.

use apr_exec::ExecPool;
use apr_lattice::{force_driven_tube, KernelKind, NodeClass, C};
use std::sync::Arc;

const KERNELS: [KernelKind; 2] = [KernelKind::Reference, KernelKind::FusedSwap];

#[test]
fn tube_conserves_mass_to_round_off_for_every_kernel() {
    for kernel in KERNELS {
        let mut lat = force_driven_tube(15, 15, 8, 0.9, 5.5, 1e-6);
        lat.set_kernel(Some(kernel));
        let (m0, _, nodes0) = lat.mass_momentum_totals();
        assert!(m0 > 0.0 && nodes0 > 0);
        for _ in 0..200 {
            lat.step();
        }
        let (m1, _, nodes1) = lat.mass_momentum_totals();
        let drift = ((m1 - m0) / m0).abs();
        assert!(
            drift <= 1e-12,
            "{kernel:?}: mass drifted by {drift:e} over 200 steps"
        );
        assert_eq!(nodes0, nodes1, "fluid node count is static");
    }
}

#[test]
fn mass_momentum_totals_matches_a_compensated_serial_sum() {
    // The second tube has 24 planes, so the lane count decides which lane
    // sums which plane's partial.
    for (nx, nz, radius) in [(15, 8, 5.5), (33, 24, 14.5)] {
        let mut lat = force_driven_tube(nx, nx, nz, 0.9, radius, 1e-6);
        for _ in 0..10 {
            lat.step();
        }
        let (mass, momentum, nodes) = lat.mass_momentum_totals();
        // The driven tube accelerates along +z: momentum should be growing
        // in z and negligible across the section.
        assert!(momentum[2] > 0.0, "driven flow carries +z momentum");
        assert!(momentum[0].abs() < momentum[2].abs());
        assert!(momentum[1].abs() < momentum[2].abs());

        // Bit-identical at every lane count.
        for lanes in [1, 2, 4] {
            let pool = Arc::new(ExecPool::new(lanes));
            let (m, p, n) = apr_exec::with_pool(pool, || lat.mass_momentum_totals());
            assert_eq!(
                (m.to_bits(), p.map(f64::to_bits), n),
                (mass.to_bits(), momentum.map(f64::to_bits), nodes),
                "{lanes} lanes"
            );
        }

        // Equal, to rounding, to a serial Σ f_i c_i over every population.
        // The serial sum is compensated (Neumaier): a flat one over the
        // 3·10⁵ near-equal terms of the larger tube is itself 7e-13 off.
        // `scale` is Σ |f_i c_i|, what either order's rounding is relative
        // to (the transverse momenta cancel to ~1e-14).
        let mut serial = [0.0f64; 4];
        let mut carry = [0.0f64; 4];
        let mut scale = [0.0f64; 4];
        for node in 0..lat.node_count() {
            if lat.flag(node) != NodeClass::Fluid {
                continue;
            }
            for (i, c) in C.iter().enumerate() {
                let fi = lat.distribution(node, i);
                let terms = [fi, fi * c[0] as f64, fi * c[1] as f64, fi * c[2] as f64];
                for k in 0..4 {
                    let sum = serial[k] + terms[k];
                    carry[k] += if serial[k].abs() >= terms[k].abs() {
                        (serial[k] - sum) + terms[k]
                    } else {
                        (terms[k] - sum) + serial[k]
                    };
                    serial[k] = sum;
                    scale[k] += terms[k].abs();
                }
            }
        }
        let totals = [mass, momentum[0], momentum[1], momentum[2]];
        for k in 0..4 {
            let expected = serial[k] + carry[k];
            assert!(
                (totals[k] - expected).abs() <= 1e-13 * scale[k],
                "component {k}: {} vs serial {expected}",
                totals[k]
            );
        }
    }
}

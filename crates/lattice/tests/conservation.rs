//! Mass conservation on the periodic force-driven tube: the collide +
//! stream cycle only rearranges distribution values (the body force is
//! velocity-shifting, not mass-adding), so total mass must be preserved
//! to floating-point round-off — for every kernel and chunking policy.

use apr_lattice::{force_driven_tube, ChunkingPolicy, KernelKind};

const KERNELS: [KernelKind; 2] = [KernelKind::Reference, KernelKind::FusedSwap];
const POLICIES: [ChunkingPolicy; 2] = [ChunkingPolicy::Static, ChunkingPolicy::Guided];

#[test]
fn tube_conserves_mass_to_round_off_for_every_kernel_and_chunking() {
    for kernel in KERNELS {
        for policy in POLICIES {
            let mut lat = force_driven_tube(15, 15, 8, 0.9, 5.5, 1e-6);
            lat.set_kernel(Some(kernel));
            lat.set_chunking(Some(policy));
            let (m0, _, nodes0) = lat.mass_momentum_totals();
            assert!(m0 > 0.0 && nodes0 > 0);
            for _ in 0..200 {
                lat.step();
            }
            let (m1, _, nodes1) = lat.mass_momentum_totals();
            let drift = ((m1 - m0) / m0).abs();
            assert!(
                drift <= 1e-12,
                "{kernel:?}/{policy:?}: mass drifted by {drift:e} over 200 steps"
            );
            assert_eq!(nodes0, nodes1, "fluid node count is static");
        }
    }
}

#[test]
fn mass_momentum_totals_agrees_with_total_mass() {
    let mut lat = force_driven_tube(15, 15, 8, 0.9, 5.5, 1e-6);
    for _ in 0..10 {
        lat.step();
    }
    let (mass, momentum, _) = lat.mass_momentum_totals();
    let reference = lat.total_mass();
    assert!(
        ((mass - reference) / reference).abs() < 1e-12,
        "ledger total {mass} vs solver total {reference}"
    );
    // The driven tube accelerates along +z: momentum should be growing in
    // z and negligible across the section.
    assert!(momentum[2] > 0.0, "driven flow carries +z momentum");
    assert!(momentum[0].abs() < momentum[2].abs());
    assert!(momentum[1].abs() < momentum[2].abs());
}

//! The direction-unrolled collision against its oracle.
//!
//! The oracle is the generic per-node arithmetic the unrolled primitives
//! replaced — moment sums over `C`, the 19-iteration equilibrium, the
//! per-direction Guo term and the relaxation line — kept here verbatim and
//! nowhere else.
//!
//! (a) `moments`, `equilibrium_all` and `guo_force_all` equal their generic
//! loops bit for bit on seeded random inputs and on the edge cases of the
//! arithmetic contract (DESIGN.md §11).
//! (b) `advance(Collide)` under both kernels stores, bit for bit, what the
//! oracle computes from the pre-collision populations.
//! (c) A NaN or ∞ population still gives a non-finite density, which is
//! what the guardian's sentinel looks at.

// The oracle's index loops are the replaced code, verbatim.
#![allow(clippy::needless_range_loop)]

use apr_kernels::d3q19::{equilibrium_all, guo_force_all, moments, C, Q, W};
use apr_kernels::KernelKind;
use apr_lattice::{Lattice, SubStep};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// --- oracle: the generic loops, as they stood before the rewrite -----------

fn oracle_moments(fs: &[f64]) -> (f64, [f64; 3]) {
    let mut r = 0.0;
    let mut m = [0.0f64; 3];
    for i in 0..Q {
        r += fs[i];
        m[0] += fs[i] * C[i][0] as f64;
        m[1] += fs[i] * C[i][1] as f64;
        m[2] += fs[i] * C[i][2] as f64;
    }
    (r, m)
}

fn oracle_equilibrium_all(rho: f64, ux: f64, uy: f64, uz: f64) -> [f64; Q] {
    let mut out = [0.0; Q];
    let usq = 1.5 * (ux * ux + uy * uy + uz * uz);
    for i in 0..Q {
        let cu = C[i][0] as f64 * ux + C[i][1] as f64 * uy + C[i][2] as f64 * uz;
        out[i] = W[i] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - usq);
    }
    out
}

fn oracle_guo_force_term(i: usize, ux: f64, uy: f64, uz: f64, gx: f64, gy: f64, gz: f64) -> f64 {
    let cx = C[i][0] as f64;
    let cy = C[i][1] as f64;
    let cz = C[i][2] as f64;
    let cu = cx * ux + cy * uy + cz * uz;
    W[i] * (3.0 * ((cx - ux) * gx + (cy - uy) * gy + (cz - uz) * gz)
        + 9.0 * cu * (cx * gx + cy * gy + cz * gz))
}

fn oracle_post_collision(
    fs: &[f64],
    g: &[f64],
    bf: [f64; 3],
    tau: f64,
) -> (f64, [f64; 3], [f64; Q]) {
    let omega = 1.0 / tau;
    let force_scale = 1.0 - 0.5 * omega;
    let (r, m) = oracle_moments(fs);
    let gx = g[0] + bf[0];
    let gy = g[1] + bf[1];
    let gz = g[2] + bf[2];
    let ux = (m[0] + 0.5 * gx) / r;
    let uy = (m[1] + 0.5 * gy) / r;
    let uz = (m[2] + 0.5 * gz) / r;
    let feq = oracle_equilibrium_all(r, ux, uy, uz);
    let mut post = [0.0; Q];
    for i in 0..Q {
        let forcing = oracle_guo_force_term(i, ux, uy, uz, gx, gy, gz);
        post[i] = fs[i] + (omega * (feq[i] - fs[i]) + force_scale * forcing);
    }
    (r, [ux, uy, uz], post)
}

// --- (a) the primitives ------------------------------------------------------

/// The contract leaves one thing open: the sign of an exact zero `c·u` or
/// `c·g` product, hence of a Guo term that is exactly zero. It cannot reach
/// a stored population (`f + ±0 = f`), which (b) checks.
fn same_bits_or_both_zero(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
}

fn assert_primitives_match(fs: &[f64; Q], rho: f64, u: [f64; 3], g: [f64; 3], case: &str) {
    let (r, m) = moments(fs);
    let (ro, mo) = oracle_moments(fs);
    assert_eq!(
        (r.to_bits(), m.map(f64::to_bits)),
        (ro.to_bits(), mo.map(f64::to_bits)),
        "moments, {case}: {fs:?}"
    );
    let feq = equilibrium_all(rho, u[0], u[1], u[2]);
    let feq_o = oracle_equilibrium_all(rho, u[0], u[1], u[2]);
    let force = guo_force_all(u[0], u[1], u[2], g[0], g[1], g[2]);
    for i in 0..Q {
        assert_eq!(
            feq[i].to_bits(),
            feq_o[i].to_bits(),
            "equilibrium dir {i}, {case}: rho {rho:e} u {u:?}"
        );
        let force_o = oracle_guo_force_term(i, u[0], u[1], u[2], g[0], g[1], g[2]);
        assert!(
            same_bits_or_both_zero(force[i], force_o),
            "guo dir {i}, {case}: u {u:?} g {g:?}: {:e} vs {force_o:e}",
            force[i]
        );
    }
}

/// Populations near an equilibrium, as a running lattice holds them.
fn near_equilibrium(rng: &mut StdRng, rho: f64, u: [f64; 3]) -> [f64; Q] {
    let mut fs = oracle_equilibrium_all(rho, u[0], u[1], u[2]);
    for f in &mut fs {
        *f *= 1.0 + rng.gen_range(-0.05..0.05);
    }
    fs
}

#[test]
fn primitives_match_the_generic_loops_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x17c0_111d);
    for case in 0..120_000 {
        let rho = rng.gen_range(0.5..1.5);
        let u: [f64; 3] = std::array::from_fn(|_| rng.gen_range(-0.15..0.15));
        let g: [f64; 3] = std::array::from_fn(|_| rng.gen_range(-1e-3..1e-3));
        // Every third case: populations of any sign and size, to leave the
        // near-equilibrium manifold where partial sums cancel differently.
        let fs = if case % 3 == 0 {
            std::array::from_fn(|_| rng.gen_range(-2.0..2.0))
        } else {
            near_equilibrium(&mut rng, rho, u)
        };
        assert_primitives_match(&fs, rho, u, g, "seeded");
    }

    // Edge cases of the contract: zero and signed-zero velocity and force,
    // one axis only, populations that are zero or cancel exactly.
    let rest = oracle_equilibrium_all(1.0, 0.0, 0.0, 0.0);
    let values = [0.0, -0.0, 0.07, -0.07];
    for code in 0..values.len().pow(6) {
        // Six base-4 digits: one of `values` per component of u and g.
        let pick = |digit: usize| values[(code >> (2 * digit)) & 3];
        let u = [pick(0), pick(1), pick(2)];
        let g = [pick(3) * 1e-2, pick(4) * 1e-2, pick(5) * 1e-2];
        assert_primitives_match(&rest, 1.0, u, g, "signed zeros");
    }
    assert_primitives_match(&[0.0; Q], 1.0, [0.0; 3], [0.0; 3], "all +0");
    assert_primitives_match(&[-0.0; Q], 1.0, [0.0; 3], [0.0; 3], "all -0");
    let mut one_hot = [0.0; Q];
    for i in 0..Q {
        one_hot[i] = -0.25;
        assert_primitives_match(&one_hot, 1.0, [0.0; 3], [0.0; 3], "one population");
        one_hot[i] = 0.0;
    }
}

// --- (b) the composed collision, through both kernels ----------------------

/// A 12³ periodic box of random near-equilibrium fluid with the contract's
/// edge cases planted on its first nodes: at rest with no net force, net
/// force exactly cancelling the body force, a one-axis force.
fn collision_box(rng: &mut StdRng, body_force: [f64; 3], tau_field: bool) -> Lattice {
    let mut lat = Lattice::new(12, 12, 12, 0.8);
    lat.periodic = [true; 3];
    lat.body_force = body_force;
    for node in 0..lat.node_count() {
        let rho = rng.gen_range(0.9..1.1);
        let u: [f64; 3] = std::array::from_fn(|_| rng.gen_range(-0.1..0.1));
        lat.set_distributions(node, &near_equilibrium(rng, rho, u));
        let g: [f64; 3] = match node % 4 {
            0 => [0.0; 3],
            _ => std::array::from_fn(|_| rng.gen_range(-1e-3..1e-3)),
        };
        lat.add_force(node, g);
        if tau_field {
            lat.set_tau_at(node, rng.gen_range(0.51..2.0));
        }
    }
    let rest = oracle_equilibrium_all(1.0, 0.0, 0.0, 0.0);
    for node in 0..8 {
        lat.set_distributions(node, &rest);
        lat.force[node * 3..node * 3 + 3].fill(0.0);
    }
    // Nodes 0–1: u = 0 when the body force is zero too. Nodes 2–3: the
    // membrane force cancels the body force, g + bf = 0 exactly.
    for node in 2..4 {
        lat.add_force(node, body_force.map(|b| -b));
    }
    // Nodes 4–6: one axis each. Node 7: at rest under the body force alone.
    for axis in 0..3 {
        lat.force[(4 + axis) * 3 + axis] = 2e-4;
    }
    lat
}

#[test]
fn both_kernels_collide_to_the_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x0c01_11de);
    let boxes = [
        collision_box(&mut rng, [3e-5, -1e-5, 2e-5], true),
        collision_box(&mut rng, [0.0, 0.0, 1e-5], false),
        collision_box(&mut rng, [0.0; 3], true),
    ];
    for (b, before) in boxes.iter().enumerate() {
        for kernel in [KernelKind::Reference, KernelKind::FusedSwap] {
            let mut lat = before.clone();
            lat.set_kernel(Some(kernel));
            lat.advance(SubStep::Collide);
            for node in 0..before.node_count() {
                let (rho, u, post) = oracle_post_collision(
                    before.distributions(node),
                    &before.force[node * 3..node * 3 + 3],
                    before.body_force,
                    before.tau_at(node),
                );
                let at = format!("box {b}, {kernel:?}, node {node}");
                assert_eq!(lat.rho[node].to_bits(), rho.to_bits(), "rho, {at}");
                for a in 0..3 {
                    assert_eq!(
                        lat.vel[node * 3 + a].to_bits(),
                        u[a].to_bits(),
                        "vel[{a}], {at}"
                    );
                }
                for i in 0..Q {
                    assert_eq!(
                        lat.distribution(node, i).to_bits(),
                        post[i].to_bits(),
                        "f[{i}], {at}"
                    );
                }
            }
        }
    }
}

// --- (c) poisoned populations stay visible -----------------------------------

#[test]
fn a_non_finite_population_gives_a_non_finite_density() {
    let rest = oracle_equilibrium_all(1.0, 0.0, 0.0, 0.0);
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for i in 0..Q {
            let mut fs = rest;
            fs[i] = poison;
            assert!(!moments(&fs).0.is_finite(), "{poison} in slot {i}");

            for kernel in [KernelKind::Reference, KernelKind::FusedSwap] {
                let mut lat = Lattice::new(4, 4, 4, 0.8);
                lat.periodic = [true; 3];
                lat.body_force = [0.0, 0.0, 1e-5];
                lat.set_kernel(Some(kernel));
                lat.set_distributions(21, &fs);
                lat.advance(SubStep::Collide);
                assert!(
                    !lat.rho[21].is_finite(),
                    "{kernel:?}: {poison} in slot {i} collided to rho {}",
                    lat.rho[21]
                );
            }
        }
    }
}

//! The D3Q19 velocity discretization (paper §2.1).
//!
//! Nineteen discrete velocities: the rest particle, six axis neighbours and
//! twelve edge diagonals, with the standard weights 1/3, 1/18 and 1/36 and
//! lattice speed of sound `c_s² = 1/3`.
//!
//! [`moments`], [`equilibrium_all`] and [`guo_force_all`] are the per-node
//! arithmetic of every step path, unrolled over the directions. Each keeps
//! the bits of the generic loop over [`C`] it replaced; the association
//! rules that guarantee it are DESIGN.md §11's arithmetic contract.

/// Number of discrete velocities.
pub const Q: usize = 19;

/// Lattice speed of sound squared.
pub const CS2: f64 = 1.0 / 3.0;

/// Inverse of [`CS2`].
pub const INV_CS2: f64 = 3.0;

/// Discrete velocity vectors `c_i` (integer lattice offsets).
///
/// Ordering: rest, 6 axis directions, 12 diagonals; [`OPPOSITE`] maps each
/// direction to its negation.
pub const C: [[i32; 3]; Q] = [
    [0, 0, 0],
    [1, 0, 0],
    [-1, 0, 0],
    [0, 1, 0],
    [0, -1, 0],
    [0, 0, 1],
    [0, 0, -1],
    [1, 1, 0],
    [-1, -1, 0],
    [1, -1, 0],
    [-1, 1, 0],
    [1, 0, 1],
    [-1, 0, -1],
    [1, 0, -1],
    [-1, 0, 1],
    [0, 1, 1],
    [0, -1, -1],
    [0, 1, -1],
    [0, -1, 1],
];

/// Quadrature weights `w_i`.
pub const W: [f64; Q] = [
    1.0 / 3.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];

/// Index of the direction opposite to `i` (`C[OPPOSITE[i]] == -C[i]`).
pub const OPPOSITE: [usize; Q] = [
    0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17,
];

/// Maxwell–Boltzmann equilibrium distribution truncated to second order:
///
/// `f_i^eq = w_i ρ (1 + 3 c·u + 9/2 (c·u)² − 3/2 u²)`.
#[inline]
pub fn equilibrium(i: usize, rho: f64, ux: f64, uy: f64, uz: f64) -> f64 {
    let cu = C[i][0] as f64 * ux + C[i][1] as f64 * uy + C[i][2] as f64 * uz;
    let usq = ux * ux + uy * uy + uz * uz;
    W[i] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq)
}

/// Density and momentum `(ρ, Σ_i f_i c_i)` of one node's populations.
///
/// Direction-unrolled, adds and subtracts only. `ρ` is the left-to-right
/// sum `((0 + f0) + f1) + … + f18`; each momentum component is the
/// left-to-right sum over `i` of `f_i·c_iα` with the zero-component terms
/// dropped and `·(±1)` written as `+`/`−` — the same bits as the generic
/// loop over [`C`], because `x·(±1)` is exact and adding `±0` to a partial
/// sum that started at `+0` never changes it (DESIGN.md §11).
#[inline]
pub fn moments(f: &[f64; Q]) -> (f64, [f64; 3]) {
    let rho = 0.0
        + f[0]
        + f[1]
        + f[2]
        + f[3]
        + f[4]
        + f[5]
        + f[6]
        + f[7]
        + f[8]
        + f[9]
        + f[10]
        + f[11]
        + f[12]
        + f[13]
        + f[14]
        + f[15]
        + f[16]
        + f[17]
        + f[18];
    let mx = 0.0 + f[1] - f[2] + f[7] - f[8] + f[9] - f[10] + f[11] - f[12] + f[13] - f[14];
    let my = 0.0 + f[3] - f[4] + f[7] - f[8] - f[9] + f[10] + f[15] - f[16] + f[17] - f[18];
    let mz = 0.0 + f[5] - f[6] + f[11] - f[12] - f[13] + f[14] + f[15] - f[16] - f[17] + f[18];
    (rho, [mx, my, mz])
}

/// All 19 equilibrium populations at once, one opposite pair `(p, p+1)` at
/// a time.
///
/// `c·u` of a pair is the single component or the two-term sum/difference
/// the generic `(c_x u_x + c_y u_y) + c_z u_z` reduces to, and the opposite
/// direction's is its exact negation, so `3 c·u` and `4.5 (c·u)²` are
/// computed once per pair. The association of every stored value is the
/// generic loop's: `(w ρ)·(((1 ± 3cu) + 4.5cu·cu) − 1.5u²)`.
#[inline]
pub fn equilibrium_all(rho: f64, ux: f64, uy: f64, uz: f64) -> [f64; Q] {
    let usq = 1.5 * (ux * ux + uy * uy + uz * uz);
    let pair = |w_rho: f64, cu: f64| {
        let t3 = 3.0 * cu;
        let t45 = 4.5 * cu * cu;
        [
            w_rho * (1.0 + t3 + t45 - usq),
            w_rho * (1.0 - t3 + t45 - usq),
        ]
    };
    let axis = W[1] * rho;
    let diag = W[7] * rho;
    let [f1, f2] = pair(axis, ux);
    let [f3, f4] = pair(axis, uy);
    let [f5, f6] = pair(axis, uz);
    let [f7, f8] = pair(diag, ux + uy);
    let [f9, f10] = pair(diag, ux - uy);
    let [f11, f12] = pair(diag, ux + uz);
    let [f13, f14] = pair(diag, ux - uz);
    let [f15, f16] = pair(diag, uy + uz);
    let [f17, f18] = pair(diag, uy - uz);
    let f0 = W[0] * rho * (1.0 - usq);
    [
        f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14, f15, f16, f17, f18,
    ]
}

/// Guo forcing terms `F_i` of all 19 directions for body-force density
/// `(gx, gy, gz)` acting on a node with velocity `(ux, uy, uz)` (Guo, Zheng
/// & Shi 2002):
///
/// `F_i = w_i [ 3(c−u) + 9(c·u)c ] · g`.
///
/// The collision applies `(1 − 1/(2τ)) F_i` and the macroscopic velocity
/// gains `g/(2ρ)`.
///
/// Built from the nine products `(c − u_α) g_α`, `c ∈ {1, 0, −1}`; a
/// direction picks one per axis and sums them in axis order, and an
/// opposite pair shares `(9 c·u)(c·g)` (both factors flip sign). Every
/// value keeps the generic per-direction association
/// `w·(3·((a_x + a_y) + a_z) + (9 cu)·cg)`.
#[inline]
pub fn guo_force_all(ux: f64, uy: f64, uz: f64, gx: f64, gy: f64, gz: f64) -> [f64; Q] {
    // (c − u_α)·g_α for c = +1, 0, −1. `0.0 − u`, not `−u`: they differ in
    // the sign of zero at u = 0.
    let (xp, x0, xm) = ((1.0 - ux) * gx, (0.0 - ux) * gx, (-1.0 - ux) * gx);
    let (yp, y0, ym) = ((1.0 - uy) * gy, (0.0 - uy) * gy, (-1.0 - uy) * gy);
    let (zp, z0, zm) = ((1.0 - uz) * gz, (0.0 - uz) * gz, (-1.0 - uz) * gz);
    let pair = |w: f64, a: f64, a_opp: f64, cu: f64, cg: f64| {
        let b = 9.0 * cu * cg;
        [w * (3.0 * a + b), w * (3.0 * a_opp + b)]
    };
    let (axis, diag) = (W[1], W[7]);
    let [f1, f2] = pair(axis, xp + y0 + z0, xm + y0 + z0, ux, gx);
    let [f3, f4] = pair(axis, x0 + yp + z0, x0 + ym + z0, uy, gy);
    let [f5, f6] = pair(axis, x0 + y0 + zp, x0 + y0 + zm, uz, gz);
    let [f7, f8] = pair(diag, xp + yp + z0, xm + ym + z0, ux + uy, gx + gy);
    let [f9, f10] = pair(diag, xp + ym + z0, xm + yp + z0, ux - uy, gx - gy);
    let [f11, f12] = pair(diag, xp + y0 + zp, xm + y0 + zm, ux + uz, gx + gz);
    let [f13, f14] = pair(diag, xp + y0 + zm, xm + y0 + zp, ux - uz, gx - gz);
    let [f15, f16] = pair(diag, x0 + yp + zp, x0 + ym + zm, uy + uz, gy + gz);
    let [f17, f18] = pair(diag, x0 + yp + zm, x0 + ym + zp, uy - uz, gy - gz);
    let f0 = W[0] * (3.0 * (x0 + y0 + z0));
    [
        f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14, f15, f16, f17, f18,
    ]
}

/// Relaxation time for a lattice kinematic viscosity: `τ = ν/c_s² + 1/2`.
#[inline]
pub fn tau_from_lattice_viscosity(nu: f64) -> f64 {
    nu * INV_CS2 + 0.5
}

/// Lattice kinematic viscosity for a relaxation time: `ν = c_s²(τ − 1/2)`.
#[inline]
pub fn lattice_viscosity_from_tau(tau: f64) -> f64 {
    CS2 * (tau - 0.5)
}

#[cfg(test)]
// Index loops here mirror the tensor notation of the moment identities.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn opposites_negate() {
        for i in 0..Q {
            let o = OPPOSITE[i];
            for k in 0..3 {
                assert_eq!(C[i][k], -C[o][k], "direction {i}");
            }
            assert_eq!(OPPOSITE[o], i);
            assert_eq!(W[i], W[o]);
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let s: f64 = W.iter().sum();
        assert!((s - 1.0).abs() < 1e-15);
    }

    #[test]
    fn lattice_isotropy_moments() {
        // Σ w_i c_iα = 0; Σ w_i c_iα c_iβ = c_s² δ_αβ.
        for a in 0..3 {
            let m1: f64 = (0..Q).map(|i| W[i] * C[i][a] as f64).sum();
            assert!(m1.abs() < 1e-15);
            for b in 0..3 {
                let m2: f64 = (0..Q).map(|i| W[i] * C[i][a] as f64 * C[i][b] as f64).sum();
                let expected = if a == b { CS2 } else { 0.0 };
                assert!((m2 - expected).abs() < 1e-15, "axes {a},{b}");
            }
        }
    }

    #[test]
    fn fourth_order_isotropy() {
        // Σ w_i c_iα c_iβ c_iγ c_iδ = c_s⁴ (δαβδγδ + δαγδβδ + δαδδβγ).
        for a in 0..3 {
            for b in 0..3 {
                for g in 0..3 {
                    for d in 0..3 {
                        let m4: f64 = (0..Q)
                            .map(|i| {
                                W[i] * C[i][a] as f64
                                    * C[i][b] as f64
                                    * C[i][g] as f64
                                    * C[i][d] as f64
                            })
                            .sum();
                        let kron = |x: usize, y: usize| if x == y { 1.0 } else { 0.0 };
                        let expected = CS2
                            * CS2
                            * (kron(a, b) * kron(g, d)
                                + kron(a, g) * kron(b, d)
                                + kron(a, d) * kron(b, g));
                        assert!(
                            (m4 - expected).abs() < 1e-14,
                            "{a}{b}{g}{d}: {m4} vs {expected}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn equilibrium_moments_recover_rho_and_u() {
        let (rho, u) = (1.05, [0.03, -0.02, 0.01]);
        let f = equilibrium_all(rho, u[0], u[1], u[2]);
        let mass: f64 = f.iter().sum();
        assert!((mass - rho).abs() < 1e-14);
        for a in 0..3 {
            let mom: f64 = (0..Q).map(|i| f[i] * C[i][a] as f64).sum();
            assert!((mom - rho * u[a]).abs() < 1e-14, "axis {a}");
        }
    }

    #[test]
    fn equilibrium_scalar_matches_batch() {
        let (rho, u) = (0.97, [0.05, 0.01, -0.04]);
        let batch = equilibrium_all(rho, u[0], u[1], u[2]);
        for i in 0..Q {
            assert!((equilibrium(i, rho, u[0], u[1], u[2]) - batch[i]).abs() < 1e-16);
        }
    }

    #[test]
    fn guo_force_moments() {
        // Σ F_i = 0 and Σ F_i c_i = g at u = 0 (first-order force moments).
        let g = [1e-5, -2e-5, 3e-5];
        let force = guo_force_all(0.0, 0.0, 0.0, g[0], g[1], g[2]);
        let mut sum = 0.0;
        let mut mom = [0.0; 3];
        for i in 0..Q {
            let fi = force[i];
            sum += fi;
            for a in 0..3 {
                mom[a] += fi * C[i][a] as f64;
            }
        }
        assert!(sum.abs() < 1e-18);
        for a in 0..3 {
            assert!((mom[a] - g[a]).abs() < 1e-18, "axis {a}");
        }
    }

    #[test]
    fn tau_viscosity_round_trip() {
        for tau in [0.6, 1.0, 1.7] {
            let nu = lattice_viscosity_from_tau(tau);
            assert!((tau_from_lattice_viscosity(nu) - tau).abs() < 1e-15);
        }
    }
}

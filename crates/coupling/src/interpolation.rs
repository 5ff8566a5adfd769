//! Trilinear interpolation of distribution data on a lattice.

use apr_lattice::{Lattice, Q};

/// Trilinearly interpolate all 19 distributions at fractional lattice
/// position `(x, y, z)` (in the lattice's own node coordinates).
///
/// Positions are clamped to the valid cell range, so querying exactly on the
/// domain edge is safe. Wall/exterior nodes contribute their (stale)
/// distributions; callers should keep interpolation points a node away from
/// geometry, as the window placement logic does.
pub fn interpolate_distributions(lat: &Lattice, x: f64, y: f64, z: f64) -> [f64; Q] {
    let cx = x.clamp(0.0, (lat.nx - 1) as f64);
    let cy = y.clamp(0.0, (lat.ny - 1) as f64);
    let cz = z.clamp(0.0, (lat.nz - 1) as f64);
    let x0 = (cx.floor() as usize).min(lat.nx.saturating_sub(2));
    let y0 = (cy.floor() as usize).min(lat.ny.saturating_sub(2));
    let z0 = (cz.floor() as usize).min(lat.nz.saturating_sub(2));
    let fx = cx - x0 as f64;
    let fy = cy - y0 as f64;
    let fz = cz - z0 as f64;
    let mut out = [0.0; Q];
    for dz in 0..2 {
        let wz = if dz == 0 { 1.0 - fz } else { fz };
        if wz == 0.0 {
            continue;
        }
        for dy in 0..2 {
            let wy = if dy == 0 { 1.0 - fy } else { fy };
            if wy == 0.0 {
                continue;
            }
            for dx in 0..2 {
                let wx = if dx == 0 { 1.0 - fx } else { fx };
                if wx == 0.0 {
                    continue;
                }
                let node = lat.idx(x0 + dx, y0 + dy, z0 + dz);
                let w = wx * wy * wz;
                let fs = lat.distributions(node);
                for i in 0..Q {
                    out[i] += w * fs[i];
                }
            }
        }
    }
    out
}

/// Density and velocity moments of a distribution set (the lattice's one
/// moment kernel, divided through by the density).
pub fn moments(f: &[f64; Q]) -> (f64, [f64; 3]) {
    let (rho, m) = apr_lattice::d3q19::moments(f);
    (rho, [m[0] / rho, m[1] / rho, m[2] / rho])
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_lattice::equilibrium_all;

    #[test]
    fn on_node_query_returns_node_values() {
        let mut lat = Lattice::new(6, 6, 6, 1.0);
        lat.initialize_node_equilibrium(lat.idx(2, 3, 4), 1.1, [0.02, 0.0, 0.01]);
        let f = interpolate_distributions(&lat, 2.0, 3.0, 4.0);
        let expected = equilibrium_all(1.1, 0.02, 0.0, 0.01);
        for i in 0..Q {
            assert!((f[i] - expected[i]).abs() < 1e-14, "direction {i}");
        }
    }

    #[test]
    fn linear_fields_interpolate_exactly() {
        // Seed a linearly varying equilibrium field: f is not linear in u
        // (quadratic terms), so check the midpoint of two equal-u nodes
        // and a linear ρ ramp instead.
        let mut lat = Lattice::new(8, 4, 4, 1.0);
        for x in 0..8 {
            for y in 0..4 {
                for z in 0..4 {
                    let rho = 1.0 + 0.01 * x as f64;
                    lat.initialize_node_equilibrium(lat.idx(x, y, z), rho, [0.0; 3]);
                }
            }
        }
        let f = interpolate_distributions(&lat, 2.5, 1.0, 1.0);
        let (rho, _) = moments(&f);
        assert!((rho - 1.025).abs() < 1e-12, "rho = {rho}");
    }

    #[test]
    fn clamping_handles_domain_edges() {
        let lat = Lattice::new(4, 4, 4, 1.0);
        let f = interpolate_distributions(&lat, -0.5, 3.9, 10.0);
        let (rho, u) = moments(&f);
        assert!((rho - 1.0).abs() < 1e-12);
        assert!(u.iter().all(|c| c.abs() < 1e-12));
    }

    #[test]
    fn moments_match_lattice_moments() {
        let mut lat = Lattice::new(4, 4, 4, 1.0);
        let node = lat.idx(1, 2, 3);
        lat.initialize_node_equilibrium(node, 0.97, [0.01, -0.03, 0.02]);
        let mut f = [0.0; Q];
        f.copy_from_slice(lat.distributions(node));
        let (rho, u) = moments(&f);
        let (rho2, u2) = lat.moments_at(node);
        assert!((rho - rho2).abs() < 1e-15);
        for a in 0..3 {
            assert!((u[a] - u2[a]).abs() < 1e-15);
        }
    }
}

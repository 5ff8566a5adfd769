//! Bending resistance via dihedral angles (discrete Helfrich analogue of
//! paper Eq. 3).
//!
//! Each interior edge stores its spontaneous dihedral angle `θ₀` from the
//! reference shape; the energy `E_b·(1 − cos(θ − θ₀))` penalizes deviation,
//! which for small angles reduces to the quadratic Helfrich form
//! `E_b/2·(θ − θ₀)²` with the spontaneous-curvature offset of Eq. 3.

use crate::reference::{dihedral_angle, ReferenceState};
use apr_mesh::Vec3;

/// Gradient of the dihedral angle θ with respect to the four stencil
/// vertices `(x0, x1)` = edge, `(x2, x3)` = opposite vertices. Uses the
/// discrete-shells closed form; the four gradients sum to zero.
#[inline]
pub fn dihedral_gradient(x0: Vec3, x1: Vec3, x2: Vec3, x3: Vec3) -> [Vec3; 4] {
    let e = x1 - x0;
    let l = e.norm();
    if l < 1e-300 {
        return [Vec3::ZERO; 4];
    }
    let n1 = (x1 - x0).cross(x2 - x0);
    let n2 = (x3 - x0).cross(x1 - x0);
    let n1sq = n1.norm_sq();
    let n2sq = n2.norm_sq();
    if n1sq < 1e-300 || n2sq < 1e-300 {
        return [Vec3::ZERO; 4];
    }
    let g2 = -n1 * (l / n1sq);
    let g3 = -n2 * (l / n2sq);
    let g0 = -(n1 * ((x2 - x1).dot(e) / (l * n1sq)) + n2 * ((x3 - x1).dot(e) / (l * n2sq)));
    let g1 = -(n1 * ((x0 - x2).dot(e) / (l * n1sq)) + n2 * ((x0 - x3).dot(e) / (l * n2sq)));
    [g0, g1, g2, g3]
}

/// Add bending forces for every interior edge (force only: the energy is
/// [`bending_energy`]).
pub fn add_bending_forces(
    reference: &ReferenceState,
    eb: f64,
    vertices: &[Vec3],
    forces: &mut [Vec3],
) {
    assert_eq!(
        vertices.len(),
        reference.vertex_count,
        "vertex count mismatch"
    );
    for er in &reference.edge_refs {
        let x0 = vertices[er.v[0] as usize];
        let x1 = vertices[er.v[1] as usize];
        let x2 = vertices[er.opposite[0] as usize];
        let x3 = vertices[er.opposite[1] as usize];
        let theta = dihedral_angle(x0, x1, x2, x3);
        let scale = -eb * (theta - er.theta0).sin();
        let g = dihedral_gradient(x0, x1, x2, x3);
        forces[er.v[0] as usize] += g[0] * scale;
        forces[er.v[1] as usize] += g[1] * scale;
        forces[er.opposite[0] as usize] += g[2] * scale;
        forces[er.opposite[1] as usize] += g[3] * scale;
    }
}

/// Total bending energy without force evaluation.
pub fn bending_energy(reference: &ReferenceState, eb: f64, vertices: &[Vec3]) -> f64 {
    reference
        .edge_refs
        .iter()
        .map(|er| {
            let theta = dihedral_angle(
                vertices[er.v[0] as usize],
                vertices[er.v[1] as usize],
                vertices[er.opposite[0] as usize],
                vertices[er.opposite[1] as usize],
            );
            eb * (1.0 - (theta - er.theta0).cos())
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_mesh::icosphere;

    #[test]
    fn gradients_sum_to_zero() {
        let x = [
            Vec3::new(0.0, 0.0, 0.1),
            Vec3::new(1.0, 0.1, 0.0),
            Vec3::new(0.5, 0.9, 0.3),
            Vec3::new(0.4, -0.8, 0.2),
        ];
        let g = dihedral_gradient(x[0], x[1], x[2], x[3]);
        let total: Vec3 = g.iter().copied().sum();
        assert!(total.norm() < 1e-12, "{total:?}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut x = [
            Vec3::new(0.0, 0.0, 0.1),
            Vec3::new(1.0, 0.1, 0.0),
            Vec3::new(0.5, 0.9, 0.3),
            Vec3::new(0.4, -0.8, 0.2),
        ];
        let g = dihedral_gradient(x[0], x[1], x[2], x[3]);
        let h = 1e-7;
        for vi in 0..4 {
            for axis in 0..3 {
                let orig = x[vi][axis];
                x[vi][axis] = orig + h;
                let tp = dihedral_angle(x[0], x[1], x[2], x[3]);
                x[vi][axis] = orig - h;
                let tm = dihedral_angle(x[0], x[1], x[2], x[3]);
                x[vi][axis] = orig;
                let fd = (tp - tm) / (2.0 * h);
                assert!(
                    (fd - g[vi][axis]).abs() < 1e-5 * (1.0 + fd.abs()),
                    "vertex {vi} axis {axis}: analytic {} vs fd {fd}",
                    g[vi][axis]
                );
            }
        }
    }

    #[test]
    fn undeformed_shape_has_zero_energy_and_force() {
        let mesh = icosphere(2, 1.0);
        let re = ReferenceState::build(&mesh);
        let mut forces = vec![Vec3::ZERO; mesh.vertex_count()];
        add_bending_forces(&re, 1.0, &mesh.vertices, &mut forces);
        let e = bending_energy(&re, 1.0, &mesh.vertices);
        assert!(e.abs() < 1e-18, "energy = {e}");
        for f in &forces {
            assert!(f.norm() < 1e-12);
        }
    }

    #[test]
    fn bending_forces_match_finite_difference() {
        let mesh = icosphere(1, 1.0);
        let re = ReferenceState::build(&mesh);
        let eb = 0.5;
        let mut verts: Vec<Vec3> = mesh
            .vertices
            .iter()
            .enumerate()
            .map(|(i, &v)| v * (1.0 + 0.05 * ((i * 11 % 17) as f64 / 17.0 - 0.5)))
            .collect();
        let mut forces = vec![Vec3::ZERO; verts.len()];
        add_bending_forces(&re, eb, &verts, &mut forces);
        let h = 1e-6;
        for vi in [0usize, 5, 17, 33] {
            for axis in 0..3 {
                let orig = verts[vi][axis];
                verts[vi][axis] = orig + h;
                let ep = bending_energy(&re, eb, &verts);
                verts[vi][axis] = orig - h;
                let em = bending_energy(&re, eb, &verts);
                verts[vi][axis] = orig;
                let fd = -(ep - em) / (2.0 * h);
                let an = forces[vi][axis];
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + an.abs()),
                    "vertex {vi} axis {axis}: analytic {an} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn bending_resists_sharp_folds() {
        // Fold one vertex of the sphere inward: energy must increase and the
        // force on it must push it back outward.
        let mesh = icosphere(2, 1.0);
        let re = ReferenceState::build(&mesh);
        let mut verts = mesh.vertices.clone();
        verts[0] *= 0.7;
        let e = bending_energy(&re, 1.0, &verts);
        assert!(e > 1e-4, "energy = {e}");
        let mut forces = vec![Vec3::ZERO; verts.len()];
        add_bending_forces(&re, 1.0, &verts, &mut forces);
        // Outward = along the original vertex direction.
        assert!(forces[0].dot(mesh.vertices[0]) > 0.0, "{:?}", forces[0]);
    }

    #[test]
    fn rigid_rotation_produces_no_bending_force() {
        let mesh = icosphere(1, 1.0);
        let re = ReferenceState::build(&mesh);
        let mut moved = mesh.clone();
        moved.rotate(Vec3::new(1.0, 0.2, 0.1), 0.7);
        let mut forces = vec![Vec3::ZERO; moved.vertex_count()];
        add_bending_forces(&re, 1.0, &moved.vertices, &mut forces);
        assert!(bending_energy(&re, 1.0, &moved.vertices) < 1e-18);
        for f in &forces {
            assert!(f.norm() < 1e-9);
        }
    }
}

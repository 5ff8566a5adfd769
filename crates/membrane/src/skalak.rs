//! In-plane Skalak finite-element forces (paper Eq. 2).
//!
//! Linear-triangle implementation: each triangle carries a 2×2 deformation
//! gradient `D` from its reference configuration; the strain invariants
//! `I₁ = tr(DᵀD) − 2` and `I₂ = det(DᵀD) − 1` feed the Skalak energy
//!
//! ```text
//! W_s = G_s/4 (I₁² + 2I₁ − 2I₂) + G_s·C/4 · I₂²
//! ```
//!
//! and analytic nodal forces follow from `F = −A₀ ∂W/∂x` via the first
//! Piola–Kirchhoff tensor `P = ∂W/∂D`, rotated back into the current
//! triangle plane. (DESIGN.md records the substitution of linear elements
//! for the paper's Loop-subdivision shells.)

use crate::reference::{local_edge_matrix, ReferenceState, TriangleRef};
use apr_mesh::Vec3;

/// Skalak energy density (per undeformed area) at invariants `(i1, i2)`.
#[inline]
pub fn skalak_energy_density(gs: f64, c: f64, i1: f64, i2: f64) -> f64 {
    gs / 4.0 * (i1 * i1 + 2.0 * i1 - 2.0 * i2) + gs * c / 4.0 * i2 * i2
}

/// Partial derivatives `(∂W/∂I₁, ∂W/∂I₂)`.
#[inline]
pub fn skalak_energy_gradient(gs: f64, c: f64, i1: f64, i2: f64) -> (f64, f64) {
    (gs / 2.0 * (i1 + 1.0), -gs / 2.0 + gs * c / 2.0 * i2)
}

/// Strain invariants of one deformed triangle against its reference.
#[inline]
pub fn triangle_invariants(tri: &TriangleRef, a: Vec3, b: Vec3, c: Vec3) -> (f64, f64) {
    let (d, _, _) = deformation_gradient(tri, a, b, c);
    let g00 = d[0][0] * d[0][0] + d[1][0] * d[1][0];
    let g11 = d[0][1] * d[0][1] + d[1][1] * d[1][1];
    let det_d = d[0][0] * d[1][1] - d[0][1] * d[1][0];
    (g00 + g11 - 2.0, det_d * det_d - 1.0)
}

/// Deformation gradient `D = B·M⁻¹` plus the current local frame `(u, v)`.
#[inline]
fn deformation_gradient(
    tri: &TriangleRef,
    a: Vec3,
    b: Vec3,
    c: Vec3,
) -> ([[f64; 2]; 2], Vec3, Vec3) {
    let bmat = local_edge_matrix(a, b, c);
    let e1 = (b - a).normalized();
    let n = (b - a).cross(c - a);
    let v = n.cross(b - a).normalized();
    let inv = tri.inv_ref;
    // D_{ij} = Σ_k B_{ik} inv_{kj}
    let mut d = [[0.0; 2]; 2];
    for i in 0..2 {
        for j in 0..2 {
            d[i][j] = bmat[i][0] * inv[0][j] + bmat[i][1] * inv[1][j];
        }
    }
    (d, e1, v)
}

/// Add Skalak in-plane forces for every triangle (force only: the energy
/// is [`skalak_energy`]). `forces` must have one slot per vertex.
pub fn add_skalak_forces(
    reference: &ReferenceState,
    gs: f64,
    c_skalak: f64,
    vertices: &[Vec3],
    forces: &mut [Vec3],
) {
    add_inplane_forces_with(reference, vertices, forces, |i1, i2| {
        skalak_energy_gradient(gs, c_skalak, i1, i2)
    })
}

/// Generic in-plane FEM driver: any hyperelastic membrane law expressed as
/// `W(I₁, I₂)` with gradient `(∂W/∂I₁, ∂W/∂I₂)` gets analytic nodal forces
/// through the deformation-gradient machinery (the Skalak law above is its
/// one caller; [`inplane_energy_with`] is the matching energy).
pub fn add_inplane_forces_with(
    reference: &ReferenceState,
    vertices: &[Vec3],
    forces: &mut [Vec3],
    energy_gradient: impl Fn(f64, f64) -> (f64, f64),
) {
    assert_eq!(
        vertices.len(),
        reference.vertex_count,
        "vertex count mismatch"
    );
    assert_eq!(forces.len(), vertices.len(), "force buffer mismatch");
    for (t, &[ia, ib, ic]) in reference.triangles.iter().enumerate() {
        let tri = &reference.tri_refs[t];
        let (a, b, c) = (
            vertices[ia as usize],
            vertices[ib as usize],
            vertices[ic as usize],
        );
        let (d, u_axis, v_axis) = deformation_gradient(tri, a, b, c);
        let g00 = d[0][0] * d[0][0] + d[1][0] * d[1][0];
        let g11 = d[0][1] * d[0][1] + d[1][1] * d[1][1];
        let det_d = d[0][0] * d[1][1] - d[0][1] * d[1][0];
        let i1 = g00 + g11 - 2.0;
        let i2 = det_d * det_d - 1.0;
        let (dw1, dw2) = energy_gradient(i1, i2);

        // P = 2·dw1·D + 2·dw2·det(G)·D⁻ᵀ, with det(G) = det(D)² and
        // det(G)·D⁻ᵀ = det(D)·adj(D)ᵀ (avoids dividing by det D).
        let adj_t = [[d[1][1], -d[1][0]], [-d[0][1], d[0][0]]];
        let mut p = [[0.0; 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                p[i][j] = 2.0 * dw1 * d[i][j] + 2.0 * dw2 * det_d * adj_t[i][j];
            }
        }

        // Edge-space gradient: G_edge = A0 · P · inv_refᵀ; columns are the
        // energy gradients w.r.t. edge1 (b−a) and edge2 (c−a) in 2D.
        let inv = tri.inv_ref;
        let mut ge = [[0.0; 2]; 2];
        for i in 0..2 {
            for k in 0..2 {
                ge[i][k] = tri.area * (p[i][0] * inv[k][0] + p[i][1] * inv[k][1]);
            }
        }
        // Back to 3D: force = −gradient, rotated by the current frame.
        let fb = -(u_axis * ge[0][0] + v_axis * ge[1][0]);
        let fc = -(u_axis * ge[0][1] + v_axis * ge[1][1]);
        forces[ib as usize] += fb;
        forces[ic as usize] += fc;
        forces[ia as usize] -= fb + fc;
    }
}

/// Total Skalak energy without force evaluation.
pub fn skalak_energy(reference: &ReferenceState, gs: f64, c_skalak: f64, vertices: &[Vec3]) -> f64 {
    inplane_energy_with(reference, vertices, |i1, i2| {
        skalak_energy_density(gs, c_skalak, i1, i2)
    })
}

/// Generic in-plane energy for any `W(I₁, I₂)` law.
pub fn inplane_energy_with(
    reference: &ReferenceState,
    vertices: &[Vec3],
    energy_density: impl Fn(f64, f64) -> f64,
) -> f64 {
    let mut energy = 0.0;
    for (t, &[ia, ib, ic]) in reference.triangles.iter().enumerate() {
        let tri = &reference.tri_refs[t];
        let (i1, i2) = triangle_invariants(
            tri,
            vertices[ia as usize],
            vertices[ib as usize],
            vertices[ic as usize],
        );
        energy += tri.area * energy_density(i1, i2);
    }
    energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_mesh::icosphere;

    #[test]
    fn undeformed_triangle_has_zero_invariants_and_force() {
        let mesh = icosphere(1, 1.0);
        let re = ReferenceState::build(&mesh);
        let mut forces = vec![Vec3::ZERO; mesh.vertex_count()];
        add_skalak_forces(&re, 1.0, 50.0, &mesh.vertices, &mut forces);
        let e = skalak_energy(&re, 1.0, 50.0, &mesh.vertices);
        assert!(e.abs() < 1e-20, "energy = {e}");
        for f in &forces {
            assert!(f.norm() < 1e-12);
        }
    }

    #[test]
    fn rigid_motion_produces_no_force() {
        let mesh = icosphere(1, 1.0);
        let re = ReferenceState::build(&mesh);
        let mut moved = mesh.clone();
        moved.rotate(Vec3::new(0.3, 1.0, -0.2), 0.8);
        moved.translate(Vec3::new(2.0, -1.0, 0.5));
        let mut forces = vec![Vec3::ZERO; moved.vertex_count()];
        add_skalak_forces(&re, 1.0, 50.0, &moved.vertices, &mut forces);
        let e = skalak_energy(&re, 1.0, 50.0, &moved.vertices);
        assert!(e.abs() < 1e-12, "energy = {e}");
        for f in &forces {
            assert!(f.norm() < 1e-9, "{f:?}");
        }
    }

    #[test]
    fn uniform_dilation_invariants() {
        // Scaling the sphere by s gives λ1 = λ2 = s everywhere:
        // I1 = 2s² − 2, I2 = s⁴ − 1.
        let mesh = icosphere(2, 1.0);
        let re = ReferenceState::build(&mesh);
        let s = 1.1f64;
        let mut scaled = mesh.clone();
        scaled.scale(s);
        for (t, &[a, b, c]) in re.triangles.iter().enumerate() {
            let (i1, i2) = triangle_invariants(
                &re.tri_refs[t],
                scaled.vertices[a as usize],
                scaled.vertices[b as usize],
                scaled.vertices[c as usize],
            );
            assert!((i1 - (2.0 * s * s - 2.0)).abs() < 1e-9, "I1 = {i1}");
            assert!((i2 - (s.powi(4) - 1.0)).abs() < 1e-9, "I2 = {i2}");
        }
    }

    #[test]
    fn forces_match_finite_difference_gradient() {
        let mesh = icosphere(1, 1.0);
        let re = ReferenceState::build(&mesh);
        let (gs, c) = (2.0, 30.0);
        // Deform deterministically so forces are nonzero.
        let mut verts: Vec<Vec3> = mesh
            .vertices
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                v + Vec3::new(
                    0.03 * ((i * 7 % 13) as f64 / 13.0 - 0.5),
                    0.03 * ((i * 5 % 11) as f64 / 11.0 - 0.5),
                    0.03 * ((i * 3 % 7) as f64 / 7.0 - 0.5),
                )
            })
            .collect();
        let mut forces = vec![Vec3::ZERO; verts.len()];
        add_skalak_forces(&re, gs, c, &verts, &mut forces);
        let h = 1e-6;
        for vi in [0usize, 7, 20, 41] {
            for axis in 0..3 {
                let orig = verts[vi][axis];
                verts[vi][axis] = orig + h;
                let ep = skalak_energy(&re, gs, c, &verts);
                verts[vi][axis] = orig - h;
                let em = skalak_energy(&re, gs, c, &verts);
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
    fn total_force_and_torque_vanish() {
        let mesh = icosphere(2, 1.0);
        let re = ReferenceState::build(&mesh);
        let verts: Vec<Vec3> = mesh
            .vertices
            .iter()
            .map(|&v| Vec3::new(v.x * 1.2, v.y * 0.9, v.z * 1.05))
            .collect();
        let mut forces = vec![Vec3::ZERO; verts.len()];
        add_skalak_forces(&re, 1.0, 20.0, &verts, &mut forces);
        let total: Vec3 = forces.iter().copied().sum();
        assert!(total.norm() < 1e-10, "net force {total:?}");
        let torque: Vec3 = verts.iter().zip(&forces).map(|(&x, &f)| x.cross(f)).sum();
        assert!(torque.norm() < 1e-10, "net torque {torque:?}");
    }

    #[test]
    fn stretched_sphere_is_pulled_back() {
        // Inflate the sphere: elastic forces must point inward.
        let mesh = icosphere(2, 1.0);
        let re = ReferenceState::build(&mesh);
        let mut inflated = mesh.clone();
        inflated.scale(1.2);
        let mut forces = vec![Vec3::ZERO; inflated.vertex_count()];
        add_skalak_forces(&re, 1.0, 20.0, &inflated.vertices, &mut forces);
        let mut inward = 0usize;
        for (v, f) in inflated.vertices.iter().zip(&forces) {
            if f.dot(*v) < 0.0 {
                inward += 1;
            }
        }
        assert!(
            inward > inflated.vertex_count() * 95 / 100,
            "only {inward} inward"
        );
    }
}

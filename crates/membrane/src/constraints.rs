//! Global area and volume penalty constraints.
//!
//! RBC interiors are incompressible and the lipid membrane is locally
//! area-preserving; on top of the Skalak `C` term these quadratic global
//! penalties keep the FEM cells within physiological bounds:
//!
//! ```text
//! E_A = k_A/2 · (A − A₀)²/A₀        E_V = k_V/2 · (V − V₀)²/V₀
//! ```

use crate::reference::ReferenceState;
use apr_mesh::Vec3;

/// Current surface area over the reference connectivity.
pub fn surface_area(reference: &ReferenceState, vertices: &[Vec3]) -> f64 {
    reference
        .triangles
        .iter()
        .map(|&[a, b, c]| {
            let (a, b, c) = (
                vertices[a as usize],
                vertices[b as usize],
                vertices[c as usize],
            );
            0.5 * (b - a).cross(c - a).norm()
        })
        .sum()
}

/// Current enclosed volume over the reference connectivity.
pub fn enclosed_volume(reference: &ReferenceState, vertices: &[Vec3]) -> f64 {
    reference
        .triangles
        .iter()
        .map(|&[a, b, c]| {
            vertices[a as usize].dot(vertices[b as usize].cross(vertices[c as usize])) / 6.0
        })
        .sum()
}

/// Add global-area and volume penalty forces (force only: the energy is
/// [`constraint_energy`]).
pub fn add_constraint_forces(
    reference: &ReferenceState,
    global_area_k: f64,
    volume_k: f64,
    vertices: &[Vec3],
    forces: &mut [Vec3],
) {
    assert_eq!(
        vertices.len(),
        reference.vertex_count,
        "vertex count mismatch"
    );
    let a = surface_area(reference, vertices);
    let v = enclosed_volume(reference, vertices);
    let (a0, v0) = (reference.area0, reference.volume0);
    let coeff_a = -global_area_k * (a - a0) / a0;
    let coeff_v = -volume_k * (v - v0) / v0;

    for &[ia, ib, ic] in &reference.triangles {
        let (pa, pb, pc) = (
            vertices[ia as usize],
            vertices[ib as usize],
            vertices[ic as usize],
        );
        // Area gradient: ∂A_t/∂p_a = ((b − c) × n̂)/2, cyclic.
        let n = (pb - pa).cross(pc - pa);
        if let Some(nhat) = n.try_normalize(1e-300) {
            forces[ia as usize] += (pb - pc).cross(nhat) * (0.5 * coeff_a);
            forces[ib as usize] += (pc - pa).cross(nhat) * (0.5 * coeff_a);
            forces[ic as usize] += (pa - pb).cross(nhat) * (0.5 * coeff_a);
        }
        // Volume gradient: ∂V/∂p_a = (b × c)/6, cyclic.
        forces[ia as usize] += pb.cross(pc) * (coeff_v / 6.0);
        forces[ib as usize] += pc.cross(pa) * (coeff_v / 6.0);
        forces[ic as usize] += pa.cross(pb) * (coeff_v / 6.0);
    }
}

/// Constraint energy without force evaluation.
pub fn constraint_energy(
    reference: &ReferenceState,
    global_area_k: f64,
    volume_k: f64,
    vertices: &[Vec3],
) -> f64 {
    let a = surface_area(reference, vertices);
    let v = enclosed_volume(reference, vertices);
    0.5 * global_area_k * (a - reference.area0).powi(2) / reference.area0
        + 0.5 * volume_k * (v - reference.volume0).powi(2) / reference.volume0
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_mesh::icosphere;

    #[test]
    fn undeformed_has_no_constraint_force() {
        let mesh = icosphere(2, 1.0);
        let re = ReferenceState::build(&mesh);
        let mut forces = vec![Vec3::ZERO; mesh.vertex_count()];
        add_constraint_forces(&re, 1.0, 1.0, &mesh.vertices, &mut forces);
        assert!(constraint_energy(&re, 1.0, 1.0, &mesh.vertices).abs() < 1e-18);
        for f in &forces {
            assert!(f.norm() < 1e-12);
        }
    }

    #[test]
    fn forces_match_finite_difference() {
        let mesh = icosphere(1, 1.0);
        let re = ReferenceState::build(&mesh);
        let (ka, kv) = (3.0, 7.0);
        let mut verts: Vec<Vec3> = mesh
            .vertices
            .iter()
            .enumerate()
            .map(|(i, &v)| v * (1.0 + 0.04 * ((i % 5) as f64 / 5.0 - 0.4)))
            .collect();
        let mut forces = vec![Vec3::ZERO; verts.len()];
        add_constraint_forces(&re, ka, kv, &verts, &mut forces);
        let h = 1e-6;
        for vi in [0usize, 3, 9, 24] {
            for axis in 0..3 {
                let orig = verts[vi][axis];
                verts[vi][axis] = orig + h;
                let ep = constraint_energy(&re, ka, kv, &verts);
                verts[vi][axis] = orig - h;
                let em = constraint_energy(&re, ka, kv, &verts);
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
    fn inflation_is_resisted_by_volume_penalty() {
        let mesh = icosphere(2, 1.0);
        let re = ReferenceState::build(&mesh);
        let mut inflated = mesh.clone();
        inflated.scale(1.1);
        let mut forces = vec![Vec3::ZERO; inflated.vertex_count()];
        add_constraint_forces(&re, 0.0, 1.0, &inflated.vertices, &mut forces);
        for (v, f) in inflated.vertices.iter().zip(&forces) {
            assert!(f.dot(*v) < 0.0, "volume force must point inward");
        }
    }

    #[test]
    fn deflation_is_resisted() {
        let mesh = icosphere(2, 1.0);
        let re = ReferenceState::build(&mesh);
        let mut shrunk = mesh.clone();
        shrunk.scale(0.9);
        let mut forces = vec![Vec3::ZERO; shrunk.vertex_count()];
        add_constraint_forces(&re, 1.0, 1.0, &shrunk.vertices, &mut forces);
        for (v, f) in shrunk.vertices.iter().zip(&forces) {
            assert!(f.dot(*v) > 0.0, "restoring force must point outward");
        }
    }

    #[test]
    fn helper_metrics_match_mesh_methods() {
        let mesh = icosphere(3, 1.3);
        let re = ReferenceState::build(&mesh);
        assert!((surface_area(&re, &mesh.vertices) - mesh.surface_area()).abs() < 1e-12);
        assert!((enclosed_volume(&re, &mesh.vertices) - mesh.enclosed_volume()).abs() < 1e-12);
    }
}

//! Aggregate membrane force model: Skalak + bending + constraints.

use crate::bending::{add_bending_forces, bending_energy};
use crate::constraints::{add_constraint_forces, constraint_energy};
use crate::material::MembraneMaterial;
use crate::reference::ReferenceState;
use crate::skalak::{add_skalak_forces, skalak_energy};
use apr_mesh::Vec3;
use std::sync::Arc;

/// A membrane force model: one reference shape plus material parameters.
///
/// Shared (via `Arc`) across every cell instance of the same type, so the
/// per-cell state is just positions/velocities/forces — the paper's
/// cell-memory layout (§2.4.5).
#[derive(Debug, Clone)]
pub struct Membrane {
    /// Reference (undeformed) state.
    pub reference: Arc<ReferenceState>,
    /// Elastic parameters.
    pub material: MembraneMaterial,
}

/// Energy breakdown returned by [`Membrane::energy`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// In-plane Skalak energy.
    pub skalak: f64,
    /// Dihedral bending energy.
    pub bending: f64,
    /// Global area + volume penalty energy.
    pub constraint: f64,
}

impl EnergyBreakdown {
    /// Sum of all contributions.
    pub fn total(&self) -> f64 {
        self.skalak + self.bending + self.constraint
    }
}

impl Membrane {
    /// New membrane model from an undeformed mesh and material.
    pub fn new(reference: Arc<ReferenceState>, material: MembraneMaterial) -> Self {
        Self {
            reference,
            material,
        }
    }

    /// Compute all membrane forces into `forces` (accumulated, not reset).
    /// Force only — the step never reads the energies, so none is
    /// computed here; [`Self::energy`] evaluates them.
    pub fn compute_forces(&self, vertices: &[Vec3], forces: &mut [Vec3]) {
        let m = &self.material;
        add_skalak_forces(
            &self.reference,
            m.shear_modulus,
            m.skalak_c,
            vertices,
            forces,
        );
        add_bending_forces(&self.reference, m.bending_modulus, vertices, forces);
        add_constraint_forces(
            &self.reference,
            m.global_area_k,
            m.volume_k,
            vertices,
            forces,
        );
    }

    /// Total elastic energy of a configuration.
    pub fn energy(&self, vertices: &[Vec3]) -> EnergyBreakdown {
        let m = &self.material;
        EnergyBreakdown {
            skalak: skalak_energy(&self.reference, m.shear_modulus, m.skalak_c, vertices),
            bending: bending_energy(&self.reference, m.bending_modulus, vertices),
            constraint: constraint_energy(&self.reference, m.global_area_k, m.volume_k, vertices),
        }
    }

    /// Vertex count this membrane expects.
    pub fn vertex_count(&self) -> usize {
        self.reference.vertex_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_mesh::{biconcave_rbc_mesh, icosphere};

    fn rbc_membrane() -> (Membrane, Vec<Vec3>) {
        let mesh = biconcave_rbc_mesh(2, 1.0);
        let re = Arc::new(ReferenceState::build(&mesh));
        let mat = MembraneMaterial::rbc(1.0, 0.01);
        (Membrane::new(re, mat), mesh.vertices)
    }

    #[test]
    fn combined_forces_match_combined_finite_difference() {
        let (mem, verts0) = rbc_membrane();
        let mut verts: Vec<Vec3> = verts0
            .iter()
            .enumerate()
            .map(|(i, &v)| v * (1.0 + 0.03 * ((i * 13 % 19) as f64 / 19.0 - 0.5)))
            .collect();
        let mut forces = vec![Vec3::ZERO; verts.len()];
        mem.compute_forces(&verts, &mut forces);
        let h = 1e-6;
        for vi in [0usize, 11, 50, 101] {
            for axis in 0..3 {
                let orig = verts[vi][axis];
                verts[vi][axis] = orig + h;
                let ep = mem.energy(&verts).total();
                verts[vi][axis] = orig - h;
                let em = mem.energy(&verts).total();
                verts[vi][axis] = orig;
                let fd = -(ep - em) / (2.0 * h);
                let an = forces[vi][axis];
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                    "vertex {vi} axis {axis}: analytic {an} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn relaxation_decreases_energy() {
        // Gradient descent along the computed forces must reduce the energy
        // of a perturbed biconcave cell monotonically (for a sane step).
        let (mem, verts0) = rbc_membrane();
        let mut verts: Vec<Vec3> = verts0
            .iter()
            .enumerate()
            .map(|(i, &v)| v * (1.0 + 0.05 * ((i % 7) as f64 / 7.0 - 0.4)))
            .collect();
        let initial = mem.energy(&verts).total();
        let mut energy = initial;
        let mut forces = vec![Vec3::ZERO; verts.len()];
        for _ in 0..60 {
            forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
            mem.compute_forces(&verts, &mut forces);
            let fmax = forces.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
            // Backtracking line search along the force direction: because
            // force = −∇E, a small enough step always decreases the energy.
            let mut step = 0.002 / fmax.max(1e-12);
            let before = verts.clone();
            loop {
                for ((v, f), b) in verts.iter_mut().zip(&forces).zip(&before) {
                    *v = *b + *f * step;
                }
                let e = mem.energy(&verts).total();
                if e <= energy {
                    energy = e;
                    break;
                }
                step *= 0.5;
                assert!(step > 1e-12, "descent failed: gradient direction wrong");
            }
        }
        assert!(
            energy < 0.5 * initial,
            "descent barely moved: {initial} -> {energy}"
        );
    }

    #[test]
    fn energy_breakdown_total_is_sum() {
        let mesh = icosphere(2, 1.0);
        let re = Arc::new(ReferenceState::build(&mesh));
        let mem = Membrane::new(re, MembraneMaterial::rbc(1.0, 0.1));
        let verts: Vec<Vec3> = mesh.vertices.iter().map(|&v| v * 1.05).collect();
        let e = mem.energy(&verts);
        assert!((e.total() - (e.skalak + e.bending + e.constraint)).abs() < 1e-15);
        assert!(e.skalak > 0.0 && e.constraint > 0.0);
    }

    #[test]
    fn stiffer_ctc_resists_more() {
        let mesh = icosphere(2, 1.0);
        let re = Arc::new(ReferenceState::build(&mesh));
        let rbc = Membrane::new(Arc::clone(&re), MembraneMaterial::rbc(1.0, 0.01));
        let ctc = Membrane::new(re, MembraneMaterial::ctc(20.0, 0.01));
        let verts: Vec<Vec3> = mesh
            .vertices
            .iter()
            .map(|&v| Vec3::new(v.x * 1.2, v.y / 1.2, v.z))
            .collect();
        // Same material law, 20× modulus: energy scales exactly linearly.
        let rbc_stiff = Membrane::new(
            Arc::clone(&rbc.reference),
            MembraneMaterial::rbc(20.0, 0.01),
        );
        let ratio = rbc_stiff.energy(&verts).skalak / rbc.energy(&verts).skalak;
        assert!((ratio - 20.0).abs() < 1e-9, "ratio = {ratio}");
        // The CTC preset (20× G_s, softer area term) still resists clearly
        // more than the RBC under shear-dominated deformation.
        assert!(ctc.energy(&verts).skalak > 2.0 * rbc.energy(&verts).skalak);
    }
}

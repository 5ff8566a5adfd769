//! A single deformable cell instance.

use apr_membrane::Membrane;
use apr_mesh::Vec3;
use std::sync::Arc;

/// Biological cell type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Red blood cell.
    Rbc,
    /// Circulating tumor cell.
    Ctc,
}

/// Globally unique cell identifier.
///
/// IDs are assigned once at creation and survive window moves and task
/// migration; the overlap-removal algorithm uses them to break ties
/// deterministically across MPI task counts (paper §2.4.2).
pub type CellId = u64;

/// A deformable cell: shared membrane model + per-instance state.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Globally unique ID.
    pub id: CellId,
    /// Cell type.
    pub kind: CellKind,
    /// Shared membrane model (reference shape + material).
    pub membrane: Arc<Membrane>,
    /// Current vertex positions.
    pub vertices: Vec<Vec3>,
    /// Current vertex velocities (diagnostics; IBM advection is velocity-
    /// driven so these lag by one step).
    pub velocities: Vec<Vec3>,
    /// Accumulated vertex forces for the current step.
    pub forces: Vec<Vec3>,
}

impl Cell {
    /// Instantiate a cell of `kind` from its membrane model, placed with the
    /// reference shape centred at `center`.
    pub fn new(id: CellId, kind: CellKind, membrane: Arc<Membrane>, center: Vec3) -> Self {
        let reference = &membrane.reference;
        let n = reference.vertex_count;
        let mut vertices = Vec::with_capacity(n);
        // The reference connectivity mesh isn't stored with positions here;
        // callers that need the undeformed shape pass it via `with_shape`.
        vertices.resize(n, center);
        Self {
            id,
            kind,
            membrane,
            vertices,
            velocities: vec![Vec3::ZERO; n],
            forces: vec![Vec3::ZERO; n],
        }
    }

    /// Instantiate from explicit vertex positions (e.g. an undeformed mesh
    /// or a deep-copied deformed shape, paper §2.4.3).
    pub fn with_shape(
        id: CellId,
        kind: CellKind,
        membrane: Arc<Membrane>,
        vertices: Vec<Vec3>,
    ) -> Self {
        assert_eq!(
            vertices.len(),
            membrane.reference.vertex_count,
            "shape does not match membrane reference"
        );
        let n = vertices.len();
        Self {
            id,
            kind,
            membrane,
            vertices,
            velocities: vec![Vec3::ZERO; n],
            forces: vec![Vec3::ZERO; n],
        }
    }

    /// Reassemble a cell from checkpointed per-vertex state, preserving its
    /// original global ID (unlike [`Cell::with_shape`], which is for new
    /// cells). Velocities and forces are restored verbatim so a resumed
    /// run's first FSI substep sees exactly the pre-checkpoint state.
    pub fn from_parts(
        id: CellId,
        kind: CellKind,
        membrane: Arc<Membrane>,
        vertices: Vec<Vec3>,
        velocities: Vec<Vec3>,
        forces: Vec<Vec3>,
    ) -> Self {
        assert_eq!(
            vertices.len(),
            membrane.reference.vertex_count,
            "shape does not match membrane reference"
        );
        assert_eq!(velocities.len(), vertices.len(), "velocity count mismatch");
        assert_eq!(forces.len(), vertices.len(), "force count mismatch");
        Self {
            id,
            kind,
            membrane,
            vertices,
            velocities,
            forces,
        }
    }

    /// Number of mesh vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Mean vertex position — the centroid used for insertion-subregion
    /// bookkeeping (paper §2.4.2 tracks cells "based on their centroid").
    pub fn centroid(&self) -> Vec3 {
        self.vertices.iter().copied().sum::<Vec3>() / self.vertices.len() as f64
    }

    /// Axis-aligned bounding box of the current shape.
    pub fn bounding_box(&self) -> (Vec3, Vec3) {
        let mut lo = self.vertices[0];
        let mut hi = self.vertices[0];
        for &v in &self.vertices[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Translate the whole cell.
    pub fn translate(&mut self, d: Vec3) {
        for v in &mut self.vertices {
            *v += d;
        }
    }

    /// Current enclosed volume (reference connectivity).
    pub fn volume(&self) -> f64 {
        apr_membrane::constraints::enclosed_volume(&self.membrane.reference, &self.vertices)
    }

    /// Current surface area.
    pub fn surface_area(&self) -> f64 {
        apr_membrane::constraints::surface_area(&self.membrane.reference, &self.vertices)
    }

    /// Zero the force accumulator.
    pub fn clear_forces(&mut self) {
        self.forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
    }

    /// Accumulate membrane elastic forces (force only; the energies are
    /// `self.membrane.energy(&self.vertices)`).
    pub fn compute_membrane_forces(&mut self) {
        self.membrane
            .compute_forces(&self.vertices, &mut self.forces)
    }

    /// Move every vertex with the velocity `velocity_at(index, position)`
    /// reports for it: `x += v·dt`, storing `v`.
    pub fn advect(&mut self, dt: f64, velocity_at: impl Fn(usize, Vec3) -> Vec3) {
        let moving = self.vertices.iter_mut().zip(&mut self.velocities);
        for (k, (x, v)) in moving.enumerate() {
            let vel = velocity_at(k, *x);
            *x += vel * dt;
            *v = vel;
        }
    }

    /// True when every vertex is finite (mesh has not blown up).
    pub fn is_finite(&self) -> bool {
        self.vertices.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_membrane::{MembraneMaterial, ReferenceState};
    use apr_mesh::icosphere;

    fn sphere_membrane() -> (Arc<Membrane>, apr_mesh::TriMesh) {
        let mesh = icosphere(1, 1.0);
        let re = Arc::new(ReferenceState::build(&mesh));
        (
            Arc::new(Membrane::new(re, MembraneMaterial::rbc(1.0, 0.01))),
            mesh,
        )
    }

    #[test]
    fn with_shape_preserves_geometry() {
        let (mem, mesh) = sphere_membrane();
        let cell = Cell::with_shape(7, CellKind::Rbc, mem, mesh.vertices.clone());
        assert_eq!(cell.id, 7);
        assert!((cell.volume() - mesh.enclosed_volume()).abs() < 1e-12);
        assert!(cell.centroid().norm() < 1e-12);
    }

    #[test]
    fn translate_moves_centroid() {
        let (mem, mesh) = sphere_membrane();
        let mut cell = Cell::with_shape(0, CellKind::Rbc, mem, mesh.vertices);
        cell.translate(Vec3::new(3.0, -1.0, 2.0));
        assert!((cell.centroid() - Vec3::new(3.0, -1.0, 2.0)).norm() < 1e-12);
    }

    #[test]
    fn advect_applies_velocity() {
        let (mem, mesh) = sphere_membrane();
        let mut cell = Cell::with_shape(0, CellKind::Ctc, mem, mesh.vertices);
        cell.advect(2.0, |_, _| Vec3::new(0.5, 0.0, 0.0));
        assert!((cell.centroid() - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-12);
        assert_eq!(cell.velocities[0], Vec3::new(0.5, 0.0, 0.0));
    }

    #[test]
    fn membrane_forces_accumulate() {
        let (mem, mesh) = sphere_membrane();
        let stretched: Vec<Vec3> = mesh.vertices.iter().map(|&v| v * 1.1).collect();
        let mut cell = Cell::with_shape(0, CellKind::Rbc, mem, stretched);
        cell.compute_membrane_forces();
        assert!(cell.membrane.energy(&cell.vertices).total() > 0.0);
        assert!(cell.forces.iter().any(|f| f.norm() > 0.0));
        cell.clear_forces();
        assert!(cell.forces.iter().all(|f| f.norm() == 0.0));
    }

    #[test]
    #[should_panic(expected = "shape does not match")]
    fn shape_mismatch_rejected() {
        let (mem, _) = sphere_membrane();
        let _ = Cell::with_shape(0, CellKind::Rbc, mem, vec![Vec3::ZERO; 3]);
    }
}

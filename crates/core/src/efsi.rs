//! The explicitly resolved fluid–structure interaction (eFSI) engine —
//! the paper's baseline: one fine lattice everywhere, every cell explicit.

use crate::fsi;
use apr_cells::{CellKind, CellPool, ContactParams, UniformSubgrid};
use apr_ibm::DeltaKernel;
use apr_lattice::Lattice;
use apr_membrane::Membrane;
use apr_mesh::Vec3;
use std::sync::Arc;

/// Fully resolved FSI simulation: fine lattice + explicit cells.
///
/// All positions are in the lattice's own coordinates (node spacing 1).
///
/// ```
/// use apr_core::EfsiEngine;
/// use apr_cells::{CellKind, ContactParams};
/// use apr_lattice::couette_channel;
/// use apr_membrane::{Membrane, MembraneMaterial, ReferenceState};
/// use apr_mesh::{icosphere, Vec3};
/// use std::sync::Arc;
///
/// // Shear channel with one soft sphere.
/// let lattice = couette_channel(16, 12, 12, 1.0, 0.03);
/// let mut engine = EfsiEngine::new(lattice, 4, ContactParams { cutoff: 1.0, strength: 1e-4 });
/// let mesh = icosphere(1, 2.0);
/// let membrane = Arc::new(Membrane::new(
///     Arc::new(ReferenceState::build(&mesh)),
///     MembraneMaterial::rbc(1e-3, 1e-5),
/// ));
/// let verts: Vec<Vec3> = mesh.vertices.iter().map(|&v| v + Vec3::new(8.0, 6.0, 6.0)).collect();
/// engine.add_cell(CellKind::Rbc, membrane, verts);
/// for _ in 0..10 {
///     engine.step();
/// }
/// assert!(engine.pool.iter().next().unwrap().is_finite());
/// ```
pub struct EfsiEngine {
    /// The fluid lattice (walls/BCs pre-configured by the caller).
    pub lattice: Lattice,
    /// Live cells.
    pub pool: CellPool,
    /// Spatial hash for contact/overlap queries.
    pub grid: UniformSubgrid,
    /// Intercellular repulsion parameters.
    pub contact: ContactParams,
    /// IBM delta kernel.
    pub kernel: DeltaKernel,
    pub(crate) steps: u64,
    pub(crate) site_updates: u64,
    /// Per-kind membrane models captured by [`EfsiEngine::add_cell`] so
    /// checkpoints can be resumed through [`crate::SimSession::resume`]
    /// without the caller re-supplying them (indexed Rbc, Ctc).
    pub(crate) membranes: [Option<Arc<Membrane>>; 2],
}

impl EfsiEngine {
    /// New engine around a prepared lattice.
    pub fn new(lattice: Lattice, cell_capacity: usize, contact: ContactParams) -> Self {
        let grid = UniformSubgrid::new(contact.cutoff.max(1.0));
        Self {
            lattice,
            pool: CellPool::with_capacity(cell_capacity),
            grid,
            contact,
            kernel: DeltaKernel::Cosine4,
            steps: 0,
            site_updates: 0,
            membranes: [None, None],
        }
    }

    /// Add a cell with explicit shape vertices (lattice coordinates);
    /// returns its global ID. The membrane model is retained per kind so
    /// checkpoints can be resumed through [`crate::SimSession::resume`].
    pub fn add_cell(
        &mut self,
        kind: CellKind,
        membrane: Arc<Membrane>,
        vertices: Vec<Vec3>,
    ) -> u64 {
        self.membranes[match kind {
            CellKind::Rbc => 0,
            CellKind::Ctc => 1,
        }] = Some(Arc::clone(&membrane));
        let (_, id) = self.pool.insert_shape(kind, membrane, vertices);
        id
    }

    /// Advance one fully coupled FSI step.
    pub fn step(&mut self) {
        let _step_span = apr_telemetry::span("efsi.step");
        fsi::substep(
            &mut self.lattice,
            &mut self.pool,
            &mut self.grid,
            self.contact,
            self.kernel,
            true,
            |lattice| {
                let _s = apr_telemetry::span("efsi.lattice");
                lattice.step();
            },
        );
        self.steps += 1;
        let step_sites = self.lattice.fluid_node_count() as u64;
        self.site_updates += step_sites;
        apr_telemetry::counter_add("efsi.site_updates", step_sites);
    }

    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Cumulative lattice site updates — the compute-cost proxy used when
    /// comparing APR and eFSI resource use (paper §3.3's node-hours).
    pub fn site_updates(&self) -> u64 {
        self.site_updates
    }

    /// Centroid of the first cell of `kind` (e.g. the CTC).
    pub fn centroid_of_first(&self, kind: CellKind) -> Option<Vec3> {
        self.pool
            .iter()
            .find(|c| c.kind == kind)
            .map(|c| c.centroid())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_lattice::couette_channel;
    use apr_membrane::{MembraneMaterial, ReferenceState};
    use apr_mesh::icosphere;

    fn sphere_membrane(radius: f64, gs: f64) -> (Arc<Membrane>, apr_mesh::TriMesh) {
        let mesh = icosphere(2, radius);
        let re = Arc::new(ReferenceState::build(&mesh));
        (
            Arc::new(Membrane::new(re, MembraneMaterial::rbc(gs, gs * 0.01))),
            mesh,
        )
    }

    #[test]
    fn cell_in_shear_flow_migrates_with_flow() {
        // A soft sphere in Couette flow must translate downstream with the
        // local fluid velocity without blowing up.
        let lat = couette_channel(24, 18, 16, 1.0, 0.04);
        let mut eng = EfsiEngine::new(
            lat,
            4,
            ContactParams {
                cutoff: 1.0,
                strength: 1e-4,
            },
        );
        let (mem, mesh) = sphere_membrane(3.0, 5e-4);
        let verts: Vec<Vec3> = mesh
            .vertices
            .iter()
            .map(|&v| v + Vec3::new(12.0, 12.0, 8.0))
            .collect();
        eng.add_cell(CellKind::Rbc, mem, verts);
        // Let the flow develop, then track the cell.
        for _ in 0..400 {
            eng.step();
        }
        let c0 = eng.centroid_of_first(CellKind::Rbc).unwrap();
        for _ in 0..300 {
            eng.step();
        }
        let c1 = eng.centroid_of_first(CellKind::Rbc).unwrap();
        let cell = eng.pool.iter().next().unwrap();
        assert!(cell.is_finite(), "cell blew up");
        // Moved downstream (+x), stayed near its y-plane.
        assert!(c1.x > c0.x + 0.5, "c0 {c0:?} -> c1 {c1:?}");
        assert!((c1.y - c0.y).abs() < 2.0);
        // Rough speed check: local Couette velocity at y≈12 over height 16:
        // u ≈ 0.04·(11.5/16) ≈ 0.029 per step.
        let speed = (c1.x - c0.x) / 300.0;
        assert!(
            (0.010..0.05).contains(&speed),
            "speed {speed} vs expected ≈0.029"
        );
    }

    #[test]
    fn volume_is_conserved_through_fsi() {
        let lat = couette_channel(20, 16, 16, 1.0, 0.03);
        let mut eng = EfsiEngine::new(
            lat,
            4,
            ContactParams {
                cutoff: 1.0,
                strength: 1e-4,
            },
        );
        let (mem, mesh) = sphere_membrane(3.0, 1e-3);
        let verts: Vec<Vec3> = mesh
            .vertices
            .iter()
            .map(|&v| v + Vec3::new(10.0, 8.0, 8.0))
            .collect();
        eng.add_cell(CellKind::Rbc, mem, verts);
        let v0 = eng.pool.iter().next().unwrap().volume();
        for _ in 0..500 {
            eng.step();
        }
        let v1 = eng.pool.iter().next().unwrap().volume();
        assert!((v1 - v0).abs() / v0 < 0.05, "volume drifted {v0} -> {v1}");
    }
}

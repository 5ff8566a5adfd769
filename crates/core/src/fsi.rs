//! Shared fluid–structure interaction plumbing used by both engines.
//!
//! One FSI substep (paper §2.3): membrane + contact forces on every cell →
//! spread onto the lattice (Eq. 6) → LBM step → interpolate velocities
//! (Eq. 4) → advect vertices (Eq. 5). [`substep`] is that sequence as the
//! engines run it; the stage functions beside it are the same code one
//! stage at a time.

use apr_cells::{apply_contact_forces, rebuild_grid, CellPool, ContactParams, UniformSubgrid};
use apr_ibm::{interpolate_velocity, DeltaKernel, StencilSet};
use apr_lattice::Lattice;
use apr_mesh::Vec3;

/// Zero all cell force buffers and accumulate membrane elastic forces,
/// in parallel across cells. Force only: the step never reads the
/// membrane energies (`Membrane::energy` evaluates them).
pub fn compute_membrane_forces(pool: &mut CellPool) {
    pool.par_for_each_mut(|cell| {
        cell.clear_forces();
        cell.compute_membrane_forces();
    });
}

/// Rebuild the spatial grid and add intercellular contact forces, summed
/// in the order of the grid's bins. Contact finds its pairs without the
/// grid; the grid is rebuilt for window maintenance, which reads it after
/// the step (escape removal, insertion overlap tests). [`substep`] rebuilds
/// it on the last sub-step only, which leaves the same grid.
pub fn compute_contact_forces(
    pool: &mut CellPool,
    grid: &mut UniformSubgrid,
    params: ContactParams,
) -> usize {
    rebuild_grid(grid, pool);
    apply_contact_forces(pool, grid.bin_size, params)
}

/// The IBM stencils of every vertex of a pool, in slot order, for one
/// sub-step: the spread and the interpolation both read them, since the
/// vertices do not move in between. Build after the forces, drop once the
/// cells are advected.
struct VertexStencils {
    set: StencilSet,
    /// Index in `set` of the first vertex of the cell in each slot.
    first: Vec<usize>,
}

impl VertexStencils {
    /// Stencils of every vertex of `pool` on `lattice`; `to_lattice` maps
    /// world → lattice coordinates. `to_lattice` is not `Sync`, so it is
    /// applied here, on the caller, into one O(vertices) buffer.
    fn new(
        lattice: &Lattice,
        pool: &CellPool,
        kernel: DeltaKernel,
        to_lattice: impl Fn(Vec3) -> Vec3,
    ) -> Self {
        let total: usize = pool.iter().map(|c| c.vertices.len()).sum();
        let mut positions = Vec::with_capacity(total);
        let mut first = vec![0; pool.capacity()];
        for (slot, cell) in pool.iter_slots() {
            first[slot] = positions.len();
            positions.extend(cell.vertices.iter().map(|&v| to_lattice(v)));
        }
        Self {
            set: StencilSet::new(lattice, &positions, kernel),
            first,
        }
    }

    /// Spread every vertex force, scaled by `force_scale` (world → lattice
    /// units), onto the lattice force field. One spread for the whole
    /// suspension, vertices in slot order: that is the order every lattice
    /// node sums its contributions in.
    ///
    /// # Panics
    /// Panics if the pool's vertices changed since the stencils were built.
    fn spread(&self, lattice: &mut Lattice, pool: &CellPool, force_scale: f64) {
        let mut forces = Vec::with_capacity(self.set.len());
        for cell in pool.iter() {
            forces.extend(cell.forces.iter().map(|&f| f * force_scale));
        }
        let mut field = std::mem::take(&mut lattice.force);
        self.set.spread_into(lattice, &forces, &mut field);
        lattice.force = field;
    }

    /// Interpolate lattice velocities at every vertex and advect the cells
    /// in parallel; `dt_world` converts one lattice step of displacement
    /// into world units (see [`advect_cells`]).
    ///
    /// # Panics
    /// Panics if the pool's slots changed since the stencils were built.
    fn advect(&self, lattice: &Lattice, pool: &mut CellPool, dt_world: f64) {
        assert_eq!(self.first.len(), pool.capacity(), "pool changed");
        pool.par_for_each_slot_mut(|slot, cell| {
            let first = self.first[slot];
            cell.advect(dt_world, |k, _| self.set.interpolate(lattice, first + k));
        });
    }
}

/// One FSI sub-step of the cells in `pool` on `lattice`, as the engines
/// run it: membrane and contact forces, the spread, `advance` (the
/// engine's lattice update), then interpolation and advection. One stencil
/// per vertex serves both transfers and is dropped at the end.
///
/// The contact grid is rebuilt only when `rebuild` is set. Contact forces
/// do not read it; window maintenance and moves do, after the step, so an
/// engine sets `rebuild` on its last sub-step and the grid then holds the
/// positions from the start of that sub-step, as [`compute_contact_forces`]
/// on every sub-step would leave it.
pub fn substep(
    lattice: &mut Lattice,
    pool: &mut CellPool,
    grid: &mut UniformSubgrid,
    contact: ContactParams,
    kernel: DeltaKernel,
    rebuild: bool,
    advance: impl FnOnce(&mut Lattice),
) {
    {
        let _s = apr_telemetry::span("fsi.membrane_forces");
        compute_membrane_forces(pool);
    }
    {
        let _s = apr_telemetry::span("fsi.contact_forces");
        if rebuild {
            rebuild_grid(grid, pool);
        }
        apply_contact_forces(pool, grid.bin_size, contact);
    }
    let stencils = {
        let _s = apr_telemetry::span("fsi.spread");
        lattice.clear_forces();
        let stencils = VertexStencils::new(lattice, pool, kernel, |v| v);
        stencils.spread(lattice, pool, 1.0);
        stencils
    };
    advance(lattice);
    let _s = apr_telemetry::span("fsi.interpolate");
    stencils.advect(lattice, pool, 1.0);
}

/// Spread every cell's vertex forces onto the lattice force field.
/// Positions are mapped by `to_lattice` (world → lattice coordinates);
/// force magnitudes are scaled by `force_scale` (world → lattice units).
/// Its transients are the stencils, the mapped positions and the scaled
/// forces (O(vertices)), and the spread's slab bins.
pub fn spread_cell_forces(
    lattice: &mut Lattice,
    pool: &CellPool,
    kernel: DeltaKernel,
    to_lattice: impl Fn(Vec3) -> Vec3,
    force_scale: f64,
) {
    VertexStencils::new(lattice, pool, kernel, to_lattice).spread(lattice, pool, force_scale);
}

/// Interpolate lattice velocities at every vertex and advect the cells.
/// `to_lattice` maps world → lattice coordinates; `dt_world` converts one
/// lattice step of displacement back into world units (for a lattice whose
/// spacing is `1/n` world units per node, pass `1/n`).
pub fn advect_cells(
    lattice: &Lattice,
    pool: &mut CellPool,
    kernel: DeltaKernel,
    to_lattice: impl Fn(Vec3) -> Vec3 + Sync,
    dt_world: f64,
) {
    // Interpolation reads the lattice only, so each vertex is moved in
    // place as soon as its velocity is known (Eq. 5).
    pool.par_for_each_mut(|cell| {
        cell.advect(dt_world, |_, x| {
            interpolate_velocity(lattice, to_lattice(x), kernel)
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_cells::CellKind;
    use apr_membrane::{Membrane, MembraneMaterial, ReferenceState};
    use apr_mesh::icosphere;
    use std::sync::Arc;

    fn pool_with_sphere(radius: f64, center: Vec3) -> CellPool {
        let mesh = icosphere(2, radius);
        let re = Arc::new(ReferenceState::build(&mesh));
        let mem = Arc::new(Membrane::new(re, MembraneMaterial::rbc(1e-3, 1e-5)));
        let mut pool = CellPool::with_capacity(4);
        let verts = mesh.vertices.iter().map(|&v| v + center).collect();
        pool.insert_shape(CellKind::Rbc, mem, verts);
        pool
    }

    #[test]
    fn undeformed_cell_exerts_negligible_force() {
        let mut pool = pool_with_sphere(3.0, Vec3::splat(8.0));
        compute_membrane_forces(&mut pool);
        let cell = pool.iter().next().unwrap();
        assert!(cell.membrane.energy(&cell.vertices).total().abs() < 1e-12);
        let mut lat = Lattice::new(16, 16, 16, 1.0);
        lat.periodic = [true, true, true];
        spread_cell_forces(&mut lat, &pool, DeltaKernel::Cosine4, |v| v, 1.0);
        let total: f64 = lat.force.iter().map(|f| f.abs()).sum();
        assert!(total < 1e-9, "force leak {total}");
    }

    #[test]
    fn advection_follows_uniform_flow() {
        let mut pool = pool_with_sphere(2.0, Vec3::splat(8.0));
        let mut lat = Lattice::new(16, 16, 16, 1.0);
        lat.periodic = [true, true, true];
        lat.initialize_equilibrium(1.0, [0.02, 0.0, -0.01]);
        let c0 = pool.iter().next().unwrap().centroid();
        for _ in 0..10 {
            advect_cells(&lat, &mut pool, DeltaKernel::Cosine4, |v| v, 1.0);
        }
        let c1 = pool.iter().next().unwrap().centroid();
        let expected = c0 + Vec3::new(0.2, 0.0, -0.1);
        assert!((c1 - expected).norm() < 1e-9, "{c1:?}");
    }

    #[test]
    fn coordinate_mapping_offsets_spreading() {
        // World coordinates offset by (−4, −4, −4) must deposit forces at
        // the mapped lattice location.
        let mut pool = pool_with_sphere(2.0, Vec3::splat(12.0));
        // Deform slightly so forces exist.
        for cell in pool.iter_mut() {
            for v in &mut cell.vertices {
                *v = Vec3::splat(12.0) + (*v - Vec3::splat(12.0)) * 1.05;
            }
        }
        compute_membrane_forces(&mut pool);
        let mut lat = Lattice::new(16, 16, 16, 1.0);
        lat.periodic = [true, true, true];
        spread_cell_forces(
            &mut lat,
            &pool,
            DeltaKernel::Cosine4,
            |v| v - Vec3::splat(4.0),
            1.0,
        );
        // Forces centred near lattice (8,8,8), not (12,12,12).
        let near = lat.idx(8, 8, 8);
        let far = lat.idx(14, 14, 14);
        let mag = |n: usize| {
            (lat.force[n * 3].powi(2) + lat.force[n * 3 + 1].powi(2) + lat.force[n * 3 + 2].powi(2))
                .sqrt()
        };
        // The shell of the sphere (radius 2.1 around centre 8) carries force.
        let shell = lat.idx(10, 8, 8);
        assert!(mag(shell) + mag(near) > 0.0);
        assert_eq!(mag(far), 0.0);
    }
}

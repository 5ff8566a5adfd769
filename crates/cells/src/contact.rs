//! Short-range intercellular contact forces.
//!
//! Explicitly resolved cells must not interpenetrate; a stiff short-range
//! vertex–vertex repulsion (quadratic in overlap depth, zero at the cutoff)
//! supplies the sub-grid lubrication the fluid cannot resolve. Applied
//! through the same uniform subgrid as overlap detection.

use crate::pool::CellPool;
use crate::subgrid::UniformSubgrid;
use apr_mesh::Vec3;

/// Parameters of the contact (repulsion) model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactParams {
    /// Interaction cutoff distance (typically one fine lattice spacing).
    pub cutoff: f64,
    /// Force magnitude scale at full overlap.
    pub strength: f64,
}

impl ContactParams {
    /// Repulsion force magnitude at separation `d`: `k·(1 − d/d₀)²` inside
    /// the cutoff, zero outside.
    #[inline]
    pub fn magnitude(&self, d: f64) -> f64 {
        if d >= self.cutoff {
            0.0
        } else {
            let x = 1.0 - d / self.cutoff;
            self.strength * x * x
        }
    }
}

/// Rebuild `grid` from all live cells in `pool`.
pub fn rebuild_grid(grid: &mut UniformSubgrid, pool: &CellPool) {
    grid.clear();
    for cell in pool.iter() {
        grid.insert_cell(cell.id, &cell.vertices);
    }
}

/// Accumulate pairwise vertex–vertex repulsion forces between different
/// cells into each cell's force buffer. Returns the number of interacting
/// vertex pairs (each pair counted twice, once from each side — the paper's
/// halo-force *recomputation* strategy, §2.4.5: every owner computes forces
/// for all of its vertices rather than communicating partner forces).
pub fn apply_contact_forces(
    pool: &mut CellPool,
    grid: &UniformSubgrid,
    params: ContactParams,
) -> usize {
    let mut pairs = 0;
    // Contact sums are formed from zero and added to the membrane forces
    // afterwards (the association the forces have always had); the buffer
    // is shared by all cells of the call.
    let mut contact: Vec<Vec3> = Vec::new();
    for slot in 0..pool.capacity() {
        let Some(cell) = pool.get(slot) else { continue };
        let id = cell.id;
        contact.clear();
        contact.resize(cell.vertex_count(), Vec3::ZERO);
        for (sum, &p) in contact.iter_mut().zip(&cell.vertices) {
            grid.for_each_neighbor(p, params.cutoff, id, |entry| {
                let d = entry.position.distance(p);
                let mag = params.magnitude(d);
                if mag > 0.0 {
                    let dir = if d > 1e-12 {
                        (p - entry.position) / d
                    } else {
                        // Coincident points: deterministic push along x.
                        Vec3::X
                    };
                    *sum += dir * mag;
                    pairs += 1;
                }
            });
        }
        let cell = pool.get_mut(slot).expect("slot vanished");
        for (f, add) in cell.forces.iter_mut().zip(&contact) {
            *f += *add;
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use apr_membrane::{Membrane, MembraneMaterial, ReferenceState};
    use apr_mesh::{icosphere, Vec3};
    use std::sync::Arc;

    fn pool_with_two_spheres(gap: f64) -> CellPool {
        let mesh = icosphere(1, 1.0);
        let re = Arc::new(ReferenceState::build(&mesh));
        let mem = Arc::new(Membrane::new(re, MembraneMaterial::rbc(1.0, 0.01)));
        let mut pool = CellPool::with_capacity(4);
        let (s0, _) = pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), mesh.vertices.clone());
        let (s1, _) = pool.insert_shape(CellKind::Rbc, mem, mesh.vertices.clone());
        pool.get_mut(s0)
            .unwrap()
            .translate(Vec3::new(-(1.0 + gap / 2.0), 0.0, 0.0));
        pool.get_mut(s1)
            .unwrap()
            .translate(Vec3::new(1.0 + gap / 2.0, 0.0, 0.0));
        pool
    }

    #[test]
    fn magnitude_vanishes_at_cutoff() {
        let p = ContactParams {
            cutoff: 0.5,
            strength: 2.0,
        };
        assert_eq!(p.magnitude(0.5), 0.0);
        assert_eq!(p.magnitude(0.6), 0.0);
        assert!((p.magnitude(0.0) - 2.0).abs() < 1e-15);
        assert!(p.magnitude(0.25) > 0.0);
    }

    #[test]
    fn touching_cells_repel_apart() {
        let mut pool = pool_with_two_spheres(0.05);
        let mut grid = UniformSubgrid::new(0.3);
        rebuild_grid(&mut grid, &pool);
        let params = ContactParams {
            cutoff: 0.2,
            strength: 1.0,
        };
        let pairs = apply_contact_forces(&mut pool, &grid, params);
        assert!(
            pairs > 0,
            "cells at 0.05 gap must interact under 0.2 cutoff"
        );
        let mut it = pool.iter();
        let a = it.next().unwrap();
        let b = it.next().unwrap();
        let fa: Vec3 = a.forces.iter().copied().sum();
        let fb: Vec3 = b.forces.iter().copied().sum();
        // Left cell pushed further left, right cell further right.
        assert!(fa.x < 0.0, "fa = {fa:?}");
        assert!(fb.x > 0.0, "fb = {fb:?}");
        // Newton's third law across the pair (both sides recomputed).
        assert!((fa + fb).norm() < 1e-9 * fa.norm().max(fb.norm()));
    }

    #[test]
    fn distant_cells_do_not_interact() {
        let mut pool = pool_with_two_spheres(1.0);
        let mut grid = UniformSubgrid::new(0.3);
        rebuild_grid(&mut grid, &pool);
        let params = ContactParams {
            cutoff: 0.2,
            strength: 1.0,
        };
        let pairs = apply_contact_forces(&mut pool, &grid, params);
        assert_eq!(pairs, 0);
        for c in pool.iter() {
            assert!(c.forces.iter().all(|f| f.norm() == 0.0));
        }
    }

    #[test]
    fn self_interactions_are_excluded() {
        // A single cell alone in the grid receives no contact force even
        // though its own vertices are within the cutoff of each other.
        let mesh = icosphere(2, 1.0);
        let re = Arc::new(ReferenceState::build(&mesh));
        let mem = Arc::new(Membrane::new(re, MembraneMaterial::rbc(1.0, 0.01)));
        let mut pool = CellPool::with_capacity(2);
        pool.insert_shape(CellKind::Rbc, mem, mesh.vertices);
        let mut grid = UniformSubgrid::new(0.5);
        rebuild_grid(&mut grid, &pool);
        let params = ContactParams {
            cutoff: 0.4,
            strength: 1.0,
        };
        let pairs = apply_contact_forces(&mut pool, &grid, params);
        assert_eq!(pairs, 0);
    }
}

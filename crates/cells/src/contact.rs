//! Short-range intercellular contact forces.
//!
//! Explicitly resolved cells must not interpenetrate; a stiff short-range
//! vertex–vertex repulsion (quadratic in overlap depth, zero at the cutoff)
//! supplies the sub-grid lubrication the fluid cannot resolve.
//!
//! Pairs are found cell by cell: a sweep over inflated bounding boxes names
//! the cell pairs that can touch, and only the vertices of each that lie
//! inside the other's inflated box are tested. Each vertex then sums its forces in
//! one fixed order — by the neighbour's bin (x, then y, then z), then the
//! neighbour's slot, then its vertex index — the order a per-vertex query
//! of a [`UniformSubgrid`](crate::UniformSubgrid) with that bin size visits
//! them in, so the forces do not depend on how the pairs were found.

use crate::pool::{CellPool, SlotIndex};
use crate::subgrid::{bin_key, UniformSubgrid};
use apr_mesh::Vec3;

/// Parameters of the contact (repulsion) model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactParams {
    /// Interaction cutoff distance (the engines default to 1.2 fine
    /// lattice spacings).
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

/// An axis-aligned box.
#[derive(Clone, Copy)]
struct Aabb {
    lo: Vec3,
    hi: Vec3,
}

impl Aabb {
    fn around(vertices: &[Vec3]) -> Self {
        // `f64::min`/`max` skip NaN, so a NaN vertex never widens a box
        // (and never lies inside one); a cell of NaN stays empty.
        let mut lo = Vec3::splat(f64::INFINITY);
        let mut hi = Vec3::splat(f64::NEG_INFINITY);
        for &v in vertices {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Self { lo, hi }
    }

    fn grown(self, margin: f64) -> Self {
        Self {
            lo: self.lo - Vec3::splat(margin),
            hi: self.hi + Vec3::splat(margin),
        }
    }

    #[inline]
    fn contains(&self, p: Vec3) -> bool {
        self.lo.x <= p.x
            && p.x <= self.hi.x
            && self.lo.y <= p.y
            && p.y <= self.hi.y
            && self.lo.z <= p.z
            && p.z <= self.hi.z
    }

    #[inline]
    fn overlaps(&self, o: &Aabb) -> bool {
        self.lo.x <= o.hi.x
            && o.lo.x <= self.hi.x
            && self.lo.y <= o.hi.y
            && o.lo.y <= self.hi.y
            && self.lo.z <= o.hi.z
            && o.lo.z <= self.hi.z
    }

    /// Replace `out` with the vertices (index, position) inside the box.
    fn collect_inside(&self, vertices: &[Vec3], out: &mut Vec<(u32, Vec3)>) {
        out.clear();
        for (v, &p) in vertices.iter().enumerate() {
            if self.contains(p) {
                out.push((v as u32, p));
            }
        }
    }
}

/// A live cell's bounding box, and the box grown by the broad-phase margin.
struct CellBox {
    slot: SlotIndex,
    raw: Aabb,
    grown: Aabb,
}

/// One side of an interacting vertex pair: the force on `slot`'s `vertex`
/// from `other`'s `other_vertex`, which lies in bin `bin`.
struct Hit {
    slot: SlotIndex,
    vertex: u32,
    bin: (i64, i64, i64),
    other: SlotIndex,
    other_vertex: u32,
    force: Vec3,
}

/// Force on `p` from another cell's vertex `q` (bins of edge `bin_size`),
/// or `None` where a grid query around `p` would not have counted `q`:
/// outside the cutoff, outside the query's bin range, or zero magnitude.
#[inline]
fn side_force(p: Vec3, q: Vec3, bin_size: f64, params: ContactParams) -> Option<Vec3> {
    let r = params.cutoff;
    let within = q.distance_sq(p) <= r * r;
    if !within {
        return None;
    }
    // The query visits only the bins `p ± r` spans. While `r * r` is a
    // normal float every pair with a positive magnitude lies inside them;
    // for a cutoff whose square underflows this test decides.
    let (lo, hi, k) = (
        bin_key(p - Vec3::splat(r), bin_size),
        bin_key(p + Vec3::splat(r), bin_size),
        bin_key(q, bin_size),
    );
    let in_bins = (lo.0..=hi.0).contains(&k.0)
        && (lo.1..=hi.1).contains(&k.1)
        && (lo.2..=hi.2).contains(&k.2);
    if !in_bins {
        return None;
    }
    let d = q.distance(p);
    let mag = params.magnitude(d);
    let dir = if d > 1e-12 {
        (p - q) / d
    } else {
        // Coincident points: deterministic push along x.
        Vec3::X
    };
    (mag > 0.0).then(|| dir * mag)
}

/// Accumulate pairwise vertex–vertex repulsion forces between different
/// cells into each cell's force buffer. Returns the number of interacting
/// vertex pairs (each pair counted twice, once from each side — the paper's
/// halo-force *recomputation* strategy, §2.4.5: every owner computes forces
/// for all of its vertices rather than communicating partner forces).
///
/// `bin_size` fixes the summation order (see the module docs): the result
/// is bit-identical to querying a [`UniformSubgrid`] of that bin size,
/// rebuilt from `pool`, around every vertex.
pub fn apply_contact_forces(pool: &mut CellPool, bin_size: f64, params: ContactParams) -> usize {
    // The exact test keeps a pair only if no coordinate differs by more
    // than the cutoff: a larger difference rounds to at least the cutoff,
    // its square to at least `r2`, and `d` to at least the cutoff, where
    // the magnitude is zero. That holds while `r2` is a normal float; the
    // absolute term covers cutoffs whose square underflows, and the eighth
    // is slack.
    let margin = 1.125 * params.cutoff + f64::MIN_POSITIVE.sqrt();
    let mut boxes: Vec<CellBox> = pool
        .iter_slots()
        .map(|(slot, cell)| {
            debug_assert!(u32::try_from(cell.vertex_count()).is_ok());
            let raw = Aabb::around(&cell.vertices);
            let grown = raw.grown(margin);
            CellBox { slot, raw, grown }
        })
        .collect();
    let low_x = |a: &CellBox, b: &CellBox| a.grown.lo.x.total_cmp(&b.grown.lo.x);
    boxes.sort_unstable_by(|a, b| low_x(a, b).then(a.slot.cmp(&b.slot)));

    let r2 = params.cutoff * params.cutoff;
    let mut hits: Vec<Hit> = Vec::new();
    let (mut near_a, mut near_b) = (Vec::new(), Vec::new());
    for (i, box_a) in boxes.iter().enumerate() {
        // A vertex pair can interact only if each vertex lies in the
        // other cell's grown box, so one cell's box must meet the other's
        // grown box.
        let later = boxes[i + 1..].iter();
        for box_b in later.take_while(|b| b.grown.lo.x <= box_a.raw.hi.x) {
            if !box_a.raw.overlaps(&box_b.grown) {
                continue;
            }
            let a = pool.get(box_a.slot).expect("boxed slot is live");
            let b = pool.get(box_b.slot).expect("boxed slot is live");
            box_b.grown.collect_inside(&a.vertices, &mut near_a);
            if near_a.is_empty() {
                continue;
            }
            box_a.grown.collect_inside(&b.vertices, &mut near_b);
            let (sa, sb) = (box_a.slot, box_b.slot);
            for &(va, pa) in &near_a {
                // Both sides start from this test, and `(a − b)²` and
                // `(b − a)²` are the same bits.
                let close = near_b.iter().filter(|(_, pb)| pb.distance_sq(pa) <= r2);
                for &(vb, pb) in close {
                    for (slot, vertex, p, other, other_vertex, q) in
                        [(sa, va, pa, sb, vb, pb), (sb, vb, pb, sa, va, pa)]
                    {
                        if let Some(force) = side_force(p, q, bin_size, params) {
                            hits.push(Hit {
                                slot,
                                vertex,
                                bin: bin_key(q, bin_size),
                                other,
                                other_vertex,
                                force,
                            });
                        }
                    }
                }
            }
        }
    }
    hits.sort_unstable_by_key(|h| (h.slot, h.vertex, h.bin, h.other, h.other_vertex));

    // Every vertex's contact sum is formed from zero and then added to its
    // membrane force, hits or none (`-0.0 + 0.0` is `+0.0`).
    let mut next = hits.iter().peekable();
    for slot in 0..pool.capacity() {
        let Some(cell) = pool.get_mut(slot) else {
            continue;
        };
        for v in 0..cell.vertex_count() {
            let mut sum = Vec3::ZERO;
            while let Some(h) = next.next_if(|h| h.slot == slot && h.vertex as usize == v) {
                sum += h.force;
            }
            if let Some(f) = cell.forces.get_mut(v) {
                *f += sum;
            }
        }
    }
    hits.len()
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
        let pairs = apply_contact_forces(&mut pool, grid.bin_size, params);
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
        let pairs = apply_contact_forces(&mut pool, grid.bin_size, params);
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
        let pairs = apply_contact_forces(&mut pool, grid.bin_size, params);
        assert_eq!(pairs, 0);
    }
}

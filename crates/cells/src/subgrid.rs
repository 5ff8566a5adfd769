//! Uniform background subgrid for neighbour queries (paper §2.4.2: overlaps
//! are detected "by identifying nearby cells at each vertex of the tested
//! cell, using a background uniform subgrid").

use apr_mesh::Vec3;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for the integer bin keys. Keys come from vertex
/// positions of the simulation itself, never from outside input, so the
/// flooding resistance of the default SipHash buys nothing here; queries
/// name their bins explicitly, so the hash never decides an order.
#[derive(Debug, Clone, Copy, Default)]
struct BinHasher(u64);

impl Hasher for BinHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the entropy in the high bits; the table
        // indexes with the low ones.
        self.0 ^ (self.0 >> 32)
    }
}

/// Bin of `p` in a grid of cubic bins with edge `bin_size`.
#[inline]
pub(crate) fn bin_key(p: Vec3, bin_size: f64) -> (i64, i64, i64) {
    (
        (p.x / bin_size).floor() as i64,
        (p.y / bin_size).floor() as i64,
        (p.z / bin_size).floor() as i64,
    )
}

/// A point sample registered in the subgrid: owning cell and vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridEntry {
    /// Owning cell's global ID.
    pub cell_id: u64,
    /// Vertex index within the cell.
    pub vertex: u32,
    /// Sample position.
    pub position: Vec3,
}

/// Sparse uniform spatial hash over vertex samples.
#[derive(Debug, Clone)]
pub struct UniformSubgrid {
    /// Cubic bin edge length.
    pub bin_size: f64,
    bins: HashMap<(i64, i64, i64), Vec<GridEntry>, BuildHasherDefault<BinHasher>>,
    len: usize,
}

impl UniformSubgrid {
    /// New empty subgrid with cubic bins of edge `bin_size`.
    ///
    /// Choose `bin_size` at or above the query radius so neighbour searches
    /// touch at most 27 bins.
    pub fn new(bin_size: f64) -> Self {
        assert!(bin_size > 0.0, "bin size must be positive, got {bin_size}");
        Self {
            bin_size,
            bins: HashMap::default(),
            len: 0,
        }
    }

    /// Number of registered samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no samples are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Register a vertex sample.
    pub fn insert(&mut self, cell_id: u64, vertex: u32, position: Vec3) {
        self.bins
            .entry(bin_key(position, self.bin_size))
            .or_default()
            .push(GridEntry {
                cell_id,
                vertex,
                position,
            });
        self.len += 1;
    }

    /// Register every vertex of a cell.
    pub fn insert_cell(&mut self, cell_id: u64, vertices: &[Vec3]) {
        for (i, &v) in vertices.iter().enumerate() {
            self.insert(cell_id, i as u32, v);
        }
    }

    /// Remove every sample owned by `cell_id` (linear in touched bins).
    pub fn remove_cell(&mut self, cell_id: u64) {
        for bin in self.bins.values_mut() {
            let before = bin.len();
            bin.retain(|e| e.cell_id != cell_id);
            self.len -= before - bin.len();
        }
        self.bins.retain(|_, v| !v.is_empty());
    }

    /// Drop all samples, keeping allocated bins for reuse.
    pub fn clear(&mut self) {
        for bin in self.bins.values_mut() {
            bin.clear();
        }
        self.len = 0;
    }

    /// Visit every sample within `radius` of `p` (excluding samples from
    /// `exclude_cell`, pass `u64::MAX` to include all).
    pub fn for_each_neighbor<F: FnMut(&GridEntry)>(
        &self,
        p: Vec3,
        radius: f64,
        exclude_cell: u64,
        mut visit: F,
    ) {
        let r2 = radius * radius;
        let lo = bin_key(p - Vec3::splat(radius), self.bin_size);
        let hi = bin_key(p + Vec3::splat(radius), self.bin_size);
        for bx in lo.0..=hi.0 {
            for by in lo.1..=hi.1 {
                for bz in lo.2..=hi.2 {
                    let Some(bin) = self.bins.get(&(bx, by, bz)) else {
                        continue;
                    };
                    for e in bin {
                        if e.cell_id != exclude_cell && e.position.distance_sq(p) <= r2 {
                            visit(e);
                        }
                    }
                }
            }
        }
    }

    /// Distinct cell IDs with at least one sample within `radius` of `p`.
    pub fn cells_near(&self, p: Vec3, radius: f64, exclude_cell: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_each_neighbor(p, radius, exclude_cell, |e| {
            if !out.contains(&e.cell_id) {
                out.push(e.cell_id);
            }
        });
        out.sort_unstable();
        out
    }

    /// Does any sample (other than `exclude_cell`'s) lie within `radius`?
    pub fn has_neighbor_within(&self, p: Vec3, radius: f64, exclude_cell: u64) -> bool {
        let mut found = false;
        self.for_each_neighbor(p, radius, exclude_cell, |_| found = true);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_points_within_radius() {
        let mut g = UniformSubgrid::new(1.0);
        g.insert(1, 0, Vec3::new(0.0, 0.0, 0.0));
        g.insert(2, 0, Vec3::new(0.9, 0.0, 0.0));
        g.insert(3, 0, Vec3::new(3.0, 0.0, 0.0));
        let near = g.cells_near(Vec3::ZERO, 1.0, u64::MAX);
        assert_eq!(near, vec![1, 2]);
    }

    #[test]
    fn excludes_own_cell() {
        let mut g = UniformSubgrid::new(1.0);
        g.insert(5, 0, Vec3::ZERO);
        g.insert(6, 0, Vec3::new(0.1, 0.0, 0.0));
        assert_eq!(g.cells_near(Vec3::ZERO, 0.5, 5), vec![6]);
        assert!(g.has_neighbor_within(Vec3::ZERO, 0.5, 6));
        // Excluding cell 5 leaves only cell 6 at distance 0.1 — outside 0.05.
        assert!(!g.has_neighbor_within(Vec3::ZERO, 0.05, 5));
    }

    #[test]
    fn negative_coordinates_hash_correctly() {
        let mut g = UniformSubgrid::new(2.0);
        g.insert(1, 0, Vec3::new(-0.1, -0.1, -0.1));
        assert!(g.has_neighbor_within(Vec3::new(0.1, 0.1, 0.1), 1.0, u64::MAX));
        assert!(!g.has_neighbor_within(Vec3::new(5.0, 5.0, 5.0), 1.0, u64::MAX));
    }

    #[test]
    fn remove_cell_clears_its_samples() {
        let mut g = UniformSubgrid::new(1.0);
        g.insert_cell(9, &[Vec3::ZERO, Vec3::X, Vec3::Y]);
        g.insert(10, 0, Vec3::Z);
        assert_eq!(g.len(), 4);
        g.remove_cell(9);
        assert_eq!(g.len(), 1);
        assert!(!g.has_neighbor_within(Vec3::ZERO, 0.5, u64::MAX));
        assert!(g.has_neighbor_within(Vec3::Z, 0.5, u64::MAX));
    }

    #[test]
    fn search_spans_bin_boundaries() {
        let mut g = UniformSubgrid::new(1.0);
        // Two points in adjacent bins, close together across the boundary.
        g.insert(1, 0, Vec3::new(0.95, 0.5, 0.5));
        g.insert(2, 0, Vec3::new(1.05, 0.5, 0.5));
        assert_eq!(
            g.cells_near(Vec3::new(1.0, 0.5, 0.5), 0.2, u64::MAX),
            vec![1, 2]
        );
    }

    #[test]
    fn clear_retains_capacity_semantics() {
        let mut g = UniformSubgrid::new(1.0);
        g.insert_cell(1, &[Vec3::ZERO, Vec3::X]);
        g.clear();
        assert!(g.is_empty());
        g.insert(2, 0, Vec3::ZERO);
        assert_eq!(g.len(), 1);
    }
}

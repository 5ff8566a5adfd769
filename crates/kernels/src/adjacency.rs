//! Precomputed streaming adjacency.
//!
//! `Lattice::stream` historically resolved every link with a
//! branch-per-axis periodic-wrap closure plus a `HashMap` probe for
//! moving-wall data — per link, per step. This module does that work once,
//! at geometry-freeze time, compiling the whole streaming stencil into a
//! flat table of per-link *ops* that both kernel backends can replay with
//! nothing but indexed loads.
//!
//! ## Op encoding
//!
//! One `u32` per `(node, direction)` link, for directions `1..19`:
//! a 3-bit tag in the top bits and a 29-bit payload (partner storage slot,
//! see [`crate::layout`], or moving-coefficient index) below. For a fluid node `n` and direction `i`,
//! pull-streaming wants slot `(n, i)` to end up holding the post-collision
//! population `f*_i(m)` of the source node `m = n − c_i`. After the fused
//! kernel's collision phase stores each node's populations
//! *direction-reversed* (slot `(n, i)` holds `f*_opp(i)(n)`), every boundary
//! case reduces to one of five ops:
//!
//! - [`TAG_SWAP`]: `m` is fluid — exchange slots `(n, i) ↔ (m, opp(i))`.
//!   Emitted only for the nine [`FWD`] directions so each opposite pair is
//!   exchanged exactly once.
//! - [`TAG_DONE`]: nothing to do — a backward direction whose exchange is
//!   owned by the fluid partner's `SWAP`.
//! - [`TAG_LOAD`]: `m` is a velocity/pressure boundary node — copy its
//!   (naturally-stored, collision-exempt) population: `f[n,i] ← f[m,i]`.
//! - [`TAG_BOUNCE`]: `m` is a stationary wall/exterior or outside the
//!   domain — halfway bounce-back pulls the node's own opposite
//!   population, which is exactly what the reversed store already placed in
//!   slot `(n, i)`. A no-op at stream time.
//! - [`TAG_MOVING`]: like bounce, plus the moving-wall momentum term
//!   `6 w_i ρ(n) (c_i · u_wall)`; the `ρ`-independent factor is precomputed
//!   in [`AdjacencyTable::moving_coeff`].
//!
//! Every op touches a distinct slot set (a `SWAP` owns its pair; the only
//! would-be second writer of a `LOAD`/`BOUNCE`/`MOVING` slot is the source
//! node's own `SWAP`, and those sources are by definition not fluid), so
//! ops may execute in any order, on any lane — streaming becomes
//! embarrassingly parallel *and* bit-deterministic.
//!
//! ## Rows for `Slow` nodes only
//!
//! Interior nodes whose 18 neighbours are all fluid — the overwhelming bulk
//! of a dense box — are classified [`NodeKind::Fast`]: their ops are nine
//! swaps at slot offsets that are constant along a row
//! ([`AdjacencyTable::fast_offsets`]), so they have no row. Only [`NodeKind::Slow`] nodes (boundary or
//! periodic-wrap fluid) keep a row of [`ROW`] op words, stored in node
//! order; a sweep finds its first row through
//! [`AdjacencyTable::first_row`] (a per-plane count of earlier `Slow`
//! nodes) and then takes the next row at every `Slow` node it meets. The
//! table costs `ROW · 4 = 72` bytes per `Slow` node plus one [`NodeKind`]
//! byte per node.

use crate::d3q19::{C, OPPOSITE, Q, W};
use crate::layout::RowLayout;
use crate::view::NodeClass;

/// The nine "forward" directions: `c_i` lexicographically positive in
/// `(z, y, x)` priority, matching the flat index order
/// `node = x + nx·(y + ny·z)`. Each opposite pair has exactly one member
/// here, and for a forward direction the pull source `m = n − c_i` has a
/// smaller flat index than `n` whenever the link does not wrap.
pub const FWD: [usize; 9] = [1, 3, 5, 7, 10, 11, 14, 15, 18];

const IS_FWD: [bool; Q] = {
    let mut t = [false; Q];
    let mut k = 0;
    while k < FWD.len() {
        t[FWD[k]] = true;
        k += 1;
    }
    t
};

/// No stream-time work for this slot.
pub const TAG_DONE: u32 = 0;
/// Exchange slots `(n, i) ↔ (payload, opp(i))`.
pub const TAG_SWAP: u32 = 1;
/// Copy `f[payload, i]` into slot `(n, i)`.
pub const TAG_LOAD: u32 = 2;
/// Halfway bounce-back off a stationary obstacle: a no-op after the
/// reversed store.
pub const TAG_BOUNCE: u32 = 3;
/// Bounce-back off a moving wall: add the momentum term built from
/// `moving_coeff[payload]` and `ρ(n)`.
pub const TAG_MOVING: u32 = 4;
/// Bit position of the tag within an op word.
pub const TAG_SHIFT: u32 = 29;
/// Mask selecting the payload bits of an op word.
pub const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;

/// Per-node streaming classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeKind {
    /// Non-fluid: no collision, no ops.
    Skip = 0,
    /// Interior fluid with 18 fluid neighbours: nine constant-offset swaps,
    /// no table reads.
    Fast = 1,
    /// Fluid near a boundary or a periodic wrap: replay the op table.
    Slow = 2,
}

/// Neighbour flat index of `(x, y, z)` displaced by `c_i`, respecting
/// per-axis periodicity; `None` if the displacement leaves a non-periodic
/// domain. The free-function form of `Lattice::neighbor`, shared so the
/// table builder and the solver agree on wrap semantics by construction.
#[inline]
pub fn neighbor_index(
    dims: [usize; 3],
    periodic: [bool; 3],
    x: usize,
    y: usize,
    z: usize,
    i: usize,
) -> Option<usize> {
    neighbor_coords(dims, periodic, [x, y, z], i).map(|[x, y, z]| x + dims[0] * (y + dims[1] * z))
}

/// The coordinates [`neighbor_index`] flattens.
#[inline]
pub fn neighbor_coords(
    dims: [usize; 3],
    periodic: [bool; 3],
    at: [usize; 3],
    i: usize,
) -> Option<[usize; 3]> {
    let mut p = [0usize; 3];
    for a in 0..3 {
        let (d, c) = (dims[a] as i64, at[a] as i64 + C[i][a] as i64);
        p[a] = if (0..d).contains(&c) {
            c as usize
        } else if periodic[a] {
            ((c + d) % d) as usize
        } else {
            return None;
        };
    }
    Some(p)
}

/// Op words per `Slow` row: one per moving direction `1..19` (the rest
/// direction never streams).
pub const ROW: usize = Q - 1;

/// The compiled streaming stencil of one lattice geometry.
///
/// Holds no per-(node, direction) data: a `Fast` node's ops follow from
/// [`Self::fast_offsets`], and only `Slow` nodes keep a row ([`Self::row`]).
/// Swap and load payloads are storage slots under the [`RowLayout`] the
/// table was built for.
#[derive(Debug, Clone)]
pub struct AdjacencyTable {
    /// The op rows of the `Slow` nodes in node order, [`ROW`] words each:
    /// word `i − 1` of a row is direction `i`'s op.
    rows: Vec<u32>,
    /// Per-node execution class.
    pub kind: Vec<NodeKind>,
    /// Precomputed `(6 w_i, c_i · u_wall)` factor pairs for [`TAG_MOVING`]
    /// ops. Kept as two factors — not pre-multiplied — so the runtime can
    /// evaluate `6 w_i · ρ · (c·u)` in the reference kernel's exact
    /// association order and stay bit-identical.
    pub moving_coeff: Vec<[f64; 2]>,
    /// Row distance `c_y + ny·c_z` to each of the nine [`FWD`] pull
    /// sources of a node.
    fwd_rows: [usize; 9],
    /// Fluid-node count per z-plane — the cost model for guided chunking:
    /// a sparse tube plane costs what its fluid nodes cost, not what its
    /// bounding box suggests.
    pub fluid_per_plane: Vec<u32>,
    /// `Slow` nodes before each z-plane: the row index of the plane's first
    /// `Slow` node.
    slow_before_plane: Vec<u32>,
    /// Nodes per z-plane (at least 1).
    plane: usize,
}

impl AdjacencyTable {
    /// Compile the streaming stencil for a lattice geometry.
    ///
    /// `moving_walls` lists `(node, wall velocity)` sorted by node index;
    /// `layout` must store every stateful node.
    ///
    /// # Panics
    /// Panics if the node count exceeds the 29-bit payload range.
    pub fn build(
        nx: usize,
        ny: usize,
        nz: usize,
        periodic: [bool; 3],
        flags: &[NodeClass],
        moving_walls: &[(usize, [f64; 3])],
        layout: &RowLayout,
    ) -> Self {
        let n = nx * ny * nz;
        assert_eq!(flags.len(), n);
        assert!(
            n < (1usize << TAG_SHIFT),
            "lattice too large for 29-bit adjacency payloads: {n} nodes"
        );
        debug_assert!(moving_walls.windows(2).all(|w| w[0].0 < w[1].0));
        let dims = [nx, ny, nz];
        let mut rows = Vec::new();
        let mut kind = vec![NodeKind::Skip; n];
        let mut moving_coeff = Vec::new();
        let mut fluid_per_plane = vec![0u32; nz];
        let mut slow_before_plane = Vec::with_capacity(nz);
        // Only Fast (interior, dims ≥ 3) nodes ever use these distances;
        // degenerate dims can make them negative, but then no node
        // qualifies as Fast.
        let fwd_rows = FWD.map(|i| (C[i][1] as isize + ny as isize * C[i][2] as isize) as usize);
        let slot = |m: usize| -> u32 {
            layout
                .slot(m)
                .expect("the storage layout holds every stateful node") as u32
        };
        let moving = |node: usize| -> Option<[f64; 3]> {
            moving_walls
                .binary_search_by_key(&node, |e| e.0)
                .ok()
                .map(|j| moving_walls[j].1)
        };
        let mut row = [TAG_DONE; ROW];
        for (z, plane_fluid) in fluid_per_plane.iter_mut().enumerate() {
            slow_before_plane.push((rows.len() / ROW) as u32);
            for y in 0..ny {
                for x in 0..nx {
                    let node = x + nx * (y + ny * z);
                    if flags[node] != NodeClass::Fluid {
                        continue;
                    }
                    *plane_fluid += 1;
                    let mut fast =
                        x >= 1 && x + 1 < nx && y >= 1 && y + 1 < ny && z >= 1 && z + 1 < nz;
                    for (i, op) in (1..Q).zip(row.iter_mut()) {
                        // Pull source of slot (node, i): the neighbour the
                        // population streamed in from, one step along −c_i.
                        let src = neighbor_index(dims, periodic, x, y, z, OPPOSITE[i]);
                        if src.map(|m| flags[m] != NodeClass::Fluid).unwrap_or(true) {
                            fast = false;
                        }
                        *op = match src {
                            None => TAG_BOUNCE << TAG_SHIFT,
                            Some(m) => match flags[m] {
                                NodeClass::Fluid => {
                                    if IS_FWD[i] {
                                        (TAG_SWAP << TAG_SHIFT) | slot(m)
                                    } else {
                                        TAG_DONE
                                    }
                                }
                                NodeClass::Velocity | NodeClass::Pressure => {
                                    (TAG_LOAD << TAG_SHIFT) | slot(m)
                                }
                                NodeClass::Wall => match moving(m) {
                                    Some(uw) => {
                                        let cu = C[i][0] as f64 * uw[0]
                                            + C[i][1] as f64 * uw[1]
                                            + C[i][2] as f64 * uw[2];
                                        let idx = moving_coeff.len() as u32;
                                        assert!(idx < PAYLOAD_MASK, "moving-coeff overflow");
                                        moving_coeff.push([6.0 * W[i], cu]);
                                        (TAG_MOVING << TAG_SHIFT) | idx
                                    }
                                    None => TAG_BOUNCE << TAG_SHIFT,
                                },
                                NodeClass::Exterior => TAG_BOUNCE << TAG_SHIFT,
                            },
                        };
                    }
                    kind[node] = if fast {
                        NodeKind::Fast
                    } else {
                        rows.extend_from_slice(&row);
                        NodeKind::Slow
                    };
                }
            }
        }
        rows.shrink_to_fit();
        moving_coeff.shrink_to_fit();
        Self {
            rows,
            kind,
            moving_coeff,
            fwd_rows,
            fluid_per_plane,
            slow_before_plane,
            plane: (nx * ny).max(1),
        }
    }

    /// Number of nodes the table was built for.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.kind.len()
    }

    /// Number of `Slow` nodes, i.e. of op rows.
    #[inline]
    pub fn slow_count(&self) -> usize {
        self.rows.len() / ROW
    }

    /// Slot distances from a `Fast` node of row `r` to its nine [`FWD`]
    /// pull sources under `layout`: source `k` sits at `slot − off[k]`
    /// (wrapping). Constant along a row, so a sweep computes them once per
    /// row. Rows that hold no `Fast` node get values nothing reads.
    #[inline]
    pub fn fast_offsets(&self, layout: &RowLayout, r: usize) -> [usize; 9] {
        let origin = layout.origin(r);
        std::array::from_fn(|k| {
            let src = r.wrapping_sub(self.fwd_rows[k]);
            if src < layout.rows() {
                let dx = C[FWD[k]][0] as isize as usize;
                origin.wrapping_sub(layout.origin(src)).wrapping_add(dx)
            } else {
                0
            }
        })
    }

    /// Row index of the first `Slow` node at or after `node`: where a sweep
    /// starting at `node` finds its first row. O(1) at a plane boundary
    /// (every chunk of the kernels' plans starts at one), otherwise a scan
    /// of the plane's earlier nodes.
    pub fn first_row(&self, node: usize) -> usize {
        let Some(&before) = self.slow_before_plane.get(node / self.plane) else {
            return self.slow_count();
        };
        let start = node - node % self.plane;
        before as usize
            + self.kind[start..node]
                .iter()
                .filter(|&&k| k == NodeKind::Slow)
                .count()
    }

    /// The op row with index `r`: word `i − 1` is direction `i`'s op.
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.rows[r * ROW..(r + 1) * ROW]
    }

    /// Heap footprint of the table in bytes.
    pub fn bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u32>()
            + self.kind.len()
            + self.moving_coeff.capacity() * std::mem::size_of::<[f64; 2]>()
            + (self.fluid_per_plane.len() + self.slow_before_plane.capacity())
                * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_fluid(n: usize) -> Vec<NodeClass> {
        vec![NodeClass::Fluid; n]
    }

    /// A table over the stateful storage layout of `flags`, with ops whose
    /// payloads read back as node indices ([`Table::op`]).
    struct Table {
        t: AdjacencyTable,
        layout: RowLayout,
        /// Node index of each slot.
        nodes: Vec<usize>,
        nx: usize,
    }

    impl std::ops::Deref for Table {
        type Target = AdjacencyTable;
        fn deref(&self) -> &AdjacencyTable {
            &self.t
        }
    }

    fn build(
        dims: [usize; 3],
        periodic: [bool; 3],
        flags: &[NodeClass],
        moving: &[(usize, [f64; 3])],
    ) -> Table {
        let [nx, ny, nz] = dims;
        let layout = RowLayout::stateful(nx, ny, nz, flags);
        let t = AdjacencyTable::build(nx, ny, nz, periodic, flags, moving, &layout);
        let nodes = (0..flags.len())
            .filter(|&n| layout.slot(n).is_some())
            .collect();
        Table {
            t,
            layout,
            nodes,
            nx,
        }
    }

    impl Table {
        /// Direction `i`'s op for fluid `node`: its row word if `Slow`,
        /// the op [`AdjacencyTable::fast_offsets`] implies if `Fast` (the
        /// row-free path). Swap and load payloads are translated from
        /// slots back to node indices.
        fn op(&self, node: usize, i: usize) -> u32 {
            let slot = self.layout.slot(node).expect("fluid nodes are stored");
            let op = match self.kind[node] {
                NodeKind::Slow => self.row(self.first_row(node))[i - 1],
                NodeKind::Fast => match FWD.iter().position(|&d| d == i) {
                    Some(k) => {
                        let off = self.fast_offsets(&self.layout, node / self.nx)[k];
                        (TAG_SWAP << TAG_SHIFT) | slot.wrapping_sub(off) as u32
                    }
                    None => TAG_DONE,
                },
                NodeKind::Skip => panic!("node {node} has no ops"),
            };
            match op >> TAG_SHIFT {
                TAG_SWAP | TAG_LOAD => {
                    (op & !PAYLOAD_MASK) | self.nodes[(op & PAYLOAD_MASK) as usize] as u32
                }
                _ => op,
            }
        }
    }

    /// A `Wall`-lined tube of radius `r` along z, periodic in z, exterior
    /// outside the wall layer.
    fn walled_tube(nx: usize, ny: usize, nz: usize, r: f64) -> Vec<NodeClass> {
        let (cx, cy) = ((nx - 1) as f64 / 2.0, (ny - 1) as f64 / 2.0);
        let mut flags = Vec::with_capacity(nx * ny * nz);
        for _z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let d = ((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt();
                    flags.push(if d <= r {
                        NodeClass::Fluid
                    } else if d <= r + 1.5 {
                        NodeClass::Wall
                    } else {
                        NodeClass::Exterior
                    });
                }
            }
        }
        flags
    }

    #[test]
    fn fwd_is_one_per_opposite_pair_and_positive() {
        let mut seen = [false; Q];
        for &i in &FWD {
            assert!(!seen[i] && !seen[OPPOSITE[i]], "pair {i} split twice");
            seen[i] = true;
            seen[OPPOSITE[i]] = true;
            // Lexicographic (z, y, x) positivity ⇒ positive flat offset.
            let c = C[i];
            assert!(
                c[2] > 0 || (c[2] == 0 && (c[1] > 0 || (c[1] == 0 && c[0] > 0))),
                "direction {i} not forward"
            );
        }
        assert!(seen.iter().skip(1).all(|&s| s), "every moving dir covered");
    }

    #[test]
    fn periodic_box_is_all_swaps() {
        let (nx, ny, nz) = (4, 4, 4);
        let flags = all_fluid(nx * ny * nz);
        let t = build([nx, ny, nz], [true; 3], &flags, &[]);
        let mut swaps = 0;
        for node in 0..nx * ny * nz {
            assert_ne!(t.kind[node], NodeKind::Skip);
            for i in 1..Q {
                let op = t.op(node, i);
                match op >> TAG_SHIFT {
                    TAG_SWAP => {
                        assert!(IS_FWD[i]);
                        swaps += 1;
                        let m = (op & PAYLOAD_MASK) as usize;
                        // The partner's mirrored slot must be DONE (the
                        // exchange is owned here, not there).
                        assert_eq!(t.op(m, OPPOSITE[i]), TAG_DONE);
                    }
                    TAG_DONE => assert!(!IS_FWD[i]),
                    tag => panic!("unexpected tag {tag} in periodic box"),
                }
            }
        }
        assert_eq!(swaps, nx * ny * nz * FWD.len(), "one swap per link pair");
        // Interior 2×2×2 block is Fast and row-free, wrap-touching shell is
        // Slow.
        let fast = t.kind.iter().filter(|&&k| k == NodeKind::Fast).count();
        assert_eq!(fast, 8);
        assert_eq!(t.slow_count(), nx * ny * nz - 8);
    }

    #[test]
    fn fast_offsets_match_table_payloads() {
        // Walls on x, periodic y and z: Fast nodes, wall-adjacent Slow nodes
        // and wrap Slow nodes.
        let (nx, ny, nz) = (6, 6, 7);
        let periodic = [false, true, true];
        let mut flags = all_fluid(nx * ny * nz);
        for (node, f) in flags.iter_mut().enumerate() {
            if node % nx == 0 || node % nx == nx - 1 {
                *f = NodeClass::Wall;
            }
        }
        let t = build([nx, ny, nz], periodic, &flags, &[]);
        let (mut fast, mut slow) = (0, 0);
        for node in 0..nx * ny * nz {
            let (x, y, z) = (node % nx, (node / nx) % ny, node / (nx * ny));
            let src = |i: usize| neighbor_index([nx, ny, nz], periodic, x, y, z, OPPOSITE[i]);
            match t.kind[node] {
                NodeKind::Skip => continue,
                NodeKind::Fast => fast += 1,
                NodeKind::Slow => slow += 1,
            }
            // Both paths name the true pull source as the swap partner.
            for i in FWD {
                let op = t.op(node, i);
                if src(i).is_some_and(|m| flags[m] == NodeClass::Fluid) {
                    assert_eq!(op >> TAG_SHIFT, TAG_SWAP, "node {node} dir {i}");
                    assert_eq!(Some((op & PAYLOAD_MASK) as usize), src(i));
                } else {
                    assert_eq!(t.kind[node], NodeKind::Slow);
                    assert_eq!(op >> TAG_SHIFT, TAG_BOUNCE, "node {node} dir {i}");
                }
            }
            // A Fast node really has 18 fluid neighbours.
            if t.kind[node] == NodeKind::Fast {
                assert!((1..Q).all(|i| src(i).is_some_and(|m| flags[m] == NodeClass::Fluid)));
            }
        }
        assert!(fast > 0 && slow > 0, "{fast} fast, {slow} slow");
        assert_eq!(t.slow_count(), slow);
    }

    #[test]
    fn first_row_counts_the_slow_nodes_before_any_start() {
        let flags = walled_tube(9, 8, 5, 3.0);
        let t = build([9, 8, 5], [false, false, true], &flags, &[]);
        let mut before = 0;
        for node in 0..=flags.len() {
            assert_eq!(t.first_row(node), before, "start {node}");
            if t.kind.get(node) == Some(&NodeKind::Slow) {
                before += 1;
            }
        }
        assert_eq!(before, t.slow_count());
    }

    #[test]
    fn degenerate_periodic_axis_self_swaps() {
        // A 1-node-wide periodic axis wraps a node onto itself; the swap
        // must still be emitted exactly once (slots i and opp(i) differ).
        let t = build([1, 1, 4], [true; 3], &all_fluid(4), &[]);
        for node in 0..4 {
            let op = t.op(node, 1); // +x wraps to self
            assert_eq!(op >> TAG_SHIFT, TAG_SWAP);
            assert_eq!((op & PAYLOAD_MASK) as usize, node);
        }
    }

    #[test]
    fn walls_and_bcs_get_the_right_tags() {
        // 3×1×1 closed tube: wall | fluid | velocity-inlet.
        let flags = [NodeClass::Wall, NodeClass::Fluid, NodeClass::Velocity];
        let t = build([3, 1, 1], [false; 3], &flags, &[]);
        assert_eq!(t.kind[0], NodeKind::Skip);
        assert_eq!(t.kind[2], NodeKind::Skip);
        assert_eq!(t.kind[1], NodeKind::Slow);
        assert_eq!(t.slow_count(), 1);
        // Direction +x pulls from node 0 (wall): bounce.
        assert_eq!(t.op(1, 1) >> TAG_SHIFT, TAG_BOUNCE);
        // Direction −x pulls from node 2 (velocity): load.
        let load = t.op(1, 2);
        assert_eq!(load >> TAG_SHIFT, TAG_LOAD);
        assert_eq!((load & PAYLOAD_MASK) as usize, 2);
        // Off-axis directions leave the (non-periodic) domain: bounce.
        assert_eq!(t.op(1, 3) >> TAG_SHIFT, TAG_BOUNCE);
    }

    #[test]
    fn moving_wall_coefficients_match_reference_formula() {
        let uw = [0.05, -0.02, 0.0];
        let flags = [NodeClass::Wall, NodeClass::Fluid, NodeClass::Wall];
        let t = build([3, 1, 1], [false; 3], &flags, &[(0, uw)]);
        let moving = t.op(1, 1); // +x pulls from moving node 0
        assert_eq!(moving >> TAG_SHIFT, TAG_MOVING);
        let [six_w, cu] = t.moving_coeff[(moving & PAYLOAD_MASK) as usize];
        let expect_cu = C[1][0] as f64 * uw[0] + C[1][1] as f64 * uw[1];
        assert_eq!((six_w, cu), (6.0 * W[1], expect_cu));
        // The stationary wall on the other side stays a plain bounce.
        assert_eq!(t.op(1, 2) >> TAG_SHIFT, TAG_BOUNCE);
    }

    #[test]
    fn fluid_per_plane_counts_fluid_nodes_only() {
        // 2×1×2: plane 0 = fluid|wall, plane 1 = fluid|fluid.
        let flags = [
            NodeClass::Fluid,
            NodeClass::Wall,
            NodeClass::Fluid,
            NodeClass::Fluid,
        ];
        let t = build([2, 1, 2], [true; 3], &flags, &[]);
        assert_eq!(t.fluid_per_plane, vec![1, 2]);
        let full = build([4, 4, 4], [true; 3], &all_fluid(64), &[]);
        assert_eq!(full.fluid_per_plane, vec![16; 4]);
    }

    #[test]
    fn table_is_compact() {
        // The table pays for the Slow nodes that read rows, not for the box:
        // at most 76 B per Slow node plus 4 B per node.
        let (nx, ny, nz) = (32, 32, 32);
        let n = nx * ny * nz;
        let t = build(
            [nx, ny, nz],
            [false, false, true],
            &walled_tube(nx, ny, nz, 12.0),
            &[],
        );
        let slow = t.slow_count();
        assert!(slow > 0 && slow < n / 4, "{slow} Slow of {n}");
        let bound = slow * Q * std::mem::size_of::<u32>() + n * 4;
        assert!(t.bytes() <= bound, "{} B > {bound} B", t.bytes());
    }
}

//! Row-compact distribution storage.
//!
//! A lattice stores the 19 populations of a node only where they can
//! change: walls and exterior nodes never collide or stream, and in a
//! vascular network they are most of the box. Nodes are grouped into
//! *rows* of constant `(y, z)`, numbered `r = y + ny·z` — the order node
//! indices already follow — and row `r` stores one contiguous x-range.
//! The *slot* of node `(x, y, z)` is `base[r] + x − lo[r]`; distribution
//! `i` of a stored node lives at `slot·19 + i` of the lattice's array.
//!
//! Rows are laid out in row order, so slots keep node order: a z-plane's
//! stored nodes are one contiguous slot range, and a sweep of a plane's
//! rows visits them y-then-x, exactly as a sweep of its node indices does.
//! A full row in every row is the dense layout; there is no other storage
//! path.
//!
//! Ranges only grow ([`RowLayout::widened`], moved in place by
//! [`RowLayout::relocate`]): a node that was stored never loses its slot.

use crate::d3q19::Q;
use crate::view::NodeClass;
use std::ops::Range;

/// Which nodes of a lattice have stored distributions, and at which slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLayout {
    nx: usize,
    ny: usize,
    /// First stored x of each row (0 for a row with nothing stored).
    lo: Vec<u32>,
    /// Slot of each row's first stored node; `base[rows]` is the slot
    /// count. Row `r` stores `base[r + 1] − base[r]` nodes.
    base: Vec<usize>,
}

impl RowLayout {
    /// The layout storing `ranges[r]` (an x-range, possibly empty) of
    /// each row `r` of an `nx × ny × ·` box.
    pub fn from_ranges(nx: usize, ny: usize, ranges: impl Iterator<Item = Range<usize>>) -> Self {
        let mut lo = Vec::new();
        let mut base = vec![0];
        let mut slots = 0;
        for xs in ranges {
            debug_assert!(xs.end <= nx, "row range {xs:?} outside 0..{nx}");
            lo.push(if xs.is_empty() { 0 } else { xs.start as u32 });
            slots += xs.len();
            base.push(slots);
        }
        Self { nx, ny, lo, base }
    }

    /// The smallest layout holding every stateful node (see
    /// [`NodeClass::is_stateful`]) of `flags`: each row stores from its
    /// first stateful node to its last.
    pub fn stateful(nx: usize, ny: usize, nz: usize, flags: &[NodeClass]) -> Self {
        assert_eq!(flags.len(), nx * ny * nz, "flags must cover the box");
        let ranges = flags.chunks(nx.max(1)).map(|row| {
            let first = row.iter().position(|c| c.is_stateful());
            let last = row.iter().rposition(|c| c.is_stateful());
            match (first, last) {
                (Some(a), Some(b)) => a..b + 1,
                _ => 0..0,
            }
        });
        Self::from_ranges(nx, ny, ranges)
    }

    /// Number of rows (`ny · nz`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.lo.len()
    }

    /// Number of stored nodes.
    #[inline]
    pub fn slots(&self) -> usize {
        self.base[self.rows()]
    }

    /// The stored x-range of row `r`.
    #[inline]
    pub fn xs(&self, r: usize) -> Range<usize> {
        let lo = self.lo[r] as usize;
        lo..lo + (self.base[r + 1] - self.base[r])
    }

    /// The slots of row `r`'s stored nodes, in x order.
    #[inline]
    pub fn row_slots(&self, r: usize) -> Range<usize> {
        self.base[r]..self.base[r + 1]
    }

    /// `base[r] − lo[r]`, wrapping: the slot of stored node `x` of row `r`
    /// is `origin(r) + x` (wrapping add).
    #[inline]
    pub fn origin(&self, r: usize) -> usize {
        self.base[r].wrapping_sub(self.lo[r] as usize)
    }

    /// Slot of node `x` of row `r`, if stored.
    #[inline]
    pub fn slot_at(&self, r: usize, x: usize) -> Option<usize> {
        self.xs(r)
            .contains(&x)
            .then(|| self.origin(r).wrapping_add(x))
    }

    /// Slot of flat node index `node`, if stored.
    #[inline]
    pub fn slot(&self, node: usize) -> Option<usize> {
        self.slot_at(node / self.nx, node % self.nx)
    }

    /// First slot of z-plane `z` (`z` may equal the plane count, giving
    /// the slot count).
    #[inline]
    pub fn plane_start(&self, z: usize) -> usize {
        self.base[z * self.ny]
    }

    /// Whether every node stored here is stored in `other` too.
    pub fn within(&self, other: &RowLayout) -> bool {
        self.rows() == other.rows()
            && (0..self.rows()).all(|r| {
                let (a, b) = (self.xs(r), other.xs(r));
                a.is_empty() || (b.start <= a.start && a.end <= b.end)
            })
    }

    /// This layout with row `r` also covering `extra(r)` (an x-range,
    /// possibly empty): each row becomes the smallest range holding both.
    pub fn widened(&self, mut extra: impl FnMut(usize) -> Range<usize>) -> Self {
        let ranges = (0..self.rows()).map(|r| hull(self.xs(r), extra(r)));
        Self::from_ranges(self.nx, self.ny, ranges)
    }

    /// Move distributions stored under `self` to their slots under `to`
    /// (which must hold every node `self` holds), in place: `f` grows to
    /// `to`'s size and the newly stored nodes read `fill`. Rows move last
    /// to first, and no row moves to a lower slot, so nothing is
    /// overwritten before it has moved — and no second array exists.
    pub fn relocate(&self, to: &RowLayout, f: &mut Vec<f64>, fill: &[f64; Q]) {
        debug_assert!(self.within(to), "relocation target drops stored nodes");
        debug_assert_eq!(f.len(), self.slots() * Q);
        f.reserve_exact(to.slots() * Q - f.len());
        f.resize(to.slots() * Q, 0.0);
        let fill_slots = |f: &mut Vec<f64>, slots: Range<usize>| {
            for s in slots {
                f[s * Q..s * Q + Q].copy_from_slice(fill);
            }
        };
        for r in (0..self.rows()).rev() {
            let (old, new) = (self.xs(r), to.xs(r));
            let dst = to.base[r];
            if old.is_empty() {
                fill_slots(f, dst..dst + new.len());
                continue;
            }
            let at = dst + (old.start - new.start);
            let src = self.base[r] * Q;
            f.copy_within(src..src + old.len() * Q, at * Q);
            fill_slots(f, dst..at);
            fill_slots(f, at + old.len()..dst + new.len());
        }
    }

    /// Heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.lo.capacity() * std::mem::size_of::<u32>()
            + self.base.capacity() * std::mem::size_of::<usize>()
    }
}

/// The smallest range holding both `a` and `b` (either may be empty).
pub fn hull(a: Range<usize>, b: Range<usize>) -> Range<usize> {
    if a.is_empty() {
        b
    } else if b.is_empty() {
        a
    } else {
        a.start.min(b.start)..a.end.max(b.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-node values `node + 0.01·i` for every stored node of `layout`.
    fn tagged(layout: &RowLayout, nx: usize) -> Vec<f64> {
        let mut f = vec![0.0; layout.slots() * Q];
        for r in 0..layout.rows() {
            for x in layout.xs(r) {
                let s = layout.slot_at(r, x).unwrap();
                for i in 0..Q {
                    f[s * Q + i] = (r * nx + x) as f64 + 0.01 * i as f64;
                }
            }
        }
        f
    }

    #[test]
    fn stateful_rows_span_first_to_last_stateful_node() {
        use NodeClass::*;
        // 4 × 1 × 3: rows "W F W F", "E E E E", "V W W W".
        let flags = [
            Wall, Fluid, Wall, Fluid, Exterior, Exterior, Exterior, Exterior, Velocity, Wall, Wall,
            Wall,
        ];
        let l = RowLayout::stateful(4, 1, 3, &flags);
        assert_eq!((l.xs(0), l.xs(1), l.xs(2)), (1..4, 0..0, 0..1));
        assert_eq!(l.slots(), 4);
        assert_eq!(l.slot(0), None);
        assert_eq!(
            l.slot(2),
            Some(1),
            "a gap node inside a row's range is stored"
        );
        assert_eq!(l.slot(8), Some(3));
        assert_eq!((l.plane_start(1), l.plane_start(3)), (3, 4));
    }

    #[test]
    fn slots_follow_node_order() {
        let flags: Vec<NodeClass> = (0..5 * 3 * 4)
            .map(|n| match n % 7 {
                0 | 3 => NodeClass::Wall,
                _ => NodeClass::Fluid,
            })
            .collect();
        let l = RowLayout::stateful(5, 3, 4, &flags);
        let slots: Vec<usize> = (0..flags.len()).filter_map(|n| l.slot(n)).collect();
        assert_eq!(slots, (0..l.slots()).collect::<Vec<_>>());
        let all_fluid = RowLayout::stateful(5, 3, 4, &[NodeClass::Fluid; 60]);
        assert_eq!(
            all_fluid.slot(37),
            Some(37),
            "full rows are the dense layout"
        );
    }

    #[test]
    fn relocate_keeps_every_value_and_fills_new_slots() {
        let (nx, ny, nz) = (6, 2, 3);
        let old = RowLayout::from_ranges(nx, ny, [2..4, 0..0, 1..6, 3..4, 0..0, 0..2].into_iter());
        let new = old.widened(|r| match r {
            0 => 0..5,
            1 => 4..5,
            4 => 0..6,
            _ => 0..0,
        });
        assert!(old.within(&new) && !new.within(&old));
        let mut f = tagged(&old, nx);
        let fill = [-1.0; Q];
        old.relocate(&new, &mut f, &fill);
        assert_eq!(f.len(), new.slots() * Q);
        for node in 0..nx * ny * nz {
            let Some(s) = new.slot(node) else { continue };
            let want: Vec<f64> = match old.slot(node) {
                Some(_) => (0..Q).map(|i| node as f64 + 0.01 * i as f64).collect(),
                None => fill.to_vec(),
            };
            assert_eq!(&f[s * Q..s * Q + Q], &want[..], "node {node}");
        }
    }
}

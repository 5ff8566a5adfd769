//! The kernel-facing view of a lattice domain.
//!
//! Kernels operate on [`LatticeView`], a borrowed decomposition of the
//! solver's storage, so the kernel engine stays below `apr-lattice` in the
//! crate graph: `apr-lattice` builds a view of its own fields and hands it
//! to whichever [`crate::KernelBackend`] is selected.

use crate::layout::RowLayout;

/// Classification of a lattice node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeClass {
    /// Interior fluid: collides and streams.
    Fluid = 0,
    /// Solid wall: neighbours bounce back off it (optionally moving).
    Wall = 1,
    /// Prescribed-velocity boundary (non-equilibrium extrapolation).
    Velocity = 2,
    /// Prescribed-density (pressure) boundary.
    Pressure = 3,
    /// Outside the simulated geometry; behaves as a stationary wall but is
    /// excluded from fluid-point counts (memory accounting, §3.6).
    Exterior = 4,
}

impl NodeClass {
    /// Whether a node of this class has distributions that change:
    /// fluid nodes collide and stream, velocity/pressure nodes are rebuilt
    /// after every stream. Walls and exterior nodes only ever hold the
    /// values they were given, so a [`crate::RowLayout`] built from the
    /// flags stores the stateful nodes alone.
    #[inline]
    pub fn is_stateful(self) -> bool {
        matches!(
            self,
            NodeClass::Fluid | NodeClass::Velocity | NodeClass::Pressure
        )
    }
}

/// Borrowed view of one lattice's storage, handed to a kernel for one
/// collide/stream (half-)pass.
///
/// `moving_walls` lists the moving-wall nodes **sorted by node index** (the
/// reference backend binary-searches it; the fused backend bakes the
/// coefficients into its adjacency table at build time).
pub struct LatticeView<'a> {
    /// Grid extent in x.
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Grid extent in z.
    pub nz: usize,
    /// Per-axis periodicity.
    pub periodic: [bool; 3],
    /// Global BGK relaxation time.
    pub tau: f64,
    /// Uniform body-force density.
    pub body_force: [f64; 3],
    /// Per-node relaxation times, if installed.
    pub tau_field: Option<&'a [f64]>,
    /// Node classification per node.
    pub flags: &'a [NodeClass],
    /// Where each stored node's distributions live; it holds every
    /// stateful node.
    pub layout: &'a RowLayout,
    /// Distributions, `slot*19 + i` with the slot from [`Self::layout`].
    /// A `Vec` (not a slice) because the reference backend swaps it with
    /// its scratch array.
    pub f: &'a mut Vec<f64>,
    /// Densities per node.
    pub rho: &'a mut [f64],
    /// Velocities per node, `node*3 + axis`.
    pub vel: &'a mut [f64],
    /// External force field per node, `node*3 + axis`.
    pub force: &'a [f64],
    /// `(node, wall velocity)` for every moving-wall node, sorted by node.
    pub moving_walls: &'a [(usize, [f64; 3])],
}

impl LatticeView<'_> {
    /// Total node count.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// Streaming chunk grain in z-slabs: aim for ~4 chunks per pool lane so the
/// tail imbalance stays small without paying per-slab dispatch overhead on
/// shallow boxes (the old hard-coded grain of 1 z-slab). The *values* a
/// kernel produces never depend on the grain — every write is slot-local —
/// so this is free to vary with the thread count.
#[inline]
pub fn stream_grain(nz: usize, threads: usize) -> usize {
    (nz / (threads.max(1) * 4)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grain_scales_with_depth_and_threads() {
        assert_eq!(stream_grain(32, 1), 8);
        assert_eq!(stream_grain(32, 4), 2);
        assert_eq!(stream_grain(32, 8), 1);
        assert_eq!(stream_grain(4, 8), 1, "never zero");
        assert_eq!(stream_grain(0, 0), 1);
        assert_eq!(stream_grain(256, 4), 16);
    }
}

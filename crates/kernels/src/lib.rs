//! LBM kernel engine for the APR-RBC reproduction.
//!
//! The paper's performance story (§3.6, Table 1) treats the lattice update
//! and distribution storage as the scaling bottleneck; this crate is the
//! dedicated home for that inner loop. It provides:
//!
//! - [`d3q19`]: the D3Q19 velocity set and BGK/Guo closed forms (moved
//!   down from `apr-lattice`, which re-exports them).
//! - [`layout`]: the row-compact storage every kernel indexes: each
//!   `(y, z)` row stores only the x-range of its stateful nodes.
//! - [`adjacency`]: streaming stencils compiled at geometry-freeze time —
//!   constant offsets for interior nodes, op rows for boundary nodes only.
//! - [`ReferenceKernel`]: the solver's original two-pass collide + pull
//!   stream, kept verbatim as the equivalence baseline.
//! - [`FusedSwapKernel`]: in-place swap streaming fused with collision
//!   into a single parallel region — no second distribution array, one
//!   pool barrier per step instead of two, bit-identical results.
//! - [`runtime`]: the unified [`RuntimeConfig`] surface — one typed
//!   parser for `APR_KERNEL` / `APR_THREADS`, installed process-wide.
//! - [`totals`]: the per-plane summation order of the mass/momentum
//!   totals every collide returns and `Lattice::mass_momentum_totals`
//!   sweeps.
//!
//! [`FusedSwapKernel`] is the one production kernel; [`ReferenceKernel`]
//! is the oracle tests compare it against. Both implement
//! [`KernelBackend`] and are selected per lattice by [`KernelKind`], from
//! the installed [`RuntimeConfig`] or the engine builder.

pub mod adjacency;
pub mod d3q19;
mod fused;
pub mod layout;
mod reference;
pub mod runtime;
pub mod totals;
mod view;

pub use adjacency::{neighbor_index, AdjacencyTable, NodeKind};
pub use fused::FusedSwapKernel;
pub use layout::RowLayout;
pub use reference::ReferenceKernel;
pub use runtime::{RuntimeConfig, RuntimeConfigError};
pub use totals::Totals;
pub use view::{stream_grain, LatticeView, NodeClass};

/// Selectable kernel backend variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Two-array collide + pull-stream — the equivalence baseline.
    Reference,
    /// Fused in-place swap streaming — the production default.
    FusedSwap,
}

impl KernelKind {
    /// Stable lowercase name, as accepted by `APR_KERNEL`.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Reference => "reference",
            KernelKind::FusedSwap => "fused",
        }
    }

    /// Whether this backend keeps distributions direction-reversed
    /// between the collide and stream halves (see
    /// [`KernelBackend::reversed_between_halves`]). Checkpoint restore
    /// uses this to translate stored mid-step state.
    pub fn reversed_storage(self) -> bool {
        matches!(self, KernelKind::FusedSwap)
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A lattice kernel backend: one collision/streaming strategy.
///
/// The contract every backend must honour:
///
/// - **Bit-identity**: for any geometry and any thread count, the
///   distributions, densities and velocities visible *at step boundaries*
///   (after `stream`) are bit-identical to [`ReferenceKernel`]'s.
/// - **Split halves**: `collide` then `stream` must equal `step`; between
///   the halves a backend may keep distributions in a private storage
///   order, declared via [`Self::reversed_between_halves`] so the solver
///   can translate its accessors.
/// - **Determinism**: results never depend on the `apr-exec` lane count
///   or on which lane claims which chunk.
/// - **Totals**: `collide` and `step` return the mass/momentum [`Totals`]
///   of the state they started from, summed in the [`totals`] order from
///   the moments the collision computes anyway — bit-identical to an
///   explicit sweep of that state.
pub trait KernelBackend {
    /// Which variant this is.
    fn kind(&self) -> KernelKind;
    /// Collision half-step over every fluid node; returns the totals of
    /// the pre-collision state.
    fn collide(&mut self, view: &mut LatticeView) -> Totals;
    /// Streaming half-step (bounce-back and link transport; the solver
    /// applies velocity/pressure boundary rebuilds afterwards).
    fn stream(&mut self, view: &mut LatticeView);
    /// Full step; backends may override with a fused implementation.
    /// Returns the totals of the state it started from.
    fn step(&mut self, view: &mut LatticeView) -> Totals {
        let totals = self.collide(view);
        self.stream(view);
        totals
    }
    /// Whether distributions are stored direction-reversed between
    /// `collide` and `stream`.
    fn reversed_between_halves(&self) -> bool {
        false
    }
    /// Auxiliary heap memory held by this backend (scratch arrays, op
    /// tables) — reported through the memory-accounting surface.
    fn scratch_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_kind_names_round_trip() {
        assert_eq!(KernelKind::Reference.as_str(), "reference");
        assert_eq!(KernelKind::FusedSwap.as_str(), "fused");
        assert_eq!(format!("{}", KernelKind::FusedSwap), "fused");
    }

    #[test]
    fn reversed_storage_matches_backend_contract() {
        assert!(!KernelKind::Reference.reversed_storage());
        assert!(KernelKind::FusedSwap.reversed_storage());
    }
}

//! Immersed boundary method (paper §2.3).
//!
//! Couples the Lagrangian membrane meshes to the Eulerian LBM grid in the
//! paper's three-phase sequence: **interpolation** of fluid velocity onto
//! membrane vertices (Eq. 4), **updating** vertex positions with a no-slip
//! forward-Euler step (Eq. 5), and **spreading** of membrane forces back
//! onto the fluid (Eq. 6), all through a tensor-product discrete delta
//! function — by default Peskin's 4-point cosine kernel.

pub mod delta;
pub mod transfer;

pub use delta::DeltaKernel;
pub use transfer::{
    advect_points, interpolate_velocities, interpolate_velocity, spread_forces, spread_forces_into,
    StencilSet,
};

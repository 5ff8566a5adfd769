//! D3Q19 lattice Boltzmann solver (paper §2.1).
//!
//! "LBM is a deterministic, mesoscopic approach that numerically solves the
//! Navier-Stokes equations by modeling fluid with a particle distribution
//! function" — this crate is that solver: BGK collision with the Guo forcing
//! scheme, halfway bounce-back walls (optionally moving), prescribed
//! velocity/pressure boundaries via non-equilibrium extrapolation, and
//! per-axis periodicity. Both the window (fine) and bulk (coarse) fluids of
//! the APR method are instances of [`Lattice`] with different relaxation
//! times related by the paper's Eq. 7 (see `apr-coupling`).

pub mod d3q19;
pub mod kernel_select;
pub mod mrt;
pub mod observables;
pub mod setup;
pub mod solver;

pub use apr_kernels::{
    neighbor_index, KernelBackend, KernelKind, RuntimeConfig, RuntimeConfigError,
};
pub use d3q19::{
    equilibrium, equilibrium_all, lattice_viscosity_from_tau, tau_from_lattice_viscosity, C, CS2,
    OPPOSITE, Q, W,
};
pub use mrt::{MrtBasis, MrtRates};
pub use observables::{
    max_mach, reynolds_number, shear_rate_magnitude, strain_rate, velocity_profile, viscous_stress,
    vorticity,
};
pub use setup::{
    couette_channel, couette_height, couette_y_position, force_driven_tube, poiseuille_slit,
};
pub use solver::{Boundary, Lattice, NodeClass, SubStep};

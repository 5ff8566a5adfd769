//! Finite-element cell membrane mechanics (paper §2.2).
//!
//! "Each cell is modeled as a fluid-filled membrane represented by a
//! Lagrangian surface mesh composed of triangular elements. The membrane
//! model includes both elasticity and bending stiffness." This crate
//! provides exactly that: the Skalak constitutive law (Eq. 2) on linear
//! triangle finite elements, a discrete Helfrich-type dihedral bending
//! energy (Eq. 3), and global area/volume constraints, assembled by
//! [`Membrane`] into the surface force density the immersed boundary method
//! spreads onto the fluid.

pub mod bending;
pub mod constraints;
pub mod forces;
pub mod material;
pub mod reference;
pub mod relax;
pub mod skalak;

pub use forces::{EnergyBreakdown, Membrane};
pub use material::MembraneMaterial;
pub use reference::{dihedral_angle, ReferenceState};
pub use relax::{relax, RelaxParams, RelaxReport};

//! # APR-RBC: adaptive physics refinement with realistic red blood cell counts
//!
//! Public API of the reproduction of Roychowdhury et al., SC '23. The two
//! entry points are:
//!
//! * [`EfsiEngine`] — the fully resolved fluid–structure-interaction
//!   baseline: one fine lattice, every cell explicit (paper §3.3's
//!   comparison model).
//! * [`AprEngine`] — the paper's contribution: a coarse whole-blood bulk
//!   lattice coupled to a fine plasma window that tracks a circulating
//!   tumor cell, maintains a target hematocrit of explicitly modeled
//!   deformable RBCs, and moves with the cell through the vasculature.
//!
//! Supporting modules: [`fsi`] (shared IBM/FEM plumbing), [`diagnostics`]
//! (hematocrit series, effective viscosity — Figure 5's observables),
//! [`output`] (CSV/table writers for the benchmark harness) and
//! [`guardian`] (divergence sentinel, full-engine checkpoint/rollback —
//! the robustness layer for multi-day campaigns).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` at the workspace root: build a Couette
//! channel, drop in an RBC, watch it deform and advect.

pub mod apr;
pub mod config;
pub mod diagnostics;
pub mod efsi;
pub mod fsi;
pub mod guardian;
pub mod lifecycle;
pub mod output;
pub mod vtk;

pub use apr::{AprEngine, AprEngineBuilder, AprStepReport, BulkDriver, FineGeometry, WindowSteer};
pub use apr_lattice::KernelKind;
pub use apr_telemetry::ledger::{ConservationLedger, DriftBreach, LedgerConfig, LedgerSample};
pub use config::PhysicalConfig;
pub use diagnostics::{
    mean_axial_velocity, tube_effective_viscosity, tube_flow_rate, HematocritSeries,
};
pub use efsi::EfsiEngine;
pub use guardian::{
    restore_efsi, restore_engine, restore_engine_from_file, save_efsi, save_engine,
    save_engine_to_file, GuardedStep, Guardian,
};
pub use lifecycle::SimSession;
pub use output::{render_table, write_csv};
pub use vtk::{cells_to_vtk, lattice_to_vtk, mesh_to_vtk, write_vtk};

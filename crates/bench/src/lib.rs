//! Experiment library regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §5 for the experiment index). Performance is
//! measured by `benchmark/` (see `benchmark/README.md`), not here.
//!
//! * [`shear`] — Table 1 / Figure 4 (variable-viscosity shear flow).
//! * [`hct`] — Figure 5 (hematocrit maintenance + effective viscosity).
//! * [`trajectory`] — Figure 6 (CTC trajectory, APR vs eFSI).
//! * [`scaling_meas`] — measured thread-scaling analogue of Figures 7–8
//!   (the analytic Summit model lives in `apr-perfmodel`).
//! * [`report`] — paper-style table/figure printers.
//!
//! Long-running, full-size regenerations are the `exp_*` binaries.

pub mod hct;
pub mod report;
pub mod scaling_meas;
pub mod shear;
pub mod trajectory;

//! Calibrate machine-model work rates from a recorded telemetry trace.
//!
//! [`crate::calibrate`] closes the model↔measurement loop from a bench
//! MLUPS number; this module closes it from a *production* trace: the
//! per-phase aggregates the `apr-telemetry` profiler accumulates while an
//! [`AprEngine`](../../apr_core) run is instrumented. The fit decomposes
//! measured step wall time into bulk (CPU) node work and window (GPU)
//! node work, so model predictions and the live run share one rate base.

use apr_telemetry::PhaseStat;

/// Per-step problem size the trace was recorded at, needed to turn phase
/// seconds into per-node rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepGeometry {
    /// Coarse (bulk) fluid nodes updated once per coarse step.
    pub coarse_fluid_nodes: u64,
    /// Fine (window) fluid nodes, each updated `refinement` times per
    /// coarse step.
    pub fine_fluid_nodes: u64,
    /// Refinement ratio n (fine substeps per coarse step).
    pub refinement: u64,
}

impl StepGeometry {
    /// Site updates per coarse step (the MLUPS denominator).
    pub fn site_updates_per_step(&self) -> u64 {
        self.coarse_fluid_nodes + self.fine_fluid_nodes * self.refinement
    }
}

/// Work rates fitted from a trace, plus the measurement they came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedRates {
    /// Seconds per bulk lattice node per coarse step.
    pub cpu_per_node: f64,
    /// Seconds per window lattice node per coarse step (all substeps and
    /// FSI/coupling work included).
    pub gpu_per_node: f64,
    /// Measured mean step wall seconds the fit decomposed.
    pub step_seconds: f64,
    /// Steps the trace aggregated over.
    pub steps: u64,
}

impl FittedRates {
    /// Model-predicted step wall seconds for a problem of size `geom`
    /// under these rates (single-task execution: terms add).
    pub fn predict_step_seconds(&self, geom: &StepGeometry) -> f64 {
        self.cpu_per_node * geom.coarse_fluid_nodes as f64
            + self.gpu_per_node * geom.fine_fluid_nodes as f64
    }

    /// Measured throughput in million site updates per second.
    pub fn mlups(&self, geom: &StepGeometry) -> f64 {
        if self.step_seconds <= 0.0 {
            return 0.0;
        }
        geom.site_updates_per_step() as f64 / self.step_seconds / 1.0e6
    }
}

fn total_secs(stats: &[PhaseStat], name: &str) -> f64 {
    stats
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.total_ns as f64 / 1.0e9)
        .sum()
}

/// Fit work rates from the phase aggregates of an instrumented APR run.
///
/// Decomposition: bulk work is the `apr.coarse` phase; everything else
/// under `apr.step` (fine substeps, FSI, coupling, window maintenance) is
/// window work.
/// Returns `None` when the trace contains no completed `apr.step` span.
pub fn fit_step_rates(stats: &[PhaseStat], geom: &StepGeometry) -> Option<FittedRates> {
    let step = stats.iter().find(|s| s.name == "apr.step")?;
    if step.count == 0 {
        return None;
    }
    let steps = step.count;
    let per_step = |total: f64| total / steps as f64;

    let step_secs = per_step(step.total_ns as f64 / 1.0e9);
    let coarse_secs = per_step(total_secs(stats, "apr.coarse"));
    let window_secs = (step_secs - coarse_secs).max(0.0);

    Some(FittedRates {
        cpu_per_node: if geom.coarse_fluid_nodes > 0 {
            coarse_secs / geom.coarse_fluid_nodes as f64
        } else {
            0.0
        },
        gpu_per_node: if geom.fine_fluid_nodes > 0 {
            window_secs / geom.fine_fluid_nodes as f64
        } else {
            0.0
        },
        step_seconds: step_secs,
        steps,
    })
}

/// A [`crate::KernelMeasurement`] derived from a trace, for feeding the
/// existing [`crate::calibrate_host`] machine-spec calibration.
pub fn kernel_measurement_from_trace(
    stats: &[PhaseStat],
    geom: &StepGeometry,
) -> Option<crate::KernelMeasurement> {
    let fitted = fit_step_rates(stats, geom)?;
    Some(crate::KernelMeasurement {
        threads: 1,
        mlups: fitted.mlups(geom),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(name: &str, count: u64, total_ns: u64) -> PhaseStat {
        PhaseStat {
            name: name.to_string(),
            count,
            total_ns,
            self_ns: total_ns,
            min_ns: total_ns / count.max(1),
            max_ns: total_ns / count.max(1),
            ..Default::default()
        }
    }

    fn geom() -> StepGeometry {
        StepGeometry {
            coarse_fluid_nodes: 1000,
            fine_fluid_nodes: 500,
            refinement: 4,
        }
    }

    #[test]
    fn fit_decomposes_step_time_exactly() {
        // 10 steps: 2 ms/step total; 0.5 ms coarse, rest window.
        let stats = vec![
            stat("apr.step", 10, 20_000_000),
            stat("apr.coarse", 10, 5_000_000),
            stat("fsi.spread", 40, 8_000_000),
        ];
        let g = geom();
        let fit = fit_step_rates(&stats, &g).unwrap();
        assert_eq!(fit.steps, 10);
        assert!((fit.step_seconds - 2.0e-3).abs() < 1e-12);
        assert!((fit.cpu_per_node - 0.5e-3 / 1000.0).abs() < 1e-15);
        // Prediction on the fitted geometry reproduces the measurement.
        let predicted = fit.predict_step_seconds(&g);
        assert!(
            (predicted - fit.step_seconds).abs() / fit.step_seconds < 1e-9,
            "predicted {predicted} vs measured {}",
            fit.step_seconds
        );
    }

    #[test]
    fn fit_requires_step_spans() {
        assert!(fit_step_rates(&[stat("apr.coarse", 5, 1000)], &geom()).is_none());
        assert!(fit_step_rates(&[stat("apr.step", 0, 0)], &geom()).is_none());
    }

    #[test]
    fn mlups_and_kernel_measurement_agree() {
        let stats = vec![stat("apr.step", 10, 10_000_000)]; // 1 ms/step
        let g = geom();
        // 3000 site updates per step / 1 ms = 3 MLUPS.
        let km = kernel_measurement_from_trace(&stats, &g).unwrap();
        assert_eq!(km.threads, 1);
        assert!((km.mlups - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_geometry_yields_zero_rates_not_nan() {
        let stats = vec![stat("apr.step", 2, 1_000_000)];
        let g = StepGeometry {
            coarse_fluid_nodes: 0,
            fine_fluid_nodes: 0,
            refinement: 1,
        };
        let fit = fit_step_rates(&stats, &g).unwrap();
        assert_eq!(fit.cpu_per_node, 0.0);
        assert_eq!(fit.gpu_per_node, 0.0);
        assert!(fit.predict_step_seconds(&g).is_finite());
    }
}

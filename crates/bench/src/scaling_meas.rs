//! Measured thread-scaling analogue of Figures 7–8.
//!
//! Summit is not available to this reproduction (DESIGN.md substitutions),
//! so alongside the analytic machine model we *measure* how the actual LBM
//! kernel scales over apr-exec worker counts on the host — the same
//! surface-to-volume story at shared-memory scale.

use std::sync::Arc;

use apr_exec::ExecPool;
use apr_lattice::Lattice;

/// One measured scaling point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredPoint {
    /// apr-exec worker threads.
    pub threads: usize,
    /// Million lattice-site updates per second.
    pub mlups: f64,
    /// Speedup vs the 1-thread measurement.
    pub speedup: f64,
}

/// Time `steps` LBM steps of an `edge³` periodic box on `threads` workers.
///
/// The box runs under a scoped pool of its own (`apr_exec::with_pool`), so
/// the process-global pool and whatever else shares the process keep their
/// lanes; the lattice kernels resolve `apr_exec::current()` per call, so the
/// scoped pool is the one measured. Deterministic chunking means every
/// thread count produces the same physics, so only wall time varies.
fn time_box(threads: usize, edge: usize, steps: usize) -> f64 {
    apr_exec::with_pool(Arc::new(ExecPool::new(threads)), || {
        let mut lat = Lattice::new(edge, edge, edge, 0.9);
        lat.periodic = [true, true, true];
        lat.body_force = [1e-7, 0.0, 0.0];
        // Warm-up.
        for _ in 0..3 {
            lat.step();
        }
        // One clock path for the whole suite: the telemetry clock times the
        // measurement and, when tracing is enabled, records it as a span.
        let (_, elapsed_ns) = apr_telemetry::time("bench.lbm_box", || {
            for _ in 0..steps {
                lat.step();
            }
        });
        let dt = elapsed_ns as f64 / 1.0e9;
        (edge * edge * edge * steps) as f64 / dt / 1.0e6
    })
}

/// Strong-scaling measurement: fixed `edge³` box over growing thread counts.
pub fn measure_strong_scaling(edge: usize, steps: usize, threads: &[usize]) -> Vec<MeasuredPoint> {
    let base = time_box(threads[0], edge, steps);
    let mut out = vec![MeasuredPoint {
        threads: threads[0],
        mlups: base,
        speedup: 1.0,
    }];
    for &t in &threads[1..] {
        let mlups = time_box(t, edge, steps);
        out.push(MeasuredPoint {
            threads: t,
            mlups,
            speedup: mlups / base,
        });
    }
    out
}

/// Weak-scaling measurement: per-thread volume held constant by growing the
/// box edge as `cbrt(threads)`.
pub fn measure_weak_scaling(
    edge_per_thread: usize,
    steps: usize,
    threads: &[usize],
) -> Vec<MeasuredPoint> {
    let mut out = Vec::new();
    let mut base_per_thread = 0.0;
    for &t in threads {
        let edge = (edge_per_thread as f64 * (t as f64).powf(1.0 / 3.0)).round() as usize;
        let mlups = time_box(t, edge.max(8), steps);
        let per_thread = mlups / t as f64;
        if base_per_thread == 0.0 {
            base_per_thread = per_thread;
        }
        out.push(MeasuredPoint {
            threads: t,
            mlups,
            speedup: per_thread / base_per_thread,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multithreading_speeds_up_the_kernel() {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        if cores < 4 {
            return; // nothing to measure on tiny CI boxes
        }
        let pts = measure_strong_scaling(48, 6, &[1, 4]);
        assert!(
            pts[1].speedup > 1.5,
            "4 threads only {}× faster",
            pts[1].speedup
        );
    }
}

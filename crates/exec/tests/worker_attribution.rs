//! Per-worker time attribution: pool regions must surface per-lane busy
//! times into the span open on the submitting thread.
//!
//! Single test function — it owns the process-global telemetry recorder's
//! enable state for this binary.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Spin until this thread has *consumed* `ns` of CPU time (falling back to
/// wall time where the platform offers no thread clock). Lane busy time is
/// measured as CPU time, so sleeping would attribute nothing — work must
/// burn cycles to show up, which is the point of the metric.
fn burn_cpu(ns: u64) {
    let wall = std::time::Instant::now();
    let cpu0 = apr_exec::thread_cpu_ns();
    loop {
        std::hint::black_box((0..512u64).sum::<u64>());
        let spent = match (cpu0, apr_exec::thread_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => wall.elapsed().as_nanos() as u64,
        };
        if spent >= ns {
            return;
        }
    }
}

#[test]
fn pool_regions_attribute_worker_time_to_open_span() {
    let rec = apr_telemetry::global();
    rec.reset();
    rec.enable();

    // Multithreaded: every lane burns CPU, lane 0 the most, so each lane's
    // busy slot must be populated and the barrier wait is bounded.
    let pool = apr_exec::ExecPool::new(3);
    {
        let _s = apr_telemetry::span("exec.test.mt");
        pool.run(&|lane| {
            burn_cpu((2 + 2 * (2 - lane as u64)) * 1_000_000);
        });
        pool.run(&|lane| {
            burn_cpu((1 + lane as u64) * 1_000_000);
        });
    }

    // Sequential top-level region: recorded as a single perfectly
    // balanced lane.
    let seq = apr_exec::ExecPool::sequential();
    {
        let _s = apr_telemetry::span("exec.test.seq");
        seq.run(&|_| burn_cpu(2_200_000));
    }

    // Nested regions run inline and must not double-attribute.
    let regions_before = stat(rec, "exec.test.mt").workers.regions;
    {
        let _s = apr_telemetry::span("exec.test.nested");
        pool.run(&|_| {
            pool.run(&|_| {});
        });
    }

    // Skewed vs balanced: lane 0 working alone must read as imbalance well
    // above 1, every lane burning the same amount must not.
    {
        let _s = apr_telemetry::span("exec.test.skewed");
        pool.run(&|lane| {
            if lane == 0 {
                burn_cpu(8_000_000);
            }
        });
    }
    {
        let _s = apr_telemetry::span("exec.test.balanced");
        pool.run(&|_| burn_cpu(4_000_000));
    }
    rec.disable();

    let skewed = stat(rec, "exec.test.skewed").workers.imbalance();
    assert!(skewed > 1.5, "skewed workload reported imbalance {skewed}");
    let balanced = stat(rec, "exec.test.balanced").workers.imbalance();
    assert!(
        balanced < 1.5,
        "balanced workload reported imbalance {balanced}"
    );

    let mt = stat(rec, "exec.test.mt");
    assert_eq!(mt.workers.regions, 2);
    assert_eq!(mt.workers.samples, 6, "3 lanes x 2 regions");
    assert!(mt.workers.min_ns > 0, "every lane slot was populated");
    assert!(mt.workers.imbalance() >= 1.0);
    assert!(
        mt.barrier_ns <= mt.total_ns,
        "barrier wait is part of the span wall time"
    );

    let seq_stat = stat(rec, "exec.test.seq");
    assert_eq!(seq_stat.workers.regions, 1);
    assert_eq!(seq_stat.workers.samples, 1);
    assert_eq!(seq_stat.workers.imbalance(), 1.0);
    assert!(seq_stat.workers.busy_ns >= 2_000_000);
    assert!(
        seq_stat.self_ns >= seq_stat.total_ns.saturating_sub(seq_stat.workers.busy_ns),
        "a 1-lane region has no barrier to subtract"
    );

    let nested = stat(rec, "exec.test.nested");
    assert_eq!(
        nested.workers.regions, 1,
        "the inner inline region must not be attributed separately"
    );
    assert_eq!(regions_before, 2);

    // Panicking regions leave the pool usable and record nothing extra.
    let hits = AtomicUsize::new(0);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(&|lane| {
            hits.fetch_add(1, Ordering::SeqCst);
            if lane == 1 {
                panic!("boom");
            }
        });
    }));
    assert!(panicked.is_err());
    rec.reset();
}

fn stat(rec: &apr_telemetry::Recorder, name: &str) -> apr_telemetry::PhaseStat {
    rec.phase_stats()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("phase {name} missing"))
}

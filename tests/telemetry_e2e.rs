//! End-to-end observability: an instrumented APR run must produce a valid
//! Chrome trace whose phase spans cover ≥95% of step wall time, a monotone
//! metrics time-series carrying the window gauges, and phase aggregates
//! the perfmodel trace-fit can turn back into the measured step time.
//!
//! This test owns its process's global recorder (each integration-test
//! file is a separate binary), so it can enable tracing without
//! interfering with other tests.

use apr_suite::cells::ContactParams;
use apr_suite::core::AprEngine;
use apr_suite::coupling::fine_tau;
use apr_suite::lattice::{force_driven_tube, Lattice};
use apr_suite::perfmodel::{fit_step_rates, StepGeometry};
use apr_suite::telemetry;
use apr_suite::telemetry::{validate_chrome_trace, validate_metrics_jsonl};

/// Small APR tube problem: coarse force-driven tube, cubic fine window.
fn tube_engine() -> AprEngine {
    let (nx, ny, nz) = (21usize, 21usize, 48usize);
    let (n, tau_c, lambda, g) = (3usize, 0.9f64, 0.3f64, 4e-6f64);
    let coarse = force_driven_tube(nx, ny, nz, tau_c, 9.0, g);
    let span = 8usize;
    let fine_dim = span * n + 1;
    let mut fine = Lattice::new(fine_dim, fine_dim, fine_dim, fine_tau(tau_c, n, lambda));
    fine.body_force = [0.0, 0.0, g / n as f64];
    let origin = [
        (nx as f64 - 1.0) / 2.0 - span as f64 / 2.0,
        (ny as f64 - 1.0) / 2.0 - span as f64 / 2.0,
        4.0,
    ];
    let side = span as f64 * n as f64;
    AprEngine::builder(coarse, fine, origin, 3, lambda)
        .window(side * 0.22, side * 0.12, side * 0.14)
        .contact(ContactParams {
            cutoff: 1.2,
            strength: 5e-4,
        })
        .build()
}

#[test]
fn traced_run_validates_and_calibrates_the_machine_model() {
    telemetry::enable();
    let mut engine = tube_engine();
    let steps = 30u64;
    {
        // Run under a session scope so every span carries correlation ids
        // (the engine adds the per-step scope itself).
        let _session = telemetry::session_scope(77);
        for _ in 0..steps {
            engine.step();
            telemetry::sample_metrics(engine.steps());
        }
    }
    telemetry::disable();
    let rec = telemetry::global();

    // Chrome trace: parses, schema-complete, monotone, phase spans cover
    // ≥95% of step wall time (the ISSUE acceptance threshold).
    let trace = rec.chrome_trace_json();
    let summary = validate_chrome_trace(&trace).expect("trace must validate");
    assert!(summary.span_records >= steps as usize);
    let coverage = summary.phase_coverage();
    assert!(
        coverage >= 0.95,
        "phase spans cover only {:.1}% of step wall time",
        coverage * 100.0
    );

    // Correlation round-trip: the session/step ids scoped during the run
    // must come back out of the Chrome export, span for span, so a trace
    // can be grouped by step.
    assert!(
        summary.correlated_spans > 0,
        "no span carried correlation args"
    );
    let doc = telemetry::json::parse(&trace).expect("trace parses");
    let events = doc.as_arr().expect("chrome trace is a record array");
    let step_spans: Vec<_> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("name").and_then(|n| n.as_str()) == Some("apr.step")
        })
        .collect();
    assert_eq!(step_spans.len(), steps as usize);
    for (i, span) in step_spans.iter().enumerate() {
        let args = span.get("args").expect("correlated span has args");
        assert_eq!(
            args.get("session").and_then(|s| s.as_f64()),
            Some(77.0),
            "session id lost in export round-trip"
        );
        assert_eq!(
            args.get("step").and_then(|s| s.as_f64()),
            Some(i as f64 + 1.0),
            "step id lost in export round-trip"
        );
    }

    // Metrics JSONL: one row per step, monotone, window gauges present.
    let jsonl = rec.metrics_jsonl();
    let msum = validate_metrics_jsonl(&jsonl).expect("metrics must validate");
    assert_eq!(msum.rows, steps as usize);
    let last = jsonl.lines().last().unwrap();
    for key in [
        "\"apr.site_updates\"",
        "\"window.region.total\"",
        "\"apr.window_moves\"",
    ] {
        assert!(last.contains(key), "metrics row missing {key}: {last}");
    }

    // The engine's own counter and the metric agree.
    let stats = rec.phase_stats();
    let step_stat = stats.iter().find(|s| s.name == "apr.step").unwrap();
    assert_eq!(step_stat.count, steps);

    // Per-worker attribution: the LBM kernels dispatch exec-pool regions
    // every (sub)step, and regions attribute to the innermost open span —
    // `lattice.collide`/`lattice.stream`, not their `apr.fine.*` parents.
    // Lane stats must be populated, coherent (barrier wait bounded by
    // inclusive time) and report a load-imbalance factor ≥ 1.
    for name in ["lattice.collide", "lattice.stream"] {
        let s = stats.iter().find(|s| s.name == name).unwrap();
        assert!(s.workers.regions > 0, "{name} recorded no pool regions");
        assert!(s.workers.samples >= s.workers.regions, "{name}");
        assert!(s.workers.imbalance() >= 1.0, "{name}");
        assert!(s.barrier_ns <= s.total_ns, "{name}");
        assert!(
            s.self_ns <= s.total_ns.saturating_sub(s.barrier_ns),
            "{name}: self time must exclude barrier wait"
        );
    }

    // One record buffer: at this size it dropped nothing, and the Chrome
    // trace above is exactly its spans and events — the records a guardian
    // trip would dump.
    assert_eq!(rec.dropped(), 0);
    assert_eq!(rec.span_records().len(), summary.span_records);
    assert_eq!(rec.events().len(), summary.event_records);

    // Trace-fit calibration reproduces the measured step time within the
    // 20% acceptance band (the fit is an exact decomposition, so the gap
    // is the uninstrumented glue).
    let geom = StepGeometry {
        coarse_fluid_nodes: engine.coarse.fluid_node_count() as u64,
        fine_fluid_nodes: engine.fine.fluid_node_count() as u64,
        refinement: 3,
    };
    let fit = fit_step_rates(&stats, &geom).expect("trace has step spans");
    assert_eq!(fit.steps, steps);
    let predicted = fit.predict_step_seconds(&geom);
    let deviation = (predicted - fit.step_seconds).abs() / fit.step_seconds;
    assert!(
        deviation < 0.20,
        "trace-fitted model off by {:.1}% (predicted {predicted} s, measured {} s)",
        deviation * 100.0,
        fit.step_seconds
    );
}

//! CI validator for exported telemetry artifacts.
//!
//! ```sh
//! cargo run -p apr-telemetry --bin validate_trace -- trace.json [metrics.jsonl] \
//!     [--min-coverage 0.95]
//! ```
//!
//! Exits non-zero unless the Chrome trace parses, is schema-complete with
//! monotone timestamps, and its depth-1 phase spans cover at least the
//! requested fraction of top-level step time; the optional metrics JSONL
//! must parse as a non-empty monotone time series. A guardian trip dump
//! is a Chrome trace too and validates the same way.

use apr_telemetry::{validate_chrome_trace, validate_metrics_jsonl};

fn fail(msg: &str) -> ! {
    eprintln!("validate_trace: {msg}");
    std::process::exit(1)
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut min_coverage = 0.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--min-coverage" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| fail("--min-coverage needs a value"));
                min_coverage = v
                    .parse()
                    .unwrap_or_else(|_| fail("--min-coverage must be a number"));
            }
            other if trace_path.is_none() => trace_path = Some(other.to_string()),
            other if metrics_path.is_none() => metrics_path = Some(other.to_string()),
            other => fail(&format!("unexpected argument {other}")),
        }
    }
    let trace_path = trace_path.unwrap_or_else(|| {
        fail("usage: validate_trace <trace.json> [metrics.jsonl] [--min-coverage F]")
    });

    let text = std::fs::read_to_string(&trace_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {trace_path}: {e}")));
    let summary =
        validate_chrome_trace(&text).unwrap_or_else(|e| fail(&format!("{trace_path}: {e}")));
    println!(
        "{trace_path}: {} spans ({} correlated), {} events, phase coverage {:.1}% of {:.3} ms top-level",
        summary.span_records,
        summary.correlated_spans,
        summary.event_records,
        summary.phase_coverage() * 100.0,
        summary.top_level_us / 1e3,
    );
    if summary.phase_coverage() < min_coverage {
        fail(&format!(
            "phase coverage {:.3} below required {min_coverage}",
            summary.phase_coverage()
        ));
    }

    if let Some(metrics_path) = metrics_path {
        let text = std::fs::read_to_string(&metrics_path)
            .unwrap_or_else(|e| fail(&format!("cannot read {metrics_path}: {e}")));
        let m =
            validate_metrics_jsonl(&text).unwrap_or_else(|e| fail(&format!("{metrics_path}: {e}")));
        println!("{metrics_path}: {} metric samples, monotone", m.rows);
    }

    println!("OK");
}

//! Validators for the exported artifacts — used by the CI job (through the
//! `validate_trace` binary) and the golden tests.
//!
//! A trace that "looks plausible" is not enough for CI: these check that
//! the Chrome-trace document parses, every record is schema-complete,
//! timestamps are monotone, and the per-phase spans actually cover the
//! step loop; and that the metrics JSONL is a parseable, monotone time
//! series.

use crate::json::{parse, Value};

/// Summary of a validated Chrome trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Complete (`"X"`) span records.
    pub span_records: usize,
    /// Instant (`"i"`) event records.
    pub event_records: usize,
    /// Total wall microseconds of top-level (`depth == 0`) spans.
    pub top_level_us: f64,
    /// Total wall microseconds of `depth == 1` spans — the per-phase
    /// breakdown directly under the step spans.
    pub phase_us: f64,
    /// Span records carrying at least one correlation ID (`args.session`,
    /// `args.rank` or `args.step`), which tie a span to the serve session,
    /// rank and step it ran for. Plain Perfetto viewers ignore them.
    pub correlated_spans: usize,
}

impl TraceSummary {
    /// Fraction of top-level span time covered by depth-1 phase spans
    /// (the acceptance criterion asks ≥ 0.95 for an instrumented run).
    pub fn phase_coverage(&self) -> f64 {
        if self.top_level_us <= 0.0 {
            0.0
        } else {
            self.phase_us / self.top_level_us
        }
    }
}

fn require_num(obj: &Value, key: &str, what: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{what}: missing numeric \"{key}\""))
}

fn require_str<'a>(obj: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: missing string \"{key}\""))
}

/// Validate a Chrome `trace_event` JSON document.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = parse(text).map_err(|e| format!("trace does not parse: {e}"))?;
    let arr = doc.as_arr().ok_or("trace root must be a JSON array")?;
    let mut summary = TraceSummary {
        span_records: 0,
        event_records: 0,
        top_level_us: 0.0,
        phase_us: 0.0,
        correlated_spans: 0,
    };
    let mut last_ts = f64::MIN;
    for (i, item) in arr.iter().enumerate() {
        let what = format!("record {i}");
        let ph = require_str(item, "ph", &what)?;
        if ph == "M" {
            continue; // metadata records carry no timeline position
        }
        require_str(item, "name", &what)?;
        require_num(item, "pid", &what)?;
        require_num(item, "tid", &what)?;
        let ts = require_num(item, "ts", &what)?;
        if ts < last_ts {
            return Err(format!("{what}: ts {ts} goes backwards (prev {last_ts})"));
        }
        last_ts = ts;
        match ph {
            "X" => {
                let dur = require_num(item, "dur", &what)?;
                if dur < 0.0 {
                    return Err(format!("{what}: negative duration"));
                }
                let depth = item
                    .get("args")
                    .and_then(|a| a.get("depth"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{what}: span missing args.depth"))?;
                if depth == 0.0 {
                    summary.top_level_us += dur;
                } else if depth == 1.0 {
                    summary.phase_us += dur;
                }
                // Correlation IDs are optional but must be non-negative
                // numbers when present.
                let mut correlated = false;
                for key in ["session", "rank", "step"] {
                    if let Some(v) = item.get("args").and_then(|a| a.get(key)) {
                        let n = v
                            .as_f64()
                            .ok_or_else(|| format!("{what}: args.{key} must be numeric"))?;
                        if n < 0.0 {
                            return Err(format!("{what}: args.{key} is negative"));
                        }
                        correlated = true;
                    }
                }
                if correlated {
                    summary.correlated_spans += 1;
                }
                summary.span_records += 1;
            }
            "i" => {
                item.get("args")
                    .ok_or_else(|| format!("{what}: instant event missing args"))?;
                summary.event_records += 1;
            }
            other => return Err(format!("{what}: unexpected phase type {other:?}")),
        }
    }
    if summary.span_records == 0 {
        return Err("trace contains no span records".into());
    }
    Ok(summary)
}

/// Summary of a validated metrics JSONL document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Sample rows.
    pub rows: usize,
}

/// Validate a metrics JSONL document: every line parses as an object with
/// `t_ns` and `step`, both monotone non-decreasing, at least one row.
pub fn validate_metrics_jsonl(text: &str) -> Result<MetricsSummary, String> {
    let mut rows = 0usize;
    let mut last_t = f64::MIN;
    let mut last_step = f64::MIN;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let t = require_num(&row, "t_ns", &format!("line {}", i + 1))?;
        let step = require_num(&row, "step", &format!("line {}", i + 1))?;
        if t < last_t {
            return Err(format!("line {}: t_ns goes backwards", i + 1));
        }
        if step < last_step {
            return Err(format!("line {}: step goes backwards", i + 1));
        }
        last_t = t;
        last_step = step;
        rows += 1;
    }
    if rows == 0 {
        return Err("metrics series is empty".into());
    }
    Ok(MetricsSummary { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::span::Recorder;

    #[test]
    fn validator_accepts_recorder_output() {
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        {
            let _step = rec.span("apr.step");
            {
                let _a = rec.span("apr.coarse");
                rec.clock().advance(80);
            }
            {
                let _b = rec.span("fsi.spread");
                rec.clock().advance(15);
            }
            rec.clock().advance(5);
        }
        rec.counter_add("sites", 9);
        rec.sample_metrics(1);
        let summary = validate_chrome_trace(&rec.chrome_trace_json()).unwrap();
        assert_eq!(summary.span_records, 3);
        assert!((summary.phase_coverage() - 0.95).abs() < 1e-9);
        let m = validate_metrics_jsonl(&rec.metrics_jsonl()).unwrap();
        assert_eq!(m.rows, 1);
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("[{\"ph\":\"X\"}]").is_err());
        assert!(validate_metrics_jsonl("").is_err());
        assert!(validate_metrics_jsonl("{\"t_ns\":1}").is_err());
        // Backwards step.
        let two = "{\"t_ns\":1,\"step\":5}\n{\"t_ns\":2,\"step\":4}";
        assert!(validate_metrics_jsonl(two).is_err());
    }

    #[test]
    fn correlation_ids_round_trip_through_chrome_export() {
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        {
            let _session = crate::span::session_scope(5);
            let _rank = crate::span::rank_scope(0);
            let _step = crate::span::step_scope(42);
            let _s = rec.span("apr.step");
            rec.clock().advance(10);
        }
        {
            let _s = rec.span("plain");
            rec.clock().advance(1);
        }
        let text = rec.chrome_trace_json();
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.span_records, 2);
        assert_eq!(summary.correlated_spans, 1);
        let doc = parse(&text).unwrap();
        let arr = doc.as_arr().unwrap();
        let tagged = arr
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("apr.step"))
            .unwrap();
        let args = tagged.get("args").unwrap();
        assert_eq!(args.get("session").unwrap().as_f64(), Some(5.0));
        assert_eq!(args.get("rank").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("step").unwrap().as_f64(), Some(42.0));
        let plain = arr
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("plain"))
            .unwrap();
        assert!(plain.get("args").unwrap().get("step").is_none());
    }

    #[test]
    fn validator_rejects_non_monotone_trace() {
        let text = r#"[
            {"name":"a","ph":"X","ts":10.0,"dur":1.0,"pid":1,"tid":1,"args":{"depth":0}},
            {"name":"b","ph":"X","ts":5.0,"dur":1.0,"pid":1,"tid":1,"args":{"depth":0}}
        ]"#;
        assert!(validate_chrome_trace(text)
            .unwrap_err()
            .contains("backwards"));
    }
}

//! Exporters: Chrome `trace_event` JSON, metrics JSONL time series, and
//! the flat per-phase text table.
//!
//! The Chrome format is the common denominator of `about://tracing` and
//! [Perfetto](https://ui.perfetto.dev): a JSON array of event objects.
//! Spans become complete (`"ph":"X"`) events with microsecond timestamps;
//! typed telemetry events become instant (`"ph":"i"`) events carrying
//! their payload in `args`. Records are sorted by start timestamp so the
//! file is monotone — a property the CI validator asserts.

use crate::events::{TelemetryEvent, TimedEvent};
use crate::json::{escape, number};
use crate::metrics::MetricValue;
use crate::record::Record;
use crate::span::{PhaseStat, Recorder, SpanRecord};
use std::fmt::Write as _;

/// Chrome-trace process id used for every record (one simulation = one
/// logical process).
pub const TRACE_PID: u64 = 1;

/// One span as a complete (`"X"`) record.
fn span_json(span: &SpanRecord) -> String {
    let mut rec = String::with_capacity(160);
    let _ = write!(
        rec,
        "{{\"name\":{},\"cat\":\"apr\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{TRACE_PID},\"tid\":{},\"args\":{{\"depth\":{},\"self_ns\":{}",
        escape(span.name),
        number(span.start_ns as f64 / 1e3),
        number(span.dur_ns as f64 / 1e3),
        span.tid,
        span.depth,
        span.self_ns,
    );
    // Correlation IDs are emitted only when scoped, keeping unscoped
    // traces byte-identical to the pre-correlation format (and
    // Perfetto-compatible: args are free-form).
    if span.session != 0 {
        let _ = write!(rec, ",\"session\":{}", span.session);
    }
    if let Some(rank) = span.rank {
        let _ = write!(rec, ",\"rank\":{rank}");
    }
    if span.step != 0 {
        let _ = write!(rec, ",\"step\":{}", span.step);
    }
    rec.push_str("}}");
    rec
}

/// One typed event as a global instant (`"i"`) record.
fn event_json(timed: &TimedEvent) -> String {
    let mut rec = String::with_capacity(160);
    let _ = write!(
        rec,
        "{{\"name\":{},\"cat\":\"apr.event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":{TRACE_PID},\"tid\":0,\"args\":{{",
        escape(timed.event.kind()),
        number(timed.t_ns as f64 / 1e3),
    );
    event_args(&timed.event, &mut rec);
    rec.push_str("}}");
    rec
}

fn event_args(ev: &TelemetryEvent, out: &mut String) {
    match *ev {
        TelemetryEvent::WindowMove {
            step,
            shift,
            captured,
            copied,
            removed,
        } => {
            let _ = write!(
                out,
                "\"step\":{step},\"shift\":[{},{},{}],\"captured\":{captured},\"copied\":{copied},\"removed\":{removed}",
                number(shift[0]),
                number(shift[1]),
                number(shift[2]),
            );
        }
        TelemetryEvent::Repopulation {
            step,
            needy_subregions,
            inserted,
            rejected,
        } => {
            let _ = write!(
                out,
                "\"step\":{step},\"needy_subregions\":{needy_subregions},\"inserted\":{inserted},\"rejected\":{rejected}"
            );
        }
        TelemetryEvent::EscapedCells { step, count } => {
            let _ = write!(out, "\"step\":{step},\"count\":{count}");
        }
        TelemetryEvent::SentinelTrip {
            step,
            issues,
            first_kind,
        } => {
            let _ = write!(
                out,
                "\"step\":{step},\"issues\":{issues},\"first_kind\":{}",
                escape(first_kind)
            );
        }
        TelemetryEvent::CheckpointSaved { step, bytes } => {
            let _ = write!(out, "\"step\":{step},\"bytes\":{bytes}");
        }
        TelemetryEvent::Rollback {
            step,
            attempt,
            restored_step,
            new_seed,
            fine_tau,
        } => {
            let _ = write!(
                out,
                "\"step\":{step},\"attempt\":{attempt},\"restored_step\":{restored_step},\"new_seed\":{new_seed},\"fine_tau\":{}",
                number(fine_tau)
            );
        }
        TelemetryEvent::RetriesExhausted { step, attempts } => {
            let _ = write!(out, "\"step\":{step},\"attempts\":{attempts}");
        }
        TelemetryEvent::HaloResend {
            round,
            attempt,
            messages,
        } => {
            let _ = write!(
                out,
                "\"round\":{round},\"attempt\":{attempt},\"messages\":{messages}"
            );
        }
        TelemetryEvent::RankDown { step, rank, reason } => {
            let _ = write!(
                out,
                "\"step\":{step},\"rank\":{rank},\"reason\":{}",
                escape(reason)
            );
        }
        TelemetryEvent::RankRestored {
            step,
            rank,
            restored_epoch,
        } => {
            let _ = write!(
                out,
                "\"step\":{step},\"rank\":{rank},\"restored_epoch\":{restored_epoch}"
            );
        }
        TelemetryEvent::SessionAdmitted { session, scenario } => {
            let _ = write!(out, "\"session\":{session},\"scenario\":{scenario}");
        }
        TelemetryEvent::SessionResumed { session, step } => {
            let _ = write!(out, "\"session\":{session},\"step\":{step}");
        }
        TelemetryEvent::SessionPreempted {
            session,
            step,
            bytes,
        } => {
            let _ = write!(
                out,
                "\"session\":{session},\"step\":{step},\"bytes\":{bytes}"
            );
        }
        TelemetryEvent::SessionCompleted { session, step } => {
            let _ = write!(out, "\"session\":{session},\"step\":{step}");
        }
        TelemetryEvent::WarmCacheHit { session, scenario }
        | TelemetryEvent::WarmCacheMiss { session, scenario } => {
            let _ = write!(out, "\"session\":{session},\"scenario\":{scenario}");
        }
    }
}

impl Recorder {
    /// Render every retained span and event as a Chrome `trace_event` JSON
    /// array, records sorted by start timestamp. Load the result in
    /// `about://tracing` or Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        self.chrome_trace_json_newest(usize::MAX)
    }

    /// [`Recorder::chrome_trace_json`] limited to the `newest` most
    /// recently completed spans and events (a post-mortem dump).
    pub fn chrome_trace_json_newest(&self, newest: usize) -> String {
        let inner = self.inner.lock().unwrap();
        let skip = inner.records.len().saturating_sub(newest);
        // (ts_ns, rendered record) pairs, sorted at the end.
        let mut records: Vec<(u64, String)> = Vec::with_capacity(inner.records.len() - skip);
        for record in inner.records.iter().skip(skip) {
            let (ts, rec) = match record {
                Record::Span(span) => (span.start_ns, span_json(span)),
                Record::Event(timed) => (timed.t_ns, event_json(timed)),
            };
            records.push((ts, rec));
        }
        drop(inner);
        records.sort_by_key(|&(ts, _)| ts);

        let mut out = String::with_capacity(64 + records.len() * 170);
        out.push('[');
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{TRACE_PID},\"tid\":0,\"args\":{{\"name\":\"apr-rbc\"}}}}"
        );
        for (key, value) in self.attributes() {
            out.push(',');
            out.push('\n');
            let _ = write!(
                out,
                "{{\"name\":\"run_attribute\",\"ph\":\"M\",\"pid\":{TRACE_PID},\"tid\":0,\"args\":{{{}:{}}}}}",
                escape(&key),
                escape(&value),
            );
        }
        for (_, rec) in &records {
            out.push(',');
            out.push('\n');
            out.push_str(rec);
        }
        out.push(']');
        out
    }
    /// Write the Chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// Snapshot every registered metric into one JSONL row tagged with the
    /// simulation `step` and the recorder clock. No-op when disabled.
    pub fn sample_metrics(&self, step: u64) {
        if !self.is_enabled() {
            return;
        }
        let t_ns = self.clock().now_ns();
        let mut inner = self.inner.lock().unwrap();
        let mut row = String::with_capacity(64 + inner.metrics.len() * 32);
        let _ = write!(row, "{{\"t_ns\":{t_ns},\"step\":{step}");
        for (name, value) in &inner.metrics {
            let _ = write!(row, ",{}:", escape(name));
            match value {
                MetricValue::Counter(c) => {
                    let _ = write!(row, "{c}");
                }
                MetricValue::Gauge(g) => row.push_str(&number(*g)),
            }
        }
        row.push('}');
        inner.metric_rows.push(row);
    }

    /// All metric samples as a JSONL document (one JSON object per line).
    pub fn metrics_jsonl(&self) -> String {
        self.inner.lock().unwrap().metric_rows.join("\n")
    }

    /// Write the metric time series to `path` as JSONL.
    pub fn write_metrics_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.metrics_jsonl())
    }

    /// Render the flat per-phase wall/self-time table as aligned text.
    pub fn render_phase_table(&self) -> String {
        render_phase_table(&self.phase_stats())
    }
}

/// Render a per-phase table (sorted as given) with wall/self/mean columns
/// plus per-worker attribution (mean/max worker time and the
/// load-imbalance factor) for phases that dispatched parallel regions.
pub fn render_phase_table(stats: &[PhaseStat]) -> String {
    let mut out = String::new();
    out.push_str(
        "phase                          count     wall_ms     self_ms     mean_us   w_mean_us    w_max_us     imb\n",
    );
    for s in stats {
        let _ = write!(
            out,
            "{:<28} {:>7} {:>11.3} {:>11.3} {:>11.3}",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.mean_ns() / 1e3,
        );
        if s.workers.regions > 0 {
            let _ = writeln!(
                out,
                " {:>11.3} {:>11.3} {:>7.2}",
                s.workers.mean_ns() / 1e3,
                s.workers.max_ns as f64 / 1e3,
                s.workers.imbalance(),
            );
        } else {
            out.push_str("           -           -       -\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::json::{parse, Value};

    #[test]
    fn metrics_jsonl_rows_parse() {
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        rec.counter_add("sites", 100);
        rec.gauge_set("ht", 0.25);
        rec.sample_metrics(1);
        rec.clock().advance(10);
        rec.counter_add("sites", 50);
        rec.sample_metrics(2);
        let jsonl = rec.metrics_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let row = parse(lines[1]).unwrap();
        assert_eq!(row.get("step").unwrap().as_f64(), Some(2.0));
        assert_eq!(row.get("t_ns").unwrap().as_f64(), Some(10.0));
        assert_eq!(row.get("sites").unwrap().as_f64(), Some(150.0));
        assert_eq!(row.get("ht").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn chrome_trace_is_valid_sorted_json() {
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        {
            let _a = rec.span("first");
            rec.clock().advance(10);
        }
        rec.emit(TelemetryEvent::CheckpointSaved { step: 1, bytes: 42 });
        rec.clock().advance(5);
        {
            let _b = rec.span("second");
            rec.clock().advance(3);
        }
        let doc = parse(&rec.chrome_trace_json()).unwrap();
        let arr = doc.as_arr().unwrap();
        // Metadata + 2 spans + 1 instant.
        assert_eq!(arr.len(), 4);
        let mut last_ts = f64::MIN;
        for item in &arr[1..] {
            let ts = item.get("ts").unwrap().as_f64().unwrap();
            assert!(ts >= last_ts, "timestamps must be sorted");
            last_ts = ts;
        }
        assert_eq!(arr[1].get("name").unwrap().as_str(), Some("first"));
        assert_eq!(
            arr[2].get("args").unwrap().get("bytes").unwrap().as_f64(),
            Some(42.0)
        );
        assert!(matches!(arr[0].get("ph"), Some(Value::Str(s)) if s == "M"));
    }

    #[test]
    fn phase_table_lists_all_phases() {
        let rec = Recorder::with_clock(Clock::manual());
        rec.enable();
        {
            let _s = rec.span("apr.step");
            rec.clock().advance(1_000_000);
        }
        let table = rec.render_phase_table();
        assert!(table.contains("apr.step"));
        assert!(table.contains("wall_ms"));
    }
}

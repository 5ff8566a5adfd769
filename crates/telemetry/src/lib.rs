//! # apr-telemetry: unified tracing, metrics and profiling
//!
//! The observability layer behind the paper's §3.4 performance analysis
//! ("CPU, GPU timings along with the communication between them"): one
//! recorder collects
//!
//! * **spans** — RAII [`ScopedSpan`] guards over the step-loop phases,
//!   nestable and thread-aware, aggregated into a flat per-phase
//!   wall/self-time table and exportable as Chrome `trace_event` JSON
//!   (openable in `about://tracing` or [Perfetto](https://ui.perfetto.dev));
//! * **metrics** — named counters and gauges with a JSONL time-series
//!   exporter;
//! * **events** — a typed stream of discrete happenings (window moves,
//!   repopulations, guardian rollbacks, halo resends).
//!
//! Completed spans and events are kept once, in one bounded
//! overwrite-oldest buffer in completion order (capacity
//! [`DEFAULT_RECORD_CAPACITY`], [`Recorder::set_capacity`]), and
//! serialized by one renderer, the Chrome one; a guardian trip dumps the
//! newest records of that same trace.
//!
//! Everything hangs off one process-global [`Recorder`] reached through
//! the free functions below. Telemetry is **disabled by default**: a
//! disabled recorder costs one relaxed atomic load per call site and
//! allocates nothing, and an enabled one at capacity allocates nothing per
//! further span or event (`tests/no_alloc.rs` pins both down).
//!
//! Beside the recorder, [`ledger`] is the per-engine conservation ledger:
//! per-step mass/momentum totals of the bulk and the moving window, window
//! fill/capture flux and hematocrit drift, with drift beyond tolerance
//! latched as a [`ledger::DriftBreach`] the guardian turns into a health
//! issue.
//!
//! ```
//! apr_telemetry::enable();
//! {
//!     let _step = apr_telemetry::span("apr.step");
//!     {
//!         let _collide = apr_telemetry::span("apr.coarse");
//!         // ... work ...
//!     }
//!     apr_telemetry::counter_add("apr.site_updates", 4096);
//! }
//! apr_telemetry::sample_metrics(1);
//! let table = apr_telemetry::global().render_phase_table();
//! assert!(table.contains("apr.step"));
//! # apr_telemetry::global().reset();
//! # apr_telemetry::disable();
//! ```

pub mod clock;
pub mod events;
pub mod export;
pub mod json;
pub mod ledger;
pub mod metrics;
mod record;
pub mod span;
pub mod validate;

pub use clock::Clock;
pub use events::{TelemetryEvent, TimedEvent};
pub use export::render_phase_table;
pub use metrics::MetricValue;
pub use span::{
    current_rank, current_session, current_step, rank_scope, session_scope, step_scope, LaneStats,
    PhaseStat, RankScope, Recorder, ScopedSpan, SessionScope, SpanRecord, StepScope,
    DEFAULT_RECORD_CAPACITY,
};
pub use validate::{validate_chrome_trace, validate_metrics_jsonl, MetricsSummary, TraceSummary};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-global recorder every instrumented crate reports to.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Enable the global recorder.
pub fn enable() {
    global().enable();
}

/// Disable the global recorder (captured data is kept).
pub fn disable() {
    global().disable();
}

/// Is the global recorder capturing?
#[inline]
pub fn is_enabled() -> bool {
    // Avoid the OnceLock probe in the common never-enabled case is not
    // possible without unsafe statics; the probe is a single atomic load.
    global().is_enabled()
}

/// Open a span on the global recorder; closes when the guard drops.
#[inline]
pub fn span(name: &'static str) -> ScopedSpan<'static> {
    global().span(name)
}

/// Time `f` on the global recorder's clock; also records a span when
/// enabled. Returns `(result, elapsed_ns)`.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    global().time(name, f)
}

/// Add `delta` to a global counter.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    global().counter_add(name, delta);
}

/// Set a global gauge.
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    global().gauge_set(name, v);
}

/// Set a run-level attribute on the global recorder (e.g. which kernel
/// variant a lattice is running).
#[inline]
pub fn set_attribute(key: &'static str, value: impl Into<String>) {
    global().set_attribute(key, value);
}

/// Emit a typed event on the global recorder.
#[inline]
pub fn emit(event: TelemetryEvent) {
    global().emit(event);
}

/// Snapshot all global metrics into one JSONL row tagged `step`.
pub fn sample_metrics(step: u64) {
    global().sample_metrics(step);
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_round_trip() {
        // Keep this the only test touching the global recorder's enable
        // state in this binary (unit tests run concurrently).
        super::enable();
        {
            let _s = super::span("global.test");
        }
        super::counter_add("global.count", 3);
        super::disable();
        assert!(super::global()
            .phase_stats()
            .iter()
            .any(|p| p.name == "global.test"));
    }
}

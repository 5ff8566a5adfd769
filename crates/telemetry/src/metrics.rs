//! Metric value types: monotone counters and last-value gauges.
//!
//! The registry itself lives in the [`crate::Recorder`].

/// One named metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone accumulator.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
}

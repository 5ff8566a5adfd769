//! Flight recorder: a fixed-capacity ring buffer of the most recent
//! spans, events and metric samples, dumped to `flightrec.json` when the
//! guardian's sentinel trips so a divergence can be debugged post mortem.
//!
//! The ring is fed from the same recorder paths that build the trace
//! (span close, event emit, metric sample), but unlike the trace it never
//! grows past its capacity: old entries are overwritten, so what survives
//! a long campaign is exactly the window preceding the trip. Entries are
//! `Copy` and the buffer grows lazily up to its capacity, preserving the
//! no-alloc-when-disabled contract — a disabled recorder never pushes.

use crate::events::TimedEvent;
use crate::export::event_args;
use crate::json::escape;
use crate::span::{Recorder, SpanRecord};
use std::fmt::Write as _;

/// Default ring capacity; at ~72 bytes per entry the full ring is a few
/// hundred KB, small enough to keep alive for an entire campaign.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Schema tag written into every flight-record dump.
pub const FLIGHTREC_SCHEMA: &str = "apr.flightrec.v1";

/// One entry in the flight ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightEntry {
    /// A completed span.
    Span(SpanRecord),
    /// A typed telemetry event.
    Event(TimedEvent),
    /// A metrics snapshot was taken (the row itself lives in the JSONL
    /// exporter; the ring keeps the when).
    MetricsSample {
        /// Recorder-clock timestamp.
        t_ns: u64,
        /// Simulation step tag passed to `sample_metrics`.
        step: u64,
    },
}

impl FlightEntry {
    /// Recorder-clock timestamp of this entry (span close time for spans).
    pub fn t_ns(&self) -> u64 {
        match *self {
            FlightEntry::Span(s) => s.start_ns + s.dur_ns,
            FlightEntry::Event(e) => e.t_ns,
            FlightEntry::MetricsSample { t_ns, .. } => t_ns,
        }
    }
}

/// Fixed-capacity overwrite-oldest ring of [`FlightEntry`] values.
#[derive(Debug)]
pub(crate) struct FlightRing {
    cap: usize,
    buf: Vec<FlightEntry>,
    head: usize,
    total: u64,
}

impl FlightRing {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            cap,
            buf: Vec::new(),
            head: 0,
            total: 0,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    pub(crate) fn push(&mut self, entry: FlightEntry) {
        if self.cap == 0 {
            self.total += 1;
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(entry);
        } else {
            self.buf[self.head] = entry;
            self.head = (self.head + 1) % self.cap;
        }
        self.total += 1;
    }

    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Entries overwritten (or never stored, for a zero-capacity ring).
    pub(crate) fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Retained entries, oldest first.
    pub(crate) fn entries(&self) -> Vec<FlightEntry> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

impl Recorder {
    /// Resize the flight ring (clears retained entries).
    pub fn set_flight_capacity(&self, cap: usize) {
        self.inner.lock().unwrap().flight = FlightRing::new(cap);
    }

    /// Retained flight entries, oldest first.
    pub fn flight_entries(&self) -> Vec<FlightEntry> {
        self.inner.lock().unwrap().flight.entries()
    }

    /// Entries pushed into the flight ring since the last reset.
    pub fn flight_total(&self) -> u64 {
        self.inner.lock().unwrap().flight.total()
    }

    /// Flight entries already overwritten by newer ones.
    pub fn flight_dropped(&self) -> u64 {
        self.inner.lock().unwrap().flight.dropped()
    }

    /// Render the flight ring as a self-describing JSON document
    /// (`schema: "apr.flightrec.v1"`), entries oldest first.
    ///
    /// The header carries the serve session scoped on the dumping thread
    /// (0 = unscoped) and the active `RuntimeConfig` (kernel/threads, read
    /// from the `runtime.*` run attributes set when the engine was built), so a post-mortem dump is attributable to one
    /// session and one runtime configuration.
    pub fn flightrec_json(&self) -> String {
        let (cap, total, dropped, entries, runtime) = {
            let inner = self.inner.lock().unwrap();
            let mut runtime = String::from("{");
            for key in ["kernel", "threads"] {
                let full = format!("runtime.{key}");
                if let Some((_, v)) = inner.attributes.iter().find(|(&k, _)| k == full) {
                    if runtime.len() > 1 {
                        runtime.push(',');
                    }
                    let _ = write!(runtime, "\"{key}\":{}", escape(v));
                }
            }
            runtime.push('}');
            (
                inner.flight.capacity(),
                inner.flight.total(),
                inner.flight.dropped(),
                inner.flight.entries(),
                runtime,
            )
        };
        let session = crate::span::current_session();
        let mut out = String::with_capacity(128 + entries.len() * 140);
        let _ = write!(
            out,
            "{{\"schema\":{},\"capacity\":{cap},\"total\":{total},\"dropped\":{dropped},\"session\":{session},\"runtime\":{runtime},\"entries\":[",
            escape(FLIGHTREC_SCHEMA)
        );
        for (i, entry) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            match *entry {
                FlightEntry::Span(s) => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"span\",\"name\":{},\"tid\":{},\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{},\"depth\":{}",
                        escape(s.name),
                        s.tid,
                        s.start_ns,
                        s.dur_ns,
                        s.self_ns,
                        s.depth,
                    );
                    if s.session != 0 {
                        let _ = write!(out, ",\"session\":{}", s.session);
                    }
                    if let Some(rank) = s.rank {
                        let _ = write!(out, ",\"rank\":{rank}");
                    }
                    if s.step != 0 {
                        let _ = write!(out, ",\"step\":{}", s.step);
                    }
                    out.push('}');
                }
                FlightEntry::Event(e) => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"event\",\"kind\":{},\"t_ns\":{},\"args\":{{",
                        escape(e.event.kind()),
                        e.t_ns,
                    );
                    event_args(&e.event, &mut out);
                    out.push_str("}}");
                }
                FlightEntry::MetricsSample { t_ns, step } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"sample\",\"t_ns\":{t_ns},\"step\":{step}}}"
                    );
                }
            }
        }
        out.push_str("\n]}");
        out
    }

    /// Write the flight record to `path`.
    pub fn write_flightrec(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.flightrec_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let mut ring = FlightRing::new(3);
        for step in 0..5u64 {
            ring.push(FlightEntry::MetricsSample { t_ns: step, step });
        }
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.dropped(), 2);
        let steps: Vec<u64> = ring
            .entries()
            .iter()
            .map(|e| match e {
                FlightEntry::MetricsSample { step, .. } => *step,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(steps, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_stores_nothing() {
        let mut ring = FlightRing::new(0);
        ring.push(FlightEntry::MetricsSample { t_ns: 0, step: 0 });
        assert!(ring.entries().is_empty());
        assert_eq!(ring.dropped(), 1);
    }
}

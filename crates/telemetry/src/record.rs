//! The recorder's one record buffer: completed spans and typed events in
//! completion order, bounded, overwriting the oldest once full.
//!
//! The buffer grows lazily up to its capacity and then only overwrites, so
//! a long campaign keeps its newest `capacity` records (the history a
//! guardian dump wants) and an enabled recorder at capacity allocates
//! nothing per further span or event.

use crate::events::TimedEvent;
use crate::span::SpanRecord;

/// One entry of the record buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Record {
    /// A completed span.
    Span(SpanRecord),
    /// A typed telemetry event.
    Event(TimedEvent),
}

/// Fixed-capacity overwrite-oldest ring of [`Record`]s.
#[derive(Debug)]
pub(crate) struct RecordRing {
    cap: usize,
    buf: Vec<Record>,
    /// Index of the oldest record once the ring is full.
    head: usize,
    dropped: u64,
}

impl RecordRing {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            cap,
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Records overwritten (or never stored, at capacity 0).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn push(&mut self, record: Record) {
        if self.buf.len() < self.cap {
            self.buf.push(record);
            return;
        }
        self.dropped += 1;
        if self.cap > 0 {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Retained records, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Record> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }

    /// Re-bound the ring to `cap` records, keeping the newest that fit
    /// (the rest count as dropped).
    pub(crate) fn set_capacity(&mut self, cap: usize) {
        let excess = self.buf.len().saturating_sub(cap);
        let kept: Vec<Record> = self.iter().skip(excess).copied().collect();
        self.dropped += excess as u64;
        self.buf = kept;
        self.head = 0;
        self.cap = cap;
    }
}

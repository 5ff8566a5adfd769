//! Spans recorded by the benchmark itself, around its calls into each
//! layer. The buffer is allocated once, so recording a span during a pass
//! is two clock reads and a push that never reallocates.

use std::fmt::Write as _;
use std::time::Instant;

/// "No parent" marker in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Coarse step of the pass the span belongs to.
    pub step: u32,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
}

impl Recorder {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for [`Recorder::close`] and as the
    /// parent of spans it causes.
    ///
    /// # Panics
    /// Panics when the buffer is full: the pass sized it, so overflow is
    /// a bug in the benchmark, and growing would allocate mid-pass.
    pub fn open(&mut self, name: &'static str, parent: u32, step: u32) -> u32 {
        assert!(self.spans.len() < self.capacity, "span buffer too small");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            step,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        step: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, step);
        let r = f();
        self.close(id);
        r
    }

    /// Per-step durations (ms) of every span called `name`, summed within
    /// a step.
    pub fn per_step_ms(&self, name: &str, steps: u32) -> Vec<f64> {
        let mut out = vec![0.0; steps as usize];
        for s in self.spans.iter().filter(|s| s.name == name) {
            out[s.step as usize] += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 32);
        out.push_str("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"step\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.step
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

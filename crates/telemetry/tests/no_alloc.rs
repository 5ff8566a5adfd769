//! The no-op recorder must add **zero heap allocations** to a timed step:
//! with telemetry disabled, spans, counters, gauges and events all return
//! before touching the heap. This is the contract that lets the engines
//! stay instrumented unconditionally. With telemetry enabled, the record
//! buffer is bounded: once it is full, further spans and events overwrite
//! the oldest records instead of growing it.
//!
//! A counting global allocator measures allocations across bursts of
//! telemetry calls. This file deliberately contains a single test: the
//! counter is process-global, and a concurrent test's allocations would
//! show up in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The span/metric/event mix of `steps` instrumented engine steps.
fn engine_steps(steps: std::ops::Range<u64>) {
    for step in steps {
        let _step = apr_telemetry::span("apr.step");
        {
            let _coarse = apr_telemetry::span("apr.coarse");
        }
        {
            let _fine = apr_telemetry::span("apr.fine.collide");
            apr_telemetry::global().record_parallel_region(100, &[60, 40]);
        }
        apr_telemetry::counter_add("apr.site_updates", 4096);
        apr_telemetry::gauge_set("window.hematocrit", 0.25);
        apr_telemetry::emit(apr_telemetry::TelemetryEvent::EscapedCells { step, count: 1 });
    }
}

#[test]
fn telemetry_allocates_nothing_when_disabled_or_full() {
    let rec = apr_telemetry::global();
    // Force the global recorder (and this thread's tid slot) into
    // existence before the measured window.
    rec.reset();
    assert!(!apr_telemetry::is_enabled());
    {
        let _warmup = apr_telemetry::span("warmup");
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    engine_steps(0..1000);
    for step in 0..1000 {
        apr_telemetry::sample_metrics(step);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled telemetry must not allocate (saw {} allocations)",
        after - before
    );

    // Enabled: fill a small buffer (first touches register metrics and
    // grow the buffer to its bound), then every further step overwrites.
    let cap = 64;
    rec.set_capacity(cap);
    apr_telemetry::enable();
    engine_steps(0..100);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    engine_steps(100..1100);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    apr_telemetry::disable();
    assert_eq!(
        after - before,
        0,
        "an enabled recorder at capacity must not allocate per span or event (saw {})",
        after - before
    );
    let held = rec.span_records().len() + rec.events().len();
    assert_eq!(held, cap, "the buffer holds exactly its capacity");
    assert_eq!(rec.dropped(), 1100 * 4 - cap as u64, "4 records a step");
    let step = rec
        .phase_stats()
        .into_iter()
        .find(|p| p.name == "apr.step")
        .unwrap();
    assert_eq!(step.count, 1100, "aggregates count past the bound");
}

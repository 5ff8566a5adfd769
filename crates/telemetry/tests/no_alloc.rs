//! The no-op recorder must add **zero heap allocations** to a timed step:
//! with telemetry disabled, spans, counters, gauges, histograms and events
//! all return before touching the heap. This is the contract that lets the
//! engines stay instrumented unconditionally.
//!
//! A counting global allocator measures allocations across a burst of
//! disabled-telemetry calls. This file deliberately contains a single test:
//! the counter is process-global, and a concurrent test's allocations
//! would show up in the window.

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

#[test]
fn disabled_telemetry_allocates_nothing() {
    use apr_telemetry::TelemetryEvent;

    // Force the global recorder (and this thread's tid slot) into
    // existence before the measured window.
    apr_telemetry::global().reset();
    assert!(!apr_telemetry::is_enabled());
    {
        let _warmup = apr_telemetry::span("warmup");
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for step in 0..1000u64 {
        // The span/metric/event mix of one instrumented engine step.
        let _step = apr_telemetry::span("apr.step");
        {
            let _coarse = apr_telemetry::span("apr.coarse");
        }
        {
            let _fine = apr_telemetry::span("apr.fine.collide");
        }
        apr_telemetry::counter_add("apr.site_updates", 4096);
        apr_telemetry::gauge_set("window.hematocrit", 0.25);
        apr_telemetry::histogram_record("fsi.force", &[1.0, 2.0, 4.0], 0.5);
        apr_telemetry::emit(TelemetryEvent::EscapedCells { step, count: 1 });
        apr_telemetry::global().record_parallel_region(100, &[60, 40]);
        apr_telemetry::sample_metrics(step);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled telemetry must not allocate (saw {} allocations)",
        after - before
    );

    // Sanity: the same burst with the recorder enabled does record (and
    // may allocate — that is the enabled path's job).
    apr_telemetry::enable();
    {
        let _s = apr_telemetry::span("enabled.probe");
    }
    apr_telemetry::disable();
    assert!(apr_telemetry::global()
        .phase_stats()
        .iter()
        .any(|p| p.name == "enabled.probe"));
}

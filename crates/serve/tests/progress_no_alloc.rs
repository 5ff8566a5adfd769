//! The progress hub's nobody-listening publish path must add **zero heap
//! allocations**: the scheduler publishes a sample per slice
//! unconditionally, so with no subscriber the cost has to be one relaxed
//! atomic load — the same contract disabled `apr-telemetry` recording
//! makes.
//!
//! A counting global allocator measures allocations across a burst of
//! subscriber-free publishes. Single test per file: the counter is
//! process-global.

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
fn publish_without_subscribers_allocates_nothing() {
    use apr_serve::{ProgressHub, ProgressSample};

    let h = ProgressHub::new();
    assert_eq!(h.subscriber_count(), 0);

    let sample = ProgressSample {
        session: 1,
        steps_done: 10,
        target_steps: 100,
        slice: 1,
        steps_per_sec: 1000.0,
        cache_hit: None,
        completed: false,
    };

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        h.publish(sample);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "subscriber-free publish must not allocate (saw {} allocations)",
        after - before
    );

    // Sanity: with a subscriber the same publish is delivered (and may
    // allocate — that is the delivering path's job).
    let sub = h.subscribe(None);
    h.publish(sample);
    assert_eq!(sub.try_recv(), Some(sample));
}

//! Lattice sections against hostile bytes: a truncated or length-inflated
//! distribution image is a typed error, and no restore — failed or not —
//! allocates a dense distribution array (the lattice stores only its
//! stateful rows, so the image is read straight into them).
//!
//! A counting global allocator records the largest single allocation made
//! while armed; tests that arm it hold `ARMED_LOCK`.

use apr_guard::{read_lattice, write_lattice, ByteReader, GuardError};
use apr_lattice::{force_driven_tube, Lattice, Q};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

struct Largest;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static ARMED_LOCK: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            LARGEST.fetch_max(new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The largest single allocation `f` makes, and its result.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (out, LARGEST.load(Ordering::Relaxed))
}

/// A walled tube, under half fluid, stepped off rest.
fn tube() -> Lattice {
    let mut lat = force_driven_tube(16, 16, 12, 0.9, 4.0, 1e-5);
    for _ in 0..5 {
        lat.step();
    }
    lat
}

/// Byte offset of the distribution image's length prefix in a lattice
/// payload: three dims, three periodic flags, τ, body force, step count.
const IMAGE_PREFIX: usize = 3 * 8 + 3 + 8 + 3 * 8 + 8;

#[test]
fn restore_reads_the_image_without_a_dense_array() {
    let _armed = ARMED_LOCK.lock().unwrap();
    let src = tube();
    let dense = src.node_count() * Q * 8;
    assert!(src.stored_node_count() * 2 < src.node_count());
    let blob = write_lattice(&src);
    let (restored, largest) = largest_allocation(|| {
        let mut dst = force_driven_tube(16, 16, 12, 0.9, 4.0, 1e-5);
        read_lattice(&mut dst, &mut ByteReader::new(&blob)).map(|_| dst)
    });
    let dst = restored.expect("restore");
    assert!(
        largest < dense,
        "restore allocated {largest} B (dense f is {dense} B)"
    );
    assert_eq!(write_lattice(&dst), blob, "restore is not lossless");
}

#[test]
fn truncated_or_inflated_images_are_typed_errors_without_a_dense_array() {
    let _armed = ARMED_LOCK.lock().unwrap();
    let src = tube();
    let dense = src.node_count() * Q * 8;
    let blob = write_lattice(&src);
    let prefix = u64::from_le_bytes(blob[IMAGE_PREFIX..IMAGE_PREFIX + 8].try_into().unwrap());
    assert_eq!(prefix as usize, src.node_count() * Q, "image prefix offset");

    let truncated = blob[..IMAGE_PREFIX + 8 + dense / 2].to_vec();
    let mut inflated = blob.clone();
    inflated[IMAGE_PREFIX..IMAGE_PREFIX + 8].copy_from_slice(&(prefix * 1000).to_le_bytes());
    let mut short = blob.clone();
    short[IMAGE_PREFIX..IMAGE_PREFIX + 8].copy_from_slice(&(prefix - Q as u64).to_le_bytes());
    for (name, bytes) in [
        ("truncated", truncated),
        ("inflated", inflated),
        ("short", short),
    ] {
        let (result, largest) = largest_allocation(|| {
            let mut dst = force_driven_tube(16, 16, 12, 0.9, 4.0, 1e-5);
            read_lattice(&mut dst, &mut ByteReader::new(&bytes))
        });
        assert!(
            matches!(result, Err(GuardError::Format(_))),
            "{name}: {result:?}"
        );
        assert!(largest < dense, "{name}: allocated {largest} B");
    }
}

//! # apr-exec — deterministic multithreaded execution backend
//!
//! A persistent scoped worker pool over `std::thread` with **deterministic
//! static chunking**. The determinism contract:
//!
//! 1. Work is split into chunks whose layout depends only on
//!    `(len, chunk_len)` — never on the thread count. Lanes execute
//!    contiguous runs of chunks, so the *assignment* varies with the lane
//!    count but the per-chunk computation does not.
//! 2. Disjoint-write kernels ([`ExecPool::par_for_chunks_mut`],
//!    [`ExecPool::par_for_ranges`]) therefore produce bit-identical output
//!    for any thread count, including 1.
//! 3. Reductions ([`ExecPool::par_map_reduce`]) collect per-chunk partials
//!    into a slot array indexed by chunk and combine them on the calling
//!    thread in a fixed-shape ordered pairwise tree over chunk index —
//!    the floating-point association order is a function of the chunk
//!    count alone.
//!
//! The lattice sweeps hand their chunks out differently: from a
//! cost-balanced [`ChunkPlan`] through one shared claim cursor
//! ([`ExecPool::par_for_guided`], [`GuidedScheduler`]). The layout is still
//! the plan's alone and the kernels write disjointly, so which lane claims
//! which chunk is unobservable and rule 2 holds unchanged.
//!
//! Write-conflicting accumulations need no rule of their own: the IBM force
//! spread partitions its *output* into fixed z-slabs, each slab task walks
//! the producers that touch it in input order, and the scatter is a
//! disjoint-write kernel under rule 2 (`apr_ibm::spread_forces_into`).
//!
//! Together these make every result a pure function of the input and the
//! chunk layout, so `APR_THREADS=8` reproduces `APR_THREADS=1` bit for
//! bit. See `DESIGN.md` §9 for the full execution model.
//!
//! ## Thread count selection
//!
//! The typed front door is `apr_kernels::RuntimeConfig::from_env`, which
//! parses `APR_THREADS` (with `APR_KERNEL`) and installs
//! the result via [`set_threads`]. The lazily created global pool still
//! falls back to a lenient `APR_THREADS` read (unset or `0` → all
//! available cores). Process-wide consumers go through the global pool:
//! [`current()`] hands out a shared [`ExecPool`]; [`set_threads`] swaps it
//! (used by CLI `--threads` flags and the determinism suite).

pub mod pool;

pub use pool::{
    set_test_start_jitter, thread_cpu_ns, ChunkPlan, ExecPool, GuidedScheduler, UnsafeSlice,
};

use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};

/// Execution configuration resolved from the environment / CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker lanes to run (≥ 1). `1` means fully sequential.
    pub threads: usize,
}

impl ExecConfig {
    /// Lenient `APR_THREADS` resolution for the lazily created global
    /// pool: unset, empty, unparsable, or `0` → one lane per available
    /// core. The strict, typed parse lives in
    /// `apr_kernels::RuntimeConfig::from_env`.
    pub(crate) fn resolve_env() -> Self {
        let requested = std::env::var("APR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        Self {
            threads: if requested == 0 {
                available_cores()
            } else {
                requested
            },
        }
    }

    /// Explicit thread count (`0` → all available cores).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: if threads == 0 {
                available_cores()
            } else {
                threads
            },
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::resolve_env()
    }
}

/// Lanes the hardware offers (≥ 1).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn global() -> &'static Mutex<Option<Arc<ExecPool>>> {
    static GLOBAL: OnceLock<Mutex<Option<Arc<ExecPool>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

thread_local! {
    /// Stack of scoped pool overrides installed by [`with_pool`].
    /// Innermost override wins.
    static POOL_OVERRIDE: RefCell<Vec<Arc<ExecPool>>> = const { RefCell::new(Vec::new()) };
}

/// The current pool: the innermost [`with_pool`] override on this thread
/// if one is active, otherwise the process-wide pool (created from the
/// `APR_THREADS` environment on first use). Clones of the `Arc` stay valid
/// across [`set_threads`] swaps and scope exits (they keep the old pool
/// alive until dropped).
pub fn current() -> Arc<ExecPool> {
    if let Some(p) = POOL_OVERRIDE.with(|s| s.borrow().last().cloned()) {
        return p;
    }
    let mut slot = global().lock().unwrap();
    slot.get_or_insert_with(|| Arc::new(ExecPool::new(ExecConfig::resolve_env().threads)))
        .clone()
}

/// Run `f` with `pool` installed as this thread's [`current`] pool.
/// Scopes nest (innermost wins) and unwind-safely pop on panic, so a
/// poisoned engine slice cannot leak its pool override into the next
/// session scheduled on the same worker thread.
pub fn with_pool<R>(pool: Arc<ExecPool>, f: impl FnOnce() -> R) -> R {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            POOL_OVERRIDE.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    POOL_OVERRIDE.with(|s| s.borrow_mut().push(pool));
    let _guard = PopGuard;
    f()
}

/// Replace the process-wide pool with one of `threads` lanes
/// (`0` → all available cores). Existing [`current`] clones keep running
/// on the pool they hold.
pub fn set_threads(threads: usize) {
    let pool = Arc::new(ExecPool::new(ExecConfig::with_threads(threads).threads));
    *global().lock().unwrap() = Some(pool);
}

/// Lane count of the process-wide pool.
pub fn current_threads() -> usize {
    current().threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_with_explicit_threads() {
        assert_eq!(ExecConfig::with_threads(3).threads, 3);
        assert!(ExecConfig::with_threads(0).threads >= 1);
    }

    #[test]
    fn global_pool_swaps() {
        set_threads(2);
        assert_eq!(current_threads(), 2);
        let held = current();
        set_threads(1);
        assert_eq!(current_threads(), 1);
        // The old pool is still usable through the retained clone.
        let sum = held
            .par_map_reduce(8, 2, |_, r| r.len() as u64, |a, b| a + b)
            .unwrap_or(0);
        assert_eq!(sum, 8);
    }

    #[test]
    fn with_pool_overrides_nest_and_unwind() {
        let outer = Arc::new(ExecPool::new(3));
        let inner = Arc::new(ExecPool::new(2));
        with_pool(Arc::clone(&outer), || {
            assert_eq!(current().threads(), 3);
            with_pool(Arc::clone(&inner), || {
                assert_eq!(current().threads(), 2);
            });
            assert_eq!(current().threads(), 3);
            // A panic inside a scope must pop its override.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_pool(Arc::clone(&inner), || panic!("boom"))
            }));
            assert!(r.is_err());
            assert_eq!(current().threads(), 3);
        });
    }
}

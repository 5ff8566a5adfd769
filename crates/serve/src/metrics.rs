//! Service-level metrics: throughput, latency percentiles, preemption
//! overhead, cache effectiveness, and the fairness observable.

use crate::cache::WarmCache;
use crate::session::{SessionResult, SessionStats};
use crate::store::SpillStore;

/// Aggregated view over every session the service has observed. Produced
/// by `SimService::metrics`; `benchmark/`'s `serve_sweep` workload reports
/// it as the `serve.*` rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMetrics {
    /// Sessions admitted so far (completed or not).
    pub sessions_admitted: u64,
    /// Sessions that reached their target.
    pub sessions_completed: u64,
    /// Sessions that completed with an error (engine panic).
    pub sessions_failed: u64,
    /// Seconds since the service started.
    pub wall_seconds: f64,
    /// Completed sessions per wall-clock second.
    pub sessions_per_sec: f64,
    /// Median admission → first-engine-step latency, milliseconds.
    pub p50_ttfs_ms: f64,
    /// 95th-percentile admission → first-engine-step latency, ms.
    pub p95_ttfs_ms: f64,
    /// Preemption overhead: time suspending + restoring as a percentage
    /// of total slice time (step + suspend + restore). One-time setup
    /// (cold build / warm restore) is excluded — it is paid once per
    /// session regardless of scheduling.
    pub preempt_overhead_pct: f64,
    /// Warm-cache lookups that found a blob.
    pub cache_hits: u64,
    /// Warm-cache lookups that had to build cold.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`; 0.0 before any lookup.
    pub cache_hit_rate: f64,
    /// Total preemptions across all sessions.
    pub total_preempts: u64,
    /// Most grants handed to anyone during one wait of any session in
    /// the ready queue (see [`SessionStats::max_grant_gap`]). FIFO
    /// round-robin bounds this by the number of concurrently active
    /// sessions; starvation shows up here as a large value.
    pub max_grant_gap: u64,
    /// Engine site updates summed over all sessions.
    pub total_site_updates: u64,
    /// Parked checkpoints spilled from memory to disk (0 with the default
    /// unbounded park pool).
    pub park_spills: u64,
    /// Parked-checkpoint takes served from the memory tier.
    pub park_memory_hits: u64,
    /// Parked-checkpoint takes served from the disk tier.
    pub park_disk_hits: u64,
}

impl ServiceMetrics {
    /// Fold per-session bookkeeping into the service view.
    pub(crate) fn compute<'a>(
        sessions: impl Iterator<Item = (&'a SessionStats, Option<&'a SessionResult>)>,
        wall_seconds: f64,
        cache: &WarmCache,
        parked: &SpillStore,
    ) -> Self {
        let mut admitted = 0u64;
        let mut completed = 0u64;
        let mut failed = 0u64;
        let mut preempts = 0u64;
        let mut max_gap = 0u64;
        let mut site_updates = 0u64;
        let mut step_ns = 0u64;
        let mut suspend_ns = 0u64;
        let mut resume_ns = 0u64;
        let mut ttfs_ms: Vec<f64> = Vec::new();
        for (stats, result) in sessions {
            admitted += 1;
            preempts += stats.preempts;
            max_gap = max_gap.max(stats.max_grant_gap);
            step_ns += stats.step_ns;
            suspend_ns += stats.suspend_ns;
            resume_ns += stats.resume_ns;
            if let Some(ttfs) = stats.time_to_first_step {
                ttfs_ms.push(ttfs.as_secs_f64() * 1e3);
            }
            if let Some(r) = result {
                site_updates += r.site_updates;
                if r.error.is_some() {
                    failed += 1;
                } else {
                    completed += 1;
                }
            }
        }
        ttfs_ms.sort_by(|a, b| a.total_cmp(b));
        let overhead_ns = suspend_ns + resume_ns;
        let slice_ns = step_ns + overhead_ns;
        Self {
            sessions_admitted: admitted,
            sessions_completed: completed,
            sessions_failed: failed,
            wall_seconds,
            sessions_per_sec: if wall_seconds > 0.0 {
                completed as f64 / wall_seconds
            } else {
                0.0
            },
            p50_ttfs_ms: percentile(&ttfs_ms, 0.50),
            p95_ttfs_ms: percentile(&ttfs_ms, 0.95),
            preempt_overhead_pct: if slice_ns > 0 {
                overhead_ns as f64 / slice_ns as f64 * 100.0
            } else {
                0.0
            },
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_hit_rate: cache.hit_rate(),
            total_preempts: preempts,
            max_grant_gap: max_gap,
            total_site_updates: site_updates,
            park_spills: parked.spills(),
            park_memory_hits: parked.memory_hits(),
            park_disk_hits: parked.disk_hits(),
        }
    }
}

/// Nearest-rank percentile over a sorted slice (0.0 for empty input).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn compute_folds_sessions_and_percentiles() {
        let cache = WarmCache::new(2);
        cache.insert(1, vec![0]);
        cache.lookup(1); // hit
        cache.lookup(2); // miss
        let now = Instant::now();
        let mut a = SessionStats::new(now);
        a.time_to_first_step = Some(Duration::from_millis(10));
        a.preempts = 3;
        a.max_grant_gap = 5;
        a.step_ns = 900;
        a.suspend_ns = 60;
        a.resume_ns = 40;
        let mut b = SessionStats::new(now);
        b.time_to_first_step = Some(Duration::from_millis(30));
        b.max_grant_gap = 2;
        let ra = SessionResult {
            session: 1,
            scenario: 1,
            steps: 20,
            site_updates: 4000,
            final_checkpoint: vec![1],
            cache_hit: true,
            preempts: 3,
            error: None,
        };
        let parked = SpillStore::unbounded();
        let m = ServiceMetrics::compute(
            [(&a, Some(&ra)), (&b, None)].into_iter(),
            2.0,
            &cache,
            &parked,
        );
        assert_eq!(m.sessions_admitted, 2);
        assert_eq!(m.sessions_completed, 1);
        assert_eq!(m.sessions_failed, 0);
        assert!((m.sessions_per_sec - 0.5).abs() < 1e-12);
        assert!((m.p50_ttfs_ms - 10.0).abs() < 1e-9 || (m.p50_ttfs_ms - 30.0).abs() < 1e-9);
        assert!((m.p95_ttfs_ms - 30.0).abs() < 1e-9);
        // overhead = (60 + 40) / (900 + 100) = 10%
        assert!((m.preempt_overhead_pct - 10.0).abs() < 1e-9);
        assert_eq!(m.total_preempts, 3);
        assert_eq!(m.max_grant_gap, 5);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.total_site_updates, 4000);
        assert_eq!(m.park_spills, 0);
        assert_eq!(m.park_memory_hits, 0);
        assert_eq!(m.park_disk_hits, 0);
    }
}

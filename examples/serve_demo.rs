//! Serve demo: 8 concurrent sessions on a 2-worker budget, watched live.
//!
//! Submits eight tube-flow sessions — four scenario specs, two sessions
//! each — to the multi-tenant service. With 4× oversubscription every
//! session is repeatedly checkpoint-preempted and resumed; the second
//! session of each spec starts from the warm-state cache. Progress is
//! **streamed** while the scheduler runs: the demo subscribes to the
//! service's progress channel before submitting, and every retired slice
//! pushes a live sample (steps done, steps/s, cache temperature) — nothing
//! polls under the scheduler lock. After the stream drains, it prints per-session outcomes and the service-level metrics, and
//! verifies that sessions with identical specs finished bit-identically.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```

use apr_suite::serve::{JobSpec, ScenarioSpec, ServeConfig, SimService};
use std::collections::HashMap;
use std::time::Duration;

fn main() {
    let config = ServeConfig {
        workers: 2,
        lanes_per_worker: 2,
        slice_steps: 8,
        max_sessions: 16,
        cache_capacity: 8,
        park_bytes_cap: usize::MAX,
    };
    println!(
        "serve_demo: 8 sessions on {} workers x {} lanes, {}-step slices",
        config.workers, config.lanes_per_worker, config.slice_steps
    );
    let service = SimService::start(config);

    // Subscribe BEFORE submitting so no slice sample is missed.
    let progress = service.subscribe_progress(None);

    // Four specs (different seeds), two sessions each: the second of each
    // pair should hit the warm cache.
    let mut submitted = 0usize;
    for round in 0..2 {
        for seed in 0..4u64 {
            let id = service
                .submit(JobSpec {
                    scenario: ScenarioSpec::tube_small(seed),
                    target_steps: 32,
                })
                .expect("admission");
            submitted += 1;
            println!("  admitted session {id} (seed {seed}, round {round})");
        }
    }

    // Live stream: one line per retired slice, until every session has
    // pushed its completion sample.
    println!("\nlive progress stream:");
    let mut completed = 0usize;
    let mut streamed = 0usize;
    while completed < submitted {
        let Some(p) = progress.recv_timeout(Duration::from_secs(30)) else {
            panic!("progress stream stalled with {completed}/{submitted} sessions complete");
        };
        streamed += 1;
        let temp = match p.cache_hit {
            Some(true) => "warm",
            Some(false) => "cold",
            None => "?",
        };
        println!(
            "  session {:>2}  slice {:>2}  {:>3}/{} steps  {:>8.0} steps/s  {}{}",
            p.session,
            p.slice,
            p.steps_done,
            p.target_steps,
            p.steps_per_sec,
            temp,
            if p.completed { "  [done]" } else { "" }
        );
        if p.completed {
            completed += 1;
        }
    }
    println!(
        "streamed {streamed} slice samples for {submitted} sessions ({} dropped)",
        progress.dropped()
    );

    let results = service.wait_all();
    println!("\nsession  steps  preempts  cache  checkpoint_bytes");
    for r in &results {
        println!(
            "{:>7}  {:>5}  {:>8}  {:>5}  {:>16}",
            r.session,
            r.steps,
            r.preempts,
            if r.cache_hit { "warm" } else { "cold" },
            r.final_checkpoint.len()
        );
    }

    // Identical specs must finish bit-identically regardless of how the
    // scheduler interleaved them.
    let mut by_scenario: HashMap<u64, &[u8]> = HashMap::new();
    for r in &results {
        match by_scenario.get(&r.scenario) {
            None => {
                by_scenario.insert(r.scenario, &r.final_checkpoint);
            }
            Some(reference) => assert_eq!(
                &r.final_checkpoint.as_slice(),
                reference,
                "sessions with identical specs diverged"
            ),
        }
    }
    println!("\nall identical-spec session pairs finished bit-identically");

    let m = service.metrics();
    println!(
        "completed {}/{} sessions in {:.2}s ({:.1} sessions/s)",
        m.sessions_completed, m.sessions_admitted, m.wall_seconds, m.sessions_per_sec
    );
    println!(
        "time-to-first-step p50 {:.1} ms, p95 {:.1} ms",
        m.p50_ttfs_ms, m.p95_ttfs_ms
    );
    println!(
        "preempt overhead {:.1}% over {} preemptions; cache hit rate {:.0}% ({} hits / {} misses)",
        m.preempt_overhead_pct,
        m.total_preempts,
        m.cache_hit_rate * 100.0,
        m.cache_hits,
        m.cache_misses
    );
    println!(
        "worst grant gap {} (fair-share bound: active sessions)",
        m.max_grant_gap
    );
}

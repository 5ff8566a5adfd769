//! The `serve_sweep` workload: one client submits a batch of sessions to
//! `apr-serve` and waits for all of them (closed loop, one batch in
//! flight). Latency is client-side: `submit` → the first `ProgressSample`
//! for that session on `subscribe_progress(None)`.

use crate::apr_run::{self, engine_meta};
use crate::layers;
use crate::report::{median, nproc, peak_rss_mb, quantile, Outcome};
use crate::workloads::{sweep_jobs, SERVE_SWEEP, SLICE_STEPS};
use apr_scenarios::ScenarioSpec;
use apr_serve::{JobSpec, ServeConfig, SimService};
use apr_telemetry::json;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups at the start of a timed run, so `setup_s` is a median.
const SETUPS_PER_RUN: usize = 3;

/// Sessions of the warm-up sweep: the first two of each class, which
/// include both cellular specs.
const WARMUP_SESSIONS: usize = 4;

/// Preempted/straight sweep pairs of the traced run.
const SWEEP_PAIRS: usize = 3;

/// A session that shows no progress for this long has failed.
const PROGRESS_TIMEOUT: Duration = Duration::from_secs(120);

fn config(jobs: usize, slice_steps: u64) -> ServeConfig {
    ServeConfig {
        workers: nproc().min(2),
        lanes_per_worker: 1,
        slice_steps,
        max_sessions: jobs,
        cache_capacity: 8,
        park_bytes_cap: usize::MAX,
    }
}

/// What one sweep showed its client.
struct Sweep {
    wall_s: f64,
    /// Time to first progress (ms) with the session's cache-hit flag.
    ttfs_ms: Vec<(f64, bool)>,
    site_updates: u64,
    preempts: u64,
    cache_hit_rate: f64,
    /// Final checkpoint per scenario hash (every session of one scenario
    /// and target must agree; disagreement is recorded as a violation).
    finals: HashMap<u64, Vec<u8>>,
}

/// Start a service, submit every job, drain progress until every session
/// has completed, collect the results.
fn sweep(jobs: &[(ScenarioSpec, u64)], slice_steps: u64, out: &mut Outcome) -> Sweep {
    let service = SimService::start(config(jobs.len(), slice_steps));
    let progress = service.subscribe_progress(None);
    let started = Instant::now();
    let mut submitted: HashMap<u64, Instant> = HashMap::with_capacity(jobs.len());
    for (scenario, target_steps) in jobs {
        out.attempted += 1;
        let at = Instant::now();
        match service.submit(JobSpec {
            scenario: scenario.clone(),
            target_steps: *target_steps,
        }) {
            Ok(id) => {
                submitted.insert(id, at);
            }
            Err(e) => {
                out.failed += 1;
                out.violations.push(format!("submit refused: {e}"));
            }
        }
    }
    let mut ttfs_ms = Vec::with_capacity(jobs.len());
    let mut seen: HashMap<u64, bool> = HashMap::with_capacity(jobs.len());
    let mut completed = 0;
    while completed < submitted.len() {
        let Some(sample) = progress.recv_timeout(PROGRESS_TIMEOUT) else {
            out.violations
                .push(format!("no progress for {PROGRESS_TIMEOUT:?}"));
            break;
        };
        let now = Instant::now();
        if let Some(at) = submitted.get(&sample.session) {
            seen.entry(sample.session).or_insert_with(|| {
                let ms = now.duration_since(*at).as_secs_f64() * 1e3;
                ttfs_ms.push((ms, sample.cache_hit.unwrap_or(false)));
                true
            });
            if sample.completed {
                completed += 1;
            }
        }
    }
    let results = service.wait_all();
    let wall_s = started.elapsed().as_secs_f64();
    out.check(progress.dropped() == 0, || {
        format!("progress subscription dropped {}", progress.dropped())
    });

    let targets: HashMap<u64, u64> = jobs.iter().map(|(s, t)| (s.hash(), *t)).collect();
    let mut finals: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut site_updates = 0;
    for r in &results {
        site_updates += r.site_updates;
        let reached = targets.get(&r.scenario) == Some(&r.steps);
        if r.error.is_some() || !reached {
            out.failed += 1;
            out.violations.push(format!(
                "session {} ended at step {} with {:?}",
                r.session, r.steps, r.error
            ));
            continue;
        }
        match finals.get(&r.scenario) {
            None => {
                finals.insert(r.scenario, r.final_checkpoint.clone());
            }
            Some(first) => out.check(*first == r.final_checkpoint, || {
                format!(
                    "session {}: final checkpoint differs within a spec",
                    r.session
                )
            }),
        }
    }
    let m = service.metrics();
    Sweep {
        wall_s,
        ttfs_ms,
        site_updates,
        preempts: m.total_preempts,
        cache_hit_rate: m.cache_hit_rate,
        finals,
    }
}

/// Spec files → a process ready to time a sweep: generate the jobs, then
/// run the warm-up sweep on a service of its own. Starting a service takes
/// 0.1 ms; what a first sweep pays is the process's first touch of the
/// memory its engines need, and the warm-up pays it here, as the warm-up
/// steps of the single-engine workloads do.
fn setup(seed: u64, out: &mut Outcome) -> Vec<(ScenarioSpec, u64)> {
    let jobs = sweep_jobs(seed);
    sweep(&jobs[..WARMUP_SESSIONS], SLICE_STEPS, out);
    jobs
}

/// The untraced run: `SETUPS_PER_RUN` set-ups, then sweeps until `seconds`
/// have been measured (at least one; a sweep that would overrun by more
/// than half its length is not started). Every sweep starts its own
/// service, so every sweep meets a cold cache.
pub fn run_e2e(seed: u64, seconds: f64, out_dir: &Path, out: &mut Outcome) {
    let mut setups = Vec::with_capacity(SETUPS_PER_RUN);
    let mut jobs = Vec::new();
    for _ in 0..SETUPS_PER_RUN {
        let t = Instant::now();
        jobs = setup(seed, out);
        setups.push(t.elapsed().as_secs_f64());
    }
    write_specs(&jobs, out_dir);

    let mut ttfs_mean = Vec::new();
    let mut ttfs_p50 = Vec::new();
    let mut ttfs_p90 = Vec::new();
    let mut mlups = Vec::new();
    let mut walls = Vec::new();
    let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();
    loop {
        let s = sweep(&jobs, SLICE_STEPS, out);
        let ttfs: Vec<f64> = s.ttfs_ms.iter().map(|&(ms, _)| ms).collect();
        ttfs_mean.push(ttfs.iter().sum::<f64>() / ttfs.len().max(1) as f64);
        ttfs_p50.push(median(&ttfs));
        ttfs_p90.push(quantile(&ttfs, 0.9));
        mlups.push(s.site_updates as f64 / s.wall_s / 1e6);
        walls.push(s.wall_s);
        for (scenario, blob) in s.finals {
            match reference.get(&scenario) {
                None => {
                    reference.insert(scenario, blob);
                }
                Some(first) => out.check(*first == blob, || {
                    format!("scenario {scenario:#x}: final checkpoint differs between sweeps")
                }),
            }
        }
        let measured: f64 = walls.iter().sum();
        if measured + 0.5 * s.wall_s > seconds {
            break;
        }
    }
    // Medians over sweeps: one slow sweep does not move them. Within a
    // sweep the latency is the mean wait, not the median: first slices
    // arrive in clumps a cellular slice apart (both workers inside
    // cellular slices), and the median wait sits on the edge of one.
    out.set("setup_s", median(&setups));
    out.set("latency_ms", median(&ttfs_mean));
    out.note("ttfs_ms_p50", json::number(median(&ttfs_p50)));
    out.set("mlups", median(&mlups));
    out.set("peak_rss_mb", peak_rss_mb());
    out.note("sweeps", walls.len().to_string());
    out.note("sessions_per_sweep", jobs.len().to_string());
    out.note("sweep_wall_s_p50", json::number(median(&walls)));
    out.note(
        "sessions_per_s",
        json::number(jobs.len() as f64 / median(&walls)),
    );
    out.note("ttfs_ms_p90", json::number(median(&ttfs_p90)));
}

/// The traced run: the sweep preempted and straight (slice = target)
/// `SWEEP_PAIRS` times, each pair compared checkpoint by checkpoint, then
/// the engine-level layers on the sweep's first cellular spec.
pub fn run_layers(seed: u64, quick: bool, out_dir: &Path, out: &mut Outcome) {
    let mut jobs = setup(seed, out);
    if quick {
        jobs.truncate(WARMUP_SESSIONS);
    }
    write_specs(&jobs, out_dir);
    // Preempted and straight take turns, so drift reaches both alike; one
    // pair resolves their difference to ±2 % of a sweep, the overhead's size.
    let pairs = if quick { 1 } else { SWEEP_PAIRS };
    let (mut preempted_walls, mut straight_walls) = (Vec::new(), Vec::new());
    let mut last_preempted = None;
    for _ in 0..pairs {
        let preempted = sweep(&jobs, SLICE_STEPS, out);
        let straight = sweep(&jobs, u64::MAX, out);
        for (scenario, blob) in &preempted.finals {
            out.check(straight.finals.get(scenario) == Some(blob), || {
                format!("scenario {scenario:#x}: preempted and straight final checkpoints differ")
            });
        }
        out.check(straight.preempts == 0, || {
            format!("straight sweep preempted {} times", straight.preempts)
        });
        preempted_walls.push(preempted.wall_s);
        straight_walls.push(straight.wall_s);
        last_preempted = Some(preempted);
    }
    let preempted = last_preempted.expect("at least one pair");
    let (preempted_s, straight_s) = (median(&preempted_walls), median(&straight_walls));
    let n = jobs.len() as f64;
    let all: Vec<f64> = preempted.ttfs_ms.iter().map(|&(ms, _)| ms).collect();
    let class = |hit: bool| -> Vec<f64> {
        preempted
            .ttfs_ms
            .iter()
            .filter(|&&(_, h)| h == hit)
            .map(|&(ms, _)| ms)
            .collect()
    };
    out.set("serve.sessions_per_s", n / preempted_s);
    out.set("serve.straight_sessions_per_s", n / straight_s);
    out.set(
        "serve.preempt_overhead_pct",
        (preempted_s / straight_s - 1.0) * 100.0,
    );
    out.set("serve.preempts", preempted.preempts as f64);
    out.set("serve.cache_hit_rate", preempted.cache_hit_rate);
    out.set("serve.ttfs_ms_p90", quantile(&all, 0.9));
    out.set("serve.ttfs_hit_ms_p50", median(&class(true)));
    out.set("serve.ttfs_miss_ms_p50", median(&class(false)));
    drop(preempted);

    // The engine behind the sweep's cellular sessions, set up the way the
    // service's cold build does (one packing call, the spec's warm-up).
    let (cellular, _) = jobs
        .iter()
        .find(|(s, _)| s.hematocrit > 0.0)
        .expect("the sweep has cellular sessions");
    let mut s = apr_run::setup(&cellular.to_json(), 1);
    out.set("scenarios.build_shell_s", s.build_s);
    out.set("scenarios.populate_s", s.populate_s);
    out.set("scenarios.warmup_s", s.warmup_s);
    let steps = if quick { 10 } else { 40 };
    let mut log = apr_run::StepLog::with_capacity(steps);
    let sites_before = s.engine.site_updates();
    for _ in 0..steps {
        log.step(&mut s.engine);
    }
    let plain = log.report(out);
    out.set("cells.live", s.engine.pool.live_count() as f64);
    out.set(
        "lattice.site_updates_per_step",
        (s.engine.site_updates() - sites_before) as f64 / steps as f64,
    );
    let cellular_guard = layers::engine_layers(&mut s, plain, SERVE_SWEEP, quick, out_dir, out);
    engine_meta(&s.engine, out);
    drop(s);

    // Does `guard.*` account for the preempt overhead? Every preempt is one
    // suspend and one resume of the session's blob, on one of the workers.
    let (plasma, _) = jobs
        .iter()
        .find(|(s, _)| s.hematocrit == 0.0)
        .expect("the sweep has plasma sessions");
    let plasma_guard =
        layers::suspend_resume(&apr_run::setup(&plasma.to_json(), 0), SERVE_SWEEP, out);
    let guard_s: f64 = jobs
        .iter()
        .map(|(spec, target)| {
            let g = if spec.hematocrit > 0.0 {
                &cellular_guard
            } else {
                &plasma_guard
            };
            ((target - 1) / SLICE_STEPS) as f64 * (g.suspend_s + g.resume_s)
        })
        .sum();
    out.note("preempt_overhead_s", json::number(preempted_s - straight_s));
    out.note(
        "guard_s_per_worker",
        json::number(guard_s / config(jobs.len(), SLICE_STEPS).workers as f64),
    );
    out.note("plasma_blob_bytes", plasma_guard.blob_bytes.to_string());
}

fn write_specs(jobs: &[(ScenarioSpec, u64)], out_dir: &Path) {
    let lines: Vec<String> = jobs
        .iter()
        .map(|(s, t)| format!("{{\"target_steps\":{t},\"scenario\":{}}}", s.to_json()))
        .collect();
    std::fs::write(
        out_dir.join(format!("{SERVE_SWEEP}.spec.json")),
        format!("[{}]\n", lines.join(",\n")),
    )
    .ok();
}

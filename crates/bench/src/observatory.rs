//! The performance observatory: pinned benchmark scenarios, the
//! schema-versioned `BENCH_<scenario>.json` artifact, and the noise-aware
//! regression diff behind `bench_suite diff`.
//!
//! The artifact is the repo's machine-readable analogue of the paper's
//! Figs. 7–8 / Table 1 evidence: per-phase p50/p95 wall times (from
//! telemetry duration histograms), MLUPS, per-worker load imbalance, RSS,
//! thread count and git revision, committed as `BENCH_*.json` baselines so
//! every PR is measured against a recorded trajectory. JSON is written and
//! parsed with `apr_telemetry::json` — no serde, per the workspace's
//! offline-shim policy.

use apr_telemetry::json::{escape, number, parse, Value};
use apr_telemetry::{LaneStats, Recorder};
use std::fmt::Write as _;

/// Schema tag of the artifact format; bump on breaking layout changes.
pub const BENCH_SCHEMA: &str = "apr.bench.v1";

/// Histogram buckets used for the per-phase percentile estimates.
const PERCENTILE_BUCKETS: usize = 48;

/// Serializable summary of a [`LaneStats`] (workers or ranks).
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSummary {
    /// Parallel regions recorded under the phase.
    pub regions: u64,
    /// Per-lane samples over all regions.
    pub samples: u64,
    /// Total lane busy nanoseconds.
    pub busy_ns: u64,
    /// Fastest single lane sample.
    pub min_ns: u64,
    /// Slowest single lane sample.
    pub max_ns: u64,
    /// Total barrier-wait nanoseconds over all lanes (region span minus
    /// each lane's busy time) — idle time is reported, not blended into
    /// busy, so imbalance reflects work distribution alone.
    pub wait_ns: u64,
    /// Mean busy nanoseconds per lane sample.
    pub mean_ns: f64,
    /// Mean per-region load-imbalance factor (1.0 = perfectly balanced).
    pub imbalance: f64,
}

impl LaneSummary {
    fn from_stats(s: &LaneStats) -> Option<Self> {
        if s.regions == 0 {
            return None;
        }
        Some(Self {
            regions: s.regions,
            samples: s.samples,
            busy_ns: s.busy_ns,
            min_ns: s.min_ns,
            max_ns: s.max_ns,
            wait_ns: s.wait_ns,
            mean_ns: s.mean_ns(),
            imbalance: s.imbalance(),
        })
    }
}

/// One phase row of a bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPhase {
    /// Span name from the DESIGN.md §8 taxonomy.
    pub name: String,
    /// Completed occurrences.
    pub count: u64,
    /// Total inclusive nanoseconds.
    pub total_ns: u64,
    /// Total exclusive (main-thread) nanoseconds.
    pub self_ns: u64,
    /// Nanoseconds blocked on the exec-pool barrier.
    pub barrier_ns: u64,
    /// Mean inclusive nanoseconds per occurrence.
    pub mean_ns: f64,
    /// Median occurrence duration (telemetry histogram estimate).
    pub p50_ns: f64,
    /// 95th-percentile occurrence duration.
    pub p95_ns: f64,
    /// Per-worker attribution, when the phase dispatched pool regions.
    pub workers: Option<LaneSummary>,
    /// Per-rank halo attribution, when recorded.
    pub ranks: Option<LaneSummary>,
}

/// One (scenario, thread-count) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// apr-exec lanes the run used.
    pub threads: usize,
    /// Engine steps (or LBM steps for the scaling scenario) timed.
    pub steps: u64,
    /// Wall seconds of the timed region.
    pub wall_seconds: f64,
    /// Million lattice-site updates per second.
    pub mlups: f64,
    /// Lattice site updates performed in the timed region.
    pub site_updates: u64,
    /// Resident set size after the run (0 where unavailable).
    pub rss_bytes: u64,
    /// Physical cores the host exposed when the run was recorded (0 in
    /// artifacts that predate the field). Scaling gates read this: a 4-lane
    /// run on a 1-core host cannot speed up and must not be failed for it.
    pub cores: usize,
    /// Resilience tax, percent: extra wall time per step with sealed
    /// halos, heartbeats, and buddy checkpoints on versus the raw
    /// distributed path — recovery idle in both. Only scenarios that
    /// measure it (currently `scaling`) set this.
    pub overhead_pct: Option<f64>,
    /// Multi-tenant service-level metrics; only the `serve` scenario
    /// sets this.
    pub service: Option<ServiceSummary>,
    /// Per-phase breakdown, sorted by total wall time descending.
    pub phases: Vec<BenchPhase>,
}

/// Service-level metrics of the `serve` scenario: 16 oversubscribed
/// sessions scheduled by checkpoint-preempt-resume on a worker budget of
/// `threads` lanes (the multi-tenant analogue of the paper's many-window
/// parameter sweeps).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// Sessions admitted and completed in the timed region.
    pub sessions: u64,
    /// Completed sessions per wall-clock second.
    pub sessions_per_sec: f64,
    /// Median admission → first-engine-step latency, milliseconds.
    pub p50_ttfs_ms: f64,
    /// 95th-percentile admission → first-engine-step latency, ms.
    pub p95_ttfs_ms: f64,
    /// Suspend+restore time as a percentage of total slice time.
    pub preempt_overhead_pct: f64,
    /// Warm-cache hit rate over all session setups.
    pub cache_hit_rate: f64,
    /// Total preemptions across all sessions.
    pub preempts: u64,
}

/// A full `BENCH_<scenario>.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Scenario name (`tube`, `window_move`, `scaling`).
    pub scenario: String,
    /// Git revision the artifact was produced at.
    pub git_rev: String,
    /// One entry per thread count.
    pub runs: Vec<BenchRun>,
}

/// Snapshot the recorder's phase stats into a [`BenchRun`]. Call after the
/// timed region with the recorder still holding its spans.
pub fn collect_run(
    rec: &Recorder,
    threads: usize,
    steps: u64,
    wall_seconds: f64,
    mlups: f64,
    site_updates: u64,
) -> BenchRun {
    let phases = rec
        .phase_stats()
        .into_iter()
        .map(|s| {
            let (p50_ns, p95_ns) = rec
                .phase_duration_histogram(&s.name, PERCENTILE_BUCKETS)
                .map_or((s.mean_ns(), s.max_ns as f64), |h| {
                    (h.percentile(0.50), h.percentile(0.95))
                });
            BenchPhase {
                name: s.name.clone(),
                count: s.count,
                total_ns: s.total_ns,
                self_ns: s.self_ns,
                barrier_ns: s.barrier_ns,
                mean_ns: s.mean_ns(),
                p50_ns,
                p95_ns,
                workers: LaneSummary::from_stats(&s.workers),
                ranks: LaneSummary::from_stats(&s.ranks),
            }
        })
        .collect();
    BenchRun {
        threads,
        steps,
        wall_seconds,
        mlups,
        site_updates,
        rss_bytes: read_rss_bytes(),
        cores: apr_exec::available_cores(),
        overhead_pct: None,
        service: None,
        phases,
    }
}

fn lane_summary_json(out: &mut String, s: &Option<LaneSummary>) {
    match s {
        None => out.push_str("null"),
        Some(s) => {
            let _ = write!(
                out,
                "{{\"regions\":{},\"samples\":{},\"busy_ns\":{},\"min_ns\":{},\"max_ns\":{},\"wait_ns\":{},\"mean_ns\":{},\"imbalance\":{}}}",
                s.regions,
                s.samples,
                s.busy_ns,
                s.min_ns,
                s.max_ns,
                s.wait_ns,
                number(s.mean_ns),
                number(s.imbalance),
            );
        }
    }
}

/// Serialize an artifact to its canonical JSON form.
pub fn to_json(artifact: &BenchArtifact) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"schema\":{},\"scenario\":{},\"git_rev\":{},\"runs\":[",
        escape(BENCH_SCHEMA),
        escape(&artifact.scenario),
        escape(&artifact.git_rev),
    );
    for (i, run) in artifact.runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"threads\":{},\"steps\":{},\"wall_seconds\":{},\"mlups\":{},\"site_updates\":{},\"rss_bytes\":{}",
            run.threads,
            run.steps,
            number(run.wall_seconds),
            number(run.mlups),
            run.site_updates,
            run.rss_bytes,
        );
        // Emitted only when measured, so older artifacts stay diffable.
        if run.cores > 0 {
            let _ = write!(out, ",\"cores\":{}", run.cores);
        }
        if let Some(pct) = run.overhead_pct {
            let _ = write!(out, ",\"overhead_pct\":{}", number(pct));
        }
        if let Some(s) = &run.service {
            let _ = write!(
                out,
                ",\"service\":{{\"sessions\":{},\"sessions_per_sec\":{},\"p50_ttfs_ms\":{},\"p95_ttfs_ms\":{},\"preempt_overhead_pct\":{},\"cache_hit_rate\":{},\"preempts\":{}}}",
                s.sessions,
                number(s.sessions_per_sec),
                number(s.p50_ttfs_ms),
                number(s.p95_ttfs_ms),
                number(s.preempt_overhead_pct),
                number(s.cache_hit_rate),
                s.preempts,
            );
        }
        out.push_str(",\"phases\":[");
        for (j, p) in run.phases.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n {{\"name\":{},\"count\":{},\"total_ns\":{},\"self_ns\":{},\"barrier_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"workers\":",
                escape(&p.name),
                p.count,
                p.total_ns,
                p.self_ns,
                p.barrier_ns,
                number(p.mean_ns),
                number(p.p50_ns),
                number(p.p95_ns),
            );
            lane_summary_json(&mut out, &p.workers);
            out.push_str(",\"ranks\":");
            lane_summary_json(&mut out, &p.ranks);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// Render an artifact as a Prometheus text-format exposition, one sample
/// per `(scenario, threads)` run — the scrape-friendly mirror of the
/// `BENCH_*.json` baseline. Per-phase p50/p95 wall times carry a `phase`
/// label; the serve scenario's service block maps to its own families.
/// `bench_suite run` writes this next to the JSON and CI validates it
/// with `apr_observe::validate_exposition`.
pub fn prometheus_exposition(artifact: &BenchArtifact) -> String {
    let mut w = apr_observe::PromWriter::new();
    for run in &artifact.runs {
        let base: Vec<(&str, String)> = vec![
            ("scenario", artifact.scenario.clone()),
            ("threads", run.threads.to_string()),
        ];
        w.gauge(
            "apr_bench_wall_seconds",
            "Wall seconds of the timed region",
            &base,
            run.wall_seconds,
        );
        w.gauge(
            "apr_bench_mlups",
            "Million lattice-site updates per second",
            &base,
            run.mlups,
        );
        w.counter(
            "apr_bench_site_updates_total",
            "Lattice site updates performed in the timed region",
            &base,
            run.site_updates as f64,
        );
        w.gauge(
            "apr_bench_rss_bytes",
            "Resident set size after the run",
            &base,
            run.rss_bytes as f64,
        );
        if let Some(pct) = run.overhead_pct {
            w.gauge(
                "apr_bench_resilience_overhead_pct",
                "Resilience tax of the distributed runtime, percent",
                &base,
                pct,
            );
        }
        if let Some(s) = &run.service {
            w.gauge(
                "apr_serve_sessions_per_sec",
                "Completed sessions per wall-clock second",
                &base,
                s.sessions_per_sec,
            );
            w.gauge(
                "apr_serve_p95_ttfs_ms",
                "95th-percentile admission to first-engine-step latency",
                &base,
                s.p95_ttfs_ms,
            );
            w.gauge(
                "apr_serve_cache_hit_rate",
                "Warm-cache hit rate over all session setups",
                &base,
                s.cache_hit_rate,
            );
            w.counter(
                "apr_serve_preempts_total",
                "Total preemptions across all sessions",
                &base,
                s.preempts as f64,
            );
        }
        for p in &run.phases {
            let mut labels = base.clone();
            labels.push(("phase", p.name.clone()));
            w.gauge(
                "apr_bench_phase_p50_ns",
                "Median phase wall time, nanoseconds",
                &labels,
                p.p50_ns,
            );
            w.gauge(
                "apr_bench_phase_p95_ns",
                "95th-percentile phase wall time, nanoseconds",
                &labels,
                p.p95_ns,
            );
        }
    }
    w.finish()
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn parse_lane_summary(v: Option<&Value>) -> Result<Option<LaneSummary>, String> {
    match v {
        None | Some(Value::Null) => Ok(None),
        Some(v) => Ok(Some(LaneSummary {
            regions: req_u64(v, "regions")?,
            samples: req_u64(v, "samples")?,
            busy_ns: req_u64(v, "busy_ns")?,
            min_ns: req_u64(v, "min_ns")?,
            max_ns: req_u64(v, "max_ns")?,
            // Absent in pre-v0.2 artifacts; 0 keeps them diffable.
            wait_ns: v
                .get("wait_ns")
                .and_then(Value::as_f64)
                .map_or(0, |f| f as u64),
            mean_ns: req_f64(v, "mean_ns")?,
            imbalance: req_f64(v, "imbalance")?,
        })),
    }
}

/// Parse an artifact produced by [`to_json`], verifying the schema tag.
pub fn parse_artifact(text: &str) -> Result<BenchArtifact, String> {
    let doc = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = req_str(&doc, "schema")?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "unsupported schema {schema:?} (expected {BENCH_SCHEMA:?})"
        ));
    }
    let mut runs = Vec::new();
    for run in doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("missing runs array")?
    {
        let mut phases = Vec::new();
        for p in run
            .get("phases")
            .and_then(Value::as_arr)
            .ok_or("missing phases array")?
        {
            phases.push(BenchPhase {
                name: req_str(p, "name")?,
                count: req_u64(p, "count")?,
                total_ns: req_u64(p, "total_ns")?,
                self_ns: req_u64(p, "self_ns")?,
                barrier_ns: req_u64(p, "barrier_ns")?,
                mean_ns: req_f64(p, "mean_ns")?,
                p50_ns: req_f64(p, "p50_ns")?,
                p95_ns: req_f64(p, "p95_ns")?,
                workers: parse_lane_summary(p.get("workers"))?,
                ranks: parse_lane_summary(p.get("ranks"))?,
            });
        }
        runs.push(BenchRun {
            threads: req_u64(run, "threads")? as usize,
            steps: req_u64(run, "steps")?,
            wall_seconds: req_f64(run, "wall_seconds")?,
            mlups: req_f64(run, "mlups")?,
            site_updates: req_u64(run, "site_updates")?,
            rss_bytes: req_u64(run, "rss_bytes")?,
            cores: run
                .get("cores")
                .and_then(Value::as_f64)
                .map_or(0, |f| f as usize),
            overhead_pct: run.get("overhead_pct").and_then(Value::as_f64),
            service: match run.get("service") {
                None | Some(Value::Null) => None,
                Some(s) => Some(ServiceSummary {
                    sessions: req_u64(s, "sessions")?,
                    sessions_per_sec: req_f64(s, "sessions_per_sec")?,
                    p50_ttfs_ms: req_f64(s, "p50_ttfs_ms")?,
                    p95_ttfs_ms: req_f64(s, "p95_ttfs_ms")?,
                    preempt_overhead_pct: req_f64(s, "preempt_overhead_pct")?,
                    cache_hit_rate: req_f64(s, "cache_hit_rate")?,
                    preempts: req_u64(s, "preempts")?,
                }),
            },
            phases,
        });
    }
    Ok(BenchArtifact {
        scenario: req_str(&doc, "scenario")?,
        git_rev: req_str(&doc, "git_rev")?,
        runs,
    })
}

/// Tuning knobs for [`diff_artifacts`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative change tolerated before a delta counts as a regression
    /// (0.15 = 15%).
    pub threshold: f64,
    /// Phases whose baseline total is below this many nanoseconds are
    /// skipped — sub-millisecond phases are timer noise.
    pub min_phase_ns: u64,
    /// Phases with fewer baseline occurrences than this are skipped — a
    /// percentile over a handful of samples is not evidence.
    pub min_phase_count: u64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            threshold: 0.15,
            min_phase_ns: 1_000_000,
            min_phase_count: 8,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffFinding {
    /// Thread count of the affected run.
    pub threads: usize,
    /// Metric label, e.g. `mlups` or `p50:apr.step`.
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// `new / old` (candidate over baseline).
    pub ratio: f64,
    /// True when the delta exceeds the threshold in the bad direction.
    pub regression: bool,
}

/// Outcome of comparing two artifacts.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Scenario both artifacts measure.
    pub scenario: String,
    /// Every out-of-tolerance delta (regressions and improvements).
    pub findings: Vec<DiffFinding>,
}

impl DiffReport {
    /// Number of findings in the regression direction.
    pub fn regressions(&self) -> usize {
        self.findings.iter().filter(|f| f.regression).count()
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = format!("bench_diff: scenario {}\n", self.scenario);
        if self.findings.is_empty() {
            out.push_str("  all metrics within tolerance\n");
            return out;
        }
        for f in &self.findings {
            let _ = writeln!(
                out,
                "  [{}] threads={} {:<28} {:>12.3} -> {:>12.3}  ({:+.1}%)",
                if f.regression {
                    "REGRESSION"
                } else {
                    "improved"
                },
                f.threads,
                f.metric,
                f.old,
                f.new,
                (f.ratio - 1.0) * 100.0,
            );
        }
        out
    }
}

/// Compare `new` against the `old` baseline with noise-aware thresholds.
/// Lower MLUPS, higher wall time, or higher per-phase p50 beyond
/// `opts.threshold` is a regression; deltas the other way are reported as
/// improvements. Runs are matched by thread count; phases by name, skipping
/// phases below the noise floor.
pub fn diff_artifacts(
    old: &BenchArtifact,
    new: &BenchArtifact,
    opts: DiffOptions,
) -> Result<DiffReport, String> {
    if old.scenario != new.scenario {
        return Err(format!(
            "scenario mismatch: {} vs {}",
            old.scenario, new.scenario
        ));
    }
    let mut findings = Vec::new();
    let mut flag = |threads: usize, metric: String, old_v: f64, new_v: f64, bad_if_above: bool| {
        if old_v <= 0.0 || new_v <= 0.0 {
            return;
        }
        let ratio = new_v / old_v;
        let (regression, out_of_band) = if bad_if_above {
            (ratio > 1.0 + opts.threshold, ratio < 1.0 - opts.threshold)
        } else {
            (ratio < 1.0 - opts.threshold, ratio > 1.0 + opts.threshold)
        };
        if regression || out_of_band {
            findings.push(DiffFinding {
                threads,
                metric,
                old: old_v,
                new: new_v,
                ratio,
                regression,
            });
        }
    };
    for old_run in &old.runs {
        let Some(new_run) = new.runs.iter().find(|r| r.threads == old_run.threads) else {
            return Err(format!(
                "candidate artifact lost the threads={} run",
                old_run.threads
            ));
        };
        let t = old_run.threads;
        flag(t, "mlups".into(), old_run.mlups, new_run.mlups, false);
        flag(
            t,
            "wall_seconds".into(),
            old_run.wall_seconds,
            new_run.wall_seconds,
            true,
        );
        if let (Some(old_s), Some(new_s)) = (&old_run.service, &new_run.service) {
            flag(
                t,
                "serve:sessions_per_sec".into(),
                old_s.sessions_per_sec,
                new_s.sessions_per_sec,
                false,
            );
            flag(
                t,
                "serve:p95_ttfs_ms".into(),
                old_s.p95_ttfs_ms,
                new_s.p95_ttfs_ms,
                true,
            );
            flag(
                t,
                "serve:preempt_overhead_pct".into(),
                old_s.preempt_overhead_pct,
                new_s.preempt_overhead_pct,
                true,
            );
        }
        for old_phase in &old_run.phases {
            if old_phase.total_ns < opts.min_phase_ns || old_phase.count < opts.min_phase_count {
                continue;
            }
            let Some(new_phase) = new_run.phases.iter().find(|p| p.name == old_phase.name) else {
                continue;
            };
            flag(
                t,
                format!("p50:{}", old_phase.name),
                old_phase.p50_ns,
                new_phase.p50_ns,
                true,
            );
        }
    }
    Ok(DiffReport {
        scenario: old.scenario.clone(),
        findings,
    })
}

/// Short git revision of the repository containing the working directory,
/// read straight from `.git` (no subprocess): `HEAD` → symbolic ref →
/// loose ref or `packed-refs`. Falls back to the `GIT_REV` environment
/// variable, then `"unknown"`.
pub fn read_git_rev() -> String {
    fn from_repo(mut dir: std::path::PathBuf) -> Option<String> {
        loop {
            let git = dir.join(".git");
            if git.is_dir() {
                let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
                let head = head.trim();
                if let Some(refname) = head.strip_prefix("ref: ") {
                    if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
                        return Some(hash.trim().to_string());
                    }
                    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                    return packed.lines().find_map(|l| {
                        l.strip_suffix(refname)
                            .map(|h| h.trim().to_string())
                            .filter(|h| !h.is_empty() && !h.starts_with('#'))
                    });
                }
                return Some(head.to_string());
            }
            if !dir.pop() {
                return None;
            }
        }
    }
    let rev = std::env::current_dir()
        .ok()
        .and_then(from_repo)
        .or_else(|| std::env::var("GIT_REV").ok())
        .unwrap_or_else(|| "unknown".to_string());
    rev.chars().take(12).collect()
}

/// Resident set size in bytes from `/proc/self/status` (0 elsewhere).
pub fn read_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmRSS:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
    }
    0
}

/// Verdict of [`gate_scaling`].
#[derive(Debug, Clone, PartialEq)]
pub enum GateVerdict {
    /// The artifact was recorded on a host with fewer than 4 cores
    /// (`cores` as recorded; 0 = field absent in a pre-v0.2 artifact).
    /// Parallel speedup is physically impossible there, so the gate
    /// abstains rather than failing honest hardware.
    Skipped {
        /// Core count the artifact recorded.
        cores: usize,
    },
    /// Best multi-threaded MLUPS divided by single-thread MLUPS.
    Measured {
        /// Thread count of the best multi-threaded run.
        threads: usize,
        /// Single-thread MLUPS baseline.
        base_mlups: f64,
        /// Best multi-threaded MLUPS.
        best_mlups: f64,
        /// `best_mlups / base_mlups`.
        speedup: f64,
    },
}

/// Thread-scaling floor on a `scaling` artifact: measures the best
/// multi-threaded run against the single-thread MLUPS. Returns the
/// verdict; comparing the measured speedup to a floor is the caller's
/// policy (the CLI exits 1 below `--min-speedup`). Errors on artifacts
/// that cannot be gated at all (wrong scenario, missing runs).
pub fn gate_scaling(artifact: &BenchArtifact) -> Result<GateVerdict, String> {
    if artifact.scenario != "scaling" {
        return Err(format!(
            "gate wants a scaling artifact, got {:?}",
            artifact.scenario
        ));
    }
    let base = artifact
        .runs
        .iter()
        .find(|r| r.threads == 1)
        .ok_or("no single-thread run in artifact")?;
    let best = artifact
        .runs
        .iter()
        .filter(|r| r.threads > 1)
        .max_by(|a, b| a.mlups.total_cmp(&b.mlups))
        .ok_or("no multi-threaded run in artifact")?;
    let cores = artifact.runs.iter().map(|r| r.cores).max().unwrap_or(0);
    if cores < 4 {
        return Ok(GateVerdict::Skipped { cores });
    }
    if base.mlups <= 0.0 {
        return Err("single-thread MLUPS is zero".into());
    }
    Ok(GateVerdict::Measured {
        threads: best.threads,
        base_mlups: base.mlups,
        best_mlups: best.mlups,
        speedup: best.mlups / base.mlups,
    })
}

// ---------------------------------------------------------------------------
// Pinned scenarios
// ---------------------------------------------------------------------------

/// Scenario names `bench_suite run` accepts, in artifact order.
pub const SCENARIOS: &[&str] = &["tube", "window_move", "scaling", "serve", "network"];

/// Default timed step count per scenario (all ≥ the diff noise floor's
/// minimum occurrence count, so per-phase percentiles are diffable). For
/// `serve` this is the per-session step target.
pub fn default_steps(scenario: &str) -> u64 {
    match scenario {
        "scaling" => 12,
        "serve" => 24,
        "network" => 20,
        _ => 30,
    }
}

/// Small APR tube problem — the same recipe as the engine/guardian tests:
/// 21×21×`nz` coarse force-driven tube along z, cubic window of coarse span
/// 8, refinement `n`, λ = 0.3.
fn tube_engine(n: usize, nz_coarse: usize, g: f64) -> apr_core::AprEngine {
    use apr_coupling::fine_tau;
    use apr_lattice::{force_driven_tube, Lattice};
    let (nx, ny) = (21usize, 21usize);
    let tau_c = 0.9;
    let lambda = 0.3;
    let coarse = force_driven_tube(nx, ny, nz_coarse, tau_c, 9.0, g);
    let span = 8usize;
    let fine_dim = span * n + 1;
    let mut fine = Lattice::new(fine_dim, fine_dim, fine_dim, fine_tau(tau_c, n, lambda));
    fine.body_force = [0.0, 0.0, g / n as f64];
    let origin = [
        (nx as f64 - 1.0) / 2.0 - span as f64 / 2.0,
        (ny as f64 - 1.0) / 2.0 - span as f64 / 2.0,
        4.0,
    ];
    let side = span as f64 * n as f64;
    apr_core::AprEngine::builder(coarse, fine, origin, n, lambda)
        .window(side * 0.22, side * 0.12, side * 0.14)
        .contact(apr_cells::ContactParams {
            cutoff: 1.2,
            strength: 5e-4,
        })
        .build()
}

/// `tube` scenario: the paper's core workload — APR window in a tube with
/// live hematocrit maintenance (RNG-driven insertion churn).
fn run_tube(steps: u64) -> Result<(u64, u64), String> {
    use apr_membrane::{Membrane, MembraneMaterial, ReferenceState};
    use apr_window::{HematocritController, InsertionContext};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    let mut eng = tube_engine(3, 48, 4e-6);
    let radius = 3.0;
    let gs = 2e-4;
    let rbc_mesh = apr_mesh::biconcave_rbc_mesh(1, radius);
    let re = Arc::new(ReferenceState::build(&rbc_mesh));
    let membrane = Arc::new(Membrane::new(re, MembraneMaterial::rbc(gs, gs * 0.05)));
    let mut rng = StdRng::seed_from_u64(99);
    let volume = rbc_mesh.enclosed_volume();
    let tile = apr_cells::RbcTile::build(
        40.0_f64.max(radius * 10.0),
        0.15,
        radius,
        radius * 0.6,
        volume,
        &mut rng,
    );
    eng.insertion = Some(InsertionContext {
        rbc_mesh,
        rbc_membrane: membrane,
        tile,
        min_gap: 0.8,
    });
    eng.controller = Some(HematocritController::new(0.12, 0.85, volume));
    eng.maintenance_interval = 10;
    let placed = eng.populate_window();
    if placed == 0 {
        return Err("tube scenario placed no RBCs".into());
    }
    time_engine("bench.tube", &mut eng, steps)
}

/// `window_move` scenario: a CTC placed off-centre with an always-armed
/// trigger so the window actually relocates (the shift must round to at
/// least one coarse cell — a CTC exactly at centre never moves).
fn run_window_move(steps: u64) -> Result<(u64, u64), String> {
    use apr_membrane::{Membrane, MembraneMaterial, ReferenceState};
    use std::sync::Arc;

    let mut eng = tube_engine(3, 48, 4e-6);
    let mesh = apr_mesh::icosphere(2, 3.5);
    let re = Arc::new(ReferenceState::build(&mesh));
    let membrane = Arc::new(Membrane::new(re, MembraneMaterial::ctc(2e-3, 1e-4)));
    let offset = apr_mesh::Vec3::new(0.0, 0.0, 4.0);
    let center = eng.anatomy.center + offset;
    let verts: Vec<apr_mesh::Vec3> = mesh.vertices.iter().map(|&v| v + center).collect();
    eng.add_ctc(membrane, verts);
    eng.trigger.trigger_distance = f64::INFINITY;
    let out = time_engine("bench.window_move", &mut eng, steps)?;
    if eng.window_moves() == 0 {
        return Err("window_move scenario never moved the window".into());
    }
    Ok(out)
}

/// Time `steps` engine steps; returns (site updates, wall ns) of the timed
/// region only. Enables the global recorder *after* setup so packing and
/// mesh generation stay out of the phase table.
fn time_engine(
    span: &'static str,
    eng: &mut apr_core::AprEngine,
    steps: u64,
) -> Result<(u64, u64), String> {
    let before = eng.site_updates();
    apr_telemetry::global().enable();
    let (_, wall_ns) = apr_telemetry::time(span, || {
        for _ in 0..steps {
            eng.step();
        }
    });
    Ok((eng.site_updates() - before, wall_ns))
}

/// `scaling` scenario: the bare LBM kernel on a 32³ periodic box — the
/// shared-memory analogue of the paper's Figs. 7–8 scaling study.
fn run_scaling(steps: u64) -> Result<(u64, u64), String> {
    let edge = 32usize;
    let mut lat = apr_lattice::Lattice::new(edge, edge, edge, 0.9);
    lat.periodic = [true, true, true];
    lat.body_force = [1e-7, 0.0, 0.0];
    for _ in 0..3 {
        lat.step(); // warm-up, untimed
    }
    apr_telemetry::global().enable();
    let (_, wall_ns) = apr_telemetry::time("bench.lbm_box", || {
        for _ in 0..steps {
            lat.step();
        }
    });
    Ok(((edge * edge * edge) as u64 * steps, wall_ns))
}

/// Resilience tax on the distributed path: the same periodic box stepped
/// through the raw [`SlabLattice`] (plain channel halos, no supervision)
/// and through [`ResilientSlabLattice`] with its full production config —
/// sealed CRC envelopes, heartbeats, buddy checkpoints — but a quiet
/// chaos plan, so recovery machinery is armed yet idle. Returns the
/// percent extra wall time per step of the resilient path.
fn measure_resilience_overhead(steps: u64) -> Result<f64, String> {
    use apr_parallel::{ResilienceConfig, ResilientSlabLattice, SlabLattice};
    use std::time::Instant;
    let edge = 32usize;
    let tasks = 4usize;
    let mut global = apr_lattice::Lattice::new(edge, edge, edge, 0.9);
    global.periodic = [true, true, true];
    global.body_force = [1e-7, 0.0, 0.0];
    let steps = steps.max(8);

    let mut raw = SlabLattice::split(&global, tasks);
    let mut resilient = ResilientSlabLattice::split(&global, tasks, ResilienceConfig::default());
    // Warm both paths (allocations, channel setup, first checkpoints).
    for _ in 0..3 {
        raw.step().map_err(|e| e.to_string())?;
        resilient.step().map_err(|e| e.to_string())?;
    }

    let t0 = Instant::now();
    for _ in 0..steps {
        raw.step().map_err(|e| e.to_string())?;
    }
    let raw_ns = t0.elapsed().as_nanos().max(1) as f64;

    let t1 = Instant::now();
    for _ in 0..steps {
        let out = resilient.step().map_err(|e| e.to_string())?;
        if !out.clean {
            return Err(format!("resilient path degraded while idle: {out:?}"));
        }
    }
    let resilient_ns = t1.elapsed().as_nanos() as f64;

    Ok((resilient_ns / raw_ns - 1.0) * 100.0)
}

/// `serve` scenario: 16 sessions over 2 scenario specs oversubscribed onto
/// a `threads`-lane worker budget, scheduled by checkpoint-preempt-resume
/// with the warm-state cache live (the paper's parameter-sweep shape:
/// many window simulations, few cores, shared recipes). Returns
/// (site updates, wall ns, service summary).
fn run_serve(steps: u64, threads: usize) -> Result<(u64, u64, ServiceSummary), String> {
    use apr_serve::{JobSpec, ScenarioSpec, ServeConfig, SimService};
    let sessions = 16u64;
    let config = ServeConfig {
        workers: threads.max(1),
        lanes_per_worker: 1,
        slice_steps: (steps / 4).max(1), // ≥ 3 preemptions per session
        max_sessions: sessions as usize,
        cache_capacity: 4,
        park_bytes_cap: usize::MAX,
    };
    apr_telemetry::global().enable();
    let service = SimService::start(config);
    let specs = [ScenarioSpec::tube_small(1), ScenarioSpec::tube_small(2)];
    let (_, wall_ns) = apr_telemetry::time("bench.serve", || {
        for i in 0..sessions {
            service
                .submit(JobSpec {
                    scenario: specs[(i % 2) as usize].clone(),
                    target_steps: steps,
                })
                .expect("admission under the session cap");
        }
        let results = service.wait_all();
        assert_eq!(results.len() as u64, sessions);
    });
    let m = service.metrics();
    if m.sessions_failed > 0 {
        return Err(format!("{} serve sessions failed", m.sessions_failed));
    }
    Ok((
        m.total_site_updates,
        wall_ns,
        ServiceSummary {
            sessions: m.sessions_completed,
            sessions_per_sec: m.sessions_completed as f64 / (wall_ns as f64 / 1.0e9).max(1e-12),
            p50_ttfs_ms: m.p50_ttfs_ms,
            p95_ttfs_ms: m.p95_ttfs_ms,
            preempt_overhead_pct: m.preempt_overhead_pct,
            cache_hit_rate: m.cache_hit_rate,
            preempts: m.total_preempts,
        },
    ))
}

/// `network` scenario: the full vascular scenario zoo. Every registered
/// [`apr_scenarios`] spec — tube, pulsatile tube, stenosis, aneurysm,
/// side-branch transit, open bifurcating tree, twin-window — is cold-built
/// (geometry voxelization + window packing + warmup) and stepped `steps`
/// session steps. Setup stays untimed (it is the warm cache's job to
/// amortize it); the timed region is pure zoo stepping, so the artifact
/// tracks the cost of the paper's heterogeneous-geometry workloads.
fn run_network(steps: u64) -> Result<(u64, u64), String> {
    let mut engines = Vec::new();
    for spec in apr_scenarios::registry() {
        let eng = spec
            .build_cold()
            .map_err(|e| format!("scenario {:?} failed to build: {e}", spec.name))?;
        engines.push((spec.name, eng));
    }
    let before: Vec<u64> = engines.iter().map(|(_, e)| e.site_updates()).collect();
    apr_telemetry::global().enable();
    let (_, wall_ns) = apr_telemetry::time("bench.network", || {
        for (_, eng) in engines.iter_mut() {
            eng.step_n(steps);
        }
    });
    let mut site_updates = 0u64;
    for ((name, eng), b) in engines.iter().zip(before) {
        let delta = eng.site_updates() - b;
        if delta == 0 {
            return Err(format!("scenario {name:?} performed no site updates"));
        }
        site_updates += delta;
    }
    Ok((site_updates, wall_ns))
}

/// Run one scenario at one thread count and collect the [`BenchRun`].
/// Swaps the process-global exec pool, owns the global recorder's enable
/// state for the duration, and leaves the recorder disabled and reset.
pub fn run_scenario(scenario: &str, threads: usize, steps: u64) -> Result<BenchRun, String> {
    apr_exec::set_threads(threads);
    let rec = apr_telemetry::global();
    rec.reset();
    let mut service_summary = None;
    let result = match scenario {
        "tube" => run_tube(steps),
        "window_move" => run_window_move(steps),
        "scaling" => run_scaling(steps),
        "serve" => run_serve(steps, threads).map(|(site_updates, wall_ns, summary)| {
            service_summary = Some(summary);
            (site_updates, wall_ns)
        }),
        "network" => run_network(steps),
        other => Err(format!(
            "unknown scenario {other:?} (expected one of {SCENARIOS:?})"
        )),
    };
    rec.disable();
    let (site_updates, wall_ns) = match result {
        Ok(v) => v,
        Err(e) => {
            rec.reset();
            return Err(e);
        }
    };
    let wall_seconds = wall_ns as f64 / 1.0e9;
    let mlups = site_updates as f64 / wall_seconds.max(1e-12) / 1.0e6;
    let mut run = collect_run(rec, threads, steps, wall_seconds, mlups, site_updates);
    rec.reset();
    if scenario == "scaling" {
        // Resilience tax rides on the scaling artifact: same box, same
        // thread count, sealed halos + supervision on vs. off.
        run.overhead_pct = Some(measure_resilience_overhead(steps)?);
        rec.reset();
    }
    run.service = service_summary;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> BenchArtifact {
        BenchArtifact {
            scenario: "tube".into(),
            git_rev: "deadbeef1234".into(),
            runs: vec![BenchRun {
                threads: 2,
                steps: 40,
                wall_seconds: 1.5,
                mlups: 20.0,
                site_updates: 30_000_000,
                rss_bytes: 12_345_678,
                cores: 4,
                overhead_pct: Some(3.25),
                service: None,
                phases: vec![
                    BenchPhase {
                        name: "apr.step".into(),
                        count: 40,
                        total_ns: 1_400_000_000,
                        self_ns: 100_000_000,
                        barrier_ns: 40_000_000,
                        mean_ns: 35_000_000.0,
                        p50_ns: 34_000_000.0,
                        p95_ns: 39_000_000.0,
                        workers: Some(LaneSummary {
                            regions: 400,
                            samples: 800,
                            busy_ns: 900_000_000,
                            min_ns: 100_000,
                            max_ns: 4_000_000,
                            wait_ns: 120_000_000,
                            mean_ns: 1_125_000.0,
                            imbalance: 1.2,
                        }),
                        ranks: None,
                    },
                    BenchPhase {
                        name: "guard.inspect".into(),
                        count: 8,
                        total_ns: 900_000,
                        self_ns: 900_000,
                        barrier_ns: 0,
                        mean_ns: 112_500.0,
                        p50_ns: 110_000.0,
                        p95_ns: 118_000.0,
                        workers: None,
                        ranks: None,
                    },
                ],
            }],
        }
    }

    fn scaling_artifact(cores: usize, mlups: &[(usize, f64)]) -> BenchArtifact {
        BenchArtifact {
            scenario: "scaling".into(),
            git_rev: "deadbeef1234".into(),
            runs: mlups
                .iter()
                .map(|&(threads, mlups)| BenchRun {
                    threads,
                    steps: 10,
                    wall_seconds: 1.0,
                    mlups,
                    site_updates: 1_000_000,
                    rss_bytes: 0,
                    cores,
                    overhead_pct: None,
                    service: None,
                    phases: Vec::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn gate_measures_speedup_on_multicore_artifacts() {
        let good = scaling_artifact(8, &[(1, 10.0), (4, 32.0)]);
        match gate_scaling(&good).unwrap() {
            GateVerdict::Measured {
                threads, speedup, ..
            } => {
                assert_eq!(threads, 4);
                assert!((speedup - 3.2).abs() < 1e-12);
            }
            v => panic!("expected Measured, got {v:?}"),
        }
    }

    #[test]
    fn gate_abstains_below_four_cores_and_errors_on_bad_artifacts() {
        // A 1-core host (this container, for instance) cannot show
        // parallel speedup: the gate must skip, not fail.
        let starved = scaling_artifact(1, &[(1, 10.0), (4, 9.0)]);
        assert_eq!(
            gate_scaling(&starved).unwrap(),
            GateVerdict::Skipped { cores: 1 }
        );
        // Pre-cores artifacts (field absent → 0) also skip.
        let legacy = scaling_artifact(0, &[(1, 10.0), (4, 9.0)]);
        assert_eq!(
            gate_scaling(&legacy).unwrap(),
            GateVerdict::Skipped { cores: 0 }
        );
        let wrong = BenchArtifact {
            scenario: "tube".into(),
            ..scaling_artifact(8, &[(1, 1.0), (2, 2.0)])
        };
        assert!(gate_scaling(&wrong).is_err());
        let no_base = scaling_artifact(8, &[(4, 9.0)]);
        assert!(gate_scaling(&no_base).is_err());
        let no_mt = scaling_artifact(8, &[(1, 9.0)]);
        assert!(gate_scaling(&no_mt).is_err());
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let artifact = sample_artifact();
        let text = to_json(&artifact);
        let parsed = parse_artifact(&text).unwrap();
        assert_eq!(parsed, artifact);
    }

    #[test]
    fn exposition_validates_and_carries_the_key_families() {
        let mut artifact = sample_artifact();
        artifact.runs[0].service = Some(ServiceSummary {
            sessions: 16,
            sessions_per_sec: 4.0,
            p50_ttfs_ms: 12.0,
            p95_ttfs_ms: 45.0,
            preempt_overhead_pct: 2.5,
            cache_hit_rate: 0.75,
            preempts: 48,
        });
        let prom = prometheus_exposition(&artifact);
        let summary = apr_observe::validate_exposition(&prom).expect("exposition must validate");
        assert!(summary.families >= 8, "only {} families", summary.families);
        for family in [
            "apr_bench_mlups",
            "apr_bench_resilience_overhead_pct",
            "apr_serve_sessions_per_sec",
            "apr_bench_phase_p95_ns",
        ] {
            assert!(
                prom.contains(&format!("# TYPE {family} ")),
                "{family} missing"
            );
        }
        assert!(
            prom.contains("phase=\"apr.step\""),
            "phase label lost: {prom}"
        );
    }

    #[test]
    fn overhead_pct_is_optional_in_the_artifact() {
        // Pre-resilience baselines have no overhead_pct key; the writer
        // must omit it when unmeasured and the parser must accept both.
        let mut artifact = sample_artifact();
        artifact.runs[0].overhead_pct = None;
        let text = to_json(&artifact);
        assert!(!text.contains("overhead_pct"));
        assert_eq!(parse_artifact(&text).unwrap(), artifact);
    }

    #[test]
    fn service_summary_round_trips_and_diffs() {
        let mut artifact = sample_artifact();
        artifact.scenario = "serve".into();
        artifact.runs[0].service = Some(ServiceSummary {
            sessions: 16,
            sessions_per_sec: 8.0,
            p50_ttfs_ms: 40.0,
            p95_ttfs_ms: 120.0,
            preempt_overhead_pct: 12.5,
            cache_hit_rate: 0.75,
            preempts: 48,
        });
        let parsed = parse_artifact(&to_json(&artifact)).unwrap();
        assert_eq!(parsed, artifact);
        // Halved throughput and doubled tail latency are regressions.
        let mut slow = artifact.clone();
        {
            let s = slow.runs[0].service.as_mut().unwrap();
            s.sessions_per_sec /= 2.0;
            s.p95_ttfs_ms *= 2.0;
        }
        let report = diff_artifacts(&artifact, &slow, DiffOptions::default()).unwrap();
        assert_eq!(report.regressions(), 2, "{}", report.render());
        assert!(report.render().contains("serve:sessions_per_sec"));
        assert!(report.render().contains("serve:p95_ttfs_ms"));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = to_json(&sample_artifact()).replace("apr.bench.v1", "apr.bench.v0");
        assert!(parse_artifact(&text).unwrap_err().contains("schema"));
    }

    #[test]
    fn diff_of_identical_artifacts_is_clean() {
        let a = sample_artifact();
        let report = diff_artifacts(&a, &a, DiffOptions::default()).unwrap();
        assert_eq!(report.regressions(), 0);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn two_x_slowdown_is_flagged_as_regression() {
        let base = sample_artifact();
        let mut slow = base.clone();
        slow.runs[0].mlups /= 2.0;
        slow.runs[0].wall_seconds *= 2.0;
        for p in &mut slow.runs[0].phases {
            p.p50_ns *= 2.0;
        }
        let report = diff_artifacts(&base, &slow, DiffOptions::default()).unwrap();
        // mlups, wall_seconds, and apr.step's p50 — but NOT the sub-ms
        // guard.inspect phase, which sits under the noise floor.
        assert_eq!(report.regressions(), 3, "{}", report.render());
        assert!(report.render().contains("REGRESSION"));
        assert!(!report.render().contains("guard.inspect"));
    }

    #[test]
    fn improvements_are_reported_but_not_regressions() {
        let base = sample_artifact();
        let mut fast = base.clone();
        fast.runs[0].mlups *= 2.0;
        let report = diff_artifacts(&base, &fast, DiffOptions::default()).unwrap();
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.findings.len(), 1);
        assert!(!report.findings[0].regression);
    }

    #[test]
    fn scenario_mismatch_and_missing_run_are_errors() {
        let a = sample_artifact();
        let mut b = a.clone();
        b.scenario = "scaling".into();
        assert!(diff_artifacts(&a, &b, DiffOptions::default()).is_err());
        let mut c = a.clone();
        c.runs.clear();
        assert!(diff_artifacts(&a, &c, DiffOptions::default()).is_err());
    }

    #[test]
    fn git_rev_resolves_inside_this_repo() {
        let rev = read_git_rev();
        assert_ne!(rev, "unknown");
        assert!(
            rev.len() == 12 && rev.chars().all(|c| c.is_ascii_hexdigit()),
            "unexpected rev {rev:?}"
        );
    }

    #[test]
    fn rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(read_rss_bytes() > 0);
        }
    }

    /// Spin until this thread has accrued `ns` of CPU time. Busy
    /// attribution is CPU-time based, so sleeping would (correctly)
    /// register as idle — tests that want to look "busy" must burn cycles.
    fn burn_cpu(ns: u64) {
        let start = apr_exec::thread_cpu_ns();
        let wall = std::time::Instant::now();
        loop {
            std::hint::black_box((0..512u64).sum::<u64>());
            match (start, apr_exec::thread_cpu_ns()) {
                (Some(s), Some(now)) if now.saturating_sub(s) >= ns => return,
                (Some(_), Some(_)) => {}
                // Fallback if the platform clock is unavailable.
                _ => {
                    if wall.elapsed().as_nanos() as u64 >= ns {
                        return;
                    }
                }
            }
        }
    }

    #[test]
    fn skewed_pool_workload_reports_imbalance_above_one() {
        // An intentionally skewed synthetic workload: lane 0 does all the
        // work, the other lanes idle. The collected BenchRun must report a
        // worker imbalance well above 1.0 for the owning phase, while a
        // balanced workload stays near 1.0.
        let rec = apr_telemetry::global();
        rec.reset();
        rec.enable();
        let pool = apr_exec::ExecPool::new(4);
        {
            let _s = apr_telemetry::span("bench.skewed");
            pool.run(&|lane| {
                if lane == 0 {
                    burn_cpu(8_000_000);
                }
            });
        }
        {
            let _s = apr_telemetry::span("bench.balanced");
            pool.run(&|_| {
                burn_cpu(4_000_000);
            });
        }
        rec.disable();
        let run = collect_run(rec, 4, 1, 0.012, 0.0, 0);
        rec.reset();
        let phase = |name: &str| {
            run.phases
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("phase {name} missing"))
                .clone()
        };
        let skewed = phase("bench.skewed").workers.expect("no worker stats");
        assert!(
            skewed.imbalance > 1.5,
            "skewed workload reported imbalance {}",
            skewed.imbalance
        );
        let balanced = phase("bench.balanced").workers.expect("no worker stats");
        assert!(
            balanced.imbalance < 1.5,
            "balanced workload reported imbalance {}",
            balanced.imbalance
        );
    }
}

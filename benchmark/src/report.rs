//! Metric names, order statistics, host facts and the result line.
//!
//! The two tables below are the benchmark's vocabulary: `BENCHMARK.json`
//! lists exactly these names and units, every workload reports every one
//! of them, and a per-layer metric a workload does not exercise reads 0.

use apr_telemetry::json;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("mlups", "MLUPS"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. The prefix
/// is the crate the number belongs to.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ibm.spread_ns_per_vertex", "ns"),
    ("ibm.interpolate_ns_per_vertex", "ns"),
    ("membrane.forces_ns_per_vertex", "ns"),
    ("membrane.vertices", "count"),
    ("cells.contact_ns_per_vertex", "ns"),
    ("cells.contact_pairs_per_substep", "count"),
    ("cells.live", "count"),
    ("lattice.coarse_step_ns_per_site", "ns"),
    ("lattice.fine_collide_ns_per_site", "ns"),
    ("lattice.fine_stream_ns_per_site", "ns"),
    ("lattice.clear_forces_ns_per_site", "ns"),
    ("lattice.site_updates_per_step", "count"),
    ("lattice.bytes_per_site_computed", "B"),
    ("lattice.gbps_computed", "GB/s"),
    ("kernels.reference_ns_per_site", "ns"),
    ("kernels.fused_ns_per_site", "ns"),
    ("kernels.simd_ns_per_site", "ns"),
    ("exec.threads", "count"),
    ("exec.region_dispatch_us", "us"),
    ("exec.speedup_2t", "ratio"),
    ("coupling.snapshot_ns_per_shell_node", "ns"),
    ("coupling.impose_ns_per_shell_node", "ns"),
    ("coupling.restrict_ns_per_pair", "ns"),
    ("coupling.shell_nodes", "count"),
    ("window.maint_step_ms_p50", "ms"),
    ("window.move_step_ms_p50", "ms"),
    ("window.maintenance_ms", "ms"),
    ("window.move_ms", "ms"),
    ("window.moves", "count"),
    ("window.inserted", "count"),
    ("window.insert_accept_ratio", "ratio"),
    ("window.ht_mean", "ratio"),
    ("core.step_ms_p50", "ms"),
    ("core.step_ms_p95", "ms"),
    ("core.shadow_step_ms", "ms"),
    ("core.shadow_coverage", "ratio"),
    ("core.fsi_share", "ratio"),
    ("core.lattice_share", "ratio"),
    ("core.coupling_share", "ratio"),
    ("core.observe_share", "ratio"),
    ("guard.suspend_ns_per_byte", "ns"),
    ("guard.resume_ns_per_byte", "ns"),
    ("guard.blob_mb", "MB"),
    ("scenarios.build_shell_s", "s"),
    ("scenarios.populate_s", "s"),
    ("scenarios.warmup_s", "s"),
    ("serve.sessions_per_s", "1/s"),
    ("serve.straight_sessions_per_s", "1/s"),
    ("serve.preempt_overhead_pct", "%"),
    ("serve.preempts", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.ttfs_ms_p90", "ms"),
    ("serve.ttfs_hit_ms_p50", "ms"),
    ("serve.ttfs_miss_ms_p50", "ms"),
    ("parallel.slab_ns_per_site", "ns"),
    ("parallel.resilient_ns_per_site", "ns"),
    ("parallel.resilience_overhead_pct", "%"),
    ("parallel.halo_bytes_per_step_computed", "B"),
    ("telemetry.on_overhead_pct", "%"),
    ("observe.ledger_overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Counts that must repeat exactly between two runs of one program at one
/// seed (`benchmark check` compares them for equality).
pub const EXACT_COUNTS: &[&str] = &[
    "lattice.site_updates_per_step",
    "window.moves",
    "cells.live",
    "serve.preempts",
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name; a name left out is reported as 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (engine steps, sessions).
    pub attempted: u64,
    /// Operations that failed (non-finite moment, ledger breach, session
    /// error or refusal).
    pub failed: u64,
    /// Output checks that did not hold, in words.
    pub violations: Vec<String>,
    /// Run facts for the result file (already JSON values).
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.meta.push((key.to_string(), json_value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    fn metrics_json(&self, table: &[(&str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::escape(name),
                    json::number(value),
                    json::escape(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json(table)
        )
    }

    /// The result file: the result line's content plus violations and the
    /// run facts.
    pub fn result_file(&self, table: &[(&str, &str)]) -> String {
        let violations: Vec<String> = self.violations.iter().map(|v| json::escape(v)).collect();
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}: {v}", json::escape(k)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_share\": {},\n \
             \"violations\": [{}],\n \"metrics\": {},\n \"meta\": {{{}}}}}\n",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json::number(self.failed as f64 / self.attempted.max(1) as f64),
            violations.join(", "),
            self.metrics_json(table),
            meta.join(", ")
        )
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self, table: &[(&str, &str)]) {
        for &(name, unit) in table {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            eprintln!("  {name:<42} {value:>16.6} {unit}");
        }
        eprintln!(
            "  attempted {} failed {} correct {}",
            self.attempted.max(1),
            self.failed,
            self.correct()
        );
        for v in &self.violations {
            eprintln!("  CHECK FAILED: {v}");
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may use.
pub fn nproc() -> usize {
    apr_exec::available_cores()
}

/// Size in bytes of cpu0's cache at `level` (unified or data), 0 if the
/// host does not say.
pub fn cache_bytes(level: u32) -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).unwrap_or_default();
    for index in 0..8 {
        let dir = base.join(format!("index{index}"));
        if read(dir.join("level")).trim() != level.to_string() {
            continue;
        }
        if read(dir.join("type")).trim() == "Instruction" {
            continue;
        }
        let size = read(dir.join("size"));
        let size = size.trim();
        let (digits, scale) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1u64 << 10),
            Some('M') => (&size[..size.len() - 1], 1u64 << 20),
            Some('G') => (&size[..size.len() - 1], 1u64 << 30),
            _ => (size, 1),
        };
        return digits.parse::<u64>().map_or(0, |n| n * scale);
    }
    0
}

/// Commit hash of the enclosing git checkout, `"unknown"` outside one
/// (the driver's checkout is not a repository).
pub fn git_rev() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let rev = match head.strip_prefix("ref: ") {
                Some(reference) => std::fs::read_to_string(git.join(reference))
                    .map(|s| s.trim().to_string())
                    .unwrap_or_default(),
                None => head.to_string(),
            };
            return if rev.is_empty() {
                "unknown".into()
            } else {
                rev
            };
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

/// Ticks the hypervisor has withheld from this guest's CPUs since boot
/// (`steal` in `/proc/stat`). The difference over a run says whether a
/// slow run was the program's doing or a neighbour's.
pub fn cpu_steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|steal| steal.parse().ok())
        .unwrap_or(0)
}

/// Host and invocation facts every result file carries.
pub fn host_meta(out: &mut Outcome, workload: &str, seed: u64, seconds: f64, threads: usize) {
    out.note("workload", json::escape(workload));
    out.note("seed", seed.to_string());
    out.note("seconds", json::number(seconds));
    out.note("git_rev", json::escape(&git_rev()));
    out.note("nproc", nproc().to_string());
    out.note("threads", threads.to_string());
    out.note("l2_bytes", cache_bytes(2).to_string());
    out.note("l3_bytes", cache_bytes(3).to_string());
}

//! Performance-observatory CLI: run the pinned bench scenarios and diff
//! `BENCH_*.json` artifacts against a committed baseline.
//!
//! ```text
//! bench_suite run  [--scenario all|tube|window_move|scaling|serve|network]
//!                  [--threads 1,4] [--steps N] [--out-dir DIR]
//! bench_suite diff <OLD> <NEW> [--threshold 0.15] [--warn-only]
//! bench_suite gate <SCALING.json> [--min-speedup 1.5]
//! ```
//!
//! `gate` enforces the thread-scaling floor on a `scaling` artifact: the
//! best multi-threaded run must reach `--min-speedup` × the single-thread
//! MLUPS. Artifacts recorded on hosts with fewer than 4 cores are skipped
//! with a notice (parallel speedup is physically impossible there), so the
//! gate is safe to run unconditionally in CI.
//!
//! Exit codes: 0 success / within tolerance, 1 regression detected,
//! 2 usage or I/O error. See DESIGN.md §10 and the repo-root `BENCH_*.json`
//! baselines.

use apr_bench::observatory::{
    default_steps, diff_artifacts, gate_scaling, parse_artifact, prometheus_exposition,
    read_git_rev, run_scenario, to_json, BenchArtifact, DiffOptions, GateVerdict, SCENARIOS,
};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage:\n  \
    bench_suite run [--scenario all|tube|window_move|scaling|serve|network] [--threads 1,4] [--steps N] [--out-dir DIR]\n  \
    bench_suite diff <OLD.json> <NEW.json> [--threshold 0.15] [--warn-only]\n  \
    bench_suite gate <SCALING.json> [--min-speedup 1.5]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("gate") => cmd_gate(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn cmd_run(args: &[String]) -> i32 {
    match try_run(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("bench_suite run: {e}\n{USAGE}");
            2
        }
    }
}

fn try_run(args: &[String]) -> Result<(), String> {
    let scenario_arg = flag_value(args, "--scenario")?.unwrap_or("all");
    let scenarios: Vec<&str> = if scenario_arg == "all" {
        SCENARIOS.to_vec()
    } else if SCENARIOS.contains(&scenario_arg) {
        vec![scenario_arg]
    } else {
        return Err(format!(
            "unknown scenario {scenario_arg:?} (expected all or one of {SCENARIOS:?})"
        ));
    };
    let threads: Vec<usize> = flag_value(args, "--threads")?
        .unwrap_or("1")
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad thread count {t:?}"))
        })
        .collect::<Result<_, _>>()?;
    if threads.is_empty() {
        return Err("--threads list is empty".into());
    }
    let steps_override = flag_value(args, "--steps")?
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("bad step count {s:?}"))
        })
        .transpose()?;
    let out_dir = PathBuf::from(flag_value(args, "--out-dir")?.unwrap_or("."));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {out_dir:?}: {e}"))?;

    let git_rev = read_git_rev();
    for scenario in scenarios {
        let steps = steps_override.unwrap_or_else(|| default_steps(scenario));
        let mut artifact = BenchArtifact {
            scenario: scenario.to_string(),
            git_rev: git_rev.clone(),
            runs: Vec::new(),
        };
        for &t in &threads {
            eprintln!("bench_suite: {scenario} threads={t} steps={steps} ...");
            let run = run_scenario(scenario, t, steps)?;
            eprintln!(
                "bench_suite:   {:.3} s wall, {:.2} MLUPS, {} phases",
                run.wall_seconds,
                run.mlups,
                run.phases.len()
            );
            artifact.runs.push(run);
        }
        let path = out_dir.join(format!("BENCH_{scenario}.json"));
        std::fs::write(&path, to_json(&artifact)).map_err(|e| format!("write {path:?}: {e}"))?;
        eprintln!("bench_suite: wrote {}", path.display());

        // Scrape-friendly mirror of the artifact, validated before it is
        // written: a malformed exposition must fail the run, not the
        // scraper.
        let prom = prometheus_exposition(&artifact);
        apr_observe::validate_exposition(&prom)
            .map_err(|e| format!("BENCH_{scenario} exposition invalid: {e}"))?;
        let prom_path = out_dir.join(format!("BENCH_{scenario}.prom"));
        std::fs::write(&prom_path, prom).map_err(|e| format!("write {prom_path:?}: {e}"))?;
        eprintln!("bench_suite: wrote {}", prom_path.display());
    }
    Ok(())
}

fn load(path: &str) -> Result<BenchArtifact, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("read {path}: {e}"))?;
    parse_artifact(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_diff(args: &[String]) -> i32 {
    let positional: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [old_path, new_path] = positional[..] else {
        eprintln!("bench_suite diff: expected exactly two artifact paths\n{USAGE}");
        return 2;
    };
    let warn_only = args.iter().any(|a| a == "--warn-only");
    let mut opts = DiffOptions::default();
    match flag_value(args, "--threshold").map(|v| v.map(str::parse::<f64>)) {
        Ok(None) => {}
        Ok(Some(Ok(t))) if t > 0.0 => opts.threshold = t,
        _ => {
            eprintln!("bench_suite diff: --threshold needs a positive number\n{USAGE}");
            return 2;
        }
    }
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_suite diff: {e}");
            return 2;
        }
    };
    let report = match diff_artifacts(&old, &new, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_suite diff: {e}");
            return 2;
        }
    };
    print!("{}", report.render());
    if report.regressions() > 0 && !warn_only {
        1
    } else {
        0
    }
}

fn cmd_gate(args: &[String]) -> i32 {
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("bench_suite gate: expected a scaling artifact path\n{USAGE}");
        return 2;
    };
    let min_speedup = match flag_value(args, "--min-speedup").map(|v| v.map(str::parse::<f64>)) {
        Ok(None) => 1.5,
        Ok(Some(Ok(s))) if s > 1.0 => s,
        _ => {
            eprintln!("bench_suite gate: --min-speedup needs a number > 1\n{USAGE}");
            return 2;
        }
    };
    let artifact = match load(path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_suite gate: {e}");
            return 2;
        }
    };
    match gate_scaling(&artifact) {
        Err(e) => {
            eprintln!("bench_suite gate: {e}");
            2
        }
        Ok(GateVerdict::Skipped { cores }) => {
            println!(
                "gate: SKIP — artifact recorded on {cores} core(s); \
                 parallel speedup is not measurable below 4"
            );
            0
        }
        Ok(GateVerdict::Measured {
            threads,
            base_mlups,
            best_mlups,
            speedup,
        }) => {
            println!(
                "gate: {threads}T {best_mlups:.2} MLUPS vs 1T {base_mlups:.2} MLUPS \
                 = {speedup:.2}x (floor {min_speedup:.2}x)"
            );
            if speedup >= min_speedup {
                println!("gate: PASS");
                0
            } else {
                println!("gate: FAIL — threading is not paying for itself");
                1
            }
        }
    }
}

//! `run` and `check`: the whole suite from one command, and the comparison
//! of two result sets of the same code.

use crate::report::{END_TO_END, EXACT_COUNTS, PER_LAYER};
use crate::workloads::ALL;
use apr_telemetry::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The result file a workload run writes under its output directory.
pub fn result_path(dir: &Path, workload: &str, trace: bool) -> PathBuf {
    dir.join(format!("{workload}.trace{}.json", u8::from(trace)))
}

/// `run_seconds` from `BENCHMARK.json` in the working directory.
fn manifest_seconds() -> Option<f64> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    json::parse(&text).ok()?.get("run_seconds")?.as_f64()
}

/// Run every workload untraced and traced, each in a fresh process of this
/// binary, which prints every metric by name and writes its result file
/// under `out_dir`. Fails if any run fails its checks.
pub fn run(seed: u64, out_dir: &Path, quick: bool, seconds: Option<f64>) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut seconds = seconds.or_else(manifest_seconds).unwrap_or(20.0);
    if quick {
        seconds /= 10.0;
    }
    std::fs::create_dir_all(out_dir).expect("create the output directory");
    let mut all_correct = true;
    for workload in ALL {
        for trace in [false, true] {
            // A run that dies early must not leave an older result behind.
            std::fs::remove_file(result_path(out_dir, workload, trace)).ok();
            let trace = u8::from(trace);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ])
                .arg("--out-dir")
                .arg(out_dir)
                .stdout(Stdio::piped())
                // The child's table of metrics by name is this command's too.
                .stderr(Stdio::inherit());
            if quick {
                cmd.arg("--quick");
            }
            let output = cmd.output().expect("start a workload run");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let correct = output.status.success()
                && json::parse(line).is_ok_and(|v| v.get("correct") == Some(&Value::Bool(true)));
            if !correct {
                eprintln!("{workload} --trace {trace}: FAILED ({})", output.status);
                all_correct = false;
            }
        }
    }
    eprintln!("results in {}", out_dir.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Bounds by end-to-end metric name, from `BENCHMARK.json`.
fn manifest_bounds() -> Result<Vec<(String, f64)>, String> {
    let manifest = load(Path::new("BENCHMARK.json"))?;
    let list = manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name/bound".to_string())
        })
        .collect()
}

/// Compare two result sets of the same code: every end-to-end metric
/// within its `BENCHMARK.json` bound, every exact count equal.
pub fn check(a: &Path, b: &Path) -> ExitCode {
    let bounds = match manifest_bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut problems: Vec<String> = Vec::new();
    for workload in ALL {
        let pair = |trace: bool| {
            load(&result_path(a, workload, trace))
                .and_then(|x| load(&result_path(b, workload, trace)).map(|y| (x, y)))
        };
        match pair(false) {
            Err(e) => problems.push(e),
            Ok((x, y)) => {
                for (name, bound) in &bounds {
                    match (metric(&x, name), metric(&y, name)) {
                        (Some(va), Some(vb)) if va != 0.0 => {
                            let rel = (vb - va).abs() / va.abs();
                            let line = format!(
                                "{workload:<13} {name:<16} {va:>14.6} {vb:>14.6} {:>6.2} % \
                                 (bound {:.0} %)",
                                rel * 100.0,
                                bound * 100.0
                            );
                            eprintln!("{line}");
                            if rel > *bound {
                                problems.push(line);
                            }
                        }
                        _ => problems.push(format!("{workload} {name}: missing or zero")),
                    }
                }
            }
        }
        match pair(true) {
            Err(e) => problems.push(e),
            Ok((x, y)) => {
                for name in EXACT_COUNTS {
                    let (va, vb) = (metric(&x, name), metric(&y, name));
                    if va.is_none() || va != vb {
                        problems.push(format!("{workload} {name}: {va:?} vs {vb:?} (exact count)"));
                    }
                }
            }
        }
    }
    if problems.is_empty() {
        eprintln!("check passed");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("DIFFERS  {p}");
        }
        eprintln!("check failed: {} difference(s)", problems.len());
        ExitCode::FAILURE
    }
}

/// Do `BENCHMARK.json`'s metric lists name exactly what this binary
/// prints? Skipped when the file is not in the working directory.
pub fn manifest_matches() -> Result<(), String> {
    let Ok(manifest) = load(Path::new("BENCHMARK.json")) else {
        return Ok(());
    };
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(&str, &str)> = manifest
            .get(key)
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .zip(m.get("unit").and_then(Value::as_str))
            })
            .collect();
        if listed != table {
            return Err(format!(
                "BENCHMARK.json {key} does not match the benchmark's metric table"
            ));
        }
    }
    Ok(())
}

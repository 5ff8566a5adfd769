//! The repository's benchmark. See README.md beside this package.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out-dir D] [--quick]
//! benchmark run [--seed N] [--out-dir D] [--seconds S] [--quick]
//! benchmark check <dirA> <dirB>
//! ```
//!
//! The first form is one workload in this process; its last line of
//! standard output is the result object. Everything else goes to standard
//! error and to files under the output directory.

mod apr_run;
mod layers;
mod report;
mod serve_run;
mod suite;
mod trace;
mod workloads;

use report::{cpu_steal_ticks, host_meta, Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const DEFAULT_OUT_DIR: &str = "bench_out";

/// Lanes of the process-wide pool the single-engine workloads step on. One,
/// not the issue's `min(nproc, 2)`: the pool's lanes meet at a barrier after
/// every region, thousands of times a step, so on a shared two-core host any
/// pause of either core stalls both, and runs of one program spread 15–40 %
/// (the driver's host; 22 % here beside one busy process, where one lane
/// spreads 3 %). What the second core pays is `exec.speedup_2t`. The sweep
/// is not touched by this: its two workers each step sessions on one lane.
const THREADS: usize = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out_dir: PathBuf,
    quick: bool,
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out_dir: PathBuf::from(DEFAULT_OUT_DIR),
        quick: false,
        positional: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds {v}: must be positive"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            "--quick" => args.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown argument {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

/// One workload, in this process.
fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let seconds = args.seconds.unwrap_or(20.0);
    apr_run::install_runtime(THREADS);
    let mut out = Outcome::default();
    host_meta(&mut out, name, args.seed, seconds, THREADS);
    let steal_before = cpu_steal_ticks();
    let apr = workloads::APR_WORKLOADS.iter().find(|w| w.name == name);
    match (apr, args.trace) {
        (Some(w), false) => apr_run::run_e2e(w, args.seed, seconds, &args.out_dir, &mut out),
        (Some(w), true) => apr_run::run_layers(w, args.seed, args.quick, &args.out_dir, &mut out),
        (None, false) if name == workloads::SERVE_SWEEP => {
            serve_run::run_e2e(args.seed, seconds, &args.out_dir, &mut out)
        }
        (None, true) if name == workloads::SERVE_SWEEP => {
            serve_run::run_layers(args.seed, args.quick, &args.out_dir, &mut out)
        }
        _ => {
            return Err(format!(
                "unknown workload {name:?}; expected one of {:?}",
                workloads::ALL
            ))
        }
    }
    // What every unpinned lattice of this process ran, the service's
    // sessions included.
    out.note(
        "kernel_default",
        apr_telemetry::json::escape(&format!(
            "{:?}",
            apr_lattice::kernel_select::default_kernel()
        )),
    );
    out.note(
        "cpu_steal_ticks",
        (cpu_steal_ticks() - steal_before).to_string(),
    );
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = suite::manifest_matches() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match (args.workload.as_deref(), positional.as_slice()) {
        (Some(name), []) => {
            let table = if args.trace { PER_LAYER } else { END_TO_END };
            let out = match run_workload(name, &args) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            eprintln!("{name} seed {} trace {}", args.seed, u8::from(args.trace));
            out.print_table(table);
            let file = suite::result_path(&args.out_dir, name, args.trace);
            std::fs::write(file, out.result_file(table)).ok();
            println!("{}", out.result_line(table));
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (None, ["run"]) => suite::run(args.seed, &args.out_dir, args.quick, args.seconds),
        (None, ["check", a, b]) => suite::check(a.as_ref(), b.as_ref()),
        _ => {
            eprintln!(
                "usage: benchmark --workload W --seed N --seconds S --trace 0|1 [--out-dir D] [--quick]\n\
                 \x20      benchmark run [--seed N] [--out-dir D] [--seconds S] [--quick]\n\
                 \x20      benchmark check <dirA> <dirB>"
            );
            ExitCode::from(2)
        }
    }
}

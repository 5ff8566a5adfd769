//! Per-layer costs, measured from outside the program.
//!
//! The staged pass drives coarse steps stage by stage through the same
//! public functions, in the order `AprEngine::step` uses them, on the
//! engine's public fields, with one span per call. Window moves and
//! maintenance are private to `step`; their cost comes from the counting
//! pass's step classes instead. The pass does not read `apr-telemetry`
//! spans: tracing inside the program is a later issue.

use crate::apr_run::{setup, Setup, StepLog, IDENTITY_STEPS};
use crate::report::{median, nproc, Outcome};
use crate::trace::{Recorder, ROOT};
use apr_core::{fsi, AprEngine, SimSession};
use apr_exec::ExecPool;
use apr_lattice::{Lattice, RuntimeConfig, SubStep};
use apr_parallel::{ResilienceConfig, ResilientSlabLattice, SlabLattice};
use std::path::Path;
use std::time::Instant;

/// Coarse steps of the staged pass.
const STAGED_STEPS: u32 = 20;
/// Whole steps timed with telemetry on, and again with the ledger off.
const TOGGLE_STEPS: usize = 10;
/// Steps each kernel backend and each slab variant takes.
const KERNEL_STEPS: usize = 8;
/// Suspend/resume round trips timed per engine.
const GUARD_REPEATS: usize = 3;

/// Spans one staged step records: the step, two snapshots, the coarse
/// step, eight stages per sub-step, the restriction, the ledger's sums.
fn spans_per_step(n: usize) -> usize {
    6 + 8 * n
}

/// One coarse step, stage by stage. Returns interacting vertex pairs
/// summed over the sub-steps.
fn staged_step(eng: &mut AprEngine, rec: &mut Recorder, step: u32) -> usize {
    let root = rec.open("core.shadow_step", ROOT, step);
    let old = rec.span("coupling.snapshot", root, step, || {
        eng.map.snapshot(&eng.coarse, &eng.fine)
    });
    rec.span("lattice.coarse_step", root, step, || eng.coarse.step());
    let new = rec.span("coupling.snapshot", root, step, || {
        eng.map.snapshot(&eng.coarse, &eng.fine)
    });
    let n = eng.map.n;
    let mut pairs = 0;
    for k in 0..n {
        let theta = (k + 1) as f64 / n as f64;
        rec.span("membrane.forces", root, step, || {
            fsi::compute_membrane_forces(&mut eng.pool)
        });
        pairs += rec.span("cells.contact", root, step, || {
            fsi::compute_contact_forces(&mut eng.pool, &mut eng.grid, eng.contact)
        });
        rec.span("lattice.clear_forces", root, step, || {
            eng.fine.clear_forces()
        });
        rec.span("ibm.spread", root, step, || {
            fsi::spread_cell_forces(&mut eng.fine, &eng.pool, eng.kernel, |v| v, 1.0)
        });
        rec.span("lattice.fine_collide", root, step, || {
            eng.fine.advance(SubStep::Collide)
        });
        rec.span("coupling.impose", root, step, || {
            eng.map.impose_shell(&mut eng.fine, &old, &new, theta)
        });
        rec.span("lattice.fine_stream", root, step, || {
            eng.fine.advance(SubStep::Stream)
        });
        rec.span("ibm.interpolate", root, step, || {
            fsi::advect_cells(&eng.fine, &mut eng.pool, eng.kernel, |v| v, 1.0)
        });
    }
    rec.span("coupling.restrict", root, step, || {
        eng.map.restrict(&mut eng.coarse, &eng.fine)
    });
    if eng.ledger.is_some() {
        // What an armed ledger makes `step` compute; recording the sample
        // is private to the engine and costs nothing next to the sums.
        rec.span("observe.ledger", root, step, || {
            std::hint::black_box((
                eng.coarse.mass_momentum_totals(),
                eng.fine.mass_momentum_totals(),
                eng.window_hematocrit(),
            ));
        });
    }
    rec.close(root);
    pairs
}

/// `ns` per unit of a per-step stage time in ms; 0 when the workload has
/// no such unit (no cells, no shell).
fn ns_per(ms_per_step: f64, units_per_step: usize) -> f64 {
    if units_per_step == 0 {
        0.0
    } else {
        ms_per_step * 1e6 / units_per_step as f64
    }
}

/// Median wall (ms) of a plain (no move, no maintenance) step as the
/// engine is configured, with telemetry on, and with the ledger taken out.
/// The three take turns step by step, so the engine's slow drift (cells
/// entering and leaving) reaches all of them alike.
fn toggled_step_ms(eng: &mut AprEngine) -> [f64; 3] {
    let mut logs = [(); 3].map(|()| StepLog::with_capacity(4 * TOGGLE_STEPS));
    for turn in 0..12 * TOGGLE_STEPS {
        if logs.iter().all(|l| l.plain.len() >= TOGGLE_STEPS) {
            break;
        }
        match turn % 3 {
            0 => {
                logs[0].step(eng);
            }
            1 => {
                apr_telemetry::enable();
                logs[1].step(eng);
                apr_telemetry::disable();
                apr_telemetry::global().reset();
            }
            _ => {
                let ledger = eng.ledger.take();
                logs[2].step(eng);
                eng.ledger = ledger;
                if let Some(l) = eng.ledger.as_mut() {
                    // It missed a step; its totals are not continuous.
                    l.reset_continuity();
                }
            }
        }
    }
    logs.map(|l| median(&l.plain))
}

/// Everything measured on one engine after its counting pass: the staged
/// pass, the observer toggles, suspend/resume, the kernel backends and the
/// slab decomposition on its coarse lattice, and the pool's dispatch cost.
/// `plain_ms` is the counting pass's median plain step. Returns the
/// suspend/resume cost, which the sweep sets against its preempt overhead.
pub fn engine_layers(
    s: &mut Setup,
    plain_ms: f64,
    workload: &str,
    quick: bool,
    out_dir: &Path,
    out: &mut Outcome,
) -> GuardCost {
    let eng = &mut s.engine;
    let staged_steps = if quick { 4 } else { STAGED_STEPS };
    let n = eng.map.n;

    // --- staged pass --------------------------------------------------
    let vertices: usize = eng.pool.iter().map(|c| c.vertices.len()).sum();
    let coarse_sites = eng.coarse.fluid_node_count();
    let fine_sites = eng.fine.fluid_node_count();
    let fine_nodes = eng.fine.node_count();
    let shell = eng.map.shell.len();
    let pairs_restrict = eng.map.restrict_pairs.len();
    let mut rec = Recorder::with_capacity(spans_per_step(n) * staged_steps as usize);
    let mut contact_pairs = 0usize;
    for step in 0..staged_steps {
        contact_pairs += staged_step(eng, &mut rec, step);
    }
    let stage = |name: &str| median(&rec.per_step_ms(name, staged_steps));
    let shadow = stage("core.shadow_step");
    let membrane = stage("membrane.forces");
    let contact = stage("cells.contact");
    let spread = stage("ibm.spread");
    let interpolate = stage("ibm.interpolate");
    let coarse_step = stage("lattice.coarse_step");
    let collide = stage("lattice.fine_collide");
    let stream = stage("lattice.fine_stream");
    let clear = stage("lattice.clear_forces");
    let snapshot = stage("coupling.snapshot");
    let impose = stage("coupling.impose");
    let restrict = stage("coupling.restrict");
    let ledger = stage("observe.ledger");

    out.set("membrane.vertices", vertices as f64);
    out.set(
        "membrane.forces_ns_per_vertex",
        ns_per(membrane, n * vertices),
    );
    out.set("cells.contact_ns_per_vertex", ns_per(contact, n * vertices));
    out.set(
        "cells.contact_pairs_per_substep",
        contact_pairs as f64 / (staged_steps as usize * n) as f64,
    );
    out.set("ibm.spread_ns_per_vertex", ns_per(spread, n * vertices));
    out.set(
        "ibm.interpolate_ns_per_vertex",
        ns_per(interpolate, n * vertices),
    );
    out.set(
        "lattice.coarse_step_ns_per_site",
        ns_per(coarse_step, coarse_sites),
    );
    out.set(
        "lattice.fine_collide_ns_per_site",
        ns_per(collide, n * fine_sites),
    );
    out.set(
        "lattice.fine_stream_ns_per_site",
        ns_per(stream, n * fine_sites),
    );
    out.set(
        "lattice.clear_forces_ns_per_site",
        ns_per(clear, n * fine_nodes),
    );
    // D3Q19 in f64, one read and one write of every population per site
    // update. Computed from the array layout, not measured: cache misses
    // and the moment/force fields are not in it.
    let bytes_per_site = 2.0 * 19.0 * 8.0;
    out.set("lattice.bytes_per_site_computed", bytes_per_site);
    if coarse_step > 0.0 {
        out.set(
            "lattice.gbps_computed",
            bytes_per_site * coarse_sites as f64 / (coarse_step * 1e6),
        );
    }
    out.set("coupling.shell_nodes", shell as f64);
    out.set(
        "coupling.snapshot_ns_per_shell_node",
        ns_per(snapshot, 2 * shell),
    );
    out.set(
        "coupling.impose_ns_per_shell_node",
        ns_per(impose, n * shell),
    );
    out.set(
        "coupling.restrict_ns_per_pair",
        ns_per(restrict, pairs_restrict),
    );
    out.set("core.shadow_step_ms", shadow);
    if shadow > 0.0 {
        out.set(
            "core.fsi_share",
            (membrane + contact + spread + interpolate) / shadow,
        );
        out.set(
            "core.lattice_share",
            (coarse_step + collide + stream + clear) / shadow,
        );
        out.set(
            "core.coupling_share",
            (snapshot + impose + restrict) / shadow,
        );
        out.set("core.observe_share", ledger / shadow);
    }
    if plain_ms > 0.0 {
        out.set("core.shadow_coverage", shadow / plain_ms);
        out.set("trace.overhead_pct", (shadow / plain_ms - 1.0) * 100.0);
    }
    std::fs::write(
        out_dir.join(format!("trace_{workload}.json")),
        rec.chrome_json(),
    )
    .ok();

    // --- observers: telemetry on, ledger off ---------------------------
    if !quick {
        let [base, on, unledgered] = toggled_step_ms(eng);
        if base > 0.0 && unledgered > 0.0 {
            out.set("telemetry.on_overhead_pct", (on / base - 1.0) * 100.0);
            out.set(
                "observe.ledger_overhead_pct",
                (base / unledgered - 1.0) * 100.0,
            );
        }
    }

    // --- guard: suspend / resume ---------------------------------------
    let guard = suspend_resume(s, workload, out);
    out.set("guard.blob_mb", guard.blob_bytes as f64 / 1e6);
    out.set(
        "guard.suspend_ns_per_byte",
        guard.suspend_s * 1e9 / guard.blob_bytes as f64,
    );
    out.set(
        "guard.resume_ns_per_byte",
        guard.resume_s * 1e9 / guard.blob_bytes as f64,
    );

    // --- kernels, parallel, exec on the coarse lattice -------------------
    kernel_costs(&s.engine.coarse, out);
    slab_costs(&s.engine.coarse, out);
    out.set("exec.threads", apr_exec::current().threads() as f64);
    if nproc() >= 2 {
        // The runs use one lane, where a region is a plain call; what a
        // second lane would cost per region is an empty one on a pool of two.
        let pool = ExecPool::new(2);
        let regions = 2000;
        let t = Instant::now();
        for _ in 0..regions {
            pool.run(&|_| {});
        }
        out.set(
            "exec.region_dispatch_us",
            t.elapsed().as_secs_f64() * 1e6 / regions as f64,
        );
    }
    guard
}

/// What `SimSession::suspend` and `resume` cost on one engine.
pub struct GuardCost {
    pub blob_bytes: usize,
    pub suspend_s: f64,
    pub resume_s: f64,
}

/// Suspend the engine and resume the blob into a fresh shell of its spec,
/// `GUARD_REPEATS` times; medians, because the first call also pays the
/// first touch of the blob's pages. Checks that `resume(blob)` then
/// `suspend()` gives the same bytes.
pub fn suspend_resume(s: &Setup, workload: &str, out: &mut Outcome) -> GuardCost {
    let mut shell = s.spec.build_apr().expect("workload spec builds");
    let (mut suspends, mut resumes) = (Vec::new(), Vec::new());
    let mut blob = Vec::new();
    for _ in 0..GUARD_REPEATS {
        let t = Instant::now();
        blob = s.engine.suspend();
        suspends.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let resumed = shell.resume(&blob);
        resumes.push(t.elapsed().as_secs_f64());
        out.check(resumed.is_ok(), || {
            format!("{workload}: resume failed: {:?}", resumed.as_ref().err())
        });
    }
    out.check(shell.suspend() == blob, || {
        format!("{workload}: resume(blob) then suspend() changed bytes")
    });
    GuardCost {
        blob_bytes: blob.len(),
        suspend_s: median(&suspends),
        resume_s: median(&resumes),
    }
}

/// Median wall (ns) per fluid site of `KERNEL_STEPS` calls of `step`, after
/// one untimed call that builds the backend.
fn step_ns_per_site(mut step: impl FnMut(), sites: usize) -> f64 {
    step();
    let times: Vec<f64> = (0..KERNEL_STEPS)
        .map(|_| {
            let t = Instant::now();
            step();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ns_per(median(&times), sites)
}

/// The coarse lattice stepped under each kernel name. Names resolve
/// through the program's parser; one it rejects is reported absent (0), so
/// deleting a backend does not break the benchmark.
fn kernel_costs(coarse: &Lattice, out: &mut Outcome) {
    let sites = coarse.fluid_node_count();
    for (name, metric) in [
        ("reference", "kernels.reference_ns_per_site"),
        ("fused", "kernels.fused_ns_per_site"),
        ("simd", "kernels.simd_ns_per_site"),
    ] {
        let kernel = RuntimeConfig::parse(Some(name), None, None, None)
            .ok()
            .and_then(|cfg| cfg.kernel);
        let Some(kernel) = kernel else {
            out.note(&format!("kernel_{name}"), "\"absent\"".into());
            continue;
        };
        let mut lat = coarse.clone();
        lat.set_kernel(Some(kernel));
        out.set(metric, step_ns_per_site(|| lat.step(), sites));
    }
}

/// The coarse lattice split into two z-slabs, plain and resilient. No
/// engine or serve path calls `apr-parallel` today; the numbers exist so
/// the keep-or-delete decision has one.
fn slab_costs(coarse: &Lattice, out: &mut Outcome) {
    const SLABS: usize = 2;
    let sites = coarse.fluid_node_count();
    let mut slab = SlabLattice::split(coarse, SLABS);
    let plain = step_ns_per_site(|| slab.step().expect("slab halo exchange"), sites);
    drop(slab);
    let mut resilient = ResilientSlabLattice::split(coarse, SLABS, ResilienceConfig::default());
    let guarded = step_ns_per_site(
        || {
            resilient.step().expect("resilient slab step");
        },
        sites,
    );
    out.set("parallel.slab_ns_per_site", plain);
    out.set("parallel.resilient_ns_per_site", guarded);
    if plain > 0.0 {
        out.set(
            "parallel.resilience_overhead_pct",
            (guarded / plain - 1.0) * 100.0,
        );
    }
    // Every cut face fills one ghost plane of all 19 populations per step.
    let faces = if coarse.periodic[2] {
        2 * SLABS
    } else {
        2 * (SLABS - 1)
    };
    out.set(
        "parallel.halo_bytes_per_step_computed",
        (faces * coarse.nx * coarse.ny * 19 * 8) as f64,
    );
}

/// The same spec set up and stepped `IDENTITY_STEPS` on two lanes: its
/// `suspend()` blob must equal the one-lane pass's at that step, and the
/// ratio of the two medians over those steps is the second core's pay.
pub fn second_core(
    spec_json: &str,
    max_rounds: usize,
    blob_1t: &[u8],
    steps_ms_1t: &[f64],
    out: &mut Outcome,
) {
    if nproc() < 2 {
        // One core: nothing to compare, and no claim about speed-up.
        return;
    }
    apr_exec::set_threads(2);
    let mut two = setup(spec_json, max_rounds);
    let mut log = StepLog::with_capacity(IDENTITY_STEPS as usize);
    for _ in 0..IDENTITY_STEPS {
        log.step(&mut two.engine);
    }
    let blob_2t = two.engine.suspend();
    apr_exec::set_threads(1);
    out.check(blob_2t == blob_1t, || {
        format!("suspend() at step {IDENTITY_STEPS} differs between 1 and 2 threads")
    });
    let (one, many) = (median(steps_ms_1t), median(&log.all));
    if many > 0.0 {
        out.set("exec.speedup_2t", one / many);
    }
}

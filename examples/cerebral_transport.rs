//! CTC transport through a synthetic cerebral vasculature — the Figure 9
//! scenario on laptop resources.
//!
//! A Murray's-law arterial tree stands in for the paper's patient-derived
//! cerebral geometry (see DESIGN.md substitutions). The bulk flow fills the
//! tree; the cell-resolved window rides the main branch with the CTC. The
//! program reports the transit distance and the APR-vs-eFSI memory budget
//! of Table 3 for this domain.
//!
//! ```sh
//! cargo run --release --example cerebral_transport
//! # long campaigns: checkpoint every 500 steps, resume after a crash
//! cargo run --release --example cerebral_transport -- --checkpoint-every 500
//! cargo run --release --example cerebral_transport -- --resume cerebral.ckpt
//! # observability: Chrome trace (open in Perfetto) + per-step metrics JSONL
//! cargo run --release --example cerebral_transport -- \
//!     --trace-out trace.json --metrics-out metrics.jsonl
//! # worker threads (overrides APR_THREADS; results are bit-identical
//! # for any thread count)
//! cargo run --release --example cerebral_transport -- --threads 4
//! ```

use apr_suite::core::{restore_engine_from_file, save_engine_to_file, AprEngine};
use apr_suite::coupling::fine_tau;
use apr_suite::geom::{open_tree_flow, voxelize, TreeParams, VascularTree};
use apr_suite::lattice::{Lattice, NodeClass};
use apr_suite::membrane::{Membrane, MembraneMaterial, ReferenceState};
use apr_suite::mesh::{icosphere, Vec3};
use apr_suite::perfmodel::MemoryEstimate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Checkpointing and observability knobs from the command line; everything
/// else in this scenario is fixed so a resumed run rebuilds the identical
/// recipe.
struct CkptOpts {
    every: Option<u64>,
    resume: Option<std::path::PathBuf>,
    path: std::path::PathBuf,
    trace_out: Option<std::path::PathBuf>,
    metrics_out: Option<std::path::PathBuf>,
    max_steps: u64,
    threads: Option<usize>,
}

fn parse_opts() -> CkptOpts {
    let mut opts = CkptOpts {
        every: None,
        resume: None,
        path: "cerebral.ckpt".into(),
        trace_out: None,
        metrics_out: None,
        max_steps: 3000,
        threads: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--checkpoint-every" => {
                let v = args.next().expect("--checkpoint-every needs a step count");
                opts.every = Some(v.parse().expect("invalid step count"));
            }
            "--checkpoint-path" => {
                opts.path = args.next().expect("--checkpoint-path needs a path").into();
            }
            "--resume" => {
                opts.resume = Some(args.next().expect("--resume needs a path").into());
            }
            "--trace-out" => {
                opts.trace_out = Some(args.next().expect("--trace-out needs a path").into());
            }
            "--metrics-out" => {
                opts.metrics_out = Some(args.next().expect("--metrics-out needs a path").into());
            }
            "--max-steps" => {
                let v = args.next().expect("--max-steps needs a step count");
                opts.max_steps = v.parse().expect("invalid step count");
            }
            "--threads" => {
                let v = args.next().expect("--threads needs a worker count");
                opts.threads = Some(v.parse().expect("invalid worker count"));
            }
            other => panic!("unknown argument {other}"),
        }
    }
    opts
}

fn main() {
    let opts = parse_opts();
    if let Some(threads) = opts.threads {
        apr_suite::exec::set_threads(threads);
    }
    println!(
        "Execution: {} worker thread(s) (set with --threads or APR_THREADS)",
        apr_suite::exec::current_threads()
    );
    let tracing = opts.trace_out.is_some() || opts.metrics_out.is_some();
    if tracing {
        apr_suite::telemetry::enable();
    }
    // Synthetic "cerebral" tree: root radius 7 coarse cells, 3 levels.
    let mut rng = StdRng::seed_from_u64(7);
    let params = TreeParams {
        root_radius: 7.0,
        root_length: 60.0,
        levels: 3,
        branch_angle: 0.45,
        asymmetry: 0.6,
        jitter: 0.05,
    };
    let tree = VascularTree::grow(&params, Vec3::new(30.0, 30.0, 2.0), Vec3::Z, &mut rng);
    let sdf = tree.sdf();
    let (lo, hi) = tree.bounding_box();
    println!(
        "Synthetic cerebral tree: {} segments, {:.0} lattice-units of centreline, bbox {:.0}×{:.0}×{:.0}",
        tree.segments.len(),
        tree.total_length(),
        hi.x - lo.x,
        hi.y - lo.y,
        hi.z - lo.z,
    );

    // Coarse lattice over the tree, force-driven along the root axis.
    let tau_c = 0.9;
    let (nx, ny, nz) = (60usize, 60usize, 150usize);
    let mut coarse = Lattice::new(nx, ny, nz, tau_c);
    voxelize(&mut coarse, &sdf, Vec3::ZERO, 1.0);
    // A sealed tree carries no steady flow under a body force; open it with
    // a root inlet and leaf outlets instead.
    let ports = open_tree_flow(&mut coarse, &tree, Vec3::ZERO, 1.0, 0.02);
    println!(
        "Flow ports: {} inlet nodes, {} outlet nodes across {} leaves",
        ports.inlet_nodes, ports.outlet_nodes, ports.outlets
    );
    println!(
        "Bulk lattice: {}×{}×{} nodes, {} in the lumen",
        nx,
        ny,
        nz,
        coarse.fluid_node_count()
    );

    // Window on the root segment.
    let n = 3usize;
    let lambda = 0.3;
    let span = 8usize;
    let dim = span * n + 1;
    let fine = Lattice::new(dim, dim, dim, fine_tau(tau_c, n, lambda));
    let path = tree.main_path();
    let start = VascularTree::sample_path(&path, 0.12);
    let origin = [
        (start.x - span as f64 / 2.0).round(),
        (start.y - span as f64 / 2.0).round(),
        (start.z - span as f64 / 2.0).round(),
    ];

    let mut engine = AprEngine::builder(coarse, fine, origin, n, lambda).build();
    let tree_sdf = tree.sdf();
    engine.set_fine_geometry(Box::new(move |fine, origin| {
        for node in 0..fine.node_count() {
            fine.set_flag(node, NodeClass::Fluid);
        }
        let o = Vec3::new(origin[0], origin[1], origin[2]);
        voxelize(fine, &tree_sdf, o, 1.0 / 3.0);
    }));

    // The CTC.
    let ctc_mesh = icosphere(2, 3.0);
    let reference = Arc::new(ReferenceState::build(&ctc_mesh));
    let membrane = Arc::new(Membrane::new(reference, MembraneMaterial::ctc(4e-3, 2e-4)));
    let center = engine.anatomy.center;
    let verts: Vec<Vec3> = ctc_mesh.vertices.iter().map(|&v| v + center).collect();
    engine.add_ctc(Arc::clone(&membrane), verts);

    if let Some(resume) = &opts.resume {
        restore_engine_from_file(&mut engine, resume, Some(&membrane))
            .unwrap_or_else(|e| panic!("cannot resume from {}: {e}", resume.display()));
        println!(
            "Resumed from {} at step {} ({} window moves so far)",
            resume.display(),
            engine.steps(),
            engine.window_moves()
        );
    }

    println!("\nstep    world_z   path_len   window_moves");
    let first = engine.steps();
    for step in first..first + opts.max_steps {
        engine.step();
        if tracing {
            apr_suite::telemetry::sample_metrics(engine.steps());
        }
        if let Some(every) = opts.every {
            if engine.steps().is_multiple_of(every) {
                save_engine_to_file(&engine, &opts.path)
                    .unwrap_or_else(|e| panic!("checkpoint failed: {e}"));
                println!(
                    "checkpoint -> {} (step {})",
                    opts.path.display(),
                    engine.steps()
                );
            }
        }
        if step % 250 == 0 {
            if let Some(w) = engine.tracker.current() {
                println!(
                    "{step:>5}   {:>7.2}   {:>8.2}   {:>6}",
                    w.z,
                    engine.tracker.path_length(),
                    engine.window_moves()
                );
            }
        }
        if engine.window_moves() >= 4 {
            break;
        }
    }
    // A campaign can end between periodic saves (or before the first one);
    // leave a final checkpoint so the run is always resumable.
    if opts.every.is_some() {
        save_engine_to_file(&engine, &opts.path)
            .unwrap_or_else(|e| panic!("checkpoint failed: {e}"));
        println!(
            "checkpoint -> {} (step {})",
            opts.path.display(),
            engine.steps()
        );
    }
    println!(
        "\nCTC travelled {:.1} coarse cells along the tree with {} window moves.",
        engine.tracker.net_displacement(),
        engine.window_moves()
    );

    // Table 3-style memory report for this domain at the paper's spacings.
    // Treat one coarse cell as 15 µm (the paper's bulk resolution).
    let lumen_um3 = tree.lumen_volume() * 15.0f64.powi(3);
    let apr_window = MemoryEstimate::from_volume(0.75, (span as f64 * 15.0).powi(3), 0.35);
    let apr_bulk = MemoryEstimate::from_volume(15.0, lumen_um3, 0.0);
    let efsi = MemoryEstimate::from_volume(0.75, lumen_um3, 0.35);
    println!("\nMemory budget at paper resolutions (0.75 µm window / 15 µm bulk):");
    println!(
        "  APR window: {:>10.2} GB   APR bulk: {:>8.2} GB   eFSI: {:>10.2} GB",
        apr_window.total_bytes() / 1e9,
        apr_bulk.total_bytes() / 1e9,
        efsi.total_bytes() / 1e9
    );
    println!(
        "  APR/eFSI memory ratio: 1:{:.0}",
        efsi.total_bytes() / (apr_window.total_bytes() + apr_bulk.total_bytes())
    );

    if tracing {
        report_telemetry(&opts, &engine, n);
    }
}

/// Dump the recorded trace/metrics and close the model↔measurement loop:
/// fit machine-model work rates from the trace and check the fitted model
/// reproduces the measured step time.
fn report_telemetry(opts: &CkptOpts, engine: &AprEngine, n: usize) {
    use apr_suite::perfmodel::{fit_step_rates, StepGeometry};
    let rec = apr_suite::telemetry::global();
    let stats = rec.phase_stats();
    println!("\nPer-phase profile:");
    println!("{}", apr_suite::telemetry::render_phase_table(&stats));

    if let Some(path) = &opts.trace_out {
        rec.write_chrome_trace(path).expect("write trace");
        println!(
            "wrote Chrome trace to {} (open in Perfetto)",
            path.display()
        );
    }
    if let Some(path) = &opts.metrics_out {
        rec.write_metrics_jsonl(path).expect("write metrics");
        println!("wrote per-step metrics to {}", path.display());
    }

    let geom = StepGeometry {
        coarse_fluid_nodes: engine.coarse.fluid_node_count() as u64,
        fine_fluid_nodes: engine.fine.fluid_node_count() as u64,
        refinement: n as u64,
    };
    if let Some(fit) = fit_step_rates(&stats, &geom) {
        let predicted = fit.predict_step_seconds(&geom);
        let deviation = (predicted - fit.step_seconds).abs() / fit.step_seconds;
        println!(
            "\nTrace-fitted machine model ({} steps, {:.1} MLUPS):",
            fit.steps,
            fit.mlups(&geom)
        );
        println!(
            "  cpu {:.3e} s/node   gpu {:.3e} s/node   measured step {:.3} ms",
            fit.cpu_per_node,
            fit.gpu_per_node,
            fit.step_seconds * 1e3
        );
        println!(
            "  model-predicted step {:.3} ms ({:+.1}% vs measured)",
            predicted * 1e3,
            deviation * 100.0
        );
    }
}

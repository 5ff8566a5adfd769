//! The three single-engine workloads: set-up, the untraced timed run that
//! gives the end-to-end metrics, and the fixed-work counting pass of the
//! traced run.
//!
//! The program is driven through its public surface only:
//! `ScenarioSpec::{from_json, build_apr}`, `AprEngine::{populate_window,
//! step}` and the engine's public fields. Timings are `Instant` around
//! those calls with telemetry off.

use crate::layers;
use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::workloads::AprWorkload;
use apr_cells::CellKind;
use apr_core::{AprEngine, SimSession};
use apr_lattice::RuntimeConfig;
use apr_scenarios::ScenarioSpec;
use apr_telemetry::json;
use std::path::Path;
use std::time::Instant;

/// Set-ups at the start of a timed run, so `setup_s` is a median.
const SETUPS_PER_RUN: usize = 3;

/// The quantile of a run's step times its end-to-end metrics are read at.
const QUIET: f64 = 0.25;

/// Steps whose `suspend()` blob the one-lane and two-lane passes compare.
pub const IDENTITY_STEPS: u64 = 10;

/// Install the run's process-wide runtime: the program's defaults with the
/// lane count set and the start-up kernel probe off, so every lattice runs
/// the kernel the program documents as its default. The probe times a 12³
/// box for a few milliseconds once per process and on a shared host picks
/// differently from process to process (121 against 168 ns per site on the
/// `bulk_network` lattice): left on, it is the largest run-to-run
/// difference the benchmark has. What ran is in the run facts
/// (`kernel_default`, `kernel_coarse`, `kernel_fine`).
pub fn install_runtime(threads: usize) {
    RuntimeConfig::default()
        .with_threads(threads)
        .with_probe(false)
        .install();
}

/// A ready-to-time engine and what it cost to get there.
pub struct Setup {
    pub engine: AprEngine,
    pub spec: ScenarioSpec,
    pub build_s: f64,
    pub populate_s: f64,
    pub warmup_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.populate_s + self.warmup_s
    }
}

/// Spec text → engine at the start of its timed region: build the shell,
/// pack the window, run the warm-up steps the spec asks for.
///
/// Packing calls `populate_window` until the window holds the spec's
/// hematocrit, `max_rounds` times at most, and takes the cells beyond the
/// target out again, last packed first. One call has no target of its own
/// (it places what a random tile finds room for, 150 to 215 cells on
/// `rbc_window` depending on the seed), and a step costs what its cells
/// cost, so the timed region starts from the cell count the hematocrit
/// controller then holds, at every seed.
pub fn setup(spec_json: &str, max_rounds: usize) -> Setup {
    let t = Instant::now();
    let spec = ScenarioSpec::from_json(spec_json).expect("generated spec parses");
    let mut engine = spec.build_apr().expect("workload spec builds");
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let above_target = |eng: &AprEngine| {
        eng.window_hematocrit()
            .is_some_and(|ht| ht > spec.hematocrit)
    };
    for _ in 0..max_rounds {
        if above_target(&engine) {
            break;
        }
        engine.populate_window();
    }
    while above_target(&engine) {
        let last = engine
            .pool
            .iter()
            .filter(|c| c.kind == CellKind::Rbc)
            .map(|c| c.id)
            .max();
        let Some(id) = last else { break };
        engine.pool.remove_where(|c| c.id == id);
    }
    let populate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    engine.step_n(spec.warmup_steps);
    let warmup_s = t.elapsed().as_secs_f64();
    Setup {
        engine,
        spec,
        build_s,
        populate_s,
        warmup_s,
    }
}

/// Wall time (ms) of every timed step, by class. A step that both moved
/// and ran maintenance counts as a move.
pub struct StepLog {
    pub all: Vec<f64>,
    pub plain: Vec<f64>,
    pub maint: Vec<f64>,
    pub moved: Vec<f64>,
    pub inserted: u64,
    pub insert_attempts: u64,
}

impl StepLog {
    pub fn with_capacity(steps: usize) -> Self {
        Self {
            all: Vec::with_capacity(steps),
            plain: Vec::with_capacity(steps),
            maint: Vec::with_capacity(steps),
            moved: Vec::with_capacity(steps),
            inserted: 0,
            insert_attempts: 0,
        }
    }

    /// Run and time one `AprEngine::step`.
    pub fn step(&mut self, eng: &mut AprEngine) -> f64 {
        let maintenance_due = (eng.steps() + 1).is_multiple_of(eng.maintenance_interval);
        let t = Instant::now();
        let report = eng.step();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.all.push(ms);
        if report.moved {
            self.moved.push(ms);
        } else if maintenance_due {
            self.maint.push(ms);
        } else {
            self.plain.push(ms);
        }
        if let Some(ins) = report.insertion {
            self.inserted += ins.inserted as u64;
            self.insert_attempts +=
                (ins.inserted + ins.rejected_overlap + ins.rejected_outside) as u64;
        }
        ms
    }

    /// What a step costs when the host leaves the program alone: the lower
    /// quartile of all timed steps. The host is shared, and whatever a
    /// neighbour does to a step only ever adds time to it, so the low end of
    /// a run's steps repeats from run to run where its middle does not.
    pub fn quiet_step_ms(&self) -> f64 {
        quantile(&self.all, QUIET)
    }

    /// The run's stepping time (s) with every step counted at the lower
    /// quartile of its class: moves and maintenance are paid for as often
    /// as they happened, a stretch the host slowed down is not.
    pub fn quiet_total_s(&self) -> f64 {
        [&self.plain, &self.maint, &self.moved]
            .iter()
            .map(|class| class.len() as f64 * quantile(class, QUIET))
            .sum::<f64>()
            / 1e3
    }

    /// The counting pass's step-class metrics; returns the median plain
    /// (no move, no maintenance) step, the base the class costs and the
    /// staged pass are compared with.
    pub fn report(&self, out: &mut Outcome) -> f64 {
        let plain = median(&self.plain);
        out.set("core.step_ms_p50", median(&self.all));
        out.set("core.step_ms_p95", quantile(&self.all, 0.95));
        out.set("window.maint_step_ms_p50", median(&self.maint));
        out.set("window.move_step_ms_p50", median(&self.moved));
        if !self.maint.is_empty() {
            out.set("window.maintenance_ms", median(&self.maint) - plain);
        }
        if !self.moved.is_empty() {
            out.set("window.move_ms", median(&self.moved) - plain);
        }
        out.set("window.inserted", self.inserted as f64);
        if self.insert_attempts > 0 {
            out.set(
                "window.insert_accept_ratio",
                self.inserted as f64 / self.insert_attempts as f64,
            );
        }
        plain
    }
}

/// Output checks over one stretch of stepping on one engine.
pub struct Watch {
    ht_min: f64,
    ht_max: f64,
    ht_sum: f64,
    ht_samples: u64,
    ctc_z_start: Option<f64>,
    moves_start: u64,
    breaches_seen: usize,
    steps: u64,
}

fn ctc_world_z(eng: &AprEngine) -> Option<f64> {
    eng.ctc_position().map(|p| eng.fine_to_world(p).z)
}

fn breaches(eng: &AprEngine) -> usize {
    eng.ledger.as_ref().map_or(0, |l| l.breaches().len())
}

impl Watch {
    pub fn begin(eng: &AprEngine) -> Self {
        Self {
            ht_min: f64::INFINITY,
            ht_max: f64::NEG_INFINITY,
            ht_sum: 0.0,
            ht_samples: 0,
            ctc_z_start: ctc_world_z(eng),
            moves_start: eng.window_moves(),
            breaches_seen: breaches(eng),
            steps: 0,
        }
    }

    /// Account for the step just taken: it failed if the ledger latched a
    /// breach or its domain totals are not finite. The totals and the
    /// hematocrit are the ledger's own per-step sample, so the check reads
    /// what the step already computed.
    pub fn after_step(&mut self, eng: &AprEngine, out: &mut Outcome) {
        self.steps += 1;
        out.attempted += 1;
        let mut failed = false;
        let now = breaches(eng);
        if now > self.breaches_seen {
            self.breaches_seen = now;
            failed = true;
        }
        if let Some(sample) = eng.ledger.as_ref().and_then(|l| l.last()) {
            let finite = [sample.bulk, sample.window]
                .iter()
                .all(|d| d.mass.is_finite() && d.momentum.iter().all(|m| m.is_finite()));
            failed |= !finite;
            if let Some(ht) = sample.hematocrit {
                self.ht_min = self.ht_min.min(ht);
                self.ht_max = self.ht_max.max(ht);
                self.ht_sum += ht;
                self.ht_samples += 1;
            }
        }
        if failed {
            out.failed += 1;
        }
    }

    pub fn moves(&self, eng: &AprEngine) -> u64 {
        eng.window_moves() - self.moves_start
    }

    pub fn ht_mean(&self) -> f64 {
        if self.ht_samples == 0 {
            0.0
        } else {
            self.ht_sum / self.ht_samples as f64
        }
    }

    /// End-of-stretch checks: every moment of both lattices finite, the
    /// hematocrit inside its band, the tracked cell further downstream,
    /// and at least `min_moves` window moves.
    pub fn finish(&self, eng: &AprEngine, w: &AprWorkload, min_moves: u64, out: &mut Outcome) {
        let finite = [&eng.coarse, &eng.fine]
            .iter()
            .all(|l| l.rho.iter().chain(l.vel.iter()).all(|v| v.is_finite()));
        out.check(finite, || format!("{}: non-finite moment", w.name));
        if w.ht_band > 0.0 && self.ht_samples > 0 {
            // The band is around the stretch's own mean: in transit the
            // window Ht swings ±30 % (a move drops the trailing slab's
            // cells, the next maintenance sweep refills), so any single
            // sample, the post-warm-up one included, is a noisy reference.
            let mean = self.ht_mean();
            let (lo, hi) = (mean * (1.0 - w.ht_band), mean * (1.0 + w.ht_band));
            out.check(self.ht_min >= lo && self.ht_max <= hi, || {
                format!(
                    "{}: window Ht [{:.4}, {:.4}] left ±{:.0} % of its mean {mean:.4}",
                    w.name,
                    self.ht_min,
                    self.ht_max,
                    w.ht_band * 100.0
                )
            });
        }
        if let Some(z0) = self.ctc_z_start {
            let z1 = ctc_world_z(eng);
            out.check(z1.is_some_and(|z| z > z0), || {
                format!("{}: tracked cell went {z0:.3} -> {z1:?}", w.name)
            });
        }
        let moves = self.moves(eng);
        out.check(moves >= min_moves, || {
            format!(
                "{}: {moves} window moves in {} steps, need {min_moves}",
                w.name, self.steps
            )
        });
    }
}

/// Facts about the engine every result file carries.
pub fn engine_meta(eng: &AprEngine, out: &mut Outcome) {
    let vertices: usize = eng.pool.iter().map(|c| c.vertices.len()).sum();
    out.note(
        "kernel_coarse",
        json::escape(&format!("{:?}", eng.coarse.kernel())),
    );
    out.note(
        "kernel_fine",
        json::escape(&format!("{:?}", eng.fine.kernel())),
    );
    out.note(
        "coarse_fluid_sites",
        eng.coarse.fluid_node_count().to_string(),
    );
    out.note("fine_fluid_sites", eng.fine.fluid_node_count().to_string());
    out.note(
        "coarse_distribution_bytes",
        eng.coarse.distribution_memory_bytes().to_string(),
    );
    out.note(
        "fine_distribution_bytes",
        eng.fine.distribution_memory_bytes().to_string(),
    );
    out.note("cells_live", eng.pool.live_count().to_string());
    out.note("membrane_vertices", vertices.to_string());
    out.note("engine_steps", eng.steps().to_string());
}

/// The untraced run: `SETUPS_PER_RUN` set-ups, then timed episodes until
/// `seconds` of stepping have been measured.
pub fn run_e2e(w: &AprWorkload, seed: u64, seconds: f64, out_dir: &Path, out: &mut Outcome) {
    let spec_json = w.generated_spec(seed);
    std::fs::write(out_dir.join(format!("{}.spec.json", w.name)), &spec_json).ok();

    let mut setups = Vec::new();
    let mut current: Option<Setup> = None;
    let mut renew = |slot: &mut Option<Setup>| {
        // Drop the previous engine first so peak RSS is one engine's.
        drop(slot.take());
        let s = setup(&spec_json, w.populate_rounds);
        setups.push(s.total_s());
        *slot = Some(s);
    };
    for _ in 0..SETUPS_PER_RUN {
        renew(&mut current);
    }

    let mut log = StepLog::with_capacity(1 << 16);
    let mut timed_s = 0.0;
    let mut site_updates = 0u64;
    let mut episodes = 0u64;
    let mut moves = 0u64;
    let mut first_episode_rss_mb = 0.0;
    loop {
        let s = current.as_mut().expect("an engine is set up");
        let eng = &mut s.engine;
        episodes += 1;
        let sites_before = eng.site_updates();
        let mut watch = Watch::begin(eng);
        let mut episode_steps = 0u64;
        while timed_s < seconds && episode_steps < w.episode_steps {
            timed_s += log.step(eng) / 1e3;
            episode_steps += 1;
            watch.after_step(eng, out);
        }
        site_updates += eng.site_updates() - sites_before;
        moves += watch.moves(eng);
        // A move every 60 steps is a third of the slowest rate the transit
        // workloads show; the counting pass checks the absolute number.
        let min_moves = if w.min_moves > 0 {
            episode_steps / 60
        } else {
            0
        };
        watch.finish(eng, w, min_moves, out);
        if episodes == 1 {
            // Read here, not at exit: how many more set-ups a run makes
            // depends on how fast it steps, and the allocator's high-water
            // mark rises with them (198 → 219 MB on `bulk_network`).
            first_episode_rss_mb = peak_rss_mb();
        }
        if timed_s >= seconds {
            break;
        }
        renew(&mut current);
    }

    out.set("setup_s", median(&setups));
    out.set("latency_ms", log.quiet_step_ms());
    out.set("mlups", site_updates as f64 / log.quiet_total_s() / 1e6);
    out.set("peak_rss_mb", first_episode_rss_mb);

    let eng = &current.as_ref().expect("an engine is set up").engine;
    engine_meta(eng, out);
    out.note("setups", setups.len().to_string());
    out.note("episodes", episodes.to_string());
    out.note("timed_steps", log.all.len().to_string());
    out.note("timed_seconds", json::number(timed_s));
    out.note("window_moves", moves.to_string());
    out.note("maint_steps", log.maint.len().to_string());
    out.note("move_steps", log.moved.len().to_string());
    out.note("step_ms_p50", json::number(median(&log.all)));
    out.note("step_ms_p95", json::number(quantile(&log.all, 0.95)));
    out.note(
        "mlups_wall",
        json::number(site_updates as f64 / timed_s / 1e6),
    );
    out.note("maint_step_ms_p50", json::number(median(&log.maint)));
    out.note("move_step_ms_p50", json::number(median(&log.moved)));
}

/// The traced run: one set-up, a counting pass of fixed length (its counts
/// repeat exactly at one seed), then the per-layer measurements on the
/// engine as the pass left it.
pub fn run_layers(w: &AprWorkload, seed: u64, quick: bool, out_dir: &Path, out: &mut Outcome) {
    let spec_json = w.generated_spec(seed);
    std::fs::write(out_dir.join(format!("{}.spec.json", w.name)), &spec_json).ok();
    // A quick pass ends before the flow has spun up enough to move the
    // window, so it keeps every check but the move count.
    let (counted, min_moves) = if quick {
        ((w.counted_steps / 10).max(IDENTITY_STEPS), 0)
    } else {
        (w.counted_steps, w.min_moves)
    };

    let mut s = setup(&spec_json, w.populate_rounds);
    out.set("scenarios.build_shell_s", s.build_s);
    out.set("scenarios.populate_s", s.populate_s);
    out.set("scenarios.warmup_s", s.warmup_s);

    let eng = &mut s.engine;
    let mut log = StepLog::with_capacity(counted as usize);
    let mut watch = Watch::begin(eng);
    let sites_before = eng.site_updates();
    let mut identity_blob = Vec::new();
    for step in 0..counted {
        log.step(eng);
        watch.after_step(eng, out);
        if step + 1 == IDENTITY_STEPS {
            identity_blob = eng.suspend();
        }
    }
    watch.finish(eng, w, min_moves, out);

    let plain = log.report(out);
    out.set("window.moves", watch.moves(eng) as f64);
    out.set("window.ht_mean", watch.ht_mean());
    out.set("cells.live", eng.pool.live_count() as f64);
    out.set(
        "lattice.site_updates_per_step",
        (eng.site_updates() - sites_before) as f64 / counted as f64,
    );
    out.note("counted_steps", counted.to_string());

    layers::engine_layers(&mut s, plain, w.name, quick, out_dir, out);
    layers::second_core(
        &spec_json,
        w.populate_rounds,
        &identity_blob,
        &log.all[..IDENTITY_STEPS as usize],
        out,
    );
    engine_meta(&s.engine, out);
}

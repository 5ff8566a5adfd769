//! Full-engine checkpointing and the guarded step loop.
//!
//! [`save_engine`]/[`restore_engine`] capture a **complete** [`AprEngine`]
//! — both lattices (distributions, macroscopic fields, per-node τ), the
//! cell pool with global IDs and exact free-list order, window anatomy and
//! coupling origin, trigger, hematocrit controller, CTC trajectory, step
//! counters and the insertion-RNG stream position — into the versioned
//! CRC-protected `apr-guard` container. A restored engine is
//! **bit-identical**: stepping it produces the same distributions as the
//! uninterrupted run (the sequential reduction order makes this exact).
//!
//! Shared membrane models and the fine-geometry callback are *not*
//! serialized (they are code, not state): restore onto an engine built by
//! the same recipe — same lattices/generators, same [`FineGeometry`]
//! callback, same insertion context. The RBC membrane is taken from the
//! engine's insertion context; a CTC membrane, if any cell needs one, is
//! passed explicitly.
//!
//! [`Guardian`] wraps `AprEngine::step` with the paper-scale robustness
//! loop: sentinel every N steps, snapshot while healthy, roll back +
//! reseed + optionally tighten τ (Eq. 7) on a trip, give up after a
//! bounded retry budget with a structured [`RecoveryLog`]. It rolls back
//! through [`SimSession::resume`], so a CTC is restored with the membrane
//! the engine captured when the CTC was added.

use crate::apr::{AprEngine, AprStepReport};
use crate::efsi::EfsiEngine;
use crate::lifecycle::SimSession;
use apr_coupling::CouplingMap;
use apr_guard::{
    check_hematocrit, check_lattice, check_pool, read_lattice, read_pool, write_lattice,
    write_pool, ByteReader, ByteWriter, CheckpointReader, CheckpointWriter, FaultKind, FaultPlan,
    GuardError, HealthIssue, HealthReport, RecoveryAction, RecoveryEvent, RecoveryLog, RetryPolicy,
    SentinelConfig,
};
use apr_membrane::Membrane;
use apr_window::{HematocritController, MoveTrigger, WindowAnatomy};
use rand::rngs::StdRng;
use std::sync::Arc;

fn write_anatomy(w: &mut ByteWriter, a: &WindowAnatomy) {
    w.vec3(a.center);
    w.f64(a.proper_half);
    w.f64(a.onramp);
    w.f64(a.insertion);
}

fn read_anatomy(r: &mut ByteReader<'_>) -> Result<WindowAnatomy, GuardError> {
    Ok(WindowAnatomy {
        center: r.vec3()?,
        proper_half: r.f64()?,
        onramp: r.f64()?,
        insertion: r.f64()?,
    })
}

/// Serialize the complete engine state to a checkpoint blob.
pub fn save_engine(engine: &AprEngine) -> Vec<u8> {
    let mut ckpt = CheckpointWriter::new();

    let mut meta = ByteWriter::new();
    meta.u64(engine.steps);
    meta.u64(engine.site_updates);
    meta.u64(engine.moves);
    meta.u64(engine.maintenance_interval);
    meta.f64(engine.trigger.trigger_distance);
    for s in engine.rng.state() {
        meta.u64(s);
    }
    ckpt.section("meta", meta.into_bytes());

    let mut map = ByteWriter::new();
    for a in 0..3 {
        map.f64(engine.map.origin[a]);
    }
    map.usize(engine.map.n);
    map.f64(engine.map.lambda);
    ckpt.section("map", map.into_bytes());

    let mut anatomy = ByteWriter::new();
    write_anatomy(&mut anatomy, &engine.anatomy);
    ckpt.section("anatomy", anatomy.into_bytes());

    ckpt.section("coarse", write_lattice(&engine.coarse));
    ckpt.section("fine", write_lattice(&engine.fine));
    ckpt.section("pool", write_pool(&engine.pool));

    let mut tracker = ByteWriter::new();
    tracker.usize(engine.tracker.samples.len());
    for &(step, p) in &engine.tracker.samples {
        tracker.u64(step);
        tracker.vec3(p);
    }
    ckpt.section("tracker", tracker.into_bytes());

    let mut controller = ByteWriter::new();
    match &engine.controller {
        Some(c) => {
            controller.bool(true);
            controller.f64(c.target);
            controller.f64(c.threshold);
            controller.f64(c.cell_volume);
        }
        None => controller.bool(false),
    }
    ckpt.section("controller", controller.into_bytes());

    ckpt.finish()
}

/// Write an engine checkpoint to disk atomically (temp file + rename).
pub fn save_engine_to_file(engine: &AprEngine, path: &std::path::Path) -> Result<(), GuardError> {
    apr_guard::write_atomic(path, &save_engine(engine))
}

/// Restore a checkpoint into `engine`, which must have been constructed by
/// the same recipe (same lattice dimensions and generators, same
/// [`crate::FineGeometry`] callback, same insertion context). RBC
/// membranes come from the engine's insertion context; pass
/// `ctc_membrane` when the checkpoint contains a CTC.
pub fn restore_engine(
    engine: &mut AprEngine,
    blob: &[u8],
    ctc_membrane: Option<&Arc<Membrane>>,
) -> Result<(), GuardError> {
    let ckpt = CheckpointReader::parse(blob)?;

    let mut meta = ckpt.require("meta")?;
    let steps = meta.u64()?;
    let site_updates = meta.u64()?;
    let moves = meta.u64()?;
    let maintenance_interval = meta.u64()?;
    let trigger_distance = meta.f64()?;
    let rng_state = [meta.u64()?, meta.u64()?, meta.u64()?, meta.u64()?];

    let mut map = ckpt.require("map")?;
    let origin = [map.f64()?, map.f64()?, map.f64()?];
    let n = map.usize()?;
    let lambda = map.f64()?;
    if n != engine.map.n {
        return Err(GuardError::Format(format!(
            "refinement ratio mismatch: checkpoint {n} vs engine {}",
            engine.map.n
        )));
    }

    // Re-flag the fine lattice for the stored window origin before loading
    // state (geometry is rebuilt from code, state from the checkpoint).
    if let Some(geometry) = &engine.geometry {
        geometry(&mut engine.fine, origin);
    }
    read_lattice(&mut engine.coarse, &mut ckpt.require("coarse")?)?;
    read_lattice(&mut engine.fine, &mut ckpt.require("fine")?)?;
    engine.map = CouplingMap::new(&engine.coarse, &engine.fine, origin, n, lambda, 1.0);

    let rbc_membrane = engine
        .insertion
        .as_ref()
        .map(|c| Arc::clone(&c.rbc_membrane));
    let provider = |kind: apr_cells::CellKind| match kind {
        apr_cells::CellKind::Rbc => rbc_membrane.clone(),
        apr_cells::CellKind::Ctc => ctc_membrane.cloned(),
    };
    engine.pool = read_pool(&mut ckpt.require("pool")?, &provider)?;
    apr_cells::rebuild_grid(&mut engine.grid, &engine.pool);

    engine.anatomy = read_anatomy(&mut ckpt.require("anatomy")?)?;

    let mut tracker = ckpt.require("tracker")?;
    let count = tracker.usize()?;
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let step = tracker.u64()?;
        let p = tracker.vec3()?;
        samples.push((step, p));
    }
    engine.tracker.samples = samples;

    let mut controller = ckpt.require("controller")?;
    engine.controller = if controller.bool()? {
        Some(HematocritController {
            target: controller.f64()?,
            threshold: controller.f64()?,
            cell_volume: controller.f64()?,
        })
    } else {
        None
    };

    engine.trigger = MoveTrigger { trigger_distance };
    engine.maintenance_interval = maintenance_interval;
    engine.steps = steps;
    engine.site_updates = site_updates;
    engine.moves = moves;
    engine.rng = StdRng::from_state(rng_state);
    // The restored totals are discontinuous with the pre-restore ones by
    // construction; a stale comparison would report phantom drift, and a
    // pending row describes a state that is gone.
    if let Some(ledger) = engine.ledger.as_mut() {
        ledger.reset_continuity();
    }
    engine.pending_row = None;
    Ok(())
}

/// Restore an engine checkpoint from a file written by
/// [`save_engine_to_file`].
pub fn restore_engine_from_file(
    engine: &mut AprEngine,
    path: &std::path::Path,
    ctc_membrane: Option<&Arc<Membrane>>,
) -> Result<(), GuardError> {
    let blob = apr_guard::read_file(path)?;
    restore_engine(engine, &blob, ctc_membrane)
}

/// Serialize a complete [`EfsiEngine`] (baseline engine) state.
pub fn save_efsi(engine: &EfsiEngine) -> Vec<u8> {
    let mut ckpt = CheckpointWriter::new();
    let mut meta = ByteWriter::new();
    meta.u64(engine.steps);
    meta.u64(engine.site_updates);
    ckpt.section("meta", meta.into_bytes());
    ckpt.section("lattice", write_lattice(&engine.lattice));
    ckpt.section("pool", write_pool(&engine.pool));
    ckpt.finish()
}

/// Restore an [`EfsiEngine`] checkpoint. `membranes` supplies the shared
/// membrane model per cell kind (the baseline engine has no insertion
/// context to take one from).
pub fn restore_efsi(
    engine: &mut EfsiEngine,
    blob: &[u8],
    membranes: apr_guard::MembraneProvider<'_>,
) -> Result<(), GuardError> {
    let ckpt = CheckpointReader::parse(blob)?;
    let mut meta = ckpt.require("meta")?;
    engine.steps = meta.u64()?;
    engine.site_updates = meta.u64()?;
    read_lattice(&mut engine.lattice, &mut ckpt.require("lattice")?)?;
    engine.pool = read_pool(&mut ckpt.require("pool")?, membranes)?;
    apr_cells::rebuild_grid(&mut engine.grid, &engine.pool);
    Ok(())
}

/// Outcome of one guarded step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GuardedStep {
    /// The underlying engine step report (of the step that *survived*; a
    /// rolled-back step's report is discarded with its state).
    pub report: AprStepReport,
    /// True when this call detected divergence and rolled the engine back.
    pub rolled_back: bool,
}

/// Records in a trip dump: the newest spans and events, enough to cover
/// the steps leading up to the incident.
const TRIP_DUMP_RECORDS: usize = 4096;

/// Wraps [`AprEngine::step`] with sentinel checks, in-memory last-good
/// checkpointing, and rollback-and-retry recovery.
pub struct Guardian {
    /// Sentinel thresholds.
    pub sentinel: SentinelConfig,
    /// Rollback/retry policy.
    pub policy: RetryPolicy,
    /// Steps between sentinel inspections (and, while healthy, between
    /// checkpoint refreshes).
    pub check_interval: u64,
    /// Structured log of every recovery incident.
    pub log: RecoveryLog,
    /// Scheduled faults (testing only; empty by default).
    pub faults: FaultPlan,
    last_good: Option<Vec<u8>>,
    attempts: u32,
    trip_trace_path: Option<std::path::PathBuf>,
}

impl Guardian {
    /// New guardian checking every `check_interval` steps.
    pub fn new(sentinel: SentinelConfig, policy: RetryPolicy, check_interval: u64) -> Self {
        Self {
            sentinel,
            policy,
            check_interval: check_interval.max(1),
            log: RecoveryLog::new(),
            faults: FaultPlan::new(),
            last_good: None,
            attempts: 0,
            trip_trace_path: None,
        }
    }

    /// On every sentinel trip, write the newest telemetry records (spans
    /// and events, trip included) to `path` as a Chrome trace, making
    /// divergences post-mortem debuggable. Each trip overwrites the file,
    /// so it always holds the history of the *latest* incident.
    pub fn set_trip_trace_path(&mut self, path: impl Into<std::path::PathBuf>) {
        self.trip_trace_path = Some(path.into());
    }

    fn dump_trip_trace(&self) {
        let Some(path) = &self.trip_trace_path else {
            return;
        };
        let trace = apr_telemetry::global().chrome_trace_json_newest(TRIP_DUMP_RECORDS);
        if let Err(err) = std::fs::write(path, trace) {
            eprintln!(
                "guardian: failed to write trip trace to {}: {err}",
                path.display()
            );
        }
    }

    /// The most recent healthy checkpoint blob, if one has been taken
    /// (e.g. to persist to disk between steps).
    pub fn last_checkpoint(&self) -> Option<&[u8]> {
        self.last_good.as_deref()
    }

    /// Run the sentinel over the engine's current state. Closes the
    /// engine's ledger first, so the verdict covers the last step's row.
    pub fn inspect(&self, engine: &mut AprEngine) -> HealthReport {
        engine.close_ledger();
        let mut issues = Vec::new();
        check_lattice(&engine.fine, &self.sentinel, &mut issues);
        check_lattice(&engine.coarse, &self.sentinel, &mut issues);
        check_pool(&engine.pool, &self.sentinel, &mut issues);
        if let Some(ht) = engine.window_hematocrit() {
            check_hematocrit(ht, &self.sentinel, &mut issues);
        }
        // Ledger breaches latch between inspections, so drift at any step
        // surfaces here even with a sparse check interval. Peek, don't
        // drain: a trip rolls back and reset_continuity clears them; a
        // healthy verdict can't happen while breaches stand.
        if let Some(ledger) = engine.ledger.as_ref() {
            for breach in ledger.breaches() {
                issues.push(HealthIssue::ConservationDrift {
                    quantity: breach.quantity,
                    observed: breach.observed,
                    tolerance: breach.tolerance,
                    step: breach.step,
                });
            }
        }
        HealthReport {
            step: engine.steps(),
            issues,
        }
    }

    fn apply_faults(&mut self, engine: &mut AprEngine) {
        // Faults scheduled for step S fire just before the step that makes
        // steps() == S, so the sentinel sees the corruption at its first
        // inspection at or after S.
        for fault in self.faults.take_due(engine.steps() + 1) {
            match fault.kind {
                FaultKind::MembraneNan { cell_index, vertex } => {
                    if let Some(cell) = engine.pool.iter_mut().nth(cell_index) {
                        let v = vertex.min(cell.vertices.len() - 1);
                        cell.vertices[v].x = f64::NAN;
                    }
                }
                FaultKind::DistributionCorrupt { node, magnitude } => {
                    if node < engine.fine.node_count() {
                        let mut f = [0.0; apr_lattice::Q];
                        f.copy_from_slice(engine.fine.distributions(node));
                        for v in &mut f {
                            *v *= magnitude;
                        }
                        engine.fine.set_distributions(node, &f);
                    }
                }
                FaultKind::MassLeak { node, fraction } => {
                    // Scale one node's distributions down: the state stays
                    // numerically healthy (finite, low Mach), so only the
                    // conservation ledger can catch this one.
                    if node < engine.fine.node_count() {
                        let scale = (1.0 - fraction).clamp(0.0, 1.0);
                        let mut f = [0.0; apr_lattice::Q];
                        f.copy_from_slice(engine.fine.distributions(node));
                        for v in &mut f {
                            *v *= scale;
                        }
                        engine.fine.set_distributions(node, &f);
                    }
                }
            }
        }
    }

    /// Advance one step under guard. On a sentinel trip — or a panic
    /// inside the step itself, the terminal form of a blow-up (e.g. a
    /// NaN membrane reaching a normalization) — the engine is rolled back
    /// to the last good checkpoint, the insertion RNG is reseeded, and
    /// (per policy) the fine τ is tightened; after `policy.max_retries`
    /// consecutive failed recoveries the incident is fatal and
    /// [`GuardError::RetriesExhausted`] is returned.
    pub fn step(&mut self, engine: &mut AprEngine) -> Result<GuardedStep, GuardError> {
        if self.last_good.is_none() {
            let blob = save_engine(engine);
            apr_telemetry::emit(apr_telemetry::TelemetryEvent::CheckpointSaved {
                step: engine.steps(),
                bytes: blob.len() as u64,
            });
            self.last_good = Some(blob);
        }
        self.apply_faults(engine);

        // A panicking step leaves the engine in an arbitrary state; that
        // is fine (hence AssertUnwindSafe) because the only exits from an
        // unhealthy branch are a wholesale restore or a fatal error.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.step()));
        let health = match caught {
            Ok(report) => {
                if !engine.steps().is_multiple_of(self.check_interval) {
                    return Ok(GuardedStep {
                        report,
                        rolled_back: false,
                    });
                }
                let health = {
                    let _s = apr_telemetry::span("guard.inspect");
                    self.inspect(engine)
                };
                if health.is_healthy() {
                    let blob = {
                        let _s = apr_telemetry::span("guard.checkpoint");
                        save_engine(engine)
                    };
                    apr_telemetry::emit(apr_telemetry::TelemetryEvent::CheckpointSaved {
                        step: engine.steps(),
                        bytes: blob.len() as u64,
                    });
                    self.last_good = Some(blob);
                    self.attempts = 0;
                    return Ok(GuardedStep {
                        report,
                        rolled_back: false,
                    });
                }
                health
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                HealthReport {
                    step: engine.steps(),
                    issues: vec![apr_guard::HealthIssue::StepPanicked { message }],
                }
            }
        };

        let step = engine.steps();
        apr_telemetry::emit(apr_telemetry::TelemetryEvent::SentinelTrip {
            step,
            issues: health.issues.len() as u32,
            first_kind: health.issues.first().map_or("none", |i| i.kind()),
        });
        // Emitted trip included: the dump's newest event names the
        // incident it precedes.
        self.dump_trip_trace();
        self.attempts += 1;
        if self.attempts > self.policy.max_retries {
            self.log.record(RecoveryEvent {
                step,
                attempt: self.attempts,
                report: health,
                action: RecoveryAction::GaveUp,
            });
            apr_telemetry::emit(apr_telemetry::TelemetryEvent::RetriesExhausted {
                step,
                attempts: self.attempts,
            });
            return Err(GuardError::RetriesExhausted {
                attempts: self.attempts,
                step,
            });
        }

        let blob = self
            .last_good
            .clone()
            .expect("checkpoint taken before stepping");
        {
            let _s = apr_telemetry::span("guard.rollback");
            engine.resume(&blob)?;
        }
        let new_seed = self.policy.seed_for_attempt(self.attempts);
        engine.reseed_rng(new_seed);
        // Tightening compounds per attempt: the restore reset τ to the
        // checkpointed value, so re-apply once per attempt so far.
        for _ in 0..self.attempts {
            engine.fine.tau = self.policy.tighten_tau(engine.fine.tau);
        }
        apr_telemetry::emit(apr_telemetry::TelemetryEvent::Rollback {
            step,
            attempt: self.attempts,
            restored_step: engine.steps(),
            new_seed,
            fine_tau: engine.fine.tau,
        });
        self.log.record(RecoveryEvent {
            step,
            attempt: self.attempts,
            report: health,
            action: RecoveryAction::RolledBack {
                restored_step: engine.steps(),
                new_seed,
                fine_tau: engine.fine.tau,
            },
        });
        Ok(GuardedStep {
            report: AprStepReport::default(),
            rolled_back: true,
        })
    }
}

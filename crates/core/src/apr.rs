//! The APR engine: coarse bulk fluid + moving cell-resolved window
//! (paper §2.4, the primary contribution).
//!
//! Coordinate convention: **cells live in fine-lattice coordinates** and the
//! window anatomy is centred in the fine domain. A window move shifts the
//! fine lattice's origin within the coarse lattice by a whole number of
//! coarse cells and translates every cell the opposite way, so the window
//! always occupies the entire fine lattice. World positions are recovered
//! through [`AprEngine::fine_to_world`].

use crate::fsi;
use apr_cells::{CellKind, CellPool, ContactParams, UniformSubgrid};
use apr_coupling::CouplingMap;
use apr_ibm::DeltaKernel;
use apr_lattice::{KernelKind, Lattice, RuntimeConfig, SubStep};
use apr_membrane::Membrane;
use apr_mesh::Vec3;
use apr_telemetry::ledger::{ConservationLedger, LedgerConfig, PendingRow, WindowFlux};
use apr_window::{
    move_window, remove_escaped_cells, repopulate, CtcTracker, HematocritController,
    InsertionContext, InsertionReport, MoveTrigger, WindowAnatomy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Geometry callback: re-flag the fine lattice for a new window origin
/// (coarse-lattice coordinates of fine node 0).
pub type FineGeometry = Box<dyn Fn(&mut Lattice, [f64; 3]) + Send + Sync>;

/// Bulk driver callback: runs on the coarse lattice at the start of every
/// engine step, before the coarse collide/stream, with the number of steps
/// completed so far. Used for time-dependent boundary forcing (pulsatile
/// inlets restamp their `Boundary::Velocity` values here). Like
/// [`FineGeometry`], the driver is code-not-state: it must be a pure
/// function of `(lattice, step)` so a resumed checkpoint replays the same
/// forcing.
pub type BulkDriver = Box<dyn Fn(&mut Lattice, u64) + Send + Sync>;

/// Window steering callback: given the CTC trajectory so far and the CTC's
/// current **world** (coarse-lattice) position, return the world point the
/// next window move should aim at. The default (no steer) aims at the CTC
/// itself; a steer can lead the target into a chosen daughter branch when
/// the window approaches a junction. Code-not-state, like [`FineGeometry`].
pub type WindowSteer = Box<dyn Fn(&CtcTracker, Vec3) -> Vec3 + Send + Sync>;

/// Report of one engine step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AprStepReport {
    /// Did the window move this step?
    pub moved: bool,
    /// Insertion activity this step (if maintenance ran).
    pub insertion: Option<InsertionReport>,
    /// Cells removed after crossing the window boundary.
    pub escaped: usize,
}

/// Adaptive-physics-refinement simulation: coarse bulk + fine moving window
/// with explicit deformable cells.
pub struct AprEngine {
    /// Coarse (bulk, whole-blood) lattice.
    pub coarse: Lattice,
    /// Fine (window, plasma) lattice.
    pub fine: Lattice,
    /// Bulk↔window coupling.
    pub map: CouplingMap,
    /// Window anatomy in fine coordinates (centred in the fine domain).
    pub anatomy: WindowAnatomy,
    /// Live cells (fine coordinates).
    pub pool: CellPool,
    /// Spatial hash over cell vertices (fine coordinates). After
    /// [`AprEngine::step`] it holds the positions from the start of the
    /// step's last FSI sub-step (window moves and maintenance rebuild or
    /// edit it for the cells they move, add and remove).
    pub grid: UniformSubgrid,
    /// Intercellular repulsion.
    pub contact: ContactParams,
    /// IBM delta kernel.
    pub kernel: DeltaKernel,
    /// Hematocrit controller (None = no density maintenance).
    pub controller: Option<HematocritController>,
    /// Insertion machinery (None = no repopulation).
    pub insertion: Option<InsertionContext>,
    /// Window-move trigger.
    pub trigger: MoveTrigger,
    /// CTC trajectory in world (coarse-lattice) coordinates.
    pub tracker: CtcTracker,
    /// Steps between window-maintenance sweeps.
    pub maintenance_interval: u64,
    /// Conservation ledger (None = no per-step accounting; stepping then
    /// costs nothing beyond the existing gauges). Its newest row is the
    /// previous step's until [`AprEngine::close_ledger`] is called.
    pub ledger: Option<ConservationLedger>,
    /// The last step's ledger row, completed from the next step's collides
    /// (see [`apr_telemetry::ledger`]).
    pub(crate) pending_row: Option<PendingRow>,
    pub(crate) geometry: Option<FineGeometry>,
    pub(crate) bulk_driver: Option<BulkDriver>,
    pub(crate) steer: Option<WindowSteer>,
    pub(crate) rng: StdRng,
    pub(crate) steps: u64,
    pub(crate) site_updates: u64,
    pub(crate) moves: u64,
    /// CTC membrane model, captured by [`AprEngine::add_ctc`] so the
    /// engine can resume checkpoints containing a CTC without the caller
    /// re-supplying it (membranes are code-not-state; see
    /// [`crate::guardian`]).
    pub(crate) ctc_membrane: Option<Arc<Membrane>>,
}

/// Staged construction for [`AprEngine`].
///
/// Required inputs (lattices, window origin, refinement ratio, viscosity
/// ratio) are taken by [`AprEngine::builder`]; everything else has a
/// paper-faithful default:
///
/// * window anatomy — proper/on-ramp/insertion widths of 0.22/0.12/0.14 ×
///   the fine domain span (the §3.2 layout every example uses),
/// * contact — cutoff 1.2 fine spacings, strength 5 × 10⁻⁴,
/// * kernel — [`DeltaKernel::Cosine4`],
/// * RNG seed — `0x5eed`,
/// * maintenance interval — 50 steps.
pub struct AprEngineBuilder {
    coarse: Lattice,
    fine: Lattice,
    origin: [f64; 3],
    n: usize,
    lambda: f64,
    window: Option<(f64, f64, f64)>,
    contact: ContactParams,
    kernel: DeltaKernel,
    runtime: Option<RuntimeConfig>,
    seed: u64,
    maintenance_interval: u64,
    pool_capacity: usize,
    ledger: Option<LedgerConfig>,
}

impl AprEngineBuilder {
    /// Window anatomy in **fine** lattice units: half-width of the proper
    /// region, on-ramp width, insertion-region width. Their sum should
    /// reach (near) the fine domain boundary.
    pub fn window(mut self, proper_half: f64, onramp: f64, insertion_width: f64) -> Self {
        self.window = Some((proper_half, onramp, insertion_width));
        self
    }

    /// Intercellular contact repulsion parameters.
    pub fn contact(mut self, contact: ContactParams) -> Self {
        self.contact = contact;
        self
    }

    /// IBM delta kernel for all interpolation/spreading.
    pub fn kernel(mut self, kernel: DeltaKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Apply a [`RuntimeConfig`] to this engine: its kernel override, when
    /// `Some`, on both lattices; `None` (and no call at all) defers to the
    /// installed `RuntimeConfig`, then `APR_KERNEL`, then the fused kernel.
    /// The `threads` knob is process-wide and is **not** applied here —
    /// call [`RuntimeConfig::install`] once at startup for that; this
    /// method only scopes the kernel so two engines in one process can run
    /// different kernels.
    pub fn runtime(mut self, cfg: RuntimeConfig) -> Self {
        self.runtime = Some(cfg);
        self
    }

    /// Seed of the deterministic RNG driving cell insertion.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Steps between window-maintenance sweeps (escape removal and
    /// repopulation).
    pub fn maintenance_interval(mut self, steps: u64) -> Self {
        assert!(steps > 0, "maintenance interval must be positive");
        self.maintenance_interval = steps;
        self
    }

    /// Preallocated cell slots (paper §2.4.5 allocates all cell memory up
    /// front).
    pub fn pool_capacity(mut self, slots: usize) -> Self {
        self.pool_capacity = slots;
        self
    }

    /// Arm the conservation ledger: every step records bulk and window
    /// mass/momentum totals (from the next step's collides, in a fixed
    /// order; see [`AprEngine::close_ledger`]), tracks drift against
    /// `config`'s tolerances, and keeps the latest sample
    /// ([`ConservationLedger::last`]). Latched breaches surface as
    /// `HealthIssue::ConservationDrift` at the next guardian inspection.
    pub fn ledger(mut self, config: LedgerConfig) -> Self {
        self.ledger = Some(config);
        self
    }

    /// Assemble the engine: builds the bulk↔window coupling and seeds the
    /// fine fluid from the coarse solution.
    pub fn build(self) -> AprEngine {
        let AprEngineBuilder {
            mut coarse,
            mut fine,
            origin,
            n,
            lambda,
            window,
            contact,
            kernel,
            runtime,
            seed,
            maintenance_interval,
            pool_capacity,
            ledger,
        } = self;
        let kernel_override = runtime.and_then(|c| c.kernel);
        if let Some(kind) = kernel_override {
            coarse.set_kernel(Some(kind));
            fine.set_kernel(Some(kind));
        }
        // Stamp the effective runtime knobs as run attributes: every Chrome
        // trace, a guardian trip dump included, carries them as metadata,
        // so a post-mortem identifies the kernel/thread configuration.
        apr_telemetry::set_attribute(
            "runtime.kernel",
            kernel_override.map_or("auto", KernelKind::as_str),
        );
        apr_telemetry::set_attribute("runtime.threads", apr_exec::current_threads().to_string());
        let (proper_half, onramp, insertion_width) = window.unwrap_or_else(|| {
            let span = (fine.nx.min(fine.ny).min(fine.nz) - 1) as f64;
            (span * 0.22, span * 0.12, span * 0.14)
        });
        let map = CouplingMap::new(&coarse, &fine, origin, n, lambda, 1.0);
        map.seed_fine_from_coarse(&coarse, &mut fine);
        let center = Vec3::new(
            (fine.nx - 1) as f64 / 2.0,
            (fine.ny - 1) as f64 / 2.0,
            (fine.nz - 1) as f64 / 2.0,
        );
        let anatomy = WindowAnatomy::new(center, proper_half, onramp, insertion_width);
        let grid = UniformSubgrid::new(contact.cutoff.max(2.0));
        AprEngine {
            coarse,
            fine,
            map,
            anatomy,
            pool: CellPool::with_capacity(pool_capacity),
            grid,
            contact,
            kernel,
            controller: None,
            insertion: None,
            trigger: MoveTrigger {
                trigger_distance: proper_half * 0.25,
            },
            tracker: CtcTracker::new(),
            maintenance_interval,
            ledger: ledger.map(ConservationLedger::new),
            pending_row: None,
            geometry: None,
            bulk_driver: None,
            steer: None,
            rng: StdRng::seed_from_u64(seed),
            steps: 0,
            site_updates: 0,
            moves: 0,
            ctc_membrane: None,
        }
    }
}

impl AprEngine {
    /// Start building an engine from prepared lattices.
    ///
    /// * `origin` — coarse coordinates of fine node 0.
    /// * `n` — refinement ratio; `lambda` — viscosity ratio ν_f/ν_c.
    ///
    /// See [`AprEngineBuilder`] for the defaulted knobs.
    pub fn builder(
        coarse: Lattice,
        fine: Lattice,
        origin: [f64; 3],
        n: usize,
        lambda: f64,
    ) -> AprEngineBuilder {
        AprEngineBuilder {
            coarse,
            fine,
            origin,
            n,
            lambda,
            window: None,
            contact: ContactParams {
                cutoff: 1.2,
                strength: 5e-4,
            },
            kernel: DeltaKernel::Cosine4,
            runtime: None,
            seed: 0x5eed,
            maintenance_interval: 50,
            pool_capacity: 256,
            ledger: None,
        }
    }

    /// Install a geometry callback re-flagging the fine lattice after moves;
    /// applies it immediately for the current origin.
    pub fn set_fine_geometry(&mut self, geometry: FineGeometry) {
        geometry(&mut self.fine, self.map.origin);
        self.rebuild_coupling();
        self.map.seed_fine_from_coarse(&self.coarse, &mut self.fine);
        self.geometry = Some(geometry);
    }

    /// Install a bulk driver applying time-dependent forcing to the coarse
    /// lattice at the start of every step (see [`BulkDriver`]).
    pub fn set_bulk_driver(&mut self, driver: BulkDriver) {
        self.bulk_driver = Some(driver);
    }

    /// Install a window-steering callback biasing where window moves aim
    /// (see [`WindowSteer`]).
    pub fn set_window_steer(&mut self, steer: WindowSteer) {
        self.steer = Some(steer);
    }

    /// Reseed the deterministic RNG driving cell insertion.
    pub fn reseed_rng(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// World (coarse-lattice) coordinates of a fine-coordinate point.
    pub fn fine_to_world(&self, p: Vec3) -> Vec3 {
        Vec3::new(
            self.map.origin[0] + p.x / self.map.n as f64,
            self.map.origin[1] + p.y / self.map.n as f64,
            self.map.origin[2] + p.z / self.map.n as f64,
        )
    }

    /// Fine coordinates of a world point.
    pub fn world_to_fine(&self, p: Vec3) -> Vec3 {
        Vec3::new(
            (p.x - self.map.origin[0]) * self.map.n as f64,
            (p.y - self.map.origin[1]) * self.map.n as f64,
            (p.z - self.map.origin[2]) * self.map.n as f64,
        )
    }

    /// Add a CTC with explicit shape (fine coordinates); returns its ID.
    /// The membrane model is retained so checkpoints containing the CTC
    /// can be resumed through [`crate::SimSession::resume`].
    pub fn add_ctc(&mut self, membrane: Arc<Membrane>, vertices: Vec<Vec3>) -> u64 {
        self.ctc_membrane = Some(Arc::clone(&membrane));
        let (_, id) = self.pool.insert_shape(CellKind::Ctc, membrane, vertices);
        id
    }

    /// Add an RBC with explicit shape (fine coordinates); returns its ID.
    pub fn add_rbc(&mut self, membrane: Arc<Membrane>, vertices: Vec<Vec3>) -> u64 {
        let (_, id) = self.pool.insert_shape(CellKind::Rbc, membrane, vertices);
        id
    }

    /// Initially pack the window interior with RBCs from the insertion
    /// context's tile, skipping overlaps with existing cells (the paper
    /// §3.2 packs each domain before flow starts). Returns inserted count.
    pub fn populate_window(&mut self) -> usize {
        let Some(ctx) = &self.insertion else { return 0 };
        apr_cells::rebuild_grid(&mut self.grid, &self.pool);
        let (lo, hi) = self.anatomy.bounds();
        let edge = (hi.x - lo.x).min(ctx.tile.edge);
        let placements = ctx.tile.sample_cube(edge, &mut self.rng);
        let mut inserted = 0;
        for p in placements {
            let mut verts = p.realize(&ctx.rbc_mesh);
            for v in &mut verts {
                *v += lo;
            }
            let centroid: Vec3 = verts.iter().copied().sum::<Vec3>() / verts.len() as f64;
            if !self.anatomy.contains(centroid) {
                continue;
            }
            if apr_cells::centroid_conflict(&self.pool, centroid, 2.0 * ctx.min_gap) {
                continue;
            }
            if let apr_cells::OverlapOutcome::Clear =
                apr_cells::test_overlap(&self.grid, &verts, ctx.min_gap)
            {
                let (_, id) =
                    self.pool
                        .insert_shape(CellKind::Rbc, Arc::clone(&ctx.rbc_membrane), verts);
                let cell = self.pool.find_by_id(id).expect("just inserted");
                self.grid.insert_cell(id, &cell.vertices);
                inserted += 1;
            }
        }
        inserted
    }

    /// Current CTC centroid in fine coordinates.
    pub fn ctc_position(&self) -> Option<Vec3> {
        self.pool
            .iter()
            .find(|c| c.kind == CellKind::Ctc)
            .map(|c| c.centroid())
    }

    /// Window hematocrit (if a controller is installed).
    pub fn window_hematocrit(&self) -> Option<f64> {
        self.controller
            .as_ref()
            .map(|c| c.window_hematocrit(&self.pool, &self.anatomy))
    }

    /// Advance one coarse step (with `n` fine FSI substeps), plus window
    /// maintenance and (when triggered) a window move.
    pub fn step(&mut self) -> AprStepReport {
        // 1-based: spans of this call are tagged with the value `steps()`
        // will have once it completes.
        let _step_scope = apr_telemetry::step_scope(self.steps + 1);
        let _step_span = apr_telemetry::span("apr.step");
        let mut report = AprStepReport::default();
        let mut flux = WindowFlux::default();
        if let Some(driver) = &self.bulk_driver {
            let _s = apr_telemetry::span("apr.bulk_driver");
            driver(&mut self.coarse, self.steps);
        }
        let old = {
            let _s = apr_telemetry::span("coupling.snapshot");
            self.map.snapshot(&self.coarse, &self.fine)
        };
        {
            let _s = apr_telemetry::span("apr.coarse");
            self.coarse.step();
        }
        let new = {
            let _s = apr_telemetry::span("coupling.snapshot");
            self.map.snapshot(&self.coarse, &self.fine)
        };
        let n = self.map.n;
        for k in 0..n {
            let theta = (k + 1) as f64 / n as f64;
            let map = &self.map;
            fsi::substep(
                &mut self.fine,
                &mut self.pool,
                &mut self.grid,
                self.contact,
                self.kernel,
                k + 1 == n,
                |fine| {
                    {
                        let _s = apr_telemetry::span("apr.fine.collide");
                        fine.advance(SubStep::Collide);
                    }
                    {
                        let _s = apr_telemetry::span("coupling.impose_shell");
                        map.impose_shell(fine, &old, &new, theta);
                    }
                    let _s = apr_telemetry::span("apr.fine.stream");
                    fine.advance(SubStep::Stream);
                },
            );
        }
        {
            let _s = apr_telemetry::span("coupling.restrict");
            self.map.restrict(&mut self.coarse, &self.fine);
        }

        self.steps += 1;
        let step_sites =
            self.coarse.fluid_node_count() as u64 + (self.fine.fluid_node_count() * n) as u64;
        self.site_updates += step_sites;
        apr_telemetry::counter_add("apr.site_updates", step_sites);

        // Trajectory + window move.
        if let Some(ctc) = self.ctc_position() {
            let world = self.fine_to_world(ctc);
            self.tracker.record(self.steps, world);
            if self.trigger.should_move(&self.anatomy, ctc) {
                let _s = apr_telemetry::span("apr.window_move");
                if let Some(moved) = self.execute_window_move(ctc) {
                    report.moved = true;
                    flux = moved;
                }
            }
        }

        // Periodic density maintenance.
        if self.steps.is_multiple_of(self.maintenance_interval) {
            let _s = apr_telemetry::span("window.maintenance");
            let escaped = remove_escaped_cells(&mut self.pool, &mut self.grid, &self.anatomy);
            report.escaped = escaped;
            if escaped > 0 {
                apr_telemetry::emit(apr_telemetry::TelemetryEvent::EscapedCells {
                    step: self.steps,
                    count: escaped as u32,
                });
            }
            if let (Some(controller), Some(ctx)) = (&self.controller, &self.insertion) {
                let ins = repopulate(
                    &mut self.pool,
                    &mut self.grid,
                    &self.anatomy,
                    controller,
                    ctx,
                    &mut self.rng,
                );
                apr_telemetry::emit(apr_telemetry::TelemetryEvent::Repopulation {
                    step: self.steps,
                    needy_subregions: ins.needy_subregions as u32,
                    inserted: ins.inserted as u32,
                    rejected: (ins.rejected_overlap + ins.rejected_outside) as u32,
                });
                report.insertion = Some(ins);
            }
        }

        self.sample_ledger(flux);
        self.publish_gauges();
        report
    }

    /// Feed the conservation ledger, if one is armed: record the previous
    /// step's row from the totals this step's first collides computed, then
    /// open this step's row and ask both lattices for the totals of the
    /// state it ends in. Reading totals never perturbs the physics they
    /// audit. A step taken with the ledger out drops the pending row.
    fn sample_ledger(&mut self, flux: WindowFlux) {
        self.close_ledger();
        if self.ledger.is_none() {
            return;
        }
        self.pending_row = Some(PendingRow {
            step: self.steps,
            hematocrit: self.window_hematocrit(),
            flux,
        });
        self.coarse.request_totals();
        self.fine.request_totals();
    }

    /// Record the last step's pending ledger row now, so the ledger covers
    /// the current state: with one sweep of each lattice, unless a collide
    /// has computed the totals already (as during the next step, which
    /// calls this). Call it before reading the ledger at the end of a run.
    /// Without an armed ledger the pending row is dropped.
    pub fn close_ledger(&mut self) {
        let (Some(row), Some(ledger)) = (self.pending_row.take(), self.ledger.as_mut()) else {
            return;
        };
        let _s = apr_telemetry::span("observe.ledger");
        let bulk = self.coarse.take_totals().into();
        let window = self.fine.take_totals().into();
        ledger.record(row.step, bulk, window, row.hematocrit, row.flux);
    }

    /// Per-step observability: region occupancy and window hematocrit
    /// gauges. Skipped entirely (including the pool scan) when telemetry
    /// is disabled.
    fn publish_gauges(&self) {
        if !apr_telemetry::is_enabled() {
            return;
        }
        let occ = apr_window::region_occupancy(&self.pool, &self.anatomy);
        apr_window::publish_occupancy(&occ);
        if let Some(ht) = self.window_hematocrit() {
            apr_telemetry::gauge_set("window.hematocrit", ht);
        }
        apr_telemetry::gauge_set("apr.window_moves", self.moves as f64);
        apr_telemetry::gauge_set("exec.threads", apr_exec::current_threads() as f64);
    }

    /// Perform the §2.4.3 window move toward the CTC at fine position
    /// `ctc`. Returns the fill/capture flux of the move, or `None` if the
    /// shift rounds to zero or would leave the coarse domain.
    fn execute_window_move(&mut self, ctc: Vec3) -> Option<WindowFlux> {
        let n = self.map.n as f64;
        // Aim point: the CTC itself, unless a steer leads it (e.g. into a
        // daughter branch at a junction).
        let aim = match &self.steer {
            Some(steer) => {
                let world = self.fine_to_world(ctc);
                self.world_to_fine(steer(&self.tracker, world))
            }
            None => ctc,
        };
        // Integer coarse-cell shift bringing the aim point back to centre.
        let shift_c = Vec3::new(
            ((aim.x - self.anatomy.center.x) / n).round(),
            ((aim.y - self.anatomy.center.y) / n).round(),
            ((aim.z - self.anatomy.center.z) / n).round(),
        );
        if shift_c == Vec3::ZERO {
            return None;
        }
        let new_origin = [
            self.map.origin[0] + shift_c.x,
            self.map.origin[1] + shift_c.y,
            self.map.origin[2] + shift_c.z,
        ];
        // Keep the fine domain inside the coarse one.
        let fine_dims = [self.fine.nx, self.fine.ny, self.fine.nz];
        let coarse_dims = [self.coarse.nx, self.coarse.ny, self.coarse.nz];
        for a in 0..3 {
            if self.fine.periodic[a] {
                continue;
            }
            let hi = new_origin[a] + (fine_dims[a] - 1) as f64 / n;
            if new_origin[a] < 0.0 || hi > (coarse_dims[a] - 1) as f64 {
                return None;
            }
        }

        let shift_fine = shift_c * n;
        // Capture/fill in the old frame: the window recentres on the snap
        // target; fill copies are placed shifted by the displacement.
        let target = self.anatomy.center + shift_fine;
        let (_, move_report) = move_window(
            &self.anatomy,
            &mut self.pool,
            &mut self.grid,
            target,
            self.insertion.as_ref().map_or(1.0, |c| c.min_gap),
        );
        // Translate everything back so the anatomy stays domain-centred.
        for cell in self.pool.iter_mut() {
            cell.translate(-shift_fine);
        }
        apr_cells::rebuild_grid(&mut self.grid, &self.pool);

        // Shift the fine lattice origin and rebuild the coupling.
        self.map = CouplingMap::new(
            &self.coarse,
            &self.fine,
            new_origin,
            self.map.n,
            self.map.lambda,
            1.0,
        );
        if let Some(geometry) = &self.geometry {
            geometry(&mut self.fine, new_origin);
            self.rebuild_coupling();
        }
        // Fresh fine fluid from the coarse solution (paper §2.4.3).
        self.map.seed_fine_from_coarse(&self.coarse, &mut self.fine);
        self.moves += 1;
        apr_telemetry::emit(apr_telemetry::TelemetryEvent::WindowMove {
            step: self.steps,
            shift: [shift_c.x, shift_c.y, shift_c.z],
            captured: move_report.captured as u32,
            copied: move_report.copied as u32,
            removed: move_report.removed as u32,
        });
        Some(WindowFlux {
            captured: move_report.captured as u32,
            copied: move_report.copied as u32,
            removed: move_report.removed as u32,
            moved: true,
        })
    }

    fn rebuild_coupling(&mut self) {
        self.map = CouplingMap::new(
            &self.coarse,
            &self.fine,
            self.map.origin,
            self.map.n,
            self.map.lambda,
            1.0,
        );
    }

    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Window moves executed.
    pub fn window_moves(&self) -> u64 {
        self.moves
    }

    /// Cumulative site updates (coarse + n×fine) — the APR/eFSI cost proxy.
    pub fn site_updates(&self) -> u64 {
        self.site_updates
    }
}

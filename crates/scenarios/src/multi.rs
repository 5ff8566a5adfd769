//! N > 1 concurrent refinement windows in one bulk domain.
//!
//! A [`MultiWindowEngine`] runs one coarse lattice and a vector of
//! [`WindowUnit`]s, each a complete window stack — fine lattice, coupling
//! map, anatomy, cell pool, tracker, optional steer/geometry callbacks —
//! mirroring [`apr_core::AprEngine`]'s single-window machinery field for
//! field. Each step advances the coarse lattice once, then runs every
//! unit's `n` FSI substeps against its own shell snapshots and restricts
//! the fine solutions back. Restriction regions are disjoint (ownership
//! is enforced, see below), so the unit order never changes the physics.
//!
//! **Disjoint ownership.** Every window owns its coarse footprint plus an
//! [`OWNERSHIP_MARGIN`]-cell moat. Adding an overlapping window is a typed
//! [`ScenarioError::WindowOverlap`] — never a panic — and a window *move*
//! whose destination would invade another window's footprint is
//! deterministically deferred: the move simply does not happen that step
//! and is re-evaluated the next time the trigger fires. Deferral depends
//! only on engine state, so thread counts cannot change the outcome.
//!
//! The engine implements [`SimSession`], so apr-serve schedules a
//! multi-window scenario exactly like a single-window one:
//! checkpoint-preempt-resume with bit-identical suspend blobs.

use crate::spec::{footprints_conflict, ScenarioError, OWNERSHIP_MARGIN};
use apr_cells::{CellKind, CellPool, ContactParams, UniformSubgrid};
use apr_core::{fsi, BulkDriver, FineGeometry, SimSession, WindowSteer};
use apr_coupling::CouplingMap;
use apr_guard::{
    read_lattice, read_pool, write_lattice, write_pool, ByteWriter, CheckpointReader,
    CheckpointWriter, GuardError,
};
use apr_ibm::DeltaKernel;
use apr_lattice::{Lattice, SubStep};
use apr_membrane::Membrane;
use apr_mesh::Vec3;
use apr_telemetry::ledger::{
    ConservationLedger, DomainTotals, LedgerConfig, PendingRow, WindowFlux,
};
use apr_window::{
    move_window, remove_escaped_cells, repopulate, CtcTracker, HematocritController,
    InsertionContext, MoveTrigger, WindowAnatomy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One window's complete stack: everything [`apr_core::AprEngine`] owns
/// except the coarse lattice and the bulk driver, which the enclosing
/// [`MultiWindowEngine`] holds once.
pub struct WindowUnit {
    /// Fine (window, plasma) lattice.
    pub fine: Lattice,
    /// Bulk↔window coupling for this unit.
    pub map: CouplingMap,
    /// Window anatomy in fine coordinates.
    pub anatomy: WindowAnatomy,
    /// Live cells (fine coordinates).
    pub pool: CellPool,
    /// Spatial hash over cell vertices. After a step it holds the
    /// positions from the start of the last FSI sub-step.
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
    /// This unit's tracked-cell trajectory, world coordinates.
    pub tracker: CtcTracker,
    /// Window moves executed by this unit.
    pub moves: u64,
    geometry: Option<FineGeometry>,
    steer: Option<WindowSteer>,
    rng: StdRng,
    ctc_membrane: Option<Arc<Membrane>>,
}

impl WindowUnit {
    /// Build a unit with the same defaults as `AprEngineBuilder`: anatomy
    /// 0.22/0.12/0.14 × fine span, contact (1.2, 5e-4), `Cosine4` kernel,
    /// trigger at a quarter of the proper half-width.
    ///
    /// Fails with [`ScenarioError::WindowOutOfBounds`] (index 0 — the
    /// caller knows the real slot) if the fine footprint leaves the coarse
    /// domain, instead of letting `CouplingMap::new` panic.
    pub fn new(
        coarse: &Lattice,
        mut fine: Lattice,
        origin: [f64; 3],
        n: usize,
        lambda: f64,
        seed: u64,
    ) -> Result<Self, ScenarioError> {
        let span = (fine.nx.min(fine.ny).min(fine.nz) - 1) as f64;
        let (proper_half, onramp, insertion_width) = (span * 0.22, span * 0.12, span * 0.14);
        let ext = [
            (fine.nx - 1) as f64 / n as f64,
            (fine.ny - 1) as f64 / n as f64,
            (fine.nz - 1) as f64 / n as f64,
        ];
        let dims = [coarse.nx, coarse.ny, coarse.nz];
        for a in 0..3 {
            if origin[a] < 0.0 || origin[a] + ext[a] > (dims[a] - 1) as f64 {
                return Err(ScenarioError::WindowOutOfBounds { index: 0 });
            }
        }
        let map = CouplingMap::new(coarse, &fine, origin, n, lambda, 1.0);
        map.seed_fine_from_coarse(coarse, &mut fine);
        let center = Vec3::new(
            (fine.nx - 1) as f64 / 2.0,
            (fine.ny - 1) as f64 / 2.0,
            (fine.nz - 1) as f64 / 2.0,
        );
        let contact = ContactParams {
            cutoff: 1.2,
            strength: 5e-4,
        };
        let grid = UniformSubgrid::new(contact.cutoff.max(2.0));
        Ok(WindowUnit {
            fine,
            map,
            anatomy: WindowAnatomy::new(center, proper_half, onramp, insertion_width),
            pool: CellPool::with_capacity(256),
            grid,
            contact,
            kernel: DeltaKernel::Cosine4,
            controller: None,
            insertion: None,
            trigger: MoveTrigger {
                trigger_distance: proper_half * 0.25,
            },
            tracker: CtcTracker::new(),
            moves: 0,
            geometry: None,
            steer: None,
            rng: StdRng::seed_from_u64(seed),
            ctc_membrane: None,
        })
    }

    /// Install a geometry callback re-flagging the fine lattice after
    /// moves; applies it immediately for the current origin.
    pub fn set_fine_geometry(&mut self, coarse: &Lattice, geometry: FineGeometry) {
        geometry(&mut self.fine, self.map.origin);
        self.rebuild_coupling(coarse);
        self.map.seed_fine_from_coarse(coarse, &mut self.fine);
        self.geometry = Some(geometry);
    }

    /// Install a window-steering callback (see [`apr_core::WindowSteer`]).
    pub fn set_window_steer(&mut self, steer: WindowSteer) {
        self.steer = Some(steer);
    }

    /// Add this unit's tracked CTC (fine coordinates); returns its ID.
    pub fn add_ctc(&mut self, membrane: Arc<Membrane>, vertices: Vec<Vec3>) -> u64 {
        self.ctc_membrane = Some(Arc::clone(&membrane));
        let (_, id) = self.pool.insert_shape(CellKind::Ctc, membrane, vertices);
        id
    }

    /// World (coarse) coordinates of a fine-coordinate point.
    pub fn fine_to_world(&self, p: Vec3) -> Vec3 {
        let n = self.map.n as f64;
        Vec3::new(
            self.map.origin[0] + p.x / n,
            self.map.origin[1] + p.y / n,
            self.map.origin[2] + p.z / n,
        )
    }

    /// Fine coordinates of a world point.
    pub fn world_to_fine(&self, p: Vec3) -> Vec3 {
        let n = self.map.n as f64;
        Vec3::new(
            (p.x - self.map.origin[0]) * n,
            (p.y - self.map.origin[1]) * n,
            (p.z - self.map.origin[2]) * n,
        )
    }

    /// This unit's CTC centroid in fine coordinates.
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

    /// Coarse-cell extent of this unit's footprint along each axis.
    pub fn footprint_extent(&self) -> [f64; 3] {
        let n = self.map.n as f64;
        [
            (self.fine.nx - 1) as f64 / n,
            (self.fine.ny - 1) as f64 / n,
            (self.fine.nz - 1) as f64 / n,
        ]
    }

    /// Initially pack the window interior with RBCs from the insertion
    /// tile (same logic as `AprEngine::populate_window`).
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

    fn rebuild_coupling(&mut self, coarse: &Lattice) {
        self.map = CouplingMap::new(
            coarse,
            &self.fine,
            self.map.origin,
            self.map.n,
            self.map.lambda,
            1.0,
        );
    }

    /// Run this unit's `n` FSI substeps between the shell snapshots and
    /// restrict the fine solution into the coarse lattice.
    fn substep_and_restrict(
        &mut self,
        coarse: &mut Lattice,
        old: &apr_coupling::ShellSnapshot,
        new: &apr_coupling::ShellSnapshot,
    ) {
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
                    fine.advance(SubStep::Collide);
                    map.impose_shell(fine, old, new, theta);
                    fine.advance(SubStep::Stream);
                },
            );
        }
        self.map.restrict(coarse, &self.fine);
    }

    /// Attempt the window move toward the CTC at fine position `ctc`,
    /// refusing (deterministically, without side effects) any destination
    /// whose footprint would conflict with `others` — the footprints
    /// `(origin, extent)` of every *other* live window.
    fn try_move(
        &mut self,
        coarse: &mut Lattice,
        ctc: Vec3,
        step: u64,
        others: &[([f64; 3], [f64; 3])],
    ) -> Option<WindowFlux> {
        let n = self.map.n as f64;
        let aim = match &self.steer {
            Some(steer) => {
                let world = self.fine_to_world(ctc);
                self.world_to_fine(steer(&self.tracker, world))
            }
            None => ctc,
        };
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
        // Stay inside the coarse domain along non-periodic axes.
        let fine_dims = [self.fine.nx, self.fine.ny, self.fine.nz];
        let coarse_dims = [coarse.nx, coarse.ny, coarse.nz];
        for a in 0..3 {
            if self.fine.periodic[a] {
                continue;
            }
            let hi = new_origin[a] + (fine_dims[a] - 1) as f64 / n;
            if new_origin[a] < 0.0 || hi > (coarse_dims[a] - 1) as f64 {
                return None;
            }
        }
        // Ownership: defer any move that would invade another window's
        // footprint (plus the margin moat).
        let ext = self.footprint_extent();
        for &(other_origin, other_ext) in others {
            if footprints_conflict(new_origin, ext, other_origin, other_ext, OWNERSHIP_MARGIN) {
                apr_telemetry::counter_add("multi.move_deferred", 1);
                return None;
            }
        }

        let shift_fine = shift_c * n;
        let target = self.anatomy.center + shift_fine;
        let (_, move_report) = move_window(
            &self.anatomy,
            &mut self.pool,
            &mut self.grid,
            target,
            self.insertion.as_ref().map_or(1.0, |c| c.min_gap),
        );
        for cell in self.pool.iter_mut() {
            cell.translate(-shift_fine);
        }
        apr_cells::rebuild_grid(&mut self.grid, &self.pool);

        self.map = CouplingMap::new(
            coarse,
            &self.fine,
            new_origin,
            self.map.n,
            self.map.lambda,
            1.0,
        );
        if let Some(geometry) = &self.geometry {
            geometry(&mut self.fine, new_origin);
            self.rebuild_coupling(coarse);
        }
        self.map.seed_fine_from_coarse(coarse, &mut self.fine);
        self.moves += 1;
        apr_telemetry::emit(apr_telemetry::TelemetryEvent::WindowMove {
            step,
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
}

/// Coarse bulk lattice plus N disjoint refinement windows, scheduled as
/// one [`SimSession`].
pub struct MultiWindowEngine {
    /// Coarse (bulk) lattice.
    pub coarse: Lattice,
    /// The window units, in insertion order.
    pub windows: Vec<WindowUnit>,
    /// Aggregated conservation ledger (bulk vs sum-of-windows totals). Its
    /// newest row is the previous step's until
    /// [`MultiWindowEngine::close_ledger`] is called.
    pub ledger: Option<ConservationLedger>,
    /// Steps between window-maintenance sweeps.
    pub maintenance_interval: u64,
    /// The last step's ledger row, completed from the next step's collides
    /// (see [`apr_telemetry::ledger`]).
    pending_row: Option<PendingRow>,
    bulk_driver: Option<BulkDriver>,
    steps: u64,
    site_updates: u64,
}

impl MultiWindowEngine {
    /// New engine over a prepared coarse lattice, with no windows yet.
    pub fn new(coarse: Lattice) -> Self {
        MultiWindowEngine {
            coarse,
            windows: Vec::new(),
            ledger: None,
            maintenance_interval: 10,
            pending_row: None,
            bulk_driver: None,
            steps: 0,
            site_updates: 0,
        }
    }

    /// Arm the aggregated conservation ledger.
    pub fn set_ledger(&mut self, config: LedgerConfig) {
        self.ledger = Some(ConservationLedger::new(config));
    }

    /// Install a bulk driver (time-dependent coarse forcing).
    pub fn set_bulk_driver(&mut self, driver: BulkDriver) {
        self.bulk_driver = Some(driver);
    }

    /// Add a window, enforcing disjoint ownership against every existing
    /// window and the coarse domain bounds. The returned index identifies
    /// the unit in [`MultiWindowEngine::windows`].
    /// A pending ledger row is recorded first, over the windows it
    /// describes.
    pub fn add_window(&mut self, unit: WindowUnit) -> Result<usize, ScenarioError> {
        let ext = unit.footprint_extent();
        let origin = unit.map.origin;
        let dims = [self.coarse.nx, self.coarse.ny, self.coarse.nz];
        for a in 0..3 {
            if unit.fine.periodic[a] {
                continue;
            }
            if origin[a] < 0.0 || origin[a] + ext[a] > (dims[a] - 1) as f64 {
                return Err(ScenarioError::WindowOutOfBounds {
                    index: self.windows.len(),
                });
            }
        }
        for (i, existing) in self.windows.iter().enumerate() {
            if footprints_conflict(
                origin,
                ext,
                existing.map.origin,
                existing.footprint_extent(),
                OWNERSHIP_MARGIN,
            ) {
                return Err(ScenarioError::WindowOverlap {
                    first: i,
                    second: self.windows.len(),
                });
            }
        }
        self.close_ledger();
        self.windows.push(unit);
        Ok(self.windows.len() - 1)
    }

    /// Pack every cell-laden window (see [`WindowUnit::populate_window`]);
    /// returns total cells inserted.
    pub fn populate_windows(&mut self) -> usize {
        self.windows.iter_mut().map(|w| w.populate_window()).sum()
    }

    /// Total window moves across all units.
    pub fn window_moves(&self) -> u64 {
        self.windows.iter().map(|w| w.moves).sum()
    }

    /// Advance one coarse step: bulk driver, coarse collide/stream, every
    /// unit's FSI substeps + restriction, per-unit tracking/moves (with
    /// ownership deferral), maintenance, and the aggregated ledger sample.
    pub fn step(&mut self) {
        let _step_scope = apr_telemetry::step_scope(self.steps + 1);
        let _span = apr_telemetry::span("multi.step");
        if let Some(driver) = &self.bulk_driver {
            driver(&mut self.coarse, self.steps);
        }
        let old: Vec<_> = self
            .windows
            .iter()
            .map(|w| w.map.snapshot(&self.coarse, &w.fine))
            .collect();
        self.coarse.step();
        let new: Vec<_> = self
            .windows
            .iter()
            .map(|w| w.map.snapshot(&self.coarse, &w.fine))
            .collect();
        let mut flux = WindowFlux::default();
        for (i, unit) in self.windows.iter_mut().enumerate() {
            let _s = apr_telemetry::span("multi.window");
            unit.substep_and_restrict(&mut self.coarse, &old[i], &new[i]);
        }

        self.steps += 1;
        let mut step_sites = self.coarse.fluid_node_count() as u64;
        for unit in &self.windows {
            step_sites += (unit.fine.fluid_node_count() * unit.map.n) as u64;
        }
        self.site_updates += step_sites;
        apr_telemetry::counter_add("apr.site_updates", step_sites);

        // Tracking + moves, in unit order. Each unit sees the *current*
        // footprints of all others (including moves earlier this step) —
        // state-dependent only, so deferral is deterministic.
        for i in 0..self.windows.len() {
            let Some(ctc) = self.windows[i].ctc_position() else {
                continue;
            };
            let world = self.windows[i].fine_to_world(ctc);
            self.windows[i].tracker.record(self.steps, world);
            if !self.windows[i]
                .trigger
                .should_move(&self.windows[i].anatomy, ctc)
            {
                continue;
            }
            let others: Vec<([f64; 3], [f64; 3])> = self
                .windows
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, w)| (w.map.origin, w.footprint_extent()))
                .collect();
            let steps = self.steps;
            if let Some(moved) = self.windows[i].try_move(&mut self.coarse, ctc, steps, &others) {
                flux.captured += moved.captured;
                flux.copied += moved.copied;
                flux.removed += moved.removed;
                flux.moved = true;
            }
        }

        if self.steps.is_multiple_of(self.maintenance_interval) {
            for unit in &mut self.windows {
                let escaped = remove_escaped_cells(&mut unit.pool, &mut unit.grid, &unit.anatomy);
                if escaped > 0 {
                    apr_telemetry::emit(apr_telemetry::TelemetryEvent::EscapedCells {
                        step: self.steps,
                        count: escaped as u32,
                    });
                }
                if let (Some(controller), Some(ctx)) = (&unit.controller, &unit.insertion) {
                    repopulate(
                        &mut unit.pool,
                        &mut unit.grid,
                        &unit.anatomy,
                        controller,
                        ctx,
                        &mut unit.rng,
                    );
                }
            }
        }

        self.sample_ledger(flux);
    }

    /// Record the previous step's row from the totals this step's first
    /// collides computed, then open this step's row and ask every lattice
    /// for the totals of the state it ends in (see
    /// [`apr_telemetry::ledger`]). A step taken with the ledger out drops
    /// the pending row.
    fn sample_ledger(&mut self, flux: WindowFlux) {
        self.close_ledger();
        if self.ledger.is_none() {
            return;
        }
        // Mean hematocrit over the controlled windows, if any.
        let hts: Vec<f64> = self
            .windows
            .iter()
            .filter_map(|w| w.window_hematocrit())
            .collect();
        let hematocrit = if hts.is_empty() {
            None
        } else {
            Some(hts.iter().sum::<f64>() / hts.len() as f64)
        };
        self.pending_row = Some(PendingRow {
            step: self.steps,
            hematocrit,
            flux,
        });
        self.coarse.request_totals();
        for unit in &mut self.windows {
            unit.fine.request_totals();
        }
    }

    /// Record the last step's pending ledger row now, so the ledger covers
    /// the current state: with one sweep of each lattice, unless a collide
    /// has computed the totals already (as during the next step, which
    /// calls this). Without an armed ledger the pending row is dropped.
    pub fn close_ledger(&mut self) {
        let (Some(row), Some(ledger)) = (self.pending_row.take(), self.ledger.as_mut()) else {
            return;
        };
        let bulk = self.coarse.take_totals().into();
        let mut window = DomainTotals::default();
        for unit in &mut self.windows {
            let (mass, momentum, nodes) = unit.fine.take_totals();
            window.mass += mass;
            for (acc, m) in window.momentum.iter_mut().zip(momentum) {
                *acc += m;
            }
            window.fluid_nodes += nodes as u64;
        }
        ledger.record(row.step, bulk, window, row.hematocrit, row.flux);
    }
}

impl SimSession for MultiWindowEngine {
    fn step_n(&mut self, n: u64) -> u64 {
        let before = self.site_updates;
        for _ in 0..n {
            self.step();
        }
        self.site_updates - before
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn site_updates(&self) -> u64 {
        self.site_updates
    }

    fn suspend(&self) -> Vec<u8> {
        let mut ckpt = CheckpointWriter::new();
        let mut meta = ByteWriter::new();
        meta.u64(self.steps);
        meta.u64(self.site_updates);
        meta.u64(self.maintenance_interval);
        meta.usize(self.windows.len());
        ckpt.section("meta", meta.into_bytes());
        ckpt.section("coarse", write_lattice(&self.coarse));
        for (i, unit) in self.windows.iter().enumerate() {
            let mut wmeta = ByteWriter::new();
            wmeta.u64(unit.moves);
            wmeta.f64(unit.trigger.trigger_distance);
            for s in unit.rng.state() {
                wmeta.u64(s);
            }
            ckpt.section(&format!("w{i}.meta"), wmeta.into_bytes());

            let mut map = ByteWriter::new();
            for a in 0..3 {
                map.f64(unit.map.origin[a]);
            }
            map.usize(unit.map.n);
            map.f64(unit.map.lambda);
            ckpt.section(&format!("w{i}.map"), map.into_bytes());

            let mut anatomy = ByteWriter::new();
            anatomy.vec3(unit.anatomy.center);
            anatomy.f64(unit.anatomy.proper_half);
            anatomy.f64(unit.anatomy.onramp);
            anatomy.f64(unit.anatomy.insertion);
            ckpt.section(&format!("w{i}.anatomy"), anatomy.into_bytes());

            ckpt.section(&format!("w{i}.fine"), write_lattice(&unit.fine));
            ckpt.section(&format!("w{i}.pool"), write_pool(&unit.pool));

            let mut tracker = ByteWriter::new();
            tracker.usize(unit.tracker.samples.len());
            for &(step, p) in &unit.tracker.samples {
                tracker.u64(step);
                tracker.vec3(p);
            }
            ckpt.section(&format!("w{i}.tracker"), tracker.into_bytes());

            let mut controller = ByteWriter::new();
            match &unit.controller {
                Some(c) => {
                    controller.bool(true);
                    controller.f64(c.target);
                    controller.f64(c.threshold);
                    controller.f64(c.cell_volume);
                }
                None => controller.bool(false),
            }
            ckpt.section(&format!("w{i}.controller"), controller.into_bytes());
        }
        ckpt.finish()
    }

    fn resume(&mut self, blob: &[u8]) -> Result<(), GuardError> {
        let ckpt = CheckpointReader::parse(blob)?;
        let mut meta = ckpt.require("meta")?;
        let steps = meta.u64()?;
        let site_updates = meta.u64()?;
        let maintenance_interval = meta.u64()?;
        let count = meta.usize()?;
        if count != self.windows.len() {
            return Err(GuardError::Format(format!(
                "window count mismatch: checkpoint {count} vs engine {}",
                self.windows.len()
            )));
        }
        read_lattice(&mut self.coarse, &mut ckpt.require("coarse")?)?;
        for (i, unit) in self.windows.iter_mut().enumerate() {
            let mut wmeta = ckpt.require(&format!("w{i}.meta"))?;
            unit.moves = wmeta.u64()?;
            let trigger_distance = wmeta.f64()?;
            let rng_state = [wmeta.u64()?, wmeta.u64()?, wmeta.u64()?, wmeta.u64()?];

            let mut map = ckpt.require(&format!("w{i}.map"))?;
            let origin = [map.f64()?, map.f64()?, map.f64()?];
            let n = map.usize()?;
            let lambda = map.f64()?;
            if n != unit.map.n {
                return Err(GuardError::Format(format!(
                    "window {i} refinement mismatch: checkpoint {n} vs engine {}",
                    unit.map.n
                )));
            }
            // Geometry from code for the stored origin, state from the blob.
            if let Some(geometry) = &unit.geometry {
                geometry(&mut unit.fine, origin);
            }
            read_lattice(&mut unit.fine, &mut ckpt.require(&format!("w{i}.fine"))?)?;
            unit.map = CouplingMap::new(&self.coarse, &unit.fine, origin, n, lambda, 1.0);

            let rbc_membrane = unit.insertion.as_ref().map(|c| Arc::clone(&c.rbc_membrane));
            let ctc_membrane = unit.ctc_membrane.clone();
            let provider = |kind: CellKind| match kind {
                CellKind::Rbc => rbc_membrane.clone(),
                CellKind::Ctc => ctc_membrane.clone(),
            };
            unit.pool = read_pool(&mut ckpt.require(&format!("w{i}.pool"))?, &provider)?;
            apr_cells::rebuild_grid(&mut unit.grid, &unit.pool);

            let mut anatomy = ckpt.require(&format!("w{i}.anatomy"))?;
            unit.anatomy = WindowAnatomy {
                center: anatomy.vec3()?,
                proper_half: anatomy.f64()?,
                onramp: anatomy.f64()?,
                insertion: anatomy.f64()?,
            };

            let mut tracker = ckpt.require(&format!("w{i}.tracker"))?;
            let samples = tracker.usize()?;
            let mut history = Vec::with_capacity(samples);
            for _ in 0..samples {
                let step = tracker.u64()?;
                let p = tracker.vec3()?;
                history.push((step, p));
            }
            unit.tracker.samples = history;

            let mut controller = ckpt.require(&format!("w{i}.controller"))?;
            unit.controller = if controller.bool()? {
                Some(HematocritController {
                    target: controller.f64()?,
                    threshold: controller.f64()?,
                    cell_volume: controller.f64()?,
                })
            } else {
                None
            };
            unit.trigger = MoveTrigger { trigger_distance };
            unit.rng = StdRng::from_state(rng_state);
        }
        self.maintenance_interval = maintenance_interval;
        self.steps = steps;
        self.site_updates = site_updates;
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.reset_continuity();
        }
        self.pending_row = None;
        Ok(())
    }
}

// The serve scheduler migrates sessions between worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<MultiWindowEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use apr_coupling::fine_tau;
    use apr_lattice::force_driven_tube;

    fn two_window_engine() -> MultiWindowEngine {
        let coarse = force_driven_tube(17, 17, 48, 0.9, 7.0, 4e-6);
        let mut eng = MultiWindowEngine::new(coarse);
        eng.set_ledger(LedgerConfig::default());
        for z in [4.0, 24.0] {
            let fine = Lattice::new(13, 13, 13, fine_tau(0.9, 2, 0.3));
            let unit = WindowUnit::new(&eng.coarse, fine, [5.0, 5.0, z], 2, 0.3, 7).unwrap();
            eng.add_window(unit).unwrap();
        }
        eng
    }

    #[test]
    fn overlapping_window_is_typed_error_not_panic() {
        let coarse = force_driven_tube(17, 17, 48, 0.9, 7.0, 4e-6);
        let mut eng = MultiWindowEngine::new(coarse);
        let fine = Lattice::new(13, 13, 13, fine_tau(0.9, 2, 0.3));
        let unit = WindowUnit::new(&eng.coarse, fine, [5.0, 5.0, 4.0], 2, 0.3, 1).unwrap();
        eng.add_window(unit).unwrap();
        let fine = Lattice::new(13, 13, 13, fine_tau(0.9, 2, 0.3));
        let unit = WindowUnit::new(&eng.coarse, fine, [5.0, 5.0, 8.0], 2, 0.3, 2).unwrap();
        assert_eq!(
            eng.add_window(unit).unwrap_err(),
            ScenarioError::WindowOverlap {
                first: 0,
                second: 1
            }
        );
        // Out of bounds is its own error, raised before the coupling map
        // (which would panic) is ever built.
        let fine = Lattice::new(13, 13, 13, fine_tau(0.9, 2, 0.3));
        assert_eq!(
            WindowUnit::new(&eng.coarse, fine, [5.0, 5.0, 44.0], 2, 0.3, 3)
                .err()
                .unwrap(),
            ScenarioError::WindowOutOfBounds { index: 0 }
        );
    }

    #[test]
    fn steps_and_ledger_stay_clean() {
        let mut eng = two_window_engine();
        eng.step_n(12);
        assert_eq!(SimSession::steps(&eng), 12);
        assert!(SimSession::site_updates(&eng) > 0);
        eng.close_ledger();
        assert_eq!(eng.ledger.as_ref().unwrap().samples(), 12);
        assert!(
            eng.ledger.as_ref().unwrap().breaches().is_empty(),
            "aggregated ledger must stay clean: {:?}",
            eng.ledger.as_ref().unwrap().breaches()
        );
    }

    #[test]
    fn suspend_resume_round_trip_is_bit_identical() {
        let mut a = two_window_engine();
        let mut b = two_window_engine();
        a.step_n(5);
        let parked = SimSession::suspend(&a);
        b.resume(&parked).unwrap();
        assert_eq!(SimSession::steps(&b), 5);
        a.step_n(5);
        b.step_n(5);
        assert_eq!(SimSession::suspend(&a), SimSession::suspend(&b));
    }

    #[test]
    fn resume_rejects_window_count_mismatch() {
        let a = two_window_engine();
        let blob = SimSession::suspend(&a);
        let coarse = force_driven_tube(17, 17, 48, 0.9, 7.0, 4e-6);
        let mut one = MultiWindowEngine::new(coarse);
        let fine = Lattice::new(13, 13, 13, fine_tau(0.9, 2, 0.3));
        let unit = WindowUnit::new(&one.coarse, fine, [5.0, 5.0, 4.0], 2, 0.3, 7).unwrap();
        one.add_window(unit).unwrap();
        assert!(one.resume(&blob).is_err());
    }
}

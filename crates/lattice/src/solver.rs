//! The lattice Boltzmann solver: storage, boundaries, and kernel dispatch.
//!
//! Implements paper §2.1: D3Q19 BGK with an external force field (Guo
//! forcing) and halfway bounce-back walls, plus velocity/pressure boundaries
//! via non-equilibrium extrapolation. Distributions are stored
//! array-of-structures (19 contiguous values per node) for the stateful
//! nodes only, in the row-compact [`RowLayout`]; the collide/stream
//! inner loops live in `apr-kernels`, behind the [`KernelBackend`] trait,
//! and [`Lattice`] delegates each (half-)step to a selected backend — the
//! in-place fused [`KernelKind::FusedSwap`] production path or the verbatim
//! two-pass [`KernelKind::Reference`] oracle. Both run on the deterministic
//! `apr-exec` pool and produce bit-identical results for any `APR_THREADS`
//! and either backend.

use crate::d3q19::{equilibrium_all, lattice_viscosity_from_tau, moments, OPPOSITE, Q};
use crate::kernel_select;
use apr_kernels::layout::hull;
use apr_kernels::totals::{accumulate, fold_planes};
use apr_kernels::{
    FusedSwapKernel, KernelBackend, KernelKind, LatticeView, ReferenceKernel, RowLayout, Totals,
};
use std::collections::HashMap;
use std::ops::Range;

pub use apr_kernels::NodeClass;

/// Typed boundary condition of a lattice node — the single source of truth
/// for boundary state, set via [`Lattice::set_boundary`] and read back via
/// [`Lattice::boundary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Boundary {
    /// Stationary solid wall (halfway bounce-back).
    Wall,
    /// Solid wall moving with the given lattice velocity (bounce-back plus
    /// the moving-wall momentum term).
    MovingWall([f64; 3]),
    /// Prescribed-velocity node, rebuilt each step by non-equilibrium
    /// extrapolation.
    Velocity([f64; 3]),
    /// Prescribed-density (pressure) node, rebuilt each step by
    /// non-equilibrium extrapolation.
    Pressure(f64),
    /// Outside the simulated geometry; a stationary wall excluded from
    /// fluid-point accounting.
    Exterior,
}

/// One half of a lattice time step; see [`Lattice::advance`].
///
/// A full step is `advance(Collide)` followed by `advance(Stream)`; the
/// split exists so grid couplings (Dupuis–Chopard refinement) can impose
/// post-collision states between the halves. Only the `Stream` half
/// increments [`Lattice::steps_taken`], and `advance` enforces strict
/// collide/stream alternation so a coupling loop cannot double-count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubStep {
    /// BGK collision with Guo forcing on every fluid node.
    Collide,
    /// Streaming with bounce-back, then boundary-node refresh; completes
    /// the step.
    Stream,
}

/// Boundary data attached to one node. Only data-carrying variants
/// (`MovingWall`/`Velocity`/`Pressure`) get an entry; plain walls and
/// exterior nodes live in the flag array alone.
#[derive(Debug, Clone)]
struct BcEntry {
    node: usize,
    boundary: Boundary,
    /// Interior fluid neighbour used for non-equilibrium extrapolation,
    /// resolved lazily on first use.
    neighbor: Option<usize>,
}

/// The kernel backend a lattice is currently running, plus the geometry it
/// was compiled for (fused kernels precompute their streaming stencil).
#[derive(Debug, Clone)]
enum Backend {
    Reference(ReferenceKernel),
    Fused {
        kernel: Box<FusedSwapKernel>,
        rev: u64,
        periodic: [bool; 3],
    },
}

/// Mass, momentum and fluid-node count, as
/// [`Lattice::mass_momentum_totals`] returns them.
type MassMomentum = (f64, [f64; 3], usize);

/// Where a [`Lattice::request_totals`] stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TotalsRequest {
    /// Nothing requested.
    Idle,
    /// Requested; the populations have not changed since.
    Open,
    /// The totals of the requested state, from the collide that followed
    /// or from the sweep a mutator ran before writing.
    Settled(MassMomentum),
}

/// A D3Q19 lattice Boltzmann fluid domain.
#[derive(Debug, Clone)]
pub struct Lattice {
    /// Grid extent in x.
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Grid extent in z.
    pub nz: usize,
    /// Per-axis periodicity.
    pub periodic: [bool; 3],
    /// BGK relaxation time (global default; see [`Self::set_tau_at`]).
    pub tau: f64,
    /// Uniform body-force density applied to every fluid node.
    pub body_force: [f64; 3],
    /// Per-node relaxation times; allocated lazily on the first
    /// [`Self::set_tau_at`] call. Models space-dependent viscosity (e.g. a
    /// coarse bulk lattice whose window footprint is plasma, not blood).
    tau_field: Option<Vec<f64>>,
    flags: Vec<NodeClass>,
    /// Distributions of the stored nodes, `slot*19 + i` with the slot from
    /// `layout` — in *natural* direction order at step boundaries;
    /// direction-reversed on fluid nodes while [`Self::swap_parity`] is set
    /// (fused kernel, between the halves).
    f: Vec<f64>,
    /// Which nodes have stored distributions. `None` until the first
    /// write, step or restore builds it from the flags: before that every
    /// node reads `rest`, and nothing is allocated.
    layout: Option<RowLayout>,
    /// Set when a reflag may have made an unstored node stateful; the next
    /// step, write or restore widens the layout to hold it (until then it
    /// reads `rest`, the value it holds).
    layout_stale: bool,
    /// The rest equilibrium `f^eq(ρ = 1, u = 0)`: what every unstored node
    /// reads, the value [`Self::new`] gives every node.
    rest: [f64; Q],
    /// Densities per node (updated at collision).
    pub rho: Vec<f64>,
    /// Velocities per node, `node*3 + axis` (updated at collision, includes
    /// the half-force correction).
    pub vel: Vec<f64>,
    /// External force field per node, `node*3 + axis` (IBM spreading target).
    pub force: Vec<f64>,
    /// Data-carrying boundary entries in insertion order (applied in this
    /// deterministic order every step) with an index for O(1) node lookup.
    /// Never iterate `bc_index` — `HashMap` order is nondeterministic.
    bc_nodes: Vec<BcEntry>,
    bc_index: HashMap<usize, usize>,
    /// True between `advance(Collide)` and `advance(Stream)`.
    pending_stream: bool,
    steps_taken: u64,
    /// Requested kernel; `None` defers to the process-wide default.
    kernel_choice: Option<KernelKind>,
    /// The running backend (built lazily, rebuilt on geometry changes).
    backend: Option<Backend>,
    /// True while fluid-node distributions are stored direction-reversed
    /// (fused kernel, mid-step). Accessors translate transparently.
    swap_parity: bool,
    /// Bumped by every table-affecting geometry mutation; fused backends
    /// record the revision they were compiled at.
    geometry_rev: u64,
    /// `(node, wall velocity)` for every moving wall, sorted by node;
    /// rebuilt lazily when `moving_rev` falls behind `geometry_rev`.
    moving_walls: Vec<(usize, [f64; 3])>,
    moving_rev: u64,
    totals: TotalsRequest,
}

impl Lattice {
    /// New all-fluid lattice at rest (ρ = 1, u = 0) with relaxation time
    /// `tau` and no periodic axes. No distributions are allocated yet: the
    /// storage layout is built from the flags at the first write or step,
    /// so geometry flagged before then is never stored.
    ///
    /// # Panics
    /// Panics for empty dimensions or `tau ≤ 0.5`.
    pub fn new(nx: usize, ny: usize, nz: usize, tau: f64) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "empty lattice {nx}x{ny}x{nz}");
        assert!(tau > 0.5, "tau must exceed 1/2, got {tau}");
        let n = nx * ny * nz;
        Self {
            nx,
            ny,
            nz,
            periodic: [false; 3],
            tau,
            body_force: [0.0; 3],
            tau_field: None,
            flags: vec![NodeClass::Fluid; n],
            f: Vec::new(),
            layout: None,
            layout_stale: false,
            rest: equilibrium_all(1.0, 0.0, 0.0, 0.0),
            rho: vec![1.0; n],
            vel: vec![0.0; n * 3],
            force: vec![0.0; n * 3],
            bc_nodes: Vec::new(),
            bc_index: HashMap::new(),
            pending_stream: false,
            steps_taken: 0,
            kernel_choice: None,
            backend: None,
            swap_parity: false,
            geometry_rev: 0,
            moving_walls: Vec::new(),
            moving_rev: 0,
            totals: TotalsRequest::Idle,
        }
    }

    /// Total node count.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Flat index of `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + self.nx * (y + self.ny * z)
    }

    /// Coordinates of flat index `node`.
    #[inline]
    pub fn coords(&self, node: usize) -> (usize, usize, usize) {
        let x = node % self.nx;
        let y = (node / self.nx) % self.ny;
        let z = node / (self.nx * self.ny);
        (x, y, z)
    }

    /// Node classification at `node`.
    #[inline]
    pub fn flag(&self, node: usize) -> NodeClass {
        self.flags[node]
    }

    /// Set a node classification without touching boundary data. Prefer
    /// [`Self::set_boundary`] / [`Self::clear_boundary`], which keep the
    /// flag and any attached boundary value consistent.
    pub fn set_flag(&mut self, node: usize, class: NodeClass) {
        self.settle_if_fluid_set_changes(node, class);
        self.flags[node] = class;
        self.geometry_rev += 1;
        self.note_reflag(node);
    }

    /// Impose a typed boundary condition on `node`, replacing whatever
    /// boundary (if any) the node had before.
    pub fn set_boundary(&mut self, node: usize, boundary: Boundary) {
        let new_class = match boundary {
            Boundary::Wall | Boundary::MovingWall(_) => NodeClass::Wall,
            Boundary::Velocity(_) => NodeClass::Velocity,
            Boundary::Pressure(_) => NodeClass::Pressure,
            Boundary::Exterior => NodeClass::Exterior,
        };
        // Same-class velocity/pressure updates (e.g. a ramped inlet) change
        // only the value applied after streaming, not the streaming stencil
        // — everything else (class changes, moving-wall velocities, which
        // are baked into the fused kernel's coefficients) invalidates the
        // compiled adjacency.
        let value_only = self.flags[node] == new_class
            && matches!(new_class, NodeClass::Velocity | NodeClass::Pressure);
        if !value_only {
            self.geometry_rev += 1;
        }
        self.settle_if_fluid_set_changes(node, new_class);
        self.flags[node] = new_class;
        self.note_reflag(node);
        match boundary {
            Boundary::Wall | Boundary::Exterior => self.remove_bc_entry(node),
            b => match self.bc_index.get(&node) {
                Some(&i) => {
                    let entry = &mut self.bc_nodes[i];
                    // Changing the boundary *kind* may change which
                    // neighbour qualifies; same-kind updates (e.g. a ramped
                    // inlet velocity) keep the cached one.
                    if std::mem::discriminant(&entry.boundary) != std::mem::discriminant(&b) {
                        entry.neighbor = None;
                    }
                    entry.boundary = b;
                }
                None => {
                    self.bc_index.insert(node, self.bc_nodes.len());
                    self.bc_nodes.push(BcEntry {
                        node,
                        boundary: b,
                        neighbor: None,
                    });
                }
            },
        }
    }

    /// Revert `node` to interior fluid, removing any boundary data.
    pub fn clear_boundary(&mut self, node: usize) {
        self.settle_if_fluid_set_changes(node, NodeClass::Fluid);
        self.flags[node] = NodeClass::Fluid;
        self.geometry_rev += 1;
        self.note_reflag(node);
        self.remove_bc_entry(node);
    }

    /// The boundary condition at `node` (`None` for interior fluid).
    pub fn boundary(&self, node: usize) -> Option<Boundary> {
        match self.flags[node] {
            NodeClass::Fluid => None,
            NodeClass::Exterior => Some(Boundary::Exterior),
            NodeClass::Wall => Some(match self.bc_entry(node) {
                Some(e) => e.boundary,
                None => Boundary::Wall,
            }),
            NodeClass::Velocity | NodeClass::Pressure => self.bc_entry(node).map(|e| e.boundary),
        }
    }

    fn bc_entry(&self, node: usize) -> Option<&BcEntry> {
        self.bc_index.get(&node).map(|&i| &self.bc_nodes[i])
    }

    fn remove_bc_entry(&mut self, node: usize) {
        if let Some(i) = self.bc_index.remove(&node) {
            self.bc_nodes.swap_remove(i);
            if i < self.bc_nodes.len() {
                self.bc_index.insert(self.bc_nodes[i].node, i);
            }
        }
    }

    /// Update the target velocity of an existing velocity-boundary node
    /// (keeps the cached extrapolation neighbour; no-op for other nodes).
    pub fn update_velocity_bc(&mut self, node: usize, u: [f64; 3]) {
        if self.flags[node] == NodeClass::Velocity && self.bc_index.contains_key(&node) {
            self.set_boundary(node, Boundary::Velocity(u));
        }
    }

    /// Number of fluid nodes.
    pub fn fluid_node_count(&self) -> usize {
        self.flags
            .iter()
            .filter(|&&c| c == NodeClass::Fluid)
            .count()
    }

    /// Set every node's distributions to equilibrium at `(rho, u)`. Any
    /// state but the rest state is stored for every node, walls included,
    /// so the layout goes dense in one move first.
    pub fn initialize_equilibrium(&mut self, rho: f64, u: [f64; 3]) {
        let feq = equilibrium_all(rho, u[0], u[1], u[2]);
        if !self.is_rest(&feq) {
            self.settle_layout();
            let nx = self.nx;
            self.widen(|_| 0..nx);
        }
        for node in 0..self.node_count() {
            self.set_distributions(node, &feq);
            self.rho[node] = rho;
            self.vel[node * 3..node * 3 + 3].copy_from_slice(&u);
        }
    }

    /// Set one node's distributions to equilibrium at `(rho, u)`.
    pub fn initialize_node_equilibrium(&mut self, node: usize, rho: f64, u: [f64; 3]) {
        let feq = equilibrium_all(rho, u[0], u[1], u[2]);
        self.set_distributions(node, &feq);
        self.rho[node] = rho;
        self.vel[node * 3..node * 3 + 3].copy_from_slice(&u);
    }

    // ------------------------------------------------------------------
    // Row-compact storage (DESIGN.md, "Distribution storage")
    // ------------------------------------------------------------------

    /// Whether `values` are bit for bit the rest state.
    fn is_rest(&self, values: &[f64]) -> bool {
        values
            .iter()
            .zip(&self.rest)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Storage slot of `node`, if stored.
    #[inline]
    fn stored_slot(&self, node: usize) -> Option<usize> {
        self.layout.as_ref()?.slot(node)
    }

    /// The 19 raw values of node `x` of row `r` in slot order (parity
    /// untranslated): its stored populations, or the rest state.
    #[inline]
    fn raw_at(&self, r: usize, x: usize) -> &[f64; Q] {
        match self.layout.as_ref().and_then(|l| l.slot_at(r, x)) {
            Some(s) => self.f[s * Q..s * Q + Q]
                .try_into()
                .expect("slice cut to Q populations"),
            None => &self.rest,
        }
    }

    /// [`Self::raw_at`] by flat node index.
    #[inline]
    fn raw(&self, node: usize) -> &[f64; Q] {
        self.raw_at(node / self.nx, node % self.nx)
    }

    /// Make the layout hold every stateful node: build it from the flags
    /// on first use (allocating the compact array, every slot at rest),
    /// or widen it after reflags.
    fn settle_layout(&mut self) {
        match &self.layout {
            None => {
                let layout = RowLayout::stateful(self.nx, self.ny, self.nz, &self.flags);
                let mut f = Vec::with_capacity(layout.slots() * Q);
                for _ in 0..layout.slots() {
                    f.extend_from_slice(&self.rest);
                }
                self.f = f;
                self.layout = Some(layout);
                self.geometry_rev += 1;
            }
            Some(_) if self.layout_stale => {
                let stateful = RowLayout::stateful(self.nx, self.ny, self.nz, &self.flags);
                self.widen(|r| stateful.xs(r));
            }
            Some(_) => {}
        }
        self.layout_stale = false;
    }

    /// Widen the settled layout so row `r` also covers `extra(r)`, moving
    /// the stored values in place; the new slots read the rest state.
    fn widen(&mut self, extra: impl FnMut(usize) -> Range<usize>) {
        let old = self.layout.take().expect("layout settled before widening");
        let new = old.widened(extra);
        if new != old {
            old.relocate(&new, &mut self.f, &self.rest);
            // The fused kernel compiled slots of the old layout.
            self.geometry_rev += 1;
        }
        self.layout = Some(new);
    }

    /// `node`'s slot for a write of `values`, settling the layout first:
    /// an unstored node is stored, unless `values` is the rest state it
    /// already reads (then `None`: nothing to write, and no layout built —
    /// seeding a window from a bulk at rest writes only rest states).
    fn slot_for_write(&mut self, node: usize, values: &[f64]) -> Option<usize> {
        if self.stored_slot(node).is_none() && self.is_rest(values) {
            return None;
        }
        self.settle_layout();
        if self.stored_slot(node).is_none() {
            let (r, x) = (node / self.nx, node % self.nx);
            self.widen(|row| if row == r { x..x + 1 } else { 0..0 });
        }
        self.stored_slot(node)
    }

    /// After `node`'s class changed: a stateful node the layout does not
    /// hold yet is stored at the next step, write or restore.
    fn note_reflag(&mut self, node: usize) {
        if self.flags[node].is_stateful() && self.layout.is_some() {
            self.layout_stale |= self.stored_slot(node).is_none();
        }
    }

    /// Index into `f` of logical direction `i` of `node`, stored at slot
    /// `s`: identity except on fluid nodes while the fused kernel holds
    /// them direction-reversed mid-step (non-fluid nodes are never
    /// reversed — they do not collide).
    #[inline]
    fn index(&self, node: usize, s: usize, i: usize) -> usize {
        if self.swap_parity && self.flags[node] == NodeClass::Fluid {
            s * Q + OPPOSITE[i]
        } else {
            s * Q + i
        }
    }

    /// Raw distribution `f_i` at `node`.
    #[inline]
    pub fn distribution(&self, node: usize, i: usize) -> f64 {
        match self.stored_slot(node) {
            Some(s) => self.f[self.index(node, s, i)],
            None => self.rest[i],
        }
    }

    /// Overwrite one distribution `f_i` at `node` (storage parity is
    /// handled internally). The partial-plane halo exchange uses this to
    /// refresh only the populations that actually cross a slab face.
    #[inline]
    pub fn set_distribution(&mut self, node: usize, i: usize, value: f64) {
        self.settle_before_writing(node);
        // The rest state is symmetric (w_i = w_opp(i)), so `rest[i]` is
        // what an unstored node reads in either parity.
        let mut values = self.rest;
        values[i] = value;
        if let Some(s) = self.slot_for_write(node, &values) {
            let k = self.index(node, s, i);
            self.f[k] = value;
        }
    }

    /// All 19 distributions at `node`, in direction order.
    ///
    /// # Panics
    /// Panics when called on a fluid node between the halves of a fused
    /// step (a borrowed slice cannot express the reversed storage); use
    /// [`Self::distribution`] there instead.
    #[inline]
    pub fn distributions(&self, node: usize) -> &[f64] {
        assert!(
            !(self.swap_parity && self.flags[node] == NodeClass::Fluid),
            "fluid distributions are direction-reversed mid-step under the \
             fused kernel; read them via distribution(node, i)"
        );
        self.raw(node)
    }

    /// Overwrite all 19 distributions at `node` (`values` in direction
    /// order; storage parity is handled internally).
    pub fn set_distributions(&mut self, node: usize, values: &[f64; Q]) {
        self.settle_before_writing(node);
        let Some(s) = self.slot_for_write(node, values) else {
            return;
        };
        if self.swap_parity && self.flags[node] == NodeClass::Fluid {
            for i in 0..Q {
                self.f[s * Q + OPPOSITE[i]] = values[i];
            }
        } else {
            self.f[s * Q..s * Q + Q].copy_from_slice(values);
        }
    }

    /// Density and momentum of `stored`, `node`'s raw values, through the
    /// one moment kernel ([`moments`]). Reversed fluid storage is
    /// gathered into direction order first: summing the raw reversed slots
    /// and negating the momentum reassociates both sums, and the accessors
    /// promise the same bits in either parity. The gather is the cold
    /// path — outside a split step every node is in direction order.
    #[inline]
    fn moments_of(&self, node: usize, stored: &[f64; Q]) -> (f64, [f64; 3]) {
        if self.swap_parity && self.flags[node] == NodeClass::Fluid {
            moments(&std::array::from_fn(|i| stored[OPPOSITE[i]]))
        } else {
            moments(stored)
        }
    }

    /// [`Self::moments_of`] the current distributions at `node`.
    #[inline]
    fn node_moments(&self, node: usize) -> (f64, [f64; 3]) {
        self.moments_of(node, self.raw(node))
    }

    /// Density and velocity computed directly from the current
    /// distributions at `node` (no force correction).
    pub fn moments_at(&self, node: usize) -> (f64, [f64; 3]) {
        let (rho, m) = self.node_moments(node);
        (rho, [m[0] / rho, m[1] / rho, m[2] / rho])
    }

    /// Stored (collision-time) velocity at `node`.
    #[inline]
    pub fn velocity_at(&self, node: usize) -> [f64; 3] {
        [
            self.vel[node * 3],
            self.vel[node * 3 + 1],
            self.vel[node * 3 + 2],
        ]
    }

    /// Zero the external force field (call after each IBM cycle).
    pub fn clear_forces(&mut self) {
        self.force.fill(0.0);
    }

    /// Add `g` to the external force at `node`.
    #[inline]
    pub fn add_force(&mut self, node: usize, g: [f64; 3]) {
        self.force[node * 3] += g[0];
        self.force[node * 3 + 1] += g[1];
        self.force[node * 3 + 2] += g[2];
    }

    /// Total mass and momentum (`Σ_i f_i c_i`) over all fluid nodes, plus
    /// the fluid-node count: the explicit sweep behind the conservation
    /// ledger when no collide has computed the totals (see
    /// [`Self::request_totals`]). Each node's `(ρ, m)` comes from the one
    /// moment kernel ([`moments`], parity-aware, so momentum keeps its
    /// sign even when sampled between the halves of a fused step). Nodes
    /// are added in node order into one partial per z-plane, and the
    /// partials are folded in plane order ([`apr_kernels::totals`]): the
    /// order every kernel's collide sums in. The totals are therefore
    /// bit-identical across thread counts, storage parities and backends,
    /// and equal to what a collide of this state returns; they equal a
    /// flat `Σ_node Σ_i` only to rounding, so compare them against
    /// tolerances, as the ledger does.
    pub fn mass_momentum_totals(&self) -> MassMomentum {
        let (nx, ny) = (self.nx, self.ny);
        let mut partials = vec![[0.0; 4]; self.nz];
        apr_exec::current().par_for_chunks_mut(&mut partials, 1, |z, partial| {
            let mut acc = [0.0; 4];
            for r in z * ny..(z + 1) * ny {
                for x in 0..nx {
                    let node = x + nx * r;
                    if self.flags[node] == NodeClass::Fluid {
                        let (rho, m) = self.moments_of(node, self.raw_at(r, x));
                        accumulate(&mut acc, rho, m);
                    }
                }
            }
            partial[0] = acc;
        });
        self.with_count(fold_planes(&partials))
    }

    fn with_count(&self, [mass, mx, my, mz]: Totals) -> MassMomentum {
        (mass, [mx, my, mz], self.fluid_node_count())
    }

    /// Ask for the totals of the state as it is now, to be collected with
    /// [`Self::take_totals`]. The next collide computes them from the
    /// moments it reads anyway, so a per-step ledger costs no sweep of its
    /// own. Any populations write before that collide
    /// ([`Self::set_distribution`], [`Self::set_distributions`],
    /// [`Self::restore_storage`], the `initialize_*` calls, and a flag
    /// change that adds or removes a fluid node) first settles the request
    /// with one sweep of the unwritten state. Between the halves of a step
    /// the state is about to be streamed, so the request is settled at
    /// once.
    pub fn request_totals(&mut self) {
        self.totals = TotalsRequest::Open;
        if self.pending_stream {
            self.settle_totals();
        }
    }

    /// The totals of the state [`Self::request_totals`] was called on,
    /// bit-identical to [`Self::mass_momentum_totals`] of that state: what
    /// the next collide computed, or a sweep now when none has run. With
    /// no request open it sweeps the current state.
    pub fn take_totals(&mut self) -> MassMomentum {
        match std::mem::replace(&mut self.totals, TotalsRequest::Idle) {
            TotalsRequest::Settled(t) => t,
            TotalsRequest::Open | TotalsRequest::Idle => self.mass_momentum_totals(),
        }
    }

    /// Settle an open request with a sweep of the current state.
    fn settle_totals(&mut self) {
        if self.totals == TotalsRequest::Open {
            self.totals = TotalsRequest::Settled(self.mass_momentum_totals());
        }
    }

    /// Settle before writing `node`'s populations, when they count.
    fn settle_before_writing(&mut self, node: usize) {
        if self.flags[node] == NodeClass::Fluid {
            self.settle_totals();
        }
    }

    /// Settle before reflagging `node` as `class`, when that adds or
    /// removes a fluid node.
    fn settle_if_fluid_set_changes(&mut self, node: usize, class: NodeClass) {
        if (self.flags[node] == NodeClass::Fluid) != (class == NodeClass::Fluid) {
            self.settle_totals();
        }
    }

    /// Keep a collide's totals when they answer an open request.
    fn collided(&mut self, totals: Totals) {
        if self.totals == TotalsRequest::Open {
            self.totals = TotalsRequest::Settled(self.with_count(totals));
        }
    }

    /// Steps taken since construction.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Overwrite the step counter (checkpoint restore only).
    pub fn set_steps_taken(&mut self, steps: u64) {
        self.steps_taken = steps;
    }

    /// The per-node relaxation-time field, if one has been installed.
    pub fn tau_field(&self) -> Option<&[f64]> {
        self.tau_field.as_deref()
    }

    /// Install or clear the per-node τ field wholesale (checkpoint
    /// restore). A provided field must cover every node.
    pub fn set_tau_field(&mut self, field: Option<Vec<f64>>) {
        if let Some(f) = &field {
            assert_eq!(
                f.len(),
                self.node_count(),
                "tau field must cover every node"
            );
        }
        self.tau_field = field;
    }

    /// Lattice kinematic viscosity implied by `tau`.
    pub fn lattice_viscosity(&self) -> f64 {
        lattice_viscosity_from_tau(self.tau)
    }

    /// Relaxation time at `node` (per-node value if set, else the global).
    #[inline]
    pub fn tau_at(&self, node: usize) -> f64 {
        match &self.tau_field {
            Some(f) => f[node],
            None => self.tau,
        }
    }

    /// Set the relaxation time of a single node (allocates the per-node
    /// field on first use).
    pub fn set_tau_at(&mut self, node: usize, tau: f64) {
        assert!(tau > 0.5, "tau must exceed 1/2, got {tau}");
        let field = self
            .tau_field
            .get_or_insert_with(|| vec![self.tau; self.nx * self.ny * self.nz]);
        field[node] = tau;
    }

    /// Neighbour flat index of `node` displaced by `c_i`, respecting
    /// periodicity; `None` if it leaves a non-periodic domain.
    #[inline]
    pub fn link_neighbor(&self, node: usize, i: usize) -> Option<usize> {
        let (x, y, z) = self.coords(node);
        apr_kernels::neighbor_index([self.nx, self.ny, self.nz], self.periodic, x, y, z, i)
    }

    // ------------------------------------------------------------------
    // Kernel selection and dispatch
    // ------------------------------------------------------------------

    /// Select the kernel backend: `Some(kind)` forces a variant, `None`
    /// defers to [`kernel_select::default_kernel`]. Takes effect on the
    /// next (half-)step.
    ///
    /// # Panics
    /// Panics mid-step (between collide and stream): the halves of one step
    /// must run on one backend.
    pub fn set_kernel(&mut self, choice: Option<KernelKind>) {
        assert!(
            !self.pending_stream,
            "cannot switch kernels between collide and stream"
        );
        if self.kernel_choice != choice {
            self.kernel_choice = choice;
            self.backend = None;
        }
    }

    /// The kernel variant this lattice resolves to right now.
    pub fn kernel(&self) -> KernelKind {
        match self.kernel_choice {
            Some(k) => k,
            None => kernel_select::default_kernel(),
        }
    }

    /// True between `advance(Collide)` and `advance(Stream)`.
    #[inline]
    pub fn mid_step(&self) -> bool {
        self.pending_stream
    }

    /// True while fluid-node distributions are stored direction-reversed
    /// (fused kernel, mid-step). Plain accessors translate automatically;
    /// only raw-storage consumers (checkpointing) need to care.
    #[inline]
    pub fn swap_parity(&self) -> bool {
        self.swap_parity
    }

    /// The compact distribution storage, parity untranslated: the stored
    /// nodes' 19 values each, in slot (= node) order, with nothing for the
    /// nodes the layout leaves out. Empty before the first write, step or
    /// restore. Checkpoints use [`Self::storage_image`] instead.
    pub fn storage_f(&self) -> &[f64] {
        &self.f
    }

    /// Number of nodes with stored distributions (0 before the first
    /// write, step or restore).
    pub fn stored_node_count(&self) -> usize {
        self.layout.as_ref().map_or(0, RowLayout::slots)
    }

    /// The storage layout, once the first write, step or restore has
    /// built it.
    pub fn storage_layout(&self) -> Option<&RowLayout> {
        self.layout.as_ref()
    }

    /// The dense checkpoint image of the distributions: every node's 19
    /// raw values in node order, parity untranslated, unstored nodes as
    /// the rest state they read — handed to `sink` in consecutive runs, so
    /// no dense array is ever built. Paired with [`Self::restore_storage`].
    pub fn storage_image(&self, mut sink: impl FnMut(&[f64])) {
        let rest_row = self.rest.repeat(self.nx);
        for r in 0..self.ny * self.nz {
            let xs = self.layout.as_ref().map_or(0..0, |l| l.xs(r));
            if xs.is_empty() {
                sink(&rest_row);
                continue;
            }
            let s = self
                .layout
                .as_ref()
                .expect("rows with slots have a layout")
                .row_slots(r);
            sink(&rest_row[..xs.start * Q]);
            sink(&self.f[s.start * Q..s.end * Q]);
            sink(&rest_row[xs.end * Q..]);
        }
    }

    /// Restore raw distribution storage from a dense image as
    /// [`Self::storage_image`] writes it, plus the step-phase flags saved
    /// from [`Self::mid_step`] / [`Self::swap_parity`].
    /// `image(nodes, out)` fills `out` with the image's values of the
    /// consecutive `nodes` (`19 · nodes.len()` of them). Stored nodes are
    /// read straight into their slots; an unstored node whose image is not
    /// the rest state is stored first (all such rows widen in one pass),
    /// so the restore is lossless and no dense array is ever built.
    ///
    /// Fails (leaving the lattice untouched) if the saved phase is
    /// inconsistent with this lattice's kernel: a mid-step blob stores
    /// post-collision state in the writing backend's storage order, so it
    /// can only resume on a backend with the same order.
    pub fn restore_storage(
        &mut self,
        mut image: impl FnMut(Range<usize>, &mut [f64]),
        pending_stream: bool,
        swap_parity: bool,
    ) -> Result<(), String> {
        if !pending_stream && swap_parity {
            return Err("swap parity outside a pending stream is impossible".into());
        }
        if pending_stream {
            let reversed = self.kernel().reversed_storage();
            if swap_parity != reversed {
                return Err(format!(
                    "mid-step checkpoint stored with {} storage cannot resume on the {} kernel",
                    if swap_parity { "reversed" } else { "natural" },
                    self.kernel()
                ));
            }
        }
        self.settle_totals();
        self.settle_layout();
        let nx = self.nx;
        let rows = self.ny * self.nz;
        // Pass 1: the unstored nodes the image gives a non-rest value.
        let mut extra = vec![0..0; rows];
        let mut buf = vec![0.0; nx * Q];
        let layout = self.layout.as_ref().expect("layout settled above");
        for (r, extra) in extra.iter_mut().enumerate() {
            let xs = layout.xs(r);
            for run in [0..xs.start, xs.end..nx] {
                let out = &mut buf[..run.len() * Q];
                if out.is_empty() {
                    continue;
                }
                image(r * nx + run.start..r * nx + run.end, out);
                for (k, values) in out.chunks_exact(Q).enumerate() {
                    if !self.is_rest(values) {
                        let x = run.start + k;
                        *extra = hull(extra.clone(), x..x + 1);
                    }
                }
            }
        }
        self.widen(|r| extra[r].clone());
        // Pass 2: every stored node straight into its slot.
        let layout = self.layout.as_ref().expect("layout settled above");
        for r in 0..rows {
            let xs = layout.xs(r);
            if !xs.is_empty() {
                let s = layout.row_slots(r);
                image(
                    r * nx + xs.start..r * nx + xs.end,
                    &mut self.f[s.start * Q..s.end * Q],
                );
            }
        }
        self.pending_stream = pending_stream;
        self.swap_parity = swap_parity;
        Ok(())
    }

    /// Bytes of distribution storage (the compact array and its layout)
    /// plus the active backend's auxiliary memory (reference: a second
    /// compact array once streamed; fused: the op rows of the `Slow`
    /// nodes, the deferred-swap lists and the chunk plan). The §3.6-style
    /// memory accounting hook for the kernel engine; 0 before the first
    /// write or step.
    pub fn distribution_memory_bytes(&self) -> usize {
        self.f.len() * std::mem::size_of::<f64>()
            + self.layout.as_ref().map_or(0, RowLayout::bytes)
            + self.kernel_scratch_bytes()
    }

    /// Auxiliary heap bytes held by the active kernel backend.
    pub fn kernel_scratch_bytes(&self) -> usize {
        match &self.backend {
            None => 0,
            Some(Backend::Reference(k)) => k.scratch_bytes(),
            Some(Backend::Fused { kernel, .. }) => kernel.scratch_bytes(),
        }
    }

    /// Rebuild the sorted moving-wall cache if boundaries changed.
    fn refresh_moving_walls(&mut self) {
        if self.moving_rev == self.geometry_rev && self.geometry_rev != 0 {
            return;
        }
        self.moving_walls.clear();
        for e in &self.bc_nodes {
            if let Boundary::MovingWall(u) = e.boundary {
                if self.flags[e.node] == NodeClass::Wall {
                    self.moving_walls.push((e.node, u));
                }
            }
        }
        self.moving_walls.sort_unstable_by_key(|e| e.0);
        self.moving_rev = self.geometry_rev;
    }

    /// The kernel-facing view of this lattice's storage.
    fn view(&mut self) -> LatticeView<'_> {
        LatticeView {
            nx: self.nx,
            ny: self.ny,
            nz: self.nz,
            periodic: self.periodic,
            tau: self.tau,
            body_force: self.body_force,
            tau_field: self.tau_field.as_deref(),
            flags: &self.flags,
            layout: self
                .layout
                .as_ref()
                .expect("layout settled before a kernel runs"),
            f: &mut self.f,
            rho: &mut self.rho,
            vel: &mut self.vel,
            force: &self.force,
            moving_walls: &self.moving_walls,
        }
    }

    /// Make `self.backend` match the resolved kernel kind and current
    /// geometry, (re)compiling the fused stencil when stale.
    fn ensure_backend(&mut self) {
        self.settle_layout();
        self.refresh_moving_walls();
        let kind = self.kernel();
        let up_to_date = match (&self.backend, kind) {
            (Some(Backend::Reference(_)), KernelKind::Reference) => true,
            (Some(Backend::Fused { rev, periodic, .. }), KernelKind::FusedSwap) => {
                *rev == self.geometry_rev && *periodic == self.periodic
            }
            _ => false,
        };
        if up_to_date {
            return;
        }
        let rebuilt = self.backend.is_some();
        self.backend = Some(match kind {
            KernelKind::Reference => Backend::Reference(ReferenceKernel::new()),
            KernelKind::FusedSwap => {
                let rev = self.geometry_rev;
                let periodic = self.periodic;
                let kernel = Box::new(FusedSwapKernel::build(&self.view()));
                Backend::Fused {
                    kernel,
                    rev,
                    periodic,
                }
            }
        });
        if apr_telemetry::is_enabled() {
            apr_telemetry::set_attribute("lattice.kernel", kind.as_str());
            if rebuilt {
                apr_telemetry::counter_add("lattice.kernel.rebuilds", 1);
            }
        }
    }

    /// Run `op` against the active backend and a fresh view.
    fn with_backend<R>(
        &mut self,
        op: impl FnOnce(&mut dyn KernelBackend, &mut LatticeView) -> R,
    ) -> R {
        self.ensure_backend();
        let mut backend = self.backend.take().expect("backend ensured");
        let out = {
            let mut view = self.view();
            match &mut backend {
                Backend::Reference(k) => op(k, &mut view),
                Backend::Fused { kernel, .. } => op(kernel.as_mut(), &mut view),
            }
        };
        self.backend = Some(backend);
        out
    }

    /// Advance one time step: collide (fluid), stream (fluid, with halfway
    /// bounce-back off walls), then refresh boundary-condition nodes.
    ///
    /// Under the fused kernel a whole step runs as a single parallel
    /// region; callers that need to interpose between the halves use
    /// [`Self::advance`], which stays available on every backend.
    pub fn step(&mut self) {
        self.ensure_backend();
        let fused = matches!(self.backend, Some(Backend::Fused { .. }));
        if fused && !self.pending_stream {
            let _span = apr_telemetry::span("lattice.step.fused");
            let totals = self.with_backend(|k, view| k.step(view));
            self.collided(totals);
            self.apply_bc_nodes();
            self.steps_taken += 1;
        } else {
            self.advance(SubStep::Collide);
            self.advance(SubStep::Stream);
        }
    }

    /// Execute one half of a time step (see [`SubStep`]).
    ///
    /// # Panics
    /// Panics when the halves are called out of order — two collides
    /// without a stream, or a stream without a preceding collide — which
    /// would silently corrupt the step count and the physics.
    pub fn advance(&mut self, sub: SubStep) {
        match sub {
            SubStep::Collide => {
                assert!(
                    !self.pending_stream,
                    "advance(Collide) called twice without an intervening Stream"
                );
                let _span = apr_telemetry::span("lattice.collide");
                let totals = self.with_backend(|k, view| k.collide(view));
                self.collided(totals);
                self.swap_parity = match &self.backend {
                    Some(Backend::Fused { kernel, .. }) => kernel.reversed_between_halves(),
                    _ => false,
                };
                self.pending_stream = true;
            }
            SubStep::Stream => {
                assert!(
                    self.pending_stream,
                    "advance(Stream) called without a preceding Collide"
                );
                let _span = apr_telemetry::span("lattice.stream");
                self.with_backend(|k, view| k.stream(view));
                self.swap_parity = false;
                self.apply_bc_nodes();
                self.steps_taken += 1;
                self.pending_stream = false;
            }
        }
    }

    /// Rebuild velocity/pressure boundary nodes by non-equilibrium
    /// extrapolation (Guo et al. 2002): `f = f^eq(ρ_b, u_b) + f^neq(nb)`.
    /// Entries are applied in insertion order; each writes only its own
    /// node and reads only interior fluid neighbours, so the order never
    /// affects the numbers.
    fn apply_bc_nodes(&mut self) {
        let mut entries = std::mem::take(&mut self.bc_nodes);
        for entry in &mut entries {
            match entry.boundary {
                Boundary::Velocity(u) if self.flags[entry.node] == NodeClass::Velocity => {
                    if entry.neighbor.is_none() {
                        entry.neighbor = self.resolve_interior_neighbor(entry.node);
                    }
                    let new_f = match entry.neighbor {
                        Some(nb) => {
                            let (rho_nb, u_nb) = self.moments_at(nb);
                            let feq_nb = equilibrium_all(rho_nb, u_nb[0], u_nb[1], u_nb[2]);
                            let feq_b = equilibrium_all(rho_nb, u[0], u[1], u[2]);
                            let f_nb = self.raw(nb);
                            let mut out = [0.0; Q];
                            for i in 0..Q {
                                out[i] = feq_b[i] + (f_nb[i] - feq_nb[i]);
                            }
                            out
                        }
                        None => equilibrium_all(1.0, u[0], u[1], u[2]),
                    };
                    self.set_distributions(entry.node, &new_f);
                    self.rho[entry.node] = new_f.iter().sum();
                    self.vel[entry.node * 3..entry.node * 3 + 3].copy_from_slice(&u);
                }
                Boundary::Pressure(rho_b) if self.flags[entry.node] == NodeClass::Pressure => {
                    if entry.neighbor.is_none() {
                        entry.neighbor = self.resolve_interior_neighbor(entry.node);
                    }
                    let new_f = match entry.neighbor {
                        Some(nb) => {
                            let (rho_nb, u_nb) = self.moments_at(nb);
                            let feq_nb = equilibrium_all(rho_nb, u_nb[0], u_nb[1], u_nb[2]);
                            let feq_b = equilibrium_all(rho_b, u_nb[0], u_nb[1], u_nb[2]);
                            let f_nb = self.raw(nb);
                            let mut out = [0.0; Q];
                            for i in 0..Q {
                                out[i] = feq_b[i] + (f_nb[i] - feq_nb[i]);
                            }
                            self.vel[entry.node * 3..entry.node * 3 + 3].copy_from_slice(&u_nb);
                            out
                        }
                        None => equilibrium_all(rho_b, 0.0, 0.0, 0.0),
                    };
                    self.set_distributions(entry.node, &new_f);
                    self.rho[entry.node] = rho_b;
                }
                // Moving walls act during streaming; entries whose flag was
                // redirected via set_flag are inert.
                _ => {}
            }
        }
        self.bc_nodes = entries;
    }

    /// First interior fluid neighbour of `node` in lattice-direction order.
    fn resolve_interior_neighbor(&self, node: usize) -> Option<usize> {
        (1..Q).find_map(|i| {
            self.link_neighbor(node, i)
                .filter(|&nb| self.flags[nb] == NodeClass::Fluid)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits((mass, momentum, nodes): MassMomentum) -> (u64, [u64; 3], usize) {
        (mass.to_bits(), momentum.map(f64::to_bits), nodes)
    }

    /// A forced periodic box with a wall plane, stepped off equilibrium.
    fn driven_box() -> Lattice {
        let mut lat = Lattice::new(6, 5, 4, 0.8);
        lat.periodic = [true, true, true];
        lat.body_force = [1e-5, 0.0, 2e-6];
        for node in 0..lat.nx * lat.ny {
            lat.set_boundary(node, Boundary::Wall);
        }
        for _ in 0..3 {
            lat.step();
        }
        lat
    }

    /// A 6×5×4 box with a wall column at x = 0 and x = 5 of every row.
    fn walled_rows() -> Lattice {
        let mut lat = Lattice::new(6, 5, 4, 0.9);
        lat.periodic = [false, true, true];
        lat.body_force = [0.0, 1e-5, 0.0];
        for node in 0..lat.node_count() {
            if matches!(lat.coords(node).0, 0 | 5) {
                lat.set_boundary(node, Boundary::Wall);
            }
        }
        lat
    }

    /// The dense image as bits.
    fn image(lat: &Lattice) -> Vec<u64> {
        let mut bits = Vec::new();
        lat.storage_image(|run| bits.extend(run.iter().map(|v| v.to_bits())));
        bits
    }

    fn rest() -> [f64; Q] {
        equilibrium_all(1.0, 0.0, 0.0, 0.0)
    }

    #[test]
    fn nothing_is_stored_before_the_first_write_or_step() {
        let mut lat = walled_rows();
        assert_eq!(lat.distribution_memory_bytes(), 0);
        assert_eq!(lat.distributions(7), &rest());
        // Writing the rest state is no write at all.
        lat.initialize_node_equilibrium(7, 1.0, [0.0; 3]);
        assert_eq!(lat.distribution_memory_bytes(), 0);
        lat.step();
        assert_eq!(lat.stored_node_count(), 4 * 5 * 4, "fluid columns only");
        assert!(lat.distribution_memory_bytes() > 0);
    }

    #[test]
    fn an_unstored_wall_reads_the_rest_state() {
        let mut lat = walled_rows();
        for _ in 0..3 {
            lat.step();
        }
        let wall = lat.idx(0, 2, 1);
        assert_eq!(lat.stored_slot(wall), None);
        assert_eq!(lat.distributions(wall), &rest());
        assert_eq!(lat.distribution(wall, 7).to_bits(), rest()[7].to_bits());
        // Writing the rest state stores nothing.
        lat.set_distributions(wall, &rest());
        assert_eq!(lat.stored_slot(wall), None);
    }

    #[test]
    fn a_non_rest_write_grows_the_row_and_round_trips() {
        let mut lat = walled_rows();
        lat.step();
        let before = lat.stored_node_count();
        let wall = lat.idx(5, 3, 2);
        let mut values = rest();
        values[4] = 0.125;
        lat.set_distributions(wall, &values);
        assert_eq!(lat.stored_node_count(), before + 1);
        assert_eq!(lat.distributions(wall), &values);
        lat.set_distribution(lat.idx(0, 0, 0), 3, -1.0);
        assert_eq!(lat.distribution(lat.idx(0, 0, 0), 3), -1.0);
        assert_eq!(lat.stored_node_count(), before + 2);
        // The grown rows still step bit-identically on both kernels.
        let mut reference = lat.clone();
        reference.set_kernel(Some(KernelKind::Reference));
        lat.set_kernel(Some(KernelKind::FusedSwap));
        for _ in 0..3 {
            lat.step();
            reference.step();
        }
        assert_eq!(image(&lat), image(&reference));
        assert_eq!(lat.distributions(wall), &values);
    }

    #[test]
    fn a_wall_made_fluid_is_stored_and_steps() {
        let mut lat = walled_rows();
        lat.step();
        let opened = lat.idx(5, 1, 3);
        lat.clear_boundary(opened);
        assert_eq!(lat.distributions(opened), &rest());
        let mut reference = lat.clone();
        reference.set_kernel(Some(KernelKind::Reference));
        lat.set_kernel(Some(KernelKind::FusedSwap));
        for _ in 0..4 {
            lat.step();
            reference.step();
        }
        assert!(lat.stored_slot(opened).is_some());
        assert_ne!(lat.distributions(opened), &rest());
        assert_eq!(image(&lat), image(&reference));
    }

    #[test]
    fn a_fluid_node_made_wall_keeps_its_value() {
        let mut lat = walled_rows();
        for _ in 0..3 {
            lat.step();
        }
        let closed = lat.idx(2, 2, 2);
        let held = lat.distributions(closed).to_vec();
        assert_ne!(held, rest());
        lat.set_boundary(closed, Boundary::Wall);
        lat.step();
        assert_eq!(lat.distributions(closed), &held[..]);
    }

    #[test]
    fn restoring_an_image_with_a_non_rest_wall_is_lossless() {
        let mut src = walled_rows();
        for _ in 0..2 {
            src.step();
        }
        let wall = src.idx(0, 4, 3);
        let mut values = rest();
        values[0] = 0.5;
        src.set_distributions(wall, &values);
        let bits = image(&src);
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let mut dst = walled_rows();
        dst.restore_storage(
            |nodes, out| out.copy_from_slice(&values[nodes.start * Q..nodes.end * Q]),
            false,
            false,
        )
        .unwrap();
        assert_eq!(image(&dst), bits);
        assert_eq!(dst.stored_node_count(), src.stored_node_count());
    }

    #[test]
    fn a_write_after_the_request_settles_it_with_the_unwritten_state() {
        let mut lat = driven_box();
        let before = lat.mass_momentum_totals();
        lat.request_totals();
        let node = lat.idx(2, 2, 2);
        let halved: [f64; Q] = std::array::from_fn(|i| 0.5 * lat.distribution(node, i));
        lat.set_distributions(node, &halved);
        let written = lat.mass_momentum_totals();
        assert_ne!(bits(written), bits(before));
        lat.step();
        assert_eq!(bits(lat.take_totals()), bits(before));
    }

    #[test]
    fn a_write_to_a_wall_node_leaves_the_request_to_the_collide() {
        let mut lat = driven_box();
        let before = lat.mass_momentum_totals();
        lat.request_totals();
        lat.set_distributions(0, &[0.0; Q]);
        assert_eq!(lat.totals, TotalsRequest::Open);
        lat.step();
        assert_eq!(bits(lat.take_totals()), bits(before));
    }

    #[test]
    fn a_request_between_the_halves_is_settled_before_the_stream() {
        let mut lat = driven_box();
        lat.advance(SubStep::Collide);
        let mid = lat.mass_momentum_totals();
        lat.request_totals();
        lat.advance(SubStep::Stream);
        lat.step();
        assert_eq!(bits(lat.take_totals()), bits(mid));
    }

    #[test]
    fn take_without_a_request_sweeps_the_current_state() {
        let mut lat = driven_box();
        lat.request_totals();
        lat.step();
        lat.take_totals();
        lat.step();
        assert_eq!(bits(lat.take_totals()), bits(lat.mass_momentum_totals()));
    }
}

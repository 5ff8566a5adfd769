//! The fused swap-streaming kernel: collide + stream in one parallel
//! region, in place, with no second distribution array.
//!
//! ## How it works
//!
//! **Collision (phase A)** runs the exact reference BGK arithmetic
//! ([`crate::reference::bgk_post_collision`]) but stores each node's
//! post-collision populations *direction-reversed*: slot `(n, i)` receives
//! `f*_opp(i)(n)`. That single indexing trick makes halfway bounce-back a
//! no-op (the bounced value is already in place) and turns fluid–fluid
//! streaming into a pure exchange of two slots — see the op taxonomy in
//! [`crate::adjacency`].
//!
//! **Streaming (phase B)** runs each node's ops: nine constant-offset
//! swaps for a `Fast` node, the node's op row for a `Slow` one. Every op
//! touches a slot set no other op touches, so ops can run in any order on
//! any lane and the result is bit-identical to the reference backend for
//! every thread count — the values moved are the very doubles the reference
//! kernel would have copied.
//!
//! **Fusion with guided chunking.** In [`KernelBackend::step`] both phases
//! run inside a *single* pool dispatch. The node space is cut into
//! fine-grained chunks costed by **fluid-node count** per z-plane
//! ([`crate::adjacency::AdjacencyTable::fluid_per_plane`] through
//! [`apr_exec::ChunkPlan::from_costs`]), and lanes claim chunks from the
//! shared cursor of an [`apr_exec::GuidedScheduler`] in fixed ascending
//! order. Within a chunk each node collides and then executes its ops
//! immediately; a swap whose partner lies outside the already-collided
//! part of the chunk goes into a **per-chunk** deferral list, as one word
//! that carries the node's storage slot, its partner's and the direction —
//! so executing it later needs no table lookup.
//!
//! **Storage.** Distributions live in the row-compact layout of
//! [`crate::layout`]: a sweep walks each plane's rows over their stored
//! x-range only, so walls and exterior outside the stored ranges cost
//! neither memory nor time. A `Fast` node's nine partners sit at slot
//! offsets that are constant along its row
//! ([`AdjacencyTable::fast_offsets`], computed once per row); op rows
//! carry partner slots. A plane-aligned chunk is one contiguous slot
//! range, so "partner already collided in this chunk" is a slot
//! comparison.
//!
//! Lanes that run out of chunks don't park at the barrier: they claim
//! completed chunks from a drain cursor and execute every deferred swap
//! whose partner chunk has also completed, overlapping the drain with the
//! tail of the sweep. Whatever remains (partners still in flight, chunks
//! claimed before completion) is finished sequentially after the barrier.
//!
//! **Determinism argument** (DESIGN.md §11): the chunk layout is a pure
//! function of the plan inputs; every op owns a pairwise-disjoint slot
//! set; a deferred swap is a pure exchange of two already-final doubles,
//! executed after both endpoints' collisions (enforced by the Release
//! `mark_done` / Acquire `is_done` pair) and exactly once (inline, xor
//! removed from its list by the one drain lane holding that chunk, xor in
//! the post-barrier sweep). The claim interleaving is therefore
//! unobservable in the output — bit-identical for any thread count and any
//! scheduling accident.
//!
//! **Totals.** Each chunk sweeps its z-planes in order and writes one
//! `(ρ, m)` partial per plane from the pre-collision moments the collision
//! computes anyway; the planes fold in plane order ([`crate::totals`]).
//! Chunks are plane-aligned, so the totals a step returns equal an
//! explicit sweep of the state it started from, bit for bit.
//!
//! Versus the reference backend this halves distribution-array memory
//! traffic (no second array to write and swap), eliminates the `n·19·8`-byte
//! scratch allocation entirely (the op table holds rows for `Slow` nodes
//! only), and pays one pool barrier per step instead of two.
//!
//! The split [`KernelBackend::collide`]/[`KernelBackend::stream`] halves
//! remain available for grid couplings that impose post-collision states
//! between them; between the halves the distributions sit in reversed
//! order, which the solver tracks as its *swap parity* and transparently
//! untangles in its accessors.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::adjacency::{
    AdjacencyTable, NodeKind, FWD, PAYLOAD_MASK, TAG_BOUNCE, TAG_DONE, TAG_LOAD, TAG_MOVING,
    TAG_SHIFT, TAG_SWAP,
};
use crate::d3q19::{OPPOSITE, Q};
use crate::layout::RowLayout;
use crate::reference::{array, bgk_post_collision, tau_at};
use crate::totals::{accumulate, fold_planes, Totals};
use crate::view::LatticeView;
use crate::{KernelBackend, KernelKind};
use apr_exec::{ChunkPlan, GuidedScheduler, UnsafeSlice};

/// Deferred-swap encoding: `(slot << 34) | (partner slot << 5) | direction`
/// — 29-bit storage slots (the adjacency payload range), 19 < 2⁵
/// directions.
const DIR_BITS: u32 = 5;
const SLOT_BITS: u32 = TAG_SHIFT;
const DIR_MASK: u64 = (1 << DIR_BITS) - 1;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Pack the deferred swap `(s, i) ↔ (t, opp(i))` of slots `s` and `t`
/// into one word.
#[inline]
fn defer_word(s: usize, t: usize, i: usize) -> u64 {
    ((s as u64) << (SLOT_BITS + DIR_BITS)) | ((t as u64) << DIR_BITS) | i as u64
}

/// Unpack a [`defer_word`] into `(s, i, t)`.
#[inline]
fn undefer(e: u64) -> (usize, usize, usize) {
    let s = (e >> (SLOT_BITS + DIR_BITS)) as usize;
    let t = ((e >> DIR_BITS) & SLOT_MASK) as usize;
    (s, (e & DIR_MASK) as usize, t)
}

/// Chunks handed out per pool lane: fine enough that a lane drawing cheap
/// chunks keeps pulling work, coarse enough that claim traffic stays
/// negligible next to a chunk's node sweep.
const CHUNKS_PER_LANE: usize = 8;

/// Fewest z-planes a chunk covers on average: the plan never has more
/// than `nz / MIN_CHUNK_PLANES` chunks. Every chunk edge defers the swaps
/// of a plane's worth of nodes; on a small lattice, chunks one plane high
/// would make those lists outweigh the op table itself.
const MIN_CHUNK_PLANES: usize = 4;

/// Swap slots `(s, i)` and `(t, opp(i))` through a shared raw view.
///
/// # Safety
/// The two slots must not be concurrently accessed by any other op — which
/// the adjacency construction guarantees (each op owns its slot set).
#[inline]
unsafe fn swap_slots(f: &UnsafeSlice<f64>, s: usize, i: usize, t: usize) {
    let a = &mut f.slice_mut(s * Q + i, 1)[0];
    let b = &mut f.slice_mut(t * Q + OPPOSITE[i], 1)[0];
    std::mem::swap(a, b);
}

/// Shared raw-view context for one fused pass: everything a per-chunk
/// closure needs to collide nodes, replay ops and write its planes'
/// totals partials.
struct FusedCtx<'v> {
    table: &'v AdjacencyTable,
    layout: &'v RowLayout,
    f: UnsafeSlice<'v, f64>,
    rho: UnsafeSlice<'v, f64>,
    vel: UnsafeSlice<'v, f64>,
    force: &'v [f64],
    tau_field: Option<&'v [f64]>,
    global_tau: f64,
    bf: [f64; 3],
    nx: usize,
    ny: usize,
    /// One totals partial per z-plane.
    partials: UnsafeSlice<'v, Totals>,
}

impl<'v> FusedCtx<'v> {
    fn new(
        view: &'v mut LatticeView<'_>,
        table: &'v AdjacencyTable,
        partials: &'v mut [Totals],
    ) -> Self {
        Self {
            table,
            layout: view.layout,
            nx: view.nx,
            ny: view.ny,
            f: UnsafeSlice::new(view.f.as_mut_slice()),
            rho: UnsafeSlice::new(&mut view.rho[..]),
            vel: UnsafeSlice::new(&mut view.vel[..]),
            force: view.force,
            tau_field: view.tau_field,
            global_tau: view.tau,
            bf: view.body_force,
            partials: UnsafeSlice::new(partials),
        }
    }

    /// Run `per_plane` over the rows of each z-plane of the plane-aligned
    /// node `range` in order, storing what it returns as the plane's
    /// totals partial.
    fn for_planes(&self, range: Range<usize>, mut per_plane: impl FnMut(Range<usize>) -> Totals) {
        let plane = self.nx * self.ny;
        debug_assert!(range.start.is_multiple_of(plane) && range.end.is_multiple_of(plane));
        for z in range.start / plane..range.end / plane {
            let acc = per_plane(z * self.ny..(z + 1) * self.ny);
            // SAFETY: chunks are disjoint and plane-aligned, so plane `z`
            // belongs to this chunk alone.
            unsafe { self.partials.slice_mut(z, 1)[0] = acc };
        }
    }
}

/// Collide one fluid node (stored at `slot`) with the reference BGK
/// arithmetic, store the post-collision populations direction-reversed,
/// and add its pre-collision `(ρ, m)` to `acc`. Returns the density.
///
/// # Safety
/// The caller must be the sole accessor of `node`'s f/rho/vel storage.
#[inline]
unsafe fn collide_node_reversed(ctx: &FusedCtx, node: usize, slot: usize, acc: &mut Totals) -> f64 {
    let fs = ctx.f.slice_mut(slot * Q, Q);
    let rho = &mut ctx.rho.slice_mut(node, 1)[0];
    let vel = ctx.vel.slice_mut(node * 3, 3);
    let g = &ctx.force[node * 3..node * 3 + 3];
    let tau = tau_at(ctx.tau_field, ctx.global_tau, node);
    let c = bgk_post_collision(array(fs), array(g), ctx.bf, tau);
    accumulate(acc, c.rho, c.momentum);
    *rho = c.rho;
    vel.copy_from_slice(&c.vel);
    for i in 0..Q {
        fs[OPPOSITE[i]] = c.post[i];
    }
    c.rho
}

/// A cost-balanced chunk plan, and the first storage slot of each chunk.
#[derive(Debug, Clone)]
struct Plan {
    /// The target chunk count it was built for.
    target: usize,
    chunks: ChunkPlan,
    /// `slot_bounds[c]` is chunk `c`'s first slot; the last entry is the
    /// slot count. Plane-aligned node chunks are contiguous slot ranges.
    slot_bounds: Vec<usize>,
}

impl Plan {
    /// The chunk holding storage slot `s`.
    #[inline]
    fn chunk_of_slot(&self, s: usize) -> usize {
        self.slot_bounds.partition_point(|&b| b <= s) - 1
    }
}

/// The cost-balanced chunk plan for this geometry at `threads` lanes,
/// rebuilt only when the target chunk count changes (the geometry is fixed
/// for the kernel's lifetime). Chunks are z-plane-aligned and weighted by
/// fluid-node count, so a plane of walls never occupies a lane as long as
/// a plane of fluid.
fn costed_plan<'a>(
    table: &AdjacencyTable,
    view: &LatticeView,
    cache: &'a mut Option<Plan>,
    threads: usize,
) -> &'a Plan {
    let target = (threads.max(1) * CHUNKS_PER_LANE).min((view.nz / MIN_CHUNK_PLANES).max(1));
    if cache.as_ref().map(|p| p.target) != Some(target) {
        let plane = view.nx * view.ny;
        let costs: Vec<u64> = table.fluid_per_plane.iter().map(|&c| c as u64).collect();
        let chunks = ChunkPlan::from_costs(plane, &costs, target);
        let slot_bounds = (0..=chunks.chunks())
            .map(|c| {
                let start = if c < chunks.chunks() {
                    chunks.range(c).start
                } else {
                    chunks.len()
                };
                view.layout.plane_start(start / plane.max(1))
            })
            .collect();
        *cache = Some(Plan {
            target,
            chunks,
            slot_bounds,
        });
    }
    cache.as_ref().expect("plan cached above")
}

/// Scalar fused sweep of one chunk, plane by plane and row by row: collide
/// each node, then execute its ops — inline when the partner has already
/// collided *in this chunk's sweep*, deferred into `pending` otherwise.
fn scalar_fused_chunk(ctx: &FusedCtx, range: Range<usize>, pending: &mut Vec<u64>) {
    let (table, layout) = (ctx.table, ctx.layout);
    // The chunk's first slot: slots below it belong to earlier chunks.
    let lo = layout.plane_start(range.start / (ctx.nx * ctx.ny));
    let mut row = table.first_row(range.start);
    ctx.for_planes(range, |rows| {
        let mut acc = [0.0; 4];
        for r in rows {
            let xs = layout.xs(r);
            if xs.is_empty() {
                continue;
            }
            let origin = layout.origin(r);
            let fast = table.fast_offsets(layout, r);
            for x in xs {
                let node = r * ctx.nx + x;
                let kind = table.kind[node];
                if kind == NodeKind::Skip {
                    continue;
                }
                let slot = origin.wrapping_add(x);
                // Phase A. SAFETY: node-local storage, one owner per node
                // (chunks are disjoint and claimed exactly once).
                let rho = unsafe { collide_node_reversed(ctx, node, slot, &mut acc) };
                // Phase B, inline where the partner has already collided
                // in this chunk's sweep; deferred past the chunk otherwise.
                // SAFETY (all swap/load/moving arms): each op owns its slot
                // set, and no op of node `p` executes before `p`'s own
                // collision except via the drain (which gates on the
                // partner chunk's completion).
                match kind {
                    NodeKind::Fast => {
                        for (&off, &i) in fast.iter().zip(&FWD) {
                            let m = slot.wrapping_sub(off);
                            if m >= lo {
                                unsafe { swap_slots(&ctx.f, slot, i, m) };
                            } else {
                                pending.push(defer_word(slot, m, i));
                            }
                        }
                    }
                    NodeKind::Slow => {
                        let ops = table.row(row);
                        row += 1;
                        for (i, &op) in (1..Q).zip(ops) {
                            let payload = (op & PAYLOAD_MASK) as usize;
                            match op >> TAG_SHIFT {
                                TAG_DONE | TAG_BOUNCE => {}
                                TAG_SWAP => {
                                    if payload >= lo && payload < slot {
                                        unsafe { swap_slots(&ctx.f, slot, i, payload) };
                                    } else {
                                        pending.push(defer_word(slot, payload, i));
                                    }
                                }
                                // LOAD sources are boundary nodes: exempt
                                // from collision, so their populations are
                                // final.
                                TAG_LOAD => unsafe {
                                    ctx.f.slice_mut(slot * Q + i, 1)[0] =
                                        ctx.f.slice_mut(payload * Q + i, 1)[0];
                                },
                                TAG_MOVING => unsafe {
                                    // Same association order as the
                                    // reference: (6 w_i * rho) * (c.u_w).
                                    let [six_w, cu] = table.moving_coeff[payload];
                                    ctx.f.slice_mut(slot * Q + i, 1)[0] += six_w * rho * cu;
                                },
                                tag => unreachable!("corrupt op tag {tag}"),
                            }
                        }
                    }
                    NodeKind::Skip => unreachable!(),
                }
            }
        }
        acc
    });
}

/// The fused-step driver: claim chunks from a [`GuidedScheduler`]'s
/// shared cursor, run [`scalar_fused_chunk`] once per chunk, overlap the
/// deferred-swap drain with the sweep tail, and finish leftovers
/// sequentially after the barrier. Cross-chunk swaps sit in the chunk's
/// deferral list as [`defer_word`]s.
fn run_fused_step(ctx: &FusedCtx, defer: &mut Vec<Vec<u64>>, plan: &Plan) {
    if plan.chunks.is_empty() {
        return;
    }
    let pool = apr_exec::current();
    let chunks = plan.chunks.chunks();
    if defer.len() < chunks {
        defer.resize_with(chunks, Vec::new);
    }
    for d in defer.iter_mut() {
        d.clear();
    }
    let sched = GuidedScheduler::guided(&plan.chunks);
    let pending = UnsafeSlice::new(defer.as_mut_slice());
    let overlapped = AtomicUsize::new(0);
    pool.run(&|_| {
        while let Some((c, range)) = sched.claim() {
            // SAFETY: every chunk is claimed exactly once, so its
            // deferral list has one owner here.
            let list = unsafe { &mut pending.slice_mut(c, 1)[0] };
            scalar_fused_chunk(ctx, range, list);
            sched.mark_done(c);
        }
        // Drain overlap: instead of idling at the barrier, execute
        // deferred swaps of completed chunks whose partner chunk has also
        // completed. Never waits (a claimed-but-unfinished chunk is simply
        // left for the post-barrier pass), so this cannot deadlock even
        // when the pool runs lanes inline.
        let mut ran = 0usize;
        while let Some(c) = sched.claim_drain() {
            if !sched.is_done(c) {
                continue;
            }
            // SAFETY: the drain cursor hands each chunk to one lane, and
            // `is_done` (Acquire) ordered the owner's pushes before us.
            let list = unsafe { &mut pending.slice_mut(c, 1)[0] };
            list.retain(|&e| {
                let (s, i, t) = undefer(e);
                if sched.is_done(plan.chunk_of_slot(t)) {
                    // SAFETY: both endpoints collided; the op owns its
                    // slot pair.
                    unsafe { swap_slots(&ctx.f, s, i, t) };
                    ran += 1;
                    false
                } else {
                    true
                }
            });
        }
        if ran > 0 {
            overlapped.fetch_add(ran, Ordering::Relaxed);
        }
    });
    // Post-barrier: every chunk is done; whatever the overlap drain left
    // behind executes here, in chunk order. Order is irrelevant to the
    // values (disjoint slot sets) but deterministic anyway.
    let mut leftover = 0usize;
    for list in defer[..chunks].iter() {
        leftover += list.len();
        for &e in list {
            let (s, i, t) = undefer(e);
            // SAFETY: sequential, and each op owns its slot set.
            unsafe { swap_slots(&ctx.f, s, i, t) };
        }
    }
    if apr_telemetry::is_enabled() {
        let overlapped = overlapped.load(Ordering::Relaxed);
        apr_telemetry::gauge_set("lattice.step.chunks", chunks as f64);
        apr_telemetry::gauge_set(
            "lattice.step.deferred_swaps",
            (overlapped + leftover) as f64,
        );
        apr_telemetry::gauge_set("lattice.step.drain_leftover", leftover as f64);
    }
}

/// Replay every op of the plane-aligned node `range` inline — valid only
/// when *all* nodes have already collided (the split-half stream).
fn replay_range(
    table: &AdjacencyTable,
    layout: &RowLayout,
    f: &UnsafeSlice<f64>,
    rho: &[f64],
    nx: usize,
    range: Range<usize>,
) {
    let mut row = table.first_row(range.start);
    for r in range.start / nx..range.end / nx {
        let origin = layout.origin(r);
        let fast = table.fast_offsets(layout, r);
        for x in layout.xs(r) {
            let node = r * nx + x;
            let slot = origin.wrapping_add(x);
            match table.kind[node] {
                NodeKind::Skip => {}
                NodeKind::Fast => {
                    for (&off, &i) in fast.iter().zip(&FWD) {
                        // SAFETY: this op is the sole owner of both slots.
                        unsafe { swap_slots(f, slot, i, slot.wrapping_sub(off)) };
                    }
                }
                NodeKind::Slow => {
                    let ops = table.row(row);
                    row += 1;
                    for (i, &op) in (1..Q).zip(ops) {
                        let payload = (op & PAYLOAD_MASK) as usize;
                        // SAFETY (all arms): each op owns its slot set.
                        match op >> TAG_SHIFT {
                            TAG_DONE | TAG_BOUNCE => {}
                            TAG_SWAP => unsafe { swap_slots(f, slot, i, payload) },
                            TAG_LOAD => unsafe {
                                f.slice_mut(slot * Q + i, 1)[0] =
                                    f.slice_mut(payload * Q + i, 1)[0];
                            },
                            TAG_MOVING => unsafe {
                                // Same association order as the reference:
                                // (6 w_i * rho) * (c.u_w).
                                let [six_w, cu] = table.moving_coeff[payload];
                                f.slice_mut(slot * Q + i, 1)[0] += six_w * rho[node] * cu;
                            },
                            tag => unreachable!("corrupt op tag {tag}"),
                        }
                    }
                }
            }
        }
    }
}

/// In-place fused collide+stream backend over a precomputed
/// [`AdjacencyTable`].
#[derive(Debug, Clone)]
pub struct FusedSwapKernel {
    table: AdjacencyTable,
    /// Per-chunk deferred swaps, reused across steps.
    defer: Vec<Vec<u64>>,
    /// Cached cost-balanced plan, keyed by target chunk count.
    plan: Option<Plan>,
}

impl FusedSwapKernel {
    /// Compile the streaming stencil for the view's current geometry and
    /// storage layout. The solver rebuilds the kernel whenever flags,
    /// boundaries, periodicity or the layout change (tracked by its
    /// geometry revision).
    pub fn build(view: &LatticeView) -> Self {
        Self {
            table: AdjacencyTable::build(
                view.nx,
                view.ny,
                view.nz,
                view.periodic,
                view.flags,
                view.moving_walls,
                view.layout,
            ),
            defer: Vec::new(),
            plan: None,
        }
    }

    /// The compiled adjacency table.
    pub fn table(&self) -> &AdjacencyTable {
        &self.table
    }
}

impl KernelBackend for FusedSwapKernel {
    fn kind(&self) -> KernelKind {
        KernelKind::FusedSwap
    }

    /// Collision half over the whole domain with reversed stores, over
    /// the guided cost-balanced plan.
    fn collide(&mut self, view: &mut LatticeView) -> Totals {
        let Self { table, plan, .. } = self;
        let pool = apr_exec::current();
        let plan = costed_plan(table, view, plan, pool.threads());
        let mut partials = vec![[0.0; 4]; view.nz];
        let ctx = FusedCtx::new(view, table, &mut partials);
        pool.par_for_guided(&plan.chunks, |_, range| {
            ctx.for_planes(range, |rows| {
                let mut acc = [0.0; 4];
                for r in rows {
                    let origin = ctx.layout.origin(r);
                    for x in ctx.layout.xs(r) {
                        let node = r * ctx.nx + x;
                        if ctx.table.kind[node] == NodeKind::Skip {
                            continue;
                        }
                        // SAFETY: chunk ranges are disjoint; node storage
                        // is touched by exactly one lane.
                        unsafe {
                            collide_node_reversed(&ctx, node, origin.wrapping_add(x), &mut acc)
                        };
                    }
                }
                acc
            });
        });
        fold_planes(&partials)
    }

    /// Streaming half for reversed-stored populations: run every node's ops
    /// over the whole domain (every node has collided, so all ops run
    /// inline), over the guided cost-balanced plan. The values are
    /// slot-local and order-free.
    fn stream(&mut self, view: &mut LatticeView) {
        let Self { table, plan, .. } = self;
        let pool = apr_exec::current();
        let plan = costed_plan(table, view, plan, pool.threads());
        let (rho, layout, nx): (&[f64], _, _) = (view.rho, view.layout, view.nx);
        let f = UnsafeSlice::new(view.f.as_mut_slice());
        pool.par_for_guided(&plan.chunks, |_, range| {
            replay_range(table, layout, &f, rho, nx, range)
        });
    }

    /// Fused full step: one pool dispatch for both phases, with the
    /// deferred-swap drain overlapped into the sweep tail.
    fn step(&mut self, view: &mut LatticeView) -> Totals {
        let Self { table, defer, plan } = self;
        let threads = apr_exec::current().threads();
        let plan = costed_plan(table, view, plan, threads);
        let mut partials = vec![[0.0; 4]; view.nz];
        let ctx = FusedCtx::new(view, table, &mut partials);
        run_fused_step(&ctx, defer, plan);
        fold_planes(&partials)
    }

    fn reversed_between_halves(&self) -> bool {
        true
    }

    /// Table + deferral + plan footprint — the fused path's entire
    /// auxiliary memory, replacing the reference backend's full-size
    /// scratch array.
    fn scratch_bytes(&self) -> usize {
        self.table.bytes()
            + self
                .defer
                .iter()
                .map(|d| d.capacity() * std::mem::size_of::<u64>())
                .sum::<usize>()
            + self
                .plan
                .as_ref()
                .map(|p| {
                    (p.chunks.chunks() + 1 + p.slot_bounds.capacity())
                        * std::mem::size_of::<usize>()
                })
                .unwrap_or(0)
    }
}

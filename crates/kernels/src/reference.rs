//! The reference two-pass kernel: the solver's original collide and
//! pull-stream loops, kept verbatim so every other backend can be
//! equivalence-tested against it bit-for-bit. The per-node collision
//! arithmetic is [`bgk_post_collision`], which the fused kernel shares; its
//! own oracle is `tests/collision_equivalence.rs`.
//!
//! Two deliberate fixes ride along without changing any produced value:
//! the moving-wall lookup is skipped wholesale when the lattice has no
//! moving walls (it used to probe a `HashMap` for every wall link), and the
//! streaming chunk grain follows [`stream_grain`] instead of a hard-coded
//! one z-slab per chunk (the chunk layout never affects the numbers — every
//! write is slot-local).

use crate::adjacency::neighbor_coords;
use crate::d3q19::{equilibrium_all, guo_force_all, moments, C, OPPOSITE, Q, W};
use crate::totals::{accumulate, fold_planes, Totals};
use crate::view::{stream_grain, LatticeView, NodeClass};
use crate::{KernelBackend, KernelKind};
use apr_exec::UnsafeSlice;

/// One node's collision: the pre-collision density and momentum, the
/// (half-force corrected) velocity and the 19 post-collision populations.
pub(crate) struct Collided {
    pub rho: f64,
    pub momentum: [f64; 3],
    pub vel: [f64; 3],
    pub post: [f64; Q],
}

/// BGK collision with Guo forcing at one node. Composed from the three
/// direction-unrolled [`crate::d3q19`] primitives, which fix every bit of
/// the result (DESIGN.md §11); both backends route through it so
/// "bit-identical" holds by construction. The momentum is the one the
/// velocity is computed from, handed back for the totals.
#[inline]
pub(crate) fn bgk_post_collision(fs: &[f64; Q], g: &[f64; 3], bf: [f64; 3], tau: f64) -> Collided {
    let omega = 1.0 / tau;
    let force_scale = 1.0 - 0.5 * omega;
    let (r, m) = moments(fs);
    let gx = g[0] + bf[0];
    let gy = g[1] + bf[1];
    let gz = g[2] + bf[2];
    let ux = (m[0] + 0.5 * gx) / r;
    let uy = (m[1] + 0.5 * gy) / r;
    let uz = (m[2] + 0.5 * gz) / r;
    let feq = equilibrium_all(r, ux, uy, uz);
    let forcing = guo_force_all(ux, uy, uz, gx, gy, gz);
    let mut post = [0.0; Q];
    for i in 0..Q {
        post[i] = fs[i] + (omega * (feq[i] - fs[i]) + force_scale * forcing[i]);
    }
    Collided {
        rho: r,
        momentum: m,
        vel: [ux, uy, uz],
        post,
    }
}

/// A slice the caller cut to `N` values — one node's populations or force
/// — as the fixed-size array the unrolled primitives take.
#[inline]
pub(crate) fn array<const N: usize>(s: &[f64]) -> &[f64; N] {
    s.try_into().expect("slice cut to the array's length")
}

/// Relaxation time at `node` under an optional per-node τ field.
#[inline]
pub(crate) fn tau_at(tau_field: Option<&[f64]>, global_tau: f64, node: usize) -> f64 {
    match tau_field {
        Some(f) => f[node],
        None => global_tau,
    }
}

/// The original two-array collide → pull-stream pair behind the
/// [`KernelBackend`] interface. Owns the second distribution array as
/// private scratch (sized lazily on first stream, in the same row-compact
/// layout as `f`), so the solver itself no longer carries `f_tmp`.
#[derive(Debug, Clone, Default)]
pub struct ReferenceKernel {
    scratch: Vec<f64>,
}

impl ReferenceKernel {
    /// New kernel with no scratch allocated yet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl KernelBackend for ReferenceKernel {
    fn kind(&self) -> KernelKind {
        KernelKind::Reference
    }

    /// BGK collision with Guo forcing on every fluid node; updates stored
    /// `rho` and `vel`. One z-plane of nodes per chunk, swept row by row
    /// over the stored x-ranges; every write is node-local, so the result
    /// is independent of the thread count. The chunk's pre-collision
    /// `(ρ, m)` sum is its plane's totals partial.
    fn collide(&mut self, view: &mut LatticeView) -> Totals {
        let global_tau = view.tau;
        let bf = view.body_force;
        let flags = view.flags;
        let tau_field = view.tau_field;
        let force = view.force;
        let layout = view.layout;
        let (nx, ny, n) = (view.nx, view.ny, view.node_count());
        let f = UnsafeSlice::new(view.f.as_mut_slice());
        let rho = UnsafeSlice::new(&mut view.rho[..]);
        let vel = UnsafeSlice::new(&mut view.vel[..]);
        let mut planes = vec![[0.0; 4]; view.nz];
        let partials = UnsafeSlice::new(&mut planes);
        let pool = apr_exec::current();
        pool.par_for_ranges(n, nx * ny, |z, _| {
            let mut acc = [0.0; 4];
            for r in z * ny..(z + 1) * ny {
                let origin = layout.origin(r);
                for x in layout.xs(r) {
                    let node = x + nx * r;
                    if flags[node] != NodeClass::Fluid {
                        continue;
                    }
                    // SAFETY: chunk ranges are disjoint, so each node (and
                    // its f/rho/vel storage) is touched by exactly one lane.
                    let fs = unsafe { f.slice_mut(origin.wrapping_add(x) * Q, Q) };
                    let rho = unsafe { &mut rho.slice_mut(node, 1)[0] };
                    let vel = unsafe { vel.slice_mut(node * 3, 3) };
                    let g = &force[node * 3..node * 3 + 3];
                    let tau = tau_at(tau_field, global_tau, node);
                    let c = bgk_post_collision(array(fs), array(g), bf, tau);
                    accumulate(&mut acc, c.rho, c.momentum);
                    *rho = c.rho;
                    vel.copy_from_slice(&c.vel);
                    fs.copy_from_slice(&c.post);
                }
            }
            // SAFETY: chunk `z` is plane `z`, visited by one lane.
            unsafe { partials.slice_mut(z, 1)[0] = acc };
        });
        fold_planes(&planes)
    }

    /// Pull-streaming with halfway bounce-back (optionally moving walls).
    /// Parallel over z-slabs of the scratch array, which has the same
    /// row-compact layout as `f`; each slab is written by one lane while
    /// `f` is read-only, so the result is thread-count independent.
    fn stream(&mut self, view: &mut LatticeView) {
        let (nx, ny, nz) = (view.nx, view.ny, view.nz);
        let f: &[f64] = view.f;
        let flags = view.flags;
        let layout = view.layout;
        let has_moving_walls = !view.moving_walls.is_empty();
        let moving_walls = view.moving_walls;
        let moving_wall = |src: usize| -> Option<[f64; 3]> {
            moving_walls
                .binary_search_by_key(&src, |e| e.0)
                .ok()
                .map(|j| moving_walls[j].1)
        };
        let rho: &[f64] = view.rho;
        let periodic = view.periodic;
        self.scratch.resize(f.len(), 0.0);
        let f_tmp = UnsafeSlice::new(&mut self.scratch);
        let pool = apr_exec::current();
        let grain = stream_grain(nz, pool.threads());
        pool.par_for_ranges(nz, grain, |_, zrange| {
            let first = layout.plane_start(zrange.start);
            let end = layout.plane_start(zrange.end);
            // SAFETY: z-slabs are disjoint and each z is visited once; a
            // slab's stored nodes are one contiguous slot range.
            let slab = unsafe { f_tmp.slice_mut(first * Q, (end - first) * Q) };
            for z in zrange {
                for y in 0..ny {
                    let r = y + ny * z;
                    let origin = layout.origin(r);
                    for x in layout.xs(r) {
                        let node = x + nx * r;
                        let slot = origin.wrapping_add(x);
                        let local = (slot - first) * Q;
                        match flags[node] {
                            NodeClass::Fluid => {
                                for i in 0..Q {
                                    // Pull from the node the population left.
                                    let o = OPPOSITE[i];
                                    let pulled =
                                        match neighbor_coords([nx, ny, nz], periodic, [x, y, z], o)
                                        {
                                            Some([sx, sy, sz]) => {
                                                let src_row = sy + ny * sz;
                                                let src = sx + nx * src_row;
                                                if flags[src].is_stateful() {
                                                    let s = layout.origin(src_row).wrapping_add(sx);
                                                    f[s * Q + i]
                                                } else {
                                                    // Wall / exterior: halfway
                                                    // bounce-back, with moving-wall
                                                    // momentum term.
                                                    let mut v = f[slot * Q + o];
                                                    if has_moving_walls {
                                                        if let Some(uw) = moving_wall(src) {
                                                            let cu = C[i][0] as f64 * uw[0]
                                                                + C[i][1] as f64 * uw[1]
                                                                + C[i][2] as f64 * uw[2];
                                                            v += 6.0 * W[i] * rho[node] * cu;
                                                        }
                                                    }
                                                    v
                                                }
                                            }
                                            None => f[slot * Q + o],
                                        };
                                    slab[local + i] = pulled;
                                }
                            }
                            _ => {
                                // Stored non-fluid nodes carry their
                                // distributions forward; BC nodes are
                                // rebuilt right after.
                                slab[local..local + Q].copy_from_slice(&f[slot * Q..slot * Q + Q]);
                            }
                        }
                    }
                }
            }
        });
        if apr_telemetry::is_enabled() {
            apr_telemetry::gauge_set("lattice.stream.grain", grain as f64);
        }
        std::mem::swap(view.f, &mut self.scratch);
    }

    fn reversed_between_halves(&self) -> bool {
        false
    }

    fn scratch_bytes(&self) -> usize {
        self.scratch.len() * std::mem::size_of::<f64>()
    }
}

//! Velocity interpolation and force spreading (paper §2.3, Eq. 4–6).
//!
//! Positions are expressed in the lattice's own coordinate system where the
//! node `(x, y, z)` sits at position `(x, y, z)`; callers embedding a window
//! lattice in a global frame translate positions before calling.

use crate::delta::DeltaKernel;
use apr_exec::UnsafeSlice;
use apr_lattice::{Lattice, NodeClass};
use apr_mesh::Vec3;
use std::ops::Range;

/// Lagrangian points per exec chunk for the pure (gather) transfers. Any
/// fixed value keeps results thread-count independent; 32 points amortize
/// dispatch while still splitting a single cell's vertices across lanes.
const POINT_CHUNK: usize = 32;

/// z-planes per owner slab of the force spread. A constant — never derived
/// from the lane count — and at least [`MAX_STENCIL`], so few points are
/// listed in more than one slab.
const SLAB_PLANES: usize = 8;

/// Lattice coordinates visited per axis: the widest
/// [`DeltaKernel::stencil_width`] + 1 points cover the support `[p − s, p + s]`
/// for any offset of `p`. Points past a narrower kernel's width sit outside
/// its support, where `φ` is exactly 0.
const MAX_STENCIL: usize = 5;

/// Non-zero weights kept per axis: at most 4 of the [`MAX_STENCIL`] points
/// lie inside any kernel's support. `Cosine4`'s fifth always sits at
/// |r| ≥ 2, where `φ` is exactly 0.
const MAX_WEIGHTS: usize = 4;

#[inline]
fn wrap(v: i64, n: usize, periodic: bool) -> Option<usize> {
    let n = n as i64;
    if v >= 0 && v < n {
        Some(v as usize)
    } else if periodic {
        Some(((v % n + n) % n) as usize)
    } else {
        None
    }
}

/// One axis of a point's tensor-product stencil: the in-range lattice
/// coordinates carrying a non-zero weight, in stencil order.
#[derive(Clone, Copy, Default)]
struct AxisWeights {
    len: u32,
    coord: [u32; MAX_WEIGHTS],
    weight: [f64; MAX_WEIGHTS],
}

impl AxisWeights {
    /// Evaluate `φ` once per stencil point of one axis of extent `n`.
    #[inline]
    fn new(kernel: DeltaKernel, p: f64, n: usize, periodic: bool) -> Self {
        let mut axis = Self::default();
        // Leftmost lattice coordinate inside the support [p − s, p + s].
        let base = (p - kernel.support()).ceil() as i64;
        for d in 0..MAX_STENCIL {
            let g = base + d as i64;
            let Some(c) = wrap(g, n, periodic) else {
                continue;
            };
            let w = kernel.phi(p - g as f64);
            // A finite `p` never fills the last slot before its loop ends;
            // a NaN one (every weight NaN) keeps its first four.
            if w != 0.0 && (axis.len as usize) < MAX_WEIGHTS {
                axis.coord[axis.len as usize] = c as u32;
                axis.weight[axis.len as usize] = w;
                axis.len += 1;
            }
        }
        axis
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let len = self.len as usize;
        self.coord[..len]
            .iter()
            .map(|&c| c as usize)
            .zip(self.weight[..len].iter().copied())
    }
}

/// The separable stencil of one Lagrangian point: 15 `φ` evaluations
/// instead of one per node of the 5³ box.
#[derive(Clone, Copy, Default)]
struct PointStencil {
    x: AxisWeights,
    y: AxisWeights,
    z: AxisWeights,
}

impl PointStencil {
    #[inline]
    fn new(lattice: &Lattice, p: Vec3, kernel: DeltaKernel) -> Self {
        Self {
            x: AxisWeights::new(kernel, p.x, lattice.nx, lattice.periodic[0]),
            y: AxisWeights::new(kernel, p.y, lattice.ny, lattice.periodic[1]),
            z: AxisWeights::new(kernel, p.z, lattice.nz, lattice.periodic[2]),
        }
    }

    /// Visit every stencil node on the z-planes `planes` with its weight
    /// `(wz·wy)·wx`, z outermost. The product order and the zero-weight
    /// skips are those of evaluating `φ` inside the triple loop, so both
    /// transfers round exactly as that loop did.
    #[inline]
    fn for_each_node(
        &self,
        lattice: &Lattice,
        planes: &Range<usize>,
        mut visit: impl FnMut(usize, f64),
    ) {
        for (z, wz) in self.z.iter().filter(|(z, _)| planes.contains(z)) {
            for (y, wy) in self.y.iter() {
                let wyz = wz * wy;
                if wyz == 0.0 {
                    continue;
                }
                let row = lattice.nx * (y + lattice.ny * z);
                for (x, wx) in self.x.iter() {
                    let w = wyz * wx;
                    if w == 0.0 {
                        continue;
                    }
                    visit(row + x, w);
                }
            }
        }
    }

    /// `Σ_x v(x)·δ(x − X)` over this stencil (Eq. 4).
    #[inline]
    fn interpolate(&self, lattice: &Lattice) -> Vec3 {
        let mut v = Vec3::ZERO;
        self.for_each_node(lattice, &(0..lattice.nz), |node, w| {
            let u = lattice.velocity_at(node);
            v += Vec3::new(u[0], u[1], u[2]) * w;
        });
        v
    }
}

/// The stencils of a list of Lagrangian points on one lattice, built once
/// and shared by every transfer at those positions. One FSI sub-step
/// spreads forces from, and interpolates velocities to, the same unmoved
/// vertices, so one set serves both and halves the `φ` evaluations.
///
/// A set holds ≈ 170 bytes a point; it describes the positions it was
/// built from, so drop it once the points move.
pub struct StencilSet {
    points: Vec<PointStencil>,
    /// `(nx, ny, nz, periodic)` of the lattice the set was built on.
    shape: (usize, usize, usize, [bool; 3]),
}

impl StencilSet {
    /// The stencils of `positions` (lattice coordinates) on `lattice`,
    /// evaluated in parallel over fixed chunks of points.
    pub fn new(lattice: &Lattice, positions: &[Vec3], kernel: DeltaKernel) -> Self {
        let mut points = vec![PointStencil::default(); positions.len()];
        apr_exec::current().par_for_chunks_mut(&mut points, POINT_CHUNK, |chunk, part| {
            let first = chunk * POINT_CHUNK;
            for (k, st) in part.iter_mut().enumerate() {
                *st = PointStencil::new(lattice, positions[first + k], kernel);
            }
        });
        Self {
            points,
            shape: Self::shape_of(lattice),
        }
    }

    fn shape_of(lattice: &Lattice) -> (usize, usize, usize, [bool; 3]) {
        (lattice.nx, lattice.ny, lattice.nz, lattice.periodic)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the set holds no point.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Interpolate the velocity at point `i` (Eq. 4). `lattice` must have
    /// the shape of the one the set was built on; its velocities may have
    /// changed since.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn interpolate(&self, lattice: &Lattice, i: usize) -> Vec3 {
        debug_assert_eq!(self.shape, Self::shape_of(lattice), "lattice shape");
        self.points[i].interpolate(lattice)
    }

    /// Spread `forces[i]` from point `i` onto a caller-owned force field
    /// (`node*3 + axis`, same layout as `Lattice::force`; Eq. 6).
    ///
    /// Owner-computes scatter: `out` is cut into fixed slabs of
    /// [`SLAB_PLANES`] z-planes (z is the slowest index, so slabs are
    /// disjoint ranges of `out`), points are binned by the slabs their
    /// stencils touch, and each slab task walks its points in input order
    /// adding straight into its own planes. Every node therefore sums its
    /// contributions in input order at any lane count — bit for bit what a
    /// serial loop over the points produces. Forces landing on non-fluid
    /// nodes are dropped; returns the mean spread weight that landed on
    /// fluid (see [`spread_forces`]).
    ///
    /// # Panics
    /// Panics if `forces` does not match the set, `lattice` differs in
    /// shape from the one the set was built on, or `out` does not cover
    /// every node.
    pub fn spread_into(&self, lattice: &Lattice, forces: &[Vec3], out: &mut [f64]) -> f64 {
        assert_eq!(self.points.len(), forces.len(), "positions/forces mismatch");
        assert_eq!(self.shape, Self::shape_of(lattice), "lattice shape");
        assert_eq!(out.len(), lattice.node_count() * 3, "force field size");
        if self.points.is_empty() {
            return 0.0;
        }
        let bins = bin_by_slab(lattice.nz.div_ceil(SLAB_PLANES), &self.points);
        let plane = lattice.nx * lattice.ny;
        let field = UnsafeSlice::new(out);
        let covered_weight = apr_exec::current()
            .par_map_reduce(
                lattice.nz,
                SLAB_PLANES,
                |slab, planes| {
                    // SAFETY: slab z-ranges are pairwise disjoint, and z is
                    // the slowest index of the field.
                    let part = unsafe {
                        field.slice_mut(planes.start * plane * 3, planes.len() * plane * 3)
                    };
                    let first_node = planes.start * plane;
                    let mut covered = 0.0;
                    for &i in &bins[slab] {
                        let g = forces[i as usize];
                        let mut point_covered = 0.0;
                        self.points[i as usize].for_each_node(lattice, &planes, |node, w| {
                            if lattice.flag(node) == NodeClass::Fluid {
                                let o = (node - first_node) * 3;
                                let f = &mut part[o..o + 3];
                                f[0] += g.x * w;
                                f[1] += g.y * w;
                                f[2] += g.z * w;
                                point_covered += w;
                            }
                        });
                        covered += point_covered;
                    }
                    covered
                },
                |a, b| a + b,
            )
            .unwrap_or(0.0);
        covered_weight / self.points.len() as f64
    }
}

/// Interpolate the Eulerian velocity field onto Lagrangian points (Eq. 4):
/// `V(X) = Σ_x v(x)·δ(x − X)`.
///
/// Reads the lattice's stored (collision-time, force-corrected) velocities.
/// Points whose support sticks out of a non-periodic boundary simply miss
/// those weights — consistent with cells being removed once they cross the
/// window boundary (paper §2.4.2).
pub fn interpolate_velocities(
    lattice: &Lattice,
    positions: &[Vec3],
    kernel: DeltaKernel,
) -> Vec<Vec3> {
    let mut out = vec![Vec3::ZERO; positions.len()];
    apr_exec::current().par_for_chunks_mut(&mut out, POINT_CHUNK, |chunk, part| {
        let first = chunk * POINT_CHUNK;
        for (k, v) in part.iter_mut().enumerate() {
            *v = interpolate_velocity(lattice, positions[first + k], kernel);
        }
    });
    out
}

/// Interpolate the velocity at a single Lagrangian point.
pub fn interpolate_velocity(lattice: &Lattice, p: Vec3, kernel: DeltaKernel) -> Vec3 {
    PointStencil::new(lattice, p, kernel).interpolate(lattice)
}

/// Spread Lagrangian forces onto the Eulerian force field (Eq. 6):
/// `g(x) = Σ_X G(X)·δ(x − X)`.
///
/// Forces landing on wall/exterior nodes are dropped (the wall absorbs
/// them); total fluid-side force therefore equals the spread weight actually
/// covering fluid, which [`spread_forces`] returns for diagnostics.
///
/// # Panics
/// Panics if `positions` and `forces` differ in length.
pub fn spread_forces(
    lattice: &mut Lattice,
    positions: &[Vec3],
    forces: &[Vec3],
    kernel: DeltaKernel,
) -> f64 {
    // Detach the force field so the spread can read lattice flags while
    // accumulating into it.
    let mut field = std::mem::take(&mut lattice.force);
    let covered = spread_forces_into(lattice, positions, forces, kernel, &mut field);
    lattice.force = field;
    covered
}

/// [`spread_forces`] variant that accumulates into a caller-owned force
/// field: [`StencilSet::spread_into`] from a set built for `positions`.
/// Transient memory is O(points).
///
/// # Panics
/// Panics if `positions`/`forces` lengths differ or `out` does not cover
/// every node.
pub fn spread_forces_into(
    lattice: &Lattice,
    positions: &[Vec3],
    forces: &[Vec3],
    kernel: DeltaKernel,
    out: &mut [f64],
) -> f64 {
    StencilSet::new(lattice, positions, kernel).spread_into(lattice, forces, out)
}

/// Point indices by owner slab: `bins[s]` lists, in input order, the points
/// with a stencil plane in slab `s` (`z / SLAB_PLANES`), each once.
fn bin_by_slab(slabs: usize, stencils: &[PointStencil]) -> Vec<Vec<u32>> {
    assert!(
        u32::try_from(stencils.len()).is_ok(),
        "too many Lagrangian points"
    );
    let mut bins = vec![Vec::new(); slabs];
    for (i, st) in stencils.iter().enumerate() {
        // A periodic stencil can leave a slab and wrap back into it (last
        // slab shorter than the stencil), so compare with every slab seen.
        let mut seen = [usize::MAX; MAX_WEIGHTS];
        let mut count = 0;
        for (z, _) in st.z.iter() {
            let slab = z / SLAB_PLANES;
            if !seen[..count].contains(&slab) {
                seen[count] = slab;
                count += 1;
                bins[slab].push(i as u32);
            }
        }
    }
    bins
}

/// Advance Lagrangian points by interpolated velocity over one unit time
/// step (Eq. 5, forward Euler no-slip update): `X(t+1) = X(t) + V(t)·Δt`.
pub fn advect_points(lattice: &Lattice, positions: &mut [Vec3], kernel: DeltaKernel) {
    apr_exec::current().par_for_chunks_mut(positions, POINT_CHUNK, |_, part| {
        for p in part {
            let v = interpolate_velocity(lattice, *p, kernel);
            *p += v;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_lattice::Lattice;

    fn uniform_lattice(u: [f64; 3]) -> Lattice {
        let mut lat = Lattice::new(12, 12, 12, 1.0);
        lat.periodic = [true, true, true];
        lat.initialize_equilibrium(1.0, u);
        lat
    }

    #[test]
    fn interpolation_recovers_uniform_field() {
        let lat = uniform_lattice([0.03, -0.01, 0.02]);
        for p in [
            Vec3::new(5.0, 5.0, 5.0),
            Vec3::new(5.3, 4.7, 6.1),
            Vec3::new(0.2, 11.8, 3.5), // near periodic boundary
        ] {
            let v = interpolate_velocity(&lat, p, DeltaKernel::Cosine4);
            assert!((v - Vec3::new(0.03, -0.01, 0.02)).norm() < 1e-12, "{p:?}");
        }
    }

    #[test]
    fn interpolation_is_exact_for_linear_fields() {
        // Kernels with vanishing first moment reproduce linear velocity
        // profiles exactly — the property behind IBM's second-order accuracy.
        let mut lat = Lattice::new(16, 16, 16, 1.0);
        lat.periodic = [false, false, false];
        for z in 0..16 {
            for y in 0..16 {
                for x in 0..16 {
                    let node = lat.idx(x, y, z);
                    lat.initialize_node_equilibrium(node, 1.0, [0.001 * y as f64, 0.0, 0.0]);
                }
            }
        }
        // Exact for kernels with a vanishing first moment…
        for kernel in [DeltaKernel::Peskin3, DeltaKernel::Linear2] {
            let p = Vec3::new(8.0, 7.4, 8.0);
            let v = interpolate_velocity(&lat, p, kernel);
            assert!((v.x - 0.001 * 7.4).abs() < 1e-12, "{kernel:?}: {v:?}");
        }
        // …and within a small residual for the cosine kernel.
        let v = interpolate_velocity(&lat, Vec3::new(8.0, 7.4, 8.0), DeltaKernel::Cosine4);
        assert!((v.x - 0.001 * 7.4).abs() < 2.5e-5, "Cosine4: {v:?}");
    }

    #[test]
    fn spreading_conserves_total_force() {
        let mut lat = uniform_lattice([0.0; 3]);
        let positions = [Vec3::new(6.2, 5.9, 6.4), Vec3::new(3.1, 3.3, 3.7)];
        let forces = [Vec3::new(1e-4, -2e-4, 5e-5), Vec3::new(-3e-5, 1e-5, 2e-5)];
        spread_forces(&mut lat, &positions, &forces, DeltaKernel::Cosine4);
        let mut total = Vec3::ZERO;
        for n in 0..lat.node_count() {
            total += Vec3::new(lat.force[n * 3], lat.force[n * 3 + 1], lat.force[n * 3 + 2]);
        }
        let expected: Vec3 = forces.iter().copied().sum();
        assert!((total - expected).norm() < 1e-15);
    }

    #[test]
    fn spread_then_interpolate_peaks_at_source() {
        // The force field after spreading is maximal at the node nearest to
        // the Lagrangian point.
        let mut lat = uniform_lattice([0.0; 3]);
        let p = Vec3::new(6.1, 6.0, 5.9);
        spread_forces(
            &mut lat,
            &[p],
            &[Vec3::new(1.0, 0.0, 0.0)],
            DeltaKernel::Cosine4,
        );
        let peak_node = lat.idx(6, 6, 6);
        let peak = lat.force[peak_node * 3];
        for n in 0..lat.node_count() {
            assert!(lat.force[n * 3] <= peak + 1e-15);
        }
        assert!(peak > 0.05);
    }

    #[test]
    fn advection_follows_uniform_flow() {
        let lat = uniform_lattice([0.01, 0.02, -0.005]);
        let mut pts = vec![Vec3::new(5.0, 5.0, 5.0)];
        for _ in 0..10 {
            advect_points(&lat, &mut pts, DeltaKernel::Cosine4);
        }
        let expected = Vec3::new(5.0 + 0.1, 5.0 + 0.2, 5.0 - 0.05);
        assert!((pts[0] - expected).norm() < 1e-9);
    }

    #[test]
    fn all_kernels_spread_to_their_stencil_size() {
        for kernel in [
            DeltaKernel::Cosine4,
            DeltaKernel::Peskin3,
            DeltaKernel::Linear2,
        ] {
            let mut lat = uniform_lattice([0.0; 3]);
            // Offset from the node so even-width stencils engage fully.
            let p = Vec3::new(6.3, 6.3, 6.3);
            spread_forces(&mut lat, &[p], &[Vec3::new(1.0, 0.0, 0.0)], kernel);
            let touched = (0..lat.node_count())
                .filter(|&n| lat.force[n * 3] != 0.0)
                .count();
            let w = kernel.stencil_width();
            assert!(
                touched <= w * w * w,
                "{kernel:?}: touched {touched} > {}",
                w * w * w
            );
            assert!(
                touched >= (w - 1).max(1).pow(3),
                "{kernel:?}: touched {touched}"
            );
        }
    }
}

//! The IBM transfers against their oracles.
//!
//! (a) `interpolate_velocity` with separable weights equals, bit for bit,
//! the implementation it replaced: `φ` evaluated inside the 5-wide triple
//! loop (kept below as the oracle).
//! (b) The slab-owner spread equals, bit for bit and at every lane count,
//! a serial loop that adds each point's stencil straight into the field.
//! (c) A steady-state `spread_cell_forces` + `advect_cells` pair, and the
//! engines' `fsi::substep`, allocate O(vertices) bytes, whatever the size
//! of the lattice.
//! (d) One `StencilSet` serves both transfers: its interpolation equals the
//! oracle bit for bit, also at integer and half-integer coordinates where
//! an end weight is exactly 0, and its spread equals the serial loop at
//! every lane count.

use apr_cells::{CellKind, CellPool, ContactParams, UniformSubgrid};
use apr_core::fsi;
use apr_exec::ExecPool;
use apr_ibm::{interpolate_velocity, spread_forces, DeltaKernel, StencilSet};
use apr_lattice::{Lattice, NodeClass};
use apr_membrane::{Membrane, MembraneMaterial, ReferenceState};
use apr_mesh::{icosphere, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

const KERNELS: [DeltaKernel; 3] = [
    DeltaKernel::Cosine4,
    DeltaKernel::Peskin3,
    DeltaKernel::Linear2,
];

// --- oracles: the triple loop the separable weights replaced ---------------

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

/// Visit `(node, weight)` over the stencil of `p` with `φ` evaluated inside
/// the loops, exactly as `transfer.rs` did before the rewrite.
fn oracle_stencil(lat: &Lattice, p: Vec3, kernel: DeltaKernel, mut visit: impl FnMut(usize, f64)) {
    let s = kernel.support();
    let base = [
        (p.x - s).ceil() as i64,
        (p.y - s).ceil() as i64,
        (p.z - s).ceil() as i64,
    ];
    let width = kernel.stencil_width() + 1;
    for dz in 0..width {
        let gz = base[2] + dz as i64;
        let Some(z) = wrap(gz, lat.nz, lat.periodic[2]) else {
            continue;
        };
        let wz = kernel.phi(p.z - gz as f64);
        if wz == 0.0 {
            continue;
        }
        for dy in 0..width {
            let gy = base[1] + dy as i64;
            let Some(y) = wrap(gy, lat.ny, lat.periodic[1]) else {
                continue;
            };
            let wyz = wz * kernel.phi(p.y - gy as f64);
            if wyz == 0.0 {
                continue;
            }
            for dx in 0..width {
                let gx = base[0] + dx as i64;
                let Some(x) = wrap(gx, lat.nx, lat.periodic[0]) else {
                    continue;
                };
                let w = wyz * kernel.phi(p.x - gx as f64);
                if w == 0.0 {
                    continue;
                }
                visit(lat.idx(x, y, z), w);
            }
        }
    }
}

fn oracle_interpolate(lat: &Lattice, p: Vec3, kernel: DeltaKernel) -> Vec3 {
    let mut v = Vec3::ZERO;
    oracle_stencil(lat, p, kernel, |node, w| {
        let u = lat.velocity_at(node);
        v += Vec3::new(u[0], u[1], u[2]) * w;
    });
    v
}

/// Serial direct-accumulate spread: every point, in order, straight into
/// the field. Returns the field and the mean fluid-covered weight.
fn oracle_spread(
    lat: &Lattice,
    positions: &[Vec3],
    forces: &[Vec3],
    kernel: DeltaKernel,
) -> (Vec<f64>, f64) {
    let mut field = vec![0.0; lat.node_count() * 3];
    let mut covered = 0.0;
    for (&p, &g) in positions.iter().zip(forces) {
        let mut point_covered = 0.0;
        oracle_stencil(lat, p, kernel, |node, w| {
            if lat.flag(node) == NodeClass::Fluid {
                field[node * 3] += g.x * w;
                field[node * 3 + 1] += g.y * w;
                field[node * 3 + 2] += g.z * w;
                point_covered += w;
            }
        });
        covered += point_covered;
    }
    (field, covered / positions.len() as f64)
}

// --- seeded inputs ---------------------------------------------------------

/// A lattice with a random velocity field, a solid block of non-fluid nodes
/// of every class in its middle, and the given periodicity.
fn lattice(dims: (usize, usize, usize), periodic: [bool; 3], rng: &mut StdRng) -> Lattice {
    let (nx, ny, nz) = dims;
    let mut lat = Lattice::new(nx, ny, nz, 0.9);
    lat.periodic = periodic;
    for v in &mut lat.vel {
        *v = rng.gen_range(-0.1..0.1);
    }
    let classes = [
        NodeClass::Wall,
        NodeClass::Velocity,
        NodeClass::Pressure,
        NodeClass::Exterior,
    ];
    for z in nz / 3..(nz / 3 + 2).min(nz) {
        for y in ny / 3..(ny / 3 + 3).min(ny) {
            for x in nx / 3..(nx / 3 + 3).min(nx) {
                let node = lat.idx(x, y, z);
                lat.set_flag(node, classes[node % classes.len()]);
            }
        }
    }
    lat
}

/// Points that exercise every branch of the stencil code: anywhere in and
/// up to 3 nodes outside the box (clipped or wrapped stencils), exact
/// integer coordinates (zero end weights), within 2 nodes of each face, and
/// on top of the non-fluid block.
fn points(lat: &Lattice, n: usize, rng: &mut StdRng) -> Vec<Vec3> {
    let ext = [lat.nx as f64, lat.ny as f64, lat.nz as f64];
    let mut pts = Vec::with_capacity(n);
    for i in 0..n {
        let mut c = [0.0; 3];
        for (a, c) in c.iter_mut().enumerate() {
            *c = match i % 5 {
                0 => rng.gen_range(-3.0..ext[a] + 2.0),
                1 => rng.gen_range(-3.0..ext[a] + 2.0).floor(),
                2 => rng.gen_range(-0.5..2.0),
                3 => ext[a] - 1.0 - rng.gen_range(-0.5..2.0),
                _ => ext[a] / 3.0 + rng.gen_range(-1.0..3.0),
            };
        }
        // Mix integer and fractional coordinates within one point too.
        if i % 7 == 0 {
            c[i % 3] = c[i % 3].round();
        }
        pts.push(Vec3::new(c[0], c[1], c[2]));
    }
    pts
}

/// Geometries: several slabs deep without wrap, every mix of periodic
/// axes, a two-slab periodic box whose z-stencils wrap from the last slab
/// into the first, and a box so thin that a stencil wraps onto itself.
fn cases(rng: &mut StdRng) -> Vec<Lattice> {
    vec![
        lattice((12, 10, 21), [false, false, false], rng),
        lattice((9, 13, 19), [true, true, true], rng),
        lattice((11, 7, 9), [false, true, true], rng),
        lattice((6, 5, 3), [true, false, true], rng),
    ]
}

fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a:e} vs {b:e}");
}

// --- (a) interpolation -----------------------------------------------------

#[test]
fn interpolation_is_bit_identical_to_the_triple_loop() {
    let mut rng = StdRng::seed_from_u64(0x1b3_5eed);
    for lat in cases(&mut rng) {
        let pts = points(&lat, 600, &mut rng);
        for kernel in KERNELS {
            for &p in &pts {
                let new = interpolate_velocity(&lat, p, kernel);
                let old = oracle_interpolate(&lat, p, kernel);
                let what = format!("{kernel:?} at {p:?} on {}x{}x{}", lat.nx, lat.ny, lat.nz);
                assert_bits(new.x, old.x, &what);
                assert_bits(new.y, old.y, &what);
                assert_bits(new.z, old.z, &what);
            }
        }
    }
}

// --- (b) spreading ---------------------------------------------------------

#[test]
fn spread_is_bit_identical_to_a_serial_loop_at_every_lane_count() {
    let mut rng = StdRng::seed_from_u64(0x5b4_5eed);
    for mut lat in cases(&mut rng) {
        let pts = points(&lat, 400, &mut rng);
        // Magnitudes spread over decades, so any reassociation shows.
        let forces: Vec<Vec3> = pts
            .iter()
            .map(|_| {
                let scale = 10f64.powf(rng.gen_range(-6.0..0.0));
                Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ) * scale
            })
            .collect();
        for kernel in KERNELS {
            let (want, want_covered) = oracle_spread(&lat, &pts, &forces, kernel);
            for threads in [1, 2, 4, 8] {
                apr_exec::set_threads(threads);
                lat.clear_forces();
                let covered = spread_forces(&mut lat, &pts, &forces, kernel);
                for (i, (a, b)) in lat.force.iter().zip(&want).enumerate() {
                    let what = format!(
                        "{kernel:?}, {threads} lanes, {}x{}x{}, node {} axis {}",
                        lat.nx,
                        lat.ny,
                        lat.nz,
                        i / 3,
                        i % 3
                    );
                    assert_bits(*a, *b, &what);
                }
                // Per-slab partial sums associate differently from the
                // oracle's sum over points; the value is the same.
                assert!(
                    (covered - want_covered).abs() <= 1e-15,
                    "{kernel:?}, {threads} lanes: covered {covered:e} vs {want_covered:e}"
                );
            }
        }
    }
}

// --- (c) allocation --------------------------------------------------------

/// Counts the bytes the *current thread* allocates while counting is on, so
/// tests running beside this one do not disturb the count.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// touches only const-initialised thread-locals without destructors, which
// neither allocate nor can be observed after teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            BYTES.set(BYTES.get() + layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            BYTES.set(BYTES.get() + layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.get() {
            BYTES.set(BYTES.get() + new_size.saturating_sub(layout.size()));
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated by one steady-state spread + advect pair on an `n`³
/// periodic lattice, and the vertex count of the suspension.
fn fsi_pair_bytes(n: usize) -> (usize, usize) {
    let mesh = icosphere(2, 2.0);
    let re = Arc::new(ReferenceState::build(&mesh));
    let membrane = Arc::new(Membrane::new(re, MembraneMaterial::rbc(1e-3, 1e-5)));
    let mut pool = CellPool::with_capacity(8);
    for k in 0..6 {
        let center = Vec3::new(6.0, 6.0, 4.0 + 3.0 * k as f64);
        let verts = mesh.vertices.iter().map(|&v| v * 1.05 + center).collect();
        pool.insert_shape(CellKind::Rbc, Arc::clone(&membrane), verts);
    }
    let vertices: usize = pool.iter().map(|c| c.vertices.len()).sum();
    let mut lat = Lattice::new(n, n, n, 0.9);
    lat.periodic = [true, true, true];
    // One lane runs every region on the calling thread, where the counter
    // sees it.
    let bytes = apr_exec::with_pool(Arc::new(apr_exec::ExecPool::sequential()), || {
        let mut pair = |pool: &mut CellPool| {
            fsi::compute_membrane_forces(pool);
            lat.clear_forces();
            BYTES.set(0);
            COUNTING.set(true);
            fsi::spread_cell_forces(&mut lat, pool, DeltaKernel::Cosine4, |v| v, 1.0);
            fsi::advect_cells(&lat, pool, DeltaKernel::Cosine4, |v| v, 1.0);
            COUNTING.set(false);
            BYTES.get()
        };
        pair(&mut pool); // first call: anything lazily set up
        pair(&mut pool)
    });
    (bytes, vertices)
}

/// Bytes allocated by one steady-state `fsi::substep` (contact grid
/// rebuilt, stencils shared by the spread and the advection) on an `n`³
/// periodic lattice, with the lattice update left out, and the contact
/// pairs it found.
fn fsi_substep_bytes(n: usize) -> (usize, usize) {
    let mesh = icosphere(2, 2.0);
    let re = Arc::new(ReferenceState::build(&mesh));
    let membrane = Arc::new(Membrane::new(re, MembraneMaterial::rbc(1e-3, 1e-5)));
    // Six cells of radius 2.1, 5 apart: each pair of neighbours is within
    // the contact cutoff at a few vertices.
    let mut pool = CellPool::with_capacity(8);
    for k in 0..6 {
        let center = Vec3::new(4.0 + 5.0 * (k % 3) as f64, 4.0 + 5.0 * (k / 3) as f64, 8.0);
        let verts = mesh.vertices.iter().map(|&v| v * 1.05 + center).collect();
        pool.insert_shape(CellKind::Rbc, Arc::clone(&membrane), verts);
    }
    let mut lat = Lattice::new(n, n, n, 0.9);
    lat.periodic = [true, true, true];
    let mut grid = UniformSubgrid::new(2.0);
    let contact = ContactParams {
        cutoff: 1.2,
        strength: 5e-4,
    };
    let bytes = apr_exec::with_pool(Arc::new(ExecPool::sequential()), || {
        let mut substep = || {
            BYTES.set(0);
            COUNTING.set(true);
            fsi::substep(
                &mut lat,
                &mut pool,
                &mut grid,
                contact,
                DeltaKernel::Cosine4,
                true,
                |_| {},
            );
            COUNTING.set(false);
            BYTES.get()
        };
        substep(); // first call: the grid's bins
        substep()
    });
    let pairs = apr_cells::apply_contact_forces(&mut pool, grid.bin_size, contact);
    (bytes, pairs)
}

#[test]
fn fsi_pair_allocates_per_vertex_not_per_node() {
    let (small, vertices) = fsi_pair_bytes(24);
    let (large, _) = fsi_pair_bytes(48);
    // 8× the nodes (the 48³ force field alone is 2.6 MB): the transients
    // are the mapped positions, scaled forces, per-point stencils and slab
    // bins — a few hundred bytes a vertex — plus one word per z-slab.
    assert!(small > 0, "the counter saw nothing");
    assert!(
        small <= 400 * vertices,
        "{small} bytes for {vertices} vertices"
    );
    assert!(
        large <= small + 1024,
        "allocation grew with the lattice: {small} B on 24^3, {large} B on 48^3"
    );
    // The engines' sub-step adds the contact pass to the same transients;
    // its one stencil set lives from the spread to the advection.
    let ((small, pairs), (large, _)) = (fsi_substep_bytes(24), fsi_substep_bytes(48));
    assert!(pairs > 0, "the sub-step's cells do not touch");
    assert!(small > 0, "the counter saw nothing in the sub-step");
    assert!(
        small <= 400 * vertices,
        "sub-step: {small} bytes for {vertices} vertices and {pairs} contact pairs"
    );
    assert!(
        large <= small + 1024,
        "sub-step allocation grew with the lattice: {small} B on 24^3, {large} B on 48^3"
    );
}

// --- (d) one stencil set for both transfers ----------------------------------

/// Points whose coordinates are all integers, all half-integers, or a mix,
/// inside the box, on its faces and up to 1.5 nodes outside: there an end
/// weight of each kernel is exactly 0 (|r| = 2 for `Cosine4`, 1.5 for
/// `Peskin3`, 1 for `Linear2`).
fn lattice_points(lat: &Lattice) -> Vec<Vec3> {
    let axis = |n: usize| {
        let n = n as f64;
        [
            -1.5,
            -1.0,
            -0.5,
            0.0,
            0.5,
            1.0,
            (n / 3.0).floor() + 0.5,
            n - 1.5,
            n - 1.0,
            n - 0.5,
            n,
        ]
    };
    let mut pts = Vec::new();
    for z in axis(lat.nz) {
        for y in axis(lat.ny) {
            for x in axis(lat.nx) {
                pts.push(Vec3::new(x, y, z));
            }
        }
    }
    pts
}

#[test]
fn stencil_set_interpolation_is_bit_identical_to_the_triple_loop() {
    let mut rng = StdRng::seed_from_u64(0x5e7_5eed);
    for lat in cases(&mut rng) {
        let mut pts = points(&lat, 600, &mut rng);
        pts.extend(lattice_points(&lat));
        for kernel in KERNELS {
            let set = StencilSet::new(&lat, &pts, kernel);
            assert_eq!(set.len(), pts.len());
            for (i, &p) in pts.iter().enumerate() {
                let new = set.interpolate(&lat, i);
                let old = oracle_interpolate(&lat, p, kernel);
                let what = format!("{kernel:?} at {p:?} on {}x{}x{}", lat.nx, lat.ny, lat.nz);
                assert_bits(new.x, old.x, &what);
                assert_bits(new.y, old.y, &what);
                assert_bits(new.z, old.z, &what);
            }
        }
    }
}

#[test]
fn one_stencil_set_spreads_then_interpolates_at_every_lane_count() {
    let mut rng = StdRng::seed_from_u64(0x0e5_5eed);
    for mut lat in cases(&mut rng) {
        let mut pts = points(&lat, 400, &mut rng);
        pts.extend(lattice_points(&lat));
        let forces: Vec<Vec3> = pts
            .iter()
            .map(|_| {
                let scale = 10f64.powf(rng.gen_range(-6.0..0.0));
                Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ) * scale
            })
            .collect();
        for kernel in KERNELS {
            let (want, want_covered) = oracle_spread(&lat, &pts, &forces, kernel);
            for threads in [1, 2, 4, 8] {
                let what = format!(
                    "{kernel:?}, {threads} lanes, {}x{}x{}",
                    lat.nx, lat.ny, lat.nz
                );
                let set = apr_exec::with_pool(Arc::new(ExecPool::new(threads)), || {
                    let set = StencilSet::new(&lat, &pts, kernel);
                    let mut field = vec![0.0; lat.node_count() * 3];
                    let covered = set.spread_into(&lat, &forces, &mut field);
                    for (i, (a, b)) in field.iter().zip(&want).enumerate() {
                        assert_bits(*a, *b, &format!("{what}, node {} axis {}", i / 3, i % 3));
                    }
                    // Per-slab partial sums associate differently from
                    // the oracle's sum over ~1 700 points; the value is the
                    // same to a few ulps.
                    assert!(
                        (covered - want_covered).abs() <= 64.0 * f64::EPSILON * want_covered,
                        "{what}: covered {covered:e} vs {want_covered:e}"
                    );
                    set
                });
                // The fluid moves between the two transfers of a sub-step;
                // the points do not, so the set still describes them.
                for v in &mut lat.vel {
                    *v = rng.gen_range(-0.1..0.1);
                }
                for (i, &p) in pts.iter().enumerate() {
                    let new = set.interpolate(&lat, i);
                    let old = oracle_interpolate(&lat, p, kernel);
                    let what = format!("{what}, point {i} at {p:?}");
                    assert_bits(new.x, old.x, &what);
                    assert_bits(new.y, old.y, &what);
                    assert_bits(new.z, old.z, &what);
                }
            }
        }
    }
}

//! `apply_contact_forces` against the per-vertex grid query it replaced:
//! the same forces to the bit and the same pair count, on packed random
//! suspensions and on the layouts where rounding decides (bin boundaries,
//! coincident vertices, pairs one ulp either side of the cutoff, NaN and
//! infinite vertices).

use apr_cells::{
    apply_contact_forces, rebuild_grid, CellKind, CellPool, ContactParams, UniformSubgrid,
};
use apr_membrane::{Membrane, MembraneMaterial, ReferenceState};
use apr_mesh::{icosphere, Vec3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The contact loop as it was before the cell-pair sweep: one grid query
/// per vertex, hits summed in the order the query visits them.
fn oracle_apply_contact_forces(
    pool: &mut CellPool,
    grid: &UniformSubgrid,
    params: ContactParams,
) -> usize {
    let mut pairs = 0;
    // Contact sums are formed from zero and added to the membrane forces
    // afterwards (the association the forces have always had); the buffer
    // is shared by all cells of the call.
    let mut contact: Vec<Vec3> = Vec::new();
    for slot in 0..pool.capacity() {
        let Some(cell) = pool.get(slot) else { continue };
        let id = cell.id;
        contact.clear();
        contact.resize(cell.vertex_count(), Vec3::ZERO);
        for (sum, &p) in contact.iter_mut().zip(&cell.vertices) {
            grid.for_each_neighbor(p, params.cutoff, id, |entry| {
                let d = entry.position.distance(p);
                let mag = params.magnitude(d);
                if mag > 0.0 {
                    let dir = if d > 1e-12 {
                        (p - entry.position) / d
                    } else {
                        // Coincident points: deterministic push along x.
                        Vec3::X
                    };
                    *sum += dir * mag;
                    pairs += 1;
                }
            });
        }
        let cell = pool.get_mut(slot).expect("slot vanished");
        for (f, add) in cell.forces.iter_mut().zip(&contact) {
            *f += *add;
        }
    }
    pairs
}

fn membrane(subdivisions: u32, radius: f64) -> (Arc<Membrane>, Vec<Vec3>) {
    let mesh = icosphere(subdivisions, radius);
    let re = Arc::new(ReferenceState::build(&mesh));
    let mem = Arc::new(Membrane::new(re, MembraneMaterial::rbc(1.0, 0.01)));
    (mem, mesh.vertices)
}

/// Non-zero force seeds with a `-0.0` in every third component slot, so
/// adding an all-zero contact sum is visible in the bits.
fn seed_forces(pool: &mut CellPool, rng: &mut StdRng) {
    for cell in pool.iter_mut() {
        for (v, f) in cell.forces.iter_mut().enumerate() {
            *f = match v % 3 {
                0 => Vec3::splat(-0.0),
                1 => Vec3::new(-0.0, rng.gen_range(-1.0..1.0), 0.0),
                _ => Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1e-3..1e-3),
                    rng.gen_range(-1e3..1e3),
                ),
            };
        }
    }
}

/// Run the oracle and the sweep on copies of `pool`; every force must
/// match to the bit and the pair counts must agree. Returns the count.
fn assert_equivalent(pool: &CellPool, bin_size: f64, params: ContactParams) -> usize {
    let mut want = pool.clone();
    let mut grid = UniformSubgrid::new(bin_size);
    rebuild_grid(&mut grid, &want);
    let want_pairs = oracle_apply_contact_forces(&mut want, &grid, params);
    let mut got = pool.clone();
    let got_pairs = apply_contact_forces(&mut got, bin_size, params);
    assert_eq!(
        got_pairs, want_pairs,
        "pair count, bin {bin_size}, {params:?}"
    );
    for slot in 0..pool.capacity() {
        let (Some(w), Some(g)) = (want.get(slot), got.get(slot)) else {
            assert!(want.get(slot).is_none() && got.get(slot).is_none());
            continue;
        };
        for (v, (fw, fg)) in w.forces.iter().zip(&g.forces).enumerate() {
            let bits = |f: &Vec3| [f.x.to_bits(), f.y.to_bits(), f.z.to_bits()];
            assert_eq!(
                bits(fg),
                bits(fw),
                "slot {slot} vertex {v}: {fg:?} != {fw:?}, bin {bin_size}, {params:?}"
            );
        }
    }
    want_pairs
}

/// `count` spheres of two sizes, each placed touching (or slightly
/// overlapping, or just short of) a cell placed before it, randomly
/// rotated; one slot is freed and refilled so slot order is not id order.
fn packed_pool(count: usize, rng: &mut StdRng) -> CellPool {
    let shapes = [membrane(1, 2.0), membrane(2, 1.5)];
    let mut pool = CellPool::with_capacity(2);
    let mut placed: Vec<(Vec3, f64)> = Vec::new();
    let radii = [2.0, 1.5];
    for i in 0..=count {
        let k = rng.gen_range(0..2usize);
        let (mem, verts) = &shapes[k];
        let axis = Vec3::new(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(0.1..1.0),
        );
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let centre = if placed.is_empty() {
            Vec3::new(
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-5.0..5.0),
            )
        } else {
            let (c, r) = placed[rng.gen_range(0..placed.len())];
            let dir = Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            )
            .normalized();
            c + dir * (r + radii[k] + rng.gen_range(-0.6..0.5))
        };
        placed.push((centre, radii[k]));
        let shape = verts
            .iter()
            .map(|&v| v.rotate_about(axis, angle) + centre)
            .collect();
        pool.insert_shape(CellKind::Rbc, Arc::clone(mem), shape);
        if i == 1 {
            // The next cell (a larger id) refills slot 0.
            pool.remove(0);
            placed.remove(0);
        }
    }
    pool
}

proptest! {
    /// Packed random suspensions, both engine cutoffs, bins at the cutoff
    /// and above it.
    #[test]
    fn sweep_matches_the_grid_query_on_packed_cells(
        count in 2usize..=8,
        seed in 0u64..u64::MAX,
        cutoff_pick in 0usize..2,
        bin_pick in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = packed_pool(count, &mut rng);
        seed_forces(&mut pool, &mut rng);
        let cutoff = [0.3, 1.2][cutoff_pick];
        let bin = [cutoff, 2.0, 3.0][bin_pick];
        let params = ContactParams { cutoff, strength: 0.7 };
        assert_equivalent(&pool, bin, params);
    }
}

#[test]
fn packed_cells_do_interact() {
    // Guard against a generator that never makes contact: the property
    // above would then compare zeros.
    let mut rng = StdRng::seed_from_u64(7);
    let pool = packed_pool(8, &mut rng);
    let params = ContactParams {
        cutoff: 1.2,
        strength: 0.7,
    };
    assert!(assert_equivalent(&pool, 2.0, params) > 100);
}

/// Two 12-vertex cells whose vertices are overwritten with `a` and `b`.
fn pool_of(a: Vec<Vec3>, b: Vec<Vec3>) -> CellPool {
    let (mem, _) = membrane(0, 1.0);
    let mut pool = CellPool::with_capacity(4);
    for verts in [a, b] {
        let (slot, _) = pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), vec![Vec3::ZERO; 12]);
        pool.get_mut(slot).unwrap().vertices = verts;
    }
    pool
}

#[test]
fn vertices_on_bin_boundaries() {
    // Every coordinate a multiple of the bin edge, so vertices and the
    // query ranges `p ± r` fall exactly on bin faces.
    for (bin, cutoff) in [(1.0, 1.0), (2.0, 1.0), (0.5, 1.0), (1.2, 1.2)] {
        let at = |i: usize, j: usize, k: usize| {
            Vec3::new(i as f64 * bin, j as f64 * bin, k as f64 * bin)
        };
        let a: Vec<Vec3> = (0..12).map(|v| at(v % 3, v / 3 % 2, v / 6)).collect();
        let b: Vec<Vec3> = (0..12)
            .map(|v| at(v % 2 + 1, v / 2 % 3, v / 6 + 1))
            .collect();
        let mut pool = pool_of(a, b);
        seed_forces(&mut pool, &mut StdRng::seed_from_u64(1));
        let params = ContactParams {
            cutoff,
            strength: 1.0,
        };
        assert!(assert_equivalent(&pool, bin, params) > 0);
    }
}

#[test]
fn coincident_vertices_push_along_x_on_both_sides() {
    let (_, verts) = membrane(0, 1.0);
    let mut pool = pool_of(verts.clone(), verts);
    seed_forces(&mut pool, &mut StdRng::seed_from_u64(2));
    let params = ContactParams {
        cutoff: 0.3,
        strength: 1.0,
    };
    for bin in [0.3, 2.0] {
        // Each vertex meets its twin: one hit per vertex and side.
        assert_eq!(assert_equivalent(&pool, bin, params), 24);
    }
    for cell in pool.iter_mut() {
        cell.clear_forces();
    }
    apply_contact_forces(&mut pool, 0.3, params);
    for cell in pool.iter() {
        assert!(cell.forces.iter().all(|&f| f == Vec3::X));
    }
}

#[test]
fn pairs_one_ulp_either_side_of_the_cutoff() {
    let up = |x: f64| f64::from_bits(x.to_bits() + 1);
    let down = |x: f64| f64::from_bits(x.to_bits() - 1);
    for cutoff in [0.3, 1.2] {
        // Twelve far-apart anchors; each partner sits at the cutoff, one
        // ulp inside or one ulp outside it, along +x, −y or +z (or along
        // +x, one ulp short of that), at coordinates where `p ± r` rounds.
        let anchor = |v: usize| Vec3::new(100.0 * v as f64 + 0.1, -37.7, 1e3 / 3.0);
        let a: Vec<Vec3> = (0..12).map(anchor).collect();
        let b: Vec<Vec3> = (0..12)
            .map(|v| {
                let p = anchor(v);
                let off = [down(cutoff), cutoff, up(cutoff)][v % 3];
                match v / 3 {
                    0 => Vec3::new(p.x + off, p.y, p.z),
                    1 => Vec3::new(p.x, p.y - off, p.z),
                    2 => Vec3::new(p.x, p.y, p.z + off),
                    _ => Vec3::new(down(p.x + off), p.y, p.z),
                }
            })
            .collect();
        let mut pool = pool_of(a, b);
        seed_forces(&mut pool, &mut StdRng::seed_from_u64(3));
        for bin in [cutoff, 2.0, 3.0] {
            let params = ContactParams {
                cutoff,
                strength: 1.0,
            };
            assert_equivalent(&pool, bin, params);
        }
    }
}

#[test]
fn nan_and_infinite_vertices_match_the_oracle() {
    let (mem, verts) = membrane(1, 2.0);
    let mut pool = CellPool::with_capacity(4);
    for x in [0.0, 4.2, -4.1, 8.3] {
        let shape = verts.iter().map(|&v| v + Vec3::new(x, 0.1, -0.2)).collect();
        pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), shape);
    }
    // Slot 1: some NaN vertices; slot 2: infinite ones; slot 3: all NaN.
    for v in pool.get_mut(1).unwrap().vertices.iter_mut().step_by(3) {
        v.y = f64::NAN;
    }
    let c2 = pool.get_mut(2).unwrap();
    c2.vertices[0].x = f64::INFINITY;
    c2.vertices[5] = Vec3::splat(f64::NEG_INFINITY);
    c2.vertices[9].z = f64::INFINITY;
    pool.get_mut(3)
        .unwrap()
        .vertices
        .fill(Vec3::splat(f64::NAN));
    seed_forces(&mut pool, &mut StdRng::seed_from_u64(4));
    for (cutoff, bin) in [(0.3, 0.3), (1.2, 2.0), (1.2, 3.0)] {
        let params = ContactParams {
            cutoff,
            strength: 1.0,
        };
        assert_equivalent(&pool, bin, params);
    }
}

#[test]
fn cutoff_whose_square_underflows() {
    // `r * r` is 0 here, so a pair counts exactly when its squared distance
    // underflows to 0 too: up to ~1.6e-162 apart, far beyond the cutoff.
    let cutoff = 1e-163;
    let far = |v: usize| Vec3::new(10.0 * v as f64, 5.0, 5.0);
    let mut a: Vec<Vec3> = (0..12).map(far).collect();
    let mut b: Vec<Vec3> = (0..12).map(|v| far(v) + Vec3::new(3.0, 0.0, 0.0)).collect();
    a[0] = Vec3::ZERO;
    b[0] = Vec3::new(1.2e-162, 0.0, 0.0);
    b[1] = Vec3::new(0.0, -1e-162, 0.0);
    b[2] = Vec3::new(0.0, 0.0, 3e-162);
    let mut pool = pool_of(a, b);
    seed_forces(&mut pool, &mut StdRng::seed_from_u64(5));
    for bin in [0.3, 2.0] {
        let params = ContactParams {
            cutoff,
            strength: 1.0,
        };
        // `b[0]` counts from both sides; `b[1]` only as seen from `a[0]`,
        // whose query bins reach down to it (from `b[1]`, `a[0]` lies one
        // bin up, outside `b[1]`'s query); `b[2]` squares to a non-zero.
        assert_eq!(assert_equivalent(&pool, bin, params), 3);
    }
}

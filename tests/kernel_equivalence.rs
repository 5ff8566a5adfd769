//! Kernel-engine equivalence: the fused swap-streaming kernel must be
//! **bit-identical** to the reference two-pass kernel on every boundary
//! type and on seeded random geometries, at every thread count, across
//! checkpoint/restore — and its streaming table must cost rows for the
//! `Slow` nodes only, not a second distribution array.
//!
//! The worker pool is process-global, so every test that swaps it holds
//! `POOL_LOCK` (same discipline as `exec_determinism.rs`).

use apr_suite::guard::{read_lattice, write_lattice, ByteReader};
use apr_suite::lattice::{
    couette_channel, force_driven_tube, poiseuille_slit, Boundary, KernelKind, Lattice, NodeClass,
    SubStep, Q,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static POOL_LOCK: Mutex<()> = Mutex::new(());

/// The boundary-condition zoo, one constructor per streaming code path,
/// followed by [`random_geometries`].
fn scenarios() -> Vec<(String, Lattice)> {
    // Fully periodic forced box: every node takes the fused fast path.
    let mut periodic = Lattice::new(12, 10, 8, 0.8);
    periodic.periodic = [true, true, true];
    periodic.body_force = [1e-6, 2e-7, 0.0];

    // Couette: moving wall (momentum-injecting bounce-back).
    let couette = couette_channel(6, 12, 6, 0.9, 0.03);

    // Poiseuille: stationary walls + body force.
    let slit = poiseuille_slit(6, 14, 6, 0.9, 1e-6);

    // Force-driven tube: curved wall + exterior nodes + periodic axis.
    let tube = force_driven_tube(13, 13, 10, 0.9, 5.0, 1e-6);

    // Duct with a velocity inlet, pressure outlet, walls, and exterior
    // corners: exercises the post-stream non-equilibrium extrapolation
    // against both kernels' storage orders.
    let (nx, ny, nz) = (6usize, 8usize, 14usize);
    let mut duct = Lattice::new(nx, ny, nz, 0.9);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let node = duct.idx(x, y, z);
                let shell = x == 0 || x == nx - 1 || y == 0 || y == ny - 1;
                if shell {
                    let corner = (x == 0 || x == nx - 1) && (y == 0 || y == ny - 1);
                    duct.set_boundary(
                        node,
                        if corner {
                            Boundary::Exterior
                        } else {
                            Boundary::Wall
                        },
                    );
                } else if z == 0 {
                    duct.set_boundary(node, Boundary::Velocity([0.0, 0.0, 0.02]));
                } else if z == nz - 1 {
                    duct.set_boundary(node, Boundary::Pressure(1.0));
                }
            }
        }
    }

    [
        ("periodic_box", periodic),
        ("couette", couette),
        ("poiseuille_slit", slit),
        ("force_driven_tube", tube),
        ("velocity_pressure_duct", duct),
    ]
    .map(|(name, lat)| (name.to_string(), lat))
    .into_iter()
    .chain(random_geometries())
    .collect()
}

/// Seeded random flag fields, more inputs to the same comparisons:
/// - wall, exterior, velocity, pressure and moving-wall nodes scattered
///   over the box;
/// - a random periodicity per axis, and one axis only 1–2 nodes wide in
///   every fourth geometry;
/// - a mostly solid z-plane every few planes, so the fluid-cost chunk
///   edges fall beside `Slow` nodes and their swaps get deferred.
///
/// The start state is non-uniform, so a swap with the wrong partner moves
/// a different value and shows in the bits.
fn random_geometries() -> Vec<(String, Lattice)> {
    (0..8u64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(0x0AD1_0000 + seed);
            let mut dims = [
                rng.gen_range(3..9usize),
                rng.gen_range(3..9usize),
                rng.gen_range(24..41usize),
            ];
            if seed % 4 == 3 {
                dims[(seed / 4) as usize % 2] = rng.gen_range(1..3usize);
            }
            let [nx, ny, nz] = dims;
            let mut lat = Lattice::new(nx, ny, nz, rng.gen_range(0.7..1.1));
            lat.periodic = [rng.gen_bool(0.5), rng.gen_bool(0.5), rng.gen_bool(0.5)];
            let small = |rng: &mut StdRng, a: f64| [(); 3].map(|_| rng.gen_range(-a..a));
            lat.body_force = small(&mut rng, 1e-5);
            let slab_every = rng.gen_range(3..8usize);
            for node in 0..lat.node_count() {
                let (_, _, z) = lat.coords(node);
                let solid = if z % slab_every == 0 { 0.85 } else { 0.2 };
                if rng.gen_bool(solid) {
                    let b = match rng.gen_range(0..5u32) {
                        0 => Boundary::Wall,
                        1 => Boundary::Exterior,
                        2 => Boundary::Velocity(small(&mut rng, 0.02)),
                        3 => Boundary::Pressure(1.0 + rng.gen_range(-0.01..0.01)),
                        _ => Boundary::MovingWall(small(&mut rng, 0.02)),
                    };
                    lat.set_boundary(node, b);
                }
                let rho = 1.0 + rng.gen_range(-0.01..0.01);
                let u = small(&mut rng, 0.02);
                lat.initialize_node_equilibrium(node, rho, u);
                lat.add_force(node, small(&mut rng, 1e-5));
            }
            (
                format!("random_{seed} {nx}x{ny}x{nz} {:?}", lat.periodic),
                lat,
            )
        })
        .collect()
}

/// Fluid nodes that read an op row: a non-fluid or out-of-domain
/// neighbour, or a place on the box's faces (where links may wrap).
fn slow_nodes(lat: &Lattice) -> usize {
    (0..lat.node_count())
        .filter(|&node| {
            let (x, y, z) = lat.coords(node);
            let face = [(x, lat.nx), (y, lat.ny), (z, lat.nz)]
                .iter()
                .any(|&(c, n)| c == 0 || c + 1 == n);
            lat.flag(node) == NodeClass::Fluid
                && (face
                    || (1..Q).any(|i| {
                        lat.link_neighbor(node, i)
                            .is_none_or(|m| lat.flag(m) != NodeClass::Fluid)
                    }))
        })
        .count()
}

/// Raw bit digest of distributions + moments at a step boundary.
fn digest(lat: &Lattice) -> Vec<u64> {
    let mut bits: Vec<u64> = lat.storage_f().iter().map(|v| v.to_bits()).collect();
    bits.extend(lat.rho.iter().map(|v| v.to_bits()));
    bits.extend(lat.vel.iter().map(|v| v.to_bits()));
    bits
}

fn run(mut lat: Lattice, kind: KernelKind, steps: u64) -> Vec<u64> {
    lat.set_kernel(Some(kind));
    for _ in 0..steps {
        lat.step();
    }
    assert_eq!(lat.kernel(), kind);
    assert_eq!(lat.steps_taken(), steps);
    digest(&lat)
}

#[test]
fn fused_matches_reference_on_every_boundary_type_and_thread_count() {
    let _guard = POOL_LOCK.lock().unwrap();
    for (name, lat) in scenarios() {
        apr_suite::exec::set_threads(1);
        let golden = run(lat.clone(), KernelKind::Reference, 100);
        for threads in [1usize, 2, 4, 8] {
            apr_suite::exec::set_threads(threads);
            for kind in [
                KernelKind::FusedSwap,
                // The reference kernel itself must also be thread-invariant.
                KernelKind::Reference,
            ] {
                let got = run(lat.clone(), kind, 100);
                assert_eq!(
                    golden, got,
                    "{kind:?} diverged from reference: scenario {name}, {threads} threads"
                );
            }
        }
    }
    apr_suite::exec::set_threads(1);
}

#[test]
fn split_halves_match_fused_full_steps() {
    let _guard = POOL_LOCK.lock().unwrap();
    for threads in [1usize, 2, 4] {
        apr_suite::exec::set_threads(threads);
        for (name, lat) in scenarios() {
            let mut whole = lat.clone();
            whole.set_kernel(Some(KernelKind::FusedSwap));
            let mut halves = whole.clone();
            for _ in 0..20 {
                whole.step();
                halves.advance(SubStep::Collide);
                halves.advance(SubStep::Stream);
            }
            assert_eq!(
                digest(&whole),
                digest(&halves),
                "split-half run diverged from step(): scenario {name}, {threads} threads"
            );
        }
    }
    apr_suite::exec::set_threads(1);
}

/// Bits of a lattice's `(mass, momentum, fluid nodes)`.
fn totals_bits((mass, momentum, nodes): (f64, [f64; 3], usize)) -> (u64, [u64; 3], usize) {
    (mass.to_bits(), momentum.map(f64::to_bits), nodes)
}

/// The totals a collide computes for the ledger are the explicit sweep's,
/// bit for bit: per step, `take_totals` after a requested step equals
/// `mass_momentum_totals` of the state the step started from — on every
/// zoo entry, under both kernels, through the fused step and the split
/// halves, at every lane count.
#[test]
fn collide_totals_equal_the_sweep_of_the_state_it_started_from() {
    let _guard = POOL_LOCK.lock().unwrap();
    for threads in [1usize, 2, 4] {
        apr_suite::exec::set_threads(threads);
        for (name, lat) in scenarios() {
            for kind in [KernelKind::FusedSwap, KernelKind::Reference] {
                for split in [false, true] {
                    let mut lat = lat.clone();
                    lat.set_kernel(Some(kind));
                    for step in 0..5 {
                        let want = lat.mass_momentum_totals();
                        lat.request_totals();
                        if split {
                            lat.advance(SubStep::Collide);
                            lat.advance(SubStep::Stream);
                        } else {
                            lat.step();
                        }
                        assert_eq!(
                            totals_bits(lat.take_totals()),
                            totals_bits(want),
                            "{name}, {kind:?}, split {split}, {threads} lanes, step {step}"
                        );
                    }
                }
            }
        }
    }
    apr_suite::exec::set_threads(1);
}

/// Mid-step accessors must transparently translate the fused kernel's
/// reversed storage: logical reads between the halves agree bit-for-bit
/// with the reference kernel's post-collision state.
#[test]
fn mid_step_accessors_agree_across_kernels() {
    let _guard = POOL_LOCK.lock().unwrap();
    apr_suite::exec::set_threads(2);
    let (_, lat) = scenarios().remove(1); // couette: has a moving wall
    let mut a = lat.clone();
    a.set_kernel(Some(KernelKind::Reference));
    let mut b = lat.clone();
    b.set_kernel(Some(KernelKind::FusedSwap));
    for l in [&mut a, &mut b] {
        for _ in 0..10 {
            l.step();
        }
        l.advance(SubStep::Collide);
    }
    assert!(!a.swap_parity() && b.swap_parity());
    for node in 0..a.node_count() {
        for i in 0..Q {
            assert_eq!(
                a.distribution(node, i).to_bits(),
                b.distribution(node, i).to_bits(),
                "post-collision mismatch at node {node} dir {i}"
            );
        }
        let (ra, ua) = a.moments_at(node);
        let (rb, ub) = b.moments_at(node);
        assert_eq!(
            (ra.to_bits(), ua.map(f64::to_bits)),
            (rb.to_bits(), ub.map(f64::to_bits))
        );
    }
    // The ledger sweep sums the same per-node moments, so its totals are
    // parity-blind too.
    let (mass_a, mom_a, nodes_a) = a.mass_momentum_totals();
    let (mass_b, mom_b, nodes_b) = b.mass_momentum_totals();
    assert_eq!(
        (mass_a.to_bits(), mom_a.map(f64::to_bits), nodes_a),
        (mass_b.to_bits(), mom_b.map(f64::to_bits), nodes_b),
        "mid-step ledger totals differ between storage parities"
    );
    a.advance(SubStep::Stream);
    b.advance(SubStep::Stream);
    assert_eq!(digest(&a), digest(&b));
    apr_suite::exec::set_threads(1);
}

/// Guardian lattice serialization round-trips a *mid-step* fused state:
/// swap parity survives the checkpoint, and the resumed run stays on the
/// uninterrupted trajectory — and on the reference kernel's.
#[test]
fn mid_step_checkpoint_preserves_swap_parity() {
    let _guard = POOL_LOCK.lock().unwrap();
    apr_suite::exec::set_threads(2);
    let (_, lat) = scenarios().remove(1); // couette
    let golden = run(lat.clone(), KernelKind::Reference, 100);

    let mut interrupted = lat.clone();
    interrupted.set_kernel(Some(KernelKind::FusedSwap));
    for _ in 0..50 {
        interrupted.step();
    }
    interrupted.advance(SubStep::Collide);
    assert!(interrupted.mid_step() && interrupted.swap_parity());
    let blob = write_lattice(&interrupted);

    let mut resumed = lat.clone();
    resumed.set_kernel(Some(KernelKind::FusedSwap));
    read_lattice(&mut resumed, &mut ByteReader::new(&blob)).expect("restore");
    assert!(resumed.mid_step() && resumed.swap_parity());
    assert_eq!(resumed.steps_taken(), 50);
    resumed.advance(SubStep::Stream);
    for _ in 51..100 {
        resumed.step();
    }
    assert_eq!(
        digest(&resumed),
        golden,
        "resumed-from-mid-step fused run diverged"
    );

    // The same blob must refuse to land on a reference-kernel lattice:
    // its storage order cannot represent the reversed mid-step state.
    let mut wrong = lat.clone();
    wrong.set_kernel(Some(KernelKind::Reference));
    assert!(read_lattice(&mut wrong, &mut ByteReader::new(&blob)).is_err());
    apr_suite::exec::set_threads(1);
}

/// The fused kernel's auxiliary memory (op rows, deferred-swap queues,
/// chunk plan) is priced by the `Slow` nodes that read rows: at most
/// `19 · 4` bytes per `Slow` node plus 4 bytes per node of a walled tube —
/// not a second distribution array, and not an op word per slot. The
/// distributions themselves are stored for the stateful nodes only:
/// `19 · 8 = 152` bytes each, nothing for the tube's walls and exterior.
#[test]
fn fused_kernel_eliminates_the_second_distribution_array() {
    let _guard = POOL_LOCK.lock().unwrap();
    apr_suite::exec::set_threads(2);
    let mut lat = force_driven_tube(20, 20, 128, 0.9, 8.0, 1e-6);
    let n = lat.node_count();
    let stateful = (0..n).filter(|&node| lat.flag(node).is_stateful()).count();
    assert!(stateful < n * 3 / 4, "{stateful} stateful of {n} nodes");
    let slow = slow_nodes(&lat);
    assert!(slow < lat.fluid_node_count() / 2, "{slow} Slow nodes");
    let bound = slow * Q * 4 + n * 4;

    let mut fused = lat.clone();
    fused.set_kernel(Some(KernelKind::FusedSwap));
    fused.step();
    assert!(fused.kernel_scratch_bytes() > 0);
    assert!(
        fused.kernel_scratch_bytes() <= bound,
        "fused scratch {} B > {bound} B ({slow} Slow of {n} nodes)",
        fused.kernel_scratch_bytes(),
    );
    let storage_bound = stateful * Q * std::mem::size_of::<f64>() + bound;
    assert!(
        fused.distribution_memory_bytes() <= storage_bound,
        "distribution memory {} B > {storage_bound} B ({stateful} stateful of {n} nodes)",
        fused.distribution_memory_bytes(),
    );

    lat.set_kernel(Some(KernelKind::Reference));
    lat.step();
    let second_array = std::mem::size_of_val(lat.storage_f());
    assert_eq!(second_array, stateful * Q * std::mem::size_of::<f64>());
    assert_eq!(
        lat.kernel_scratch_bytes(),
        second_array,
        "reference kernel should hold exactly one extra distribution array"
    );
    apr_suite::exec::set_threads(1);
}

/// Geometry edits invalidate the fused kernel's compiled stencil: carving
/// a wall into a running lattice must keep fused == reference afterwards.
#[test]
fn geometry_changes_rebuild_the_fused_stencil() {
    let _guard = POOL_LOCK.lock().unwrap();
    apr_suite::exec::set_threads(2);
    let mut base = Lattice::new(10, 10, 10, 0.85);
    base.periodic = [true, true, true];
    base.body_force = [1e-6, 0.0, 0.0];
    let mut a = base.clone();
    a.set_kernel(Some(KernelKind::Reference));
    let mut b = base;
    b.set_kernel(Some(KernelKind::FusedSwap));
    for l in [&mut a, &mut b] {
        for _ in 0..10 {
            l.step();
        }
        // Carve a moving plate mid-run: the compiled stencil is now stale.
        for y in 0..10 {
            for x in 0..10 {
                let node = 5 * 100 + y * 10 + x;
                l.set_boundary(node, Boundary::MovingWall([0.01, 0.0, 0.0]));
            }
        }
        for _ in 0..10 {
            l.step();
        }
    }
    assert_eq!(digest(&a), digest(&b), "post-edit trajectories diverged");
    apr_suite::exec::set_threads(1);
}

//! Distributed LBM: the bulk solver running over multiple task-local
//! lattices with ghost-layer exchange — the shared-memory equivalent of
//! HARVEY's MPI decomposition (paper §2.4.4).
//!
//! Each task owns a slab of the global domain plus a one-node ghost layer
//! on each cut face. Per step: **collide** locally, **exchange**
//! post-collision distributions into neighbours' ghosts, **stream** locally
//! (pull reaches into the ghosts). The result is bit-identical to a single
//! global lattice — the equivalence test at the bottom is the proof the
//! halo protocol carries the physics.

use crate::envelope::HaloError;
use apr_lattice::{Lattice, SubStep, Q};

/// A z-slab decomposition of a global lattice into task-local lattices.
///
/// Slabs are cut along z (the long axis of tube/channel flows); each local
/// lattice is the owned slab plus one ghost plane on each cut face. The
/// global domain may be periodic in z (slab 0 neighbours the last slab).
pub struct SlabLattice {
    /// Task-local lattices (owned slab + ghost planes).
    pub locals: Vec<Lattice>,
    /// Owned z-range (global coordinates) per task: `[lo, hi)`.
    pub ranges: Vec<(usize, usize)>,
    /// Global z extent.
    pub global_nz: usize,
    /// Is the global domain periodic in z?
    pub periodic_z: bool,
}

impl SlabLattice {
    /// Split `global` into `tasks` z-slabs. The global lattice provides the
    /// initial state, flags and parameters. Slabs must be at least 2 nodes
    /// thick. Global x/y periodicity carries over; z cuts are replaced by
    /// ghost exchange.
    ///
    /// # Panics
    /// Panics if any slab would be thinner than 2 nodes.
    pub fn split(global: &Lattice, tasks: usize) -> Self {
        assert!(tasks >= 1);
        let nz = global.nz;
        let mut locals = Vec::with_capacity(tasks);
        let mut ranges = Vec::with_capacity(tasks);
        for t in 0..tasks {
            let lo = nz * t / tasks;
            let hi = nz * (t + 1) / tasks;
            assert!(hi - lo >= 2, "slab {t} too thin: {}", hi - lo);
            ranges.push((lo, hi));
            // Local extent: owned + ghost planes on faces that have a
            // neighbouring slab (domain edges keep their bounce-back role).
            let ghost_lo = usize::from(tasks > 1 && (t > 0 || global.periodic[2]));
            let ghost_hi = usize::from(tasks > 1 && (t + 1 < tasks || global.periodic[2]));
            let local_nz = (hi - lo) + ghost_lo + ghost_hi;
            let mut local = Lattice::new(global.nx, global.ny, local_nz, global.tau);
            // Halo exchange reads/writes distribution planes between the
            // collide and stream halves, which requires naturally-ordered
            // storage — pin the reference kernel regardless of APR_KERNEL.
            local.set_kernel(Some(apr_lattice::KernelKind::Reference));
            local.periodic = [
                global.periodic[0],
                global.periodic[1],
                global.periodic[2] && tasks == 1,
            ];
            local.body_force = global.body_force;
            // Copy flags + state for owned and ghost planes (wrapping z).
            for lz in 0..local_nz {
                let gz_signed = lo as i64 + lz as i64 - ghost_lo as i64;
                let gz = ((gz_signed % nz as i64) + nz as i64) % nz as i64;
                for y in 0..global.ny {
                    for x in 0..global.nx {
                        let g = global.idx(x, y, gz as usize);
                        let l = local.idx(x, y, lz);
                        local.set_flag(l, global.flag(g));
                        let mut fs = [0.0; Q];
                        fs.copy_from_slice(global.distributions(g));
                        local.set_distributions(l, &fs);
                        local.set_tau_at(l, global.tau_at(g));
                    }
                }
            }
            locals.push(local);
        }
        Self {
            locals,
            ranges,
            global_nz: nz,
            periodic_z: global.periodic[2],
        }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.locals.len()
    }

    /// Does task `t` carry a low-side (plane 0) ghost layer?
    pub(crate) fn ghost_lo(&self, t: usize) -> usize {
        usize::from(self.task_count() > 1 && (t > 0 || self.periodic_z))
    }

    /// Does task `t` carry a high-side (plane `nz-1`) ghost layer?
    pub(crate) fn ghost_hi(&self, t: usize) -> usize {
        let tasks = self.task_count();
        usize::from(tasks > 1 && (t + 1 < tasks || self.periodic_z))
    }

    fn exchange_ghosts(&mut self) -> Result<(), HaloError> {
        let tasks = self.task_count();
        if tasks == 1 {
            return Ok(());
        }
        // Gather owned boundary planes (post-collision).
        let mut low_planes = Vec::with_capacity(tasks);
        let mut high_planes = Vec::with_capacity(tasks);
        for (t, local) in self.locals.iter().enumerate() {
            low_planes.push(extract_plane(local, self.ghost_lo(t)));
            high_planes.push(extract_plane(local, local.nz - 1 - self.ghost_hi(t)));
        }
        for t in 0..tasks {
            // Fill my low ghost (plane 0) from the previous task's high
            // boundary, my high ghost from the next task's low boundary.
            let prev = (t + tasks - 1) % tasks;
            let next = (t + 1) % tasks;
            if self.ghost_lo(t) == 1 {
                let plane = high_planes[prev].clone();
                insert_plane(&mut self.locals[t], 0, &plane)?;
            }
            if self.ghost_hi(t) == 1 {
                let plane = low_planes[next].clone();
                let z = self.locals[t].nz - 1;
                insert_plane(&mut self.locals[t], z, &plane)?;
            }
        }
        Ok(())
    }

    /// Advance one global step: collide everywhere, exchange ghosts, stream.
    ///
    /// An `Err` indicates a malformed ghost plane (wrong size for the
    /// slab geometry) — a protocol bug surfaced as a typed error rather
    /// than a panic mid-step.
    pub fn step(&mut self) -> Result<(), HaloError> {
        // Rank scopes tag any telemetry recorded inside the per-rank work
        // (kernel spans, exec regions) with the owning rank, so a trace
        // shows which rank a slow span belonged to.
        for (rank, local) in self.locals.iter_mut().enumerate() {
            let _rank = apr_telemetry::rank_scope(rank as u32);
            local.advance(SubStep::Collide);
        }
        self.exchange_ghosts()?;
        for (rank, local) in self.locals.iter_mut().enumerate() {
            let _rank = apr_telemetry::rank_scope(rank as u32);
            local.advance(SubStep::Stream);
        }
        Ok(())
    }

    /// Gather the distributed state back into a global-shaped lattice
    /// (flags copied from owned planes; ghosts dropped).
    pub fn gather(&self, template: &Lattice) -> Lattice {
        let mut out = template.clone();
        let tasks = self.task_count();
        for (t, local) in self.locals.iter().enumerate() {
            let ghost = usize::from(tasks > 1 && (t > 0 || self.periodic_z));
            let (lo, hi) = self.ranges[t];
            for gz in lo..hi {
                let lz = gz - lo + ghost;
                for y in 0..local.ny {
                    for x in 0..local.nx {
                        let l = local.idx(x, y, lz);
                        let g = out.idx(x, y, gz);
                        let mut fs = [0.0; Q];
                        fs.copy_from_slice(local.distributions(l));
                        out.set_distributions(g, &fs);
                        out.rho[g] = local.rho[l];
                        for a in 0..3 {
                            out.vel[g * 3 + a] = local.vel[l * 3 + a];
                        }
                    }
                }
            }
        }
        out
    }
}

pub(crate) fn extract_plane(lat: &Lattice, z: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(lat.nx * lat.ny * Q);
    for y in 0..lat.ny {
        for x in 0..lat.nx {
            out.extend_from_slice(lat.distributions(lat.idx(x, y, z)));
        }
    }
    out
}

pub(crate) fn insert_plane(lat: &mut Lattice, z: usize, plane: &[f64]) -> Result<(), HaloError> {
    let expected = lat.nx * lat.ny * Q;
    if plane.len() != expected {
        return Err(HaloError::SizeMismatch {
            link: crate::envelope::LinkId {
                src: u32::MAX,
                dst: u32::MAX,
                tag: z.min(u8::MAX as usize) as u8,
            },
            expected,
            got: plane.len(),
        });
    }
    let mut it = plane.chunks_exact(Q);
    for y in 0..lat.ny {
        for x in 0..lat.nx {
            let mut fs = [0.0; Q];
            // Length was validated above; chunks_exact cannot run short.
            fs.copy_from_slice(it.next().unwrap());
            let node = lat.idx(x, y, z);
            lat.set_distributions(node, &fs);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_lattice::{Boundary, NodeClass};

    fn poiseuille_global() -> Lattice {
        // Walls in y, periodic x and z, force along z.
        let mut lat = Lattice::new(5, 10, 12, 0.9);
        lat.periodic = [true, false, true];
        lat.body_force = [0.0, 0.0, 2e-6];
        for z in 0..lat.nz {
            for x in 0..lat.nx {
                let bottom = lat.idx(x, 0, z);
                lat.set_boundary(bottom, Boundary::Wall);
                let top = lat.idx(x, lat.ny - 1, z);
                lat.set_boundary(top, Boundary::Wall);
            }
        }
        lat
    }

    fn assert_states_match(a: &Lattice, b: &Lattice, tol: f64) {
        for node in 0..a.node_count() {
            if a.flag(node) != NodeClass::Fluid {
                continue;
            }
            let fa = a.distributions(node);
            let fb = b.distributions(node);
            for i in 0..Q {
                assert!(
                    (fa[i] - fb[i]).abs() < tol,
                    "node {node} dir {i}: {} vs {}",
                    fa[i],
                    fb[i]
                );
            }
        }
    }

    #[test]
    fn two_slabs_match_single_lattice_exactly() {
        let mut reference = poiseuille_global();
        let mut slabs = SlabLattice::split(&reference, 2);
        for _ in 0..60 {
            reference.step();
            slabs.step().unwrap();
        }
        let gathered = slabs.gather(&reference);
        assert_states_match(&reference, &gathered, 1e-13);
    }

    #[test]
    fn four_slabs_match_single_lattice_exactly() {
        let mut reference = poiseuille_global();
        let mut slabs = SlabLattice::split(&reference, 4);
        for _ in 0..60 {
            reference.step();
            slabs.step().unwrap();
        }
        let gathered = slabs.gather(&reference);
        assert_states_match(&reference, &gathered, 1e-13);
    }

    #[test]
    fn single_task_degenerates_to_plain_lattice() {
        let mut reference = poiseuille_global();
        let mut slabs = SlabLattice::split(&reference, 1);
        for _ in 0..30 {
            reference.step();
            slabs.step().unwrap();
        }
        let gathered = slabs.gather(&reference);
        assert_states_match(&reference, &gathered, 1e-14);
    }

    #[test]
    fn nonperiodic_z_with_walls_matches() {
        // Duct closed in y and z (walls all around except x), force in x.
        let mut lat = Lattice::new(6, 8, 12, 0.9);
        lat.periodic = [true, false, false];
        lat.body_force = [2e-6, 0.0, 0.0];
        for z in 0..lat.nz {
            for x in 0..lat.nx {
                let b = lat.idx(x, 0, z);
                lat.set_boundary(b, Boundary::Wall);
                let t = lat.idx(x, lat.ny - 1, z);
                lat.set_boundary(t, Boundary::Wall);
            }
        }
        for y in 0..lat.ny {
            for x in 0..lat.nx {
                let b = lat.idx(x, y, 0);
                lat.set_boundary(b, Boundary::Wall);
                let t = lat.idx(x, y, lat.nz - 1);
                lat.set_boundary(t, Boundary::Wall);
            }
        }
        let mut reference = lat;
        let mut slabs = SlabLattice::split(&reference, 3);
        for _ in 0..40 {
            reference.step();
            slabs.step().unwrap();
        }
        let gathered = slabs.gather(&reference);
        assert_states_match(&reference, &gathered, 1e-13);
    }

    #[test]
    #[should_panic(expected = "too thin")]
    fn oversplitting_is_rejected() {
        let lat = poiseuille_global();
        let _ = SlabLattice::split(&lat, 11);
    }
}

//! Full-state serializers for the engine building blocks: lattices and
//! cell pools.
//!
//! These produce *section payloads* for the [`crate::checkpoint`]
//! container — raw codec bytes without their own magic/CRC, since the
//! container supplies both. Everything needed for a **bit-identical**
//! resume is captured:
//!
//! * Lattice: dimensions, periodicity, τ (global and per-node field),
//!   body force, step counter, distributions (the dense image: every node,
//!   whatever the lattice stores), macroscopic fields, forces.
//!   Flags/geometry are *not* stored — the restart rebuilds the domain
//!   from its generator or geometry callback, then loads state (the same
//!   contract as the v1 lattice checkpoint).
//! * Cell pool: every slot verbatim (dead slots included), the free-list
//!   stack in exact order (it decides future slot assignment and thus
//!   iteration and float-summation order), global-ID counter, lifetime
//!   counters, and per-cell vertex positions/velocities/forces.
//!
//! Membranes are shared models, not per-cell state, so cells are restored
//! against membranes supplied by a [`MembraneProvider`].

use crate::codec::{decode_f64s, ByteReader, ByteWriter};
use crate::error::GuardError;
use apr_cells::{Cell, CellKind, CellPool};
use apr_lattice::{Lattice, Q};
use apr_membrane::Membrane;
use std::sync::Arc;

/// Supplies the shared membrane model for each cell kind at restore time.
pub type MembraneProvider<'a> = &'a dyn Fn(CellKind) -> Option<Arc<Membrane>>;

/// Serialize a lattice's complete fluid state.
pub fn write_lattice(lat: &Lattice) -> Vec<u8> {
    let mut w = ByteWriter::new();
    // Distributions dominate; one exact-ish reservation avoids doubling
    // reallocs copying megabytes of already-written payload.
    let nodes = lat.node_count();
    w.reserve(nodes * (Q + 8) * 8 + 256);
    w.usize(lat.nx);
    w.usize(lat.ny);
    w.usize(lat.nz);
    for a in 0..3 {
        w.bool(lat.periodic[a]);
    }
    w.f64(lat.tau);
    for a in 0..3 {
        w.f64(lat.body_force[a]);
    }
    w.u64(lat.steps_taken());
    // Raw slot-order storage (not per-direction accessors): the engine may
    // checkpoint between the halves of a step, when the fused kernel holds
    // fluid nodes direction-reversed. The phase flags written at the end
    // let the restore validate it lands on a compatible kernel. The image
    // is dense — every node, unstored ones at the rest state they read —
    // and streamed from the compact storage run by run.
    w.usize(nodes * Q);
    lat.storage_image(|run| w.f64_run(run));
    w.f64s(&lat.rho);
    w.f64s(&lat.vel);
    w.f64s(&lat.force);
    match lat.tau_field() {
        Some(field) => {
            w.bool(true);
            w.f64s(field);
        }
        None => w.bool(false),
    }
    w.bool(lat.mid_step());
    w.bool(lat.swap_parity());
    w.into_bytes()
}

/// Restore lattice state written by [`write_lattice`] into `lat`, which
/// must already have the same dimensions and geometry flags.
pub fn read_lattice(lat: &mut Lattice, r: &mut ByteReader<'_>) -> Result<(), GuardError> {
    let (nx, ny, nz) = (r.usize()?, r.usize()?, r.usize()?);
    if nx != lat.nx || ny != lat.ny || nz != lat.nz {
        return Err(GuardError::Format(format!(
            "lattice dimension mismatch: checkpoint {nx}x{ny}x{nz} vs live {}x{}x{}",
            lat.nx, lat.ny, lat.nz
        )));
    }
    for a in 0..3 {
        lat.periodic[a] = r.bool()?;
    }
    lat.tau = r.f64()?;
    for a in 0..3 {
        lat.body_force[a] = r.f64()?;
    }
    lat.set_steps_taken(r.u64()?);
    let n = lat.node_count();
    // Borrowed, not decoded: the restore reads the image straight into
    // the lattice's compact storage, so no dense array is allocated.
    let f = r.f64_bytes()?;
    if f.len() != n * Q * 8 {
        return Err(GuardError::Format(format!(
            "distribution count {} != {}",
            f.len() / 8,
            n * Q
        )));
    }
    lat.rho = read_field(r, n, "rho")?;
    lat.vel = read_field(r, n * 3, "vel")?;
    lat.force = read_field(r, n * 3, "force")?;
    lat.set_tau_field(if r.bool()? {
        Some(read_field(r, n, "tau field")?)
    } else {
        None
    });
    let pending = r.bool()?;
    let parity = r.bool()?;
    let image = |nodes: std::ops::Range<usize>, out: &mut [f64]| {
        decode_f64s(&f[nodes.start * Q * 8..nodes.end * Q * 8], out)
    };
    lat.restore_storage(image, pending, parity)
        .map_err(GuardError::Format)?;
    Ok(())
}

fn read_field(r: &mut ByteReader<'_>, expect: usize, name: &str) -> Result<Vec<f64>, GuardError> {
    let v = r.f64s()?;
    if v.len() != expect {
        return Err(GuardError::Format(format!(
            "{name} length {} != expected {expect}",
            v.len()
        )));
    }
    Ok(v)
}

fn kind_to_u8(kind: CellKind) -> u8 {
    match kind {
        CellKind::Rbc => 0,
        CellKind::Ctc => 1,
    }
}

fn kind_from_u8(b: u8) -> Result<CellKind, GuardError> {
    match b {
        0 => Ok(CellKind::Rbc),
        1 => Ok(CellKind::Ctc),
        other => Err(GuardError::Format(format!(
            "unknown cell kind byte {other:#04x}"
        ))),
    }
}

/// Serialize a cell pool's complete layout and per-cell state.
pub fn write_pool(pool: &CellPool) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.usize(pool.capacity());
    for slot in 0..pool.capacity() {
        match pool.get(slot) {
            Some(cell) => {
                w.bool(true);
                w.u64(cell.id);
                w.u8(kind_to_u8(cell.kind));
                w.vec3s(&cell.vertices);
                w.vec3s(&cell.velocities);
                w.vec3s(&cell.forces);
            }
            None => w.bool(false),
        }
    }
    let free: Vec<u64> = pool.free_slots().iter().map(|&s| s as u64).collect();
    w.usize(free.len());
    for s in free {
        w.u64(s);
    }
    w.u64(pool.next_id());
    w.usize(pool.peak_live());
    w.u64(pool.total_inserted());
    w.u64(pool.total_removed());
    w.into_bytes()
}

/// Rebuild a pool written by [`write_pool`]. `membranes` supplies the
/// shared membrane model per cell kind; a stored kind with no model is a
/// [`GuardError::MissingContext`].
pub fn read_pool(
    r: &mut ByteReader<'_>,
    membranes: MembraneProvider<'_>,
) -> Result<CellPool, GuardError> {
    let capacity = r.usize()?;
    let mut slots: Vec<Option<Cell>> = Vec::with_capacity(capacity);
    for _ in 0..capacity {
        if !r.bool()? {
            slots.push(None);
            continue;
        }
        let id = r.u64()?;
        let kind = kind_from_u8(r.u8()?)?;
        let vertices = r.vec3s()?;
        let velocities = r.vec3s()?;
        let forces = r.vec3s()?;
        let membrane = membranes(kind).ok_or_else(|| {
            GuardError::MissingContext(format!("no membrane model for stored {kind:?} cell {id}"))
        })?;
        if vertices.len() != membrane.reference.vertex_count
            || velocities.len() != vertices.len()
            || forces.len() != vertices.len()
        {
            return Err(GuardError::Format(format!(
                "cell {id}: vertex arrays ({}, {}, {}) inconsistent with membrane ({})",
                vertices.len(),
                velocities.len(),
                forces.len(),
                membrane.reference.vertex_count
            )));
        }
        slots.push(Some(Cell::from_parts(
            id, kind, membrane, vertices, velocities, forces,
        )));
    }
    let free_len = r.usize()?;
    let mut free = Vec::with_capacity(free_len);
    for _ in 0..free_len {
        free.push(r.u64()? as usize);
    }
    let next_id = r.u64()?;
    let peak_live = r.usize()?;
    let total_inserted = r.u64()?;
    let total_removed = r.u64()?;
    // Validate layout consistency ourselves so corruption surfaces as a
    // typed error instead of from_raw_parts' panic.
    let empty = slots.iter().filter(|s| s.is_none()).count();
    if free.len() != empty
        || free.iter().any(|&s| s >= slots.len() || slots[s].is_some())
        || slots.iter().flatten().any(|c| c.id >= next_id)
    {
        return Err(GuardError::Format("pool layout inconsistent".into()));
    }
    {
        let mut seen = vec![false; slots.len()];
        for &s in &free {
            if seen[s] {
                return Err(GuardError::Format(format!("free slot {s} listed twice")));
            }
            seen[s] = true;
        }
    }
    Ok(CellPool::from_raw_parts(
        slots,
        free,
        next_id,
        peak_live,
        total_inserted,
        total_removed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_lattice::couette_channel;
    use apr_membrane::{MembraneMaterial, ReferenceState};
    use apr_mesh::{icosphere, Vec3};

    #[test]
    fn lattice_state_round_trips_bit_exactly() {
        let mut a = couette_channel(6, 10, 6, 0.9, 0.03);
        a.set_tau_at(17, 0.95);
        for _ in 0..40 {
            a.step();
        }
        let blob = write_lattice(&a);
        let mut b = couette_channel(6, 10, 6, 0.9, 0.03);
        read_lattice(&mut b, &mut ByteReader::new(&blob)).unwrap();
        assert_eq!(b.steps_taken(), a.steps_taken());
        assert_eq!(b.tau_field().unwrap()[17], 0.95);
        for node in 0..a.node_count() {
            assert_eq!(a.distributions(node), b.distributions(node), "node {node}");
        }
        assert_eq!(a.rho, b.rho);
        assert_eq!(a.vel, b.vel);
    }

    #[test]
    fn lattice_dimension_mismatch_is_typed() {
        let a = couette_channel(6, 10, 6, 0.9, 0.03);
        let blob = write_lattice(&a);
        let mut b = couette_channel(8, 10, 6, 0.9, 0.03);
        assert!(matches!(
            read_lattice(&mut b, &mut ByteReader::new(&blob)),
            Err(GuardError::Format(_))
        ));
    }

    fn membrane() -> Arc<Membrane> {
        let mesh = icosphere(1, 1.0);
        let re = Arc::new(ReferenceState::build(&mesh));
        Arc::new(Membrane::new(re, MembraneMaterial::rbc(1.0, 0.01)))
    }

    #[test]
    fn pool_round_trip_preserves_ids_layout_and_state() {
        let mem = membrane();
        let verts = icosphere(1, 1.0).vertices;
        let mut pool = CellPool::with_capacity(4);
        let (s0, _) = pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), verts.clone());
        let (_, ctc_id) = pool.insert_shape(CellKind::Ctc, Arc::clone(&mem), verts.clone());
        pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), verts.clone());
        pool.remove(s0);
        // Give a surviving cell distinctive dynamic state.
        if let Some(c) = pool.get_mut(1) {
            c.velocities[0] = Vec3::new(0.5, -0.25, 0.125);
            c.forces[2] = Vec3::splat(1e-3);
        }

        let blob = write_pool(&pool);
        let provider = move |_: CellKind| Some(Arc::clone(&mem));
        let mut back = read_pool(&mut ByteReader::new(&blob), &provider).unwrap();

        assert_eq!(back.live_count(), pool.live_count());
        assert_eq!(back.next_id(), pool.next_id());
        assert_eq!(back.free_slots(), pool.free_slots());
        assert_eq!(back.total_inserted(), pool.total_inserted());
        assert!(back.find_by_id(ctc_id).is_some());
        let c = back.get(1).unwrap();
        assert_eq!(c.velocities[0], Vec3::new(0.5, -0.25, 0.125));
        assert_eq!(c.forces[2], Vec3::splat(1e-3));
        // Future insertions behave identically (free-list order preserved).
        let m2 = membrane();
        let (slot, _) = back.insert_shape(CellKind::Rbc, m2, verts);
        assert_eq!(slot, s0, "restored pool must reuse the same freed slot");
    }

    #[test]
    fn missing_membrane_is_a_context_error() {
        let mem = membrane();
        let verts = icosphere(1, 1.0).vertices;
        let mut pool = CellPool::with_capacity(2);
        pool.insert_shape(CellKind::Ctc, mem, verts);
        let blob = write_pool(&pool);
        let provider = |_: CellKind| None;
        assert!(matches!(
            read_pool(&mut ByteReader::new(&blob), &provider),
            Err(GuardError::MissingContext(_))
        ));
    }
}

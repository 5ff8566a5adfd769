//! Pooled cell storage (paper §2.4.5, "Cell Memory Management").
//!
//! "We allocated all the necessary memory for cells, with additional space
//! for other cells, at the beginning of the simulation" — cells continuously
//! enter and leave the window and migrate between tasks, so per-event heap
//! traffic would dominate. [`CellPool`] keeps every cell slot alive: removal
//! marks the slot free and pushes it onto a free list; insertion reuses a
//! slot and overwrites its buffers in place (the paper's buffer shifting).

use crate::cell::{Cell, CellId, CellKind};
use apr_membrane::Membrane;
use apr_mesh::Vec3;
use std::sync::Arc;

/// Slot index inside a [`CellPool`] (invalidated by removal).
pub type SlotIndex = usize;

/// Cell slots per exec chunk in the parallel helpers. Fixed (never derived
/// from the thread count) so chunk layout — and with it floating-point
/// reduction order — is identical for any `APR_THREADS`.
const SLOT_CHUNK: usize = 16;

/// Fixed-capacity pool of live cells with slot reuse and stable global IDs.
#[derive(Debug, Clone)]
pub struct CellPool {
    slots: Vec<Option<Cell>>,
    free: Vec<SlotIndex>,
    next_id: CellId,
    peak_live: usize,
    total_inserted: u64,
    total_removed: u64,
}

impl CellPool {
    /// New pool with `capacity` preallocated slots.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: (0..capacity).map(|_| None).collect(),
            free: (0..capacity).rev().collect(),
            next_id: 0,
            peak_live: 0,
            total_inserted: 0,
            total_removed: 0,
        }
    }

    /// Number of live cells.
    pub fn live_count(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Highest simultaneous live count observed.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Lifetime insertion count.
    pub fn total_inserted(&self) -> u64 {
        self.total_inserted
    }

    /// Lifetime removal count.
    pub fn total_removed(&self) -> u64 {
        self.total_removed
    }

    /// Reserve and return the next global cell ID without inserting.
    pub fn allocate_id(&mut self) -> CellId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Insert a cell built from explicit shape vertices; returns
    /// `(slot, id)`. Grows the pool (doubling) if no slot is free — growth
    /// is amortized and logged via `capacity()` so sizing can be tuned.
    pub fn insert_shape(
        &mut self,
        kind: CellKind,
        membrane: Arc<Membrane>,
        vertices: Vec<Vec3>,
    ) -> (SlotIndex, CellId) {
        let id = self.allocate_id();
        let cell = Cell::with_shape(id, kind, membrane, vertices);
        let slot = self.claim_slot();
        self.slots[slot] = Some(cell);
        self.total_inserted += 1;
        self.peak_live = self.peak_live.max(self.live_count());
        (slot, id)
    }

    /// Insert an existing cell object (e.g. a deep copy made during a window
    /// move, paper §2.4.3), assigning it a fresh ID.
    pub fn insert_cell(&mut self, mut cell: Cell) -> (SlotIndex, CellId) {
        let id = self.allocate_id();
        cell.id = id;
        let slot = self.claim_slot();
        self.slots[slot] = Some(cell);
        self.total_inserted += 1;
        self.peak_live = self.peak_live.max(self.live_count());
        (slot, id)
    }

    fn claim_slot(&mut self) -> SlotIndex {
        match self.free.pop() {
            Some(slot) => slot,
            None => {
                let old = self.slots.len();
                let new_cap = (old * 2).max(8);
                self.slots.resize_with(new_cap, || None);
                self.free.extend((old + 1..new_cap).rev());
                old
            }
        }
    }

    /// Remove the cell in `slot`, freeing it for reuse. Returns the cell.
    ///
    /// # Panics
    /// Panics if the slot is already empty.
    pub fn remove(&mut self, slot: SlotIndex) -> Cell {
        let cell = self.slots[slot].take().expect("slot already empty");
        self.free.push(slot);
        self.total_removed += 1;
        cell
    }

    /// Remove every live cell for which `predicate` returns true; returns
    /// the removed cells.
    pub fn remove_where<F: FnMut(&Cell) -> bool>(&mut self, mut predicate: F) -> Vec<Cell> {
        let mut removed = Vec::new();
        for slot in 0..self.slots.len() {
            let matches = self.slots[slot].as_ref().is_some_and(&mut predicate);
            if matches {
                removed.push(self.remove(slot));
            }
        }
        removed
    }

    /// Borrow the cell in `slot` if live.
    pub fn get(&self, slot: SlotIndex) -> Option<&Cell> {
        self.slots.get(slot).and_then(|s| s.as_ref())
    }

    /// Mutably borrow the cell in `slot` if live.
    pub fn get_mut(&mut self, slot: SlotIndex) -> Option<&mut Cell> {
        self.slots.get_mut(slot).and_then(|s| s.as_mut())
    }

    /// Find a live cell by global ID (linear scan).
    pub fn find_by_id(&self, id: CellId) -> Option<&Cell> {
        self.iter().find(|c| c.id == id)
    }

    /// Iterate over live cells.
    pub fn iter(&self) -> impl Iterator<Item = &Cell> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Iterate mutably over live cells.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Cell> {
        self.slots.iter_mut().filter_map(|s| s.as_mut())
    }

    /// Apply `f` to every live cell on the exec pool — membrane force
    /// evaluation across hundreds of cells is the per-substep hot loop.
    /// Each cell is written by exactly one lane, so the result is
    /// independent of the thread count.
    pub fn par_for_each_mut(&mut self, f: impl Fn(&mut Cell) + Sync) {
        self.par_for_each_slot_mut(|_, cell| f(cell));
    }

    /// [`CellPool::par_for_each_mut`] that also hands `f` each cell's slot.
    pub fn par_for_each_slot_mut(&mut self, f: impl Fn(SlotIndex, &mut Cell) + Sync) {
        apr_exec::current().par_for_chunks_mut(&mut self.slots, SLOT_CHUNK, |chunk, part| {
            for (k, slot) in part.iter_mut().enumerate() {
                if let Some(cell) = slot.as_mut() {
                    f(chunk * SLOT_CHUNK + k, cell);
                }
            }
        });
    }

    /// Iterate over `(slot, cell)` pairs of live cells.
    pub fn iter_slots(&self) -> impl Iterator<Item = (SlotIndex, &Cell)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|c| (i, c)))
    }

    /// Sum of live-cell volumes (for hematocrit accounting).
    pub fn total_cell_volume(&self) -> f64 {
        self.iter().map(|c| c.volume()).sum()
    }

    // --- checkpoint support -------------------------------------------------
    //
    // The free list is a stack: its exact order decides which slot the next
    // insertion lands in, which decides cell iteration order, which decides
    // floating-point summation order in force spreading. A bit-identical
    // resume therefore has to restore the free list verbatim, not merely a
    // set-equivalent one.

    /// The free-slot stack, top last (checkpoint serialization).
    pub fn free_slots(&self) -> &[SlotIndex] {
        &self.free
    }

    /// Next global ID to be assigned (checkpoint serialization).
    pub fn next_id(&self) -> CellId {
        self.next_id
    }

    /// Rebuild a pool from checkpointed layout: slots (dead ones `None`),
    /// the free stack in its exact saved order, and all counters.
    ///
    /// # Panics
    /// Panics if the free list is inconsistent with the slot occupancy or
    /// `next_id` does not exceed every live ID — a corrupted layout must
    /// not produce a silently wrong pool.
    pub fn from_raw_parts(
        slots: Vec<Option<Cell>>,
        free: Vec<SlotIndex>,
        next_id: CellId,
        peak_live: usize,
        total_inserted: u64,
        total_removed: u64,
    ) -> Self {
        let mut seen = vec![false; slots.len()];
        for &slot in &free {
            assert!(slot < slots.len(), "free slot {slot} out of range");
            assert!(slots[slot].is_none(), "free slot {slot} is occupied");
            assert!(!seen[slot], "free slot {slot} listed twice");
            seen[slot] = true;
        }
        let empty = slots.iter().filter(|s| s.is_none()).count();
        assert_eq!(
            free.len(),
            empty,
            "free list does not cover every empty slot"
        );
        for cell in slots.iter().flatten() {
            assert!(
                cell.id < next_id,
                "live id {} >= next_id {next_id}",
                cell.id
            );
        }
        Self {
            slots,
            free,
            next_id,
            peak_live,
            total_inserted,
            total_removed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_membrane::{MembraneMaterial, ReferenceState};
    use apr_mesh::icosphere;

    fn membrane() -> (Arc<Membrane>, Vec<Vec3>) {
        let mesh = icosphere(1, 1.0);
        let re = Arc::new(ReferenceState::build(&mesh));
        (
            Arc::new(Membrane::new(re, MembraneMaterial::rbc(1.0, 0.01))),
            mesh.vertices,
        )
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let (mem, verts) = membrane();
        let mut pool = CellPool::with_capacity(4);
        let (_, id0) = pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), verts.clone());
        let (s1, id1) = pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), verts.clone());
        pool.remove(s1);
        let (_, id2) = pool.insert_shape(CellKind::Rbc, mem, verts);
        assert!(id0 < id1 && id1 < id2, "IDs must never be reused");
    }

    #[test]
    fn slots_are_reused() {
        let (mem, verts) = membrane();
        let mut pool = CellPool::with_capacity(2);
        let (s0, _) = pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), verts.clone());
        pool.remove(s0);
        let (s1, _) = pool.insert_shape(CellKind::Rbc, mem, verts);
        assert_eq!(s0, s1, "freed slot must be reused before growing");
        assert_eq!(pool.capacity(), 2);
    }

    #[test]
    fn pool_grows_when_exhausted() {
        let (mem, verts) = membrane();
        let mut pool = CellPool::with_capacity(1);
        pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), verts.clone());
        pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), verts.clone());
        pool.insert_shape(CellKind::Rbc, mem, verts);
        assert_eq!(pool.live_count(), 3);
        assert!(pool.capacity() >= 3);
    }

    #[test]
    fn remove_where_filters_by_predicate() {
        let (mem, verts) = membrane();
        let mut pool = CellPool::with_capacity(8);
        for i in 0..5 {
            let (slot, _) = pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), verts.clone());
            pool.get_mut(slot)
                .unwrap()
                .translate(Vec3::new(i as f64 * 10.0, 0.0, 0.0));
        }
        let removed = pool.remove_where(|c| c.centroid().x > 25.0);
        assert_eq!(removed.len(), 2);
        assert_eq!(pool.live_count(), 3);
        assert_eq!(pool.total_removed(), 2);
    }

    #[test]
    fn counters_track_churn() {
        let (mem, verts) = membrane();
        let mut pool = CellPool::with_capacity(4);
        let (s0, _) = pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), verts.clone());
        let (_, _) = pool.insert_shape(CellKind::Ctc, Arc::clone(&mem), verts.clone());
        assert_eq!(pool.peak_live(), 2);
        pool.remove(s0);
        pool.insert_shape(CellKind::Rbc, mem, verts);
        assert_eq!(pool.total_inserted(), 3);
        assert_eq!(pool.total_removed(), 1);
        assert_eq!(pool.peak_live(), 2);
    }

    #[test]
    fn find_by_id_locates_cells() {
        let (mem, verts) = membrane();
        let mut pool = CellPool::with_capacity(4);
        let (_, id) = pool.insert_shape(CellKind::Ctc, mem, verts);
        assert!(pool.find_by_id(id).is_some());
        assert!(pool.find_by_id(id + 1).is_none());
    }

    #[test]
    fn raw_parts_round_trip_preserves_layout() {
        let (mem, verts) = membrane();
        let mut pool = CellPool::with_capacity(4);
        let (s0, _) = pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), verts.clone());
        let (_, _) = pool.insert_shape(CellKind::Ctc, Arc::clone(&mem), verts.clone());
        pool.remove(s0); // free list now ends with s0: next insert reuses it
        let slots: Vec<Option<Cell>> = (0..pool.capacity()).map(|s| pool.get(s).cloned()).collect();
        let mut rebuilt = CellPool::from_raw_parts(
            slots,
            pool.free_slots().to_vec(),
            pool.next_id(),
            pool.peak_live(),
            pool.total_inserted(),
            pool.total_removed(),
        );
        assert_eq!(rebuilt.live_count(), pool.live_count());
        assert_eq!(rebuilt.next_id(), pool.next_id());
        assert_eq!(rebuilt.total_removed(), 1);
        // The next insertion must claim the same slot and ID as the
        // original pool would.
        let (slot_a, id_a) = pool.insert_shape(CellKind::Rbc, Arc::clone(&mem), verts.clone());
        let (slot_b, id_b) = rebuilt.insert_shape(CellKind::Rbc, mem, verts);
        assert_eq!((slot_a, id_a), (slot_b, id_b));
    }

    #[test]
    #[should_panic(expected = "free list does not cover")]
    fn inconsistent_raw_parts_rejected() {
        let pool = CellPool::with_capacity(2);
        let slots: Vec<Option<Cell>> = (0..2).map(|_| None).collect();
        // Claims only one free slot for two empty slots.
        let _ = CellPool::from_raw_parts(slots, vec![0], pool.next_id(), 0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "slot already empty")]
    fn double_remove_panics() {
        let (mem, verts) = membrane();
        let mut pool = CellPool::with_capacity(2);
        let (s, _) = pool.insert_shape(CellKind::Rbc, mem, verts);
        pool.remove(s);
        pool.remove(s);
    }
}

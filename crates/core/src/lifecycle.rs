//! Engine lifecycle: engines as `Send` state machines.
//!
//! The serve scheduler drives many concurrent simulations over a bounded
//! worker budget by **checkpoint-preempt-resume**: an engine runs a slice
//! of steps, is suspended to an in-memory checkpoint blob, parked, and
//! later resumed — possibly on a different worker thread. [`SimSession`]
//! is the contract that makes this possible: instead of owning a run
//! loop, an engine exposes explicit `step_n` / `suspend` / `resume` and
//! is `Send`, so ownership can migrate between scheduler workers.
//!
//! The determinism guarantee the scheduler leans on: `suspend` captures
//! the *complete* state ([`crate::guardian`]'s bit-identical contract),
//! and stepping is bit-identical for any worker-lane count (`apr-exec`'s
//! determinism contract), so a session preempted N times produces a
//! final state byte-identical to the same scenario run straight through.
//!
//! Membrane models and geometry callbacks are code, not state: `resume`
//! must be called on an engine built by the same recipe as the one that
//! produced the blob. Both engines capture the membrane models handed to
//! their cell-insertion methods so `resume` needs no extra arguments.

use crate::apr::AprEngine;
use crate::efsi::EfsiEngine;
use crate::guardian::{restore_efsi, restore_engine, save_efsi, save_engine};
use apr_cells::CellKind;
use apr_guard::GuardError;

/// A checkpointable, preemptible simulation: the unit the serve scheduler
/// time-slices. `Send` is part of the contract — a suspended session's
/// engine shell may be dropped and a new one resumed on another thread.
pub trait SimSession: Send {
    /// Advance `n` steps; returns lattice site updates performed during
    /// the call (the cost proxy the service meters slices by).
    fn step_n(&mut self, n: u64) -> u64;

    /// Steps taken since construction (restored by [`SimSession::resume`]).
    fn steps(&self) -> u64;

    /// Cumulative site updates — comparable across engine types.
    fn site_updates(&self) -> u64;

    /// Capture the complete engine state as a checkpoint blob. The engine
    /// is untouched and can keep stepping; a blob taken at a step boundary
    /// is bit-identical across worker-lane counts and kernel variants.
    fn suspend(&self) -> Vec<u8>;

    /// Replace this engine's state with `blob`'s. The engine must have
    /// been built by the same recipe (dimensions, generators, geometry
    /// callback, insertion context) as the blob's producer.
    fn resume(&mut self, blob: &[u8]) -> Result<(), GuardError>;
}

impl SimSession for AprEngine {
    fn step_n(&mut self, n: u64) -> u64 {
        let before = self.site_updates;
        for _ in 0..n {
            self.step();
        }
        self.site_updates - before
    }

    fn steps(&self) -> u64 {
        AprEngine::steps(self)
    }

    fn site_updates(&self) -> u64 {
        AprEngine::site_updates(self)
    }

    fn suspend(&self) -> Vec<u8> {
        save_engine(self)
    }

    fn resume(&mut self, blob: &[u8]) -> Result<(), GuardError> {
        let ctc = self.ctc_membrane.clone();
        restore_engine(self, blob, ctc.as_ref())
    }
}

impl SimSession for EfsiEngine {
    fn step_n(&mut self, n: u64) -> u64 {
        let before = self.site_updates;
        for _ in 0..n {
            self.step();
        }
        self.site_updates - before
    }

    fn steps(&self) -> u64 {
        EfsiEngine::steps(self)
    }

    fn site_updates(&self) -> u64 {
        EfsiEngine::site_updates(self)
    }

    fn suspend(&self) -> Vec<u8> {
        save_efsi(self)
    }

    fn resume(&mut self, blob: &[u8]) -> Result<(), GuardError> {
        let membranes = self.membranes.clone();
        let provider = move |kind: CellKind| match kind {
            CellKind::Rbc => membranes[0].clone(),
            CellKind::Ctc => membranes[1].clone(),
        };
        restore_efsi(self, blob, &provider)
    }
}

// The scheduler moves engines between worker threads; losing `Send` on
// either engine is a compile error here, not a runtime surprise.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<AprEngine>();
    assert_send::<EfsiEngine>();
    const fn assert_boxable(_: &dyn Fn() -> Box<dyn SimSession>) {}
    _ = assert_boxable;
};

#[cfg(test)]
mod tests {
    use super::*;
    use apr_cells::ContactParams;
    use apr_lattice::couette_channel;
    use apr_membrane::{Membrane, MembraneMaterial, ReferenceState};
    use apr_mesh::{icosphere, Vec3};
    use std::sync::Arc;

    fn shear_session() -> EfsiEngine {
        let lat = couette_channel(16, 12, 12, 1.0, 0.03);
        let mut eng = EfsiEngine::new(
            lat,
            4,
            ContactParams {
                cutoff: 1.0,
                strength: 1e-4,
            },
        );
        let mesh = icosphere(1, 2.0);
        let mem = Arc::new(Membrane::new(
            Arc::new(ReferenceState::build(&mesh)),
            MembraneMaterial::rbc(1e-3, 1e-5),
        ));
        let verts: Vec<Vec3> = mesh
            .vertices
            .iter()
            .map(|&v| v + Vec3::new(8.0, 6.0, 6.0))
            .collect();
        eng.add_cell(CellKind::Rbc, mem, verts);
        eng
    }

    #[test]
    fn suspend_resume_round_trip_is_bit_identical() {
        let mut a = shear_session();
        let mut b = shear_session();
        a.step_n(5);
        // Park A mid-run, continue it in a fresh shell (B), and compare
        // against stepping A straight through.
        let parked = SimSession::suspend(&a);
        b.resume(&parked).unwrap();
        assert_eq!(SimSession::steps(&b), 5);
        a.step_n(5);
        b.step_n(5);
        assert_eq!(SimSession::suspend(&a), SimSession::suspend(&b));
        assert_eq!(SimSession::site_updates(&a), SimSession::site_updates(&b));
    }

    #[test]
    fn step_n_reports_site_updates() {
        let mut eng = shear_session();
        let sites = eng.step_n(3);
        assert_eq!(sites, SimSession::site_updates(&eng));
        assert_eq!(SimSession::steps(&eng), 3);
        assert!(sites > 0);
    }

    #[test]
    fn sessions_are_object_safe_and_movable() {
        let mut boxed: Box<dyn SimSession> = Box::new(shear_session());
        boxed.step_n(2);
        let handle = std::thread::spawn(move || {
            boxed.step_n(1);
            boxed.steps()
        });
        assert_eq!(handle.join().unwrap(), 3);
    }
}

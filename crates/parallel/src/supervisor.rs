//! Rank supervision, buddy checkpointing, and deterministic rank-loss
//! recovery for the distributed LBM.
//!
//! [`ResilientSlabLattice`] wraps [`SlabLattice`] in the fault-tolerance
//! layer a multi-day campaign needs:
//!
//! * **Sealed plane exchange** — ghost planes travel as [`SealedSlab`]
//!   envelopes (epoch + sequence + CRC32) over per-link queues, carrying
//!   only the five D3Q19 populations that actually cross each z-face
//!   (pull streaming reads nothing else from a ghost plane), a 19→5
//!   payload reduction that keeps the checksum overhead inside the
//!   resilience budget. Validation failures are NACKed and resent from
//!   retained buffers with exponential backoff; exhaustion freezes the
//!   ghost and records a [`HealthIssue::HaloDegraded`] instead of
//!   aborting.
//! * **Rank supervision** — every rank's collide/stream runs inside
//!   `catch_unwind`; a panic marks the rank dead instead of tearing down
//!   the process. Per-rank heartbeats (last completed step) detect hung
//!   ranks after a configurable patience.
//! * **Buddy checkpointing** — every `checkpoint_interval` clean steps
//!   each rank serializes its lattice into a CRC-protected checkpoint
//!   container and replicates the blob to its neighbour `(rank+1) % n`.
//! * **Deterministic recovery** — on rank loss the supervisor restores
//!   the dead rank from its buddy replica, rolls *all* ranks back to the
//!   common checkpoint epoch, and replays forward. Because chaos faults
//!   are one-shot and every step is deterministic, the recovered run is
//!   **bit-identical** to a failure-free run — the headline property the
//!   `rank_recovery` integration test asserts at multiple thread counts.

use crate::chaos::ChaosPlan;
use crate::distributed_lbm::SlabLattice;
use crate::envelope::{HaloError, LinkId, SealedSlab};
use apr_guard::{read_lattice, write_lattice, CheckpointReader, CheckpointWriter, GuardError};
use apr_guard::{HealthIssue, HealthReport};
use apr_lattice::{Lattice, SubStep, C};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Resend attempts per plane before its ghost freezes.
const MAX_RESENDS: u32 = 3;
/// Backoff before re-receiving after the first resend; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_micros(20);

/// Tunables for the resilience layer.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Take a buddy checkpoint every this many *clean* steps.
    pub checkpoint_interval: u64,
    /// Recovery budget for the whole run; exceeding it is the only way
    /// the supervisor gives up.
    pub max_recoveries: u32,
    /// Stalled heartbeat steps before a hung rank is declared dead.
    pub hang_patience: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            checkpoint_interval: 8,
            max_recoveries: 8,
            hang_patience: 2,
        }
    }
}

/// Terminal failures — everything transient is healed internally.
#[derive(Debug)]
pub enum ResilienceError {
    /// The recovery budget ran out.
    RecoveryExhausted {
        /// Step at which the budget was exceeded.
        step: u64,
        /// Recoveries performed.
        recoveries: u32,
    },
    /// A buddy replica failed its container/CRC validation.
    ReplicaCorrupt {
        /// Rank whose replica was damaged.
        rank: usize,
        /// The underlying guard error.
        source: GuardError,
    },
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilienceError::RecoveryExhausted { step, recoveries } => {
                write!(
                    f,
                    "recovery budget exhausted at step {step} after {recoveries} recoveries"
                )
            }
            ResilienceError::ReplicaCorrupt { rank, source } => {
                write!(f, "buddy replica for rank {rank} is corrupt: {source}")
            }
        }
    }
}

impl std::error::Error for ResilienceError {}

/// What one supervised step did.
#[derive(Debug, Clone, Default)]
pub struct StepOutcome {
    /// Step completed (1-based).
    pub step: u64,
    /// True when every rank participated and every ghost plane was
    /// filled from a validated message.
    pub clean: bool,
    /// Ghost planes frozen at stale contents this step.
    pub frozen_faces: u32,
    /// Sealed-plane resends this step.
    pub resends: u32,
    /// Ranks restored from buddy replicas before this step ran.
    pub recovered: Vec<usize>,
}

/// One directed sealed-plane link between neighbouring ranks.
struct PlaneLink {
    src: usize,
    dst: usize,
    /// 0 = fills dst's low ghost (plane 0), 1 = fills dst's high ghost.
    tag: u8,
    /// Slabs posted and not yet received. Sender and receiver run in
    /// sequence on the supervisor's thread, so the wire is a queue.
    queue: VecDeque<SealedSlab>,
    /// Last sealed slab, kept for NACK-driven resend.
    retained: Option<SealedSlab>,
    /// Slab withheld by a Delay fault until the first resend request.
    delayed: Option<SealedSlab>,
}

/// The D3Q19 populations with `c_z == dz` — the only ones a ghost plane
/// on that side must supply to pull streaming.
fn crossing_dirs(dz: i32) -> [usize; 5] {
    let mut out = [0usize; 5];
    let mut k = 0;
    for (i, c) in C.iter().enumerate() {
        if c[2] == dz {
            out[k] = i;
            k += 1;
        }
    }
    assert_eq!(k, 5, "D3Q19 has exactly five populations per z-face");
    out
}

/// [`SlabLattice`] wrapped in sealed halos, rank supervision, buddy
/// checkpoints, and rollback-and-replay recovery.
pub struct ResilientSlabLattice {
    slabs: SlabLattice,
    /// Pristine per-rank lattices (geometry + initial state) used to
    /// respawn a rank before restoring checkpoint state into it.
    templates: Vec<Lattice>,
    cfg: ResilienceConfig,
    chaos: ChaosPlan,
    links: Vec<PlaneLink>,
    dirs_up: [usize; 5],
    dirs_down: [usize; 5],
    /// Steps completed (external count; replay does not inflate it).
    step: u64,
    /// Exchange rounds completed (grows during replay — each exchange is
    /// a genuinely new set of messages).
    rounds: u64,
    /// Step of the last buddy checkpoint (0 = initial state).
    epoch: u64,
    own_ckpt: Vec<Option<Arc<Vec<u8>>>>,
    /// `buddy_ckpt[h]` is the replica of rank `(h + n - 1) % n` that
    /// rank `h` holds in memory for its buddy.
    buddy_ckpt: Vec<Option<Arc<Vec<u8>>>>,
    /// Last step each rank completed (the heartbeat).
    heartbeats: Vec<u64>,
    stalls: Vec<u64>,
    dead: Vec<bool>,
    dead_reason: Vec<&'static str>,
    /// Rank is stalled through this step (0 = running).
    hung_until: Vec<u64>,
    recoveries: u32,
    rollbacks: u64,
    issues: Vec<HealthIssue>,
}

impl ResilientSlabLattice {
    /// Split `global` into `tasks` supervised z-slabs.
    pub fn split(global: &Lattice, tasks: usize, cfg: ResilienceConfig) -> Self {
        let slabs = SlabLattice::split(global, tasks);
        let templates = slabs.locals.clone();
        let mut links = Vec::new();
        for dst in 0..tasks {
            let prev = (dst + tasks - 1) % tasks;
            let next = (dst + 1) % tasks;
            if slabs.ghost_lo(dst) == 1 {
                links.push(PlaneLink {
                    src: prev,
                    dst,
                    tag: 0,
                    queue: VecDeque::new(),
                    retained: None,
                    delayed: None,
                });
            }
            if slabs.ghost_hi(dst) == 1 {
                links.push(PlaneLink {
                    src: next,
                    dst,
                    tag: 1,
                    queue: VecDeque::new(),
                    retained: None,
                    delayed: None,
                });
            }
        }
        Self {
            slabs,
            templates,
            cfg,
            chaos: ChaosPlan::new(),
            links,
            dirs_up: crossing_dirs(1),
            dirs_down: crossing_dirs(-1),
            step: 0,
            rounds: 0,
            epoch: 0,
            own_ckpt: vec![None; tasks],
            buddy_ckpt: vec![None; tasks],
            heartbeats: vec![0; tasks],
            stalls: vec![0; tasks],
            dead: vec![false; tasks],
            dead_reason: vec![""; tasks],
            hung_until: vec![0; tasks],
            recoveries: 0,
            rollbacks: 0,
            issues: Vec::new(),
        }
    }

    /// Attach a chaos schedule (tests / chaos CI only).
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = plan;
    }

    /// The chaos schedule, for post-run assertions.
    pub fn chaos(&self) -> &ChaosPlan {
        &self.chaos
    }

    /// Number of ranks.
    pub fn task_count(&self) -> usize {
        self.slabs.task_count()
    }

    /// Steps completed (external count, unaffected by internal replay).
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Step of the newest buddy checkpoint (0 = initial state).
    pub fn checkpoint_epoch(&self) -> u64 {
        self.epoch
    }

    /// Rollback-and-replay recoveries performed.
    pub fn rollback_count(&self) -> u64 {
        self.rollbacks
    }

    /// Last completed step per rank (the heartbeat vector).
    pub fn heartbeats(&self) -> &[u64] {
        &self.heartbeats
    }

    /// Is `rank` currently dead (lost but not yet recovered)?
    pub fn is_rank_dead(&self, rank: usize) -> bool {
        self.dead[rank]
    }

    /// Every degradation recorded so far, as a sentinel-style report.
    pub fn health_report(&self) -> HealthReport {
        HealthReport {
            step: self.step,
            issues: self.issues.clone(),
        }
    }

    /// Gather the distributed state into a global-shaped lattice.
    pub fn gather(&self, template: &Lattice) -> Lattice {
        self.slabs.gather(template)
    }

    /// Advance one supervised global step.
    ///
    /// Order of operations: chaos arrivals (kill/hang) land first, then
    /// the supervisor recovers any dead rank (restore from buddy, roll
    /// every rank back to the checkpoint epoch, replay), then the step
    /// itself runs — collide, sealed plane exchange, stream — with every
    /// rank under `catch_unwind`. Heartbeats update last; a clean step on
    /// the checkpoint cadence refreshes the buddy checkpoints.
    pub fn step(&mut self) -> Result<StepOutcome, ResilienceError> {
        let target = self.step + 1;
        for rank in self.chaos.take_kills_due(target) {
            self.declare_dead(rank, "killed", target);
        }
        for (rank, lasts) in self.chaos.take_hangs_due(target) {
            self.hung_until[rank] = target + lasts.max(1) - 1;
        }
        let recovered = self.supervise(target)?;
        let mut outcome = StepOutcome {
            step: target,
            clean: true,
            recovered,
            ..StepOutcome::default()
        };
        self.advance_once(Some(&mut outcome));
        // Heartbeats + hung-rank detection. A hung rank's heartbeat
        // stays flat; past the patience it is declared dead and the next
        // step's supervision pass recovers it.
        for r in 0..self.task_count() {
            if self.dead[r] {
                outcome.clean = false;
            } else if self.is_hung(r, target) {
                outcome.clean = false;
                self.stalls[r] += 1;
                if self.stalls[r] >= self.cfg.hang_patience {
                    self.declare_dead(r, "hung", target);
                }
            } else {
                self.heartbeats[r] = target;
                self.stalls[r] = 0;
            }
        }
        if outcome.frozen_faces > 0 {
            outcome.clean = false;
        }
        if outcome.clean && target.is_multiple_of(self.cfg.checkpoint_interval) {
            self.take_checkpoints(target);
        }
        Ok(outcome)
    }

    fn is_hung(&self, rank: usize, step: u64) -> bool {
        self.hung_until[rank] >= step
    }

    fn declare_dead(&mut self, rank: usize, reason: &'static str, step: u64) {
        if self.dead[rank] {
            return;
        }
        self.dead[rank] = true;
        self.dead_reason[rank] = reason;
        // A killed process's hang is over; the respawn starts clean.
        self.hung_until[rank] = 0;
        self.stalls[rank] = 0;
        self.issues.push(HealthIssue::RankLost { rank });
        apr_telemetry::counter_add("resilience.rank_down", 1);
        apr_telemetry::emit(apr_telemetry::TelemetryEvent::RankDown {
            step,
            rank: rank as u32,
            reason,
        });
    }

    /// Bring every rank back alive and the global state to `target - 1`.
    /// Loops because a replayed step could in principle lose another rank.
    fn supervise(&mut self, target: u64) -> Result<Vec<usize>, ResilienceError> {
        if !self.dead.iter().any(|&d| d) {
            return Ok(Vec::new());
        }
        let mut recovered = Vec::new();
        loop {
            let lost: Vec<usize> = (0..self.task_count()).filter(|&r| self.dead[r]).collect();
            if lost.is_empty() {
                if self.step >= target - 1 {
                    return Ok(recovered);
                }
                // Replay toward the failure point; chaos already consumed
                // its one-shot entries, so these steps run clean.
                self.advance_once(None);
                let step = self.step;
                for r in 0..self.task_count() {
                    if !self.dead[r] && !self.is_hung(r, step) {
                        self.heartbeats[r] = step;
                    }
                }
                continue;
            }
            self.recoveries += 1;
            if self.recoveries > self.cfg.max_recoveries {
                return Err(ResilienceError::RecoveryExhausted {
                    step: target,
                    recoveries: self.recoveries,
                });
            }
            self.restore_all_to_epoch(&lost, target)?;
            recovered.extend(lost);
        }
    }

    /// Respawn every lost rank from its buddy replica and roll all ranks
    /// back to the common checkpoint epoch.
    fn restore_all_to_epoch(
        &mut self,
        lost: &[usize],
        detect_step: u64,
    ) -> Result<(), ResilienceError> {
        let n = self.task_count();
        for &r in lost {
            // The buddy of rank r is (r+1) % n; it holds r's replica in
            // its memory. If the buddy died in the same incident the
            // replica is gone — degrade to the pristine initial state
            // (epoch 0) for everyone rather than aborting.
            let holder = (r + 1) % n;
            let replica_lost = self.dead[holder] && self.buddy_ckpt[holder].is_none();
            if replica_lost {
                self.epoch = 0;
                self.own_ckpt = vec![None; n];
                self.buddy_ckpt = vec![None; n];
                apr_telemetry::counter_add("resilience.full_restarts", 1);
                break;
            }
        }
        for r in 0..n {
            let blob = if self.dead[r] {
                self.buddy_ckpt[(r + 1) % n].clone()
            } else {
                self.own_ckpt[r].clone()
            };
            self.restore_rank(r, blob.as_ref().map(|b| b.as_slice()))?;
            if self.dead[r] {
                apr_telemetry::emit(apr_telemetry::TelemetryEvent::RankRestored {
                    step: detect_step,
                    rank: r as u32,
                    restored_epoch: self.epoch,
                });
            }
            self.dead[r] = false;
            self.dead_reason[r] = "";
            self.hung_until[r] = 0;
            self.stalls[r] = 0;
            self.heartbeats[r] = self.epoch;
        }
        // Drain any in-flight slabs from the abandoned timeline so the
        // replay's exchanges cannot observe stale messages.
        for link in &mut self.links {
            link.queue.clear();
            link.retained = None;
            link.delayed = None;
        }
        self.step = self.epoch;
        self.rollbacks += 1;
        apr_telemetry::counter_add("resilience.rollbacks", 1);
        Ok(())
    }

    /// Rebuild rank `r` from its pristine template, then overlay the
    /// checkpointed state (when a checkpoint exists).
    fn restore_rank(&mut self, r: usize, blob: Option<&[u8]>) -> Result<(), ResilienceError> {
        let mut fresh = self.templates[r].clone();
        if let Some(blob) = blob {
            let wrap = |source: GuardError| ResilienceError::ReplicaCorrupt { rank: r, source };
            let reader = CheckpointReader::parse(blob).map_err(wrap)?;
            let mut section = reader.require("lattice").map_err(wrap)?;
            read_lattice(&mut fresh, &mut section).map_err(wrap)?;
        }
        self.slabs.locals[r] = fresh;
        Ok(())
    }

    /// Serialize every rank into a guard checkpoint container and
    /// replicate each blob to the rank's buddy.
    fn take_checkpoints(&mut self, step: u64) {
        let n = self.task_count();
        // Each rank serializes its own state concurrently — exactly what a
        // per-process runtime does — and the per-rank blobs are
        // independent, so parallelism cannot perturb their contents.
        let locals = &self.slabs.locals;
        let blobs = apr_exec::current()
            .par_map_reduce(
                n,
                1,
                |r, _| {
                    let mut meta = apr_guard::ByteWriter::new();
                    meta.usize(r);
                    meta.u64(step);
                    let mut w = CheckpointWriter::new();
                    w.section("meta", meta.into_bytes());
                    w.section("lattice", write_lattice(&locals[r]));
                    vec![Arc::new(w.finish())]
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
            .expect("at least one rank");
        let mut total = 0u64;
        for (r, blob) in blobs.into_iter().enumerate() {
            total += blob.len() as u64;
            // The blob is immutable from birth, so the buddy replica can
            // share it — in a networked runtime this would be the transfer
            // to the neighbour's memory.
            self.own_ckpt[r] = Some(Arc::clone(&blob));
            self.buddy_ckpt[(r + 1) % n] = Some(blob);
        }
        self.epoch = step;
        apr_telemetry::counter_add("resilience.buddy_checkpoints", n as u64);
        apr_telemetry::emit(apr_telemetry::TelemetryEvent::CheckpointSaved { step, bytes: total });
    }

    /// Run one collide → exchange → stream cycle over the current rank
    /// population. Dead and hung ranks are skipped; panics are contained
    /// per rank. Counters land in `outcome` when provided (supervision
    /// replays pass `None`).
    fn advance_once(&mut self, outcome: Option<&mut StepOutcome>) {
        let target = self.step + 1;
        let n = self.task_count();
        let panics = self.chaos.take_panics_due(target);
        let mut participating = vec![false; n];
        for (r, part) in participating.iter_mut().enumerate() {
            if self.dead[r] || self.is_hung(r, target) {
                continue;
            }
            let inject = panics.contains(&r);
            let local = &mut self.slabs.locals[r];
            let result = catch_unwind(AssertUnwindSafe(|| {
                if inject {
                    panic!("injected chaos panic");
                }
                local.advance(SubStep::Collide);
            }));
            match result {
                Ok(()) => *part = true,
                Err(_) => self.declare_dead(r, "panicked", target),
            }
        }
        let (frozen, resends) = self.exchange_planes(&participating);
        if let Some(out) = outcome {
            out.frozen_faces += frozen;
            out.resends += resends;
        }
        for (r, &part) in participating.iter().enumerate() {
            if !part {
                continue;
            }
            let local = &mut self.slabs.locals[r];
            let result = catch_unwind(AssertUnwindSafe(|| {
                local.advance(SubStep::Stream);
            }));
            if result.is_err() {
                self.declare_dead(r, "panicked", target);
            }
        }
        self.step = target;
    }

    /// Sealed, NACK-healing exchange of the crossing populations of every
    /// cut plane. `participating[r]` is false for ranks that did not
    /// collide this step (dead/hung): their outgoing planes are not sent
    /// and their neighbours' ghosts freeze.
    fn exchange_planes(&mut self, participating: &[bool]) -> (u32, u32) {
        let n = self.task_count();
        if n == 1 {
            return (0, 0);
        }
        let round = self.rounds;
        self.rounds += 1;
        let faults = self.chaos.take_message_faults_due(round);
        let mut frozen = 0u32;
        let mut resends = 0u32;
        // Send phase: seal and post every plane whose sender is alive.
        let mut bytes = 0u64;
        for li in 0..self.links.len() {
            let (src, dst, tag) = {
                let l = &self.links[li];
                (l.src, l.dst, l.tag)
            };
            if !participating[src] || !participating[dst] {
                continue;
            }
            let payload = self.extract_crossing(src, tag);
            let link_id = LinkId {
                src: src as u32,
                dst: dst as u32,
                tag,
            };
            let slab = SealedSlab::seal(link_id, round, round, payload);
            bytes += slab.byte_len() as u64;
            let link = &mut self.links[li];
            link.retained = Some(slab.clone());
            match faults
                .iter()
                .find(|&&(rank, _)| rank == src)
                .map(|&(_, f)| f)
            {
                Some(crate::chaos::MsgFault::Drop) => {}
                Some(crate::chaos::MsgFault::Delay) => link.delayed = Some(slab),
                Some(crate::chaos::MsgFault::Corrupt) => {
                    let mut bad = slab;
                    bad.corrupt_in_place();
                    link.queue.push_back(bad);
                }
                None => link.queue.push_back(slab),
            }
        }
        apr_telemetry::counter_add("halo.bytes", bytes);
        // Receive + heal phase, per link.
        for li in 0..self.links.len() {
            let (src, dst, tag) = {
                let l = &self.links[li];
                (l.src, l.dst, l.tag)
            };
            if !participating[dst] {
                continue;
            }
            if !participating[src] {
                // Peer dead or stalled: no message will ever come. Freeze
                // the ghost at its previous contents and flag it.
                frozen += 1;
                self.record_degraded(dst, HaloError::PeerDead { rank: src });
                continue;
            }
            let expected_len = self.slabs.locals[dst].nx * self.slabs.locals[dst].ny * 5;
            let mut attempt = 0u32;
            let healed = loop {
                // Only this thread fills the queue, so empty is the
                // `Timeout` verdict: waiting cannot make a slab arrive.
                let verdict = match self.links[li].queue.pop_front() {
                    Some(slab) => match slab.verify(round, expected_len) {
                        Ok(()) => {
                            self.insert_crossing(dst, tag, &slab.payload);
                            break true;
                        }
                        // Stale epoch from the abandoned timeline or a
                        // duplicate resend: discard and re-receive.
                        Err(HaloError::Reordered { got_epoch, .. }) if got_epoch < round => {
                            continue;
                        }
                        Err(err) => err,
                    },
                    None => HaloError::Timeout {
                        link: LinkId {
                            src: src as u32,
                            dst: dst as u32,
                            tag,
                        },
                    },
                };
                if attempt >= MAX_RESENDS {
                    self.record_degraded(dst, verdict);
                    break false;
                }
                attempt += 1;
                // NACK: re-request from the sender's retained buffer. A
                // delayed slab finally leaves its stash here.
                let link = &mut self.links[li];
                let resend = link.delayed.take().or_else(|| link.retained.clone());
                if let Some(slab) = resend {
                    link.queue.push_back(slab);
                    resends += 1;
                    apr_telemetry::counter_add("halo.resends", 1);
                    apr_telemetry::emit(apr_telemetry::TelemetryEvent::HaloResend {
                        round,
                        attempt,
                        messages: 1,
                    });
                }
                std::thread::sleep(BACKOFF_BASE * (1 << (attempt - 1).min(10)));
            };
            if !healed {
                frozen += 1;
            }
        }
        if frozen > 0 {
            apr_telemetry::counter_add("halo.frozen_ghosts", frozen as u64);
        }
        (frozen, resends)
    }

    /// One ghost plane of `rank` stayed stale this round; `err` says why.
    fn record_degraded(&mut self, rank: usize, err: HaloError) {
        apr_telemetry::emit(apr_telemetry::TelemetryEvent::SentinelTrip {
            step: self.step + 1,
            issues: 1,
            first_kind: "halo_degraded",
        });
        self.issues.push(HealthIssue::HaloDegraded {
            rank,
            frozen_faces: 1,
            reason: err.reason(),
        });
    }

    /// Extract the crossing populations of the boundary plane that feeds
    /// the link's ghost. `tag` 0 fills the receiver's low ghost, so the
    /// sender contributes its *high* boundary and the `c_z = +1` set.
    fn extract_crossing(&self, src: usize, tag: u8) -> Vec<f64> {
        let local = &self.slabs.locals[src];
        let (z, dirs) = if tag == 0 {
            (local.nz - 1 - self.slabs.ghost_hi(src), self.dirs_up)
        } else {
            (self.slabs.ghost_lo(src), self.dirs_down)
        };
        let mut out = Vec::with_capacity(local.nx * local.ny * 5);
        for y in 0..local.ny {
            for x in 0..local.nx {
                let node = local.idx(x, y, z);
                for &i in &dirs {
                    out.push(local.distribution(node, i));
                }
            }
        }
        out
    }

    /// Write a validated crossing payload into the receiver's ghost plane.
    fn insert_crossing(&mut self, dst: usize, tag: u8, payload: &[f64]) {
        let local = &mut self.slabs.locals[dst];
        let (z, dirs) = if tag == 0 {
            (0, self.dirs_up)
        } else {
            (local.nz - 1, self.dirs_down)
        };
        let mut it = payload.iter();
        for y in 0..local.ny {
            for x in 0..local.nx {
                let node = local.idx(x, y, z);
                for &i in &dirs {
                    local.set_distribution(node, i, *it.next().unwrap());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_lattice::{Boundary, NodeClass, Q};

    fn poiseuille_global() -> Lattice {
        let mut lat = Lattice::new(5, 8, 12, 0.9);
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

    fn assert_bit_identical(a: &Lattice, b: &Lattice) {
        for node in 0..a.node_count() {
            if a.flag(node) != NodeClass::Fluid {
                continue;
            }
            let fa = a.distributions(node);
            let fb = b.distributions(node);
            for i in 0..Q {
                assert!(
                    fa[i].to_bits() == fb[i].to_bits(),
                    "node {node} dir {i}: {} vs {}",
                    fa[i],
                    fb[i]
                );
            }
        }
    }

    #[test]
    fn sealed_compact_exchange_matches_single_lattice() {
        // The 5-population sealed exchange must carry the physics exactly
        // like the full 19-population reference path.
        let mut reference = poiseuille_global();
        let mut res = ResilientSlabLattice::split(&reference, 3, ResilienceConfig::default());
        for _ in 0..40 {
            reference.step();
            let out = res.step().unwrap();
            assert!(out.clean, "{out:?}");
        }
        let gathered = res.gather(&reference);
        for node in 0..reference.node_count() {
            if reference.flag(node) != NodeClass::Fluid {
                continue;
            }
            let fa = reference.distributions(node);
            let fb = gathered.distributions(node);
            for i in 0..Q {
                assert!(
                    (fa[i] - fb[i]).abs() < 1e-13,
                    "node {node} dir {i}: {} vs {}",
                    fa[i],
                    fb[i]
                );
            }
        }
    }

    #[test]
    fn checkpoints_follow_the_clean_cadence() {
        let global = poiseuille_global();
        let mut res = ResilientSlabLattice::split(&global, 2, ResilienceConfig::default());
        for _ in 0..17 {
            res.step().unwrap();
        }
        assert_eq!(res.checkpoint_epoch(), 16);
        assert_eq!(res.rollback_count(), 0);
        assert!(res.health_report().is_healthy());
    }

    #[test]
    fn killed_rank_recovers_bit_identically() {
        let global = poiseuille_global();
        let steps = 30;
        // Failure-free reference run.
        let mut clean = ResilientSlabLattice::split(&global, 3, ResilienceConfig::default());
        for _ in 0..steps {
            clean.step().unwrap();
        }
        // Chaos run: rank 1 dies at step 13 (mid-interval, so rollback
        // really has to replay).
        let mut chaotic = ResilientSlabLattice::split(&global, 3, ResilienceConfig::default());
        let mut plan = ChaosPlan::new();
        plan.kill_rank(13, 1);
        chaotic.set_chaos(plan);
        let mut recovered_ranks = Vec::new();
        for _ in 0..steps {
            let out = chaotic.step().unwrap();
            recovered_ranks.extend(out.recovered);
        }
        assert_eq!(recovered_ranks, [1]);
        assert_eq!(chaotic.rollback_count(), 1);
        assert_bit_identical(&clean.gather(&global), &chaotic.gather(&global));
    }

    #[test]
    fn panicking_rank_is_contained_and_recovered() {
        let global = poiseuille_global();
        let steps = 24;
        let mut clean = ResilientSlabLattice::split(&global, 2, ResilienceConfig::default());
        for _ in 0..steps {
            clean.step().unwrap();
        }
        let mut chaotic = ResilientSlabLattice::split(&global, 2, ResilienceConfig::default());
        let mut plan = ChaosPlan::new();
        plan.panic_rank(11, 0);
        chaotic.set_chaos(plan);
        for _ in 0..steps {
            chaotic.step().unwrap();
        }
        assert_eq!(chaotic.rollback_count(), 1);
        assert_bit_identical(&clean.gather(&global), &chaotic.gather(&global));
    }

    #[test]
    fn hung_rank_is_detected_by_heartbeat_and_recovered() {
        let global = poiseuille_global();
        let steps = 28;
        let mut clean = ResilientSlabLattice::split(&global, 2, ResilienceConfig::default());
        for _ in 0..steps {
            clean.step().unwrap();
        }
        let mut chaotic = ResilientSlabLattice::split(&global, 2, ResilienceConfig::default());
        let mut plan = ChaosPlan::new();
        plan.hang_rank(10, 1, 5);
        chaotic.set_chaos(plan);
        let mut saw_unclean = false;
        let mut frozen_planes = 0;
        for _ in 0..steps {
            let out = chaotic.step().unwrap();
            saw_unclean |= !out.clean;
            frozen_planes += out.frozen_faces;
        }
        assert!(saw_unclean, "the stall period must be visible");
        assert_eq!(chaotic.rollback_count(), 1);
        // The degradation was recorded, then healed by rollback.
        let report = chaotic.health_report();
        assert!(!report.is_healthy());
        // One issue per frozen plane, each naming the stalled peer as the
        // cause and counting faces the way `StepOutcome` does.
        let degraded: Vec<(u32, &str)> = report
            .issues
            .iter()
            .filter_map(|issue| match *issue {
                HealthIssue::HaloDegraded {
                    frozen_faces,
                    reason,
                    ..
                } => Some((frozen_faces, reason)),
                _ => None,
            })
            .collect();
        assert!(frozen_planes > 0);
        assert_eq!(degraded.len() as u32, frozen_planes);
        assert!(
            degraded.iter().all(|&(_, r)| r == "peer_dead"),
            "{report:?}"
        );
        assert_eq!(
            degraded.iter().map(|&(faces, _)| faces).sum::<u32>(),
            frozen_planes
        );
        assert_bit_identical(&clean.gather(&global), &chaotic.gather(&global));
    }

    #[test]
    fn message_faults_heal_in_round_and_stay_bit_identical() {
        let global = poiseuille_global();
        let steps = 20;
        let mut clean = ResilientSlabLattice::split(&global, 2, ResilienceConfig::default());
        for _ in 0..steps {
            clean.step().unwrap();
        }
        let mut chaotic = ResilientSlabLattice::split(&global, 2, ResilienceConfig::default());
        let mut plan = ChaosPlan::new();
        plan.message_fault(3, 0, crate::chaos::MsgFault::Drop);
        plan.message_fault(5, 1, crate::chaos::MsgFault::Corrupt);
        plan.message_fault(8, 0, crate::chaos::MsgFault::Delay);
        chaotic.set_chaos(plan);
        let mut resends = 0;
        for _ in 0..steps {
            resends += chaotic.step().unwrap().resends;
        }
        assert!(resends >= 3, "each fault needs at least one resend");
        assert_eq!(chaotic.rollback_count(), 0, "message faults heal in-round");
        assert_bit_identical(&clean.gather(&global), &chaotic.gather(&global));
    }

    #[test]
    fn recovery_budget_exhaustion_is_a_typed_error() {
        let global = poiseuille_global();
        let cfg = ResilienceConfig {
            max_recoveries: 1,
            ..Default::default()
        };
        let mut res = ResilientSlabLattice::split(&global, 2, cfg);
        let mut plan = ChaosPlan::new();
        plan.kill_rank(3, 0).kill_rank(6, 1);
        res.set_chaos(plan);
        let mut err = None;
        for _ in 0..12 {
            match res.step() {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(
            err,
            Some(ResilienceError::RecoveryExhausted { .. })
        ));
    }

    #[test]
    fn seeded_chaos_plan_runs_to_completion() {
        let global = poiseuille_global();
        for seed in [7u64, 99, 1234] {
            let steps = 32;
            let mut clean = ResilientSlabLattice::split(&global, 3, ResilienceConfig::default());
            for _ in 0..steps {
                clean.step().unwrap();
            }
            let mut chaotic = ResilientSlabLattice::split(&global, 3, ResilienceConfig::default());
            chaotic.set_chaos(ChaosPlan::from_seed(seed, steps, 3));
            for _ in 0..steps {
                chaotic.step().unwrap();
            }
            assert!(
                chaotic.rollback_count() >= 1,
                "seed {seed} must kill a rank"
            );
            assert_bit_identical(&clean.gather(&global), &chaotic.gather(&global));
        }
    }
}

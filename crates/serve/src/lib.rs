//! # apr-serve — multi-tenant simulation service
//!
//! A channel-fed job-queue server that admits **N ≫ cores** concurrent
//! simulation sessions and schedules them round-robin with a fair
//! time-slice budget by **checkpoint-preempt-resume**: when a session's
//! slice (measured in engine steps, a deterministic unit) expires, the
//! engine is suspended through `apr-guard`'s bit-exact checkpoint path
//! into an in-memory store, its worker resumes another session, and the
//! parked session later restores into a fresh engine shell rebuilt from
//! its scenario recipe. A **warm-state cache** keyed by scenario hash lets
//! repeat scenarios skip cold setup (geometry voxelization, window
//! packing, warmup relaxation) by restoring the first session's
//! post-warmup checkpoint. Parked checkpoints live in memory up to a
//! configurable byte cap ([`ServeConfig::park_bytes_cap`]); beyond the
//! cap the oldest-parked blobs spill to an atomic-write disk tier and
//! restore byte-identically from either tier ([`SpillStore`]).
//!
//! Jobs are [`apr_scenarios::ScenarioSpec`]s — any scenario in the zoo
//! (tube, bifurcating tree, stenosis, aneurysm; steady or pulsatile
//! inlet; one window or several) is a valid job, and specs are validated
//! at admission so malformed geometry is refused up front instead of
//! panicking in a worker.
//!
//! The parameter-sweep workloads of the APR paper (SC 2023) — many
//! cell-resolved window simulations over a shared scenario family — are
//! exactly this shape: far more sessions than cores, heavy per-session
//! setup, identical recipes differing only in seeds or physics knobs.
//!
//! ## Module map
//!
//! - [`session`] — [`JobSpec`], [`SessionStatus`], [`SessionStats`],
//!   [`SessionResult`].
//! - [`cache`] — [`WarmCache`], the scenario-hash-keyed warm-state cache.
//! - [`store`] — [`SpillStore`], the two-tier parked-checkpoint pool.
//! - [`service`] — [`SimService`]: admission control, the round-robin
//!   scheduler, per-worker exec pools, preempt/park/resume.
//! - [`progress`] — [`ProgressHub`], the service's bounded broadcast
//!   channel of per-slice [`ProgressSample`]s.
//! - [`metrics`] — [`ServiceMetrics`], the service-level aggregate view.
//!
//! ## Guarantees
//!
//! - **Zero cross-session nondeterminism.** A session's final checkpoint
//!   is byte-identical whether it ran straight through or was preempted
//!   any number of times, at any worker/lane configuration, regardless of
//!   what other sessions shared the service.
//! - **Bounded occupancy.** Engine work only runs on its worker's
//!   `lanes_per_worker`-lane exec pool, so lane occupancy never exceeds
//!   `workers × lanes_per_worker`.
//! - **Fault isolation.** A panicking session completes with an error
//!   result; its worker and every other session continue.
//!
//! ## Quickstart
//!
//! ```
//! use apr_serve::{JobSpec, ScenarioSpec, ServeConfig, SimService};
//!
//! let mut cfg = ServeConfig::new(2); // 2 workers
//! cfg.slice_steps = 4;               // preempt every 4 steps
//! let service = SimService::start(cfg);
//! for seed in 0..4 {
//!     service
//!         .submit(JobSpec {
//!             scenario: ScenarioSpec::tube_small(1), // one scenario: 3 warm hits
//!             target_steps: 8 + seed,
//!         })
//!         .unwrap();
//! }
//! let results = service.wait_all();
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.error.is_none()));
//! ```

pub mod cache;
pub mod metrics;
pub mod progress;
pub mod service;
pub mod session;
pub mod store;

pub use apr_scenarios::{GeometrySpec, InletSpec, ScenarioSpec, WindowSpec};
pub use cache::WarmCache;
pub use metrics::ServiceMetrics;
pub use progress::{ProgressHub, ProgressSample, ProgressSubscription};
pub use service::{AdmitError, ServeConfig, SimService};
pub use session::{JobSpec, SessionResult, SessionStats, SessionStatus};
pub use store::SpillStore;

//! Simulation guardian for the APR reproduction.
//!
//! Long campaigns (the paper's Figure 9 CTC transport ran for days) need
//! to survive numerical blow-ups and infrastructure faults. This crate
//! provides the engine-agnostic pieces:
//!
//! * [`codec`] — dependency-free little-endian binary codec + CRC32.
//! * [`checkpoint`] — versioned, per-section CRC-protected checkpoint
//!   container with atomic file writes.
//! * [`health`] — the divergence sentinel: density/Mach/finiteness checks
//!   over lattices, membrane meshes and hematocrit, returning a typed
//!   [`HealthReport`].
//! * [`store`] — checkpoint placement: in-memory blob store for the serve
//!   scheduler's preempt hot path, directory store for durable campaigns.
//! * [`recovery`] — rollback-and-retry policy (reseed, optional τ
//!   tightening via Eq. 7) and a structured [`RecoveryLog`].
//! * [`fault`] — deterministic one-shot fault schedules for exercising the
//!   recovery path in tests.
//!
//! The engine-specific serialization (full `AprEngine`/`EfsiEngine`
//! state) lives in `apr-core::guardian`, built on these primitives.

pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod fault;
pub mod health;
pub mod recovery;
pub mod state;
pub mod store;

pub use checkpoint::{read_file, write_atomic, CheckpointReader, CheckpointWriter, FORMAT_VERSION};
pub use codec::{crc32, decode_f64s, splitmix64, ByteReader, ByteWriter};
pub use error::GuardError;
pub use fault::{Fault, FaultKind, FaultPlan};
pub use health::{
    check_hematocrit, check_lattice, check_pool, HealthIssue, HealthReport, SentinelConfig,
};
pub use recovery::{RecoveryAction, RecoveryEvent, RecoveryLog, RetryPolicy};
pub use state::{read_lattice, read_pool, write_lattice, write_pool, MembraneProvider};
pub use store::{CheckpointStore, FileStore, MemoryStore};

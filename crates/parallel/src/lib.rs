//! Distributed LBM runtime standing in for Summit's MPI ranks (paper
//! §2.4.4).
//!
//! The paper's bulk solver runs as MPI ranks that own blocks of the domain
//! and trade halo layers every step. This crate reproduces that in shared
//! memory: a global lattice is cut into z-slabs that collide, exchange
//! ghost planes and stream as separate ranks ([`distributed_lbm`]), the
//! planes travel sealed (epoch + sequence + CRC32, [`envelope`]) and are
//! re-requested until they verify, and a supervisor contains rank panics,
//! detects hangs, keeps buddy checkpoints and replays a lost rank
//! bit-identically ([`supervisor`]) under a seeded fault schedule
//! ([`chaos`]). [`decomp`] is the exact 3-D block geometry
//! `apr-perfmodel`'s analytic neighbour fraction is checked against.

pub mod chaos;
pub mod decomp;
pub mod distributed_lbm;
pub mod envelope;
pub mod supervisor;

pub use chaos::{ChaosEvent, ChaosPlan, MsgFault};
pub use decomp::{Block, BlockDecomposition};
pub use distributed_lbm::SlabLattice;
pub use envelope::{HaloError, LinkId, SealedSlab};
pub use supervisor::{ResilienceConfig, ResilienceError, ResilientSlabLattice, StepOutcome};

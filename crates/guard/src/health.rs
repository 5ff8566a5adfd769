//! Divergence sentinel: cheap invariant checks run every N steps.
//!
//! LBM instability (τ too close to 1/2, excessive Mach, runaway membrane
//! forces) announces itself through a small set of signals well before the
//! state is fully NaN: densities drift out of range, lattice velocities
//! approach the speed of sound, membrane vertices leave the finite range.
//! The sentinel samples those signals and returns a typed [`HealthReport`]
//! that the recovery layer turns into a rollback decision.

use apr_cells::CellPool;
use apr_lattice::{Lattice, NodeClass};

/// Lattice speed of sound for D3Q19, `c_s = 1/√3`.
const CS: f64 = 0.577_350_269_189_625_8;

/// What the sentinel checks and how aggressively it samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentinelConfig {
    /// Maximum tolerated lattice Mach number `|u|/c_s`. The low-Mach
    /// expansion behind LBM degrades beyond ≈0.3; default trips at 0.7,
    /// well into "this run is garbage" territory but before overflow.
    pub max_mach: f64,
    /// Minimum tolerated lattice density (ρ₀ = 1).
    pub min_rho: f64,
    /// Maximum tolerated lattice density.
    pub max_rho: f64,
    /// Hematocrit sanity window (volume fraction) when a controller runs.
    pub ht_range: (f64, f64),
    /// Check every `sample_stride`-th fluid node (1 = every node). Keeps
    /// the sentinel cost a fixed small fraction of a step.
    pub sample_stride: usize,
    /// Stop after this many issues (a diverged lattice would otherwise
    /// produce one issue per node).
    pub max_issues: usize,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        Self {
            max_mach: 0.7,
            min_rho: 0.2,
            max_rho: 5.0,
            ht_range: (0.0, 0.7),
            sample_stride: 4,
            max_issues: 16,
        }
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthIssue {
    /// A lattice node's density is NaN or infinite.
    NonFiniteDensity {
        /// Flat node index.
        node: usize,
    },
    /// A lattice node's density left `[min_rho, max_rho]`.
    DensityOutOfRange {
        /// Flat node index.
        node: usize,
        /// Observed density.
        rho: f64,
    },
    /// A lattice node's velocity is NaN or infinite.
    NonFiniteVelocity {
        /// Flat node index.
        node: usize,
    },
    /// A lattice node's Mach number exceeded the bound.
    MachExceeded {
        /// Flat node index.
        node: usize,
        /// Observed Mach number.
        mach: f64,
    },
    /// A membrane mesh has non-finite vertices (cell blew up).
    CellNonFinite {
        /// Global cell ID.
        cell_id: u64,
    },
    /// Window hematocrit outside the configured sanity range.
    HematocritOutOfRange {
        /// Observed hematocrit.
        ht: f64,
    },
    /// The engine step itself panicked (e.g. a degenerate membrane
    /// triangle reached a normalization). The guardian downgrades the
    /// panic to a report so the rollback path can handle it like any
    /// other divergence.
    StepPanicked {
        /// The panic payload, when it carried a message.
        message: String,
    },
    /// A halo exchange exhausted its resend budget and froze ghost values
    /// instead of aborting: the affected rank is running on stale
    /// neighbour data. Raised by the distributed resilience layer so the
    /// sentinel/flight-recorder path fires even though no lattice
    /// invariant has (yet) been violated.
    HaloDegraded {
        /// Rank whose ghost layer was frozen.
        rank: usize,
        /// Number of faces left stale in the incident.
        frozen_faces: u32,
        /// Verdict that froze them (`"peer_dead"`, `"timeout"`,
        /// `"corrupt"`, ...).
        reason: &'static str,
    },
    /// A rank died (panic, kill, or heartbeat stall) and was recovered —
    /// or could not be. Recorded so campaign post-mortems list rank-level
    /// incidents next to numerical ones.
    RankLost {
        /// The rank that went down.
        rank: usize,
    },
    /// A conserved quantity drifted past its ledger tolerance: total mass
    /// or momentum changed step-over-step by more than the window/bulk
    /// coupling can account for. Raised by the conservation ledger
    /// (`apr_telemetry::ledger`), not by node-local scans — it catches *physics*
    /// regressions (a mass leak, a broken fill/capture flux) whose state
    /// is still perfectly finite, which the NaN/Mach checks above never
    /// see.
    ConservationDrift {
        /// Which quantity drifted (`"bulk_mass"`, `"window_mass"`,
        /// `"window_momentum"`, `"hematocrit"`).
        quantity: &'static str,
        /// Observed drift (relative for mass, absolute for momentum and
        /// hematocrit).
        observed: f64,
        /// The configured tolerance it exceeded.
        tolerance: f64,
        /// Step at which the ledger measured the drift.
        step: u64,
    },
}

impl HealthIssue {
    /// Stable short tag for telemetry/event streams.
    pub fn kind(&self) -> &'static str {
        match self {
            HealthIssue::NonFiniteDensity { .. } => "non_finite_density",
            HealthIssue::DensityOutOfRange { .. } => "density_out_of_range",
            HealthIssue::NonFiniteVelocity { .. } => "non_finite_velocity",
            HealthIssue::MachExceeded { .. } => "mach_exceeded",
            HealthIssue::CellNonFinite { .. } => "cell_non_finite",
            HealthIssue::HematocritOutOfRange { .. } => "hematocrit_out_of_range",
            HealthIssue::StepPanicked { .. } => "step_panicked",
            HealthIssue::HaloDegraded { .. } => "halo_degraded",
            HealthIssue::RankLost { .. } => "rank_lost",
            HealthIssue::ConservationDrift { .. } => "conservation_drift",
        }
    }
}

/// Sentinel verdict for one inspection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Simulation step the inspection ran at.
    pub step: u64,
    /// Issues found (empty = healthy). Truncated at
    /// [`SentinelConfig::max_issues`].
    pub issues: Vec<HealthIssue>,
}

impl HealthReport {
    /// True when no invariant was violated.
    pub fn is_healthy(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Scan a lattice's fluid nodes for density/velocity violations.
pub fn check_lattice(lat: &Lattice, cfg: &SentinelConfig, issues: &mut Vec<HealthIssue>) {
    let stride = cfg.sample_stride.max(1);
    let max_u = cfg.max_mach * CS;
    let max_u2 = max_u * max_u;
    for node in (0..lat.node_count()).step_by(stride) {
        if issues.len() >= cfg.max_issues {
            return;
        }
        if lat.flag(node) != NodeClass::Fluid {
            continue;
        }
        let rho = lat.rho[node];
        if !rho.is_finite() {
            issues.push(HealthIssue::NonFiniteDensity { node });
            continue;
        }
        if rho < cfg.min_rho || rho > cfg.max_rho {
            issues.push(HealthIssue::DensityOutOfRange { node, rho });
            continue;
        }
        let u = lat.velocity_at(node);
        let u2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
        if !u2.is_finite() {
            issues.push(HealthIssue::NonFiniteVelocity { node });
        } else if u2 > max_u2 {
            issues.push(HealthIssue::MachExceeded {
                node,
                mach: u2.sqrt() / CS,
            });
        }
    }
}

/// Scan every live cell's membrane mesh for non-finite vertices.
pub fn check_pool(pool: &CellPool, cfg: &SentinelConfig, issues: &mut Vec<HealthIssue>) {
    for cell in pool.iter() {
        if issues.len() >= cfg.max_issues {
            return;
        }
        if !cell.is_finite() {
            issues.push(HealthIssue::CellNonFinite { cell_id: cell.id });
        }
    }
}

/// Validate a hematocrit sample against the sanity window.
pub fn check_hematocrit(ht: f64, cfg: &SentinelConfig, issues: &mut Vec<HealthIssue>) {
    if !ht.is_finite() || ht < cfg.ht_range.0 || ht > cfg.ht_range.1 {
        issues.push(HealthIssue::HematocritOutOfRange { ht });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_lattice::couette_channel;

    #[test]
    fn healthy_flow_passes() {
        let mut lat = couette_channel(6, 10, 6, 0.9, 0.02);
        for _ in 0..50 {
            lat.step();
        }
        let cfg = SentinelConfig {
            sample_stride: 1,
            ..SentinelConfig::default()
        };
        let mut issues = Vec::new();
        check_lattice(&lat, &cfg, &mut issues);
        assert!(issues.is_empty(), "{issues:?}");
        check_hematocrit(0.25, &cfg, &mut issues);
        assert!(issues.is_empty());
    }

    #[test]
    fn nan_density_is_caught() {
        let mut lat = couette_channel(6, 10, 6, 0.9, 0.02);
        // Corrupt one interior node's macroscopic density.
        let node = lat.idx(3, 5, 3);
        lat.rho[node] = f64::NAN;
        let cfg = SentinelConfig {
            sample_stride: 1,
            ..SentinelConfig::default()
        };
        let mut issues = Vec::new();
        check_lattice(&lat, &cfg, &mut issues);
        assert!(
            issues.contains(&HealthIssue::NonFiniteDensity { node }),
            "{issues:?}"
        );
    }

    #[test]
    fn supersonic_velocity_is_caught() {
        let mut lat = couette_channel(6, 10, 6, 0.9, 0.02);
        let node = lat.idx(2, 4, 2);
        lat.vel[node * 3] = 1.0; // u = 1.0 ≫ c_s
        let cfg = SentinelConfig {
            sample_stride: 1,
            ..SentinelConfig::default()
        };
        let mut issues = Vec::new();
        check_lattice(&lat, &cfg, &mut issues);
        assert!(
            issues
                .iter()
                .any(|i| matches!(i, HealthIssue::MachExceeded { node: n, .. } if *n == node)),
            "{issues:?}"
        );
    }

    #[test]
    fn issue_count_is_bounded() {
        let mut lat = couette_channel(8, 8, 8, 0.9, 0.02);
        for node in 0..lat.node_count() {
            lat.rho[node] = f64::INFINITY;
        }
        let cfg = SentinelConfig {
            sample_stride: 1,
            max_issues: 5,
            ..SentinelConfig::default()
        };
        let mut issues = Vec::new();
        check_lattice(&lat, &cfg, &mut issues);
        assert_eq!(issues.len(), 5);
    }

    #[test]
    fn bad_hematocrit_is_caught() {
        let cfg = SentinelConfig::default();
        for bad in [f64::NAN, -0.1, 0.9] {
            let mut issues = Vec::new();
            check_hematocrit(bad, &cfg, &mut issues);
            assert_eq!(issues.len(), 1, "ht {bad} should trip");
        }
    }
}

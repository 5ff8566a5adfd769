//! The scenario zoo: named canonical workloads.
//!
//! Each entry maps a paper-relevant vascular workload onto a spec small
//! enough for CI (every registered scenario must build, run 20 steps and
//! keep its conservation ledger clean — enforced by `tests/zoo_smoke.rs`
//! and the `scenarios` CI job). EXPERIMENTS.md maps the entries to the
//! paper's use cases; `zoo_smoke` enumerates this registry, so adding an
//! entry here automatically puts it under that gate.

use crate::spec::{GeometrySpec, InletSpec, ScenarioError, ScenarioSpec, WindowSpec};

/// All registered scenarios, in stable order.
pub fn registry() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::tube_small(1),
        ScenarioSpec::tube_cellular(1),
        tube_pulsatile(),
        stenosis_focus(),
        aneurysm_sac(),
        branch_transit(),
        tree_open(),
        twin_ctc(),
    ]
}

/// Look a scenario up by registry name.
pub fn lookup(name: &str) -> Result<ScenarioSpec, ScenarioError> {
    registry()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| ScenarioError::UnknownScenario(name.to_string()))
}

/// Open tube with a pulsatile Womersley inlet: the minimal unsteady
/// workload (paper §4's pulsatile cerebral flow, miniaturised).
fn tube_pulsatile() -> ScenarioSpec {
    ScenarioSpec {
        name: "tube_pulsatile".into(),
        nx: 17,
        ny: 17,
        nz: 32,
        geometry: GeometrySpec::Tube { radius: 7.0 },
        inlet: InletSpec::Womersley {
            u_mean: 0.02,
            u_amp: 0.01,
            alpha: 1.5,
            period: 40,
        },
        refine: 2,
        span: 6,
        tau_c: 0.9,
        lambda: 0.3,
        hematocrit: 0.0,
        windows: vec![WindowSpec {
            origin: [5.0, 5.0, 8.0],
            ctc_radius: 0.0,
        }],
        seed: 2,
        warmup_steps: 4,
        runtime: Default::default(),
    }
}

/// Cosine-throat stenosis with the window parked on the constriction —
/// the high-shear focal lesion workload. Closed (periodic z + body
/// force), so mass is conserved exactly.
fn stenosis_focus() -> ScenarioSpec {
    ScenarioSpec {
        name: "stenosis_focus".into(),
        nx: 17,
        ny: 17,
        nz: 48,
        geometry: GeometrySpec::Stenosis {
            radius: 6.0,
            throat_radius: 3.5,
            center_z: 24.0,
            length: 16.0,
        },
        inlet: InletSpec::BodyForce { g: 4e-5 },
        refine: 2,
        span: 6,
        tau_c: 0.9,
        lambda: 0.3,
        hematocrit: 0.0,
        windows: vec![WindowSpec {
            origin: [5.0, 5.0, 21.0],
            ctc_radius: 0.0,
        }],
        seed: 3,
        warmup_steps: 2,
        runtime: Default::default(),
    }
}

/// Saccular aneurysm with the window over the sac neck — the paper's
/// cerebral-aneurysm use case in miniature.
fn aneurysm_sac() -> ScenarioSpec {
    ScenarioSpec {
        name: "aneurysm_sac".into(),
        nx: 25,
        ny: 17,
        nz: 32,
        geometry: GeometrySpec::Aneurysm {
            radius: 5.0,
            bulge_radius: 4.0,
            center_z: 16.0,
        },
        inlet: InletSpec::BodyForce { g: 4e-5 },
        refine: 2,
        span: 6,
        tau_c: 0.9,
        lambda: 0.3,
        hematocrit: 0.0,
        windows: vec![WindowSpec {
            origin: [12.0, 5.0, 13.0],
            ctc_radius: 0.0,
        }],
        seed: 4,
        warmup_steps: 2,
        runtime: Default::default(),
    }
}

/// A tracked CTC approaching a generation-1 bifurcation: the
/// junction-transit workload. The side branch keeps the domain closed
/// (periodic z), the strong body force pushes the cell toward the
/// junction at `z = 12`, and the installed [`crate::JunctionGuide`]
/// steers window moves into the daughter the cell chooses.
fn branch_transit() -> ScenarioSpec {
    ScenarioSpec {
        name: "branch_transit".into(),
        nx: 17,
        ny: 17,
        nz: 64,
        geometry: GeometrySpec::SideBranch {
            radius: 5.5,
            branch_radius: 3.0,
            junction_z: 12.0,
            branch_angle: 0.6,
            branch_length: 10.0,
        },
        inlet: InletSpec::BodyForce { g: 4e-4 },
        refine: 2,
        span: 6,
        tau_c: 0.9,
        lambda: 0.3,
        hematocrit: 0.0,
        windows: vec![WindowSpec {
            origin: [5.0, 5.0, 6.0],
            ctc_radius: 3.0,
        }],
        seed: 5,
        warmup_steps: 2,
        runtime: Default::default(),
    }
}

/// Two-level Murray-law tree opened to flow (plug inlet, per-leaf
/// pressure outlets) — the network workload of Lu et al.
/// (arXiv:1909.11085), miniaturised.
fn tree_open() -> ScenarioSpec {
    ScenarioSpec {
        name: "tree_open".into(),
        nx: 33,
        ny: 33,
        nz: 48,
        geometry: GeometrySpec::Tree {
            levels: 2,
            root_radius: 4.0,
            root_length: 18.0,
            branch_angle: 0.45,
            asymmetry: 0.5,
        },
        inlet: InletSpec::Poiseuille { u_max: 0.02 },
        refine: 2,
        span: 6,
        tau_c: 0.9,
        lambda: 0.3,
        hematocrit: 0.0,
        windows: vec![WindowSpec {
            origin: [13.0, 13.0, 6.0],
            ctc_radius: 0.0,
        }],
        seed: 6,
        warmup_steps: 2,
        runtime: Default::default(),
    }
}

/// Two tracked CTCs, two concurrent refinement windows in one bulk tube —
/// the N > 1 disjoint-ownership workload.
fn twin_ctc() -> ScenarioSpec {
    ScenarioSpec {
        name: "twin_ctc".into(),
        nx: 17,
        ny: 17,
        nz: 48,
        geometry: GeometrySpec::Tube { radius: 7.0 },
        inlet: InletSpec::BodyForce { g: 4e-6 },
        refine: 2,
        span: 6,
        tau_c: 0.9,
        lambda: 0.3,
        hematocrit: 0.0,
        windows: vec![
            WindowSpec {
                origin: [5.0, 5.0, 6.0],
                ctc_radius: 2.5,
            },
            WindowSpec {
                origin: [5.0, 5.0, 26.0],
                ctc_radius: 2.5,
            },
        ],
        seed: 7,
        warmup_steps: 2,
        runtime: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_entry_validates_with_a_unique_name_and_hash() {
        let entries = registry();
        assert!(entries.len() >= 8);
        let mut names = HashSet::new();
        let mut hashes = HashSet::new();
        for spec in &entries {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(names.insert(spec.name.clone()), "duplicate {}", spec.name);
            assert!(
                hashes.insert(spec.hash()),
                "hash collision involving {}",
                spec.name
            );
        }
    }

    #[test]
    fn lookup_finds_entries_and_rejects_unknowns() {
        let spec = lookup("branch_transit").unwrap();
        assert_eq!(spec.name, "branch_transit");
        assert_eq!(
            lookup("no_such_scenario").unwrap_err(),
            ScenarioError::UnknownScenario("no_such_scenario".into())
        );
    }

    #[test]
    fn every_entry_round_trips_through_json() {
        for spec in registry() {
            let back = ScenarioSpec::from_json(&spec.to_json())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(spec, back, "{}", spec.name);
            assert_eq!(spec.hash(), back.hash(), "{}", spec.name);
        }
    }
}

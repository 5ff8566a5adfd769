//! Two concurrent refinement windows: disjoint ownership is enforced as
//! typed errors at admission and holds over a real run.

use apr_scenarios::{lookup, ScenarioError, ScenarioSpec, SimSession, WindowSpec};

#[test]
fn overlapping_window_request_is_a_typed_error() {
    let mut spec = lookup("twin_ctc").unwrap();
    // Slide the second window onto the first: footprints collide.
    spec.windows[1] = WindowSpec {
        origin: [5.0, 5.0, 9.0],
        ctc_radius: 2.5,
    };
    assert_eq!(
        spec.validate().unwrap_err(),
        ScenarioError::WindowOverlap {
            first: 0,
            second: 1
        }
    );
    // The builders refuse too — same typed error, never a panic.
    let err = spec.build_multi().err().unwrap();
    assert_eq!(
        err,
        ScenarioError::WindowOverlap {
            first: 0,
            second: 1
        }
    );
    assert!(spec.build_shell().is_err());
}

#[test]
fn twin_ctc_runs_with_disjoint_ownership() {
    let spec = lookup("twin_ctc").unwrap();
    let mut eng = spec.build_multi().unwrap();
    assert_eq!(eng.windows.len(), 2);
    eng.step_n(40);

    // Both windows still track a cell, and their footprints never merged.
    let mut spans: Vec<(f64, f64)> = Vec::new();
    for w in &eng.windows {
        assert!(w.ctc_position().is_some(), "window lost its tracked cell");
        let z0 = w.map.origin[2];
        spans.push((z0, z0 + w.footprint_extent()[2]));
    }
    spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    assert!(
        spans[0].1 < spans[1].0,
        "window footprints overlap after 40 steps: {spans:?}"
    );

    eng.close_ledger();
    let ledger = eng.ledger.as_ref().expect("ledger armed");
    assert!(
        ledger.breaches().is_empty(),
        "twin-window ledger breaches: {:?}",
        ledger.breaches()
    );
}

#[test]
fn out_of_bounds_window_is_a_typed_error() {
    let mut spec = ScenarioSpec::tube_small(1);
    spec.windows[0].origin = [5.0, 5.0, 40.0]; // z + span runs off nz = 24
    assert_eq!(
        spec.validate().unwrap_err(),
        ScenarioError::WindowOutOfBounds { index: 0 }
    );
    assert!(spec.build_apr().is_err());
}

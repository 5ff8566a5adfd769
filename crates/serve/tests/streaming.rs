//! Live progress streaming: every scheduler slice pushes a sample on the
//! service's progress channel, and `subscribe_progress` delivers them in
//! order with a final completion sample — no polling required.

use apr_serve::{JobSpec, ProgressSample, ScenarioSpec, ServeConfig, SimService};
use std::time::Duration;

fn collect_until_complete(sub: &apr_serve::ProgressSubscription) -> Vec<ProgressSample> {
    let mut samples = Vec::new();
    loop {
        let p = sub
            .recv_timeout(Duration::from_secs(30))
            .expect("progress stream must not stall");
        let done = p.completed;
        samples.push(p);
        if done {
            return samples;
        }
    }
}

#[test]
fn every_slice_streams_a_progress_sample() {
    let mut cfg = ServeConfig::new(1);
    cfg.slice_steps = 4;
    let service = SimService::start(cfg);
    // Subscribe before submitting so the first slice cannot be missed.
    let sub = service.subscribe_progress(None);
    let id = service
        .submit(JobSpec {
            scenario: ScenarioSpec::tube_small(71),
            target_steps: 12,
        })
        .expect("admission");

    let samples = collect_until_complete(&sub);
    assert!(samples.iter().all(|p| p.session == id));
    assert_eq!(samples.len(), 3, "12 steps / 4-step slices = 3 samples");
    for (i, p) in samples.iter().enumerate() {
        assert_eq!(p.slice, i as u64 + 1, "slice counter increments");
        assert_eq!(p.steps_done, 4 * (i as u64 + 1), "steps accumulate");
        assert_eq!(p.target_steps, 12);
        assert!(p.steps_per_sec > 0.0, "rate must be positive");
        assert!(
            p.cache_hit.is_some(),
            "cache temperature known from slice 1"
        );
    }
    assert!(samples.last().unwrap().completed);
    assert!(
        !samples[..samples.len() - 1].iter().any(|p| p.completed),
        "only the final sample is marked completed"
    );
    let result = service.wait(id).expect("session known");
    assert_eq!(result.steps, 12);
}

#[test]
fn session_filter_drops_other_sessions() {
    let mut cfg = ServeConfig::new(2);
    cfg.slice_steps = 4;
    let service = SimService::start(cfg);
    // Session ids are sequential per service, starting at 1 — subscribe
    // to the first id before submitting so no sample can be missed.
    let sub = service.subscribe_progress(Some(1));
    let a = service
        .submit(JobSpec {
            scenario: ScenarioSpec::tube_small(72),
            target_steps: 8,
        })
        .expect("admission");
    assert_eq!(a, 1);
    let _b = service
        .submit(JobSpec {
            scenario: ScenarioSpec::tube_small(73),
            target_steps: 8,
        })
        .expect("admission");
    service.wait_all();
    // Everything already published; drain without blocking.
    let mut seen = Vec::new();
    while let Some(p) = sub.try_recv() {
        seen.push(p);
    }
    assert!(!seen.is_empty(), "session A produced samples");
    assert!(seen.iter().all(|p| p.session == a), "filter admits only A");
}

#[test]
fn a_late_reader_gets_every_slice_of_a_finished_session() {
    // Nothing but this session's slices may reach the queue: a reader that
    // only drains after the session ended still gets all of them.
    let mut cfg = ServeConfig::new(1);
    cfg.slice_steps = 100;
    let service = SimService::start(cfg);
    let sub = service.subscribe_progress(None);
    service
        .submit(JobSpec {
            scenario: ScenarioSpec::tube_small(91),
            target_steps: 1200,
        })
        .expect("admission");
    service.wait_all();
    let samples: Vec<ProgressSample> = std::iter::from_fn(|| sub.try_recv()).collect();
    let slices: Vec<u64> = samples.iter().map(|p| p.slice).collect();
    assert_eq!(
        slices,
        (1..=12).collect::<Vec<u64>>(),
        "one sample per slice"
    );
    let completed: Vec<bool> = samples.iter().map(|p| p.completed).collect();
    assert_eq!(completed, [[false; 11].as_slice(), &[true]].concat());
    assert_eq!(sub.dropped(), 0, "nothing lost to the queue bound");
}

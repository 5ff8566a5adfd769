//! The four workloads: a scenario file under `workloads/` plus the driver
//! settings the scenario schema has no field for. README.md records why
//! each was chosen.
//!
//! `--seed` reaches the program only through the generated spec: it sets
//! `ScenarioSpec.seed` (tile and insertion RNG), the tracked cell's axial
//! start, and which spec takes which slot of the sweep.

use apr_scenarios::ScenarioSpec;

/// Driver settings of one single-engine (APR) workload.
pub struct AprWorkload {
    pub name: &'static str,
    /// The scenario file, embedded so the binary runs from any directory.
    pub spec_json: &'static str,
    /// Most calls to `AprEngine::populate_window` set-up makes; it stops at
    /// the spec's hematocrit (see `apr_run::setup`). `rbc_window` reaches
    /// its 0.17 in 4 to 9 calls; `ctc_transit` takes both of its calls and
    /// stays below its 0.20, at the Ht it then holds in transit.
    pub populate_rounds: usize,
    /// Steps after which a timed episode ends and the engine is set up
    /// again: the tracked cell must not reach the end of the vessel, and
    /// the force-driven bulk flow must stay below Mach 0.2. Above the steps
    /// a run takes (~600 and ~200), so a run is one episode.
    pub episode_steps: u64,
    /// Steps of the traced run's counting pass (fixed, so counts repeat).
    pub counted_steps: u64,
    /// Window moves the counting pass must see (0 for a static window).
    pub min_moves: u64,
    /// Window hematocrit must stay within this share of its mean over the
    /// stretch (0 = no cells, no check).
    pub ht_band: f64,
}

pub const RBC_WINDOW: AprWorkload = AprWorkload {
    name: "rbc_window",
    spec_json: include_str!("../workloads/rbc_window.json"),
    populate_rounds: 16,
    episode_steps: u64::MAX,
    counted_steps: 40,
    min_moves: 0,
    ht_band: 0.25,
};

pub const CTC_TRANSIT: AprWorkload = AprWorkload {
    name: "ctc_transit",
    spec_json: include_str!("../workloads/ctc_transit.json"),
    populate_rounds: 2,
    episode_steps: 700,
    counted_steps: 400,
    min_moves: 20,
    // Each move drops the cells of the trailing slab and the fill region
    // is repacked only at the next maintenance sweep: Ht swings ±30 %.
    ht_band: 0.50,
};

pub const BULK_NETWORK: AprWorkload = AprWorkload {
    name: "bulk_network",
    spec_json: include_str!("../workloads/bulk_network.json"),
    populate_rounds: 0,
    episode_steps: 240,
    counted_steps: 350,
    min_moves: 20,
    ht_band: 0.0,
};

pub const APR_WORKLOADS: &[&AprWorkload] = &[&RBC_WINDOW, &CTC_TRANSIT, &BULK_NETWORK];

pub const SERVE_SWEEP: &str = "serve_sweep";

pub const ALL: &[&str] = &["rbc_window", "ctc_transit", "bulk_network", SERVE_SWEEP];

impl AprWorkload {
    /// The scenario this run steps, as JSON: the file with the seed
    /// applied. The engine is built from this text and nothing else.
    pub fn generated_spec(&self, seed: u64) -> String {
        let mut spec = ScenarioSpec::from_json(self.spec_json)
            .unwrap_or_else(|e| panic!("workloads/{}.json: {e}", self.name));
        spec.seed = seed;
        for w in spec.windows.iter_mut().filter(|w| w.ctc_radius > 0.0) {
            w.origin[2] += (seed % 4) as f64;
        }
        spec.to_json()
    }
}

/// Sessions of one sweep, their step targets and the service's slice. The
/// issue's sweep is 50 + 50 sessions, which takes ~40 s on two cores; the
/// run-time cap leaves ~6 s, so only the session count is cut: the 1:1 mix,
/// the 100/40 steps, the slice of 10 (9 and 3 preempts per session) and the
/// problem sizes are the issue's.
pub const SWEEP_SESSIONS: usize = 16;
pub const PLASMA_STEPS: u64 = 100;
pub const CELLULAR_STEPS: u64 = 40;
pub const SLICE_STEPS: u64 = 10;

/// SplitMix64: the seeded stream behind the sweep's submission order.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The sweep: `(spec, target_steps)` per session in submission order.
/// Four distinct specs (two plasma, two cellular), plasma and cellular
/// sessions taking turns. The run seed sets the plasma specs' seeds and
/// shuffles which spec takes which slot of its class. It does not move the
/// expensive sessions within the queue (a free shuffle moves the mean wait
/// by a cellular slice from seed to seed), and it does not reach the
/// cellular specs' seeds (2 and 3 in every run): one `populate_window` call
/// on the 25³ window places 16 to 52 cells depending on the seed, ±18 % in
/// session cost, and the sweep's cost has to be a property of the program.
pub fn sweep_jobs(seed: u64) -> Vec<(ScenarioSpec, u64)> {
    let derive = |text: &str, file: &str, spec_seed: u64| {
        let mut spec =
            ScenarioSpec::from_json(text).unwrap_or_else(|e| panic!("workloads/{file}.json: {e}"));
        spec.seed = spec_seed;
        // Through JSON again: the service sees only generated text.
        ScenarioSpec::from_json(&spec.to_json()).expect("generated spec parses")
    };
    let plasma = include_str!("../workloads/serve_plasma.json");
    let cellular = include_str!("../workloads/serve_cellular.json");
    let p = [
        derive(plasma, "serve_plasma", seed.wrapping_mul(2)),
        derive(plasma, "serve_plasma", seed.wrapping_mul(2).wrapping_add(1)),
    ];
    let c = [
        derive(cellular, "serve_cellular", 2),
        derive(cellular, "serve_cellular", 3),
    ];
    let mut rng = SplitMix(seed ^ 0x5eed_5eed);
    let first_cellular = (rng.next() % 2) as usize;
    let pairs = SWEEP_SESSIONS / 2;
    let mut plasma_slots: Vec<usize> = (0..pairs).map(|i| i % 2).collect();
    for i in (1..pairs).rev() {
        plasma_slots.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut jobs = Vec::with_capacity(SWEEP_SESSIONS);
    for (pair, &k) in plasma_slots.iter().enumerate() {
        jobs.push((p[k].clone(), PLASMA_STEPS));
        jobs.push((c[(pair + first_cellular) % 2].clone(), CELLULAR_STEPS));
    }
    jobs
}

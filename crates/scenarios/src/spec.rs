//! The declarative scenario description and its canonical identity.
//!
//! A [`ScenarioSpec`] is plain data: geometry, inlet, physics knobs and a
//! list of refinement windows. Every *physics* field feeds
//! [`ScenarioSpec::hash`] — the warm-cache key — while the `name` (a
//! registry label) and the `runtime` (kernel/thread knobs, bit-identical
//! by contract) are deliberately excluded, so two specs that describe the
//! same physics are *the same scenario* regardless of what they are called
//! or how they are executed.

use apr_guard::ByteWriter;
use apr_lattice::{KernelKind, RuntimeConfig};
use apr_telemetry::json::{self, Value};

/// Schema tag stamped into every serialized spec.
pub const SCENARIO_SCHEMA: &str = "apr.scenario.v1";

/// Margin (in coarse cells) required between two windows' coarse
/// footprints: windows closer than this are considered overlapping, both
/// at validation and when a window move is proposed.
pub const OWNERSHIP_MARGIN: f64 = 1.0;

/// Vascular geometry of the bulk domain. All lengths are in coarse
/// lattice units; tubes and their variants run along +z through the x/y
/// domain center.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeometrySpec {
    /// Straight circular tube (periodic in z under a body-force inlet —
    /// the classic force-driven recipe).
    Tube {
        /// Lumen radius.
        radius: f64,
    },
    /// Murray's-law bifurcating tree grown along +z from near the inlet
    /// face (requires an open inlet; voxelized from the tree SDF).
    Tree {
        /// Bifurcation levels (1 = a single segment).
        levels: usize,
        /// Root vessel radius.
        root_radius: f64,
        /// Root segment length.
        root_length: f64,
        /// Bifurcation half-angle, radians.
        branch_angle: f64,
        /// Murray asymmetry (0.5 = symmetric).
        asymmetry: f64,
    },
    /// A generation-1 bifurcation that stays closed under periodic z: a
    /// parent tube with a dead-ended daughter branch leaving the
    /// junction. The closed topology keeps mass exactly conserved, which
    /// the junction-transit conservation tests rely on.
    SideBranch {
        /// Parent tube radius.
        radius: f64,
        /// Daughter branch radius.
        branch_radius: f64,
        /// Axial position of the branch point.
        junction_z: f64,
        /// Angle of the daughter off +z (x–z plane), radians.
        branch_angle: f64,
        /// Daughter length along its axis.
        branch_length: f64,
    },
    /// Cosine-smoothed axisymmetric constriction (see
    /// [`apr_geom::StenosedTube`]); z-invariant away from the throat so
    /// the tube can wrap a periodic axis.
    Stenosis {
        /// Nominal lumen radius.
        radius: f64,
        /// Radius at the narrowest point.
        throat_radius: f64,
        /// Axial position of the throat.
        center_z: f64,
        /// Axial extent of the constriction.
        length: f64,
    },
    /// Saccular aneurysm: a spherical bulge unioned onto the tube wall
    /// (the paper's cerebral use case in miniature).
    Aneurysm {
        /// Parent tube radius.
        radius: f64,
        /// Bulge sphere radius.
        bulge_radius: f64,
        /// Axial position of the bulge center.
        center_z: f64,
    },
}

/// Inlet condition driving the bulk flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InletSpec {
    /// Uniform body force along +z (closed, periodic-z domains).
    BodyForce {
        /// Force density.
        g: f64,
    },
    /// Steady parabolic velocity inlet (open domains; trees use a plug
    /// profile, see `build`).
    Poiseuille {
        /// Centerline speed, lattice units.
        u_max: f64,
    },
    /// Pulsatile Womersley inlet: a steady Poiseuille mean plus an
    /// oscillatory Womersley harmonic, restamped onto the existing
    /// `Boundary::Velocity` nodes every step (no new setter API).
    Womersley {
        /// Centerline speed of the steady component.
        u_mean: f64,
        /// Centerline amplitude of the oscillatory component.
        u_amp: f64,
        /// Womersley number α = R√(ω/ν).
        alpha: f64,
        /// Oscillation period in coarse steps.
        period: u64,
    },
}

/// One refinement window request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSpec {
    /// Coarse-lattice coordinates of fine node (0,0,0).
    pub origin: [f64; 3],
    /// Radius of the tracked CTC seeded at the window center, in **fine**
    /// lattice units; `0.0` = no tracked cell (the window stays put).
    pub ctc_radius: f64,
}

/// Errors from validating, parsing or building a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A field combination fails validation.
    Invalid(String),
    /// Two windows' coarse footprints (plus the ownership margin)
    /// intersect.
    WindowOverlap {
        /// Index of the first window of the offending pair.
        first: usize,
        /// Index of the second window of the offending pair.
        second: usize,
    },
    /// A window's footprint leaves the coarse domain.
    WindowOutOfBounds {
        /// Index of the offending window.
        index: usize,
    },
    /// JSON parse or shape error.
    Json(String),
    /// Registry lookup miss.
    UnknownScenario(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::WindowOverlap { first, second } => write!(
                f,
                "windows {first} and {second} overlap (footprints must be \
                 ≥ {OWNERSHIP_MARGIN} coarse cells apart)"
            ),
            ScenarioError::WindowOutOfBounds { index } => {
                write!(f, "window {index} leaves the coarse domain")
            }
            ScenarioError::Json(msg) => write!(f, "scenario JSON: {msg}"),
            ScenarioError::UnknownScenario(name) => {
                write!(
                    f,
                    "unknown scenario {name:?} (see apr_scenarios::registry())"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A complete declarative scenario: everything needed to assemble a ready
/// engine, and nothing that isn't either physics or a label.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registry label. **Excluded from the hash** — identity is physics.
    pub name: String,
    /// Coarse lattice dimensions.
    pub nx: usize,
    /// Coarse lattice dimensions.
    pub ny: usize,
    /// Coarse lattice dimensions (flow axis).
    pub nz: usize,
    /// Vascular geometry.
    pub geometry: GeometrySpec,
    /// Inlet condition.
    pub inlet: InletSpec,
    /// Refinement ratio n (fine spacings per coarse spacing).
    pub refine: usize,
    /// Window span in coarse cells (fine dimension = `span * refine + 1`).
    pub span: usize,
    /// Coarse relaxation time.
    pub tau_c: f64,
    /// Viscosity ratio ν_f/ν_c.
    pub lambda: f64,
    /// Target window hematocrit; `0.0` = pure-plasma windows.
    pub hematocrit: f64,
    /// Refinement windows (≥ 1; N > 1 builds a multi-window engine).
    pub windows: Vec<WindowSpec>,
    /// Insertion-RNG seed.
    pub seed: u64,
    /// Relaxation steps baked into the warm state.
    pub warmup_steps: u64,
    /// Execution knobs (kernel, threads). **Excluded from the hash**:
    /// every kernel and thread count is bit-identical by contract, so
    /// warm blobs are valid across runtimes (test-enforced).
    pub runtime: RuntimeConfig,
}

impl ScenarioSpec {
    /// The small plasma tube: 17×17×24 coarse tube, n = 2, 13³ fine
    /// window, no cells.
    pub fn tube_small(seed: u64) -> Self {
        Self {
            name: "tube_small".into(),
            nx: 17,
            ny: 17,
            nz: 24,
            geometry: GeometrySpec::Tube { radius: 7.0 },
            inlet: InletSpec::BodyForce { g: 4e-6 },
            refine: 2,
            span: 6,
            tau_c: 0.9,
            lambda: 0.3,
            hematocrit: 0.0,
            windows: vec![WindowSpec {
                origin: [5.0, 5.0, 4.0],
                ctc_radius: 0.0,
            }],
            seed,
            warmup_steps: 4,
            runtime: RuntimeConfig::default(),
        }
    }

    /// The cellular tube: 21×21×48 tube with a cell-laden window
    /// (hematocrit 0.12, n = 3).
    pub fn tube_cellular(seed: u64) -> Self {
        Self {
            name: "tube_cellular".into(),
            nx: 21,
            ny: 21,
            nz: 48,
            geometry: GeometrySpec::Tube { radius: 9.0 },
            inlet: InletSpec::BodyForce { g: 4e-6 },
            refine: 3,
            span: 8,
            tau_c: 0.9,
            lambda: 0.3,
            hematocrit: 0.12,
            windows: vec![WindowSpec {
                origin: [6.0, 6.0, 4.0],
                ctc_radius: 0.0,
            }],
            seed,
            warmup_steps: 5,
            runtime: RuntimeConfig::default(),
        }
    }

    /// Coarse extent of a window's footprint along each axis.
    pub fn window_extent(&self) -> f64 {
        self.span as f64
    }

    /// Validate the spec: dimension/physics sanity, every window inside
    /// the coarse domain, and pairwise-disjoint window footprints (with
    /// the [`OWNERSHIP_MARGIN`]).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let invalid = |msg: String| Err(ScenarioError::Invalid(msg));
        if self.nx < 4 || self.ny < 4 || self.nz < 4 {
            return invalid(format!(
                "coarse domain too small: {}×{}×{}",
                self.nx, self.ny, self.nz
            ));
        }
        if self.refine == 0 {
            return invalid("refine must be ≥ 1".into());
        }
        if self.span < 2 {
            return invalid(format!("span {} must be ≥ 2", self.span));
        }
        if self.tau_c <= 0.5 {
            return invalid(format!("tau_c {} must exceed 0.5", self.tau_c));
        }
        if !(self.lambda > 0.0 && self.lambda <= 1.0) {
            return invalid(format!("lambda {} must be in (0, 1]", self.lambda));
        }
        if !(0.0..=0.6).contains(&self.hematocrit) {
            return invalid(format!("hematocrit {} outside [0, 0.6]", self.hematocrit));
        }
        match self.geometry {
            GeometrySpec::Tube { radius } => {
                if radius <= 1.0 {
                    return invalid(format!("tube radius {radius} too small"));
                }
            }
            GeometrySpec::Tree {
                levels,
                root_radius,
                root_length,
                asymmetry,
                ..
            } => {
                if levels == 0 {
                    return invalid("tree levels must be ≥ 1".into());
                }
                if root_radius <= 1.0 || root_length <= 0.0 {
                    return invalid("tree root radius/length too small".into());
                }
                if !(asymmetry > 0.0 && asymmetry < 1.0) {
                    return invalid(format!("tree asymmetry {asymmetry} outside (0, 1)"));
                }
                if matches!(self.inlet, InletSpec::BodyForce { .. }) {
                    return invalid(
                        "tree geometry needs an open inlet (Poiseuille or Womersley), \
                         not a body force"
                            .into(),
                    );
                }
            }
            GeometrySpec::SideBranch {
                radius,
                branch_radius,
                junction_z,
                branch_length,
                ..
            } => {
                if radius <= 1.0 || branch_radius <= 1.0 {
                    return invalid("side-branch radii too small".into());
                }
                if branch_length <= 0.0 {
                    return invalid("side-branch length must be positive".into());
                }
                if !(0.0..self.nz as f64).contains(&junction_z) {
                    return invalid(format!("junction_z {junction_z} outside the domain"));
                }
            }
            GeometrySpec::Stenosis {
                radius,
                throat_radius,
                length,
                ..
            } => {
                if radius <= 1.0 || throat_radius <= 0.5 {
                    return invalid("stenosis radii too small".into());
                }
                if throat_radius >= radius {
                    return invalid(format!(
                        "stenosis throat {throat_radius} must be narrower than the tube {radius}"
                    ));
                }
                if length <= 0.0 {
                    return invalid("stenosis length must be positive".into());
                }
            }
            GeometrySpec::Aneurysm {
                radius,
                bulge_radius,
                ..
            } => {
                if radius <= 1.0 || bulge_radius <= 0.0 {
                    return invalid("aneurysm radii too small".into());
                }
            }
        }
        match self.inlet {
            InletSpec::BodyForce { g } => {
                if g <= 0.0 {
                    return invalid(format!("body force {g} must be positive"));
                }
            }
            InletSpec::Poiseuille { u_max } => {
                if !(0.0..0.2).contains(&u_max) || u_max == 0.0 {
                    return invalid(format!("inlet speed {u_max} outside (0, 0.2)"));
                }
            }
            InletSpec::Womersley {
                u_mean,
                u_amp,
                alpha,
                period,
            } => {
                if u_mean <= 0.0 || u_amp < 0.0 || u_mean + u_amp >= 0.2 {
                    return invalid(format!(
                        "womersley speeds (mean {u_mean}, amp {u_amp}) outside (0, 0.2)"
                    ));
                }
                if !(0.0..10.0).contains(&alpha) || alpha == 0.0 {
                    return invalid(format!("womersley alpha {alpha} outside (0, 10)"));
                }
                if period < 2 {
                    return invalid(format!("womersley period {period} must be ≥ 2"));
                }
            }
        }
        if self.windows.is_empty() {
            return invalid("at least one window is required".into());
        }
        let dims = [self.nx, self.ny, self.nz];
        let ext = self.window_extent();
        for (i, w) in self.windows.iter().enumerate() {
            for (a, &dim) in dims.iter().enumerate() {
                if w.origin[a] < 0.0 || w.origin[a] + ext > (dim - 1) as f64 {
                    return Err(ScenarioError::WindowOutOfBounds { index: i });
                }
            }
            if w.ctc_radius < 0.0 {
                return invalid(format!("window {i} has negative ctc_radius"));
            }
        }
        for i in 0..self.windows.len() {
            for j in (i + 1)..self.windows.len() {
                if footprints_conflict(
                    self.windows[i].origin,
                    [ext; 3],
                    self.windows[j].origin,
                    [ext; 3],
                    OWNERSHIP_MARGIN,
                ) {
                    return Err(ScenarioError::WindowOverlap {
                        first: i,
                        second: j,
                    });
                }
            }
        }
        Ok(())
    }

    /// Canonical FNV-1a hash over every physics field — the warm-cache key
    /// and the scenario's identity in telemetry. `name` and `runtime` are
    /// excluded (see their field docs). Equal physics hash equal on every
    /// platform (floats hash by IEEE bits via the little-endian encoding).
    pub fn hash(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.usize(self.nx);
        w.usize(self.ny);
        w.usize(self.nz);
        match self.geometry {
            GeometrySpec::Tube { radius } => {
                w.u8(0);
                w.f64(radius);
            }
            GeometrySpec::Tree {
                levels,
                root_radius,
                root_length,
                branch_angle,
                asymmetry,
            } => {
                w.u8(1);
                w.usize(levels);
                w.f64(root_radius);
                w.f64(root_length);
                w.f64(branch_angle);
                w.f64(asymmetry);
            }
            GeometrySpec::SideBranch {
                radius,
                branch_radius,
                junction_z,
                branch_angle,
                branch_length,
            } => {
                w.u8(2);
                w.f64(radius);
                w.f64(branch_radius);
                w.f64(junction_z);
                w.f64(branch_angle);
                w.f64(branch_length);
            }
            GeometrySpec::Stenosis {
                radius,
                throat_radius,
                center_z,
                length,
            } => {
                w.u8(3);
                w.f64(radius);
                w.f64(throat_radius);
                w.f64(center_z);
                w.f64(length);
            }
            GeometrySpec::Aneurysm {
                radius,
                bulge_radius,
                center_z,
            } => {
                w.u8(4);
                w.f64(radius);
                w.f64(bulge_radius);
                w.f64(center_z);
            }
        }
        match self.inlet {
            InletSpec::BodyForce { g } => {
                w.u8(0);
                w.f64(g);
            }
            InletSpec::Poiseuille { u_max } => {
                w.u8(1);
                w.f64(u_max);
            }
            InletSpec::Womersley {
                u_mean,
                u_amp,
                alpha,
                period,
            } => {
                w.u8(2);
                w.f64(u_mean);
                w.f64(u_amp);
                w.f64(alpha);
                w.u64(period);
            }
        }
        w.usize(self.refine);
        w.usize(self.span);
        w.f64(self.tau_c);
        w.f64(self.lambda);
        w.f64(self.hematocrit);
        w.usize(self.windows.len());
        for win in &self.windows {
            for a in 0..3 {
                w.f64(win.origin[a]);
            }
            w.f64(win.ctc_radius);
        }
        w.u64(self.seed);
        w.u64(self.warmup_steps);
        fnv1a64(&w.into_bytes())
    }

    /// Serialize to schema-tagged JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"schema\":\"{}\",\"name\":{},",
            SCENARIO_SCHEMA,
            json::escape(&self.name)
        ));
        out.push_str(&format!("\"dims\":[{},{},{}],", self.nx, self.ny, self.nz));
        out.push_str("\"geometry\":");
        match self.geometry {
            GeometrySpec::Tube { radius } => {
                out.push_str(&format!(
                    "{{\"kind\":\"tube\",\"radius\":{}}}",
                    json::number(radius)
                ));
            }
            GeometrySpec::Tree {
                levels,
                root_radius,
                root_length,
                branch_angle,
                asymmetry,
            } => {
                out.push_str(&format!(
                    "{{\"kind\":\"tree\",\"levels\":{levels},\"root_radius\":{},\
                     \"root_length\":{},\"branch_angle\":{},\"asymmetry\":{}}}",
                    json::number(root_radius),
                    json::number(root_length),
                    json::number(branch_angle),
                    json::number(asymmetry)
                ));
            }
            GeometrySpec::SideBranch {
                radius,
                branch_radius,
                junction_z,
                branch_angle,
                branch_length,
            } => {
                out.push_str(&format!(
                    "{{\"kind\":\"side_branch\",\"radius\":{},\"branch_radius\":{},\
                     \"junction_z\":{},\"branch_angle\":{},\"branch_length\":{}}}",
                    json::number(radius),
                    json::number(branch_radius),
                    json::number(junction_z),
                    json::number(branch_angle),
                    json::number(branch_length)
                ));
            }
            GeometrySpec::Stenosis {
                radius,
                throat_radius,
                center_z,
                length,
            } => {
                out.push_str(&format!(
                    "{{\"kind\":\"stenosis\",\"radius\":{},\"throat_radius\":{},\
                     \"center_z\":{},\"length\":{}}}",
                    json::number(radius),
                    json::number(throat_radius),
                    json::number(center_z),
                    json::number(length)
                ));
            }
            GeometrySpec::Aneurysm {
                radius,
                bulge_radius,
                center_z,
            } => {
                out.push_str(&format!(
                    "{{\"kind\":\"aneurysm\",\"radius\":{},\"bulge_radius\":{},\
                     \"center_z\":{}}}",
                    json::number(radius),
                    json::number(bulge_radius),
                    json::number(center_z)
                ));
            }
        }
        out.push_str(",\"inlet\":");
        match self.inlet {
            InletSpec::BodyForce { g } => {
                out.push_str(&format!(
                    "{{\"kind\":\"body_force\",\"g\":{}}}",
                    json::number(g)
                ));
            }
            InletSpec::Poiseuille { u_max } => {
                out.push_str(&format!(
                    "{{\"kind\":\"poiseuille\",\"u_max\":{}}}",
                    json::number(u_max)
                ));
            }
            InletSpec::Womersley {
                u_mean,
                u_amp,
                alpha,
                period,
            } => {
                out.push_str(&format!(
                    "{{\"kind\":\"womersley\",\"u_mean\":{},\"u_amp\":{},\
                     \"alpha\":{},\"period\":{period}}}",
                    json::number(u_mean),
                    json::number(u_amp),
                    json::number(alpha)
                ));
            }
        }
        out.push_str(&format!(
            ",\"refine\":{},\"span\":{},\"tau_c\":{},\"lambda\":{},\"hematocrit\":{}",
            self.refine,
            self.span,
            json::number(self.tau_c),
            json::number(self.lambda),
            json::number(self.hematocrit)
        ));
        out.push_str(",\"windows\":[");
        for (i, win) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"origin\":[{},{},{}],\"ctc_radius\":{}}}",
                json::number(win.origin[0]),
                json::number(win.origin[1]),
                json::number(win.origin[2]),
                json::number(win.ctc_radius)
            ));
        }
        out.push_str(&format!(
            "],\"seed\":{},\"warmup_steps\":{},",
            self.seed, self.warmup_steps
        ));
        let kernel = self.runtime.kernel.map_or("auto", KernelKind::as_str);
        out.push_str(&format!(
            "\"runtime\":{{\"kernel\":\"{kernel}\",\"threads\":{}}}}}",
            self.runtime.threads
        ));
        out
    }

    /// Parse a spec from [`ScenarioSpec::to_json`]'s output (or any JSON
    /// matching the [`SCENARIO_SCHEMA`] layout). The parsed spec is
    /// validated before being returned.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let v = json::parse(text).map_err(ScenarioError::Json)?;
        let schema = str_field(&v, "schema")?;
        if schema != SCENARIO_SCHEMA {
            return Err(ScenarioError::Json(format!(
                "schema {schema:?}, expected {SCENARIO_SCHEMA:?}"
            )));
        }
        let name = str_field(&v, "name")?.to_string();
        let dims = arr_field(&v, "dims")?;
        if dims.len() != 3 {
            return Err(ScenarioError::Json("dims must have 3 entries".into()));
        }
        let dim = |i: usize| -> Result<usize, ScenarioError> {
            dims[i]
                .as_f64()
                .map(|d| d as usize)
                .ok_or_else(|| ScenarioError::Json("non-numeric dim".into()))
        };
        let geometry = {
            let g = field(&v, "geometry")?;
            match str_field(g, "kind")? {
                "tube" => GeometrySpec::Tube {
                    radius: num_field(g, "radius")?,
                },
                "tree" => GeometrySpec::Tree {
                    levels: num_field(g, "levels")? as usize,
                    root_radius: num_field(g, "root_radius")?,
                    root_length: num_field(g, "root_length")?,
                    branch_angle: num_field(g, "branch_angle")?,
                    asymmetry: num_field(g, "asymmetry")?,
                },
                "side_branch" => GeometrySpec::SideBranch {
                    radius: num_field(g, "radius")?,
                    branch_radius: num_field(g, "branch_radius")?,
                    junction_z: num_field(g, "junction_z")?,
                    branch_angle: num_field(g, "branch_angle")?,
                    branch_length: num_field(g, "branch_length")?,
                },
                "stenosis" => GeometrySpec::Stenosis {
                    radius: num_field(g, "radius")?,
                    throat_radius: num_field(g, "throat_radius")?,
                    center_z: num_field(g, "center_z")?,
                    length: num_field(g, "length")?,
                },
                "aneurysm" => GeometrySpec::Aneurysm {
                    radius: num_field(g, "radius")?,
                    bulge_radius: num_field(g, "bulge_radius")?,
                    center_z: num_field(g, "center_z")?,
                },
                kind => {
                    return Err(ScenarioError::Json(format!(
                        "unknown geometry kind {kind:?}"
                    )))
                }
            }
        };
        let inlet = {
            let i = field(&v, "inlet")?;
            match str_field(i, "kind")? {
                "body_force" => InletSpec::BodyForce {
                    g: num_field(i, "g")?,
                },
                "poiseuille" => InletSpec::Poiseuille {
                    u_max: num_field(i, "u_max")?,
                },
                "womersley" => InletSpec::Womersley {
                    u_mean: num_field(i, "u_mean")?,
                    u_amp: num_field(i, "u_amp")?,
                    alpha: num_field(i, "alpha")?,
                    period: num_field(i, "period")? as u64,
                },
                kind => return Err(ScenarioError::Json(format!("unknown inlet kind {kind:?}"))),
            }
        };
        let mut windows = Vec::new();
        for w in arr_field(&v, "windows")? {
            let o = arr_field(w, "origin")?;
            if o.len() != 3 {
                return Err(ScenarioError::Json(
                    "window origin must have 3 entries".into(),
                ));
            }
            let coord = |i: usize| -> Result<f64, ScenarioError> {
                o[i].as_f64()
                    .ok_or_else(|| ScenarioError::Json("non-numeric origin".into()))
            };
            windows.push(WindowSpec {
                origin: [coord(0)?, coord(1)?, coord(2)?],
                ctc_radius: num_field(w, "ctc_radius")?,
            });
        }
        let runtime = {
            let r = field(&v, "runtime")?;
            let kernel = match str_field(r, "kernel")? {
                "auto" => None,
                "reference" => Some(KernelKind::Reference),
                "fused" => Some(KernelKind::FusedSwap),
                k => return Err(ScenarioError::Json(format!("unknown kernel {k:?}"))),
            };
            RuntimeConfig {
                kernel,
                threads: num_field(r, "threads")? as usize,
            }
        };
        let spec = ScenarioSpec {
            name,
            nx: dim(0)?,
            ny: dim(1)?,
            nz: dim(2)?,
            geometry,
            inlet,
            refine: num_field(&v, "refine")? as usize,
            span: num_field(&v, "span")? as usize,
            tau_c: num_field(&v, "tau_c")?,
            lambda: num_field(&v, "lambda")?,
            hematocrit: num_field(&v, "hematocrit")?,
            windows,
            seed: num_field(&v, "seed")? as u64,
            warmup_steps: num_field(&v, "warmup_steps")? as u64,
            runtime,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Do two axis-aligned footprints come within `margin` of each other on
/// every axis? Footprint `a` spans `[a, a + ext_a]` per axis.
pub(crate) fn footprints_conflict(
    a: [f64; 3],
    ext_a: [f64; 3],
    b: [f64; 3],
    ext_b: [f64; 3],
    margin: f64,
) -> bool {
    (0..3).all(|ax| a[ax] < b[ax] + ext_b[ax] + margin && b[ax] < a[ax] + ext_a[ax] + margin)
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, ScenarioError> {
    v.get(key)
        .ok_or_else(|| ScenarioError::Json(format!("missing field {key:?}")))
}

fn num_field(v: &Value, key: &str) -> Result<f64, ScenarioError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| ScenarioError::Json(format!("field {key:?} must be a number")))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, ScenarioError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| ScenarioError::Json(format!("field {key:?} must be a string")))
}

fn arr_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], ScenarioError> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| ScenarioError::Json(format!("field {key:?} must be an array")))
}

/// FNV-1a, 64-bit: tiny, dependency-free, stable across platforms. Kept
/// numerically identical to apr-serve's historical implementation so
/// existing cache-key expectations carry over.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_specs_hash_equal_and_fields_matter() {
        let a = ScenarioSpec::tube_small(7);
        let b = ScenarioSpec::tube_small(7);
        assert_eq!(a.hash(), b.hash());
        let c = ScenarioSpec::tube_small(8);
        assert_ne!(a.hash(), c.hash());
        let mut d = ScenarioSpec::tube_small(7);
        d.inlet = InletSpec::BodyForce { g: 8e-6 };
        assert_ne!(a.hash(), d.hash());
        let mut e = ScenarioSpec::tube_small(7);
        e.windows[0].ctc_radius = 2.0;
        assert_ne!(a.hash(), e.hash());
    }

    #[test]
    fn name_and_runtime_do_not_change_hash() {
        let base = ScenarioSpec::tube_small(11);
        let mut renamed = base.clone();
        renamed.name = "anything_else".into();
        assert_eq!(base.hash(), renamed.hash());
        let mut pinned = base.clone();
        pinned.runtime = RuntimeConfig::default().with_kernel(KernelKind::Reference);
        assert_eq!(base.hash(), pinned.hash());
    }

    #[test]
    fn json_round_trips_every_geometry_and_inlet() {
        let mut specs = vec![ScenarioSpec::tube_small(3), ScenarioSpec::tube_cellular(4)];
        let mut tree = ScenarioSpec::tube_small(5);
        tree.name = "tree".into();
        tree.nx = 32;
        tree.ny = 32;
        tree.nz = 32;
        tree.geometry = GeometrySpec::Tree {
            levels: 2,
            root_radius: 4.0,
            root_length: 10.0,
            branch_angle: 0.5,
            asymmetry: 0.5,
        };
        tree.inlet = InletSpec::Womersley {
            u_mean: 0.02,
            u_amp: 0.01,
            alpha: 1.5,
            period: 40,
        };
        tree.windows[0].origin = [12.0, 12.0, 4.0];
        specs.push(tree);
        let mut sten = ScenarioSpec::tube_small(6);
        sten.name = "sten".into();
        sten.geometry = GeometrySpec::Stenosis {
            radius: 6.0,
            throat_radius: 3.5,
            center_z: 12.0,
            length: 10.0,
        };
        specs.push(sten);
        let mut an = ScenarioSpec::tube_small(7);
        an.name = "an".into();
        an.geometry = GeometrySpec::Aneurysm {
            radius: 5.0,
            bulge_radius: 3.0,
            center_z: 12.0,
        };
        an.inlet = InletSpec::Poiseuille { u_max: 0.03 };
        specs.push(an);
        let mut sb = ScenarioSpec::tube_small(8);
        sb.name = "sb".into();
        sb.geometry = GeometrySpec::SideBranch {
            radius: 5.5,
            branch_radius: 3.5,
            junction_z: 12.0,
            branch_angle: 0.6,
            branch_length: 8.0,
        };
        specs.push(sb);
        for spec in specs {
            let text = spec.to_json();
            let back = ScenarioSpec::from_json(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", spec.name));
            assert_eq!(spec, back, "round trip of {}", spec.name);
            assert_eq!(spec.hash(), back.hash());
        }
    }

    #[test]
    fn from_json_rejects_bad_schema_and_shapes() {
        assert!(matches!(
            ScenarioSpec::from_json("{\"schema\":\"other.v9\"}"),
            Err(ScenarioError::Json(_))
        ));
        assert!(matches!(
            ScenarioSpec::from_json("not json at all"),
            Err(ScenarioError::Json(_))
        ));
        // benchmark/workloads/serve_plasma.json, written when the runtime
        // object still carried "probe" and "chunking": both keys are
        // ignored, the spec and its hash (taken before they went) are
        // unchanged, whatever policy the text names.
        let v1 = r#"{"schema":"apr.scenario.v1","name":"serve_plasma","dims":[17,17,24],
 "geometry":{"kind":"tube","radius":7.0},
 "inlet":{"kind":"body_force","g":0.000004},
 "refine":2,"span":6,"tau_c":0.9,"lambda":0.3,"hematocrit":0.0,
 "windows":[{"origin":[5.0,5.0,4.0],"ctc_radius":0.0}],
 "seed":0,"warmup_steps":4,
 "runtime":{"kernel":"auto","threads":0,"chunking":"guided","probe":true}}"#;
        let spec = ScenarioSpec::from_json(v1).expect("v1 text with \"probe\"");
        assert_eq!(spec.hash(), 0x46fe_9449_039e_8634);
        assert_eq!(spec.runtime, RuntimeConfig::default());
        let v1_static = v1.replace("\"guided\"", "\"static\"");
        let spec = ScenarioSpec::from_json(&v1_static).expect("v1 text with \"static\"");
        assert_eq!(spec.hash(), 0x46fe_9449_039e_8634);
        assert_eq!(spec.runtime, RuntimeConfig::default());
        assert!(matches!(
            ScenarioSpec::from_json(&v1.replace("\"auto\"", "\"simd\"")),
            Err(ScenarioError::Json(_))
        ));
    }

    #[test]
    fn overlapping_windows_are_a_typed_error() {
        let mut spec = ScenarioSpec::tube_cellular(1);
        spec.nz = 64;
        spec.windows = vec![
            WindowSpec {
                origin: [6.0, 6.0, 4.0],
                ctc_radius: 0.0,
            },
            WindowSpec {
                origin: [6.0, 6.0, 10.0],
                ctc_radius: 0.0,
            },
        ];
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::WindowOverlap {
                first: 0,
                second: 1
            })
        );
        // Far enough apart: valid.
        spec.windows[1].origin[2] = 24.0;
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn out_of_bounds_window_is_a_typed_error() {
        let mut spec = ScenarioSpec::tube_small(1);
        spec.windows[0].origin = [5.0, 5.0, 19.0];
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::WindowOutOfBounds { index: 0 })
        );
    }

    #[test]
    fn tree_with_body_force_is_rejected() {
        let mut spec = ScenarioSpec::tube_small(1);
        spec.nx = 32;
        spec.ny = 32;
        spec.nz = 32;
        spec.geometry = GeometrySpec::Tree {
            levels: 2,
            root_radius: 4.0,
            root_length: 10.0,
            branch_angle: 0.5,
            asymmetry: 0.5,
        };
        spec.windows[0].origin = [12.0, 12.0, 4.0];
        assert!(matches!(spec.validate(), Err(ScenarioError::Invalid(_))));
    }
}

//! Assembling a ready engine from a [`ScenarioSpec`].
//!
//! Every geometry×inlet combination maps onto one of three bulk recipes:
//!
//! * **Force-driven tube** (`Tube` + `BodyForce`) — the plain periodic
//!   tube: `force_driven_tube`, default window anatomy, no fine-geometry
//!   callback.
//! * **Closed periodic lumen** (`SideBranch`/`Stenosis`/`Aneurysm` +
//!   `BodyForce`) — the SDF is voxelized onto a z-periodic lattice and
//!   flow is driven by a body force. All three SDFs are z-invariant at
//!   the wrap plane, so the periodic axis is valid and mass is conserved
//!   to machine precision (the conservation tests lean on this).
//! * **Open flow** (any geometry + `Poiseuille`/`Womersley`) — a
//!   non-periodic lattice with a velocity inlet disc near `z = 0` and a
//!   ρ = 1 pressure outlet plane near `z = nz − 1` (trees use
//!   [`apr_geom::open_tree_flow`]'s plug inlet and per-leaf outlets). A
//!   pulsatile inlet installs a [`apr_core::BulkDriver`] that restamps
//!   the existing `Boundary::Velocity` nodes from the analytic
//!   [`Womersley`] profile each step — values only, no new setter API, no
//!   geometry revisions.
//!
//! One window builds an [`AprEngine`]; several build a
//! [`MultiWindowEngine`]. Branching geometries (`SideBranch`, `Tree`)
//! automatically install a [`JunctionGuide`] steer so windows navigate
//! junctions along the tracked cell's trajectory.

use crate::multi::{MultiWindowEngine, WindowUnit};
use crate::spec::{GeometrySpec, InletSpec, ScenarioError, ScenarioSpec};
use crate::transit::{Junction, JunctionGuide};
use crate::womersley::Womersley;
use apr_cells::RbcTile;
use apr_core::{AprEngine, BulkDriver, FineGeometry, LedgerConfig, SimSession};
use apr_coupling::fine_tau;
use apr_geom::{
    open_tree_flow, voxelize, Capsule, Cylinder, Sdf, Sphere, StenosedTube, TreeParams, Union,
    VascularTree,
};
use apr_lattice::{force_driven_tube, Boundary, Lattice, NodeClass};
use apr_membrane::{Membrane, MembraneMaterial, ReferenceState};
use apr_mesh::{biconcave_rbc_mesh, icosphere, Vec3};
use apr_window::{HematocritController, InsertionContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Everything `build_bulk` produces beyond the lattice itself.
struct BulkSetup {
    lattice: Lattice,
    /// Lumen SDF in coarse coordinates; `None` for the force-driven tube
    /// (whose fine window is deliberately unflagged).
    sdf: Option<Arc<dyn Sdf>>,
    /// Pulsatile inlet restamper.
    driver: Option<BulkDriver>,
    /// Junction steering for branching geometries.
    guide: Option<JunctionGuide>,
}

/// One inlet node: lattice index, radial fraction s = r/R, steady
/// velocity, and the unit flow direction the oscillation acts along.
type InletNode = (usize, f64, [f64; 3], [f64; 3]);

fn domain_axis_center(spec: &ScenarioSpec) -> (f64, f64) {
    ((spec.nx as f64 - 1.0) / 2.0, (spec.ny as f64 - 1.0) / 2.0)
}

/// The lumen SDF for a non-tree geometry, in coarse coordinates.
fn geometry_sdf(spec: &ScenarioSpec) -> Option<Arc<dyn Sdf>> {
    let (cx, cy) = domain_axis_center(spec);
    let axis_origin = Vec3::new(cx, cy, 0.0);
    match spec.geometry {
        GeometrySpec::Tube { radius } => {
            Some(Arc::new(Cylinder::new(axis_origin, Vec3::Z, radius)))
        }
        GeometrySpec::SideBranch {
            radius,
            branch_radius,
            junction_z,
            branch_angle,
            branch_length,
        } => {
            let junction = Vec3::new(cx, cy, junction_z);
            let dir = Vec3::new(branch_angle.sin(), 0.0, branch_angle.cos());
            Some(Arc::new(Union(vec![
                Box::new(Cylinder::new(axis_origin, Vec3::Z, radius)),
                Box::new(Capsule::new(
                    junction,
                    junction + dir * branch_length,
                    branch_radius,
                )),
            ])))
        }
        GeometrySpec::Stenosis {
            radius,
            throat_radius,
            center_z,
            length,
        } => Some(Arc::new(StenosedTube {
            r0: radius,
            throat: throat_radius,
            center_z,
            length,
            origin: axis_origin,
        })),
        GeometrySpec::Aneurysm {
            radius,
            bulge_radius,
            center_z,
        } => Some(Arc::new(Union(vec![
            Box::new(Cylinder::new(axis_origin, Vec3::Z, radius)),
            Box::new(Sphere::new(
                Vec3::new(cx + radius, cy, center_z),
                bulge_radius,
            )),
        ]))),
        GeometrySpec::Tree { .. } => None, // handled by build_bulk directly
    }
}

/// The parent-lumen radius at the inlet plane (z-invariant there for
/// every geometry).
fn inlet_radius(spec: &ScenarioSpec) -> f64 {
    match spec.geometry {
        GeometrySpec::Tube { radius }
        | GeometrySpec::SideBranch { radius, .. }
        | GeometrySpec::Stenosis { radius, .. }
        | GeometrySpec::Aneurysm { radius, .. } => radius,
        GeometrySpec::Tree { root_radius, .. } => root_radius,
    }
}

/// Stamp a velocity inlet disc at `z = 1` and a ρ = 1 pressure outlet
/// plane at `z = nz − 2` on an open (non-periodic) lumen. Returns the
/// inlet nodes with their radial fractions; velocities hold the profile's
/// step-0 values.
fn stamp_tube_ports(
    lat: &mut Lattice,
    cx: f64,
    cy: f64,
    radius: f64,
    u_at: impl Fn(f64) -> f64,
) -> Vec<InletNode> {
    let mut inlet = Vec::new();
    let z_out = lat.nz - 2;
    for y in 0..lat.ny {
        for x in 0..lat.nx {
            let node = lat.idx(x, y, 1);
            if lat.flag(node) == NodeClass::Fluid {
                let r = ((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt();
                if r < radius {
                    let s = (r / radius).min(1.0);
                    let u = [0.0, 0.0, u_at(s)];
                    lat.set_boundary(node, Boundary::Velocity(u));
                    inlet.push((node, s, u, [0.0, 0.0, 1.0]));
                }
            }
            let node = lat.idx(x, y, z_out);
            if lat.flag(node) == NodeClass::Fluid {
                lat.set_boundary(node, Boundary::Pressure(1.0));
            }
        }
    }
    inlet
}

/// Build the pulsatile restamper over a fixed inlet-node list.
fn womersley_driver(nodes: Vec<InletNode>, u_amp: f64, w: Womersley) -> BulkDriver {
    Box::new(move |lat, step| {
        for &(node, s, steady, dir) in &nodes {
            let osc = u_amp * w.profile(s, step);
            lat.update_velocity_bc(
                node,
                [
                    steady[0] + dir[0] * osc,
                    steady[1] + dir[1] * osc,
                    steady[2] + dir[2] * osc,
                ],
            );
        }
    })
}

/// Assemble the bulk lattice (plus SDF / driver / steer) for a validated
/// spec.
fn build_bulk(spec: &ScenarioSpec) -> Result<BulkSetup, ScenarioError> {
    let (cx, cy) = domain_axis_center(spec);
    if let (GeometrySpec::Tube { radius }, InletSpec::BodyForce { g }) = (spec.geometry, spec.inlet)
    {
        return Ok(BulkSetup {
            lattice: force_driven_tube(spec.nx, spec.ny, spec.nz, spec.tau_c, radius, g),
            sdf: None,
            driver: None,
            guide: None,
        });
    }

    // Trees grow from near the inlet face along +z and always run open.
    if let GeometrySpec::Tree {
        levels,
        root_radius,
        root_length,
        branch_angle,
        asymmetry,
    } = spec.geometry
    {
        let params = TreeParams {
            root_radius,
            root_length,
            levels,
            branch_angle,
            asymmetry,
            jitter: 0.0, // deterministic: the spec hash must pin the geometry
        };
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let tree = VascularTree::grow(&params, Vec3::new(cx, cy, 2.0), Vec3::Z, &mut rng);
        let mut lat = Lattice::new(spec.nx, spec.ny, spec.nz, spec.tau_c);
        let sdf: Arc<dyn Sdf> = Arc::new(tree.sdf());
        voxelize(&mut lat, sdf.as_ref(), Vec3::ZERO, 1.0);
        let (u_plug, pulsatile) = match spec.inlet {
            InletSpec::Poiseuille { u_max } => (u_max, None),
            InletSpec::Womersley {
                u_mean,
                u_amp,
                alpha,
                period,
            } => (u_mean, Some((u_amp, Womersley::new(alpha, period)))),
            InletSpec::BodyForce { .. } => {
                unreachable!("validate() rejects Tree + BodyForce")
            }
        };
        open_tree_flow(&mut lat, &tree, Vec3::ZERO, 1.0, u_plug);
        // Pulsatile trees restamp every inlet node with the plug (s = 0)
        // oscillation on top of the steady plug.
        let driver = pulsatile.map(|(u_amp, w)| {
            let dir = [0.0, 0.0, 1.0];
            let nodes: Vec<InletNode> = (0..lat.node_count())
                .filter(|&n| lat.flag(n) == NodeClass::Velocity)
                .map(|n| (n, 0.0, [0.0, 0.0, u_plug], dir))
                .collect();
            womersley_driver(nodes, u_amp, w)
        });
        let guide = JunctionGuide::from_tree(&tree, spec.span as f64, 1.5);
        return Ok(BulkSetup {
            lattice: lat,
            sdf: Some(sdf),
            driver,
            guide: Some(guide),
        });
    }

    let sdf = geometry_sdf(spec).expect("non-tree geometry has an SDF");
    let guide = match spec.geometry {
        GeometrySpec::SideBranch {
            junction_z,
            branch_angle,
            ..
        } => Some(JunctionGuide::new(
            vec![Junction {
                center: Vec3::new(cx, cy, junction_z),
                daughters: vec![
                    Vec3::Z,
                    Vec3::new(branch_angle.sin(), 0.0, branch_angle.cos()),
                ],
            }],
            spec.span as f64,
            1.5,
        )),
        _ => None,
    };
    match spec.inlet {
        InletSpec::BodyForce { g } => {
            // Closed periodic lumen: exactly mass-conserving.
            let mut lat = Lattice::new(spec.nx, spec.ny, spec.nz, spec.tau_c);
            lat.periodic = [false, false, true];
            lat.body_force = [0.0, 0.0, g];
            voxelize(&mut lat, sdf.as_ref(), Vec3::ZERO, 1.0);
            Ok(BulkSetup {
                lattice: lat,
                sdf: Some(sdf),
                driver: None,
                guide,
            })
        }
        InletSpec::Poiseuille { u_max } => {
            let mut lat = Lattice::new(spec.nx, spec.ny, spec.nz, spec.tau_c);
            voxelize(&mut lat, sdf.as_ref(), Vec3::ZERO, 1.0);
            let radius = inlet_radius(spec);
            stamp_tube_ports(&mut lat, cx, cy, radius, |s| u_max * (1.0 - s * s));
            Ok(BulkSetup {
                lattice: lat,
                sdf: Some(sdf),
                driver: None,
                guide,
            })
        }
        InletSpec::Womersley {
            u_mean,
            u_amp,
            alpha,
            period,
        } => {
            let mut lat = Lattice::new(spec.nx, spec.ny, spec.nz, spec.tau_c);
            voxelize(&mut lat, sdf.as_ref(), Vec3::ZERO, 1.0);
            let radius = inlet_radius(spec);
            let w = Womersley::new(alpha, period);
            let nodes = stamp_tube_ports(&mut lat, cx, cy, radius, |s| {
                u_mean * (1.0 - s * s) + u_amp * w.profile(s, 0)
            });
            // The stamped values include the step-0 oscillation; the driver
            // owns the steady part so restamping is self-contained.
            let nodes: Vec<InletNode> = nodes
                .into_iter()
                .map(|(n, s, _, dir)| (n, s, [0.0, 0.0, u_mean * (1.0 - s * s)], dir))
                .collect();
            Ok(BulkSetup {
                lattice: lat,
                sdf: Some(sdf),
                driver: Some(womersley_driver(nodes, u_amp, w)),
                guide,
            })
        }
    }
}

/// Re-flag a fine lattice from the coarse-coordinate lumen SDF at any
/// window origin: clear every node, then voxelize at spacing 1/n.
fn fine_geometry_for(sdf: Arc<dyn Sdf>, n: usize) -> FineGeometry {
    Box::new(move |fine, origin| {
        for node in 0..fine.node_count() {
            fine.clear_boundary(node);
        }
        voxelize(
            fine,
            sdf.as_ref(),
            Vec3::new(origin[0], origin[1], origin[2]),
            1.0 / n as f64,
        );
    })
}

/// The shared RBC insertion recipe.
fn insertion_for(spec: &ScenarioSpec) -> (InsertionContext, HematocritController) {
    let radius = 3.0;
    let rbc_mesh = biconcave_rbc_mesh(1, radius);
    let re = Arc::new(ReferenceState::build(&rbc_mesh));
    let membrane = Arc::new(Membrane::new(re, MembraneMaterial::rbc(2e-4, 1e-5)));
    let volume = rbc_mesh.enclosed_volume();
    let mut tile_rng = StdRng::seed_from_u64(spec.seed ^ 0x7115);
    let tile = RbcTile::build(
        40.0,
        spec.hematocrit,
        radius,
        radius * 0.6,
        volume,
        &mut tile_rng,
    );
    (
        InsertionContext {
            rbc_mesh,
            rbc_membrane: membrane,
            tile,
            min_gap: 0.8,
        },
        HematocritController::new(spec.hematocrit, 0.85, volume),
    )
}

/// A tracked CTC: icosphere mesh at the fine-domain centre.
fn ctc_parts(fine_dim: usize, radius: f64) -> (Arc<Membrane>, Vec<Vec3>) {
    let mesh = icosphere(1, radius);
    let membrane = Arc::new(Membrane::new(
        Arc::new(ReferenceState::build(&mesh)),
        MembraneMaterial::ctc(2e-3, 1e-4),
    ));
    let center = (fine_dim - 1) as f64 / 2.0;
    let offset = Vec3::new(center, center, center);
    let verts = mesh.vertices.iter().map(|&v| v + offset).collect();
    (membrane, verts)
}

fn fine_lattice(spec: &ScenarioSpec) -> Lattice {
    let fine_dim = spec.span * spec.refine + 1;
    let mut fine = Lattice::new(
        fine_dim,
        fine_dim,
        fine_dim,
        fine_tau(spec.tau_c, spec.refine, spec.lambda),
    );
    if let InletSpec::BodyForce { g } = spec.inlet {
        fine.body_force = [0.0, 0.0, g / spec.refine as f64];
    }
    fine
}

impl ScenarioSpec {
    /// Build the single-window [`AprEngine`] shell for this spec (no cells
    /// placed, no steps taken). Errors unless `windows.len() == 1`.
    pub fn build_apr(&self) -> Result<AprEngine, ScenarioError> {
        self.validate()?;
        if self.windows.len() != 1 {
            return Err(ScenarioError::Invalid(format!(
                "build_apr needs exactly one window, spec has {}",
                self.windows.len()
            )));
        }
        let bulk = build_bulk(self)?;
        let w = self.windows[0];
        let mut eng = AprEngine::builder(
            bulk.lattice,
            fine_lattice(self),
            w.origin,
            self.refine,
            self.lambda,
        )
        .seed(self.seed)
        .maintenance_interval(10)
        .runtime(self.runtime)
        .ledger(LedgerConfig::default())
        .build();
        if let Some(sdf) = bulk.sdf {
            eng.set_fine_geometry(fine_geometry_for(sdf, self.refine));
        }
        if let Some(driver) = bulk.driver {
            eng.set_bulk_driver(driver);
        }
        if let Some(guide) = bulk.guide {
            eng.set_window_steer(guide.into_steer());
        }
        if self.hematocrit > 0.0 {
            let (ctx, controller) = insertion_for(self);
            eng.insertion = Some(ctx);
            eng.controller = Some(controller);
        }
        if w.ctc_radius > 0.0 {
            let (membrane, verts) = ctc_parts(self.span * self.refine + 1, w.ctc_radius);
            eng.add_ctc(membrane, verts);
        }
        Ok(eng)
    }

    /// Build the [`MultiWindowEngine`] shell for this spec (works for any
    /// window count ≥ 1; the N-window path apr-serve schedules).
    pub fn build_multi(&self) -> Result<MultiWindowEngine, ScenarioError> {
        self.validate()?;
        let bulk = build_bulk(self)?;
        let mut eng = MultiWindowEngine::new(bulk.lattice);
        eng.maintenance_interval = 10;
        eng.set_ledger(LedgerConfig::default());
        if let Some(driver) = bulk.driver {
            eng.set_bulk_driver(driver);
        }
        for (i, w) in self.windows.iter().enumerate() {
            // Distinct deterministic insertion streams per window.
            let seed = self
                .seed
                .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut unit = WindowUnit::new(
                &eng.coarse,
                fine_lattice(self),
                w.origin,
                self.refine,
                self.lambda,
                seed,
            )
            .map_err(|_| ScenarioError::WindowOutOfBounds { index: i })?;
            if let Some(sdf) = &bulk.sdf {
                unit.set_fine_geometry(
                    &eng.coarse,
                    fine_geometry_for(Arc::clone(sdf), self.refine),
                );
            }
            if let Some(guide) = &bulk.guide {
                unit.set_window_steer(guide.clone().into_steer());
            }
            if self.hematocrit > 0.0 {
                let (ctx, controller) = insertion_for(self);
                unit.insertion = Some(ctx);
                unit.controller = Some(controller);
            }
            if w.ctc_radius > 0.0 {
                let (membrane, verts) = ctc_parts(self.span * self.refine + 1, w.ctc_radius);
                unit.add_ctc(membrane, verts);
            }
            eng.add_window(unit)?;
        }
        Ok(eng)
    }

    /// Build the engine shell behind the scheduler-facing trait: one
    /// window → [`AprEngine`], several → [`MultiWindowEngine`]. The shell
    /// is the resume target for warm-cache blobs.
    pub fn build_shell(&self) -> Result<Box<dyn SimSession>, ScenarioError> {
        if self.windows.len() == 1 {
            Ok(Box::new(self.build_apr()?))
        } else {
            Ok(Box::new(self.build_multi()?))
        }
    }

    /// Cold setup: build the shell, pack cell-laden windows, and run the
    /// warmup relaxation. The returned session is at step `warmup_steps` —
    /// the state the warm cache stores.
    pub fn build_cold(&self) -> Result<Box<dyn SimSession>, ScenarioError> {
        if self.windows.len() == 1 {
            let mut eng = self.build_apr()?;
            if self.hematocrit > 0.0 {
                eng.populate_window();
            }
            eng.step_n(self.warmup_steps);
            Ok(Box::new(eng))
        } else {
            let mut eng = self.build_multi()?;
            if self.hematocrit > 0.0 {
                eng.populate_windows();
            }
            eng.step_n(self.warmup_steps);
            Ok(Box::new(eng))
        }
    }

    /// Alias for [`ScenarioSpec::build_cold`]: the one-call "give me a
    /// running scenario" entry point.
    pub fn build(&self) -> Result<Box<dyn SimSession>, ScenarioError> {
        self.build_cold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WindowSpec;

    fn plane_fluid_count(lat: &Lattice, z: usize) -> usize {
        let mut count = 0;
        for y in 0..lat.ny {
            for x in 0..lat.nx {
                if lat.flag(lat.idx(x, y, z)) == NodeClass::Fluid {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn tube_small_matches_reference_recipe_bytes() {
        let spec = ScenarioSpec::tube_small(3);
        let a = spec.build_cold().unwrap().suspend();
        let b = spec.build_cold().unwrap().suspend();
        assert_eq!(a, b, "cold builds of one spec must be bit-identical");
        let mut shell = spec.build_shell().unwrap();
        shell.resume(&a).unwrap();
        assert_eq!(shell.suspend(), a);
        assert_eq!(shell.steps(), spec.warmup_steps);
    }

    #[test]
    fn stenosis_voxelizes_with_narrowed_throat() {
        let mut spec = ScenarioSpec::tube_small(1);
        spec.name = "sten".into();
        spec.nz = 48;
        spec.geometry = GeometrySpec::Stenosis {
            radius: 6.0,
            throat_radius: 3.0,
            center_z: 24.0,
            length: 16.0,
        };
        spec.inlet = InletSpec::BodyForce { g: 4e-6 };
        spec.validate().unwrap();
        let bulk = build_bulk(&spec).unwrap();
        let far = plane_fluid_count(&bulk.lattice, 4);
        let throat = plane_fluid_count(&bulk.lattice, 24);
        assert!(
            throat < far / 2,
            "throat cross-section {throat} should be well under the far-field {far}"
        );
        assert!(throat > 0, "throat must stay open");
    }

    #[test]
    fn aneurysm_bulges_and_side_branch_widens_past_junction() {
        let mut spec = ScenarioSpec::tube_small(1);
        spec.nx = 24;
        spec.ny = 17;
        spec.nz = 48;
        spec.windows[0].origin = [5.0, 5.0, 4.0];
        spec.geometry = GeometrySpec::Aneurysm {
            radius: 5.0,
            bulge_radius: 4.0,
            center_z: 24.0,
        };
        let bulk = build_bulk(&spec).unwrap();
        let far = plane_fluid_count(&bulk.lattice, 4);
        let sac = plane_fluid_count(&bulk.lattice, 24);
        assert!(
            sac > far,
            "aneurysm plane {sac} should exceed the plain tube {far}"
        );

        spec.geometry = GeometrySpec::SideBranch {
            radius: 5.0,
            branch_radius: 3.0,
            junction_z: 20.0,
            branch_angle: 0.6,
            branch_length: 12.0,
        };
        let bulk = build_bulk(&spec).unwrap();
        assert!(
            bulk.guide.is_some(),
            "side branch installs a junction guide"
        );
        let far = plane_fluid_count(&bulk.lattice, 4);
        let branch_plane = plane_fluid_count(&bulk.lattice, 26);
        assert!(
            branch_plane > far,
            "daughter lumen should add fluid: {branch_plane} vs {far}"
        );
    }

    #[test]
    fn tree_opens_with_two_outlets_and_junction_guide() {
        let mut spec = ScenarioSpec::tube_small(5);
        spec.name = "tree".into();
        spec.nx = 32;
        spec.ny = 32;
        spec.nz = 48;
        spec.geometry = GeometrySpec::Tree {
            levels: 2,
            root_radius: 4.0,
            root_length: 18.0,
            branch_angle: 0.45,
            asymmetry: 0.5,
        };
        spec.inlet = InletSpec::Poiseuille { u_max: 0.02 };
        spec.windows[0].origin = [13.0, 13.0, 6.0];
        spec.validate().unwrap();
        let bulk = build_bulk(&spec).unwrap();
        let guide = bulk.guide.expect("tree installs a junction guide");
        assert_eq!(guide.junctions.len(), 1);
        assert_eq!(guide.junctions[0].daughters.len(), 2);
        // The inlet plane carries velocity nodes.
        let lat = &bulk.lattice;
        let velocity_nodes = (0..lat.node_count())
            .filter(|&n| lat.flag(n) == NodeClass::Velocity)
            .count();
        assert!(velocity_nodes > 5, "plug inlet stamped: {velocity_nodes}");
    }

    #[test]
    fn womersley_inlet_oscillates_through_the_boundary_enum() {
        let mut spec = ScenarioSpec::tube_small(2);
        spec.name = "puls".into();
        spec.inlet = InletSpec::Womersley {
            u_mean: 0.02,
            u_amp: 0.01,
            alpha: 1.0,
            period: 20,
        };
        let mut eng = spec.build_apr().unwrap();
        // Track a fluid node on the axis mid-domain over one period.
        let (cx, cy) = ((spec.nx - 1) / 2, (spec.ny - 1) / 2);
        let probe = eng.coarse.idx(cx, cy, spec.nz / 2);
        let mut us = Vec::new();
        for _ in 0..40 {
            eng.step();
            us.push(eng.coarse.velocity_at(probe)[2]);
        }
        let max = us.iter().cloned().fold(f64::MIN, f64::max);
        let min = us.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max - min > 1e-4,
            "pulsatile inlet should modulate the core flow: range {min}..{max}"
        );
    }

    #[test]
    fn two_window_spec_builds_multi_engine() {
        let mut spec = ScenarioSpec::tube_small(9);
        spec.name = "twin".into();
        spec.nz = 48;
        spec.windows = vec![
            WindowSpec {
                origin: [5.0, 5.0, 4.0],
                ctc_radius: 0.0,
            },
            WindowSpec {
                origin: [5.0, 5.0, 24.0],
                ctc_radius: 0.0,
            },
        ];
        let mut session = spec.build_cold().unwrap();
        assert_eq!(session.steps(), spec.warmup_steps);
        session.step_n(3);
        assert_eq!(session.steps(), spec.warmup_steps + 3);
    }
}

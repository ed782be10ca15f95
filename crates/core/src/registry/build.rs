//! The setup builder: turns a validated [`SetupSpec`] into a
//! fully-initialized [`Simulation`] — the only way the tree builds a
//! scenario. Per zone it evaluates the IC primitives in spec order and
//! closes the state with one EOS call; it then refines iteratively on the
//! initial condition, as FLASH does, filling only the leaves each pass
//! creates. The committed `golden/` digests pin the bits it produces.

use rflash_eos::{EosMode, EosState, GammaLaw, Helmholtz, TableConfig};
use rflash_flame::{AdrFlame, FlameParams};
use rflash_mesh::refine::lohner_marks;
use rflash_mesh::unk::UnkGeom;
use rflash_mesh::{vars, Domain, GuardNeed, MortonKey};
use rflash_perfmon::Timers;

use crate::checkpoint::RestoredState;
use crate::eos_choice::{Composition, EosChoice};
use crate::params::RuntimeParams;
use crate::sim::{GravityConfig, Simulation};
use crate::wd::{build_wd, WdProfile};

use super::spec::{EosSpec, FieldSet, GravitySpec, IcPrimitive, InitMode, SetupSpec, SpecError};

/// Scenario data resolved once per build (not per cell): the hydrostatic
/// star profile, when the spec carries one.
struct Resolved {
    wd: Option<WdProfile>,
}

/// Per-cell primitive state accumulated across the IC primitives, closed
/// by one EOS call per cell.
#[derive(Clone, Copy)]
struct CellState {
    dens: f64,
    pres: f64,
    temp: f64,
    velx: f64,
    vely: f64,
    velz: f64,
    flam: f64,
}

impl CellState {
    fn apply(&mut self, set: &FieldSet) {
        if let Some(x) = set.dens {
            self.dens = x;
        }
        if let Some(x) = set.pres {
            self.pres = x;
        }
        if let Some(x) = set.temp {
            self.temp = x;
        }
        if let Some(x) = set.velx {
            self.velx = x;
        }
        if let Some(x) = set.vely {
            self.vely = x;
        }
        if let Some(x) = set.velz {
            self.velz = x;
        }
        if let Some(x) = set.flam {
            self.flam = x;
        }
    }
}

/// The finest zone width along x — the unit of `deposit` radii.
fn dx_min(spec: &SetupSpec) -> f64 {
    let m = &spec.mesh;
    (m.domain_hi[0] - m.domain_lo[0])
        / ((m.nroot[0] * m.nxb) as f64 * (1u64 << m.max_refine) as f64)
}

/// Volume of a deposit sphere of radius `r`: the r–z deposit is a genuine
/// 3-d sphere on the axis; 2-d Cartesian is a unit-z cylinder.
fn deposit_volume(spec: &SetupSpec, r: f64) -> f64 {
    if spec.mesh.geometry == super::spec::GeometrySpec::CylindricalRZ {
        4.0 / 3.0 * std::f64::consts::PI * r.powi(3)
    } else {
        match spec.mesh.ndim {
            2 => std::f64::consts::PI * r * r, // unit z extent
            _ => 4.0 / 3.0 * std::f64::consts::PI * r.powi(3),
        }
    }
}

/// The gamma used to convert deposited energy to pressure. Validation
/// guarantees a deposit only appears with the gamma-law EOS.
fn deposit_gamma(spec: &SetupSpec) -> f64 {
    match spec.eos {
        EosSpec::Gamma { gamma } => gamma,
        EosSpec::Helmholtz { .. } => {
            unreachable!("validate() rejects deposit primitives under helmholtz")
        }
    }
}

/// The deposit's weight in one zone: the fraction of its `nsub^ndim`
/// subzone samples (FLASH's nsubzones) with `r_in ≤ |p − center| < r_out`,
/// so the deposit integrates to its energy however the shell cuts zone
/// boundaries. Only zones a shell surface may cut are sampled: for the rest
/// [`shell_cover`] gives, from the zone's box, the 0 or 1 the count would.
fn shell_fraction(
    ndim: usize,
    x: [f64; 3],
    dx: [f64; 3],
    center: [f64; 3],
    r_in: f64,
    r_out: f64,
    nsub: usize,
) -> f64 {
    shell_cover(ndim, x, dx, center, r_in, r_out)
        .unwrap_or_else(|| sampled_shell_fraction(ndim, x, dx, center, r_in, r_out, nsub))
}

/// The shell fraction of the zone at `x` (widths `dx`) when its box lies
/// wholly inside `r_in`, wholly outside `r_out` or wholly within the shell;
/// `None` when a shell surface may cross it. The box is widened far beyond
/// the rounding of the sample positions `x + off − center`, and the radii
/// are compared with a relative slack far beyond the rounding of a squared
/// distance, so every sample falls on the side the box does.
fn shell_cover(
    ndim: usize,
    x: [f64; 3],
    dx: [f64; 3],
    center: [f64; 3],
    r_in: f64,
    r_out: f64,
) -> Option<f64> {
    const SLACK: f64 = 1e-9;
    // Squared distance from the center to the nearest and the farthest
    // point of the widened box. A 2-d zone's samples sit at z = 0.
    let (mut near, mut far) = (0.0, 0.0);
    for a in 0..ndim {
        let pad = 1e-6 * dx[a] + 1e-12 * (x[a].abs() + center[a].abs());
        let lo = x[a] - center[a] - 0.5 * dx[a] - pad;
        let hi = x[a] - center[a] + 0.5 * dx[a] + pad;
        let gap = if lo > 0.0 {
            lo
        } else if hi < 0.0 {
            -hi
        } else {
            0.0
        };
        let reach = lo.abs().max(hi.abs());
        near += gap * gap;
        far += reach * reach;
    }
    let (in2, out2) = (r_in * r_in, r_out * r_out);
    if far < in2 * (1.0 - SLACK) || near > out2 * (1.0 + SLACK) {
        Some(0.0)
    } else if (in2 == 0.0 || near > in2 * (1.0 + SLACK)) && far < out2 * (1.0 - SLACK) {
        Some(1.0)
    } else {
        None
    }
}

/// The shell fraction by counting: `nsub` samples per axis (one along z in
/// 2-d) at the subzone centers.
fn sampled_shell_fraction(
    ndim: usize,
    x: [f64; 3],
    dx: [f64; 3],
    center: [f64; 3],
    r_in: f64,
    r_out: f64,
    nsub: usize,
) -> f64 {
    let mut inside = 0usize;
    let mut total = 0usize;
    let ksub = if ndim == 3 { nsub } else { 1 };
    for sk in 0..ksub {
        for sj in 0..nsub {
            for si in 0..nsub {
                let off = |s: usize, n: usize, d: f64| (s as f64 + 0.5) / n as f64 * d - 0.5 * d;
                let p = [
                    x[0] + off(si, nsub, dx[0]) - center[0],
                    x[1] + off(sj, nsub, dx[1]) - center[1],
                    if ndim == 3 {
                        x[2] + off(sk, ksub, dx[2]) - center[2]
                    } else {
                        0.0
                    },
                ];
                let r2 = p[0] * p[0] + p[1] * p[1] + p[2] * p[2];
                if r2 < r_out * r_out && r2 >= r_in * r_in {
                    inside += 1;
                }
                total += 1;
            }
        }
    }
    inside as f64 / total as f64
}

/// Evaluate every IC primitive at one cell center, in spec order.
fn cell_state(spec: &SetupSpec, resolved: &Resolved, x: [f64; 3], dx: [f64; 3]) -> CellState {
    let mesh = &spec.mesh;
    let mut cell = CellState {
        dens: 0.0,
        pres: 0.0,
        temp: 0.0,
        velx: 0.0,
        vely: 0.0,
        velz: 0.0,
        flam: 0.0,
    };
    // The radius about the origin; the z term is added only in 3-d, so the
    // 2-d arithmetic is exactly sqrt(x² + y²).
    let mut r2 = x[0] * x[0] + x[1] * x[1];
    if mesh.ndim == 3 {
        r2 += x[2] * x[2];
    }
    let r_origin = r2.sqrt();

    for prim in &spec.initial {
        match prim {
            IcPrimitive::Uniform(set) => cell.apply(set),
            IcPrimitive::Slab {
                axis,
                from,
                to,
                set,
            } => {
                let pos = x[*axis];
                let in_lo = from.map(|f| pos >= f).unwrap_or(true);
                let in_hi = to.map(|t| pos < t).unwrap_or(true);
                if in_lo && in_hi {
                    cell.apply(set);
                }
            }
            IcPrimitive::Deposit {
                center,
                energy,
                r_inner_cells,
                r_outer_cells,
                nsub,
            } => {
                let dxm = dx_min(spec);
                let r_in = r_inner_cells * dxm;
                let r_out = r_outer_cells * dxm;
                let volume = deposit_volume(spec, r_out) - deposit_volume(spec, r_in);
                let p_dep = (deposit_gamma(spec) - 1.0) * energy / volume;
                let f_in = shell_fraction(mesh.ndim, x, dx, *center, r_in, r_out, *nsub);
                cell.pres = f_in * p_dep + (1.0 - f_in) * cell.pres;
            }
            IcPrimitive::PlanarDiscontinuity {
                axis,
                at,
                left,
                right,
            } => {
                let side = if x[*axis] < *at { left } else { right };
                cell.dens = side.dens;
                cell.pres = side.pres;
                match axis {
                    0 => cell.velx = side.vel,
                    1 => cell.vely = side.vel,
                    _ => cell.velz = side.vel,
                }
            }
            IcPrimitive::VelocityPerturbation {
                component,
                amplitude,
                mode,
                phase,
                envelope,
            } => {
                let mut factor = *amplitude;
                for d in 0..3 {
                    let width = mesh.domain_hi[d] - mesh.domain_lo[d];
                    let frac = if width > 0.0 {
                        (x[d] - mesh.domain_lo[d]) / width
                    } else {
                        0.0
                    };
                    factor *= (2.0 * std::f64::consts::PI * (mode[d] * frac + phase[d])).cos();
                }
                if let Some(env) = envelope {
                    let z = (x[env.axis] - env.center) / env.sigma;
                    factor *= (-0.5 * z * z).exp();
                }
                match component {
                    0 => cell.velx += factor,
                    1 => cell.vely += factor,
                    _ => cell.velz += factor,
                }
            }
            IcPrimitive::HydrostaticStar {
                rho_c: _,
                temp,
                rho_fluff,
            } => {
                let wd = resolved
                    .wd
                    .as_ref()
                    .expect("resolved star profile (built before init)");
                cell.dens = wd.rho_at(r_origin).max(*rho_fluff);
                cell.temp = *temp;
            }
            IcPrimitive::Ignite { radius, temp } => {
                if r_origin < *radius {
                    cell.temp = *temp;
                    cell.flam = 1.0;
                }
            }
            IcPrimitive::StratifiedPressure {
                axis,
                interface,
                p_interface,
                g,
            } => {
                cell.pres = p_interface + cell.dens * g * (x[*axis] - interface);
            }
        }
    }
    cell
}

/// The set-up stages `build` times into `Simulation::timers`, in order:
/// the EOS and star solve, the initial-condition fills, the initial
/// refinement (guard fills, Löhner marks and adapts), and the first EOS
/// pass. A Helmholtz table row is computed inside whichever stage first
/// reads it; the rows `build` solves last count under the EOS.
pub const SETUP_STAGES: [&str; 4] = [
    "setup.eos",
    "setup.ic_fill",
    "setup.refine",
    "setup.eos_pass",
];

/// Is padded zone (i, j, k) in a face guard region — outside the interior
/// along exactly one axis, what a [`GuardNeed::Faces`] fill writes?
fn in_face_region(geom: &UnkGeom, i: usize, j: usize, k: usize) -> bool {
    let interior = geom.nguard..geom.nguard + geom.nxb;
    [i, j, k][..geom.ndim]
        .iter()
        .filter(|c| !interior.contains(c))
        .count()
        == 1
}

/// Write the initial condition (`Simulation_initBlock`: primitives → one
/// EOS call → the eleven unk variables, closing `ENER = eint + ½v²`) into
/// the zones of each leaf that do not hold it, on the rank pool.
///
/// `held[slot]` is the key of the leaf that slot held at the previous fill.
/// A leaf whose slot held another key — or none: a new child, a recycled
/// slot, a parent turned back into a leaf — gets every zone. The others
/// already hold the IC, except in the face guard regions the Löhner passes'
/// guard fills wrote since; `restore_faces` rewrites those, for the final
/// state. The IC is a pure function of the zone center, so the zones come
/// out bit-identical to a fill of every zone of every leaf.
fn init_leaves(
    spec: &SetupSpec,
    resolved: &Resolved,
    eos: &EosChoice,
    domain: &mut Domain,
    nranks: usize,
    held: &mut [Option<MortonKey>],
    restore_faces: bool,
) {
    let comp = spec.composition.to_composition();
    let mode = match spec.init_mode {
        InitMode::DensPres => EosMode::DensPres,
        InitMode::DensTemp => EosMode::DensTemp,
    };
    let geom = domain.unk.geom();
    let (pi, pj, pk) = domain.unk.padded();
    let kk = if spec.mesh.ndim == 3 { pk } else { 1 };
    let prior: &[Option<MortonKey>] = held;
    domain.par_leaf_update(nranks, |tree, id, slab, _probe| {
        let fresh = prior[id.idx()] != Some(tree.block(id).key);
        if !fresh && !restore_faces {
            return;
        }
        let grid = tree.zone_grid(id);
        for k in 0..kk {
            for j in 0..pj {
                for i in 0..pi {
                    if !fresh && !in_face_region(&geom, i, j, k) {
                        continue;
                    }
                    let x = grid.center(i, j, k);
                    let cell = cell_state(spec, resolved, x, grid.dx);
                    let mut s = EosState {
                        dens: cell.dens,
                        temp: cell.temp,
                        abar: comp.abar,
                        zbar: comp.zbar,
                        pres: cell.pres,
                        eint: 0.0,
                        entr: 0.0,
                        gamc: 0.0,
                        game: 0.0,
                        cs: 0.0,
                        cv: 0.0,
                    };
                    eos.call(mode, comp, &mut s).unwrap_or_else(|e| {
                        panic!(
                            "init EOS failed for `{}` at x={x:?}, dens={:e}: {e}",
                            spec.name, cell.dens
                        )
                    });
                    let ekin = 0.5
                        * (cell.velx * cell.velx + cell.vely * cell.vely + cell.velz * cell.velz);
                    for (var, v) in [
                        (vars::DENS, s.dens),
                        (vars::VELX, cell.velx),
                        (vars::VELY, cell.vely),
                        (vars::VELZ, cell.velz),
                        (vars::PRES, s.pres),
                        (vars::ENER, s.eint + ekin),
                        (vars::TEMP, s.temp),
                        (vars::EINT, s.eint),
                        (vars::GAMC, s.gamc),
                        (vars::GAME, s.game),
                        (vars::FLAM, cell.flam),
                    ] {
                        slab[geom.slab_idx(var, i, j, k)] = v;
                    }
                }
            }
        }
    });
    held.fill(None);
    for id in domain.tree.leaves() {
        held[id.idx()] = Some(domain.tree.block(id).key);
    }
}

impl SetupSpec {
    /// Pre-build validation beyond [`SetupSpec::validate`]: constraints
    /// only the builder can check (EOS-dependent primitive support).
    fn validate_for_build(&self) -> Result<(), SpecError> {
        let has_deposit = self
            .initial
            .iter()
            .any(|p| matches!(p, IcPrimitive::Deposit { .. }));
        if has_deposit && !matches!(self.eos, EosSpec::Gamma { .. }) {
            return Err(SpecError::Conflict {
                detail: "deposit converts energy to pressure via (γ−1)·E/V and needs the \
                         gamma-law EOS"
                    .into(),
            });
        }
        Ok(())
    }

    /// Construct the EOS this spec runs — also what a caller of
    /// [`RestoredState::into_simulation`] passes in.
    pub fn make_eos(&self, policy: rflash_hugepages::Policy) -> EosChoice {
        match self.eos {
            EosSpec::Gamma { gamma } => EosChoice::Gamma(GammaLaw::new(gamma)),
            EosSpec::Helmholtz { coarse_table } => {
                let table = if coarse_table {
                    TableConfig::coarse()
                } else {
                    TableConfig::default()
                };
                // FLASH reads its Helmholtz table from a data file. Ours is
                // computed where it is read: a lookup solves the rows it
                // lands on, a background thread the rest.
                EosChoice::Helmholtz(Box::new(
                    Helmholtz::lazy(table, policy).expect("Helmholtz table build"),
                ))
            }
        }
    }

    /// Build the fully initialized simulation: EOS (+ star profile when
    /// needed), initial condition, iterated initial refinement, physics
    /// toggles, an initial EOS pass, and the Helmholtz table rows between
    /// the temperatures those stages read. Each stage's seconds go to
    /// `timers` under its [`SETUP_STAGES`] label (the table rows to `eos`).
    ///
    /// The spec owns the problem, so `build` overwrites `params.mesh`,
    /// `params.cfl`, `params.regrid_every` and `params.gravity_every` with
    /// the spec's, and raises `params.dens_floor` / `params.eint_floor` to
    /// at least the spec's floors. To change any of them, edit
    /// `self.mesh` or `self.budgets` before building: a `cfl` or
    /// `regrid_every` set on the params is silently replaced. Everything
    /// else in `params` (policy, ranks, engine, scheduler, instrumentation,
    /// guardian, checkpoint cadence) is the caller's.
    pub fn build(&self, mut params: RuntimeParams) -> Result<Simulation, SpecError> {
        self.validate()?;
        self.validate_for_build()?;

        params.mesh = self.mesh.to_mesh_config();
        params.cfl = self.budgets.cfl;
        params.regrid_every = self.budgets.regrid_every;
        params.gravity_every = self.budgets.gravity_every;
        params.dens_floor = params.dens_floor.max(self.budgets.dens_floor);
        params.eint_floor = params.eint_floor.max(self.budgets.eint_floor);

        let [t_eos, _, _, t_eos_pass] = SETUP_STAGES;
        let mut timers = Timers::new();
        let comp = self.composition.to_composition();
        timers.start(t_eos);
        let eos = self.make_eos(params.policy);
        let resolved = self.resolve(&eos, comp);
        timers.stop(t_eos);
        if let Some((_, _, rho_fluff)) = self.star() {
            // Density floor well above the EOS table's lower edge.
            params.dens_floor = params.dens_floor.max(rho_fluff * 0.1);
            params.eint_floor = params.eint_floor.max(1e12);
        }

        let domain = self.initial_domain(&params, &resolved, &eos, &mut timers);
        let mut sim = Simulation::assemble(domain, eos, comp, params);
        self.arm_physics(&mut sim, &resolved);
        sim.timers = timers;
        sim.timers.start(t_eos_pass);
        sim.eos_everywhere();
        sim.timers.stop(t_eos_pass);
        // The step loop first reads the temperatures between those the
        // set-up reached: solve them now, beside the table's own thread.
        if let Some(helm) = sim.eos.helmholtz() {
            sim.timers
                .time(t_eos, || helm.table().solve_demanded_span());
        }
        Ok(sim)
    }

    /// The initial mesh: the IC on the root blocks, refined on the IC
    /// until a pass refines nothing or `max_refine` passes ran (FLASH
    /// re-initializes after each adapt), with every zone of every leaf
    /// holding the IC.
    ///
    /// The passes decide exactly as the step's regrid does
    /// ([`Tree::plan_adapt`](rflash_mesh::Tree::plan_adapt) on Löhner marks
    /// from a face guard fill), but children are allocated by topology
    /// alone, with nothing prolongated into them, and each fill writes only
    /// the leaves new since the last. The bits match re-initializing every
    /// leaf after every adapt: the IC is a pure function of the zone
    /// center, the face guard fill writes every guard zone that it or the
    /// estimator reads before reading it (so stale face guards of older
    /// leaves never reach a mark), and the last fill restores the face
    /// guards those fills wrote.
    fn initial_domain(
        &self,
        params: &RuntimeParams,
        resolved: &Resolved,
        eos: &EosChoice,
        timers: &mut Timers,
    ) -> Domain {
        let [_, t_fill, t_refine, _] = SETUP_STAGES;
        let mut domain = Domain::new(params.mesh, params.policy);
        let mut held = vec![None; params.mesh.max_blocks];
        for _pass in 0..self.mesh.max_refine {
            timers.time(t_fill, || {
                init_leaves(
                    self,
                    resolved,
                    eos,
                    &mut domain,
                    params.nranks,
                    &mut held,
                    false,
                )
            });
            timers.start(t_refine);
            // The Löhner estimator reads ±1 along each axis.
            domain.fill_guardcells_for(params.nranks, GuardNeed::Faces);
            let marks = lohner_marks(
                &domain.tree,
                &domain.unk,
                &self.refine.init_vars,
                &Default::default(),
            );
            let plan = domain.tree.plan_adapt(&marks);
            for &pid in &plan.derefine {
                domain.tree.derefine_block(pid, &mut domain.unk);
            }
            for &id in &plan.refine {
                domain.tree.refine_topology(id);
            }
            timers.stop(t_refine);
            if plan.refine.is_empty() {
                break;
            }
        }
        timers.time(t_fill, || {
            init_leaves(
                self,
                resolved,
                eos,
                &mut domain,
                params.nranks,
                &mut held,
                true,
            )
        });
        domain
    }

    /// Continue a run of this spec from a restored checkpoint. The mesh,
    /// state and runtime parameters come from `state`; the EOS and the
    /// physics [`build`](Self::build) would arm (refinement variables,
    /// gravity, flame) come from the spec. Nothing is re-initialized or
    /// re-refined, so the resumed run continues bit-identically.
    pub fn resume(&self, state: RestoredState) -> Result<Simulation, SpecError> {
        self.validate()?;
        self.validate_for_build()?;
        if state.params.mesh != self.mesh.to_mesh_config() {
            return Err(SpecError::Conflict {
                detail: format!("the checkpoint's mesh is not the mesh of `{}`", self.name),
            });
        }
        let comp = self.composition.to_composition();
        let eos = self.make_eos(state.params.policy);
        let resolved = self.resolve(&eos, comp);
        let mut sim = state.into_simulation(eos, comp);
        self.arm_physics(&mut sim, &resolved);
        Ok(sim)
    }

    /// The hydrostatic star's `(rho_c, temp, rho_fluff)`, when the spec
    /// has one (validation guarantees a Helmholtz EOS then).
    fn star(&self) -> Option<(f64, f64, f64)> {
        self.initial.iter().find_map(|p| match p {
            IcPrimitive::HydrostaticStar {
                rho_c,
                temp,
                rho_fluff,
            } => Some((*rho_c, *temp, *rho_fluff)),
            _ => None,
        })
    }

    /// Solve the white-dwarf structure on `eos` when the spec has a star.
    fn resolve(&self, eos: &EosChoice, comp: Composition) -> Resolved {
        let wd = match (self.star(), eos.helmholtz()) {
            (Some((rho_c, temp, rho_fluff)), Some(helm)) => Some(
                // Radial step: the star sits at the origin and
                // domain_hi[0] is its half-width; 2000 shells span it.
                build_wd(
                    helm,
                    comp,
                    rho_c,
                    temp,
                    rho_fluff,
                    self.mesh.domain_hi[0] / 2000.0,
                )
                .expect("white-dwarf structure"),
            ),
            _ => None,
        };
        Resolved { wd }
    }

    /// Arm the spec's physics on an assembled simulation: refinement
    /// variables, gravity (the white-dwarf monopole included) and flame —
    /// everything [`Simulation::assemble`] leaves at its default.
    fn arm_physics(&self, sim: &mut Simulation, resolved: &Resolved) {
        sim.refine_vars = self.refine.runtime_vars.clone();
        match self.physics.gravity {
            GravitySpec::None => {}
            GravitySpec::Constant(g) => {
                sim.gravity = GravityConfig {
                    field: rflash_gravity::GravityField::Constant(g),
                    monopole: None,
                };
            }
            GravitySpec::StarMonopole { shells } => {
                let wd = resolved.wd.as_ref().expect("validated star");
                // The field stays fixed over the run (documented
                // substitution for FLASH's per-regrid multipole solve).
                sim.gravity = GravityConfig {
                    field: rflash_gravity::GravityField::Monopole(
                        rflash_gravity::MonopoleField::from_profile([0.0; 3], &wd.r, &wd.m, shells),
                    ),
                    monopole: None,
                };
            }
        }
        if let Some(flame) = &self.physics.flame {
            sim.flame = Some(AdrFlame::new(FlameParams {
                quench_dens: flame.quench_dens,
                x_c: flame.x_c,
                fixed_speed: flame.fixed_speed,
                nranks: sim.params.nranks,
                ..FlameParams::default()
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StepScheduler;
    use crate::registry::{load, smoke_params};
    use proptest::test_runner::TestRng;
    use rflash_hydro::SweepEngine;

    /// A pick from `choices`.
    fn pick(rng: &mut TestRng, choices: &[f64]) -> f64 {
        choices[rng.below(choices.len() as u64) as usize]
    }

    /// Random zones against random shells, one geometry: the whole-zone
    /// classification must give the sample count's fraction bit for bit.
    /// Returns how many zones the classification decided.
    fn shell_cases(ndim: usize, rz: bool, cases: usize, rng: &mut TestRng) -> usize {
        let mut decided = 0;
        for case in 0..cases {
            // The finest zone width sets the radii, as `dx_min` does.
            let h = pick(rng, &[1.0 / 64.0, 1e-3, 0.1, 2.5e6]);
            let r_out = h * (0.25 + 6.0 * rng.unit_f64());
            let r_in = if rng.below(2) == 0 {
                0.0
            } else {
                r_out * rng.unit_f64()
            };
            let nsub = 1 + rng.below(5) as usize;
            // Zones of the finest level up to guard zones of blocks four
            // levels coarser, which can swallow the whole shell.
            let w = h * pick(rng, &[0.5, 1.0, 2.0, 4.0, 16.0]);
            let mut dx = [w, w, if ndim == 3 { w } else { 0.0 }];
            let mut center = [0.0; 3];
            let mut x = [0.0; 3];
            for a in 0..ndim {
                // An r–z deposit sits on the axis; its zones have r > 0
                // except the axis guards.
                center[a] = if rz && a == 0 {
                    0.0
                } else {
                    h * (64.0 * rng.unit_f64() - 32.0)
                };
                x[a] = center[a] + (r_out + 2.0 * w) * (2.0 * rng.unit_f64() - 1.0);
            }
            if rng.below(3) == 0 {
                // Tangent: a zone face exactly on a shell radius along one
                // axis, the zone centered on the shell's center in the others.
                let a = rng.below(ndim as u64) as usize;
                let r = if r_in > 0.0 && rng.below(2) == 0 {
                    r_in
                } else {
                    r_out
                };
                x = center;
                let side = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                x[a] = center[a] + side * (r + 0.5 * dx[a]);
                if rng.below(2) == 0 {
                    // …or the far face, the zone covering the center.
                    x[a] = center[a] + side * (r - 0.5 * dx[a]);
                }
            }
            if rng.below(4) == 0 && ndim == 2 {
                // Non-square zones (a 2-d block's z width is 0 anyway).
                dx[1] *= 2.0;
            }
            let counted = sampled_shell_fraction(ndim, x, dx, center, r_in, r_out, nsub);
            let got = shell_fraction(ndim, x, dx, center, r_in, r_out, nsub);
            assert_eq!(
                got.to_bits(),
                counted.to_bits(),
                "case {case}: ndim={ndim} rz={rz} x={x:?} dx={dx:?} c={center:?} \
                 r_in={r_in} r_out={r_out} nsub={nsub}: {got} vs counted {counted}"
            );
            if shell_cover(ndim, x, dx, center, r_in, r_out).is_some() {
                decided += 1;
            }
        }
        decided
    }

    #[test]
    fn shell_classification_matches_the_sample_count() {
        let mut rng = TestRng::deterministic("shell_classification_matches_the_sample_count");
        let cases = 20_000;
        for (ndim, rz) in [(2, false), (3, false), (2, true)] {
            let decided = shell_cases(ndim, rz, cases, &mut rng);
            // Both paths must be exercised, the fast one often.
            assert!(
                decided > cases / 4 && decided < cases,
                "ndim={ndim} rz={rz}: {decided} of {cases} decided without sampling"
            );
        }
    }

    /// A 2-d spec whose set-up derefines and refines in one pass: a
    /// velocity spike that only the coarsest zone centers sample (their
    /// children read exact zeros, so they coarsen again) beside a density
    /// step that refines on every pass — the refinement takes the slots the
    /// derefinement freed. A smooth `velx` the estimator ignores makes a
    /// guard fill's values (prolonged, restricted, boundary copies) differ
    /// from the IC, so face guards left unrestored show.
    const RECYCLING: &str = r#"Setup(
        name: "recycling",
        mesh: (
            ndim: 2, nxb: 8, max_blocks: 256, nroot: [2, 2, 1],
            domain_lo: [0, 0, 0], domain_hi: [1, 1, 1], max_refine: 3,
        ),
        eos: gamma(gamma: 1.4),
        initial: [
            uniform(dens: 1, pres: 1),
            slab(axis: y, to: 0.2, set: (dens: 2)),
            velocity_perturbation(component: vely, amplitude: 1, mode: [0, 0, 0],
                envelope: (axis: y, center: 0.71875, sigma: 1e-4)),
            velocity_perturbation(component: velx, amplitude: 1, mode: [1, 0, 0]),
        ],
        refine: (vars: ["dens", "vely"]),
    )"#;

    /// Build `spec`'s initial mesh and check every padded zone of every
    /// leaf against a direct IC + EOS evaluation at its center.
    fn assert_initial_mesh_is_the_ic(spec: &SetupSpec, nranks: usize) -> Domain {
        let params = smoke_params(spec, nranks, SweepEngine::Pencil, StepScheduler::TaskGraph);
        let comp = spec.composition.to_composition();
        let eos = spec.make_eos(params.policy);
        let resolved = spec.resolve(&eos, comp);
        let domain = spec.initial_domain(&params, &resolved, &eos, &mut Timers::new());
        let mode = match spec.init_mode {
            InitMode::DensPres => EosMode::DensPres,
            InitMode::DensTemp => EosMode::DensTemp,
        };
        let (pi, pj, pk) = domain.unk.padded();
        for id in domain.tree.leaves() {
            let dx = domain.tree.cell_size(id);
            for k in 0..pk {
                for j in 0..pj {
                    for i in 0..pi {
                        let x = domain.tree.cell_center(id, i, j, k);
                        let cell = cell_state(spec, &resolved, x, dx);
                        let mut s = EosState {
                            dens: cell.dens,
                            temp: cell.temp,
                            abar: comp.abar,
                            zbar: comp.zbar,
                            pres: cell.pres,
                            eint: 0.0,
                            entr: 0.0,
                            gamc: 0.0,
                            game: 0.0,
                            cs: 0.0,
                            cv: 0.0,
                        };
                        eos.call(mode, comp, &mut s).unwrap();
                        let ekin = 0.5
                            * (cell.velx * cell.velx
                                + cell.vely * cell.vely
                                + cell.velz * cell.velz);
                        let want = [
                            (vars::DENS, s.dens),
                            (vars::VELX, cell.velx),
                            (vars::VELY, cell.vely),
                            (vars::VELZ, cell.velz),
                            (vars::PRES, s.pres),
                            (vars::ENER, s.eint + ekin),
                            (vars::TEMP, s.temp),
                            (vars::EINT, s.eint),
                            (vars::GAMC, s.gamc),
                            (vars::GAME, s.game),
                            (vars::FLAM, cell.flam),
                        ];
                        for (var, v) in want {
                            let got = domain.unk.get(var, i, j, k, id.idx());
                            assert_eq!(
                                got.to_bits(),
                                v.to_bits(),
                                "`{}` nranks={nranks}: {} of leaf {id:?} ({:?}) zone \
                                 ({i},{j},{k}) at {x:?} is {got:e}, the IC is {v:e}",
                                spec.name,
                                vars::VAR_NAMES[var],
                                domain.tree.block(id).key,
                            );
                        }
                    }
                }
            }
        }
        domain
    }

    #[test]
    fn every_zone_of_every_leaf_holds_the_ic_after_setup() {
        for name in ["sedov", "supernova", "kelvin_helmholtz"] {
            let spec = load(name).unwrap().at_smoke_scale();
            for nranks in [1, 2] {
                assert_initial_mesh_is_the_ic(&spec, nranks);
            }
        }
        // Full-scale Sedov: three passes, leaves at three levels.
        assert_initial_mesh_is_the_ic(&load("sedov").unwrap(), 1);
        // A pass that derefines hands the freed slots to its refinements:
        // a recycled slot holds another block's IC and must be filled; the
        // leaves older than the last pass must get their face guards back.
        let spec = SetupSpec::from_source(RECYCLING).unwrap();
        for nranks in [1, 2] {
            let domain = assert_initial_mesh_is_the_ic(&spec, nranks);
            // Every allocation and every release bumps the epoch, so
            // blocks were released iff it exceeds the live count.
            let tree = &domain.tree;
            assert!(
                tree.epoch() > tree.active_blocks() as u64,
                "nothing derefined"
            );
        }
    }
}

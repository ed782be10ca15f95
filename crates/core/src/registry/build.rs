//! The setup builder: turns a validated [`SetupSpec`] into a
//! fully-initialized [`Simulation`] — the only way the tree builds a
//! scenario. Per cell it evaluates the IC primitives in spec order and
//! closes the state with one EOS call; it then refines iteratively on the
//! initial condition (re-initializing after each adapt, as FLASH does).
//! The committed `golden/` digests pin the bits it produces.

use rflash_eos::{EosMode, EosState, GammaLaw, Helmholtz, TableConfig};
use rflash_flame::{AdrFlame, FlameParams};
use rflash_mesh::refine::lohner_marks;
use rflash_mesh::{vars, Domain, GuardNeed};

use crate::checkpoint::RestoredState;
use crate::eos_choice::{Composition, EosChoice};
use crate::params::RuntimeParams;
use crate::sim::{GravityConfig, Simulation};
use crate::wd::{build_wd, WdProfile};

use super::spec::{
    EosSpec, FieldSet, GravitySpec, IcPrimitive, InitMode, SetupSpec, SpecError,
};

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

/// Evaluate every IC primitive at one cell center, in spec order.
fn cell_state(
    spec: &SetupSpec,
    resolved: &Resolved,
    x: [f64; 3],
    dx: [f64; 3],
) -> CellState {
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
                // Subzone sampling (FLASH's nsubzones): the energy deposit
                // must integrate to `energy` regardless of how the shell
                // cuts cell boundaries.
                let nsub = *nsub;
                let mut inside = 0usize;
                let mut total = 0usize;
                let ksub = if mesh.ndim == 3 { nsub } else { 1 };
                for sk in 0..ksub {
                    for sj in 0..nsub {
                        for si in 0..nsub {
                            let off = |s: usize, n: usize, d: f64| {
                                (s as f64 + 0.5) / n as f64 * d - 0.5 * d
                            };
                            let p = [
                                x[0] + off(si, nsub, dx[0]) - center[0],
                                x[1] + off(sj, nsub, dx[1]) - center[1],
                                if mesh.ndim == 3 {
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
                let f_in = inside as f64 / total as f64;
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
                    factor *=
                        (2.0 * std::f64::consts::PI * (mode[d] * frac + phase[d])).cos();
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

/// Write the initial condition into every leaf (`Simulation_initBlock`):
/// primitives → one EOS call → the eleven unk variables, closing
/// `ENER = eint + ½v²`.
fn init_blocks(spec: &SetupSpec, resolved: &Resolved, domain: &mut Domain, eos: &EosChoice) {
    let comp = spec.composition.to_composition();
    let mode = match spec.init_mode {
        InitMode::DensPres => EosMode::DensPres,
        InitMode::DensTemp => EosMode::DensTemp,
    };
    let (pi, pj, pk) = domain.unk.padded();
    let kk = if spec.mesh.ndim == 3 { pk } else { 1 };
    for id in domain.tree.leaves() {
        for k in 0..kk {
            for j in 0..pj {
                for i in 0..pi {
                    let x = domain.tree.cell_center(id, i, j, k);
                    let dx = domain.tree.cell_size(id);
                    let cell = cell_state(spec, resolved, x, dx);
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
                        * (cell.velx * cell.velx
                            + cell.vely * cell.vely
                            + cell.velz * cell.velz);
                    let b = id.idx();
                    domain.unk.set(vars::DENS, i, j, k, b, s.dens);
                    domain.unk.set(vars::VELX, i, j, k, b, cell.velx);
                    domain.unk.set(vars::VELY, i, j, k, b, cell.vely);
                    domain.unk.set(vars::VELZ, i, j, k, b, cell.velz);
                    domain.unk.set(vars::PRES, i, j, k, b, s.pres);
                    domain.unk.set(vars::ENER, i, j, k, b, s.eint + ekin);
                    domain.unk.set(vars::TEMP, i, j, k, b, s.temp);
                    domain.unk.set(vars::EINT, i, j, k, b, s.eint);
                    domain.unk.set(vars::GAMC, i, j, k, b, s.gamc);
                    domain.unk.set(vars::GAME, i, j, k, b, s.game);
                    domain.unk.set(vars::FLAM, i, j, k, b, cell.flam);
                }
            }
        }
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
                // FLASH reads its Helmholtz table from a data file; cache
                // ours the same way so repeated harness runs skip the
                // Fermi–Dirac solves.
                let cache = std::env::temp_dir().join(if coarse_table {
                    "rflash-helm-coarse.dat"
                } else {
                    "rflash-helm-default.dat"
                });
                EosChoice::Helmholtz(Box::new(
                    Helmholtz::build_cached(table, policy, &cache)
                        .expect("Helmholtz table build"),
                ))
            }
        }
    }

    /// Build the fully initialized simulation: EOS (+ star profile when
    /// needed), initial condition, iterated initial refinement
    /// (re-initializing after each adapt, as FLASH does), physics toggles,
    /// and an initial EOS pass.
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

        let comp = self.composition.to_composition();
        let eos = self.make_eos(params.policy);
        let resolved = self.resolve(&eos, comp);
        if let Some((_, _, rho_fluff)) = self.star() {
            // Density floor well above the EOS table's lower edge.
            params.dens_floor = params.dens_floor.max(rho_fluff * 0.1);
            params.eint_floor = params.eint_floor.max(1e12);
        }

        let mut domain = Domain::new(params.mesh, params.policy);
        for _pass in 0..self.mesh.max_refine {
            init_blocks(self, &resolved, &mut domain, &eos);
            // The Löhner estimator reads ±1 along each axis.
            domain.fill_guardcells_for(1, GuardNeed::Faces);
            let marks = lohner_marks(
                &domain.tree,
                &domain.unk,
                &self.refine.init_vars,
                &Default::default(),
            );
            let (refined, _) = domain.tree.adapt(&mut domain.unk, &marks);
            if refined == 0 {
                break;
            }
        }
        init_blocks(self, &resolved, &mut domain, &eos);

        let mut sim = Simulation::assemble(domain, eos, comp, params);
        self.arm_physics(&mut sim, &resolved);
        sim.eos_everywhere();
        Ok(sim)
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
                        rflash_gravity::MonopoleField::from_profile(
                            [0.0; 3],
                            &wd.r,
                            &wd.m,
                            shells,
                        ),
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

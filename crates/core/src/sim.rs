//! The simulation driver (FLASH's `Driver_evolveFlash`).

use rflash_flame::AdrFlame;
use rflash_gravity::{apply_gravity, GravityField, MonopoleSolver};
use rflash_hydro::{sweep_direction_prefilled, SweepConfig, SweepEos, NFLUX};
use rflash_mesh::flux::FluxRegister;
use rflash_mesh::refine::{lohner_marks, LohnerConfig};
use rflash_mesh::{vars, Domain, GuardNeed, ShadowSnapshot};
use rflash_perfmon::{GuardianStats, Measures, PerfSession, RankLoad, SessionConfig, Timers};

use crate::checkpoint::CheckpointSeries;
use crate::eos_choice::{Composition, EosChoice};
use crate::guardian::StepError;
use crate::instrument::{eos_pass, register_buffers};
use crate::params::RuntimeParams;

/// Gravity configuration for a run.
pub struct GravityConfig {
    pub field: GravityField,
    /// Rebuild the monopole profile every `gravity_every` steps when set.
    pub monopole: Option<MonopoleSolver>,
}

impl GravityConfig {
    /// No gravity at all.
    pub fn none() -> GravityConfig {
        GravityConfig {
            field: GravityField::None,
            monopole: None,
        }
    }
}

/// One assembled run: mesh + physics + instrumentation.
pub struct Simulation {
    pub domain: Domain,
    pub eos: EosChoice,
    pub comp: Composition,
    pub flame: Option<AdrFlame>,
    pub gravity: GravityConfig,
    pub params: RuntimeParams,
    pub timers: Timers,
    /// Instrumented "Hydro" region (Table II).
    pub hydro_session: PerfSession,
    /// Instrumented "EOS" region (Table I).
    pub eos_session: PerfSession,
    pub(crate) reg: FluxRegister,
    pub time: f64,
    pub step: u64,
    pub energy_released: f64,
    /// Variables fed to the refinement estimator.
    pub refine_vars: Vec<usize>,
    pub lohner: LohnerConfig,
    /// Every guardian intervention (rollbacks, retries, dt halvings).
    pub guardian_stats: GuardianStats,
    /// Where [`try_step`](Self::try_step) writes emergency checkpoints on
    /// abort. [`evolve_checkpointed`](Self::evolve_checkpointed) uses its
    /// own series regardless.
    pub emergency_series: Option<CheckpointSeries>,
    /// Pre-step leaf-state snapshot for guardian rollback.
    pub(crate) shadow: ShadowSnapshot,
    /// Cached step graphs (task-graph scheduler), one per sweep parity
    /// (index 1 = reversed), each keyed on tree epoch and rank count:
    /// alternating steps reuse their own plan, so a graph is built twice
    /// per tree epoch, not once per step.
    pub(crate) graph_plans: [Option<crate::stepgraph::StepGraphPlan>; 2],
    /// Cumulative task-graph statistics (empty on the serial loop).
    pub graph_report: crate::stepgraph::GraphExecReport,
}

impl Simulation {
    /// Assemble a simulation from an initialized domain. Sessions get the
    /// big buffers registered with frame sizes the kernel *actually*
    /// granted (verified via smaps).
    pub fn assemble(
        domain: Domain,
        mut eos: EosChoice,
        comp: Composition,
        params: RuntimeParams,
    ) -> Simulation {
        // Resolve the SIMD backend once and pin the EOS's lane kernels to
        // it; the sweeps resolve the same request per step.
        eos.set_simd(rflash_simd::resolve(params.simd_backend));
        let session_config = SessionConfig {
            sample_every: params.tlb_sample_every,
            // Kernels record one pattern per `pattern_every` pencils/rows;
            // scale the model's counters back to full coverage.
            coverage_scale: params.pattern_every.max(1) as f64,
            use_hw: params.use_hw,
            ..SessionConfig::default()
        };
        let mut hydro_session = PerfSession::new(session_config);
        let mut eos_session = PerfSession::new(session_config);
        register_buffers(&mut hydro_session, &domain, &eos);
        register_buffers(&mut eos_session, &domain, &eos);
        let cfg = domain.tree.config();
        let reg = FluxRegister::new(cfg.ndim, cfg.nxb, NFLUX, cfg.max_blocks);
        // The shadow rides the same backing policy (and degradation chain)
        // as unk itself.
        let shadow = ShadowSnapshot::new(domain.unk.policy());
        Simulation {
            reg,
            shadow,
            domain,
            eos,
            comp,
            flame: None,
            gravity: GravityConfig::none(),
            params,
            timers: Timers::new(),
            hydro_session,
            eos_session,
            time: 0.0,
            step: 0,
            energy_released: 0.0,
            refine_vars: vec![vars::DENS, vars::PRES],
            lohner: LohnerConfig::default(),
            guardian_stats: GuardianStats::default(),
            emergency_series: None,
            graph_plans: [None, None],
            graph_report: crate::stepgraph::GraphExecReport::default(),
        }
    }

    /// Run the EOS on every leaf: at set-up, after each split sweep of the
    /// serial loop, and in the ledger's probes. The regrid in
    /// [`commit_step`](Self::commit_step) runs none: its new children (and
    /// the parents it restricts into) keep interpolated `PRES`/`TEMP`/
    /// `GAMC`/`GAME`, not EOS-consistent ones, until the pass after the
    /// next step's first sweep.
    pub fn eos_everywhere(&mut self) {
        eos_pass(
            &mut self.domain,
            &self.eos,
            self.comp,
            &self.params,
            &mut self.eos_session,
            None,
        );
    }

    /// One time step: dt → split sweeps (each followed by the instrumented
    /// EOS pass) → flame → gravity → optional regrid. Runs under the step
    /// guardian when `params.guardian.enabled`; an unrecoverable step
    /// panics with the typed error's message. Drivers that must never
    /// panic use [`try_step`](Self::try_step).
    pub fn step(&mut self) -> f64 {
        match self.try_step() {
            Ok(dt) => dt,
            // analyze::allow would be needed were this a hot-path crate; it
            // is not — the legacy f64 API keeps FLASH's abort-on-bad-state
            // behavior for callers that opted out of typed errors.
            Err(e) => panic!("simulation step failed: {e}"),
        }
    }

    /// [`step`](Self::step) with a typed error instead of a panic. On
    /// abort, an emergency checkpoint goes to
    /// [`emergency_series`](Self::emergency_series) when one is set.
    pub fn try_step(&mut self) -> Result<f64, StepError> {
        let series = self.emergency_series.clone();
        self.guarded_step(series.as_ref())
    }

    /// The sweep configuration this run's parameters resolve to.
    pub(crate) fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            nranks: self.params.nranks,
            dens_floor: self.params.dens_floor,
            eint_floor: self.params.eint_floor,
            pattern_every: self.params.pattern_every,
            engine: self.params.sweep_engine,
            simd: rflash_simd::resolve(self.params.simd_backend),
            // Pencil scratch rides the same huge-page policy as unk.
            scratch_policy: self.params.policy,
        }
    }

    /// The split sweeps of one step at a fixed `dt` on the serial loop,
    /// each followed by the instrumented EOS pass over every leaf — the
    /// oracle of the task graph's [`graph_sweeps`](Self::graph_sweeps).
    /// The rest of the attempt (fault hooks, flame, gravity, validation)
    /// is the guardian's, the same for both paths.
    pub(crate) fn serial_sweeps(&mut self, dt: f64) {
        let ndim = self.domain.tree.config().ndim;
        let sweep_cfg = self.sweep_config();

        // Reverse the sweep order on odd steps (Strang-like alternation).
        let dirs: Vec<usize> = if self.step.is_multiple_of(2) {
            (0..ndim).collect()
        } else {
            (0..ndim).rev().collect()
        };
        for dir in dirs {
            // The guard exchange gets its own timer so the per-phase
            // breakdown exposes what the task graph overlaps.
            self.timers.start("guardcell");
            self.domain
                .fill_guardcells_for(self.params.nranks, GuardNeed::Axis(dir));
            self.timers.stop("guardcell");

            self.timers.start("hydro");
            self.hydro_session.start_region();
            let probes = sweep_direction_prefilled(
                &mut self.domain,
                // The sweep leaves thermodynamics to the EOS pass below.
                &SweepEos::Defer,
                dir,
                dt,
                &mut self.reg,
                &sweep_cfg,
            );
            for probe in probes {
                self.hydro_session.absorb(probe);
            }
            self.hydro_session.stop_region();
            self.timers.stop("hydro");

            self.timers.start("eos");
            self.eos_everywhere();
            self.timers.stop("eos");
        }
    }

    /// The step physics after the split sweeps and the fault hooks: flame
    /// and gravity, the same on both step paths. The flame's EOS pass
    /// re-solves only the leaves the flame deposited energy in; every
    /// other leaf still holds the bits of the pass after the last sweep,
    /// which a re-solve would return unchanged.
    pub(crate) fn post_sweep_tail(&mut self, dt: f64) {
        if let Some(flame) = &self.flame {
            self.timers.start("flame");
            // The ADR step's stencil is ±1 per axis.
            self.domain
                .fill_guardcells_for(self.params.nranks, GuardNeed::Faces);
            let (probes, released, burned) = flame.advance(&mut self.domain, dt);
            for probe in probes {
                self.hydro_session.absorb(probe);
            }
            self.energy_released += released;
            self.timers.stop("flame");
            self.timers.start("eos");
            eos_pass(
                &mut self.domain,
                &self.eos,
                self.comp,
                &self.params,
                &mut self.eos_session,
                Some(&burned),
            );
            self.timers.stop("eos");
        }

        if !matches!(self.gravity.field, GravityField::None) || self.gravity.monopole.is_some() {
            self.timers.start("gravity");
            if let Some(solver) = &self.gravity.monopole {
                if self.step.is_multiple_of(self.params.gravity_every) {
                    self.gravity.field = GravityField::Monopole(solver.solve(&self.domain));
                }
            }
            apply_gravity(
                &mut self.domain,
                &self.gravity.field,
                dt,
                self.params.nranks,
            );
            self.timers.stop("gravity");
        }
    }

    /// Commit a validated step: advance counters, then regrid. Regridding
    /// only ever happens here — after validation — so a shadow snapshot is
    /// always restorable (same tree epoch) during a step's retries.
    pub(crate) fn commit_step(&mut self, dt: f64) {
        self.step += 1;
        self.time += dt;

        if self.params.regrid_every > 0 && self.step.is_multiple_of(self.params.regrid_every) {
            self.timers.start("regrid");
            // So is the Löhner estimator's.
            self.domain
                .fill_guardcells_for(self.params.nranks, GuardNeed::Faces);
            let marks = lohner_marks(
                &self.domain.tree,
                &self.domain.unk,
                &self.refine_vars,
                &self.lohner,
            );
            self.domain.tree.adapt(&mut self.domain.unk, &marks);
            self.timers.stop("regrid");
        }
    }

    /// Evolve `nsteps` steps under the "evolution" timer (the paper's
    /// "FLASH Timer").
    pub fn evolve(&mut self, nsteps: u64) {
        self.timers.start("evolution");
        for _ in 0..nsteps {
            self.step();
        }
        self.timers.stop("evolution");
    }

    /// Total wall time of the evolution loop — the "FLASH Timer (s)" row.
    pub fn flash_timer(&self) -> f64 {
        self.timers.seconds("evolution")
    }

    /// Paper-style measures for the EOS region (Table I column).
    pub fn eos_measures(&self) -> Measures {
        self.eos_session.measures(self.flash_timer())
    }

    /// Paper-style measures for the Hydro region (Table II column).
    pub fn hydro_measures(&self) -> Measures {
        self.hydro_session.measures(self.flash_timer())
    }

    /// Where the step loop's time went, by unit, in seconds — FLASH's
    /// per-unit timer rows. On the serial loop these are the unit timers.
    /// The task graph interleaves guard fills, sweeps and EOS freely, so
    /// those three timers never tick there; their rows come from the
    /// per-task busy ledger instead, as the mean over ranks, so every row
    /// stays comparable to the wall time inside
    /// [`try_step`](Self::try_step), `timers.seconds("step")`. The dt,
    /// guardian, flame, gravity and regrid rows are driver timers on both
    /// paths.
    pub fn phase_seconds(&self) -> Vec<(&'static str, f64)> {
        let g = &self.graph_report;
        let per_rank = |ns: u64| ns as f64 / 1e9 / self.params.nranks as f64;
        let mut rows: Vec<(&'static str, f64)> = [
            "guardcell",
            "hydro",
            "eos",
            "dt",
            "guardian",
            "flame",
            "gravity",
            "regrid",
        ]
        .into_iter()
        .map(|label| (label, self.timers.seconds(label)))
        .collect();
        let ledger = [g.guardcell_ns, g.sweep_ns, g.eos_ns];
        for (row, ns) in rows.iter_mut().zip(ledger) {
            row.1 += per_rank(ns);
        }
        rows
    }

    /// Cumulative per-rank executor load (busy/idle seconds, dispatches).
    /// Empty when `nranks == 1` — the serial path never touches the pool.
    pub fn rank_loads(&self) -> Vec<RankLoad> {
        self.domain.rank_loads()
    }

    /// Total mass on the mesh (conservation checks).
    pub fn total_mass(&self) -> f64 {
        let cfg = self.domain.tree.config();
        let mut m = 0.0;
        for id in self.domain.tree.leaves() {
            let dx = self.domain.tree.cell_size(id);
            for k in self.domain.unk.interior_k() {
                for j in self.domain.unk.interior() {
                    for i in self.domain.unk.interior() {
                        let x = self.domain.tree.cell_center(id, i, j, k);
                        let lo = [x[0] - 0.5 * dx[0], x[1] - 0.5 * dx[1], x[2] - 0.5 * dx[2]];
                        let hi = [x[0] + 0.5 * dx[0], x[1] + 0.5 * dx[1], x[2] + 0.5 * dx[2]];
                        let dv = cfg.geometry.cell_volume(lo, hi, cfg.ndim);
                        m += self.domain.unk.get(vars::DENS, i, j, k, id.idx()) * dv;
                    }
                }
            }
        }
        m
    }
}

//! Directional sweeps over the AMR mesh — FLASH's `hy_ppm_sweep`.
//!
//! Each sweep fills guard cells, updates every leaf block along one
//! direction (PPM reconstruction → HLLC fluxes → conservative update),
//! records boundary fluxes, and applies the fine–coarse flux corrections.
//! The sweep advances conserved state only: the thermodynamic cache
//! variables (PRES/TEMP/GAMC/GAME) are left for the driver's instrumented
//! EOS pass that follows every sweep — FLASH's `hy_ppm_sweep` then
//! `Eos_wrapped(MODE_DENS_EI)`, the split the paper's "EOS" experiment
//! instruments.

use rflash_hugepages::Policy;
use rflash_mesh::flux::{Correction, Face, FluxRegister};
use rflash_mesh::unk::UnkGeom;
use rflash_mesh::{vars, BlockId, Domain, GuardNeed, Tree};
use rflash_perfmon::Probe;
use serde::{Deserialize, Serialize};

use crate::state::{cons_to_vel_ener, Prim};
use crate::NFLUX;

/// How the sweep services thermodynamics after the conservative update.
/// There is one way: the type remains so that callers that name it keep
/// working.
pub enum SweepEos {
    /// Leave the thermodynamic cache variables (PRES/TEMP/GAMC/GAME) stale;
    /// the driver runs its own instrumented `Eos_wrapped(MODE_DENS_EI)` pass
    /// after the sweep — FLASH's actual structure and the split the paper's
    /// "EOS" experiment relies on.
    Defer,
}

/// The inner-loop implementation `sweep_direction` runs per block. There
/// is one; the type remains so that configurations and parameter files
/// that name it keep working.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SweepEngine {
    /// Slab-batched SoA engine ([`crate::pencil`]): gather each slab of
    /// pencils into contiguous scratch lanes once, run the kernels as lane
    /// loops, scatter back in one pass.
    #[default]
    Pencil,
}

/// Sweep tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Simulated MPI ranks (threads).
    pub nranks: usize,
    /// Density floor (`smlrho`).
    pub dens_floor: f64,
    /// Specific-internal-energy floor (`smalle`).
    pub eint_floor: f64,
    /// Record unk access patterns for every N-th pencil (0 = off, the
    /// default — pattern capture costs more than the sweep itself, so the
    /// TLB-simulation benches opt in explicitly).
    pub pattern_every: usize,
    /// Inner-loop engine (there is only [`SweepEngine::Pencil`]).
    pub engine: SweepEngine,
    /// Huge-page policy for the per-rank pencil scratch arena (same
    /// degradation chain as `unk` itself).
    pub scratch_policy: Policy,
    /// Resolved SIMD backend the pencil engine's lane kernels run on
    /// (see `rflash_simd::resolve`; every backend is bit-identical).
    pub simd: rflash_simd::Resolved,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            nranks: 1,
            dens_floor: 1e-30,
            eint_floor: 1e-30,
            pattern_every: 0,
            engine: SweepEngine::default(),
            scratch_policy: Policy::None,
            simd: rflash_simd::resolve(rflash_simd::Backend::default()),
        }
    }
}

/// Boundary fluxes of one block for the sweep direction:
/// `[side][t1][t2][channel]` flattened.
pub struct BlockFluxes {
    data: Vec<f64>,
    t2_cells: usize,
}

impl BlockFluxes {
    fn new(nxb: usize, ndim: usize) -> BlockFluxes {
        let t2_cells = if ndim == 3 { nxb } else { 1 };
        BlockFluxes {
            data: vec![0.0; 2 * nxb * t2_cells * NFLUX],
            t2_cells,
        }
    }
    /// Transverse extent along the second face-plane axis (1 in 2-d).
    pub fn t2_cells(&self) -> usize {
        self.t2_cells
    }
    #[inline]
    fn slot(&self, side: usize, t1: usize, t2: usize, ch: usize) -> usize {
        ((side * (self.data.len() / (2 * self.t2_cells * NFLUX)) + t1) * self.t2_cells + t2) * NFLUX
            + ch
    }
    #[inline]
    pub(crate) fn store(&mut self, side: usize, t1: usize, t2: usize, f: &[f64; NFLUX]) {
        let s = self.slot(side, t1, t2, 0);
        self.data[s..s + NFLUX].copy_from_slice(f);
    }
    /// Stored flux of `ch` at face cell (t1, t2) of `side` (0 = low).
    #[inline]
    pub fn at(&self, side: usize, t1: usize, t2: usize, ch: usize) -> f64 {
        self.data[self.slot(side, t1, t2, ch)]
    }
}

/// The sweep-frame permutation: maps sweep-local velocity components
/// (normal, t1, t2) to unk variables, per direction.
pub(crate) fn vel_map(dir: usize) -> [usize; 3] {
    match dir {
        0 => [vars::VELX, vars::VELY, vars::VELZ],
        1 => [vars::VELY, vars::VELX, vars::VELZ],
        2 => [vars::VELZ, vars::VELX, vars::VELY],
        // analyze::allow(panic): dir ∈ {0,1,2} is fixed by the three-sweep
        // driver loop; a fourth direction is a compile-time bug.
        _ => panic!("dir < 3"),
    }
}

/// (i, j, k) of pencil position `p` at transverse coords (t1, t2).
#[inline]
pub(crate) fn pencil_cell(dir: usize, p: usize, t1: usize, t2: usize) -> (usize, usize, usize) {
    match dir {
        0 => (p, t1, t2),
        1 => (t1, p, t2),
        2 => (t1, t2, p),
        // analyze::allow(panic): dir ∈ {0,1,2} is fixed by the three-sweep
        // driver loop; a fourth direction is a compile-time bug.
        _ => panic!("dir < 3"),
    }
}

/// Sweep one leaf block along `dir`: the per-block body of
/// [`sweep_direction`], shared verbatim with the task-graph scheduler's
/// per-block sweep tasks (which is what keeps the two paths bit-identical).
/// Guard cells of `slab` must already be filled for this step.
#[allow(clippy::too_many_arguments)]
pub fn sweep_leaf_block(
    tree: &Tree,
    geom: &UnkGeom,
    id: BlockId,
    slab: &mut [f64],
    dir: usize,
    dt: f64,
    cfg: &SweepConfig,
    probe: &mut Probe,
) -> BlockFluxes {
    let config = tree.config();
    let mut fluxes_out = BlockFluxes::new(config.nxb, config.ndim);
    crate::pencil::sweep_block(
        &crate::pencil::BlockCtx {
            geom,
            dir,
            dt,
            dx: tree.cell_size(id)[dir],
            // Cylindrical r-sweep: divergence picks up face-radius weights
            // and the radial momentum equation a +p/r source (the
            // (1/r)(rp)' − p' remainder). The z-sweep and all Cartesian
            // sweeps use the plain update. Face r = 0 (the axis) has zero
            // area, so the axis flux drops out naturally.
            r_lo: tree.bounds(id).0[0],
            cylindrical_r: dir == 0 && config.geometry == rflash_mesh::Geometry::CylindricalRZ,
            block_idx: id.idx(),
            cfg,
            nxb: config.nxb,
            ng: config.nguard,
            ndim: config.ndim,
            vm: &vel_map(dir),
        },
        slab,
        &mut fluxes_out,
        probe,
    );
    fluxes_out
}

/// One directional sweep over the whole domain, after filling the guard
/// cells it reads: the two face regions along `dir`
/// ([`GuardNeed::Axis`]`(dir)`) and nothing else. Returns the rank probes
/// for the driver to absorb; the driver's EOS pass comes next.
pub fn sweep_direction(
    domain: &mut Domain,
    eos: &SweepEos,
    dir: usize,
    dt: f64,
    reg: &mut FluxRegister,
    cfg: &SweepConfig,
) -> Vec<Probe> {
    let ndim = domain.tree.config().ndim;
    assert!(dir < ndim, "sweep direction outside dimensionality");
    domain.fill_guardcells_for(cfg.nranks, GuardNeed::Axis(dir));
    sweep_direction_prefilled(domain, eos, dir, dt, reg, cfg)
}

/// [`sweep_direction`] minus the guard-cell fill — for drivers that fill (and
/// time) the exchange themselves, e.g. the serial stepper's per-phase
/// wall-time breakdown. The face guards along `dir` must be current.
pub fn sweep_direction_prefilled(
    domain: &mut Domain,
    _eos: &SweepEos,
    dir: usize,
    dt: f64,
    reg: &mut FluxRegister,
    cfg: &SweepConfig,
) -> Vec<Probe> {
    let ndim = domain.tree.config().ndim;
    assert!(dir < ndim, "sweep direction outside dimensionality");
    let nxb = domain.tree.config().nxb;
    let ng = domain.tree.config().nguard;
    assert!(ng >= 4, "PPM needs 4 guard cells");

    let geom = domain.unk.geom();
    let (probes, block_fluxes) = domain.par_leaf_map(cfg.nranks, |tree, id, slab, probe| {
        sweep_leaf_block(tree, &geom, id, slab, dir, dt, cfg, probe)
    });

    // Record boundary fluxes and apply the fine–coarse corrections.
    reg.clear();
    for (id, bf) in &block_fluxes {
        for side in 0..2 {
            let face = Face { axis: dir, side };
            for t1 in 0..nxb {
                for t2 in 0..bf.t2_cells {
                    for ch in 0..NFLUX {
                        reg.save(id.idx(), face, [t1, t2], ch, bf.at(side, t1, t2, ch));
                    }
                }
            }
        }
    }
    apply_flux_corrections(domain, dir, dt, reg, cfg);

    probes
}

/// Conservative write-back of one zone: the scalar twin of the slab
/// engine's update output (`pencil::update_at`), with the same eint floor.
#[allow(clippy::too_many_arguments)]
fn write_zone(
    slab: &mut [f64],
    geom: &UnkGeom,
    dir: usize,
    p: usize,
    t1: usize,
    t2: usize,
    vm: &[usize; 3],
    u5: &[f64; NFLUX],
    cfg: &SweepConfig,
) {
    let (i, j, k) = pencil_cell(dir, p, t1, t2);
    let (dens, vel, mut ener) = cons_to_vel_ener(u5, cfg.dens_floor);
    let ekin = 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
    let mut eint = ener - ekin;
    if eint < cfg.eint_floor {
        eint = cfg.eint_floor;
        ener = eint + ekin;
    }
    let mut put = |var: usize, v: f64| slab[geom.slab_idx(var, i, j, k)] = v;
    put(vars::DENS, dens);
    put(vm[0], vel[0]);
    put(vm[1], vel[1]);
    put(vm[2], vel[2]);
    put(vars::ENER, ener);
    put(vars::EINT, eint);
}

/// Apply ⟨F_fine⟩ − F_coarse corrections to coarse zones at refinement
/// jumps.
fn apply_flux_corrections(
    domain: &mut Domain,
    dir: usize,
    dt: f64,
    reg: &FluxRegister,
    cfg: &SweepConfig,
) {
    let corrections = reg.corrections(&domain.tree);
    if corrections.is_empty() {
        return;
    }
    let geom = domain.unk.geom();

    // Group by block so we can fetch slabs one at a time.
    let mut by_block: std::collections::HashMap<BlockId, Vec<&Correction>> =
        std::collections::HashMap::new();
    for c in &corrections {
        if c.face.axis == dir {
            by_block.entry(c.block).or_default().push(c);
        }
    }

    for (id, corrs) in by_block {
        let slab = domain.unk.block_slab_mut(id.idx());
        apply_block_corrections(&domain.tree, &geom, id, slab, &corrs, dir, dt, cfg);
    }
}

/// Apply one block's flux corrections to its slab: the per-block body of
/// the fix-up pass, shared verbatim with the task-graph scheduler's
/// correction tasks. `corrs` must all target block `id` along `dir`, in
/// the order the register emitted them (the per-zone accumulation order is
/// part of the bit-identical contract).
#[allow(clippy::too_many_arguments)]
pub fn apply_block_corrections(
    tree: &Tree,
    geom: &UnkGeom,
    id: BlockId,
    slab: &mut [f64],
    corrs: &[&Correction],
    dir: usize,
    dt: f64,
    cfg: &SweepConfig,
) {
    let ng = tree.config().nguard;
    let nxb = tree.config().nxb;
    let ndim = tree.config().ndim;
    let vm = vel_map(dir);
    let dx = tree.cell_size(id)[dir];
    let dtdx = dt / dx;
    // Accumulate per-zone channel deltas first (5 channels per zone).
    let mut zone_delta: std::collections::HashMap<(usize, usize, usize), [f64; NFLUX]> =
        std::collections::HashMap::new();
    for c in corrs {
        debug_assert!(c.block == id && c.face.axis == dir);
        let p = if c.face.side == 0 { ng } else { ng + nxb - 1 };
        let t1 = ng + c.cell[0];
        let t2 = if ndim == 3 { ng + c.cell[1] } else { 0 };
        let cell = pencil_cell(dir, p, t1, t2);
        // Outward-face sign: subtracting a larger outgoing flux lowers U.
        let sign = if c.face.side == 0 { 1.0 } else { -1.0 };
        zone_delta.entry(cell).or_default()[c.channel] += sign * dtdx * c.delta;
    }
    for ((i, j, k), delta) in zone_delta {
        let at = |var: usize, slab: &[f64]| slab[geom.slab_idx(var, i, j, k)];
        let prim = Prim {
            dens: at(vars::DENS, slab),
            vel: [at(vm[0], slab), at(vm[1], slab), at(vm[2], slab)],
            pres: at(vars::PRES, slab),
            ener: at(vars::ENER, slab),
            gamc: at(vars::GAMC, slab),
        };
        let mut u5 = prim.to_cons();
        for n in 0..NFLUX {
            u5[n] += delta[n];
        }
        // Re-derive the zone (reuse the sweep-frame write-back, p/t1/t2
        // reconstruction from (i,j,k) via identity mapping for dir 0).
        let (p, t1, t2) = match dir {
            0 => (i, j, k),
            1 => (j, i, k),
            _ => (k, i, j),
        };
        write_zone(slab, geom, dir, p, t1, t2, &vm, &u5, cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_eos::{Eos, EosMode, EosState, GammaLaw};
    use rflash_hugepages::Policy;
    use rflash_mesh::tree::MeshConfig;
    use rflash_mesh::Geometry;

    /// The driver's EOS pass in miniature: a gamma-law `DensEi` call on
    /// every interior zone, run after each sweep (the sweep itself leaves
    /// PRES/TEMP/GAMC/GAME stale).
    fn gamma_eos_pass(d: &mut Domain) {
        let eos = GammaLaw::new(1.4);
        for id in d.tree.leaves() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    let b = id.idx();
                    let mut s = EosState::co_wd(d.unk.get(vars::DENS, i, j, 0, b), 0.0);
                    s.temp = d.unk.get(vars::TEMP, i, j, 0, b);
                    s.eint = d.unk.get(vars::EINT, i, j, 0, b);
                    s.abar = 1.0;
                    s.zbar = 1.0;
                    eos.call(EosMode::DensEi, &mut s).unwrap();
                    d.unk.set(vars::PRES, i, j, 0, b, s.pres);
                    d.unk.set(vars::TEMP, i, j, 0, b, s.temp);
                    d.unk.set(vars::GAMC, i, j, 0, b, s.gamc);
                    d.unk.set(vars::GAME, i, j, 0, b, s.game);
                }
            }
        }
    }

    /// One split 2-d step: each direction's sweep followed by the EOS pass.
    fn sweep_then_eos(d: &mut Domain, dt: f64, reg: &mut FluxRegister) {
        for dir in 0..2 {
            sweep_direction(d, &SweepEos::Defer, dir, dt, reg, &SweepConfig::default());
            gamma_eos_pass(d);
        }
    }

    fn uniform_domain(bc: rflash_mesh::BoundaryCondition) -> Domain {
        let mut cfg = MeshConfig::test_2d();
        cfg.bc = bc;
        cfg.geometry = Geometry::Cartesian;
        let mut d = Domain::new(cfg, Policy::None);
        let eos = GammaLaw::new(1.4);
        for id in d.tree.leaves() {
            for j in 0..d.unk.padded().1 {
                for i in 0..d.unk.padded().0 {
                    let mut s = EosState::co_wd(1.0, 0.0);
                    s.abar = 1.0;
                    s.zbar = 1.0;
                    s.pres = 1.0;
                    eos.call(EosMode::DensPres, &mut s).unwrap();
                    d.unk.set(vars::DENS, i, j, 0, id.idx(), s.dens);
                    d.unk.set(vars::PRES, i, j, 0, id.idx(), s.pres);
                    d.unk.set(vars::TEMP, i, j, 0, id.idx(), s.temp);
                    d.unk.set(vars::EINT, i, j, 0, id.idx(), s.eint);
                    d.unk.set(vars::ENER, i, j, 0, id.idx(), s.eint);
                    d.unk.set(vars::GAMC, i, j, 0, id.idx(), s.gamc);
                    d.unk.set(vars::GAME, i, j, 0, id.idx(), s.game);
                }
            }
        }
        d
    }

    #[test]
    fn uniform_state_is_a_fixed_point() {
        let mut d = uniform_domain(rflash_mesh::BoundaryCondition::Periodic);
        let mut reg = FluxRegister::new(2, 8, NFLUX, d.tree.config().max_blocks);
        sweep_then_eos(&mut d, 1e-3, &mut reg);
        for id in d.tree.leaves() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    let dens = d.unk.get(vars::DENS, i, j, 0, id.idx());
                    let velx = d.unk.get(vars::VELX, i, j, 0, id.idx());
                    assert!((dens - 1.0).abs() < 1e-13, "dens drifted: {dens}");
                    assert!(velx.abs() < 1e-13, "vel appeared: {velx}");
                }
            }
        }
    }

    #[test]
    fn mass_is_conserved_with_periodic_bcs() {
        let mut d = uniform_domain(rflash_mesh::BoundaryCondition::Periodic);
        // Perturb the density smoothly.
        let eos = GammaLaw::new(1.4);
        for id in d.tree.leaves() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    let x = d.tree.cell_center(id, i, j, 0);
                    let dens = 1.0 + 0.3 * (2.0 * std::f64::consts::PI * x[0]).sin();
                    let mut s = EosState::co_wd(dens, 0.0);
                    s.abar = 1.0;
                    s.zbar = 1.0;
                    s.pres = 1.0;
                    eos.call(EosMode::DensPres, &mut s).unwrap();
                    d.unk.set(vars::DENS, i, j, 0, id.idx(), dens);
                    d.unk.set(vars::TEMP, i, j, 0, id.idx(), s.temp);
                    d.unk.set(vars::EINT, i, j, 0, id.idx(), s.eint);
                    d.unk.set(vars::ENER, i, j, 0, id.idx(), s.eint);
                }
            }
        }
        let total_mass = |d: &Domain| -> f64 {
            let mut m = 0.0;
            for id in d.tree.leaves() {
                let dx = d.tree.cell_size(id);
                for j in d.unk.interior() {
                    for i in d.unk.interior() {
                        m += d.unk.get(vars::DENS, i, j, 0, id.idx()) * dx[0] * dx[1];
                    }
                }
            }
            m
        };
        let m0 = total_mass(&d);
        let mut reg = FluxRegister::new(2, 8, NFLUX, d.tree.config().max_blocks);
        for _step in 0..5 {
            let dt = crate::dt::compute_dt(&d, 0.3);
            sweep_then_eos(&mut d, dt, &mut reg);
        }
        let m1 = total_mass(&d);
        assert!(((m1 - m0) / m0).abs() < 1e-12, "mass drift {m0} -> {m1}");
    }

    #[test]
    fn probes_account_work_and_patterns() {
        let mut d = uniform_domain(rflash_mesh::BoundaryCondition::Periodic);
        let mut reg = FluxRegister::new(2, 8, NFLUX, d.tree.config().max_blocks);
        let cfg = SweepConfig {
            pattern_every: 1, // off by default; the accounting test opts in
            ..SweepConfig::default()
        };
        let probes = sweep_direction(&mut d, &SweepEos::Defer, 0, 1e-4, &mut reg, &cfg);
        let stats = &probes[0].stats;
        assert_eq!(stats.zones, 64, "one 8×8 block");
        assert!(stats.vec_ops > 0);
        assert!(probes[0].pattern_count() > 0);
        assert!(stats.bytes_read > 0 && stats.bytes_written > 0);
        // The slab gather is accounted.
        assert!(stats.gather_cells > 0);
    }

    fn perturbed_domain() -> Domain {
        let mut d = uniform_domain(rflash_mesh::BoundaryCondition::Periodic);
        let eos = GammaLaw::new(1.4);
        for id in d.tree.leaves() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    let x = d.tree.cell_center(id, i, j, 0);
                    let dens = 1.0
                        + 0.4 * (2.0 * std::f64::consts::PI * x[0]).sin()
                        + 0.2 * (2.0 * std::f64::consts::PI * x[1]).cos();
                    let pres = 1.0 + 0.5 * (2.0 * std::f64::consts::PI * x[1]).sin();
                    let mut s = EosState::co_wd(dens, 0.0);
                    s.abar = 1.0;
                    s.zbar = 1.0;
                    s.pres = pres;
                    eos.call(EosMode::DensPres, &mut s).unwrap();
                    d.unk.set(vars::DENS, i, j, 0, id.idx(), dens);
                    d.unk.set(vars::PRES, i, j, 0, id.idx(), pres);
                    d.unk.set(vars::TEMP, i, j, 0, id.idx(), s.temp);
                    d.unk.set(vars::EINT, i, j, 0, id.idx(), s.eint);
                    d.unk.set(vars::ENER, i, j, 0, id.idx(), s.eint);
                    d.unk.set(vars::GAMC, i, j, 0, id.idx(), s.gamc);
                    d.unk.set(vars::GAME, i, j, 0, id.idx(), s.game);
                }
            }
        }
        d
    }

    #[test]
    fn defer_mode_leaves_thermo_cache_stale() {
        let mut d = perturbed_domain();
        let before = perturbed_domain();
        let mut reg = FluxRegister::new(2, 8, NFLUX, d.tree.config().max_blocks);
        // The y-sweep: the perturbed pressure varies along y.
        sweep_direction(
            &mut d,
            &SweepEos::Defer,
            1,
            1e-4,
            &mut reg,
            &SweepConfig::default(),
        );
        let id0 = d.tree.leaves()[0].idx();
        let mut moved = false;
        for j in d.unk.interior() {
            for i in d.unk.interior() {
                // PRES keeps its pre-sweep value: the driver's EOS pass owns it.
                assert_eq!(
                    d.unk.get(vars::PRES, i, j, 0, id0),
                    before.unk.get(vars::PRES, i, j, 0, id0),
                    "Defer must not touch PRES"
                );
                moved |=
                    d.unk.get(vars::DENS, i, j, 0, id0) != before.unk.get(vars::DENS, i, j, 0, id0);
            }
        }
        assert!(moved, "the sweep ran: density moved");
    }

    #[test]
    fn pencil_defer_accounts_gather_and_scatter() {
        let mut d = perturbed_domain();
        let mut reg = FluxRegister::new(2, 8, NFLUX, d.tree.config().max_blocks);
        let cfg = SweepConfig::default(); // pencil engine
        let probes = sweep_direction(&mut d, &SweepEos::Defer, 0, 1e-4, &mut reg, &cfg);
        let stats = &probes[0].stats;
        // 8 read vars × pencil length (8 + 2·4 guards = 16) × 8 pencils.
        assert_eq!(stats.gather_cells, 8 * 16 * 8);
        // 6 write vars × 8 interior zones × 8 pencils.
        assert_eq!(stats.scatter_cells, 6 * 8 * 8);
        assert_eq!(stats.eos_calls, 0, "Defer runs no EOS");
    }

    #[test]
    #[should_panic(expected = "sweep direction outside dimensionality")]
    fn z_sweep_rejected_in_2d() {
        let mut d = uniform_domain(rflash_mesh::BoundaryCondition::Periodic);
        let mut reg = FluxRegister::new(2, 8, NFLUX, d.tree.config().max_blocks);
        sweep_direction(
            &mut d,
            &SweepEos::Defer,
            2,
            1e-4,
            &mut reg,
            &SweepConfig::default(),
        );
    }

    #[test]
    fn cylindrical_uniform_state_is_a_fixed_point() {
        // In r-z the pressure-only momentum flux divergence (p/r) must be
        // cancelled exactly by the geometric source.
        let mut cfg = MeshConfig::test_2d();
        cfg.geometry = Geometry::CylindricalRZ;
        cfg.bc = rflash_mesh::BoundaryCondition::Reflecting;
        let mut d = Domain::new(cfg, Policy::None);
        let eos = GammaLaw::new(1.4);
        for id in d.tree.leaves() {
            for j in 0..d.unk.padded().1 {
                for i in 0..d.unk.padded().0 {
                    let mut s = EosState::co_wd(1.0, 0.0);
                    s.abar = 1.0;
                    s.zbar = 1.0;
                    s.pres = 1.0;
                    eos.call(EosMode::DensPres, &mut s).unwrap();
                    d.unk.set(vars::DENS, i, j, 0, id.idx(), s.dens);
                    d.unk.set(vars::PRES, i, j, 0, id.idx(), s.pres);
                    d.unk.set(vars::TEMP, i, j, 0, id.idx(), s.temp);
                    d.unk.set(vars::EINT, i, j, 0, id.idx(), s.eint);
                    d.unk.set(vars::ENER, i, j, 0, id.idx(), s.eint);
                    d.unk.set(vars::GAMC, i, j, 0, id.idx(), s.gamc);
                    d.unk.set(vars::GAME, i, j, 0, id.idx(), s.game);
                }
            }
        }
        let mut reg = FluxRegister::new(2, 8, NFLUX, d.tree.config().max_blocks);
        for _step in 0..4 {
            sweep_then_eos(&mut d, 1e-3, &mut reg);
        }
        for id in d.tree.leaves() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    let dens = d.unk.get(vars::DENS, i, j, 0, id.idx());
                    let velr = d.unk.get(vars::VELX, i, j, 0, id.idx());
                    assert!((dens - 1.0).abs() < 1e-12, "dens drifted: {dens}");
                    assert!(velr.abs() < 1e-12, "radial velocity appeared: {velr}");
                }
            }
        }
    }

    #[test]
    fn refined_mesh_conserves_mass_across_jumps() {
        let mut d = uniform_domain(rflash_mesh::BoundaryCondition::Periodic);
        // Refine one block so flux corrections engage.
        let root = d.tree.leaves()[0];
        let children = d.tree.refine_block(root, &mut d.unk);
        let _ = children;
        // Smooth density bump centered mid-domain.
        let eos = GammaLaw::new(1.4);
        for id in d.tree.leaves() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    let x = d.tree.cell_center(id, i, j, 0);
                    let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
                    let dens = 1.0 + 2.0 * (-r2 / 0.02).exp();
                    let mut s = EosState::co_wd(dens, 0.0);
                    s.abar = 1.0;
                    s.zbar = 1.0;
                    s.pres = 1.0;
                    eos.call(EosMode::DensPres, &mut s).unwrap();
                    d.unk.set(vars::DENS, i, j, 0, id.idx(), dens);
                    d.unk.set(vars::TEMP, i, j, 0, id.idx(), s.temp);
                    d.unk.set(vars::EINT, i, j, 0, id.idx(), s.eint);
                    d.unk.set(vars::ENER, i, j, 0, id.idx(), s.eint);
                }
            }
        }
        let total_mass = |d: &Domain| -> f64 {
            let mut m = 0.0;
            for id in d.tree.leaves() {
                let dx = d.tree.cell_size(id);
                for j in d.unk.interior() {
                    for i in d.unk.interior() {
                        m += d.unk.get(vars::DENS, i, j, 0, id.idx()) * dx[0] * dx[1];
                    }
                }
            }
            m
        };
        let m0 = total_mass(&d);
        let mut reg = FluxRegister::new(2, 8, NFLUX, d.tree.config().max_blocks);
        for _ in 0..3 {
            let dt = crate::dt::compute_dt(&d, 0.3);
            sweep_then_eos(&mut d, dt, &mut reg);
        }
        let m1 = total_mass(&d);
        assert!(
            ((m1 - m0) / m0).abs() < 1e-10,
            "mass drift across refinement jump: {m0} -> {m1}"
        );
    }
}

//! The Sod shock tube — FLASH's most basic verification problem, used here
//! to validate the full sweep machinery against the exact Riemann solution.
//!
//! A planar discontinuity at `x = x0` in a gamma-law gas; evolved with the
//! same AMR/PPM/flux-register stack as the paper problems.

use rflash_eos::{Eos, EosMode, EosState, GammaLaw};
use rflash_hydro::{ExactRiemann, GasState};
use rflash_mesh::refine::lohner_marks;
use rflash_mesh::{
    vars, BoundaryCondition, Domain, Geometry, GuardNeed, Layout, MeshConfig,
};

use crate::eos_choice::{Composition, EosChoice};
use crate::params::RuntimeParams;
use crate::sim::Simulation;

/// Sod-problem parameters (FLASH's `sim_rho{Left,Right}` etc.).
#[derive(Clone, Copy, Debug)]
pub struct SodSetup {
    pub gamma: f64,
    pub left: GasState,
    pub right: GasState,
    /// Interface position.
    pub x0: f64,
    pub nxb: usize,
    pub max_refine: u8,
    pub max_blocks: usize,
}

impl Default for SodSetup {
    fn default() -> Self {
        SodSetup {
            gamma: 1.4,
            left: GasState {
                dens: 1.0,
                vel: 0.0,
                pres: 1.0,
            },
            right: GasState {
                dens: 0.125,
                vel: 0.0,
                pres: 0.1,
            },
            x0: 0.5,
            nxb: 8,
            max_refine: 3,
            max_blocks: 1024,
        }
    }
}

impl SodSetup {
    /// The mesh configuration this setup wants (a long thin 4×1 box).
    pub fn mesh_config(&self) -> MeshConfig {
        MeshConfig {
            ndim: 2,
            nxb: self.nxb,
            nguard: 4,
            nvar: vars::NVAR,
            max_blocks: self.max_blocks,
            // Long thin domain: 4 root blocks across x.
            nroot: [4, 1, 1],
            domain_lo: [0.0, 0.0, 0.0],
            domain_hi: [1.0, 0.25, 1.0],
            min_refine: 0,
            max_refine: self.max_refine,
            bc: BoundaryCondition::Outflow,
            bc_faces: [[None; 2]; 3],
            geometry: Geometry::Cartesian,
            layout: Layout::VarFirst,
        }
    }

    /// The exact solution for comparison.
    pub fn exact(&self) -> ExactRiemann {
        ExactRiemann::new(self.gamma, self.left, self.right)
    }

    fn init_blocks(&self, domain: &mut Domain, eos: &GammaLaw) {
        for id in domain.tree.leaves() {
            for j in 0..domain.unk.padded().1 {
                for i in 0..domain.unk.padded().0 {
                    let x = domain.tree.cell_center(id, i, j, 0);
                    let side = if x[0] < self.x0 { self.left } else { self.right };
                    let mut s = EosState {
                        dens: side.dens,
                        temp: 0.0,
                        abar: 1.0,
                        zbar: 1.0,
                        pres: side.pres,
                        eint: 0.0,
                        entr: 0.0,
                        gamc: 0.0,
                        game: 0.0,
                        cs: 0.0,
                        cv: 0.0,
                    };
                    eos.call(EosMode::DensPres, &mut s).expect("gamma law");
                    let b = id.idx();
                    domain.unk.set(vars::DENS, i, j, 0, b, s.dens);
                    domain.unk.set(vars::VELX, i, j, 0, b, side.vel);
                    domain.unk.set(vars::VELY, i, j, 0, b, 0.0);
                    domain.unk.set(vars::VELZ, i, j, 0, b, 0.0);
                    domain.unk.set(vars::PRES, i, j, 0, b, s.pres);
                    domain
                        .unk
                        .set(vars::ENER, i, j, 0, b, s.eint + 0.5 * side.vel * side.vel);
                    domain.unk.set(vars::TEMP, i, j, 0, b, s.temp);
                    domain.unk.set(vars::EINT, i, j, 0, b, s.eint);
                    domain.unk.set(vars::GAMC, i, j, 0, b, s.gamc);
                    domain.unk.set(vars::GAME, i, j, 0, b, s.game);
                }
            }
        }
    }

    /// Build the initialized simulation (discontinuity + initial refinement).
    pub fn build(&self, mut params: RuntimeParams) -> Simulation {
        params.mesh = self.mesh_config();
        let gamma = GammaLaw::new(self.gamma);
        let mut domain = Domain::new(params.mesh, params.policy);
        for _ in 0..self.max_refine {
            self.init_blocks(&mut domain, &gamma);
            // The Löhner estimator reads ±1 along each axis.
            domain.fill_guardcells_for(1, GuardNeed::Faces);
            let marks = lohner_marks(
                &domain.tree,
                &domain.unk,
                &[vars::DENS, vars::PRES],
                &Default::default(),
            );
            let (refined, _) = domain.tree.adapt(&mut domain.unk, &marks);
            if refined == 0 {
                break;
            }
        }
        self.init_blocks(&mut domain, &gamma);
        let mut sim = Simulation::assemble(
            domain,
            EosChoice::Gamma(gamma),
            Composition::ideal(),
            params,
        );
        sim.eos_everywhere();
        sim
    }

    /// Extract the x-profile at mid-height: mean over the y interior rows of
    /// the finest data covering each x position. Returns (x, dens, velx, pres).
    pub fn midline_profile(sim: &Simulation) -> Vec<(f64, f64, f64, f64)> {
        let mut samples: Vec<(f64, u8, f64, f64, f64)> = Vec::new();
        for id in sim.domain.tree.leaves() {
            let level = sim.domain.tree.block(id).key.level;
            let j = sim.domain.unk.interior().start; // one row is enough
            for i in sim.domain.unk.interior() {
                let x = sim.domain.tree.cell_center(id, i, j, 0);
                samples.push((
                    x[0],
                    level,
                    sim.domain.unk.get(vars::DENS, i, j, 0, id.idx()),
                    sim.domain.unk.get(vars::VELX, i, j, 0, id.idx()),
                    sim.domain.unk.get(vars::PRES, i, j, 0, id.idx()),
                ));
            }
        }
        samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        samples
            .into_iter()
            .map(|(x, _, d, u, p)| (x, d, u, p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_hugepages::Policy;

    fn run(steps: u64) -> (Simulation, SodSetup) {
        let setup = SodSetup {
            max_refine: 2,
            ..SodSetup::default()
        };
        let params = RuntimeParams {
            policy: Policy::None,
            use_hw: false,
            pattern_every: 0,
            gather_every: 0,
            cfl: 0.3,
            ..RuntimeParams::with_mesh(setup.mesh_config())
        };
        let mut sim = setup.build(params);
        sim.evolve(steps);
        (sim, setup)
    }

    #[test]
    fn sod_profile_matches_exact_solution() {
        let (sim, setup) = run(60);
        let t = sim.time;
        assert!(t > 0.05, "enough evolution: t = {t}");
        let exact = setup.exact();
        let profile = SodSetup::midline_profile(&sim);
        // L1 density error against the exact solution.
        let mut err = 0.0;
        let mut norm = 0.0;
        for &(x, dens, _, _) in &profile {
            let xi = (x - setup.x0) / t;
            let ex = exact.sample(xi);
            err += (dens - ex.dens).abs();
            norm += ex.dens;
        }
        let rel = err / norm;
        assert!(rel < 0.05, "L1 density error {rel:.4}");
    }

    #[test]
    fn sod_waves_travel_at_exact_speeds() {
        let (sim, setup) = run(60);
        let t = sim.time;
        let exact = setup.exact();
        let profile = SodSetup::midline_profile(&sim);
        // Locate the shock: rightmost position where velx > u*/2.
        let u_star = exact.star().vel;
        let shock_x = profile
            .iter()
            .filter(|&&(_, _, u, _)| u > 0.5 * u_star)
            .map(|&(x, _, _, _)| x)
            .fold(0.0f64, f64::max);
        // Exact shock position.
        let g = setup.gamma;
        let c_r = (g * setup.right.pres / setup.right.dens).sqrt();
        let s_exact = setup.x0
            + t * (setup.right.vel
                + c_r
                    * ((g + 1.0) / (2.0 * g) * exact.star().pres / setup.right.pres
                        + (g - 1.0) / (2.0 * g))
                        .sqrt());
        assert!(
            (shock_x - s_exact).abs() < 0.04,
            "shock at {shock_x}, exact {s_exact}"
        );
    }
}

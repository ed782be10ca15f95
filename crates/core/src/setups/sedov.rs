//! The Sedov explosion problem — the paper's "3-d Hydro" test.
//!
//! One of the standard test problems shipped with FLASH (Fryxell et al.
//! 2000, §8.1): energy `E₀` deposited in a small sphere of radius
//! `r_init` in a cold uniform gamma-law medium. The paper ran the 3-d
//! version for 200 steps with the hydrodynamics routines instrumented.

use rflash_eos::{EosMode, EosState, GammaLaw};
use rflash_mesh::refine::lohner_marks;
use rflash_mesh::{
    vars, BoundaryCondition, Domain, Geometry, GuardNeed, Layout, MeshConfig,
};

use crate::eos_choice::{Composition, EosChoice};
use crate::params::RuntimeParams;
use crate::sim::Simulation;

/// Sedov initial-condition parameters (FLASH runtime parameter analogs).
#[derive(Clone, Copy, Debug)]
pub struct SedovSetup {
    pub gamma: f64,
    /// Explosion energy (erg in CGS; the classic test uses 1 in code units).
    pub e0: f64,
    /// Ambient density.
    pub rho0: f64,
    /// Ambient pressure (small).
    pub p_ambient: f64,
    /// Initial energy-deposit radius in units of the finest zone size.
    pub r_init_cells: f64,
    /// 2 or 3 dimensions.
    pub ndim: usize,
    /// Zones per block side.
    pub nxb: usize,
    /// Maximum refinement level.
    pub max_refine: u8,
    /// Block-pool capacity.
    pub max_blocks: usize,
    /// Cartesian (the paper's 3-d test) or cylindrical r–z (a true
    /// *spherical* blast computed in 2-d: the axis reflects, the deposit
    /// sits on it).
    pub geometry: Geometry,
    /// `unk` storage order (the paper's §I.C stride ablation).
    pub layout: Layout,
}

impl Default for SedovSetup {
    fn default() -> Self {
        SedovSetup {
            gamma: 1.4,
            e0: 1.0,
            rho0: 1.0,
            p_ambient: 1e-5,
            r_init_cells: 3.5,
            ndim: 3,
            nxb: 8,
            max_refine: 3,
            max_blocks: 4096,
            geometry: Geometry::Cartesian,
            layout: Layout::VarFirst,
        }
    }
}

impl SedovSetup {
    /// The mesh configuration this setup wants.
    pub fn mesh_config(&self) -> MeshConfig {
        let mut bc_faces = [[None; 2]; 3];
        if self.geometry == Geometry::CylindricalRZ {
            assert_eq!(self.ndim, 2, "r–z geometry is 2-d");
            // The r = 0 face is the symmetry axis.
            bc_faces[0][0] = Some(BoundaryCondition::Reflecting);
        }
        MeshConfig {
            ndim: self.ndim,
            nxb: self.nxb,
            nguard: 4,
            nvar: vars::NVAR,
            max_blocks: self.max_blocks,
            nroot: [1, 1, 1],
            domain_lo: [0.0; 3],
            domain_hi: [1.0, 1.0, 1.0],
            min_refine: 0,
            max_refine: self.max_refine,
            bc: BoundaryCondition::Outflow,
            bc_faces,
            geometry: self.geometry,
            layout: self.layout,
        }
    }

    /// The finest zone width.
    pub fn dx_min(&self) -> f64 {
        1.0 / (self.nxb as f64 * (1u64 << self.max_refine) as f64)
    }

    /// Initial deposit radius.
    pub fn r_init(&self) -> f64 {
        self.r_init_cells * self.dx_min()
    }

    /// The explosion center: the domain center, or on the axis for r–z.
    pub fn center(&self) -> [f64; 3] {
        if self.geometry == Geometry::CylindricalRZ {
            return [0.0, 0.5, 0.0];
        }
        let mut c = [0.5, 0.5, 0.5];
        if self.ndim == 2 {
            c[2] = 0.0;
        }
        c
    }

    /// Pressure inside the deposit region that integrates to `e0`.
    pub fn p_explosion(&self) -> f64 {
        let r = self.r_init();
        let volume = if self.geometry == Geometry::CylindricalRZ {
            // The r–z deposit is a genuine 3-d sphere on the axis.
            4.0 / 3.0 * std::f64::consts::PI * r.powi(3)
        } else {
            match self.ndim {
                2 => std::f64::consts::PI * r * r, // unit z extent
                _ => 4.0 / 3.0 * std::f64::consts::PI * r.powi(3),
            }
        };
        (self.gamma - 1.0) * self.e0 / volume
    }

    /// Write the initial condition into every leaf (`Simulation_initBlock`).
    fn init_blocks(&self, domain: &mut Domain, eos: &GammaLaw) {
        let center = self.center();
        let r_init = self.r_init();
        let p_exp = self.p_explosion();
        for id in domain.tree.leaves() {
            for k in 0..domain.unk.padded().2 {
                for j in 0..domain.unk.padded().1 {
                    for i in 0..domain.unk.padded().0 {
                        let x = domain.tree.cell_center(id, i, j, k);
                        // Subzone sampling (FLASH's nsubzones): the energy
                        // deposit must integrate to e0 regardless of how the
                        // sphere cuts cell boundaries.
                        let dx = domain.tree.cell_size(id);
                        let nsub = 4usize;
                        let mut inside = 0usize;
                        let mut total = 0usize;
                        let ksub = if self.ndim == 3 { nsub } else { 1 };
                        for sk in 0..ksub {
                            for sj in 0..nsub {
                                for si in 0..nsub {
                                    let off = |s: usize, n: usize, d: f64| {
                                        (s as f64 + 0.5) / n as f64 * d - 0.5 * d
                                    };
                                    let p = [
                                        x[0] + off(si, nsub, dx[0]) - center[0],
                                        x[1] + off(sj, nsub, dx[1]) - center[1],
                                        if self.ndim == 3 {
                                            x[2] + off(sk, ksub, dx[2]) - center[2]
                                        } else {
                                            0.0
                                        },
                                    ];
                                    let r2 = p[0] * p[0] + p[1] * p[1] + p[2] * p[2];
                                    if r2 < r_init * r_init {
                                        inside += 1;
                                    }
                                    total += 1;
                                }
                            }
                        }
                        let f_in = inside as f64 / total as f64;
                        let pres = f_in * p_exp + (1.0 - f_in) * self.p_ambient;
                        let mut s = EosState {
                            dens: self.rho0,
                            temp: 0.0,
                            abar: 1.0,
                            zbar: 1.0,
                            pres,
                            eint: 0.0,
                            entr: 0.0,
                            gamc: 0.0,
                            game: 0.0,
                            cs: 0.0,
                            cv: 0.0,
                        };
                        use rflash_eos::Eos;
                        eos.call(EosMode::DensPres, &mut s).expect("gamma law");
                        let b = id.idx();
                        domain.unk.set(vars::DENS, i, j, k, b, s.dens);
                        domain.unk.set(vars::VELX, i, j, k, b, 0.0);
                        domain.unk.set(vars::VELY, i, j, k, b, 0.0);
                        domain.unk.set(vars::VELZ, i, j, k, b, 0.0);
                        domain.unk.set(vars::PRES, i, j, k, b, s.pres);
                        domain.unk.set(vars::ENER, i, j, k, b, s.eint);
                        domain.unk.set(vars::TEMP, i, j, k, b, s.temp);
                        domain.unk.set(vars::EINT, i, j, k, b, s.eint);
                        domain.unk.set(vars::GAMC, i, j, k, b, s.gamc);
                        domain.unk.set(vars::GAME, i, j, k, b, s.game);
                        domain.unk.set(vars::FLAM, i, j, k, b, 0.0);
                    }
                }
            }
        }
    }

    /// Build the fully initialized simulation: initial condition, iterated
    /// initial refinement (re-initializing after each adapt, as FLASH
    /// does), and an initial EOS pass.
    pub fn build(&self, mut params: RuntimeParams) -> Simulation {
        params.mesh = self.mesh_config();
        let gamma = GammaLaw::new(self.gamma);
        let mut domain = Domain::new(params.mesh, params.policy);

        // Iterated initial refinement on the deposit region.
        for _pass in 0..self.max_refine {
            self.init_blocks(&mut domain, &gamma);
            // The Löhner estimator reads ±1 along each axis.
            domain.fill_guardcells_for(1, GuardNeed::Faces);
            let marks = lohner_marks(
                &domain.tree,
                &domain.unk,
                &[vars::PRES, vars::DENS],
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
        sim.refine_vars = vec![vars::PRES, vars::DENS];
        sim.eos_everywhere();
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_hugepages::Policy;

    fn small() -> SedovSetup {
        SedovSetup {
            ndim: 2,
            nxb: 8,
            max_refine: 2,
            max_blocks: 256,
            ..SedovSetup::default()
        }
    }

    #[test]
    fn deposit_energy_integrates_to_e0() {
        let s = small();
        let p = s.p_explosion();
        let vol = std::f64::consts::PI * s.r_init().powi(2);
        let e = p * vol / (s.gamma - 1.0);
        assert!((e - s.e0).abs() / s.e0 < 1e-12);
    }

    #[test]
    fn build_refines_on_the_deposit() {
        let setup = small();
        let params = RuntimeParams::with_mesh(setup.mesh_config());
        let sim = setup.build(RuntimeParams {
            policy: Policy::None,
            use_hw: false,
            ..params
        });
        // The deposit region must have attracted refinement.
        let max_level = sim
            .domain
            .tree
            .leaves()
            .iter()
            .map(|id| sim.domain.tree.block(*id).key.level)
            .max()
            .unwrap();
        assert_eq!(max_level, 2, "initial refinement reached lrefine_max");
        // Total energy on the grid ≈ e0 + ambient internal energy.
        let sim_ref = &sim;
        let mut e_total = 0.0;
        for id in sim_ref.domain.tree.leaves() {
            let dx = sim_ref.domain.tree.cell_size(id);
            for j in sim_ref.domain.unk.interior() {
                for i in sim_ref.domain.unk.interior() {
                    let dens = sim_ref.domain.unk.get(vars::DENS, i, j, 0, id.idx());
                    let ener = sim_ref.domain.unk.get(vars::ENER, i, j, 0, id.idx());
                    e_total += dens * ener * dx[0] * dx[1];
                }
            }
        }
        let e_ambient = 1e-5 / (setup.gamma - 1.0); // per unit volume × 1
        assert!(
            (e_total - (setup.e0 + e_ambient)).abs() / setup.e0 < 0.05,
            "grid energy {e_total} vs {}",
            setup.e0
        );
    }

    #[test]
    fn short_evolution_launches_a_shock() {
        let setup = small();
        let params = RuntimeParams {
            policy: Policy::None,
            use_hw: false,
            pattern_every: 0,
            gather_every: 0,
            ..RuntimeParams::with_mesh(setup.mesh_config())
        };
        let mut sim = setup.build(params);
        sim.evolve(10);
        assert!(sim.time > 0.0);
        // Material must be moving outward somewhere.
        let mut vmax = 0.0f64;
        for id in sim.domain.tree.leaves() {
            for j in sim.domain.unk.interior() {
                for i in sim.domain.unk.interior() {
                    vmax = vmax.max(sim.domain.unk.get(vars::VELX, i, j, 0, id.idx()).abs());
                }
            }
        }
        assert!(vmax > 0.0, "explosion must drive outflow");
        assert!(sim.flash_timer() > 0.0);
    }
}

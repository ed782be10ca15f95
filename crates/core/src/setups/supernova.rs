//! The 2-d thermonuclear-supernova (Type Iax deflagration) setup — the
//! paper's "EOS" test.
//!
//! A hydrostatic C/O white dwarf built from the Helmholtz EOS, centrally
//! ignited with the ADR model flame, evolved with monopole self-gravity.
//! The paper ran its 2-d supernova simulation 50 steps with the EOS
//! routines instrumented.
//!
//! Geometry: both FLASH's 2-d cylindrical (r, z) — the star on the axis,
//! reflecting there — and a Cartesian variant (star centered in the box)
//! are supported. The EOS/mesh/flame code paths — the data-access signature
//! the paper measures — are identical between them.

use rflash_eos::{EosMode, EosState, Helmholtz, TableConfig};
use rflash_flame::{AdrFlame, FlameParams};

use rflash_mesh::refine::lohner_marks;
use rflash_mesh::{
    vars, BoundaryCondition, Domain, Geometry, GuardNeed, Layout, MeshConfig,
};

use crate::eos_choice::{Composition, EosChoice};
use crate::params::RuntimeParams;
use crate::sim::{GravityConfig, Simulation};
use crate::wd::{build_wd, WdProfile};

/// Supernova initial-condition parameters.
#[derive(Clone, Copy, Debug)]
pub struct SupernovaSetup {
    /// Central density of the progenitor, g/cm³.
    pub rho_c: f64,
    /// Isothermal progenitor temperature, K.
    pub temp: f64,
    /// Ambient ("fluff") density the star is embedded in.
    pub rho_fluff: f64,
    /// Ignite a central match-head of this radius (cm); 0 disables ignition
    /// (hydrostatic-equilibrium tests).
    pub r_ignite: f64,
    /// Temperature of the ignited region.
    pub t_ignite: f64,
    /// Half-width of the square domain, cm.
    pub half_width: f64,
    pub nxb: usize,
    pub max_refine: u8,
    pub max_blocks: usize,
    /// Helmholtz table resolution (coarse for tests, default for runs).
    pub coarse_table: bool,
    /// FLASH's cylindrical r–z (star on the axis) or Cartesian (star
    /// centered in the box).
    pub geometry: Geometry,
}

impl Default for SupernovaSetup {
    fn default() -> Self {
        SupernovaSetup {
            rho_c: 2.2e9,
            temp: 5e7,
            rho_fluff: 1e4,
            r_ignite: 2.5e7,
            t_ignite: 3e9,
            half_width: 4.0e8,
            nxb: 16,
            max_refine: 3,
            max_blocks: 2048,
            coarse_table: false,
            geometry: Geometry::Cartesian,
        }
    }
}

impl SupernovaSetup {
    /// The mesh configuration this setup wants (geometry-dependent).
    pub fn mesh_config(&self) -> MeshConfig {
        if self.geometry == Geometry::CylindricalRZ {
            // r ∈ [0, L], z ∈ [−L, L], star at the origin on the axis.
            let mut bc_faces = [[None; 2]; 3];
            bc_faces[0][0] = Some(BoundaryCondition::Reflecting);
            MeshConfig {
                ndim: 2,
                nxb: self.nxb,
                nguard: 4,
                nvar: vars::NVAR,
                max_blocks: self.max_blocks,
                nroot: [1, 2, 1],
                domain_lo: [0.0, -self.half_width, 0.0],
                domain_hi: [self.half_width, self.half_width, 1.0],
                min_refine: 0,
                max_refine: self.max_refine,
                bc: BoundaryCondition::Outflow,
                bc_faces,
                geometry: self.geometry,
                layout: Layout::VarFirst,
            }
        } else {
            MeshConfig {
                ndim: 2,
                nxb: self.nxb,
                nguard: 4,
                nvar: vars::NVAR,
                max_blocks: self.max_blocks,
                nroot: [1, 1, 1],
                domain_lo: [-self.half_width, -self.half_width, 0.0],
                domain_hi: [self.half_width, self.half_width, 1.0],
                min_refine: 0,
                max_refine: self.max_refine,
                bc: BoundaryCondition::Outflow,
                bc_faces: [[None; 2]; 3],
                geometry: Geometry::Cartesian,
                layout: Layout::VarFirst,
            }
        }
    }

    fn init_blocks(&self, domain: &mut Domain, eos: &Helmholtz, wd: &WdProfile) {
        use rflash_eos::Eos;
        let comp = Composition::co_half();
        for id in domain.tree.leaves() {
            for j in 0..domain.unk.padded().1 {
                for i in 0..domain.unk.padded().0 {
                    let x = domain.tree.cell_center(id, i, j, 0);
                    let r = (x[0] * x[0] + x[1] * x[1]).sqrt();
                    let dens = wd.rho_at(r).max(self.rho_fluff);
                    let ignited = self.r_ignite > 0.0 && r < self.r_ignite;
                    let temp = if ignited { self.t_ignite } else { self.temp };
                    let mut s = EosState {
                        dens,
                        temp,
                        abar: comp.abar,
                        zbar: comp.zbar,
                        pres: 0.0,
                        eint: 0.0,
                        entr: 0.0,
                        gamc: 0.0,
                        game: 0.0,
                        cs: 0.0,
                        cv: 0.0,
                    };
                    eos.call(EosMode::DensTemp, &mut s).unwrap_or_else(|e| {
                        panic!("init EOS failed at r={r:e}, dens={dens:e}: {e}")
                    });
                    let b = id.idx();
                    domain.unk.set(vars::DENS, i, j, 0, b, s.dens);
                    domain.unk.set(vars::VELX, i, j, 0, b, 0.0);
                    domain.unk.set(vars::VELY, i, j, 0, b, 0.0);
                    domain.unk.set(vars::VELZ, i, j, 0, b, 0.0);
                    domain.unk.set(vars::PRES, i, j, 0, b, s.pres);
                    domain.unk.set(vars::ENER, i, j, 0, b, s.eint);
                    domain.unk.set(vars::TEMP, i, j, 0, b, s.temp);
                    domain.unk.set(vars::EINT, i, j, 0, b, s.eint);
                    domain.unk.set(vars::GAMC, i, j, 0, b, s.gamc);
                    domain.unk.set(vars::GAME, i, j, 0, b, s.game);
                    domain
                        .unk
                        .set(vars::FLAM, i, j, 0, b, if ignited { 1.0 } else { 0.0 });
                }
            }
        }
    }

    /// Build the initialized simulation (star + optional match-head +
    /// gravity + flame).
    pub fn build(&self, mut params: RuntimeParams) -> Simulation {
        params.mesh = self.mesh_config();
        // Density floor well above the EOS table's lower edge.
        params.dens_floor = params.dens_floor.max(self.rho_fluff * 0.1);
        params.eint_floor = params.eint_floor.max(1e12);

        let table = if self.coarse_table {
            TableConfig::coarse()
        } else {
            TableConfig::default()
        };
        // FLASH reads its Helmholtz table from a data file; cache ours the
        // same way so repeated harness runs skip the Fermi–Dirac solves.
        let cache = std::env::temp_dir().join(if self.coarse_table {
            "rflash-helm-coarse.dat"
        } else {
            "rflash-helm-default.dat"
        });
        let eos = Helmholtz::build_cached(table, params.policy, &cache)
            .expect("Helmholtz table build");
        let comp = Composition::co_half();
        let wd = build_wd(
            &eos,
            comp,
            self.rho_c,
            self.temp,
            self.rho_fluff,
            self.half_width / 2000.0,
        )
        .expect("white-dwarf structure");

        let mut domain = Domain::new(params.mesh, params.policy);
        for _pass in 0..self.max_refine {
            self.init_blocks(&mut domain, &eos, &wd);
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
        self.init_blocks(&mut domain, &eos, &wd);

        let mut sim =
            Simulation::assemble(domain, EosChoice::Helmholtz(Box::new(eos)), comp, params);
        sim.refine_vars = vec![vars::DENS, vars::PRES, vars::FLAM];
        // Gravity from the 1-d model's M(<r). In r–z this is the physically
        // correct monopole about the origin; in the Cartesian variant the
        // grid star is a planar cut through the spherical model, so the
        // model profile (not a binning of the 2-d plane, which has
        // per-unit-length units) is the right source either way. The field
        // stays fixed over the run (the paper's 50 steps move little mass;
        // FLASH recomputes the multipole solve instead — documented
        // substitution).
        sim.gravity = GravityConfig {
            field: rflash_gravity::GravityField::Monopole(
                rflash_gravity::MonopoleField::from_profile([0.0; 3], &wd.r, &wd.m, 512),
            ),
            monopole: None,
        };
        if self.r_ignite > 0.0 {
            sim.flame = Some(AdrFlame::new(FlameParams {
                quench_dens: 1e6,
                x_c: 0.5,
                nranks: params.nranks,
                ..FlameParams::default()
            }));
        }
        sim.eos_everywhere();
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_eos::consts::M_SUN;
    use rflash_hugepages::Policy;

    fn small(ignite: bool) -> SupernovaSetup {
        SupernovaSetup {
            nxb: 8,
            max_refine: 2,
            max_blocks: 256,
            coarse_table: true,
            r_ignite: if ignite { 4.0e7 } else { 0.0 },
            ..SupernovaSetup::default()
        }
    }

    fn params(setup: &SupernovaSetup) -> RuntimeParams {
        RuntimeParams {
            policy: Policy::None,
            use_hw: false,
            pattern_every: 0,
            gather_every: 0,
            regrid_every: 0,
            ..RuntimeParams::with_mesh(setup.mesh_config())
        }
    }

    #[test]
    fn star_on_grid_matches_the_1d_model_column_density() {
        // 2-d Cartesian "mass" is mass per unit z-length: compare the grid
        // integral ∫ρ dA against the disk integral ∫ρ(r)·2πr dr of the same
        // 1-d hydrostatic model.
        let setup = small(false);
        let sim = setup.build(params(&setup));
        let m_grid = sim.total_mass();

        let eos =
            rflash_eos::Helmholtz::build(rflash_eos::TableConfig::coarse(), Policy::None).unwrap();
        let wd = crate::wd::build_wd(
            &eos,
            crate::eos_choice::Composition::co_half(),
            setup.rho_c,
            setup.temp,
            setup.rho_fluff,
            setup.half_width / 2000.0,
        )
        .unwrap();
        let mut m_disk = 0.0;
        for w in wd.r.windows(2) {
            let r_mid = 0.5 * (w[0] + w[1]);
            m_disk += wd.rho_at(r_mid) * 2.0 * std::f64::consts::PI * r_mid * (w[1] - w[0]);
        }
        assert!(
            (m_grid - m_disk).abs() / m_disk < 0.2,
            "grid {m_grid:e} vs disk integral {m_disk:e} (g/cm)"
        );
        // And the 1-d model itself is a Chandrasekhar-scale star.
        assert!((1.25..1.45).contains(&wd.mass_msun()), "{}", wd.mass_msun());
        let _ = M_SUN;
    }

    #[test]
    fn unignited_star_stays_near_hydrostatic() {
        let setup = small(false);
        let mut sim = setup.build(params(&setup));
        sim.evolve(3);
        // Peak |v| after 3 steps must stay tiny compared to the sound speed
        // at the center (~1e9 cm/s): hydrostatic balance holds on the grid.
        let mut vmax = 0.0f64;
        for id in sim.domain.tree.leaves() {
            for j in sim.domain.unk.interior() {
                for i in sim.domain.unk.interior() {
                    let x = sim.domain.tree.cell_center(id, i, j, 0);
                    let r = (x[0] * x[0] + x[1] * x[1]).sqrt();
                    if r < 1.0e8 {
                        // interior of the star only
                        vmax = vmax
                            .max(sim.domain.unk.get(vars::VELX, i, j, 0, id.idx()).abs())
                            .max(sim.domain.unk.get(vars::VELY, i, j, 0, id.idx()).abs());
                    }
                }
            }
        }
        // The test grid is deliberately tiny (~8 zones per stellar radius),
        // so discrete HSE balance is only good to ~10% of the central sound
        // speed (~1e9 cm/s). What must NOT happen is collapse or explosion.
        assert!(
            vmax < 2.5e8,
            "star interior should stay quasi-static: vmax = {vmax:e}"
        );
    }

    #[test]
    fn cylindrical_star_mass_matches_the_1d_model() {
        // In r–z the cylindrical cell volumes integrate the axisymmetric
        // star to its true 3-d mass — it must agree with the 1-d model.
        let setup = SupernovaSetup {
            geometry: rflash_mesh::Geometry::CylindricalRZ,
            ..small(false)
        };
        let sim = setup.build(params(&setup));
        let m_grid = sim.total_mass() / M_SUN;
        // The 1-d model at these parameters is ≈1.35 M⊙; the coarse grid
        // (8 zones per radius) carries a generous discretization margin.
        assert!(
            (1.0..1.7).contains(&m_grid),
            "grid mass {m_grid} Msun"
        );
    }

    #[test]
    fn cylindrical_star_stays_quasi_static_and_burns() {
        let setup = SupernovaSetup {
            geometry: rflash_mesh::Geometry::CylindricalRZ,
            ..small(true)
        };
        let mut sim = setup.build(params(&setup));
        sim.evolve(3);
        assert!(
            sim.energy_released > 1e44,
            "r–z deflagration energy (true erg now): {:e}",
            sim.energy_released
        );
    }

    #[test]
    fn ignited_star_burns_and_heats() {
        let setup = small(true);
        let mut sim = setup.build(params(&setup));
        assert!(sim.flame.is_some());
        sim.evolve(3);
        // 2-d Cartesian energies are per unit z-length; a young match-head
        // burning ~1e22–1e24 g/cm of C/O releases ≳1e40 erg/cm in a few ms.
        assert!(
            sim.energy_released > 1e40,
            "deflagration energy release: {:e}",
            sim.energy_released
        );
        // EOS region must have been exercised heavily.
        let m = sim.eos_measures();
        assert!(m.time_s > 0.0);
        assert!(sim.eos_session.tlb_stats().accesses == 0, "sampling off");
    }
}

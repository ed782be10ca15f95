//! Physics oracles for the paper's problems and the Sod tube, built from
//! their committed specs (`crates/core/specs/`): Sod against the exact
//! Riemann solution, the Sedov deposit and its initial refinement, and the
//! supernova star against its own 1-d hydrostatic model.
//!
//! The golden corpus pins these scenarios' bits; these tests pin that the
//! bits are physics.

use rflash::core::output::midline_profile;
use rflash::core::registry::spec::{BcSpec, GeometrySpec, SideState};
use rflash::core::registry::{self, EosSpec, IcPrimitive, SetupSpec};
use rflash::core::wd::build_wd;
use rflash::core::{Simulation, StepScheduler};
use rflash::eos::consts::M_SUN;
use rflash::eos::{Eos, EosMode, EosState, Helmholtz, TableConfig};
use rflash::hugepages::Policy;
use rflash::hydro::{ExactRiemann, GasState, SweepEngine};
use rflash::mesh::{vars, BlockId};

fn build(spec: &SetupSpec) -> Simulation {
    let params = registry::smoke_params(spec, 1, SweepEngine::default(), StepScheduler::default());
    spec.build(params).unwrap()
}

fn gamma(spec: &SetupSpec) -> f64 {
    match spec.eos {
        EosSpec::Gamma { gamma } => gamma,
        EosSpec::Helmholtz { .. } => unreachable!("`{}` is a gamma-law problem", spec.name),
    }
}

/// Largest `|v|` of the velocity variables `vels` over the interior zones
/// where `inside(x)` holds.
fn max_speed(sim: &Simulation, vels: &[usize], inside: impl Fn([f64; 3]) -> bool) -> f64 {
    let mut vmax = 0.0f64;
    for id in sim.domain.tree.leaves() {
        for j in sim.domain.unk.interior() {
            for i in sim.domain.unk.interior() {
                if !inside(sim.domain.tree.cell_center(id, i, j, 0)) {
                    continue;
                }
                for &v in vels {
                    vmax = vmax.max(sim.domain.unk.get(v, i, j, 0, id.idx()).abs());
                }
            }
        }
    }
    vmax
}

// ---------------------------------------------------------------------------
// Sod shock tube vs the exact Riemann solution
// ---------------------------------------------------------------------------

/// The Sod tube at `max_refine` 2 after 60 steps, the exact solution of the
/// spec's own Riemann problem, and the interface position.
fn sod() -> (Simulation, ExactRiemann, f64) {
    let mut spec = registry::load("sod").unwrap();
    spec.mesh.max_refine = 2;
    let Some(&IcPrimitive::PlanarDiscontinuity {
        at, left, right, ..
    }) = spec.initial.first()
    else {
        unreachable!("sod.ron opens with its discontinuity")
    };
    let gas = |s: SideState| GasState {
        dens: s.dens,
        vel: s.vel,
        pres: s.pres,
    };
    let exact = ExactRiemann::new(gamma(&spec), gas(left), gas(right));
    let mut sim = build(&spec);
    sim.evolve(60);
    (sim, exact, at)
}

#[test]
fn sod_profile_matches_exact_solution() {
    let (sim, exact, x0) = sod();
    let t = sim.time;
    assert!(t > 0.05, "enough evolution: t = {t}");
    // L1 density error against the exact solution.
    let mut err = 0.0;
    let mut norm = 0.0;
    for (x, dens, _, _) in midline_profile(&sim.domain) {
        let ex = exact.sample((x - x0) / t);
        err += (dens - ex.dens).abs();
        norm += ex.dens;
    }
    let rel = err / norm;
    assert!(rel < 0.05, "L1 density error {rel:.4}");
}

#[test]
fn sod_shock_travels_at_the_exact_speed() {
    let (sim, exact, x0) = sod();
    let t = sim.time;
    // Locate the shock: rightmost position where velx > u*/2.
    let u_star = exact.star().vel;
    let shock_x = midline_profile(&sim.domain)
        .iter()
        .filter(|&&(_, _, u, _)| u > 0.5 * u_star)
        .map(|&(x, _, _, _)| x)
        .fold(0.0f64, f64::max);
    // Exact shock position.
    let (g, right) = (exact.gamma, exact.right);
    let c_r = (g * right.pres / right.dens).sqrt();
    let s_exact = x0
        + t * (right.vel
            + c_r
                * ((g + 1.0) / (2.0 * g) * exact.star().pres / right.pres + (g - 1.0) / (2.0 * g))
                    .sqrt());
    assert!(
        (shock_x - s_exact).abs() < 0.04,
        "shock at {shock_x}, exact {s_exact}"
    );
}

// ---------------------------------------------------------------------------
// Sedov: the deposit, the initial refinement, the launch
// ---------------------------------------------------------------------------

/// The Sedov blast in 2-d at `max_refine` 2 on a 256-block pool.
fn sedov_2d() -> SetupSpec {
    let mut spec = registry::load("sedov").unwrap();
    spec.mesh.ndim = 2;
    spec.mesh.max_refine = 2;
    spec.mesh.max_blocks = 256;
    spec
}

/// The spec's deposit energy and outer radius in finest-zone widths.
fn deposit(spec: &SetupSpec) -> (f64, f64) {
    spec.initial
        .iter()
        .find_map(|p| match *p {
            IcPrimitive::Deposit {
                energy,
                r_outer_cells,
                ..
            } => Some((energy, r_outer_cells)),
            _ => None,
        })
        .expect("sedov.ron deposits its energy")
}

#[test]
fn sedov_deposit_integrates_to_e0() {
    // Zones wholly inside the deposit carry its pressure; over the 2-d
    // deposit disk (unit z extent) that pressure must hold exactly E₀.
    let spec = sedov_2d();
    let (e0, r_cells) = deposit(&spec);
    let sim = build(&spec);
    let mut p_in = 0.0f64;
    for id in sim.domain.tree.leaves() {
        for j in sim.domain.unk.interior() {
            for i in sim.domain.unk.interior() {
                p_in = p_in.max(sim.domain.unk.get(vars::PRES, i, j, 0, id.idx()));
            }
        }
    }
    let dx_min = 1.0 / (spec.mesh.nxb as f64 * (1u64 << spec.mesh.max_refine) as f64);
    let r = r_cells * dx_min;
    let e = p_in * std::f64::consts::PI * r * r / (gamma(&spec) - 1.0);
    assert!((e - e0).abs() / e0 < 1e-12, "deposit holds {e}, not {e0}");
}

#[test]
fn sedov_initial_refinement_reaches_max_refine() {
    let spec = sedov_2d();
    let (e0, _) = deposit(&spec);
    let sim = build(&spec);
    // The deposit region must have attracted refinement.
    let max_level = sim
        .domain
        .tree
        .leaves()
        .iter()
        .map(|id| sim.domain.tree.block(*id).key.level)
        .max()
        .unwrap();
    assert_eq!(
        max_level, spec.mesh.max_refine,
        "initial refinement reached lrefine_max"
    );
    // Total energy on the grid ≈ e0 + ambient internal energy.
    let mut e_total = 0.0;
    for id in sim.domain.tree.leaves() {
        let dx = sim.domain.tree.cell_size(id);
        for j in sim.domain.unk.interior() {
            for i in sim.domain.unk.interior() {
                let dens = sim.domain.unk.get(vars::DENS, i, j, 0, id.idx());
                let ener = sim.domain.unk.get(vars::ENER, i, j, 0, id.idx());
                e_total += dens * ener * dx[0] * dx[1];
            }
        }
    }
    let e_ambient = 1e-5 / (gamma(&spec) - 1.0); // p₀ / (γ − 1) over the unit box
    assert!(
        (e_total - (e0 + e_ambient)).abs() / e0 < 0.05,
        "grid energy {e_total} vs {e0}"
    );
}

/// Every active block as (slot, key), slot-ascending.
fn slots(sim: &Simulation) -> Vec<(u32, rflash::mesh::MortonKey)> {
    let tree = &sim.domain.tree;
    tree.active_ids()
        .into_iter()
        .map(|id| (id.0, tree.block(id).key))
        .collect()
}

#[test]
fn building_a_spec_twice_assigns_the_same_slots() {
    // Slots decide page residency and the address stream the TLB model
    // sees, so they must not follow hash order from one build to the next.
    for spec in [sedov_2d(), registry::load("kelvin_helmholtz").unwrap()] {
        let first = slots(&build(&spec));
        assert!(first.len() > 16, "`{}` hardly refined", spec.name);
        assert_eq!(first, slots(&build(&spec)), "`{}`", spec.name);
    }
}

#[test]
fn sedov_ten_steps_launch_outflow() {
    let mut sim = build(&sedov_2d());
    sim.evolve(10);
    assert!(sim.time > 0.0);
    // Material must be moving outward somewhere.
    assert!(
        max_speed(&sim, &[vars::VELX], |_| true) > 0.0,
        "explosion must drive outflow"
    );
    assert!(sim.flash_timer() > 0.0);
}

// ---------------------------------------------------------------------------
// Supernova: the star against its 1-d hydrostatic model, and the burn
// ---------------------------------------------------------------------------

/// The supernova at test size — 8-zone blocks, `max_refine` 2, coarse
/// table, no regrids — with the match-head radius `ignite`, or unignited
/// (no match-head, no flame) for `None`; `rz` puts the star on the axis of
/// FLASH's cylindrical r–z geometry.
fn supernova(ignite: Option<f64>, rz: bool) -> SetupSpec {
    let mut spec = registry::load("supernova").unwrap();
    spec.mesh.nxb = 8;
    spec.mesh.max_refine = 2;
    spec.mesh.max_blocks = 256;
    spec.eos = EosSpec::Helmholtz { coarse_table: true };
    spec.budgets.regrid_every = 0;
    if rz {
        // r ∈ [0, L], z ∈ [−L, L]: reflecting on the axis.
        let half_width = spec.mesh.domain_hi[0];
        spec.mesh.geometry = GeometrySpec::CylindricalRZ;
        spec.mesh.nroot = [1, 2, 1];
        spec.mesh.domain_lo = [0.0, -half_width, 0.0];
        spec.mesh.bc_faces[0][0] = Some(BcSpec::Reflecting);
    }
    match ignite {
        None => {
            spec.initial
                .retain(|p| !matches!(p, IcPrimitive::Ignite { .. }));
            spec.physics.flame = None;
        }
        Some(r) => {
            for p in &mut spec.initial {
                if let IcPrimitive::Ignite { radius, .. } = p {
                    *radius = r;
                }
            }
        }
    }
    spec
}

#[test]
fn supernova_star_matches_the_1d_model_column_density() {
    // 2-d Cartesian "mass" is mass per unit z-length: compare the grid
    // integral ∫ρ dA against the disk integral ∫ρ(r)·2πr dr of the same
    // 1-d hydrostatic model.
    let spec = supernova(None, false);
    let m_grid = build(&spec).total_mass();

    let Some(&IcPrimitive::HydrostaticStar {
        rho_c,
        temp,
        rho_fluff,
    }) = spec.initial.first()
    else {
        unreachable!("supernova.ron opens with its star")
    };
    let eos = Helmholtz::build(TableConfig::coarse(), Policy::None).unwrap();
    let comp = spec.composition.to_composition();
    let dr = spec.mesh.domain_hi[0] / 2000.0;
    let wd = build_wd(&eos, comp, rho_c, temp, rho_fluff, dr).unwrap();
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
}

#[test]
fn unignited_star_stays_near_hydrostatic() {
    let mut sim = build(&supernova(None, false));
    sim.evolve(3);
    // The test grid is deliberately tiny (~8 zones per stellar radius),
    // so discrete HSE balance is only good to ~10% of the central sound
    // speed (~1e9 cm/s). What must NOT happen is collapse or explosion.
    let vmax = max_speed(&sim, &[vars::VELX, vars::VELY], |x| {
        (x[0] * x[0] + x[1] * x[1]).sqrt() < 1.0e8
    });
    assert!(
        vmax < 2.5e8,
        "star interior should stay quasi-static: vmax = {vmax:e}"
    );
}

#[test]
fn cylindrical_star_mass_matches_the_1d_model() {
    // In r–z the cylindrical cell volumes integrate the axisymmetric star
    // to its true 3-d mass. The 1-d model at these parameters is ≈1.35 M⊙;
    // the coarse grid (8 zones per radius) carries a generous margin.
    let m_grid = build(&supernova(None, true)).total_mass() / M_SUN;
    assert!((1.0..1.7).contains(&m_grid), "grid mass {m_grid} Msun");
}

#[test]
fn cylindrical_star_burns() {
    let mut sim = build(&supernova(Some(4.0e7), true));
    sim.evolve(3);
    assert!(
        sim.energy_released > 1e44,
        "r–z deflagration energy (true erg): {:e}",
        sim.energy_released
    );
}

#[test]
fn ignited_star_burns_and_heats() {
    let mut sim = build(&supernova(Some(4.0e7), false));
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
    assert!(sim.eos_measures().time_s > 0.0);
    assert!(sim.eos_session.tlb_stats().accesses == 0, "sampling off");
}

/// After every step of a burning star, the EOS state is a fixed point and
/// consistent: another full pass changes no bit of `unk`, and every
/// interior zone either inverts to |e(TEMP) − EINT| < 1e-10·EINT or is
/// pinned at the table's edge clamp with e(TEMP) still past EINT. This is
/// what lets the flame's pass skip the leaves it did not burn, and what
/// ties the edge rule to the zones that reach it (4 from step 9 here).
#[test]
fn supernova_eos_state_is_a_consistent_fixed_point() {
    let mut sim = build(&supernova(Some(4.0e7), false));
    let helm = sim.eos.helmholtz().expect("supernova runs Helmholtz");
    let (lo, hi) = helm.table().config().log_temp;
    let (t_floor, t_ceil) = (10f64.powf(lo) * 1.0001, 10f64.powf(hi) * 0.9999);
    let comp = sim.comp;
    let mut pinned_zones = 0usize;
    for step in 1..=12 {
        sim.step();
        let leaves = sim.domain.tree.leaves();
        let slab = |sim: &Simulation, id: BlockId| sim.domain.unk.block_slab(id.idx()).to_vec();
        let before: Vec<Vec<f64>> = leaves.iter().map(|&id| slab(&sim, id)).collect();
        sim.eos_everywhere();
        for (&id, old) in leaves.iter().zip(&before) {
            let new = slab(&sim, id);
            let same = old
                .iter()
                .zip(&new)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "step {step}: a second EOS pass moved bits of {id:?}");
        }
        let eos = sim.eos.helmholtz().unwrap();
        for &id in &leaves {
            for j in sim.domain.unk.interior() {
                for i in sim.domain.unk.interior() {
                    let at = |v: usize| sim.domain.unk.get(v, i, j, 0, id.idx());
                    let (temp, eint) = (at(vars::TEMP), at(vars::EINT));
                    let mut s = EosState {
                        abar: comp.abar,
                        zbar: comp.zbar,
                        ..EosState::co_wd(at(vars::DENS), temp)
                    };
                    eos.call(EosMode::DensTemp, &mut s).unwrap();
                    let floor_pinned = temp == t_floor && s.eint > eint;
                    let ceil_pinned = temp == t_ceil && s.eint < eint;
                    if floor_pinned || ceil_pinned {
                        pinned_zones += 1;
                        continue;
                    }
                    let resid = (s.eint - eint).abs() / eint;
                    assert!(
                        resid < 1e-10,
                        "step {step} {id:?} ({i}, {j}): |e(T) − EINT|/EINT = {resid:e} at T = {temp:e}"
                    );
                }
            }
        }
    }
    assert!(pinned_zones > 0, "no zone reached the edge clamp");
}

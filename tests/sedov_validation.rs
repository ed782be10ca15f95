//! End-to-end validation: the full stack (mesh + PPM + EOS + AMR + flux
//! correction) against the analytic Sedov–Taylor solution.

use rflash::core::output::RadialProfile;
use rflash::core::registry::spec::{BcSpec, GeometrySpec};
use rflash::core::registry::{self, IcPrimitive, SetupSpec};
use rflash::core::{Simulation, StepScheduler};
use rflash::hydro::{SedovSolution, SweepEngine};
use rflash::mesh::vars;

// The stock `sedov.ron` problem: γ = 1.4, E₀ = 1 into ρ₀ = 1, p₀ = 1e-5.
const GAMMA: f64 = 1.4;
const E0: f64 = 1.0;
const RHO0: f64 = 1.0;
const P_AMBIENT: f64 = 1e-5;
const MAX_REFINE: u8 = 3;

/// The stock Sedov spec in 2-d at test size (8-zone blocks, 3 levels).
fn sedov_2d() -> SetupSpec {
    let mut spec = registry::load("sedov").unwrap();
    spec.mesh.ndim = 2;
    spec.mesh.max_refine = MAX_REFINE;
    spec.mesh.max_blocks = 1024;
    spec
}

fn evolve(spec: &SetupSpec, steps: u64) -> Simulation {
    let params = registry::smoke_params(spec, 1, SweepEngine::default(), StepScheduler::default());
    let mut sim = spec.build(params).unwrap();
    sim.evolve(steps);
    sim
}

#[test]
fn shock_radius_tracks_the_analytic_solution() {
    let sim = evolve(&sedov_2d(), 120);
    assert!(sim.time > 0.0);
    let analytic = SedovSolution::new(GAMMA, 2, E0, RHO0, P_AMBIENT);
    let r_exact = analytic.shock_radius(sim.time);
    assert!(
        r_exact > 0.05 && r_exact < 0.5,
        "shock should be well inside the box: {r_exact}"
    );
    let profile = RadialProfile::extract(&sim.domain, [0.5, 0.5, 0.0], 0.5, 64);
    let r_num = profile.shock_radius().expect("profile has data");
    let rel = (r_num - r_exact) / r_exact;
    assert!(
        rel.abs() < 0.12,
        "numerical shock at {r_num}, analytic at {r_exact} ({:+.1}%)",
        rel * 100.0
    );
}

#[test]
fn post_shock_compression_approaches_strong_shock_limit() {
    let sim = evolve(&sedov_2d(), 120);
    // Maximum density on the grid approaches (γ+1)/(γ−1)·ρ0 = 6 from
    // below; at this deliberately small test resolution (8-zone blocks,
    // 3 levels) the thin shell is diffused to roughly half the analytic
    // jump — what matters is that it clearly exceeds any non-shock value
    // and stays below the limit.
    let mut rho_max = 0.0f64;
    for id in sim.domain.tree.leaves() {
        for j in sim.domain.unk.interior() {
            for i in sim.domain.unk.interior() {
                rho_max = rho_max.max(sim.domain.unk.get(vars::DENS, i, j, 0, id.idx()));
            }
        }
    }
    let limit = (GAMMA + 1.0) / (GAMMA - 1.0);
    assert!(
        rho_max > 0.42 * limit && rho_max < 1.15 * limit,
        "peak compression {rho_max} vs strong-shock limit {limit}"
    );
}

#[test]
fn amr_follows_the_shock_front() {
    let sim = evolve(&sedov_2d(), 120);
    let analytic = SedovSolution::new(GAMMA, 2, E0, RHO0, P_AMBIENT);
    let r_shock = analytic.shock_radius(sim.time);
    // The finest leaves should cluster at the front.
    let max_level = MAX_REFINE;
    let mut fine_near = 0;
    let mut fine_far = 0;
    for id in sim.domain.tree.leaves() {
        if sim.domain.tree.block(id).key.level != max_level {
            continue;
        }
        let (lo, hi) = sim.domain.tree.bounds(id);
        let c = [0.5 * (lo[0] + hi[0]) - 0.5, 0.5 * (lo[1] + hi[1]) - 0.5];
        let r = (c[0] * c[0] + c[1] * c[1]).sqrt();
        if (r - r_shock).abs() < 0.15 {
            fine_near += 1;
        } else {
            fine_far += 1;
        }
    }
    assert!(
        fine_near > fine_far,
        "finest blocks should track the shock: near={fine_near} far={fine_far}"
    );
}

/// Total mass and total energy over the leaf interiors.
fn totals(sim: &Simulation) -> (f64, f64) {
    let ndim = sim.domain.tree.config().ndim;
    let ks = if ndim == 3 {
        sim.domain.unk.interior()
    } else {
        0..1
    };
    let (mut mass, mut energy) = (0.0, 0.0);
    for id in sim.domain.tree.leaves() {
        let vol: f64 = sim.domain.tree.cell_size(id)[..ndim].iter().product();
        for k in ks.clone() {
            for j in sim.domain.unk.interior() {
                for i in sim.domain.unk.interior() {
                    let dens = sim.domain.unk.get(vars::DENS, i, j, k, id.idx());
                    let ener = sim.domain.unk.get(vars::ENER, i, j, k, id.idx());
                    mass += dens * vol;
                    energy += dens * ener * vol;
                }
            }
        }
    }
    (mass, energy)
}

/// Evolve `spec` for `steps` and assert that total mass and energy hold to
/// round-off: split finite volumes with a unique flux per face, conservative
/// restriction/prolongation and fine–coarse flux correction leave nothing
/// else to drift while the blast stays inside the box.
fn assert_conserved(spec: &SetupSpec, steps: u64) {
    let params = registry::smoke_params(spec, 1, SweepEngine::default(), StepScheduler::default());
    let mut sim = spec.build(params).unwrap();
    let (m0, e0) = totals(&sim);
    sim.evolve(steps);
    let (m1, e1) = totals(&sim);
    let (dm, de) = ((m1 - m0) / m0, (e1 - e0) / e0);
    assert!(
        dm.abs() < 1e-12,
        "mass drifted over {steps} steps: {m0} -> {m1} ({dm:e})"
    );
    assert!(
        de.abs() < 1e-12,
        "energy drifted over {steps} steps: {e0} -> {e1} ({de:e})"
    );
}

#[test]
fn total_energy_is_approximately_conserved() {
    // 2-d, three levels with regrids; outflow boundaries not yet reached.
    assert_conserved(&sedov_2d(), 80);
}

#[test]
fn periodic_single_level_3d_sedov_conserves_to_round_off() {
    // 64 leaves on one level: every face is a block face, none is a
    // refinement jump, and nothing leaves the periodic box.
    let mut spec = registry::load("sedov").unwrap();
    spec.mesh.min_refine = 2;
    spec.mesh.max_refine = 2;
    spec.mesh.max_blocks = 128;
    spec.mesh.bc_default = BcSpec::Periodic;
    assert_conserved(&spec, 30);
}

#[test]
fn cylindrical_rz_blast_matches_spherical_solution() {
    // The r–z Sedov blast on the axis is a genuine ν = 3 spherical blast
    // computed in two dimensions — the strongest validation of the
    // cylindrical geometry terms (area/volume factors + p/r source).
    let mut spec = sedov_2d();
    spec.mesh.geometry = GeometrySpec::CylindricalRZ;
    // The r = 0 face is the symmetry axis, and the deposit sits on it.
    spec.mesh.bc_faces[0][0] = Some(BcSpec::Reflecting);
    for p in &mut spec.initial {
        if let IcPrimitive::Deposit { center, .. } = p {
            *center = [0.0, 0.5, 0.0];
        }
    }
    let sim = evolve(&spec, 120);

    let analytic = SedovSolution::new(GAMMA, 3, E0, RHO0, P_AMBIENT);
    let r_exact = analytic.shock_radius(sim.time);
    assert!(r_exact > 0.05 && r_exact < 0.45, "r_shock = {r_exact}");

    let profile = RadialProfile::extract(&sim.domain, [0.0, 0.5, 0.0], 0.5, 64);
    let r_num = profile.shock_radius().expect("profile has data");
    let rel = (r_num - r_exact) / r_exact;
    assert!(
        rel.abs() < 0.12,
        "r–z shock at {r_num}, spherical analytic at {r_exact} ({:+.1}%)",
        rel * 100.0
    );
}

//! Sedov blast validation: evolve the explosion and compare the computed
//! radial profile against the analytic self-similar solution.
//!
//! ```text
//! cargo run --release --example sedov_blast [--3d] [steps]
//! ```

use rflash::core::output::RadialProfile;
use rflash::core::{registry, RuntimeParams};
use rflash::hugepages::Policy;
use rflash::hydro::SedovSolution;

// The stock `sedov.ron` problem: γ = 1.4, E₀ = 1 into ρ₀ = 1, p₀ = 1e-5.
const GAMMA: f64 = 1.4;
const E0: f64 = 1.0;
const RHO0: f64 = 1.0;
const P_AMBIENT: f64 = 1e-5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let three_d = args.iter().any(|a| a == "--3d");
    let steps: u64 = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if three_d { 60 } else { 150 });

    let ndim = if three_d { 3 } else { 2 };
    let mut spec = registry::load("sedov").expect("built-in scenario");
    spec.mesh.ndim = ndim;
    if !three_d {
        spec.mesh.max_refine = 4;
    }
    let params = RuntimeParams {
        policy: Policy::Thp,
        pattern_every: 0, // pure physics run: no instrumentation overhead
        gather_every: 0,
        ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
    };
    let mut sim = spec.build(params).expect("sedov spec builds");
    println!(
        "Sedov {ndim}-d: {} initial leaves, dx_min = {:.4}",
        sim.domain.tree.leaves().len(),
        1.0 / (spec.mesh.nxb as f64 * (1u64 << spec.mesh.max_refine) as f64)
    );
    sim.evolve(steps);
    println!(
        "t = {:.4e} after {steps} steps ({} leaves)",
        sim.time,
        sim.domain.tree.leaves().len()
    );

    let analytic = SedovSolution::new(GAMMA, ndim, E0, RHO0, P_AMBIENT);
    let r_shock = analytic.shock_radius(sim.time);
    println!(
        "analytic shock radius: {r_shock:.4} (xi0 = {:.4})",
        analytic.xi0()
    );

    let center = if three_d { [0.5; 3] } else { [0.5, 0.5, 0.0] };
    let profile = RadialProfile::extract(&sim.domain, center, 0.5, 48);
    if let Some(r_num) = profile.shock_radius() {
        println!(
            "numerical shock radius: {r_num:.4}  (rel. error {:+.2}%)",
            (r_num - r_shock) / r_shock * 100.0
        );
    }

    println!(
        "\n{:>8} {:>12} {:>12} {:>12} {:>12}",
        "r", "dens", "dens_exact", "velr", "velr_exact"
    );
    for b in (0..profile.r.len()).step_by(3) {
        if profile.count[b] == 0 {
            continue;
        }
        let r = profile.r[b];
        let (rho_a, u_a, _) = analytic.state(r, sim.time);
        println!(
            "{:>8.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            r, profile.dens[b], rho_a, profile.velr[b], u_a
        );
    }
}

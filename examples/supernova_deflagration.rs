//! The paper's science application: a centrally ignited Type Iax-style
//! deflagration in a C/O white dwarf, with per-step diagnostics.
//!
//! ```text
//! cargo run --release --example supernova_deflagration [steps] [--rz]
//! ```
//!
//! `--rz` runs FLASH's native cylindrical r–z geometry (star on the axis);
//! the default is the Cartesian variant.

use rflash::core::output::RadialProfile;
use rflash::core::registry::spec::{BcSpec, GeometrySpec};
use rflash::core::{registry, RuntimeParams};
use rflash::eos::consts::M_SUN;
use rflash::hugepages::Policy;
use rflash::mesh::vars;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let steps: u64 = args.iter().find_map(|a| a.parse().ok()).unwrap_or(50);
    let rz = args.iter().any(|a| a == "--rz");

    let mut spec = registry::load("supernova").expect("built-in scenario");
    spec.mesh.max_blocks = 2048;
    let half_width = spec.mesh.domain_hi[0];
    if rz {
        // r ∈ [0, L], z ∈ [−L, L]: the star at the origin on the axis.
        spec.mesh.geometry = GeometrySpec::CylindricalRZ;
        spec.mesh.nroot = [1, 2, 1];
        spec.mesh.domain_lo = [0.0, -half_width, 0.0];
        spec.mesh.bc_faces[0][0] = Some(BcSpec::Reflecting);
    }
    let params = RuntimeParams {
        policy: Policy::Thp,
        pattern_every: 0,
        gather_every: 0,
        ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
    };

    println!("building the white dwarf and the Helmholtz table…");
    let mut sim = spec.build(params).expect("supernova spec builds");
    if rz {
        println!(
            "progenitor on the grid: {:.3} Msun (true 3-d mass in r–z)",
            sim.total_mass() / M_SUN
        );
    } else {
        println!(
            "progenitor on the grid: {:.3e} g/cm column mass (2-d Cartesian)",
            sim.total_mass()
        );
    }
    println!(
        "mesh: {}",
        rflash::mesh::MeshStats::gather(&sim.domain.tree)
    );

    println!(
        "\n{:>5} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "step", "t [s]", "dt [s]", "E_nuc [erg/cm]", "burned phi", "leaves"
    );
    let mut last_t = 0.0;
    for s in 0..steps {
        let dt = sim.step();
        if s % 5 == 0 || s + 1 == steps {
            // Burned fraction: mean of phi over the star.
            let mut phi_sum = 0.0;
            let mut n = 0u64;
            for id in sim.domain.tree.leaves() {
                for j in sim.domain.unk.interior() {
                    for i in sim.domain.unk.interior() {
                        if sim.domain.unk.get(vars::DENS, i, j, 0, id.idx()) > 1e6 {
                            phi_sum += sim.domain.unk.get(vars::FLAM, i, j, 0, id.idx());
                            n += 1;
                        }
                    }
                }
            }
            println!(
                "{:>5} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.6} {:>8}",
                s + 1,
                sim.time,
                dt,
                sim.energy_released,
                phi_sum / n.max(1) as f64,
                sim.domain.tree.leaves().len()
            );
        }
        last_t = sim.time;
    }

    let profile = RadialProfile::extract(&sim.domain, [0.0; 3], half_width, 32);
    println!("\nfinal radial structure (t = {last_t:.3e} s):");
    println!(
        "{:>12} {:>12} {:>12} {:>10}",
        "r [cm]", "dens", "T-proxy pres", "velr"
    );
    for b in (0..profile.r.len()).step_by(4) {
        println!(
            "{:>12.3e} {:>12.3e} {:>12.3e} {:>10.3e}",
            profile.r[b], profile.dens[b], profile.pres[b], profile.velr[b]
        );
    }
    println!(
        "\nenergy released: {:.3e} erg/cm of z-extent  (~{:.2e} Msun/cm burned C at q=4.8e17·X_C)",
        sim.energy_released,
        sim.energy_released / (4.8e17 * 0.5) / M_SUN
    );
    println!("\ntimers:\n{}", sim.timers);
}

//! Sod shock tube vs the exact Riemann solution — the classic verification
//! FLASH ships (Fryxell et al. 2000 §8.2), run through the full AMR stack.
//!
//! ```text
//! cargo run --release --example sod_tube [steps]
//! ```

use rflash::core::output::midline_profile;
use rflash::core::registry::{self, EosSpec, IcPrimitive};
use rflash::core::RuntimeParams;
use rflash::hugepages::Policy;
use rflash::hydro::{ExactRiemann, GasState};

fn main() {
    let steps: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);

    // The CFL number (0.3) comes from the spec's budgets, not from here.
    let spec = registry::load("sod").expect("built-in scenario");
    let params = RuntimeParams {
        policy: Policy::Thp,
        pattern_every: 0,
        gather_every: 0,
        ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
    };
    let mut sim = spec.build(params).expect("sod spec builds");
    sim.evolve(steps);
    let t = sim.time;
    println!(
        "Sod tube at t = {t:.4} ({steps} steps, {} leaves)",
        sim.domain.tree.leaves().len()
    );

    let EosSpec::Gamma { gamma } = spec.eos else {
        unreachable!("sod.ron is a gamma-law problem")
    };
    let Some(IcPrimitive::PlanarDiscontinuity {
        at, left, right, ..
    }) = spec.initial.first()
    else {
        unreachable!("sod.ron opens with its discontinuity")
    };
    let gas = |s: &registry::spec::SideState| GasState {
        dens: s.dens,
        vel: s.vel,
        pres: s.pres,
    };
    let exact = ExactRiemann::new(gamma, gas(left), gas(right));
    let star = exact.star();
    println!(
        "exact star state: p* = {:.5}, u* = {:.5} (Toro: 0.30313, 0.92745)\n",
        star.pres, star.vel
    );

    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "x", "dens", "exact", "velx", "exact", "pres", "exact"
    );
    let profile = midline_profile(&sim.domain);
    let mut l1 = 0.0;
    let mut norm = 0.0;
    for (n, &(x, dens, velx, pres)) in profile.iter().enumerate() {
        let ex = exact.sample((x - at) / t);
        l1 += (dens - ex.dens).abs();
        norm += ex.dens;
        if n % (profile.len() / 24).max(1) == 0 {
            println!(
                "{x:>8.4} {dens:>10.4} {:>10.4} {velx:>10.4} {:>10.4} {pres:>10.4} {:>10.4}",
                ex.dens, ex.vel, ex.pres
            );
        }
    }
    println!("\nL1 density error vs exact: {:.3}%", l1 / norm * 100.0);
}

//! Quickstart: run a small Sedov explosion with a chosen huge-page policy
//! and print the paper-style instrumentation report.
//!
//! ```text
//! cargo run --release --example quickstart [none|thp|hugetlbfs]
//! ```

use rflash::core::{registry, RuntimeParams};
use rflash::hugepages::{Policy, POLICY_ENV_VAR};

fn main() {
    // Policy from argv, falling back to the paper-style env variable
    // (RFLASH_HPAGE_TYPE — the XOS_MMM_L_HPAGE_TYPE analog), then THP.
    let policy: Policy = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("none|thp|hugetlbfs[:SIZE]"))
        .unwrap_or_else(|| Policy::from_env().expect(POLICY_ENV_VAR));

    println!("huge-page policy: {policy}");

    let mut spec = registry::load("sedov").expect("built-in scenario");
    spec.mesh.ndim = 2;
    spec.mesh.max_blocks = 1024;
    let params = RuntimeParams {
        policy,
        ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
    };
    let mut sim = spec.build(params).expect("sedov spec builds");
    println!(
        "unk container: {:.1} MiB, {} leaf blocks",
        sim.domain.unk.bytes() as f64 / (1 << 20) as f64,
        sim.domain.tree.leaves().len()
    );
    println!(
        "kernel-verified backing: {}",
        sim.domain.unk.backing_report()
    );

    sim.evolve(50);

    println!(
        "\nafter 50 steps: t = {:.4e}, {} leaves",
        sim.time,
        sim.domain.tree.leaves().len()
    );
    println!("\ntimers:\n{}", sim.timers);
    let m = sim.hydro_measures();
    println!("instrumented hydro region:");
    println!("  time                {:>12.4} s", m.time_s);
    println!("  cycles              {:>12.3e}", m.cycles);
    println!("  memory bandwidth    {:>12.3} GB/s", m.mem_gb_per_s);
    println!(
        "  modeled DTLB misses {:>12} ({:.3e}/s)",
        m.dtlb_misses, m.dtlb_miss_per_s
    );
    println!(
        "  backend             {:>12}",
        if m.hw_backend {
            "hardware+model"
        } else {
            "model"
        }
    );
}

//! E2 / Table II: the "3-d Hydro" problem — Sedov explosion with the
//! hydrodynamics routines instrumented, with and without huge pages.
//!
//! Usage: `table2_hydro [--paper | --smoke] [--out results_hydro.json]`

use rflash_bench::{run_hydro_experiment, RunScale};
use rflash_hugepages::probe_system;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = RunScale::from_args(&args);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results_hydro.json".into());

    println!("host huge-page configuration:\n{}", probe_system());
    println!(
        "{}",
        rflash_bench::prepare_hugetlb_pool(scale.max_blocks * 11 * 16 * 16 * 16 * 8 + (8 << 20))
    );

    let policies = rflash_bench::default_policies();
    let exp = run_hydro_experiment(&policies, scale);
    for run in &exp.runs {
        println!(
            "policy={:<10} leaves={:<5} unk={:>6.1} MiB backing: {}",
            run.policy,
            run.leaf_blocks,
            run.unk_bytes as f64 / (1 << 20) as f64,
            run.unk_backing
        );
        println!(
            "    {} (saw huge pages: {})",
            run.meminfo_watch, run.meminfo_saw_huge
        );
    }
    if let Some(report) = exp.ratio_report() {
        println!("\n{report}");
        println!(
            "paper (Table II): DTLB ratio 0.324, time ratio 1.00; here: DTLB ratio {:.3}, time ratio {:.3}",
            report.dtlb_ratio(),
            report.ratios()[1]
        );
    }
    exp.save(&out).expect("write results JSON");
    println!("wrote {out}");
}

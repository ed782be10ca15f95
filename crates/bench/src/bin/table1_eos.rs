//! E1 / Table I: the "EOS" problem — 2-d supernova deflagration with the
//! EOS routines instrumented, run with and without huge pages.
//!
//! Usage: `table1_eos [--paper | --smoke] [--out results_eos.json]`

use rflash_bench::{run_eos_experiment, RunScale};
use rflash_hugepages::probe_system;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = RunScale::from_args(&args);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results_eos.json".into());

    println!("host huge-page configuration:\n{}", probe_system());
    println!(
        "{}",
        rflash_bench::prepare_hugetlb_pool(scale.max_blocks * 11 * 24 * 24 * 8 + (8 << 20))
    );

    // The paper's backend sweep: none (the -Knolargepage analog), THP (which
    // may silently fail to engage — the GNU/Cray mystery), and explicit
    // hugetlbfs pages (the Fujitsu path).
    let policies = rflash_bench::default_policies();
    let exp = run_eos_experiment(&policies, scale);
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
            "paper (Table I): DTLB ratio 0.047, time ratio 0.94; here: DTLB ratio {:.3}, time ratio {:.3}",
            report.dtlb_ratio(),
            report.ratios()[1]
        );
    }
    exp.save(&out).expect("write results JSON");
    println!("wrote {out}");
}

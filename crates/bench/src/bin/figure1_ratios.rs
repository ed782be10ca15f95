//! E3 / Figure 1: the ratio bar chart (with HPs / without HPs) over the six
//! measures for both experiments. Reads the JSON written by `table1_eos`
//! and `table2_hydro` (running them first if the files are missing).

use rflash_bench::{figure1_text, run_eos_experiment, run_hydro_experiment, Experiment, RunScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = RunScale::from_args(&args);

    let eos = Experiment::load("results_eos.json").unwrap_or_else(|_| {
        eprintln!("results_eos.json missing; running E1 now…");
        let e = run_eos_experiment(&rflash_bench::default_policies(), scale);
        let _ = e.save("results_eos.json");
        e
    });
    let hydro = Experiment::load("results_hydro.json").unwrap_or_else(|_| {
        eprintln!("results_hydro.json missing; running E2 now…");
        let e = run_hydro_experiment(&rflash_bench::default_policies(), scale);
        let _ = e.save("results_hydro.json");
        e
    });

    let (Some(er), Some(hr)) = (eos.ratio_report(), hydro.ratio_report()) else {
        eprintln!("experiments lack both policies; rerun table1_eos/table2_hydro");
        std::process::exit(1);
    };
    println!("{}", figure1_text(&er, &hr));
}

//! Smoke versions of the paper's experiments E1–E3: the harness must
//! produce coherent tables whose DTLB column moves the right way.

use rflash_bench::{
    default_policies, figure1_text, run_eos_experiment, run_hydro_experiment, RunScale,
};

#[test]
fn table1_and_table2_smoke_produce_coherent_reports() {
    let scale = RunScale::smoke();
    let eos = run_eos_experiment(&default_policies(), scale);
    let hydro = run_hydro_experiment(&default_policies(), scale);

    for exp in [&eos, &hydro] {
        assert_eq!(exp.runs.len(), 3, "{}: all three policies ran", exp.name);
        for run in &exp.runs {
            assert!(run.measures.time_s > 0.0, "{}: timed region", run.policy);
            assert!(run.leaf_blocks > 0);
            if run.policy == "none" {
                assert!(!run.unk_verified_huge, "base policy can't be huge");
            }
        }
        let report = exp.ratio_report().expect("report");
        // With-HP modeled misses never exceed without-HP (monotonicity of
        // huge frames; equality allowed when nothing verified huge).
        assert!(
            report.with_hp.dtlb_misses <= report.without_hp.dtlb_misses,
            "{}: {} vs {}",
            exp.name,
            report.with_hp.dtlb_misses,
            report.without_hp.dtlb_misses
        );
    }

    // Figure 1 text renders with both experiments.
    let fig = figure1_text(&eos.ratio_report().unwrap(), &hydro.ratio_report().unwrap());
    assert!(fig.contains("DTLB"));
    assert!(fig.contains("EOS"));
}

#[test]
fn dtlb_ratio_shrinks_when_huge_pages_verify() {
    // Only meaningful when the host can actually grant huge pages
    // (hugetlbfs pool or THP); skip silently otherwise — the honest-
    // fallback path is covered above. Needs a mesh a bit beyond smoke
    // scale so the working set actually pressures the base-page TLB.
    let scale = RunScale {
        steps: 2,
        max_refine: 2,
        max_blocks: 512,
        coarse_table: true,
    };
    let exp = run_eos_experiment(&default_policies(), scale);
    let any_huge = exp.runs.iter().any(|r| r.unk_verified_huge);
    if !any_huge {
        eprintln!("host grants no huge pages; skipping ratio assertion");
        return;
    }
    let report = exp.ratio_report().unwrap();
    assert!(
        report.dtlb_ratio() < 0.9,
        "verified huge pages must reduce modeled DTLB misses: ratio {}",
        report.dtlb_ratio()
    );
}

#[test]
fn experiment_json_schema_is_stable() {
    let exp = run_eos_experiment(&default_policies()[..1], RunScale::smoke());
    let json = serde_json::to_value(&exp).unwrap();
    for key in ["name", "scale", "runs"] {
        assert!(json.get(key).is_some(), "missing {key}");
    }
    let run = &json["runs"][0];
    for key in [
        "policy",
        "measures",
        "unk_backing",
        "unk_verified_huge",
        "leaf_blocks",
        "unk_bytes",
    ] {
        assert!(run.get(key).is_some(), "missing runs[0].{key}");
    }
    for key in [
        "cycles",
        "time_s",
        "vec_ops_per_cycle",
        "mem_gb_per_s",
        "dtlb_miss_per_s",
        "total_time_s",
    ] {
        assert!(run["measures"].get(key).is_some(), "missing measure {key}");
    }
}

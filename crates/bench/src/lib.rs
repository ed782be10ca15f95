//! Shared harness for regenerating the paper's tables and figures.
//!
//! Experiment index (see `DESIGN.md` §4):
//!
//! * **E1 / Table I** — `table1_eos`: 2-d supernova, EOS region instrumented,
//!   with vs. without huge pages.
//! * **E2 / Table II** — `table2_hydro`: 3-d Sedov, hydro region
//!   instrumented, with vs. without huge pages.
//! * **E3 / Figure 1** — `figure1_ratios`: ratio bar chart from E1+E2 JSON.
//! * **E5 / §II analog** — `backend_matrix`: which allocation backends
//!   actually achieve huge pages (the GNU/Cray/Fujitsu observable).
//!
//! Scale: the paper ran on 32 GB A64FX nodes; defaults here are laptop-
//! scale but keep the working set far beyond the TLB reach (~4 MiB) so the
//! DTLB phenomenon is preserved. `--paper` raises resolution and step
//! counts toward the paper's 50-step supernova / 200-step Sedov runs.

use rflash_core::registry::{self, EosSpec, SetupSpec};
use rflash_core::{RuntimeParams, Simulation};
use rflash_hugepages::Policy;
use rflash_perfmon::{Measures, RatioReport};
use serde::{Deserialize, Serialize};

/// How large to run an experiment.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RunScale {
    pub steps: u64,
    pub max_refine: u8,
    pub max_blocks: usize,
    /// Use the coarse Helmholtz table (tests/smoke only).
    pub coarse_table: bool,
}

impl RunScale {
    /// Fast default: minutes on one laptop core, working set ≫ TLB reach.
    pub fn quick() -> RunScale {
        RunScale {
            steps: 10,
            max_refine: 2,
            max_blocks: 1024,
            coarse_table: false,
        }
    }

    /// The paper's step counts (50 EOS / 200 Hydro) and deeper refinement.
    pub fn paper() -> RunScale {
        RunScale {
            steps: 0, // filled per experiment
            max_refine: 3,
            max_blocks: 4096,
            coarse_table: false,
        }
    }

    /// Tiny smoke scale for integration tests.
    pub fn smoke() -> RunScale {
        RunScale {
            steps: 2,
            max_refine: 1,
            max_blocks: 256,
            coarse_table: true,
        }
    }

    /// Parse `--paper` / `--smoke` from argv (default quick).
    pub fn from_args(args: &[String]) -> RunScale {
        if args.iter().any(|a| a == "--paper") {
            RunScale::paper()
        } else if args.iter().any(|a| a == "--smoke") {
            RunScale::smoke()
        } else {
            RunScale::quick()
        }
    }
}

/// One experiment result for one policy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PolicyRun {
    pub policy: String,
    pub measures: Measures,
    /// smaps-verified backing of the unk container.
    pub unk_backing: String,
    pub unk_verified_huge: bool,
    /// The paper's §III protocol: /proc/meminfo sampled during the run.
    #[serde(default)]
    pub meminfo_watch: String,
    #[serde(default)]
    pub meminfo_saw_huge: bool,
    pub leaf_blocks: usize,
    pub unk_bytes: usize,
    pub hw_counters: bool,
}

/// A full with/without-HP experiment (one paper table).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Experiment {
    pub name: String,
    pub scale: RunScale,
    pub runs: Vec<PolicyRun>,
}

impl Experiment {
    /// Build the paper-style two-column report from the `none` and the
    /// first verified-huge run (preferring `thp`).
    pub fn ratio_report(&self) -> Option<RatioReport> {
        let without = self.runs.iter().find(|r| r.policy == "none")?;
        let with = self
            .runs
            .iter()
            .find(|r| r.policy != "none" && r.unk_verified_huge)
            .or_else(|| self.runs.iter().find(|r| r.policy != "none"))?;
        Some(RatioReport {
            name: self.name.clone(),
            without_hp: without.measures,
            with_hp: with.measures,
        })
    }

    /// Write the experiment as pretty JSON.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string_pretty(self).unwrap())
    }

    /// Read an experiment JSON written by [`Experiment::save`].
    pub fn load(path: &str) -> std::io::Result<Experiment> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text).map_err(|e| std::io::Error::other(e.to_string()))
    }
}

/// A registered paper problem at the experiment's refinement, pool size
/// and (Helmholtz problems only) table resolution.
fn scaled_spec(name: &str, scale: RunScale) -> SetupSpec {
    let mut spec = registry::load(name).expect("built-in scenario");
    spec.mesh.max_refine = scale.max_refine;
    spec.mesh.max_blocks = scale.max_blocks;
    if let EosSpec::Helmholtz { .. } = spec.eos {
        spec.eos = EosSpec::Helmholtz {
            coarse_table: scale.coarse_table,
        };
    }
    spec
}

/// Build `spec` under `policy` with the experiments' sampled
/// instrumentation.
fn build(spec: &SetupSpec, policy: Policy) -> Simulation {
    let params = RuntimeParams {
        policy,
        // Sampled instrumentation keeps overhead similar across policies.
        pattern_every: 4,
        gather_every: 4,
        ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
    };
    spec.build(params).expect("committed spec builds")
}

fn policy_run(
    sim: &Simulation,
    policy: Policy,
    measures: Measures,
    watch: rflash_hugepages::WatchSummary,
) -> PolicyRun {
    let backing = sim.domain.unk.backing_report();
    PolicyRun {
        policy: policy.to_string(),
        measures,
        unk_backing: backing.to_string(),
        unk_verified_huge: backing.verified_huge(),
        meminfo_watch: watch.to_string(),
        meminfo_saw_huge: watch.saw_huge_pages(),
        leaf_blocks: sim.domain.tree.leaves().len(),
        unk_bytes: sim.domain.unk.bytes(),
        hw_counters: measures.hw_backend,
    }
}

/// The paper's policy sweep. On hosts where THP silently fails to engage
/// (this includes some virtualized kernels — and, in spirit, the paper's
/// GNU/Cray toolchains), the hugetlbfs run provides the verified-huge
/// column; `prepare_hugetlb_pool` mirrors the paper's node configuration.
pub fn default_policies() -> Vec<Policy> {
    vec![
        Policy::None,
        Policy::Thp,
        Policy::HugeTlbFs(rflash_hugepages::PageSize::Huge2M),
    ]
}

/// Best-effort pool sizing for a run needing ~`bytes` of huge allocations
/// (the paper's `hugeadm --pool-pages-min` node modification). Returns a
/// human-readable outcome for the report.
pub fn prepare_hugetlb_pool(bytes: usize) -> String {
    match rflash_hugepages::probe::ensure_pool_for(bytes) {
        Ok(pages) => format!("2M pool: {pages} pages"),
        Err(e) => format!("2M pool unavailable ({e}); hugetlbfs runs will fall back"),
    }
}

/// E1: the paper's "EOS" test — 2-d supernova deflagration, EOS region
/// instrumented (50 steps at paper scale).
pub fn run_eos_experiment(policies: &[Policy], scale: RunScale) -> Experiment {
    let steps = if scale.steps == 0 { 50 } else { scale.steps };
    let spec = scaled_spec("supernova", scale);
    let mut runs = Vec::new();
    for &policy in policies {
        let mut sim = build(&spec, policy);
        // §III protocol: watch /proc/meminfo while the instrumented code runs.
        let watch = rflash_hugepages::MemInfoWatch::start(std::time::Duration::from_millis(100));
        sim.evolve(steps);
        let watch = watch.stop();
        let measures = sim.eos_measures();
        runs.push(policy_run(&sim, policy, measures, watch));
    }
    Experiment {
        name: "EOS".into(),
        scale: RunScale { steps, ..scale },
        runs,
    }
}

/// E2: the paper's "3-d Hydro" test — Sedov explosion, hydro region
/// instrumented (200 steps at paper scale).
pub fn run_hydro_experiment(policies: &[Policy], scale: RunScale) -> Experiment {
    let steps = if scale.steps == 0 { 200 } else { scale.steps };
    let spec = scaled_spec("sedov", scale);
    let mut runs = Vec::new();
    for &policy in policies {
        let mut sim = build(&spec, policy);
        // §III protocol: watch /proc/meminfo while the instrumented code runs.
        let watch = rflash_hugepages::MemInfoWatch::start(std::time::Duration::from_millis(100));
        sim.evolve(steps);
        let watch = watch.stop();
        let measures = sim.hydro_measures();
        runs.push(policy_run(&sim, policy, measures, watch));
    }
    Experiment {
        name: "3-d Hydro".into(),
        scale: RunScale { steps, ..scale },
        runs,
    }
}

/// Render Figure 1's data: the per-measure ratios for both experiments.
pub fn figure1_text(eos: &RatioReport, hydro: &RatioReport) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 1: ratios of performance measures, with HPs / without HPs\n\
         (paper: all near 1 except DTLB misses at 0.047 [EOS] / 0.324 [Hydro])\n\n",
    );
    let eos_r = eos.ratios();
    let hyd_r = hydro.ratios();
    out.push_str(&format!(
        "{:<30} {:>10} {:>10}\n",
        "measure", "EOS", "3-d Hydro"
    ));
    for (i, label) in Measures::ROW_LABELS.iter().enumerate() {
        out.push_str(&format!(
            "{:<30} {:>10.3} {:>10.3}  ",
            label, eos_r[i], hyd_r[i]
        ));
        // ASCII bar chart, 1.0 == 40 columns.
        let bar = |v: f64| "#".repeat((v.clamp(0.0, 1.5) * 40.0).round() as usize);
        out.push_str(&format!(
            "|{}\n{:<52} |{}\n",
            bar(eos_r[i]),
            "",
            bar(hyd_r[i])
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_eos_experiment_end_to_end() {
        let exp = run_eos_experiment(&[Policy::None, Policy::Thp], RunScale::smoke());
        assert_eq!(exp.runs.len(), 2);
        let report = exp.ratio_report().expect("both policies present");
        // The with-HP run must not have *more* modeled misses.
        assert!(
            report.with_hp.dtlb_misses <= report.without_hp.dtlb_misses,
            "with={} without={}",
            report.with_hp.dtlb_misses,
            report.without_hp.dtlb_misses
        );
        assert!(report.without_hp.time_s > 0.0);
        let text = report.to_string();
        assert!(text.contains("EOS"));
    }

    #[test]
    fn experiment_json_round_trip() {
        let exp = run_eos_experiment(&[Policy::None], RunScale::smoke());
        let path = std::env::temp_dir().join(format!("rflash-exp-{}.json", std::process::id()));
        exp.save(path.to_str().unwrap()).unwrap();
        let back = Experiment::load(path.to_str().unwrap()).unwrap();
        assert_eq!(back.name, "EOS");
        assert_eq!(back.runs.len(), 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn scale_from_args() {
        let s = RunScale::from_args(&["--paper".to_string()]);
        assert_eq!(s.steps, 0);
        let s = RunScale::from_args(&[]);
        assert_eq!(s.steps, 10);
        let s = RunScale::from_args(&["--smoke".to_string()]);
        assert!(s.coarse_table);
    }
}

#[cfg(test)]
mod report_selection_tests {
    use super::*;

    fn run(policy: &str, verified: bool, dtlb: f64) -> PolicyRun {
        PolicyRun {
            policy: policy.into(),
            measures: Measures {
                cycles: 1e9,
                time_s: 1.0,
                vec_ops_per_cycle: 0.1,
                mem_gb_per_s: 1.0,
                dtlb_miss_per_s: dtlb,
                total_time_s: 1.0,
                dtlb_misses: dtlb as u64,
                hw_backend: false,
                hw_dtlb_miss_per_s: None,
                stall_fraction: 0.0,
            },
            unk_backing: "test".into(),
            unk_verified_huge: verified,
            meminfo_watch: String::new(),
            meminfo_saw_huge: verified,
            leaf_blocks: 1,
            unk_bytes: 1,
            hw_counters: false,
        }
    }

    #[test]
    fn ratio_report_prefers_the_verified_huge_run() {
        // The GNU/Cray lesson: a THP run that did NOT verify must not be
        // presented as the "with huge pages" column when a verified
        // hugetlbfs run exists.
        let exp = Experiment {
            name: "EOS".into(),
            scale: RunScale::smoke(),
            runs: vec![
                run("none", false, 1000.0),
                run("thp", false, 990.0),        // silently not huge
                run("hugetlbfs:2M", true, 50.0), // verified
            ],
        };
        let report = exp.ratio_report().unwrap();
        assert_eq!(report.with_hp.dtlb_miss_per_s, 50.0);
        assert!((report.dtlb_ratio() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn ratio_report_falls_back_to_unverified_when_nothing_verifies() {
        let exp = Experiment {
            name: "EOS".into(),
            scale: RunScale::smoke(),
            runs: vec![run("none", false, 1000.0), run("thp", false, 1000.0)],
        };
        let report = exp.ratio_report().unwrap();
        assert_eq!(report.with_hp.dtlb_miss_per_s, 1000.0);
        assert!((report.dtlb_ratio() - 1.0).abs() < 1e-12, "honest: no gain");
    }

    #[test]
    fn ratio_report_requires_a_baseline() {
        let exp = Experiment {
            name: "EOS".into(),
            scale: RunScale::smoke(),
            runs: vec![run("thp", true, 10.0)],
        };
        assert!(exp.ratio_report().is_none());
    }
}

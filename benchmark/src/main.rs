//! `perf_ledger` — the repo's benchmark (see ../README.md).
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one pass of one workload;
//!                                                           last stdout line is the result JSON
//! run.sh [--seed N] [--seconds S] [--quick] [--check-repeat]  the whole ledger: every workload,
//!                                                           untraced then traced
//! ```
//!
//! Every sample is this binary re-executed with `--child`, so page backing
//! and first touch are paid per sample, the way a user pays them.

mod host;
mod probes;
mod sample;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use sample::{SampleArgs, SampleReport, TracedArgs};
use serde_json::Value;
use stats::{median, percentile, quartiles};
use workload::{Workload, WORKLOADS};

/// End-to-end metrics: (name, unit, higher is better, bound). The bound is
/// the share of the baseline median by which the metric may worsen before a
/// change counts as a regression; BENCHMARK.json carries the same numbers
/// (a test keeps the two in step).
const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("setup_s", "s", false, 0.25),
    ("zone_updates_per_s", "zones/s", true, 0.25),
    ("wall_s", "s", false, 0.25),
    ("peak_rss_mb", "MiB", false, 0.05),
];

/// Per-layer counts that must repeat exactly between two runs of one seed.
/// (The model DTLB counts do not: the modelled TLB is set-associative on
/// absolute page numbers, which ASLR moves from run to run.)
const EXACT_COUNTS: [&str; 1] = ["eos.newton_iters_per_lane"];

const DEFAULT_SEED: u64 = 20220906;
const DEFAULT_SECONDS: f64 = 20.0;
/// Timed samples per untraced pass, at least (after one discarded warm-up).
const MIN_SAMPLES: usize = 5;
/// Step replays per traced pass: 3 guardcell fills each in 3-d, 2 in 2-d.
const PROBE_REPS: usize = 10;

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perf_ledger [--workload {}] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                  [--quick] [--check-repeat] [--out-dir DIR]",
        names.join("|")
    )
}

/// Flag → value map over `--flag value` pairs; `switches` take no value.
fn parse_flags(args: &[String], switches: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument `{flag}`\n{}", usage()));
        }
        let value = if switches.contains(&flag.as_str()) {
            String::new()
        } else {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?
        };
        out.push((flag.clone(), value));
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        check_repeat: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    for (flag, value) in parse_flags(args, &["--quick", "--check-repeat"])? {
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`\n{}", usage()))?,
                );
            }
            "--seed" => cli.seed = number(&flag, &value)?,
            "--seconds" => cli.seconds = number(&flag, &value)?,
            "--trace" => cli.trace = number::<u8>(&flag, &value)? != 0,
            "--quick" => cli.quick = true,
            "--check-repeat" => cli.check_repeat = true,
            "--out-dir" => cli.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`\n{}", usage())),
        }
    }
    Ok(cli)
}

/// The child side of [`spawn_sample`].
fn child_main(args: &[String], entry: Instant) -> Result<(), String> {
    let mut workload = None;
    let (mut seed, mut steps, mut checkpoint_every, mut probe_reps) = (0, 0, 0, 0);
    let (mut spec_path, mut scratch, mut trace_out) = (None, None, None);
    let (mut ref_step_ms, mut ref_step_p90_ms) = (None, 0.0);
    for (flag, value) in parse_flags(args, &[])? {
        match flag.as_str() {
            "--workload" => workload = Workload::by_name(&value),
            "--seed" => seed = number(&flag, &value)?,
            "--spec" => spec_path = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--steps" => steps = number(&flag, &value)?,
            "--checkpoint-every" => checkpoint_every = number(&flag, &value)?,
            "--ref-step-ms" => ref_step_ms = Some(number(&flag, &value)?),
            "--ref-step-p90-ms" => ref_step_p90_ms = number(&flag, &value)?,
            "--probe-reps" => probe_reps = number(&flag, &value)?,
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("child: unknown flag `{flag}`")),
        }
    }
    let traced = match (ref_step_ms, trace_out) {
        (Some(ref_step_ms), Some(trace_out)) => Some(TracedArgs {
            ref_step_ms,
            ref_step_p90_ms,
            probe_reps,
            trace_out,
        }),
        _ => None,
    };
    let args = SampleArgs {
        workload: workload.ok_or("child: --workload missing or unknown")?,
        seed,
        spec_path: spec_path.ok_or("child: --spec missing")?,
        scratch: scratch.ok_or("child: --scratch missing")?,
        steps,
        checkpoint_every,
        traced,
    };
    let report = sample::run(&args, entry)?;
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// One workload's fixed inputs: the run's options and the generated spec.
struct PassCtx<'a> {
    w: &'static Workload,
    cli: &'a Cli,
    spec_path: PathBuf,
}

/// Run one sample in a fresh child process and collect its report. The
/// child gets a private scratch directory, also its `TMPDIR` (the library
/// caches the Helmholtz table there), so every sample builds the table and
/// nothing is written outside the checkout.
fn spawn_sample(
    ctx: &PassCtx,
    index: usize,
    traced: Option<(f64, f64)>,
) -> Result<SampleReport, String> {
    let out_dir = &ctx.cli.out_dir;
    let scratch = out_dir.join(format!("scratch.{}.{index}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let (steps, checkpoint_every) = ctx.w.budget(ctx.cli.quick);
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", ctx.w.name])
        .args(["--seed", &ctx.cli.seed.to_string()])
        .arg("--spec")
        .arg(&ctx.spec_path)
        .arg("--scratch")
        .arg(&scratch)
        .args(["--steps", &steps.to_string()])
        .args(["--checkpoint-every", &checkpoint_every.to_string()])
        .env("TMPDIR", &scratch)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some((p50, p90)) = traced {
        let reps = if ctx.cli.quick { 2 } else { PROBE_REPS };
        cmd.args(["--ref-step-ms", &format!("{p50:?}")])
            .args(["--ref-step-p90-ms", &format!("{p90:?}")])
            .args(["--probe-reps", &reps.to_string()])
            .arg("--trace-out")
            .arg(out_dir.join(format!("trace.{}.json", ctx.w.name)));
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("spawn sample: {e}"));
    let _ = std::fs::remove_dir_all(&scratch);
    let output = output?;
    if !output.status.success() {
        return Err(format!("sample exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("sample printed nothing")?;
    serde_json::from_str(last).map_err(|e| format!("sample report: {e}"))
}

/// One reported metric: the run's value plus, for sampled metrics, the
/// quartiles and the count behind the median.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    spread: Option<(f64, f64, usize)>,
}

/// The outcome of one pass (untraced or traced) of one workload.
struct Pass {
    workload: &'static str,
    traced: bool,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: String,
    step_ms: Vec<f64>,
    leaves: (u64, u64),
}

impl Pass {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// Fold one sample's outcome into the failure accounting; returns the
    /// report when the sample produced one.
    fn account(
        &mut self,
        label: &str,
        outcome: Result<SampleReport, String>,
    ) -> Option<SampleReport> {
        self.attempted += 1;
        match outcome {
            Ok(report) => {
                self.attempted += report.step_ms.len() as u64;
                self.failed += report.steps_failed;
                if self.digest.is_empty() {
                    self.digest = report.digest.clone();
                }
                let mut failures = report.failures.clone();
                if report.digest != self.digest {
                    failures.push(format!("digest {} != {}", report.digest, self.digest));
                }
                if !failures.is_empty() {
                    self.failed += 1;
                }
                self.failures
                    .extend(failures.iter().map(|f| format!("{label}: {f}")));
                Some(report)
            }
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{label}: {e}"));
                None
            }
        }
    }
}

fn run_pass(ctx: &PassCtx, traced: bool) -> Pass {
    let mut pass = Pass {
        workload: ctx.w.name,
        traced,
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        digest: String::new(),
        step_ms: Vec::new(),
        leaves: (0, 0),
    };
    // Warm-up (untraced pass) or reference (traced pass): an untraced sample
    // whose digest every later sample must reproduce.
    let Some(first) = pass.account("sample 0", spawn_sample(ctx, 0, None)) else {
        return pass;
    };
    pass.leaves = (first.leaves_first, first.leaves_last);

    if traced {
        let (p50, p90) = (median(&first.step_ms), percentile(&first.step_ms, 90.0));
        pass.step_ms = first.step_ms;
        if let Some(report) = pass.account("traced sample", spawn_sample(ctx, 1, Some((p50, p90))))
        {
            for ((name, unit), (got, value)) in probes::LAYERS.iter().zip(&report.layers) {
                assert_eq!(name, got, "layer metrics out of order");
                pass.metrics.push(Metric {
                    name,
                    unit,
                    value: *value,
                    spread: None,
                });
            }
        }
        return pass;
    }

    // `--quick`: two samples and no timed window.
    let (min_samples, seconds) = if ctx.cli.quick {
        (2, 0.0)
    } else {
        (MIN_SAMPLES, ctx.cli.seconds)
    };
    let mut timed: Vec<SampleReport> = Vec::new();
    let window = Instant::now();
    while timed.len() < min_samples || window.elapsed().as_secs_f64() < seconds {
        let index = timed.len() + 1;
        match pass.account(&format!("sample {index}"), spawn_sample(ctx, index, None)) {
            Some(report) => timed.push(report),
            None => break,
        }
    }
    // Per-sample columns, and the run's value of each metric. Set-up time
    // and peak memory are medians over the samples. Throughput and wall time
    // are pooled (total zones ÷ total loop time; mean wall): this host's
    // noise is a regime that lasts 10–30 s and shifts every sample in it by
    // ±10 %, so a median flips between regimes from run to run while a
    // pooled value moves with the share of time spent in each — half the
    // run-to-run spread over 120 consecutive samples (README).
    let n = timed.len() as f64;
    let zones: f64 = timed.iter().map(|r| r.zone_updates as f64).sum();
    let loop_s: f64 = timed.iter().map(|r| r.loop_s).sum();
    let columns: [Vec<f64>; 4] = [
        timed.iter().map(|r| r.setup_s).collect(),
        timed
            .iter()
            .map(|r| r.zone_updates as f64 / r.loop_s)
            .collect(),
        timed.iter().map(|r| r.wall_s).collect(),
        timed.iter().map(|r| r.peak_rss_mb).collect(),
    ];
    let values = [
        median(&columns[0]),
        zones / loop_s,
        columns[2].iter().sum::<f64>() / n,
        median(&columns[3]),
    ];
    for (((name, unit, _, _), column), value) in END_TO_END.iter().zip(&columns).zip(values) {
        let (q1, q3) = quartiles(column);
        pass.metrics.push(Metric {
            name,
            unit,
            value,
            spread: Some((q1, q3, column.len())),
        });
    }
    pass.step_ms = timed
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    pass
}

fn print_pass(pass: &Pass) {
    println!(
        "== {} ({}) ==",
        pass.workload,
        if pass.traced {
            "traced pass"
        } else {
            "untraced pass"
        }
    );
    for m in &pass.metrics {
        match m.spread {
            Some((q1, q3, n)) => println!(
                "  {:34} {:>14.6} {:8} q1 {:.6} q3 {:.6} n {n}",
                m.name, m.value, m.unit, q1, q3
            ),
            None => println!("  {:34} {:>14.6} {:8}", m.name, m.value, m.unit),
        }
    }
    println!(
        "  failed_ops/attempted_ops {}/{}   step_ms p50 {:.3} p90 {:.3} (n {})",
        pass.failed,
        pass.attempted,
        median(&pass.step_ms),
        percentile(&pass.step_ms, 90.0),
        pass.step_ms.len()
    );
    println!(
        "  digest {}   leaves {} -> {}",
        pass.digest, pass.leaves.0, pass.leaves.1
    );
    for f in &pass.failures {
        println!("  FAILED {f}");
    }
}

fn pass_json(pass: &Pass) -> Value {
    let metrics = pass
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(pass.failed == 0)),
        ("attempted".into(), Value::U64(pass.attempted)),
        ("failed".into(), Value::U64(pass.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

fn pass_ctx<'a>(cli: &'a Cli, w: &'static Workload) -> Result<PassCtx<'a>, String> {
    std::fs::create_dir_all(&cli.out_dir).map_err(|e| format!("{}: {e}", cli.out_dir.display()))?;
    let spec_path = cli
        .out_dir
        .join(format!("spec.{}.{}.ron", w.name, cli.seed));
    std::fs::write(&spec_path, w.generate(cli.seed))
        .map_err(|e| format!("{}: {e}", spec_path.display()))?;
    Ok(PassCtx { w, cli, spec_path })
}

/// The workload-discrimination check: each layer's share must be large on
/// the workload built to stress it and small on the one built to bypass it.
fn discrimination(traced: &[&Pass]) -> Vec<String> {
    let share = |workload: &str, metric: &str| {
        traced
            .iter()
            .find(|p| p.workload == workload)
            .map_or(f64::NAN, |p| p.metric(metric))
    };
    let mut failures = Vec::new();
    let mut check = |what: String, ok: bool| {
        println!("  {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures.push(what);
        }
    };
    let (g_sedov, g_sn) = (
        share("sedov3d", "mesh.guardcell.share"),
        share("supernova2d", "mesh.guardcell.share"),
    );
    check(
        format!("mesh.guardcell.share sedov3d {g_sedov:.3} >= 3 x supernova2d {g_sn:.3}"),
        g_sedov >= 3.0 * g_sn,
    );
    let (e_sn, e_sedov) = (
        share("supernova2d", "eos.share"),
        share("sedov3d", "eos.share"),
    );
    check(
        format!("eos.share supernova2d {e_sn:.3} >= 3 x sedov3d {e_sedov:.3}"),
        e_sn >= 3.0 * e_sedov,
    );
    for p in traced {
        let c = p.metric("core.checkpoint.share");
        let expected = Workload::by_name(p.workload).is_some_and(|w| w.checkpoint_every > 0);
        check(
            format!(
                "core.checkpoint.share {} {c:.4} ({})",
                p.workload,
                if expected { "> 0" } else { "= 0" }
            ),
            (c > 0.0) == expected,
        );
        println!(
            "       core.step.attributed_fraction {} {:.3}",
            p.workload,
            p.metric("core.step.attributed_fraction")
        );
    }
    failures
}

/// One full set: every workload, untraced then traced.
fn run_set(cli: &Cli) -> Result<Vec<Pass>, String> {
    let mut passes = Vec::new();
    for w in &WORKLOADS {
        let ctx = pass_ctx(cli, w)?;
        for traced in [false, true] {
            let pass = run_pass(&ctx, traced);
            print_pass(&pass);
            passes.push(pass);
        }
    }
    Ok(passes)
}

/// `--check-repeat`: two sets of the same code must agree exactly on
/// failures, digests and exact counts, and — unless `--quick` made the runs
/// too short to hold them — within every end-to-end bound.
fn compare_sets(a: &[Pass], b: &[Pass], bounds_on: bool) -> Vec<String> {
    let mut out = Vec::new();
    for (x, y) in a.iter().zip(b) {
        if x.failed != y.failed || x.digest != y.digest {
            out.push(format!(
                "{}: failures or digest differ between sets",
                x.workload
            ));
        }
        if x.traced {
            for name in EXACT_COUNTS {
                if x.metric(name) != y.metric(name) {
                    out.push(format!(
                        "{}: {name} {} vs {}",
                        x.workload,
                        x.metric(name),
                        y.metric(name)
                    ));
                }
            }
            continue;
        }
        for (name, _, higher_better, bound) in END_TO_END {
            let (first, second) = (x.metric(name), y.metric(name));
            let worse = if higher_better {
                (first - second) / first
            } else {
                (second - first) / first
            };
            println!(
                "  {:14} {:20} {first:>14.6} -> {second:>14.6}  ({:+.2} % worse, bound {:.0} %)",
                x.workload,
                name,
                worse * 100.0,
                bound * 100.0
            );
            // Either set may be the slower one: the repeat bound is two-sided.
            if bounds_on && (worse.is_nan() || worse.abs() > bound) {
                out.push(format!(
                    "{}: {name} moved {:.1} %",
                    x.workload,
                    worse * 100.0
                ));
            }
        }
    }
    out
}

fn ledger_main(cli: &Cli) -> Result<bool, String> {
    let repo = cli.out_dir.join("../..");
    let fingerprint = host::fingerprint(&repo, cli.seed);
    println!(
        "host {}",
        serde_json::to_string(&fingerprint).map_err(|e| e.to_string())?
    );
    let set = run_set(cli)?;
    let mut failures: Vec<String> = set.iter().flat_map(|p| p.failures.clone()).collect();
    println!("== workload discrimination ==");
    let traced: Vec<&Pass> = set.iter().filter(|p| p.traced).collect();
    failures.extend(discrimination(&traced));
    if cli.check_repeat {
        println!("== second set (--check-repeat) ==");
        let again = run_set(cli)?;
        failures.extend(again.iter().flat_map(|p| p.failures.clone()));
        println!("== repeatability ==");
        failures.extend(compare_sets(&set, &again, !cli.quick));
    }
    let ledger = Value::Object(vec![
        ("host".into(), fingerprint),
        (
            "passes".into(),
            Value::Array(
                set.iter()
                    .map(|p| {
                        Value::Object(vec![
                            ("workload".into(), Value::Str(p.workload.into())),
                            ("traced".into(), Value::Bool(p.traced)),
                            ("digest".into(), Value::Str(p.digest.clone())),
                            ("result".into(), pass_json(p)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = cli.out_dir.join("ledger.json");
    let text = serde_json::to_string_pretty(&ledger).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("ledger written to {}", path.display());
    for f in &failures {
        println!("FAILED {f}");
    }
    Ok(failures.is_empty())
}

fn main() -> ExitCode {
    let entry = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().is_some_and(|a| a == "--child") {
        child_main(&args[1..], entry).map(|()| true)
    } else {
        parse_cli(&args).and_then(|cli| match cli.workload {
            Some(w) => {
                let pass = run_pass(&pass_ctx(&cli, w)?, cli.trace);
                print_pass(&pass);
                println!(
                    "{}",
                    serde_json::to_string(&pass_json(&pass)).map_err(|e| e.to_string())?
                );
                Ok(pass.failed == 0)
            }
            None => ledger_main(&cli),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("perf_ledger: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &Value) -> Vec<(String, String)> {
        let Value::Array(items) = list else {
            panic!("expected an array");
        };
        let text = |item: &Value, key: &str| match item.get(key) {
            Some(Value::Str(s)) => s.clone(),
            _ => String::new(),
        };
        items
            .iter()
            .map(|item| (text(item, "name"), text(item, "unit")))
            .collect()
    }

    /// BENCHMARK.json is the contract a reviewer reads; the tables in this
    /// crate are what runs. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();

        let workloads: Vec<String> = names(doc.get("workloads").unwrap())
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);

        let layers = names(doc.get("per_layer").unwrap());
        let ours: Vec<(String, String)> = probes::LAYERS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, ours);

        let Some(Value::Array(end_to_end)) = doc.get("end_to_end") else {
            panic!("end_to_end missing");
        };
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (item, (name, unit, higher_better, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(item.get("name"), Some(&Value::Str(name.into())));
            assert_eq!(item.get("unit"), Some(&Value::Str(unit.into())));
            let better = if higher_better { "higher" } else { "lower" };
            assert_eq!(item.get("better"), Some(&Value::Str(better.into())));
            assert_eq!(item.get("bound"), Some(&Value::F64(bound)));
        }
        assert_eq!(
            doc.get("run_seconds"),
            Some(&Value::U64(DEFAULT_SECONDS as u64))
        );
    }

    #[test]
    fn cli_rejects_unknown_workloads_and_flags() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_cli(&args(&["--workload", "nope"])).is_err());
        assert!(parse_cli(&args(&["--frobnicate"])).is_err());
        let cli = parse_cli(&args(&[
            "--workload",
            "sedov3d.thp",
            "--seed",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((cli.seed, cli.trace), (3, true));
        assert_eq!(cli.workload.map(|w| w.name), Some("sedov3d.thp"));
    }
}

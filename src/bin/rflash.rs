//! The `rflash` scenario launcher.
//!
//! A thin, dependency-free front door over the declarative scenario
//! registry (`rflash::core::registry`, DESIGN.md §15):
//!
//! ```text
//! rflash list-setups
//! rflash describe <name> [--ron]
//! rflash run-setup <name> [--full] [--steps N] [--nranks N]
//!                         [--checkpoint-dir DIR] [--checkpoint-every N]
//! ```
//!
//! `run-setup` defaults to smoke scale — the exact configuration the golden
//! corpus fingerprints — and prints the state digest so a run can be checked
//! against `golden/<name>.ron` by eye. `--full` launches the paper-scale
//! problem instead. The rank count picks the step path: the serial loop at
//! one rank, the task graph over the rank pool at more; the header names
//! the one that runs. `unk` is backed under `RFLASH_HPAGE_TYPE`
//! (`none|thp|hugetlbfs[:SIZE]`, `thp` when unset); the `built:` and `exit:`
//! lines report what `unk` reserves against what the kernel has actually
//! backed (smaps `Rss`, huge-backed bytes), and under a huge-page policy a
//! `/proc/meminfo` watch runs beside the step loop the way the paper's §III
//! protocol does. The digest does not depend on the backing.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rflash::core::registry::{self, SetupSpec, StateDigest};
use rflash::core::{
    run_fleet, worker_main, CheckpointSeries, FleetConfig, Simulation, StepScheduler, WorkerArgs,
};
use rflash::eos::RowsBuilt;
use rflash::hugepages::{MemInfoWatch, Policy, POLICY_ENV_VAR};
use rflash::hydro::SweepEngine;
use rflash::mesh::GuardFillStats;

const USAGE: &str = "usage:
  rflash list-setups
  rflash describe <name> [--ron]
  rflash run-setup <name> [--full] [--steps N] [--nranks N]
                          [--checkpoint-dir DIR] [--checkpoint-every N]
  rflash run-fleet <name> [--steps N] [--series-dir DIR]
                          [--checkpoint-every N] [--keep-last N]
                          [--fault SPEC] [--supervisor-fault SPEC]
                          [--heartbeat-ms N] [--heartbeat-timeout-ms N]
                          [--max-respawns N] [--events]

run-setup backs unk under RFLASH_HPAGE_TYPE (none|thp|hugetlbfs[:SIZE];
thp when unset) and reports reserved vs. resident vs. huge-backed MiB.
It steps on the serial loop at --nranks 1 (the default) and on the task
graph over the rank pool at more ranks.
run-fleet runs the smoke-scale scenario in one supervised worker process
and restarts it from its newest verified checkpoint when it is lost;
--fault injects RFLASH_FAULTS into the first worker only. Without
--series-dir the series goes to a temporary directory, removed after a
successful run.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list-setups") => list_setups(&args[1..]),
        Some("describe") => describe(&args[1..]),
        Some("run-setup") => run_setup(&args[1..]),
        Some("run-fleet") => run_fleet_cmd(&args[1..]),
        // Hidden: the entry point run-fleet execs for its worker process.
        Some("fleet-worker") => fleet_worker(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("rflash: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn list_setups(rest: &[String]) -> Result<(), String> {
    if !rest.is_empty() {
        return Err(format!("list-setups takes no arguments\n{USAGE}"));
    }
    let specs = registry::builtin();
    let width = specs.iter().map(|s| s.name.len()).max().unwrap_or(0);
    println!("{} registered scenarios:", specs.len());
    for spec in &specs {
        println!(
            "  {:width$}  {}-d  {:9}  {}",
            spec.name,
            spec.mesh.ndim,
            eos_label(spec),
            spec.title,
        );
    }
    Ok(())
}

fn eos_label(spec: &SetupSpec) -> &'static str {
    match spec.eos {
        registry::EosSpec::Gamma { .. } => "gamma-law",
        registry::EosSpec::Helmholtz { .. } => "helmholtz",
    }
}

fn describe(rest: &[String]) -> Result<(), String> {
    let mut name = None;
    let mut ron = false;
    for arg in rest {
        match arg.as_str() {
            "--ron" => ron = true,
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let name = name.ok_or_else(|| format!("describe needs a scenario name\n{USAGE}"))?;
    let spec = registry::load(&name).map_err(|e| e.to_string())?;
    if ron {
        // The canonical round-trippable form, suitable as a starting point
        // for a derived spec file.
        print!("{}", spec.to_value().to_ron(0));
        println!();
        return Ok(());
    }
    println!("{}: {}", spec.name, spec.title);
    println!(
        "  mesh     {}-d, {}^{} zones/block, max_refine {}, max_blocks {}",
        spec.mesh.ndim, spec.mesh.nxb, spec.mesh.ndim, spec.mesh.max_refine, spec.mesh.max_blocks
    );
    println!(
        "  domain   {:?} .. {:?}",
        spec.mesh.domain_lo, spec.mesh.domain_hi
    );
    println!("  eos      {}", eos_label(&spec));
    println!("  initial  {} primitives", spec.initial.len());
    println!(
        "  smoke    {} steps at max_refine {}",
        spec.smoke.steps,
        spec.smoke.max_refine.unwrap_or(spec.mesh.max_refine)
    );
    println!();
    println!("(full spec: rflash describe {} --ron)", spec.name);
    Ok(())
}

fn run_setup(rest: &[String]) -> Result<(), String> {
    let mut name: Option<String> = None;
    let mut full = false;
    let mut steps: Option<u64> = None;
    let mut nranks = 1usize;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every = 0u64;

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--full" => full = true,
            "--steps" => {
                steps = Some(
                    value("--steps")?
                        .parse()
                        .map_err(|e| format!("--steps: {e}"))?,
                )
            }
            "--nranks" => {
                nranks = value("--nranks")?
                    .parse()
                    .map_err(|e| format!("--nranks: {e}"))?
            }
            "--checkpoint-dir" => checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")?)),
            "--checkpoint-every" => {
                checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let name = name.ok_or_else(|| format!("run-setup needs a scenario name\n{USAGE}"))?;

    let paper = registry::load(&name).map_err(|e| e.to_string())?;
    let spec = if full { paper } else { paper.at_smoke_scale() };
    let steps = steps.unwrap_or(spec.smoke.steps);

    let policy = Policy::from_env().map_err(|e| format!("{POLICY_ENV_VAR}: {e}"))?;
    let mut params =
        registry::smoke_params(&spec, nranks, SweepEngine::Pencil, StepScheduler::TaskGraph);
    params.policy = policy;
    params.checkpoint_every = checkpoint_every;

    // The path `Simulation::use_taskgraph` takes: every scenario has leaves.
    let path = if nranks > 1 { "task graph" } else { "serial" };
    println!(
        "{}: {} ({} scale, {steps} steps, nranks={nranks}, {path}, hpage={policy})",
        spec.name,
        spec.title,
        if full { "paper" } else { "smoke" },
    );
    // The paper's §III protocol: watch /proc/meminfo while the code runs
    // to see huge pages in use when (and only when) expected.
    let watch = (policy != Policy::None).then(|| MemInfoWatch::start(Duration::from_millis(10)));
    let t_build = Instant::now();
    let mut sim = spec.build(params).map_err(|e| e.to_string())?;
    let build_s = t_build.elapsed().as_secs_f64();
    println!("  built: {} at t=0", backing_summary(&sim));
    println!("  {}", setup_line(&sim, build_s));
    let setup_fills = sim.domain.guard_fill_stats();
    let setup_rows = helm_rows(&sim);

    match checkpoint_dir {
        Some(dir) if checkpoint_every > 0 => {
            let series = CheckpointSeries::new(&dir, &name);
            let written = sim
                .evolve_checkpointed(steps, &series)
                .map_err(|e| format!("step failed: {e:?}"))?;
            println!(
                "  wrote {} checkpoints under {}",
                written.len(),
                dir.display()
            );
        }
        Some(_) => {
            return Err("--checkpoint-dir needs --checkpoint-every N (N >= 1)".into());
        }
        None => sim.evolve(steps),
    }

    let digest = StateDigest::of(&sim);
    println!("  exit:  {}", backing_summary(&sim));
    if let Some(watch) = watch {
        println!("  {}", watch.stop());
    }
    println!("  t = {:e} after {} steps", sim.time, sim.step);
    println!("  {}", phases_line(&sim, setup_fills));
    if let (Some((setup, _)), Some((exit, n_temp))) = (setup_rows, helm_rows(&sim)) {
        println!("  {}", table_line(setup, exit, n_temp));
    }
    println!("  digest {digest}");
    if !full {
        println!("  compare: golden/{name}.ron");
    }
    Ok(())
}

/// Where the `build_s` seconds of `SetupSpec::build` went, by the set-up
/// stages it timed.
fn setup_line(sim: &Simulation, build_s: f64) -> String {
    let stages: Vec<String> = registry::SETUP_STAGES
        .iter()
        .map(|label| {
            let name = label.trim_start_matches("setup.");
            format!("{name} {:.3} s", sim.timers.seconds(label))
        })
        .collect();
    format!("setup: {} of a {build_s:.3} s build", stages.join(", "))
}

/// The Helmholtz table's row counts and size, when the run has one.
fn helm_rows(sim: &Simulation) -> Option<(RowsBuilt, usize)> {
    let table = sim.eos.helmholtz()?.table();
    Some((table.rows_built(), table.config().n_temp))
}

/// Who computed the Helmholtz table's temperature rows: lookups during
/// set-up, lookups in the step loop, or the background thread.
fn table_line(setup: RowsBuilt, exit: RowsBuilt, n_temp: usize) -> String {
    format!(
        "table: {} of {n_temp} rows at set-up, {} on demand in the loop, {} by the background thread",
        setup.on_demand,
        exit.on_demand - setup.on_demand,
        exit.background,
    )
}

/// Where the step loop's time went (seconds and share of the loop per
/// unit) and what its guard fills wrote since `setup_fills` was taken —
/// exact counts, so two runs of one setup print the same fill numbers.
fn phases_line(sim: &Simulation, setup_fills: GuardFillStats) -> String {
    const MIB: f64 = (1 << 20) as f64;
    let loop_s = sim.timers.seconds("step");
    let units: Vec<String> = sim
        .phase_seconds()
        .into_iter()
        .filter(|(_, s)| *s > 0.0)
        .map(|(label, s)| format!("{label} {s:.3} s ({:.0}%)", 100.0 * s / loop_s.max(1e-12)))
        .collect();
    let fills = sim.domain.guard_fill_stats().since(setup_fills);
    format!(
        "phases: {} of a {loop_s:.3} s step loop; guard fills wrote {:.2} MiB/step \
         ({} fills, {} blocks, {} parents restricted, {} zones)",
        units.join(", "),
        fills.guard_bytes as f64 / MIB / sim.step.max(1) as f64,
        fills.fills,
        fills.blocks_filled,
        fills.parents_restricted,
        fills.guard_zones,
    )
}

/// Leaf count plus what `unk` reserves against what the kernel backs right
/// now: the pool is a sparse reservation, resident only where blocks live.
fn backing_summary(sim: &Simulation) -> String {
    const MIB: f64 = (1 << 20) as f64;
    let backing = sim.domain.unk.backing_report();
    format!(
        "{} leaf blocks, unk {:.1} MiB reserved / {:.1} MiB resident / {:.1} MiB huge \
         under {} ({:.0}% huge-backed{})",
        sim.domain.tree.leaves().len(),
        sim.domain.unk.bytes() as f64 / MIB,
        backing.rss_bytes as f64 / MIB,
        backing.huge_bytes as f64 / MIB,
        backing.policy,
        backing.huge_fraction * 100.0,
        match &backing.fell_back {
            Some(why) => format!(", fell back: {why}"),
            None => String::new(),
        },
    )
}

fn run_fleet_cmd(rest: &[String]) -> Result<(), String> {
    let mut name: Option<String> = None;
    let mut steps: Option<u64> = None;
    let mut series_dir: Option<PathBuf> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut keep_last: Option<usize> = None;
    let mut worker_fault: Option<String> = None;
    let mut supervisor_fault: Option<String> = None;
    let mut heartbeat_ms: Option<u64> = None;
    let mut heartbeat_timeout_ms: Option<u64> = None;
    let mut max_respawns: Option<u32> = None;
    let mut show_events = false;

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--steps" => {
                steps = Some(
                    value("--steps")?
                        .parse()
                        .map_err(|e| format!("--steps: {e}"))?,
                )
            }
            "--series-dir" => series_dir = Some(PathBuf::from(value("--series-dir")?)),
            "--checkpoint-every" => {
                checkpoint_every = Some(
                    value("--checkpoint-every")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-every: {e}"))?,
                )
            }
            "--keep-last" => {
                keep_last = Some(
                    value("--keep-last")?
                        .parse()
                        .map_err(|e| format!("--keep-last: {e}"))?,
                )
            }
            "--fault" => worker_fault = Some(value("--fault")?),
            "--supervisor-fault" => supervisor_fault = Some(value("--supervisor-fault")?),
            "--heartbeat-ms" => {
                heartbeat_ms = Some(
                    value("--heartbeat-ms")?
                        .parse()
                        .map_err(|e| format!("--heartbeat-ms: {e}"))?,
                )
            }
            "--heartbeat-timeout-ms" => {
                heartbeat_timeout_ms = Some(
                    value("--heartbeat-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--heartbeat-timeout-ms: {e}"))?,
                )
            }
            "--max-respawns" => {
                max_respawns = Some(
                    value("--max-respawns")?
                        .parse()
                        .map_err(|e| format!("--max-respawns: {e}"))?,
                )
            }
            "--events" => show_events = true,
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let name = name.ok_or_else(|| format!("run-fleet needs a scenario name\n{USAGE}"))?;
    let spec = registry::load(&name).map_err(|e| e.to_string())?;
    let steps = steps.unwrap_or(spec.smoke.steps);

    let worker_bin =
        std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    // A series directory the user did not name is scratch: removed after a
    // successful run, kept (for its emergency checkpoint) after a failed one.
    let scratch_dir = series_dir.is_none();
    let series_dir = series_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("rflash-fleet-{}-{}", name, std::process::id()))
    });
    let mut cfg = FleetConfig::new(worker_bin, &name, steps, &series_dir);
    if let Some(n) = checkpoint_every {
        cfg.checkpoint_every = n;
    }
    if let Some(n) = keep_last {
        cfg.keep_last = n;
    }
    if let Some(n) = heartbeat_ms {
        cfg.heartbeat_ms = n;
    }
    if let Some(n) = heartbeat_timeout_ms {
        cfg.heartbeat_timeout_ms = n;
    }
    if let Some(n) = max_respawns {
        cfg.max_respawns = n;
    }
    cfg.worker_faults = worker_fault;
    cfg.supervisor_faults = supervisor_fault;

    println!(
        "{name}: supervised run, {steps} steps, series under {}",
        series_dir.display()
    );
    let report = match run_fleet(cfg) {
        Ok(report) => report,
        Err(e) => {
            return Err(format!("{e} (series kept under {})", series_dir.display()));
        }
    };
    let c = &report.counters;
    println!(
        "  digest {:08x} at step {} ({} rollbacks, {} respawns; {} frames / {} bytes in, \
         {} frames / {} bytes out)",
        report.digest.crc,
        report.digest.step,
        report.rollbacks,
        c.respawns,
        c.frames_rx,
        c.bytes_rx,
        c.frames_tx,
        c.bytes_tx,
    );
    if show_events {
        for ev in &report.events {
            println!("  event {ev:?}");
        }
    }
    println!("  compare: golden/{name}.ron");
    if scratch_dir {
        std::fs::remove_dir_all(&series_dir)
            .map_err(|e| format!("remove {}: {e}", series_dir.display()))?;
    }
    Ok(())
}

fn fleet_worker(rest: &[String]) -> Result<(), String> {
    let mut setup: Option<String> = None;
    let mut steps: Option<u64> = None;
    let mut checkpoint_every = 0u64;
    let mut keep_last = 0usize;
    let mut series_dir: Option<PathBuf> = None;
    let mut series_prefix = "fleet".to_string();
    let mut heartbeat_ms = 25u64;
    let mut resume: Option<PathBuf> = None;

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--setup" => setup = Some(value("--setup")?),
            "--steps" => {
                steps = Some(
                    value("--steps")?
                        .parse()
                        .map_err(|e| format!("--steps: {e}"))?,
                )
            }
            "--checkpoint-every" => {
                checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            "--keep-last" => {
                keep_last = value("--keep-last")?
                    .parse()
                    .map_err(|e| format!("--keep-last: {e}"))?
            }
            "--series-dir" => series_dir = Some(PathBuf::from(value("--series-dir")?)),
            "--series-prefix" => series_prefix = value("--series-prefix")?,
            "--heartbeat-ms" => {
                heartbeat_ms = value("--heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("--heartbeat-ms: {e}"))?
            }
            "--resume" => resume = Some(PathBuf::from(value("--resume")?)),
            other => return Err(format!("fleet-worker: unexpected argument `{other}`")),
        }
    }
    let args = WorkerArgs {
        setup: setup.ok_or("fleet-worker needs --setup")?,
        steps: steps.ok_or("fleet-worker needs --steps")?,
        checkpoint_every,
        keep_last,
        series_dir: series_dir.ok_or("fleet-worker needs --series-dir")?,
        series_prefix,
        heartbeat_ms,
        resume,
    };
    worker_main(args).map_err(|e| format!("worker {}: {e}", rest.join(" ")))
}

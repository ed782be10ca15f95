//! Exercise the step guardian end to end and *assert* its contract, for
//! CI's guardian fault-matrix job.
//!
//! The fault plan comes from `RFLASH_FAULTS` (see `rflash-hugepages`), so a
//! fresh process per (site, retry-budget) cell keeps the per-site call
//! counters deterministic. Two modes:
//!
//! * `--require-recovery` — the run must complete, with ≥ 1 recorded
//!   rollback or retry whenever a fault plan is active, and the final state
//!   must be bit-identical to a fault-free reference run (the retry ladder
//!   re-attempts transient corruption at the *same* dt, so recovery is
//!   exact, not merely plausible).
//! * `--require-abort` — the run must fail with a typed `StepError`, after
//!   writing an emergency checkpoint that verifies via `read_checkpoint`.
//!
//! Exit codes: 0 = contract held, 1 = contract violated, 2 = usage error.
//! This binary never panics on a guardian failure — panicking on the exact
//! path whose job is not to panic would be self-defeating.

use rflash_core::checkpoint::read_checkpoint;
use rflash_core::{registry, CheckpointSeries, Simulation, StepScheduler};
use rflash_hugepages::faults::FaultPlan;
use rflash_hydro::SweepEngine;

/// The 3-d Sedov problem at `max_refine` 2 on a 256-block pool, two ranks.
fn sedov_sim(retries: u32) -> Simulation {
    let mut spec = registry::load("sedov").expect("built-in scenario");
    spec.mesh.max_refine = 2;
    spec.mesh.max_blocks = 256;
    let mut params =
        registry::smoke_params(&spec, 2, SweepEngine::default(), StepScheduler::default());
    params.guardian.max_retries = retries;
    spec.build(params).expect("committed spec builds")
}

/// Bit pattern of every interior zone of every variable — the "identical
/// final state" witness.
fn state_bits(sim: &Simulation) -> Vec<u64> {
    let mut bits = Vec::new();
    for id in sim.domain.tree.leaves() {
        for v in 0..sim.domain.unk.nvar() {
            for k in sim.domain.unk.interior_k() {
                for j in sim.domain.unk.interior() {
                    for i in sim.domain.unk.interior() {
                        bits.push(sim.domain.unk.get(v, i, j, k, id.idx()).to_bits());
                    }
                }
            }
        }
    }
    bits
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "rflash-guardian-drill-{}-{tag}",
        std::process::id()
    ))
}

fn require_recovery(retries: u32, steps: u64) -> i32 {
    let faults_active = std::env::var("RFLASH_FAULTS").is_ok_and(|v| !v.trim().is_empty());
    let mut sim = sedov_sim(retries);
    for n in 0..steps {
        match sim.try_step() {
            Ok(_) => {}
            Err(e) => {
                eprintln!("FAIL: step {n} aborted where recovery was required: {e}");
                println!("{}", sim.guardian_stats);
                return 1;
            }
        }
    }
    println!("{}", sim.guardian_stats);
    let g = &sim.guardian_stats;
    if faults_active && g.rollbacks == 0 && g.retries == 0 {
        eprintln!("FAIL: fault plan active but the guardian never intervened");
        return 1;
    }
    if g.validations < steps {
        eprintln!(
            "FAIL: {} validation scans for {steps} steps — the guardian skipped steps",
            g.validations
        );
        return 1;
    }

    // Reference: identical run with the env fault plan shadowed by an
    // empty TLS plan (thread-locals take precedence over RFLASH_FAULTS).
    let reference_bits = {
        let _quiet = FaultPlan::new(0).activate();
        let mut r = sedov_sim(retries);
        for n in 0..steps {
            if let Err(e) = r.try_step() {
                eprintln!("FAIL: fault-free reference run died at step {n}: {e}");
                return 1;
            }
        }
        if !r.guardian_stats.clean() {
            eprintln!("FAIL: guardian intervened on the fault-free reference run");
            return 1;
        }
        state_bits(&r)
    };
    if state_bits(&sim) != reference_bits {
        eprintln!("FAIL: recovered state differs from the fault-free run");
        return 1;
    }
    println!(
        "OK: {steps} steps, {} rollback(s), {} retry(ies), final state bit-identical to fault-free",
        g.rollbacks, g.retries
    );
    0
}

fn require_abort(retries: u32, steps: u64) -> i32 {
    let dir = scratch_dir("abort");
    let _ = std::fs::remove_dir_all(&dir);
    let series = CheckpointSeries::new(&dir, "emergency");
    let mut sim = sedov_sim(retries);
    sim.emergency_series = Some(series);
    let mut failure = None;
    for _ in 0..steps {
        match sim.try_step() {
            Ok(_) => {}
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    println!("{}", sim.guardian_stats);
    let Some(err) = failure else {
        eprintln!("FAIL: run completed where a typed abort was required");
        let _ = std::fs::remove_dir_all(&dir);
        return 1;
    };
    println!("typed error: {err}");
    if sim.guardian_stats.aborts == 0 {
        eprintln!("FAIL: step errored but GuardianStats recorded no abort");
        let _ = std::fs::remove_dir_all(&dir);
        return 1;
    }
    let ckpt = match &err {
        rflash_core::StepError::BadDt {
            emergency_checkpoint,
            ..
        }
        | rflash_core::StepError::Unphysical {
            emergency_checkpoint,
            ..
        } => emergency_checkpoint.clone(),
        rflash_core::StepError::Checkpoint(_) => None,
    };
    let Some(path) = ckpt else {
        eprintln!("FAIL: abort carried no emergency checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        return 1;
    };
    match read_checkpoint(&path) {
        Ok(state) => {
            if state.step != sim.step {
                eprintln!(
                    "FAIL: emergency checkpoint at step {} but the simulation committed {}",
                    state.step, sim.step
                );
                let _ = std::fs::remove_dir_all(&dir);
                return 1;
            }
            println!(
                "OK: typed abort, readable emergency checkpoint of committed step {} at {}",
                state.step,
                path.display()
            );
            let _ = std::fs::remove_dir_all(&dir);
            0
        }
        Err(e) => {
            eprintln!("FAIL: emergency checkpoint unreadable: {e}");
            let _ = std::fs::remove_dir_all(&dir);
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut retries: u32 = 2;
    let mut steps: u64 = 8;
    let mut mode: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--retries" => {
                retries = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("usage: --retries <N>");
                        std::process::exit(2);
                    }
                }
            }
            "--steps" => {
                steps = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("usage: --steps <N>");
                        std::process::exit(2);
                    }
                }
            }
            "--require-recovery" => mode = Some("recovery"),
            "--require-abort" => mode = Some("abort"),
            other => {
                eprintln!(
                    "unknown argument {other}; expected --retries N, --steps N, \
                     --require-recovery, or --require-abort"
                );
                std::process::exit(2);
            }
        }
    }
    let code = match mode {
        Some("recovery") => require_recovery(retries, steps),
        Some("abort") => require_abort(retries, steps),
        _ => {
            eprintln!("pick a mode: --require-recovery or --require-abort");
            2
        }
    };
    std::process::exit(code);
}

//! Record steps/sec against simulated rank count → `BENCH_scaling.json`.
//!
//! Two workloads, matching the paper's two instrumented cases: the 2-d
//! supernova (EOS-dominated) and the 3-d Sedov (hydro-dominated), each run
//! at nranks ∈ {1, 4} over the persistent rank pool — under BOTH step
//! schedulers, the pool-wide-barrier loop and the per-block task graph.
//! Every point carries the pool's imbalance and idle-fraction counters, a
//! per-phase wall-time breakdown (guardcell / sweep / eos / dt / guardian),
//! and the graph's steal and overlap counters, so a flat curve can be told
//! apart from a skewed partition and a barrier wall from a genuine
//! compute ceiling.
//!
//! `--enforce-overlap` turns the headline claim into a hard gate: at
//! nranks = 4 the task-graph's idle fraction must sit strictly below the
//! barrier's on the same workload, or the process exits non-zero. CI runs
//! this on the smoke scale.

use std::time::Instant;

use rflash_bench::RunScale;
use rflash_core::setups::sedov::SedovSetup;
use rflash_core::setups::supernova::SupernovaSetup;
use rflash_core::{RuntimeParams, Simulation, StepScheduler};
use rflash_hugepages::Policy;
use rflash_perfmon::{idle_fraction, imbalance};
use serde::Serialize;

/// Where the step's wall time went, in seconds. Under the barrier these
/// come from the FLASH-style named timers; under the task graph the phases
/// interleave freely, so they come from the graph's per-task ledger
/// (summed across ranks — overlapping work counts once per rank).
#[derive(Serialize, Default)]
struct PhaseBreakdown {
    guardcell_s: f64,
    sweep_s: f64,
    eos_s: f64,
    dt_s: f64,
    guardian_s: f64,
}

#[derive(Serialize)]
struct ScalingPoint {
    config: String,
    scheduler: String,
    nranks: usize,
    steps: u64,
    seconds: f64,
    steps_per_sec: f64,
    /// max/mean busy time over the pool's ranks (1.0 = perfectly even).
    imbalance: f64,
    /// Fraction of pool time spent waiting — at dispatch barriers under
    /// the barrier scheduler, on empty deques under the task graph.
    idle_fraction: f64,
    /// Tasks executed by a rank other than their owner (task graph only).
    steals: u64,
    /// Fraction of exchange (restrict/fill) time during which some
    /// other rank was running compute (task graph only).
    overlap_ratio: f64,
    phases: PhaseBreakdown,
    hardware_threads: usize,
}

fn measure(
    config: &str,
    scheduler: StepScheduler,
    mut sim: Simulation,
    nranks: usize,
    steps: u64,
) -> ScalingPoint {
    // Warm the pool, the cached partition/plan, and the table caches
    // outside the timed window.
    sim.evolve(2);
    let t0 = Instant::now();
    sim.evolve(steps);
    let seconds = t0.elapsed().as_secs_f64();
    let loads = sim.rank_loads();
    let graphed = scheduler == StepScheduler::TaskGraph && nranks > 1;
    let phases = if graphed {
        let g = &sim.graph_report;
        PhaseBreakdown {
            guardcell_s: g.guardcell_ns as f64 / 1e9,
            sweep_s: g.sweep_ns as f64 / 1e9,
            eos_s: g.eos_ns as f64 / 1e9,
            dt_s: g.dt_ns as f64 / 1e9,
            guardian_s: g.guardian_ns as f64 / 1e9,
        }
    } else {
        PhaseBreakdown {
            guardcell_s: sim.timers.seconds("guardcell"),
            sweep_s: sim.timers.seconds("hydro"),
            eos_s: sim.timers.seconds("eos"),
            dt_s: sim.timers.seconds("dt"),
            guardian_s: sim.timers.seconds("guardian"),
        }
    };
    ScalingPoint {
        config: config.to_string(),
        scheduler: match scheduler {
            StepScheduler::Barrier => "barrier".into(),
            StepScheduler::TaskGraph => "task_graph".into(),
        },
        nranks,
        steps,
        seconds,
        steps_per_sec: steps as f64 / seconds.max(1e-12),
        imbalance: imbalance(&loads),
        idle_fraction: idle_fraction(&loads),
        steals: if graphed {
            sim.graph_report.total_steals()
        } else {
            0
        },
        overlap_ratio: if graphed {
            sim.graph_report.overlap_ratio()
        } else {
            0.0
        },
        phases,
        hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

fn print_point(p: &ScalingPoint) {
    println!(
        "{:<18} {:<10} nranks={}  {:.2} steps/s  imbalance {:.2}  idle {:.0}%  steals {}  overlap {:.2}",
        p.config,
        p.scheduler,
        p.nranks,
        p.steps_per_sec,
        p.imbalance,
        p.idle_fraction * 100.0,
        p.steals,
        p.overlap_ratio
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = RunScale::from_args(&args);
    let enforce = args.iter().any(|a| a == "--enforce-overlap");
    let steps = if scale.steps == 0 { 20 } else { scale.steps };

    let schedulers = [StepScheduler::Barrier, StepScheduler::TaskGraph];
    let mut points = Vec::new();
    for scheduler in schedulers {
        for nranks in [1usize, 4] {
            let setup = SupernovaSetup {
                max_refine: scale.max_refine,
                max_blocks: scale.max_blocks,
                coarse_table: scale.coarse_table,
                ..SupernovaSetup::default()
            };
            let sim = setup.build(RuntimeParams {
                policy: Policy::None,
                nranks,
                pattern_every: 0,
                gather_every: 0,
                step_scheduler: scheduler,
                ..RuntimeParams::with_mesh(setup.mesh_config())
            });
            let p = measure("supernova_2d_eos", scheduler, sim, nranks, steps);
            print_point(&p);
            points.push(p);
        }
    }

    for scheduler in schedulers {
        for nranks in [1usize, 4] {
            let setup = SedovSetup {
                ndim: 3,
                nxb: 8,
                max_refine: scale.max_refine,
                max_blocks: scale.max_blocks,
                ..SedovSetup::default()
            };
            let sim = setup.build(RuntimeParams {
                policy: Policy::None,
                nranks,
                pattern_every: 0,
                gather_every: 0,
                step_scheduler: scheduler,
                ..RuntimeParams::with_mesh(setup.mesh_config())
            });
            let p = measure("sedov_3d_hydro", scheduler, sim, nranks, steps.min(30));
            print_point(&p);
            points.push(p);
        }
    }

    let json = serde_json::to_string_pretty(&points).expect("serialize scaling points");
    std::fs::write("BENCH_scaling.json", json).expect("write BENCH_scaling.json");
    println!("-> BENCH_scaling.json");

    // The overlap gate: per workload, the task-graph's 4-rank idle
    // fraction strictly below the barrier's. Reported always; fatal only
    // under --enforce-overlap.
    let mut ok = true;
    for config in ["supernova_2d_eos", "sedov_3d_hydro"] {
        let find = |sched: &str| {
            points
                .iter()
                .find(|p| p.config == config && p.scheduler == sched && p.nranks == 4)
                .expect("both schedulers ran at nranks=4")
        };
        let barrier = find("barrier");
        let graph = find("task_graph");
        let passed = graph.idle_fraction < barrier.idle_fraction;
        println!(
            "overlap gate [{config}]: idle {:.1}% (graph) vs {:.1}% (barrier) -> {}",
            graph.idle_fraction * 100.0,
            barrier.idle_fraction * 100.0,
            if passed { "ok" } else { "FAIL" }
        );
        ok &= passed;
    }
    if enforce && !ok {
        eprintln!("--enforce-overlap: the task graph did not cut idle time below the barrier's");
        std::process::exit(1);
    }
}

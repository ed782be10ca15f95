//! Scheduler parity battery: the per-block task-graph step path must be
//! bit-identical to the pool-wide-barrier path — same leaves, same time
//! series, same interior bits — on both paper problems, across rank
//! counts, and straight through guardian-driven
//! mid-step rollbacks and dt-retry ladders.
//!
//! The graph schedules per-block work the moment its dependencies clear,
//! so blocks race each other freely; determinism rests on the canonical
//! edge order and the Morton-ordered reductions, and these tests are the
//! witness.

use std::collections::HashMap;
use std::path::PathBuf;

use rflash::core::checkpoint::read_checkpoint;
use rflash::core::{registry, CheckpointSeries, GuardianConfig, Simulation, StepScheduler};
use rflash::hugepages::{FaultKind, FaultPlan, FaultSite};
use rflash::hydro::SweepEngine;
use rflash::mesh::tree::Mark;
use rflash::mesh::BlockId;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rflash-schedpar-it-{}-{name}", std::process::id()))
}

/// Bit pattern of every interior zone of every variable, leaves in Morton
/// order, prefixed by the step counter and the time bits — the
/// "identical run" witness.
fn state_bits(sim: &Simulation) -> Vec<u64> {
    let mut bits = vec![sim.step, sim.time.to_bits()];
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

/// A registered scenario at its smoke scale — for `sedov`, 3-d at
/// `max_refine` 2 on a 512-block pool; for `supernova`, 2-d at
/// `max_refine` 1 on 256 blocks with the coarse Helmholtz table.
fn smoke(name: &str, scheduler: StepScheduler, nranks: usize) -> Simulation {
    let spec = registry::load(name).unwrap().at_smoke_scale();
    let params = registry::smoke_params(&spec, nranks, SweepEngine::Pencil, scheduler);
    spec.build(params).unwrap()
}

fn sedov3d(scheduler: StepScheduler, nranks: usize) -> Simulation {
    smoke("sedov", scheduler, nranks)
}

fn supernova2d(scheduler: StepScheduler, nranks: usize) -> Simulation {
    smoke("supernova", scheduler, nranks)
}

/// 3-d Sedov: task-graph vs barrier at every rank count. The nranks = 1
/// column also pins the documented fallback (a single rank has nothing to
/// overlap, so the graph path defers to the barrier loop).
#[test]
fn sedov_3d_taskgraph_matches_barrier_all_ranks() {
    let _quiet = FaultPlan::new(0).activate();
    for nranks in [1usize, 3, 4] {
        let mut barrier = sedov3d(StepScheduler::Barrier, nranks);
        barrier.evolve(3);
        let mut graph = sedov3d(StepScheduler::TaskGraph, nranks);
        graph.evolve(3);
        assert_eq!(
            state_bits(&barrier),
            state_bits(&graph),
            "divergence at nranks={nranks}"
        );
        if nranks > 1 {
            assert!(
                graph.graph_report.executions >= 3,
                "the graph path must actually have run at nranks={nranks}"
            );
            let tasks: u64 = graph.graph_report.per_rank.iter().map(|r| r.tasks).sum();
            assert!(tasks > 0, "ranks executed tasks");
        } else {
            assert_eq!(
                graph.graph_report.executions, 0,
                "one rank falls back to the barrier loop"
            );
        }
    }
}

/// The 2-d Kelvin–Helmholtz shear layer at its committed scale (64 leaves
/// at level 2) on 2 ranks, without the periodic regrid: the tests below
/// change the tree themselves.
fn kh2d(scheduler: StepScheduler) -> Simulation {
    let mut spec = registry::load("kelvin_helmholtz").unwrap();
    spec.budgets.regrid_every = 0;
    let params = registry::smoke_params(&spec, 2, SweepEngine::Pencil, scheduler);
    spec.build(params).unwrap()
}

/// Five steps, then a regrid with `mark` on every leaf (for a refinement,
/// only on the first leaf below `max_refine`, which leaves refinement
/// jumps), three times over — one epoch per stretch, each with steps of
/// both sweep parities.
fn kh2d_with_regrids(scheduler: StepScheduler) -> (Simulation, Vec<(u64, u64, u64)>) {
    let mut sim = kh2d(scheduler);
    let mut per_epoch = Vec::new(); // (epoch, steps, plan builds)
    for mark in [Some(Mark::Derefine), Some(Mark::Refine), None] {
        let (epoch, builds) = (sim.domain.tree.epoch(), sim.graph_report.plan_builds);
        sim.evolve(5);
        assert_eq!(sim.domain.tree.epoch(), epoch);
        per_epoch.push((epoch, 5, sim.graph_report.plan_builds - builds));
        let Some(mark) = mark else { break };
        let tree = &sim.domain.tree;
        let mut marked = tree.leaves();
        if mark == Mark::Refine {
            let max = tree.config().max_refine;
            marked.retain(|&id| tree.block(id).key.level < max);
            marked.truncate(1);
        }
        let marks: HashMap<BlockId, Mark> = marked.into_iter().map(|id| (id, mark)).collect();
        sim.domain.tree.adapt(&mut sim.domain.unk, &marks);
        assert_ne!(
            sim.domain.tree.epoch(),
            epoch,
            "{mark:?} must change the tree"
        );
    }
    (sim, per_epoch)
}

/// The step graph depends only on the tree and the sweep parity, so it is
/// built once per parity per tree epoch: twice in a run with no regrid,
/// and at most twice more for each regrid that changes the epoch. The
/// cached plans must not change a bit against the barrier loop.
#[test]
fn step_graph_is_built_once_per_parity_per_tree_epoch() {
    let _quiet = FaultPlan::new(0).activate();

    let mut graph = kh2d(StepScheduler::TaskGraph);
    let epoch = graph.domain.tree.epoch();
    graph.evolve(12);
    assert_eq!(
        graph.domain.tree.epoch(),
        epoch,
        "no regrid, no topology change"
    );
    assert_eq!(graph.graph_report.executions, 12);
    assert_eq!(
        graph.graph_report.plan_builds, 2,
        "one plan per sweep parity"
    );
    let mut barrier = kh2d(StepScheduler::Barrier);
    barrier.evolve(12);
    assert_eq!(state_bits(&barrier), state_bits(&graph));

    let (graph, per_epoch) = kh2d_with_regrids(StepScheduler::TaskGraph);
    for &(epoch, steps, builds) in &per_epoch {
        assert_eq!(
            builds, 2,
            "epoch {epoch}: {steps} steps built {builds} plans"
        );
    }
    let (barrier, _) = kh2d_with_regrids(StepScheduler::Barrier);
    assert_eq!(state_bits(&barrier), state_bits(&graph));
}

/// 2-d Helmholtz supernova (flame + gravity live, so the graph runs its
/// unfused tail): task-graph vs barrier across rank counts.
#[test]
fn supernova_2d_taskgraph_matches_barrier_all_ranks() {
    let _quiet = FaultPlan::new(0).activate();
    for nranks in [1usize, 3, 4] {
        let mut barrier = supernova2d(StepScheduler::Barrier, nranks);
        barrier.evolve(3);
        let mut graph = supernova2d(StepScheduler::TaskGraph, nranks);
        graph.evolve(3);
        assert_eq!(
            state_bits(&barrier),
            state_bits(&graph),
            "divergence at nranks={nranks}"
        );
    }
}

/// Checkpoints written under the two schedulers hold identical physics:
/// same step, same time, same domain bits. (The raw container bytes are
/// allowed to differ — the serialized params header records which
/// scheduler wrote it.)
#[test]
fn checkpoints_agree_across_schedulers() {
    let _quiet = FaultPlan::new(0).activate();
    let run = |scheduler: StepScheduler, tag: &str| {
        let dir = scratch(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let series = CheckpointSeries::new(&dir, "chk");
        let mut sim = sedov3d(scheduler, 4);
        sim.params.checkpoint_every = 2;
        sim.evolve_checkpointed(4, &series).expect("clean run");
        let (step, path) = series.scan().unwrap().pop().expect("a checkpoint landed");
        let state = read_checkpoint(&path).expect("checkpoint verifies");
        assert_eq!(state.step, step);
        let mut bits = vec![state.step, state.time.to_bits()];
        for id in state.domain.tree.leaves() {
            for v in 0..state.domain.unk.nvar() {
                for k in state.domain.unk.interior_k() {
                    for j in state.domain.unk.interior() {
                        for i in state.domain.unk.interior() {
                            bits.push(state.domain.unk.get(v, i, j, k, id.idx()).to_bits());
                        }
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        bits
    };
    assert_eq!(
        run(StepScheduler::Barrier, "barrier"),
        run(StepScheduler::TaskGraph, "graph"),
        "checkpointed physics must not depend on the scheduler"
    );
}

/// A state-corruption fault fired mid-run under the task-graph: the
/// guardian's validation (folded into the graph as per-leaf tasks) must
/// catch it, roll the whole step back across every in-flight block, and
/// retry to bits identical to a fault-free barrier run.
#[test]
fn guardian_rollback_mid_graph_recovers_bit_exactly() {
    let sim = {
        let _g = FaultPlan::new(0)
            .with(FaultSite::StepNan, FaultKind::FirstN { n: 1, errno: 22 })
            .activate();
        let mut sim = sedov3d(StepScheduler::TaskGraph, 4);
        sim.params.guardian = GuardianConfig {
            max_retries: 2,
            ..GuardianConfig::default()
        };
        for n in 0..4 {
            sim.try_step()
                .unwrap_or_else(|e| panic!("step {n} must recover: {e}"));
        }
        sim
    };
    assert!(sim.guardian_stats.violations >= 1, "the fault was seen");
    assert!(sim.guardian_stats.rollbacks >= 1, "and rolled back");
    assert!(
        sim.graph_report.executions > 4,
        "the retry re-dispatched the graph"
    );

    let _quiet = FaultPlan::new(0).activate();
    let mut clean = sedov3d(StepScheduler::Barrier, 4);
    clean.params.guardian = GuardianConfig {
        max_retries: 2,
        ..GuardianConfig::default()
    };
    clean.evolve(4);
    assert_eq!(
        state_bits(&sim),
        state_bits(&clean),
        "mid-graph rollback + retry must reproduce the fault-free barrier run"
    );
    // The witness ignores scheduler-private state, so also pin the ledger.
    assert_eq!(sim.step, clean.step);
    assert_eq!(sim.time, clean.time);
}

/// A transient zero dt under the task-graph poisons the step (no block
/// mutates state), retries down the dt ladder, and lands on the fault-free
/// barrier bits — BadDt handling is scheduler-invariant.
#[test]
fn poisoned_dt_under_taskgraph_matches_barrier_recovery() {
    let run = |scheduler: StepScheduler| {
        let _g = FaultPlan::new(0)
            .with(FaultSite::DtZero, FaultKind::FirstN { n: 1, errno: 22 })
            .activate();
        let mut sim = sedov3d(scheduler, 3);
        sim.params.guardian = GuardianConfig {
            max_retries: 2,
            ..GuardianConfig::default()
        };
        for _ in 0..3 {
            sim.try_step().expect("must recover");
        }
        assert_eq!(sim.guardian_stats.bad_dts, 1);
        assert_eq!(
            sim.guardian_stats.rollbacks, 0,
            "a poisoned step never touched state — no rollback"
        );
        sim
    };
    let graph = run(StepScheduler::TaskGraph);
    let barrier = run(StepScheduler::Barrier);
    assert_eq!(state_bits(&graph), state_bits(&barrier));
    assert_eq!(graph.guardian_stats, barrier.guardian_stats);
}

/// A fault that outlives the same-dt retry pushes the ladder down to a
/// halved dt. Both schedulers run the one retry ladder, so they reach the
/// same bits *and* record the same interventions, `dt_halvings` included.
#[test]
fn halved_retry_is_scheduler_invariant() {
    let run = |scheduler: StepScheduler| {
        let _g = FaultPlan::new(0)
            .with(FaultSite::StepNan, FaultKind::FirstN { n: 2, errno: 22 })
            .activate();
        let mut sim = sedov3d(scheduler, 3);
        sim.params.guardian = GuardianConfig {
            max_retries: 3,
            ..GuardianConfig::default()
        };
        for n in 0..3 {
            sim.try_step()
                .unwrap_or_else(|e| panic!("step {n} must recover: {e}"));
        }
        sim
    };
    let graph = run(StepScheduler::TaskGraph);
    let barrier = run(StepScheduler::Barrier);
    assert!(
        graph.graph_report.executions > 3,
        "the retries re-dispatched the graph"
    );
    assert_eq!(state_bits(&graph), state_bits(&barrier));
    assert_eq!(graph.guardian_stats, barrier.guardian_stats);
    assert_eq!(
        barrier.guardian_stats.dt_halvings, 1,
        "attempts 0 and 1 fail at the computed dt, attempt 2 runs at half"
    );
}

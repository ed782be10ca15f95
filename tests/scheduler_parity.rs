//! Scheduler parity battery: the per-block task-graph step path at k ranks
//! must be bit-identical to the serial step loop at one rank, its oracle —
//! same leaves, same time series, same interior bits — on both paper
//! problems, across rank counts, and straight through guardian-driven
//! mid-step rollbacks and dt-retry ladders.
//!
//! The graph schedules per-block work the moment its dependencies clear,
//! so blocks race each other freely; determinism rests on the canonical
//! edge order and the Morton-ordered reductions, and these tests are the
//! witness.

use std::collections::HashMap;
use std::path::PathBuf;

use rflash::core::checkpoint::read_checkpoint;
use rflash::core::{
    registry, CheckpointSeries, GuardianConfig, Simulation, StepError, StepScheduler,
};
use rflash::hugepages::{FaultKind, FaultPlan, FaultSite};
use rflash::hydro::SweepEngine;
use rflash::mesh::tree::Mark;
use rflash::mesh::{vars, BlockId};

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
/// `max_refine` 1 on 256 blocks with the coarse Helmholtz table. One rank
/// runs the serial step loop, more run the task graph.
fn smoke(name: &str, nranks: usize) -> Simulation {
    let spec = registry::load(name).unwrap().at_smoke_scale();
    let params =
        registry::smoke_params(&spec, nranks, SweepEngine::Pencil, StepScheduler::TaskGraph);
    spec.build(params).unwrap()
}

fn sedov3d(nranks: usize) -> Simulation {
    smoke("sedov", nranks)
}

fn supernova2d(nranks: usize) -> Simulation {
    smoke("supernova", nranks)
}

/// 3-d Sedov: the task graph at several rank counts against the serial
/// loop. One rank has nothing to overlap, so it never engages the graph.
#[test]
fn sedov_3d_taskgraph_matches_serial_all_ranks() {
    let _quiet = FaultPlan::new(0).activate();
    let mut serial = sedov3d(1);
    serial.evolve(3);
    assert_eq!(
        serial.graph_report.executions, 0,
        "one rank runs the serial loop"
    );
    for nranks in [2usize, 3, 4] {
        let mut graph = sedov3d(nranks);
        graph.evolve(3);
        assert_eq!(
            state_bits(&serial),
            state_bits(&graph),
            "divergence at nranks={nranks}"
        );
        assert!(
            graph.graph_report.executions >= 3,
            "the graph path must actually have run at nranks={nranks}"
        );
        let tasks: u64 = graph.graph_report.per_rank.iter().map(|r| r.tasks).sum();
        assert!(tasks > 0, "ranks executed tasks");
    }
}

/// The 2-d Kelvin–Helmholtz shear layer at its committed scale (64 leaves
/// at level 2) on `nranks` ranks, without the periodic regrid: the tests
/// below change the tree themselves.
fn kh2d(nranks: usize) -> Simulation {
    let mut spec = registry::load("kelvin_helmholtz").unwrap();
    spec.budgets.regrid_every = 0;
    let params =
        registry::smoke_params(&spec, nranks, SweepEngine::Pencil, StepScheduler::TaskGraph);
    spec.build(params).unwrap()
}

/// Five steps, then a regrid with `mark` on every leaf (for a refinement,
/// only on the first leaf below `max_refine`, which leaves refinement
/// jumps), three times over — one epoch per stretch, each with steps of
/// both sweep parities.
fn kh2d_with_regrids(nranks: usize) -> (Simulation, Vec<(u64, u64, u64)>) {
    let mut sim = kh2d(nranks);
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
/// cached plans must not change a bit against the serial loop.
#[test]
fn step_graph_is_built_once_per_parity_per_tree_epoch() {
    let _quiet = FaultPlan::new(0).activate();

    let mut graph = kh2d(2);
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
    let mut serial = kh2d(1);
    serial.evolve(12);
    assert_eq!(state_bits(&serial), state_bits(&graph));

    let (graph, per_epoch) = kh2d_with_regrids(2);
    for &(epoch, steps, builds) in &per_epoch {
        assert_eq!(
            builds, 2,
            "epoch {epoch}: {steps} steps built {builds} plans"
        );
    }
    let (serial, _) = kh2d_with_regrids(1);
    assert_eq!(state_bits(&serial), state_bits(&graph));
}

/// 2-d Helmholtz supernova (flame + gravity live, so the graph runs its
/// unfused tail): the task graph across rank counts against the serial
/// loop.
#[test]
fn supernova_2d_taskgraph_matches_serial_all_ranks() {
    let _quiet = FaultPlan::new(0).activate();
    let mut serial = supernova2d(1);
    serial.evolve(3);
    for nranks in [2usize, 3, 4] {
        let mut graph = supernova2d(nranks);
        graph.evolve(3);
        assert_eq!(
            state_bits(&serial),
            state_bits(&graph),
            "divergence at nranks={nranks}"
        );
    }
}

/// Checkpoints written by the serial loop and by the task graph hold
/// identical physics: same step, same time, same domain bits. (The raw
/// container bytes are allowed to differ — the serialized params header
/// records the rank count that wrote it.)
#[test]
fn checkpoints_agree_across_schedulers() {
    let _quiet = FaultPlan::new(0).activate();
    let run = |nranks: usize, tag: &str| {
        let dir = scratch(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let series = CheckpointSeries::new(&dir, "chk");
        let mut sim = sedov3d(nranks);
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
        run(1, "serial"),
        run(4, "graph"),
        "checkpointed physics must not depend on the step path"
    );
}

/// A state-corruption fault fired mid-run under the task-graph: the
/// guardian's validation (folded into the graph as per-leaf tasks) must
/// catch it, roll the whole step back across every in-flight block, and
/// retry to bits identical to a fault-free serial run.
#[test]
fn guardian_rollback_mid_graph_recovers_bit_exactly() {
    let sim = {
        let _g = FaultPlan::new(0)
            .with(FaultSite::StepNan, FaultKind::FirstN { n: 1, errno: 22 })
            .activate();
        let mut sim = sedov3d(4);
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
    let mut clean = sedov3d(1);
    clean.params.guardian = GuardianConfig {
        max_retries: 2,
        ..GuardianConfig::default()
    };
    clean.evolve(4);
    assert_eq!(
        state_bits(&sim),
        state_bits(&clean),
        "mid-graph rollback + retry must reproduce the fault-free serial run"
    );
    // The witness ignores path-private state, so also pin the ledger.
    assert_eq!(sim.step, clean.step);
    assert_eq!(sim.time, clean.time);
}

/// A transient zero dt under the task-graph poisons the step (no block
/// mutates state), retries down the dt ladder, and lands on the bits and
/// the guardian ledger of the same fault on the serial loop — BadDt
/// handling is path-invariant.
#[test]
fn poisoned_dt_under_taskgraph_matches_serial_recovery() {
    let run = |nranks: usize| {
        let _g = FaultPlan::new(0)
            .with(FaultSite::DtZero, FaultKind::FirstN { n: 1, errno: 22 })
            .activate();
        let mut sim = sedov3d(nranks);
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
    let graph = run(3);
    let serial = run(1);
    assert!(graph.graph_report.executions > 0 && serial.graph_report.executions == 0);
    assert_eq!(state_bits(&graph), state_bits(&serial));
    assert_eq!(graph.guardian_stats, serial.guardian_stats);
}

/// An attempt whose own CFL scan is unusable, with no fault involved,
/// ends before the corruption hooks on both step paths, so it spends no
/// `FirstN` fault: a state with no sound speed and no motion has raw dt
/// +∞ and aborts in `BadDt`, and the one armed `step-nan` then hits the
/// next simulation stepped under the same plan, whichever path runs.
#[test]
fn an_unusable_dt_spends_no_corruption_fault() {
    let run = |nranks: usize| {
        let _g = FaultPlan::new(0)
            .with(FaultSite::StepNan, FaultKind::FirstN { n: 1, errno: 22 })
            .activate();
        let mut still = sedov3d(nranks);
        let unk = &mut still.domain.unk;
        let (nx, ny, nz) = unk.padded();
        for id in still.domain.tree.leaves() {
            for var in [vars::PRES, vars::VELX, vars::VELY, vars::VELZ] {
                for k in 0..nz {
                    for j in 0..ny {
                        for i in 0..nx {
                            unk.set(var, i, j, k, id.idx(), 0.0);
                        }
                    }
                }
            }
        }
        match still.try_step() {
            Err(StepError::BadDt { dt, .. }) => assert_eq!(dt, f64::INFINITY),
            other => panic!("a still state must end in BadDt, got {other:?}"),
        }
        let mut clean = sedov3d(nranks);
        clean
            .try_step()
            .expect("the clean step recovers from step-nan");
        clean.guardian_stats
    };
    let serial = run(1);
    let graph = run(3);
    assert_eq!(serial.violations, 1, "{serial:?}");
    assert_eq!(serial.rollbacks, 1, "{serial:?}");
    assert_eq!(graph, serial, "both paths keep the fault for the clean run");
}

/// A fault that outlives the same-dt retry pushes the ladder down to a
/// halved dt. The task graph and the serial loop run the one retry
/// ladder, so they reach the same bits *and* record the same
/// interventions, `dt_halvings` included.
#[test]
fn halved_retry_is_scheduler_invariant() {
    let run = |nranks: usize| {
        let _g = FaultPlan::new(0)
            .with(FaultSite::StepNan, FaultKind::FirstN { n: 2, errno: 22 })
            .activate();
        let mut sim = sedov3d(nranks);
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
    let graph = run(3);
    let serial = run(1);
    assert!(
        graph.graph_report.executions > 3,
        "the retries re-dispatched the graph"
    );
    assert_eq!(state_bits(&graph), state_bits(&serial));
    assert_eq!(graph.guardian_stats, serial.guardian_stats);
    assert_eq!(
        serial.guardian_stats.dt_halvings, 1,
        "attempts 0 and 1 fail at the computed dt, attempt 2 runs at half"
    );
}

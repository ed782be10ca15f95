//! Step-guardian integration battery: clean-path parity, transient-fault
//! recovery (bit-exact and deterministic), typed aborts with emergency
//! checkpoints, retention interleaving, and resume-after-abort.
//!
//! Faults are injected through thread-local `FaultPlan`s, never the
//! environment, so every test owns its per-site call counters. The
//! state-corruption sites are consulted once per `advance_physics` call
//! (`step-nan`, `flux-corrupt`) and once per dt computation (`dt-zero`),
//! so `Nth { n }` addresses "the n-th step attempt" exactly.

use std::path::PathBuf;

use rflash::core::checkpoint::read_checkpoint;
use rflash::core::registry::{self, SetupSpec};
use rflash::core::{CheckpointSeries, Simulation, StepError, StepScheduler};
use rflash::hugepages::{FaultKind, FaultPlan, FaultSite};
use rflash::hydro::SweepEngine;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rflash-guardian-it-{}-{name}", std::process::id()))
}

fn sedov_spec() -> SetupSpec {
    let mut spec = registry::load("sedov").unwrap();
    spec.mesh.ndim = 2;
    spec.mesh.max_refine = 2;
    spec.mesh.max_blocks = 256;
    spec
}

fn sedov_sim(retries: u32, checkpoint_every: u64) -> Simulation {
    let spec = sedov_spec();
    let mut params =
        registry::smoke_params(&spec, 1, SweepEngine::default(), StepScheduler::default());
    params.checkpoint_every = checkpoint_every;
    params.guardian.max_retries = retries;
    spec.build(params).unwrap()
}

/// Bit pattern of every interior zone of every variable, leaves in Morton
/// order — the "identical state" witness.
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

#[test]
fn clean_path_is_bit_identical_with_guardian_on() {
    let _quiet = FaultPlan::new(0).activate();
    let mut on = sedov_sim(2, 0);
    on.evolve(6);
    assert_eq!(on.guardian_stats.validations, 6, "one scan per step");
    assert_eq!(on.guardian_stats.rollbacks, 0);
    assert!(on.guardian_stats.clean(), "no interventions on a clean run");

    let mut off = sedov_sim(2, 0);
    off.params.guardian.enabled = false;
    off.evolve(6);
    assert_eq!(off.guardian_stats.validations, 0);

    assert_eq!(
        state_bits(&on),
        state_bits(&off),
        "validation and shadow capture must not perturb the evolution"
    );
}

#[test]
fn bad_dt_is_a_typed_error_even_without_the_guardian() {
    let mut sim = sedov_sim(0, 0);
    sim.params.guardian.enabled = false;
    let _g = FaultPlan::new(0)
        .with(FaultSite::DtZero, FaultKind::Always { errno: 22 })
        .activate();
    match sim.try_step() {
        Err(StepError::BadDt { step, dt, .. }) => {
            assert_eq!(step, 0);
            assert_eq!(dt, 0.0);
        }
        Err(other) => panic!("expected BadDt, got {other}"),
        Ok(_) => panic!("a zero dt must not evolve anything"),
    }
    assert_eq!(sim.step, 0, "nothing was committed");
    assert_eq!(sim.time, 0.0);
}

#[test]
fn transient_flux_corruption_recovers_bit_exactly_and_deterministically() {
    let run = || {
        let _g = FaultPlan::new(0)
            .with(
                FaultSite::FluxCorrupt,
                FaultKind::FirstN { n: 1, errno: 22 },
            )
            .activate();
        let mut sim = sedov_sim(2, 0);
        for n in 0..5 {
            sim.try_step()
                .unwrap_or_else(|e| panic!("step {n} must recover: {e}"));
        }
        sim
    };
    let a = run();
    assert!(a.guardian_stats.violations >= 1);
    assert!(a.guardian_stats.rollbacks >= 1);
    assert!(a.guardian_stats.retries >= 1);
    assert_eq!(
        a.guardian_stats.dt_halvings, 0,
        "a transient fault is retried at the same dt"
    );

    // Same seed, same plan: identical interventions and identical bits.
    let b = run();
    assert_eq!(a.guardian_stats, b.guardian_stats, "recovery is replayable");
    assert_eq!(state_bits(&a), state_bits(&b));

    // And identical to a run that never saw the fault.
    let _quiet = FaultPlan::new(0).activate();
    let mut clean = sedov_sim(2, 0);
    clean.evolve(5);
    assert_eq!(
        state_bits(&a),
        state_bits(&clean),
        "same-dt retry makes recovery exact, not merely plausible"
    );
}

#[test]
fn step_nan_recovery_matches_the_fault_free_run() {
    let mut sim = sedov_sim(2, 0);
    {
        let _g = FaultPlan::new(0)
            .with(FaultSite::StepNan, FaultKind::FirstN { n: 1, errno: 22 })
            .activate();
        for _ in 0..4 {
            sim.try_step().expect("must recover");
        }
    }
    assert!(sim.guardian_stats.rollbacks >= 1);

    let _quiet = FaultPlan::new(0).activate();
    let mut clean = sedov_sim(2, 0);
    clean.evolve(4);
    assert_eq!(state_bits(&sim), state_bits(&clean));
}

#[test]
fn transient_zero_dt_retries_without_a_rollback() {
    let mut sim = sedov_sim(2, 0);
    {
        let _g = FaultPlan::new(0)
            .with(FaultSite::DtZero, FaultKind::FirstN { n: 1, errno: 22 })
            .activate();
        for _ in 0..3 {
            sim.try_step().expect("must recover");
        }
    }
    assert_eq!(sim.guardian_stats.bad_dts, 1);
    assert!(sim.guardian_stats.retries >= 1);
    assert_eq!(
        sim.guardian_stats.rollbacks, 0,
        "a bad dt leaves the state untouched — no rollback needed"
    );

    let _quiet = FaultPlan::new(0).activate();
    let mut clean = sedov_sim(2, 0);
    clean.evolve(3);
    assert_eq!(state_bits(&sim), state_bits(&clean));
}

#[test]
fn budget_zero_abort_checkpoints_the_rolled_back_state() {
    let dir = scratch("abort");
    let _ = std::fs::remove_dir_all(&dir);
    let mut sim = sedov_sim(0, 0);
    sim.emergency_series = Some(CheckpointSeries::new(&dir, "emergency"));

    let _g = FaultPlan::new(0)
        .with(FaultSite::StepNan, FaultKind::Nth { n: 2, errno: 22 })
        .activate();
    sim.try_step().expect("step 1 is clean");
    let err = sim.try_step().expect_err("step 2 is corrupted, budget 0");
    let StepError::Unphysical {
        step,
        attempts,
        emergency_checkpoint,
        ..
    } = err
    else {
        panic!("expected Unphysical, got {err}");
    };
    assert_eq!(step, 1, "the failing step started from committed step 1");
    assert_eq!(attempts, 1);
    assert_eq!(sim.step, 1, "the failed step was never committed");
    assert_eq!(sim.guardian_stats.aborts, 1);
    assert_eq!(sim.guardian_stats.emergency_checkpoints, 1);

    // The checkpoint is readable and captures exactly the rolled-back
    // in-memory state.
    let path = emergency_checkpoint.expect("abort after rollback carries a checkpoint");
    let state = read_checkpoint(&path).expect("emergency checkpoint must verify");
    assert_eq!(state.step, 1);
    let mut ckpt_bits = Vec::new();
    for id in state.domain.tree.leaves() {
        for v in 0..state.domain.unk.nvar() {
            for k in state.domain.unk.interior_k() {
                for j in state.domain.unk.interior() {
                    for i in state.domain.unk.interior() {
                        ckpt_bits.push(state.domain.unk.get(v, i, j, k, id.idx()).to_bits());
                    }
                }
            }
        }
    }
    assert_eq!(ckpt_bits, state_bits(&sim));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn emergency_checkpoint_interleaves_with_scheduled_and_wins_recovery() {
    let dir = scratch("interleave");
    let _ = std::fs::remove_dir_all(&dir);
    let series = CheckpointSeries::new(&dir, "chk");
    let mut sim = sedov_sim(0, 2);

    // Steps 1–3 commit (scheduled checkpoint at step 2); the 4th
    // advance is corrupted and the budget is 0, so the guardian rolls
    // back and writes an emergency checkpoint of step 3 into the series.
    let _g = FaultPlan::new(0)
        .with(FaultSite::StepNan, FaultKind::Nth { n: 4, errno: 22 })
        .activate();
    let err = sim
        .evolve_checkpointed(6, &series)
        .expect_err("the corrupted step must abort");
    assert!(matches!(err, StepError::Unphysical { .. }));

    let steps: Vec<u64> = series.scan().unwrap().iter().map(|(s, _)| *s).collect();
    assert_eq!(
        steps,
        vec![2, 3],
        "scheduled (step 2) and emergency (step 3) checkpoints share the series"
    );
    let (state, skipped) = series.recover_latest().unwrap();
    assert!(skipped.is_empty());
    assert_eq!(
        state.step, 3,
        "newest-first recovery picks the emergency checkpoint"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_after_guardian_abort_matches_the_in_place_recovery() {
    // Reference: enough retry budget to absorb the fault in place.
    let bits_recovered = {
        let _g = FaultPlan::new(0)
            .with(FaultSite::StepNan, FaultKind::Nth { n: 4, errno: 22 })
            .activate();
        let mut sim = sedov_sim(2, 0);
        for _ in 0..6 {
            sim.try_step().expect("budget 2 must recover");
        }
        assert!(sim.guardian_stats.rollbacks >= 1);
        state_bits(&sim)
    };

    // Same fault, no budget: abort at step 4, emergency checkpoint of
    // step 3 lands in the series.
    let dir = scratch("resume");
    let _ = std::fs::remove_dir_all(&dir);
    let series = CheckpointSeries::new(&dir, "chk");
    {
        let _g = FaultPlan::new(0)
            .with(FaultSite::StepNan, FaultKind::Nth { n: 4, errno: 22 })
            .activate();
        let mut sim = sedov_sim(0, 2);
        sim.evolve_checkpointed(6, &series)
            .expect_err("budget 0 must abort");
    }

    // Recover from the series (the transient fault is gone after the
    // "operator restart") and finish the run.
    let _quiet = FaultPlan::new(0).activate();
    let spec = sedov_spec();
    let (mut resumed, skipped) = Simulation::recover(&series, &spec).unwrap();
    assert!(skipped.is_empty());
    assert_eq!(
        resumed.step, 3,
        "recovery starts at the emergency checkpoint"
    );
    for _ in 0..3 {
        resumed.try_step().expect("resume is fault-free");
    }
    assert_eq!(resumed.step, 6);
    assert_eq!(
        state_bits(&resumed),
        bits_recovered,
        "abort + restart reaches the same bits as in-place recovery"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

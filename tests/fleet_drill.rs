//! Fleet fault drills (DESIGN.md §17).
//!
//! The contract under drill: a supervised run that loses — and restarts —
//! its worker at a step boundary reproduces the committed golden digest of
//! an uninterrupted single-process run, bit for bit, and every transition
//! shows up as a typed `FleetEvent`. The drills inject the `worker-kill` /
//! `heartbeat-drop` / `msg-truncate` sites, the `step-nan` and
//! `ckpt-write` sites into the worker, and the `spawn-fail` site into the
//! supervisor, covering the whole ladder: detect → kill and reap →
//! respawn from the newest verified checkpoint → typed abort.
//!
//! The worker is a real child process of the `rflash` binary (Cargo points
//! us at it via `CARGO_BIN_EXE_rflash`); the supervisor runs in-process so
//! the event trail and counters can be asserted directly.

use std::path::PathBuf;

use rflash::core::registry::load_golden;
use rflash::core::{run_fleet, FleetConfig, FleetError, FleetEvent, FleetReport, LossCause};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn golden_crc(scenario: &str) -> u32 {
    load_golden(&golden_dir(), scenario)
        .expect("golden record must exist")
        .digest
        .crc
}

/// A drill's checkpoint-series directory, removed when the guard drops —
/// on a panicking drill too, so no run leaves its series behind.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rflash-fleet-it-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A smoke-scale fleet config with drill-friendly failure detection:
/// tight heartbeats and a checkpoint every step. Keep the returned guard
/// alive until the fleet has finished.
fn drill_config(scenario: &str, tag: &str) -> (FleetConfig, Scratch) {
    let dir = Scratch::new(tag);
    let mut cfg = FleetConfig::new(env!("CARGO_BIN_EXE_rflash"), scenario, 3, &dir.0);
    cfg.checkpoint_every = 1;
    cfg.heartbeat_ms = 20;
    cfg.heartbeat_timeout_ms = 400;
    cfg.max_wall_ms = 300_000;
    (cfg, dir)
}

/// A drill config whose first worker runs under `fault`.
fn faulted(scenario: &str, tag: &str, fault: &str) -> (FleetConfig, Scratch) {
    let (mut cfg, dir) = drill_config(scenario, tag);
    cfg.worker_faults = Some(fault.into());
    (cfg, dir)
}

fn run(cfg: FleetConfig) -> FleetReport {
    run_fleet(cfg).expect("fleet run must complete")
}

fn losses(events: &[FleetEvent]) -> Vec<LossCause> {
    events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::WorkerLost { cause, .. } => Some(*cause),
            _ => None,
        })
        .collect()
}

/// The `(to_step, checkpoint)` of every restart, in order.
fn rollbacks(report: &FleetReport) -> Vec<(u64, Option<PathBuf>)> {
    report
        .events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::RolledBack {
                to_step,
                checkpoint,
            } => Some((*to_step, checkpoint.clone())),
            _ => None,
        })
        .collect()
}

fn count<F: Fn(&FleetEvent) -> bool>(events: &[FleetEvent], f: F) -> usize {
    events.iter().filter(|e| f(e)).count()
}

/// One loss, one clean respawn, and the golden digest at the end.
fn assert_one_clean_restart(report: &FleetReport, scenario: &str) {
    assert_eq!(
        report.digest.crc,
        golden_crc(scenario),
        "{scenario} diverged"
    );
    assert_eq!(losses(&report.events).len(), 1, "{scenario}: one loss");
    assert_eq!(report.counters.respawns, 1, "{scenario}: one respawn");
    assert_eq!(report.rollbacks, 1, "{scenario}: one restart");
}

// ---- clean runs -------------------------------------------------------

#[test]
fn clean_fleet_reproduces_the_golden_digest() {
    for scenario in ["sedov", "supernova"] {
        let (cfg, _dir) = drill_config(scenario, &format!("clean-{scenario}"));
        let report = run(cfg);
        assert_eq!(
            report.digest.crc,
            golden_crc(scenario),
            "{scenario} diverged from golden"
        );
        assert_eq!(report.rollbacks, 0);
        assert!(losses(&report.events).is_empty());
        assert_eq!(report.counters.checkpoints, 3, "one checkpoint per step");
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, FleetEvent::DigestReported { .. })));
    }
}

// ---- single-fault drills: every process site, both paper scenarios ----

#[test]
fn worker_kill_recovers_bit_identically() {
    for scenario in ["sedov", "supernova"] {
        let (cfg, _dir) = faulted(scenario, &format!("kill-{scenario}"), "worker-kill=nth:2");
        let report = run(cfg);
        assert_one_clean_restart(&report, scenario);
        assert_eq!(losses(&report.events), vec![LossCause::Eof]);
    }
}

#[test]
fn heartbeat_drop_is_detected_by_the_probe_ladder_and_recovers() {
    for scenario in ["sedov", "supernova"] {
        let (cfg, _dir) = faulted(scenario, &format!("hb-{scenario}"), "heartbeat-drop=nth:2");
        let report = run(cfg);
        assert_one_clean_restart(&report, scenario);
        assert_eq!(losses(&report.events), vec![LossCause::HeartbeatTimeout]);
        assert!(
            count(&report.events, |e| matches!(
                e,
                FleetEvent::HeartbeatMissed { generation: 1 }
            )) >= 1,
            "silence must enter the probe ladder via HeartbeatMissed"
        );
        assert!(report.counters.probes >= 1);
    }
}

#[test]
fn msg_truncate_leaves_a_torn_frame_and_recovers() {
    for scenario in ["sedov", "supernova"] {
        let (cfg, _dir) = faulted(scenario, &format!("trunc-{scenario}"), "msg-truncate=nth:2");
        let report = run(cfg);
        assert_one_clean_restart(&report, scenario);
        // The cut frame lands either as a mid-frame tear or (when cut at
        // the prelude boundary with exit close behind) a short write the
        // reader sees as a clean end of stream; both are loss causes the
        // typed event must carry.
        let cause = losses(&report.events)[0];
        assert!(
            matches!(cause, LossCause::TornFrame | LossCause::Eof),
            "unexpected cause {cause:?}"
        );
    }
}

// ---- restart from the newest *valid* checkpoint -----------------------

#[test]
fn late_kill_replays_from_a_recorded_checkpoint() {
    // Killed at the third step boundary, after the step-1 and step-2
    // checkpoints were written: the restart resumes from step 2.
    let (cfg, _dir) = faulted("sedov", "latekill", "worker-kill=nth:3");
    let report = run(cfg);
    assert_one_clean_restart(&report, "sedov");
    let rolled = rollbacks(&report);
    assert_eq!(rolled.len(), 1);
    let (to_step, ckpt) = &rolled[0];
    assert_eq!(*to_step, 2, "the newest checkpoint is step 2's");
    assert!(ckpt.is_some(), "rollback target must be named");
}

#[test]
fn step_nan_guardian_abort_restarts_from_its_emergency_checkpoint() {
    // Every attempt of the first step is poisoned: the guardian exhausts
    // its retries, writes the rolled-back step-0 state into the fleet
    // series, and the worker exits. The clean respawn resumes from it.
    let (cfg, _dir) = faulted("sedov", "stepnan", "step-nan=always");
    let report = run(cfg);
    assert_one_clean_restart(&report, "sedov");
    assert_eq!(losses(&report.events), vec![LossCause::Eof]);
    let rolled = rollbacks(&report);
    assert_eq!(rolled.len(), 1);
    let (to_step, ckpt) = &rolled[0];
    assert_eq!(*to_step, 0);
    assert!(
        ckpt.is_some(),
        "the guardian's emergency checkpoint must be the restart point"
    );
}

#[test]
fn failed_series_write_restarts_from_the_previous_checkpoint() {
    // The second series write (step 2) fails mid-file: the worker is lost
    // and the restart resumes from step 1, skipping the torn temp file.
    let (cfg, _dir) = faulted("sedov", "ckptwrite", "ckpt-write=nth:2");
    let report = run(cfg);
    assert_one_clean_restart(&report, "sedov");
    assert_eq!(losses(&report.events), vec![LossCause::Eof]);
    let rolled = rollbacks(&report);
    assert_eq!(rolled.len(), 1);
    assert_eq!(rolled[0].0, 1, "step 1 is the newest verified checkpoint");
}

// ---- the respawn budget -----------------------------------------------

#[test]
fn spawn_fail_spends_one_respawn_and_the_next_launch_recovers() {
    // Launch attempts: the first worker (1st), its respawn (2nd, denied),
    // the next respawn (3rd).
    let (mut cfg, _dir) = faulted("sedov", "spawnfail", "worker-kill=nth:2");
    cfg.supervisor_faults = Some("spawn-fail=nth:2".into());
    let report = run(cfg);
    assert_eq!(report.digest.crc, golden_crc("sedov"));
    assert_eq!(report.counters.spawn_failures, 1);
    assert_eq!(report.counters.respawns, 1);
    assert_eq!(
        count(&report.events, |e| matches!(
            e,
            FleetEvent::SpawnFailed { .. }
        )),
        1
    );
    assert_eq!(losses(&report.events), vec![LossCause::Eof]);
}

#[test]
fn spawn_fail_with_no_budget_left_is_a_typed_abort() {
    // One respawn allowed, and the injected spawn-fail spends it.
    let (mut cfg, _dir) = faulted("sedov", "spawnfail-abort", "worker-kill=nth:2");
    cfg.supervisor_faults = Some("spawn-fail=nth:2".into());
    cfg.max_respawns = 1;
    match run_fleet(cfg) {
        Err(FleetError::AllWorkersLost {
            emergency_checkpoint,
            events,
        }) => {
            assert!(
                emergency_checkpoint.is_some_and(|p| p.exists()),
                "the step-1 checkpoint must be named"
            );
            assert_eq!(
                count(&events, |e| matches!(e, FleetEvent::SpawnFailed { .. })),
                1
            );
        }
        other => panic!("expected AllWorkersLost, got {other:?}"),
    }
}

#[test]
fn losing_every_worker_is_a_typed_abort_naming_the_emergency_checkpoint() {
    let (mut cfg, _dir) = faulted("sedov", "alllost", "worker-kill=nth:2");
    cfg.max_respawns = 0; // no budget: the first loss ends the run
    match run_fleet(cfg) {
        Err(FleetError::AllWorkersLost {
            emergency_checkpoint,
            events,
        }) => {
            // Step 1 committed before the boundary kill, so a valid
            // recovery point exists and must be named for the operator.
            assert!(
                emergency_checkpoint.is_some(),
                "emergency checkpoint must be named when one exists"
            );
            assert_eq!(
                losses(&events),
                vec![LossCause::Eof],
                "the loss trail rides along"
            );
        }
        other => panic!("expected AllWorkersLost, got {other:?}"),
    }
}

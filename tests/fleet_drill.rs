//! Fleet fault drills (ISSUE 10, DESIGN.md §17).
//!
//! The contract under drill: a supervised multi-process fleet that loses —
//! and recovers — workers at step boundaries reproduces the committed
//! golden digest of an uninterrupted single-process run, bit for bit, and
//! every transition shows up as a typed `FleetEvent`. The drills inject
//! the `worker-kill` / `heartbeat-drop` / `msg-truncate` sites into chosen
//! ranks and the `spawn-fail` site into the supervisor, covering the whole
//! ladder: detect → respawn → replay → migrate.
//!
//! Workers are real child processes of the `rflash` binary (Cargo points
//! us at it via `CARGO_BIN_EXE_rflash`); the supervisor runs in-process so
//! the event trail and counters can be asserted directly.

use std::path::PathBuf;

use rflash::core::registry::load_golden;
use rflash::core::{run_fleet, FleetConfig, FleetEvent, FleetReport, LossCause};

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
/// tight heartbeats, a wide coalescing window, checkpoints every step.
/// Keep the returned guard alive until the fleet has finished.
fn drill_config(scenario: &str, workers: usize, tag: &str) -> (FleetConfig, Scratch) {
    let dir = Scratch::new(tag);
    let mut cfg = FleetConfig::new(env!("CARGO_BIN_EXE_rflash"), scenario, 3, &dir.0);
    cfg.workers = workers;
    cfg.checkpoint_every = 1;
    cfg.heartbeat_ms = 20;
    cfg.heartbeat_timeout_ms = 400;
    cfg.coalesce_ms = 400;
    cfg.max_wall_ms = 300_000;
    (cfg, dir)
}

fn run(cfg: FleetConfig) -> FleetReport {
    run_fleet(cfg).expect("fleet run must complete")
}

fn lost_ranks(report: &FleetReport) -> Vec<(usize, LossCause)> {
    report
        .events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::WorkerLost { rank, cause, .. } => Some((*rank, *cause)),
            _ => None,
        })
        .collect()
}

fn count<F: Fn(&FleetEvent) -> bool>(report: &FleetReport, f: F) -> usize {
    report.events.iter().filter(|e| f(e)).count()
}

// ---- clean runs -------------------------------------------------------

#[test]
fn clean_fleet_reproduces_the_golden_digest() {
    for (scenario, workers) in [("sedov", 2), ("sedov", 3), ("supernova", 2)] {
        let (cfg, _dir) = drill_config(scenario, workers, &format!("clean-{scenario}-{workers}"));
        let report = run(cfg);
        assert_eq!(
            report.digest.crc,
            golden_crc(scenario),
            "{scenario} with {workers} workers diverged from golden"
        );
        assert_eq!(report.workers_final, workers);
        assert_eq!(report.rollbacks, 0);
        assert!(lost_ranks(&report).is_empty());
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, FleetEvent::DigestAgreed { .. })));
    }
}

// ---- single-fault drills: every site, both paper scenarios ------------

#[test]
fn worker_kill_recovers_bit_identically() {
    for scenario in ["sedov", "supernova"] {
        let (mut cfg, _dir) = drill_config(scenario, 2, &format!("kill-{scenario}"));
        cfg.worker_faults = vec![(1, "worker-kill=nth:2".into())];
        let report = run(cfg);
        assert_eq!(report.digest.crc, golden_crc(scenario), "{scenario} diverged");
        assert_eq!(lost_ranks(&report), vec![(1, LossCause::Eof)]);
        assert_eq!(report.counters.respawns, 1);
        assert_eq!(report.rollbacks, 1);
        assert_eq!(report.counters.migrations, 0);
    }
}

#[test]
fn heartbeat_drop_is_detected_by_the_probe_ladder_and_recovers() {
    for scenario in ["sedov", "supernova"] {
        let (mut cfg, _dir) = drill_config(scenario, 2, &format!("hb-{scenario}"));
        cfg.worker_faults = vec![(1, "heartbeat-drop=nth:2".into())];
        let report = run(cfg);
        assert_eq!(report.digest.crc, golden_crc(scenario), "{scenario} diverged");
        assert_eq!(lost_ranks(&report), vec![(1, LossCause::HeartbeatTimeout)]);
        assert!(
            count(&report, |e| matches!(e, FleetEvent::HeartbeatMissed { rank: 1 })) >= 1,
            "silence must enter the probe ladder via HeartbeatMissed"
        );
        assert!(report.counters.probes >= 1);
        assert_eq!(report.rollbacks, 1);
    }
}

#[test]
fn msg_truncate_leaves_a_torn_frame_and_recovers() {
    for scenario in ["sedov", "supernova"] {
        let (mut cfg, _dir) = drill_config(scenario, 2, &format!("trunc-{scenario}"));
        cfg.worker_faults = vec![(0, "msg-truncate=nth:2".into())];
        let report = run(cfg);
        assert_eq!(report.digest.crc, golden_crc(scenario), "{scenario} diverged");
        let lost = lost_ranks(&report);
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].0, 0);
        // The cut frame lands either as a mid-frame tear or (when cut at
        // the prelude boundary with exit close behind) a short write the
        // reader sees as a torn stream; both are loss causes the typed
        // event must carry.
        assert!(
            matches!(lost[0].1, LossCause::TornFrame | LossCause::Eof),
            "unexpected cause {:?}",
            lost[0].1
        );
        assert_eq!(report.rollbacks, 1);
    }
}

// ---- recovery replays from the newest *valid* checkpoint --------------

#[test]
fn late_kill_replays_from_a_recorded_checkpoint() {
    // Kill at the third step boundary: checkpoints for steps 1 and 2 are
    // already on disk (rank 1 passes the boundary only after shard 0's
    // CheckpointDone has round-tripped through the supervisor... it has
    // not — workers do not barrier on the checkpoint, so the newest
    // *valid* entry at recovery time may be step 1 or 2. Either way the
    // digest must land on golden; the rollback target must name a real
    // checkpoint when one exists).
    let (mut cfg, _dir) = drill_config("sedov", 2, "latekill");
    cfg.worker_faults = vec![(1, "worker-kill=nth:3".into())];
    let report = run(cfg);
    assert_eq!(report.digest.crc, golden_crc("sedov"));
    assert_eq!(report.rollbacks, 1);
    let rolled: Vec<_> = report
        .events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::RolledBack { to_step, checkpoint, .. } => {
                Some((*to_step, checkpoint.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(rolled.len(), 1);
    let (to_step, ckpt) = &rolled[0];
    assert!(*to_step >= 1, "two committed steps must leave a recovery point");
    assert!(ckpt.is_some(), "rollback target must be named");
}

// ---- satellite: concurrent deaths resolve in rank order ---------------

#[test]
fn concurrent_kills_resolve_in_ascending_rank_order_in_one_round() {
    let (mut cfg, _dir) = drill_config("sedov", 3, "dualkill");
    cfg.worker_faults = vec![
        (1, "worker-kill=nth:2".into()),
        (2, "worker-kill=nth:2".into()),
    ];
    let report = run(cfg);
    assert_eq!(report.digest.crc, golden_crc("sedov"));
    // Both deaths land in the same step window; the coalescing sweep must
    // resolve them as ONE deterministic round: losses reported in
    // ascending Morton-rank order, one fleet-wide rollback.
    assert_eq!(
        lost_ranks(&report),
        vec![(1, LossCause::Eof), (2, LossCause::Eof)],
        "concurrent losses must be reported in ascending rank order"
    );
    assert_eq!(report.rollbacks, 1, "one coalesced round, one rollback");
    assert_eq!(report.counters.respawns, 2);
    assert_eq!(report.workers_final, 3);
}

// ---- migration: respawn denied, shard absorbed by survivors -----------

#[test]
fn spawn_fail_migrates_the_shard_to_survivors() {
    let (mut cfg, _dir) = drill_config("sedov", 2, "migrate");
    cfg.worker_faults = vec![(1, "worker-kill=nth:2".into())];
    // Spawn attempts: rank 0 (1st), rank 1 (2nd), rank 1's respawn (3rd).
    cfg.supervisor_faults = Some("spawn-fail=nth:3".into());
    let report = run(cfg);
    assert_eq!(report.digest.crc, golden_crc("sedov"), "N->N-1 must stay golden");
    assert_eq!(report.workers_final, 1, "fleet must degrade to the survivor");
    assert_eq!(report.counters.migrations, 1);
    assert_eq!(report.counters.spawn_failures, 1);
    let migrated: Vec<_> = report
        .events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::ShardMigrated {
                rank,
                shards_before,
                shards_after,
            } => Some((*rank, *shards_before, *shards_after)),
            _ => None,
        })
        .collect();
    assert_eq!(migrated, vec![(1, 2, 1)], "no silent shrink: migration is typed");
    assert!(
        count(&report, |e| matches!(e, FleetEvent::SpawnFailed { rank: 1, .. })) == 1
    );
}

// ---- the fleet shards empty-shard edge cases cleanly ------------------

#[test]
fn more_workers_than_leaves_still_reproduces_golden() {
    // Supernova smoke has 4 leaves; 6 workers leave two shards empty.
    let (cfg, _dir) = drill_config("supernova", 6, "overshard");
    let report = run(cfg);
    assert_eq!(report.digest.crc, golden_crc("supernova"));
    assert_eq!(report.workers_final, 6);
}

// ---- exhausting the ladder is a typed abort, not a hang ---------------

#[test]
fn losing_every_worker_is_a_typed_abort_naming_the_emergency_checkpoint() {
    let (mut cfg, _dir) = drill_config("sedov", 2, "alllost");
    cfg.worker_faults = vec![
        (0, "worker-kill=nth:2".into()),
        (1, "worker-kill=nth:2".into()),
    ];
    cfg.max_respawns = 0; // no budget: first loss retires each rank
    match run_fleet(cfg) {
        Err(rflash::core::FleetError::AllWorkersLost {
            emergency_checkpoint,
            events,
        }) => {
            // Step 1 committed before the boundary kill, so a valid
            // recovery point exists and must be named for the operator.
            assert!(
                emergency_checkpoint.is_some(),
                "emergency checkpoint must be named when one exists"
            );
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, FleetEvent::WorkerLost { .. })),
                "the abort must carry the loss trail"
            );
        }
        other => panic!("expected AllWorkersLost, got {other:?}"),
    }
}

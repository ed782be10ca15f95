//! The fleet supervisor: spawn, route, detect, recover.
//!
//! The supervisor never models physics. It is a message router with a
//! failure detector bolted on:
//!
//! * **Routing** — per-shard wavetimes reduce to the fleet dt (f64 `min`,
//!   order-independent and exact); per-shard slab sections concatenate in
//!   shard order (= global Morton order, because shards are contiguous)
//!   and rebroadcast; per-slab CRCs are verified on receipt and forwarded.
//! * **Detection** — a worker is *suspect* when its heartbeat deadline
//!   expires, then probed (`Ping`) with exponential backoff; it is *lost*
//!   on pipe EOF, a torn/corrupt frame, or probe exhaustion.
//! * **Recovery** — the ladder is detect → respawn → replay (fleet-wide
//!   rollback to the newest checkpoint that passes
//!   [`verify_checkpoint`], or step 0) → migrate (respawn budget
//!   exhausted: survivors absorb the shard, N→N−1) → abort with the
//!   newest valid checkpoint named in the error. Before recovering, the
//!   supervisor ping-sweeps the remaining fleet so *concurrent* deaths
//!   resolve into one deterministic round, reported in ascending rank
//!   order. Every transition is a typed [`FleetEvent`]; there is no
//!   silent shrink.
//!
//! Epochs make rollback safe: each `Assign` carries a fresh epoch, and
//! frames tagged with an older epoch are recognizably stale and dropped.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use rflash_hugepages::faults::{self, FaultPlan, FaultSite};
use rflash_perfmon::FleetCounters;

use super::wire::{self, FrameError, WireMsg};
use crate::checkpoint::{verify_checkpoint, CheckpointSeries};
use crate::crc32::crc32;
use crate::registry::StateDigest;

/// Everything a fleet run needs. `new` fills the tunables from the
/// `RFLASH_WORKERS` / `RFLASH_HEARTBEAT_MS` / `RFLASH_HEARTBEAT_TIMEOUT_MS`
/// / `RFLASH_PROBE_RETRIES` environment knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Binary to exec for workers (normally the current executable; the
    /// worker entry is the hidden `fleet-worker` subcommand).
    pub worker_bin: PathBuf,
    /// Scenario name in the registry (built at smoke scale).
    pub setup: String,
    /// Steps to run.
    pub steps: u64,
    /// Initial worker count.
    pub workers: usize,
    /// Series-checkpoint cadence (0 disables recovery points).
    pub checkpoint_every: u64,
    /// Series retention (0 keeps everything).
    pub keep_last: usize,
    /// Directory of the shared checkpoint series.
    pub series_dir: PathBuf,
    /// Filename prefix of the shared series.
    pub series_prefix: String,
    /// Worker heartbeat cadence (ms).
    pub heartbeat_ms: u64,
    /// Silence tolerated before a worker turns suspect (ms).
    pub heartbeat_timeout_ms: u64,
    /// Liveness probes (exponential backoff) before a suspect is lost.
    pub probe_retries: u32,
    /// First probe backoff (ms); doubles per retry.
    pub probe_backoff_ms: u64,
    /// How long a recovery round waits for *concurrent* deaths to land
    /// before the ping sweep (ms). Deaths inside the window resolve in one
    /// round, reported in ascending rank order, with one rollback.
    pub coalesce_ms: u64,
    /// Respawns allowed per rank before its shard migrates away.
    pub max_respawns: u32,
    /// Overall wall-clock abort (ms) — a supervisor must never hang.
    pub max_wall_ms: u64,
    /// Fault specs injected into specific ranks' *first* spawn via
    /// `RFLASH_FAULTS` (respawned generations run clean).
    pub worker_faults: Vec<(usize, String)>,
    /// Fault spec activated in the supervisor itself (the `spawn-fail`
    /// site lives here).
    pub supervisor_faults: Option<String>,
}

impl FleetConfig {
    pub fn new(
        worker_bin: impl Into<PathBuf>,
        setup: impl Into<String>,
        steps: u64,
        series_dir: impl Into<PathBuf>,
    ) -> FleetConfig {
        fn env_u64(key: &str, default: u64) -> u64 {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        FleetConfig {
            worker_bin: worker_bin.into(),
            setup: setup.into(),
            steps,
            workers: env_u64("RFLASH_WORKERS", 2) as usize,
            checkpoint_every: 1,
            keep_last: 0,
            series_dir: series_dir.into(),
            series_prefix: "fleet".into(),
            heartbeat_ms: env_u64("RFLASH_HEARTBEAT_MS", 25),
            heartbeat_timeout_ms: env_u64("RFLASH_HEARTBEAT_TIMEOUT_MS", 1000),
            probe_retries: env_u64("RFLASH_PROBE_RETRIES", 3) as u32,
            probe_backoff_ms: 40,
            coalesce_ms: 50,
            max_respawns: 2,
            max_wall_ms: 120_000,
            worker_faults: Vec::new(),
            supervisor_faults: None,
        }
    }
}

/// Why a worker was declared lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossCause {
    /// Pipe closed without a `Bye`.
    Eof,
    /// A torn or corrupt frame on the pipe (the `msg-truncate` shape).
    TornFrame,
    /// Heartbeat deadline expired and the probe ladder went unanswered.
    HeartbeatTimeout,
    /// Writing to the worker failed.
    PipeWrite,
}

impl std::fmt::Display for LossCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LossCause::Eof => write!(f, "pipe EOF"),
            LossCause::TornFrame => write!(f, "torn frame"),
            LossCause::HeartbeatTimeout => write!(f, "heartbeat timeout"),
            LossCause::PipeWrite => write!(f, "pipe write failure"),
        }
    }
}

/// Every fleet transition, in order. No transition is silent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetEvent {
    /// A worker process launched (generation 1 = initial fleet).
    Spawned { rank: usize, generation: u64 },
    /// A launch attempt failed (including the injected `spawn-fail`).
    SpawnFailed { rank: usize, error: String },
    /// A heartbeat deadline expired; the probe ladder started.
    HeartbeatMissed { rank: usize },
    /// A worker was declared lost. Concurrent losses in one recovery
    /// round are emitted in ascending rank order.
    WorkerLost {
        rank: usize,
        generation: u64,
        cause: LossCause,
    },
    /// A lost worker's slot relaunched.
    Respawned { rank: usize, generation: u64 },
    /// A retired rank's shard was absorbed by the survivors (N→N−1).
    ShardMigrated {
        rank: usize,
        shards_before: usize,
        shards_after: usize,
    },
    /// Fleet-wide rollback: every live worker reassigned at `epoch`,
    /// replaying from `checkpoint` (`None`: from step 0).
    RolledBack {
        epoch: u64,
        to_step: u64,
        checkpoint: Option<PathBuf>,
    },
    /// Shard 0 recorded a series checkpoint the fleet can roll back to.
    CheckpointRecorded { step: u64, path: PathBuf },
    /// All shards reported the same final digest.
    DigestAgreed { crc: u32, step: u64 },
}

/// Terminal fleet failures.
#[derive(Debug)]
pub enum FleetError {
    Config(String),
    Io(std::io::Error),
    /// Every worker (and the respawn budget) is gone. The newest valid
    /// checkpoint — the emergency restart point — is named, and the full
    /// event trail rides along.
    AllWorkersLost {
        emergency_checkpoint: Option<PathBuf>,
        events: Vec<FleetEvent>,
    },
    /// Shards disagreed on the final state — the bit-identity contract
    /// broke.
    DigestMismatch(String),
    /// A worker violated the protocol in a way recovery can't absorb, or
    /// the wall-clock budget expired.
    Protocol(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Config(m) => write!(f, "fleet config: {m}"),
            FleetError::Io(e) => write!(f, "fleet I/O: {e}"),
            FleetError::AllWorkersLost {
                emergency_checkpoint,
                ..
            } => match emergency_checkpoint {
                Some(p) => write!(f, "all workers lost; emergency checkpoint {}", p.display()),
                None => write!(f, "all workers lost; no valid checkpoint"),
            },
            FleetError::DigestMismatch(m) => write!(f, "digest mismatch: {m}"),
            FleetError::Protocol(m) => write!(f, "fleet protocol: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> FleetError {
        FleetError::Io(e)
    }
}

/// What a completed fleet run reports.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// The unanimous final digest.
    pub digest: StateDigest,
    /// Steps run.
    pub steps: u64,
    /// Live workers at completion (may be < initial after migrations).
    pub workers_final: usize,
    /// Rollbacks survived.
    pub rollbacks: u64,
    /// The full ordered event trail.
    pub events: Vec<FleetEvent>,
    /// Monotonic counters (printed by `rflash run-fleet`, asserted by the
    /// fleet drills).
    pub counters: FleetCounters,
    /// Newest recovery point recorded during the run.
    pub newest_checkpoint: Option<PathBuf>,
}

/// What reader threads feed the supervisor loop.
enum Inbound {
    Frame {
        rank: usize,
        generation: u64,
        msg: WireMsg,
        payload: Vec<u8>,
    },
    Gone {
        rank: usize,
        generation: u64,
        torn: bool,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WState {
    /// Running (as far as we know).
    Active,
    /// Sent `Bye`; EOF from here is a clean exit.
    Finished,
    /// Declared lost this epoch; may be respawned.
    Dead,
    /// Out of respawn budget; shard migrated away.
    Retired,
}

/// The probe ladder state of a suspect worker.
struct Probing {
    attempts: u32,
    next_at: Instant,
}

struct Worker {
    generation: u64,
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    last_seen: Instant,
    state: WState,
    probing: Option<Probing>,
    respawns_used: u32,
    /// `RFLASH_FAULTS` for generation 1 only; respawns run clean.
    first_spawn_faults: Option<String>,
    digest: Option<StateDigest>,
}

/// One shard's pending slab section for an exchange in flight.
struct SlabSection {
    crcs: Vec<u32>,
    bytes: Vec<u8>,
}

struct Supervisor {
    cfg: FleetConfig,
    workers: Vec<Worker>,
    tx: Sender<Inbound>,
    rx: Receiver<Inbound>,
    epoch: u64,
    /// Live ranks in ascending order; index = shard index.
    assignment: Vec<usize>,
    events: Vec<FleetEvent>,
    counters: FleetCounters,
    newest_ckpt: Option<PathBuf>,
    dt_pending: HashMap<u64, Vec<Option<u64>>>,
    slab_pending: HashMap<u64, Vec<Option<SlabSection>>>,
    started: Instant,
    nonce: u64,
}

/// Run a fleet to completion. Blocks until every shard reports the same
/// final digest, or until the recovery ladder is exhausted.
pub fn run_fleet(cfg: FleetConfig) -> Result<FleetReport, FleetError> {
    if cfg.workers == 0 {
        return Err(FleetError::Config("at least one worker required".into()));
    }
    if cfg.steps == 0 {
        return Err(FleetError::Config("at least one step required".into()));
    }
    // The supervisor's own fault plan (spawn-fail) activates here, scoped
    // to this run.
    let _guard = match &cfg.supervisor_faults {
        Some(spec) => Some(
            FaultPlan::parse(spec)
                .map_err(|e| FleetError::Config(format!("supervisor faults: {e}")))?
                .activate(),
        ),
        None => None,
    };
    std::fs::create_dir_all(&cfg.series_dir)?;

    let (tx, rx) = mpsc::channel();
    let mut faults_by_rank: HashMap<usize, String> = HashMap::new();
    for (rank, spec) in &cfg.worker_faults {
        if *rank >= cfg.workers {
            return Err(FleetError::Config(format!(
                "fault rank {rank} out of range (workers {})",
                cfg.workers
            )));
        }
        faults_by_rank.insert(*rank, spec.clone());
    }
    let now = Instant::now();
    let workers = (0..cfg.workers)
        .map(|rank| Worker {
            generation: 0,
            child: None,
            stdin: None,
            last_seen: now,
            state: WState::Dead,
            probing: None,
            respawns_used: 0,
            first_spawn_faults: faults_by_rank.remove(&rank),
            digest: None,
        })
        .collect();

    let mut sup = Supervisor {
        cfg,
        workers,
        tx,
        rx,
        epoch: 0,
        assignment: Vec::new(),
        events: Vec::new(),
        counters: FleetCounters::default(),
        newest_ckpt: None,
        dt_pending: HashMap::new(),
        slab_pending: HashMap::new(),
        started: now,
        nonce: 0,
    };
    let result = sup.run();
    sup.reap_all();
    result
}

impl Supervisor {
    fn run(&mut self) -> Result<FleetReport, FleetError> {
        for rank in 0..self.cfg.workers {
            self.spawn(rank);
        }
        self.assignment = self.live_ranks();
        if self.assignment.is_empty() {
            return Err(self.all_lost());
        }
        if let Some(dead) = self.assign_all(None) {
            self.recover(dead)?;
        }
        self.event_loop()
    }

    // ---- lifecycle ----------------------------------------------------

    /// Launch (or relaunch) rank's worker. Consults the `spawn-fail` site
    /// on *every* attempt — initial fleet included — so `nth:N` specs
    /// count launches deterministically.
    fn spawn(&mut self, rank: usize) -> bool {
        if faults::fires(FaultSite::SpawnFail) {
            self.counters.spawn_failures += 1;
            self.events.push(FleetEvent::SpawnFailed {
                rank,
                error: "injected spawn-fail".into(),
            });
            return false;
        }
        let generation = self.workers[rank].generation + 1;
        let mut cmd = Command::new(&self.cfg.worker_bin);
        cmd.arg("fleet-worker")
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--setup")
            .arg(&self.cfg.setup)
            .arg("--steps")
            .arg(self.cfg.steps.to_string())
            .arg("--checkpoint-every")
            .arg(self.cfg.checkpoint_every.to_string())
            .arg("--keep-last")
            .arg(self.cfg.keep_last.to_string())
            .arg("--series-dir")
            .arg(&self.cfg.series_dir)
            .arg("--series-prefix")
            .arg(&self.cfg.series_prefix)
            .arg("--heartbeat-ms")
            .arg(self.cfg.heartbeat_ms.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            // Workers never inherit the supervisor's fault spec; injected
            // faults go only to the chosen ranks' first generation.
            .env_remove("RFLASH_FAULTS");
        if generation == 1 {
            if let Some(spec) = &self.workers[rank].first_spawn_faults {
                cmd.env("RFLASH_FAULTS", spec);
            }
        }
        match cmd.spawn() {
            Err(e) => {
                self.counters.spawn_failures += 1;
                self.events.push(FleetEvent::SpawnFailed {
                    rank,
                    error: e.to_string(),
                });
                false
            }
            Ok(mut child) => {
                // Invariant: both pipes were requested above.
                let stdout = child.stdout.take().unwrap();
                let stdin = child.stdin.take().unwrap();
                let tx = self.tx.clone();
                std::thread::spawn(move || {
                    let mut r = std::io::BufReader::new(stdout);
                    loop {
                        match wire::read_frame(&mut r) {
                            Ok((msg, payload)) => {
                                if tx
                                    .send(Inbound::Frame {
                                        rank,
                                        generation,
                                        msg,
                                        payload,
                                    })
                                    .is_err()
                                {
                                    return;
                                }
                            }
                            Err(e) => {
                                let torn = !matches!(e, FrameError::Eof);
                                let _ = tx.send(Inbound::Gone {
                                    rank,
                                    generation,
                                    torn,
                                });
                                return;
                            }
                        }
                    }
                });
                let w = &mut self.workers[rank];
                w.generation = generation;
                w.child = Some(child);
                w.stdin = Some(stdin);
                w.last_seen = Instant::now();
                w.state = WState::Active;
                w.probing = None;
                w.digest = None;
                self.counters.spawns += 1;
                self.events.push(FleetEvent::Spawned { rank, generation });
                true
            }
        }
    }

    fn live_ranks(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&r| matches!(self.workers[r].state, WState::Active | WState::Finished))
            .collect()
    }

    fn shard_of(&self, rank: usize) -> Option<usize> {
        self.assignment.iter().position(|&r| r == rank)
    }

    /// Kill + reap every remaining child (run teardown).
    fn reap_all(&mut self) {
        for w in &mut self.workers {
            if let Some(stdin) = w.stdin.take() {
                drop(stdin);
            }
            if let Some(mut child) = w.child.take() {
                if w.state != WState::Finished {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
        }
    }

    // ---- sending ------------------------------------------------------

    /// Send one frame to one rank. On failure the rank is *returned*, not
    /// yet declared dead — callers batch failures into one recovery round.
    fn send_to(&mut self, rank: usize, msg: &WireMsg, payload: &[u8]) -> Result<(), ()> {
        let frame = match wire::encode_frame(msg, payload) {
            Ok(f) => f,
            Err(_) => return Err(()),
        };
        let Some(stdin) = self.workers[rank].stdin.as_mut() else {
            return Err(());
        };
        match stdin.write_all(&frame).and_then(|_| stdin.flush()) {
            Ok(()) => {
                self.counters.frames_tx += 1;
                self.counters.bytes_tx += frame.len() as u64;
                Ok(())
            }
            Err(_) => Err(()),
        }
    }

    /// Broadcast to the whole assignment; returns ranks whose pipe died.
    fn broadcast(&mut self, msg: &WireMsg, payload: &[u8]) -> Vec<(usize, LossCause)> {
        let ranks = self.assignment.clone();
        let mut dead = Vec::new();
        for rank in ranks {
            if self.workers[rank].state != WState::Active {
                continue;
            }
            if self.send_to(rank, msg, payload).is_err() {
                dead.push((rank, LossCause::PipeWrite));
            }
        }
        dead
    }

    /// (Re)assign every live worker its shard for the current epoch.
    /// Returns ranks whose pipe died mid-assign, if any.
    fn assign_all(&mut self, ckpt: Option<PathBuf>) -> Option<Vec<(usize, LossCause)>> {
        let nshards = self.assignment.len();
        let ranks = self.assignment.clone();
        let ckpt = ckpt.map(|p| p.display().to_string());
        let mut dead = Vec::new();
        for (shard_index, rank) in ranks.into_iter().enumerate() {
            let msg = WireMsg::Assign {
                epoch: self.epoch,
                nshards,
                shard_index,
                ckpt: ckpt.clone(),
            };
            if self.send_to(rank, &msg, &[]).is_err() {
                dead.push((rank, LossCause::PipeWrite));
            }
        }
        if dead.is_empty() {
            None
        } else {
            Some(dead)
        }
    }

    // ---- the router ---------------------------------------------------

    fn event_loop(&mut self) -> Result<FleetReport, FleetError> {
        loop {
            if self.started.elapsed() > Duration::from_millis(self.cfg.max_wall_ms) {
                return Err(FleetError::Protocol(format!(
                    "wall-clock budget ({} ms) exhausted",
                    self.cfg.max_wall_ms
                )));
            }
            if let Some(report) = self.try_complete()? {
                return Ok(report);
            }
            match self.rx.recv_timeout(Duration::from_millis(10)) {
                Ok(Inbound::Frame {
                    rank,
                    generation,
                    msg,
                    payload,
                }) => self.on_frame(rank, generation, msg, payload)?,
                Ok(Inbound::Gone {
                    rank,
                    generation,
                    torn,
                }) => self.on_gone(rank, generation, torn)?,
                Err(RecvTimeoutError::Timeout) => self.check_deadlines()?,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(FleetError::Protocol("inbound channel closed".into()));
                }
            }
        }
    }

    /// Completion: every shard reported a digest — verify unanimity.
    fn try_complete(&mut self) -> Result<Option<FleetReport>, FleetError> {
        if self.assignment.is_empty() {
            return Ok(None);
        }
        let mut digests = Vec::with_capacity(self.assignment.len());
        for &rank in &self.assignment {
            match self.workers[rank].digest {
                Some(d) => digests.push((rank, d)),
                None => return Ok(None),
            }
        }
        let (_, first) = digests[0];
        for &(rank, d) in &digests[1..] {
            if d != first {
                return Err(FleetError::DigestMismatch(format!(
                    "rank {} reported {:08x}@step {}, rank {} reported {:08x}@step {}",
                    digests[0].0, first.crc, first.step, rank, d.crc, d.step
                )));
            }
        }
        self.events.push(FleetEvent::DigestAgreed {
            crc: first.crc,
            step: first.step,
        });
        Ok(Some(FleetReport {
            digest: first,
            steps: first.step,
            workers_final: self.assignment.len(),
            rollbacks: self.counters.rollbacks,
            events: self.events.clone(),
            counters: self.counters,
            newest_checkpoint: self.newest_ckpt.clone(),
        }))
    }

    fn on_frame(
        &mut self,
        rank: usize,
        generation: u64,
        msg: WireMsg,
        payload: Vec<u8>,
    ) -> Result<(), FleetError> {
        {
            let w = &mut self.workers[rank];
            if generation != w.generation
                || !matches!(w.state, WState::Active | WState::Finished)
            {
                return Ok(()); // stale generation or already-resolved slot
            }
            w.last_seen = Instant::now();
            w.probing = None;
        }
        self.counters.frames_rx += 1;
        self.counters.bytes_rx += payload.len() as u64;
        match msg {
            WireMsg::Ready { .. } | WireMsg::Pong { .. } => {}
            WireMsg::Heartbeat { .. } => self.counters.heartbeats += 1,
            WireMsg::Bye { .. } => self.workers[rank].state = WState::Finished,
            WireMsg::DtLocal {
                epoch,
                step,
                min_bits,
            } => {
                if epoch == self.epoch {
                    self.on_dt_local(rank, step, min_bits)?;
                }
            }
            WireMsg::Slabs {
                epoch,
                seq,
                start,
                per_slab,
                crcs,
            } => {
                if epoch == self.epoch {
                    self.on_slabs(rank, seq, start, per_slab, crcs, payload)?;
                }
            }
            WireMsg::StepDone { .. } => {}
            WireMsg::CheckpointDone { epoch, step, path } => {
                if epoch == self.epoch {
                    let path = PathBuf::from(path);
                    self.counters.checkpoints += 1;
                    self.newest_ckpt = Some(path.clone());
                    self.events.push(FleetEvent::CheckpointRecorded { step, path });
                }
            }
            WireMsg::Digest {
                epoch,
                crc,
                step,
                time_bits,
                leaves,
                cells,
            } => {
                if epoch == self.epoch {
                    self.workers[rank].digest = Some(StateDigest {
                        crc,
                        step,
                        time_bits,
                        leaves,
                        cells,
                    });
                }
            }
            // Supervisor→worker messages arriving from a worker are a
            // protocol violation.
            WireMsg::Assign { .. }
            | WireMsg::DtGlobal { .. }
            | WireMsg::SlabsAll { .. }
            | WireMsg::Ping { .. }
            | WireMsg::Shutdown => {
                self.recover(vec![(rank, LossCause::TornFrame)])?;
            }
        }
        Ok(())
    }

    fn on_dt_local(&mut self, rank: usize, step: u64, min_bits: u64) -> Result<(), FleetError> {
        let nshards = self.assignment.len();
        let Some(shard) = self.shard_of(rank) else {
            return Ok(());
        };
        let entry = self
            .dt_pending
            .entry(step)
            .or_insert_with(|| vec![None; nshards]);
        if entry.len() != nshards {
            return Ok(()); // stale (pre-recovery) entry; epoch bump clears these
        }
        entry[shard] = Some(min_bits);
        if entry.iter().all(Option::is_some) {
            let min = entry
                .iter()
                .map(|b| f64::from_bits(b.unwrap_or(0)))
                .fold(f64::INFINITY, f64::min);
            self.dt_pending.remove(&step);
            let msg = WireMsg::DtGlobal {
                epoch: self.epoch,
                step,
                min_bits: min.to_bits(),
            };
            let dead = self.broadcast(&msg, &[]);
            if !dead.is_empty() {
                self.recover(dead)?;
            }
        }
        Ok(())
    }

    fn on_slabs(
        &mut self,
        rank: usize,
        seq: u64,
        start: usize,
        per_slab: usize,
        crcs: Vec<u32>,
        payload: Vec<u8>,
    ) -> Result<(), FleetError> {
        let nshards = self.assignment.len();
        let Some(shard) = self.shard_of(rank) else {
            return Ok(());
        };
        // Integrity at the boundary: the declared slab CRCs must match
        // the bytes. A mismatch is indistinguishable from a torn sender.
        if payload.len() != crcs.len() * per_slab * 8
            || (0..crcs.len())
                .any(|i| crc32(&payload[i * per_slab * 8..(i + 1) * per_slab * 8]) != crcs[i])
        {
            return self.recover(vec![(rank, LossCause::TornFrame)]);
        }
        let entry = self
            .slab_pending
            .entry(seq)
            .or_insert_with(|| (0..nshards).map(|_| None).collect());
        if entry.len() != nshards {
            return Ok(());
        }
        entry[shard] = Some(SlabSection {
            crcs,
            bytes: payload,
        });
        let _ = start; // contiguity re-derived below from shard order
        if entry.iter().all(Option::is_some) {
            // Invariant: all_some checked above.
            let sections = self.slab_pending.remove(&seq).unwrap_or_default();
            let mut all_crcs = Vec::new();
            let mut all_bytes = Vec::new();
            for section in sections.into_iter().flatten() {
                all_crcs.extend_from_slice(&section.crcs);
                all_bytes.extend_from_slice(&section.bytes);
            }
            let msg = WireMsg::SlabsAll {
                epoch: self.epoch,
                seq,
                per_slab,
                crcs: all_crcs,
            };
            let dead = self.broadcast(&msg, &all_bytes);
            if !dead.is_empty() {
                self.recover(dead)?;
            }
        }
        Ok(())
    }

    fn on_gone(&mut self, rank: usize, generation: u64, torn: bool) -> Result<(), FleetError> {
        let w = &mut self.workers[rank];
        if generation != w.generation {
            return Ok(());
        }
        match w.state {
            WState::Finished => {
                // Clean exit after Bye: reap quietly.
                if let Some(mut child) = w.child.take() {
                    let _ = child.wait();
                }
                w.stdin = None;
                Ok(())
            }
            WState::Active => {
                let cause = if torn {
                    LossCause::TornFrame
                } else {
                    LossCause::Eof
                };
                self.recover(vec![(rank, cause)])
            }
            WState::Dead | WState::Retired => Ok(()),
        }
    }

    // ---- failure detection --------------------------------------------

    fn check_deadlines(&mut self) -> Result<(), FleetError> {
        let now = Instant::now();
        let timeout = Duration::from_millis(self.cfg.heartbeat_timeout_ms);
        let mut dead = Vec::new();
        let mut probes = Vec::new();
        for rank in 0..self.workers.len() {
            let w = &mut self.workers[rank];
            if w.state != WState::Active {
                continue;
            }
            match &mut w.probing {
                None => {
                    if now.duration_since(w.last_seen) > timeout {
                        self.counters.heartbeat_misses += 1;
                        self.events.push(FleetEvent::HeartbeatMissed { rank });
                        w.probing = Some(Probing {
                            attempts: 0,
                            next_at: now,
                        });
                        probes.push(rank);
                    }
                }
                Some(p) => {
                    if now >= p.next_at {
                        if p.attempts >= self.cfg.probe_retries {
                            dead.push((rank, LossCause::HeartbeatTimeout));
                        } else {
                            probes.push(rank);
                        }
                    }
                }
            }
        }
        for rank in probes {
            if dead.iter().any(|&(r, _)| r == rank) {
                continue;
            }
            self.nonce += 1;
            let msg = WireMsg::Ping { nonce: self.nonce };
            if self.send_to(rank, &msg, &[]).is_err() {
                dead.push((rank, LossCause::PipeWrite));
                continue;
            }
            self.counters.probes += 1;
            let w = &mut self.workers[rank];
            if let Some(p) = &mut w.probing {
                // Exponential backoff: base, 2×, 4×, …
                let backoff = self.cfg.probe_backoff_ms << p.attempts.min(16);
                p.attempts += 1;
                p.next_at = Instant::now() + Duration::from_millis(backoff);
            }
        }
        if dead.is_empty() {
            Ok(())
        } else {
            self.recover(dead)
        }
    }

    // ---- the recovery ladder ------------------------------------------

    /// Handle one or more lost workers: sweep the fleet for concurrent
    /// victims, report losses in ascending rank order, respawn within
    /// budget (else retire + migrate), roll everyone back to the newest
    /// valid checkpoint under a fresh epoch.
    fn recover(&mut self, initial: Vec<(usize, LossCause)>) -> Result<(), FleetError> {
        let mut dead = initial;

        // Coalescing window: concurrent victims (e.g. two workers killed
        // at the same step boundary) may not all have hit the pipe yet.
        // Wait briefly, harvesting deaths, so they resolve in this round.
        let coalesce_end = Instant::now() + Duration::from_millis(self.cfg.coalesce_ms);
        loop {
            let now = Instant::now();
            if now >= coalesce_end {
                break;
            }
            match self.rx.recv_timeout(coalesce_end - now) {
                Ok(Inbound::Gone {
                    rank,
                    generation,
                    torn,
                }) => {
                    if generation == self.workers[rank].generation
                        && self.workers[rank].state == WState::Active
                        && !dead.iter().any(|&(d, _)| d == rank)
                    {
                        dead.push((
                            rank,
                            if torn {
                                LossCause::TornFrame
                            } else {
                                LossCause::Eof
                            },
                        ));
                    }
                }
                Ok(Inbound::Frame {
                    rank, generation, ..
                }) => {
                    // Liveness only; data frames are about to go stale.
                    if generation == self.workers[rank].generation {
                        self.workers[rank].last_seen = Instant::now();
                    }
                }
                Err(_) => break,
            }
        }

        // Ping-sweep every other active worker so concurrent deaths
        // resolve into this same round (deterministic ordering, one
        // rollback instead of a cascade).
        let mut awaiting: Vec<usize> = self
            .live_ranks()
            .into_iter()
            .filter(|r| {
                self.workers[*r].state == WState::Active && !dead.iter().any(|&(d, _)| d == *r)
            })
            .collect();
        for &rank in &awaiting.clone() {
            self.nonce += 1;
            let msg = WireMsg::Ping { nonce: self.nonce };
            if self.send_to(rank, &msg, &[]).is_err() {
                dead.push((rank, LossCause::PipeWrite));
                awaiting.retain(|&r| r != rank);
            } else {
                self.counters.probes += 1;
            }
        }
        let deadline = Instant::now() + Duration::from_millis(self.cfg.heartbeat_timeout_ms);
        while !awaiting.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.rx.recv_timeout(deadline - now) {
                Ok(Inbound::Frame {
                    rank, generation, ..
                }) => {
                    // Any current-generation frame proves liveness; data
                    // frames are about to go stale under the epoch bump.
                    if generation == self.workers[rank].generation {
                        self.workers[rank].last_seen = Instant::now();
                        awaiting.retain(|&r| r != rank);
                    }
                }
                Ok(Inbound::Gone {
                    rank,
                    generation,
                    torn,
                }) => {
                    if generation == self.workers[rank].generation
                        && self.workers[rank].state == WState::Active
                    {
                        dead.push((
                            rank,
                            if torn {
                                LossCause::TornFrame
                            } else {
                                LossCause::Eof
                            },
                        ));
                        awaiting.retain(|&r| r != rank);
                    }
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for rank in awaiting {
            dead.push((rank, LossCause::HeartbeatTimeout));
        }

        // Deterministic resolution order: ascending rank (= ascending
        // Morton shard) — asserted by tests/fleet_drill.rs.
        dead.sort_by_key(|&(r, _)| r);
        dead.dedup_by_key(|&mut (r, _)| r);

        let shards_before = self.assignment.len();
        for &(rank, cause) in &dead {
            let w = &mut self.workers[rank];
            if let Some(mut child) = w.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            w.stdin = None;
            w.state = WState::Dead;
            w.probing = None;
            self.counters.worker_losses += 1;
            self.events.push(FleetEvent::WorkerLost {
                rank,
                generation: w.generation,
                cause,
            });
        }

        // Respawn within budget; retire (migrate) past it.
        let mut retired = Vec::new();
        for &(rank, _) in &dead {
            if self.workers[rank].respawns_used < self.cfg.max_respawns {
                self.workers[rank].respawns_used += 1;
                if self.spawn(rank) {
                    self.counters.respawns += 1;
                    let generation = self.workers[rank].generation;
                    self.events.push(FleetEvent::Respawned { rank, generation });
                } else {
                    self.workers[rank].state = WState::Retired;
                    retired.push(rank);
                }
            } else {
                self.workers[rank].state = WState::Retired;
                retired.push(rank);
            }
        }

        let live = self.live_ranks();
        if live.is_empty() {
            return Err(self.all_lost());
        }
        for rank in retired {
            self.counters.migrations += 1;
            self.events.push(FleetEvent::ShardMigrated {
                rank,
                shards_before,
                shards_after: live.len(),
            });
        }

        // Fleet-wide rollback under a fresh epoch. The migration format
        // *is* the checkpoint slab format: survivors replay the same file
        // and carve the leaf space into fewer shards.
        let ckpt = self.newest_valid_checkpoint();
        self.epoch += 1;
        self.counters.rollbacks += 1;
        self.dt_pending.clear();
        self.slab_pending.clear();
        for w in &mut self.workers {
            w.digest = None;
        }
        let to_step = ckpt.as_ref().map(|(s, _)| *s).unwrap_or(0);
        let path = ckpt.map(|(_, p)| p);
        self.events.push(FleetEvent::RolledBack {
            epoch: self.epoch,
            to_step,
            checkpoint: path.clone(),
        });
        self.assignment = live;
        if let Some(dead) = self.assign_all(path) {
            return self.recover(dead);
        }
        Ok(())
    }

    /// Newest series entry whose header *and* every slab CRC verify — a
    /// mid-write tear (the `ckpt-write` / torn-boundary shapes) must never
    /// be chosen as a rollback target.
    fn newest_valid_checkpoint(&self) -> Option<(u64, PathBuf)> {
        let series = CheckpointSeries::new(&self.cfg.series_dir, &self.cfg.series_prefix);
        let mut found = series.scan().ok()?;
        found.reverse();
        found
            .into_iter()
            .find(|(_, path)| verify_checkpoint(path).is_ok())
    }

    fn all_lost(&mut self) -> FleetError {
        FleetError::AllWorkersLost {
            emergency_checkpoint: self.newest_valid_checkpoint().map(|(_, p)| p),
            events: std::mem::take(&mut self.events),
        }
    }
}

//! The fleet supervisor: spawn, watch, restart.
//!
//! The supervisor never models physics. It runs one worker process and a
//! failure detector:
//!
//! * **Detection** — the worker is *suspect* when its heartbeat deadline
//!   expires, then probed (`Ping`) with exponential backoff; it is *lost*
//!   on pipe EOF, a torn/corrupt frame, or probe exhaustion.
//! * **Recovery** — the ladder is detect → kill and reap → respawn from
//!   the newest series checkpoint that passes [`verify_checkpoint`] (or
//!   from step 0 when none does) → abort with that checkpoint named in the
//!   error once `max_respawns` launches are spent. A failed launch spends
//!   one unit of the budget too. Every transition is a typed
//!   [`FleetEvent`].
//!
//! Each launch is a new process with a new generation; frames from an
//! older generation still draining from its pipe are dropped.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use rflash_hugepages::faults::{self, FaultPlan, FaultSite};
use rflash_perfmon::FleetCounters;

use super::wire::{self, FrameError, WireMsg};
use crate::checkpoint::{verify_checkpoint, CheckpointSeries};
use crate::registry::StateDigest;

/// Everything a fleet run needs. `new` sets the failure-detector
/// tunables to their defaults: a 25 ms heartbeat, a 1 000 ms silence
/// budget and 3 probes (`run-fleet --heartbeat-ms` and
/// `--heartbeat-timeout-ms` override the first two).
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Binary to exec for the worker (normally the current executable; the
    /// worker entry is the hidden `fleet-worker` subcommand).
    pub worker_bin: PathBuf,
    /// Scenario name in the registry (built at smoke scale).
    pub setup: String,
    /// Steps to run.
    pub steps: u64,
    /// Series-checkpoint cadence (0 disables recovery points).
    pub checkpoint_every: u64,
    /// Series retention (0 keeps everything).
    pub keep_last: usize,
    /// Directory of the checkpoint series.
    pub series_dir: PathBuf,
    /// Filename prefix of the series.
    pub series_prefix: String,
    /// Worker heartbeat cadence (ms).
    pub heartbeat_ms: u64,
    /// Silence tolerated before the worker turns suspect (ms).
    pub heartbeat_timeout_ms: u64,
    /// Liveness probes (exponential backoff) before a suspect is lost.
    pub probe_retries: u32,
    /// First probe backoff (ms); doubles per retry.
    pub probe_backoff_ms: u64,
    /// Launches allowed after the first (failed launches included).
    pub max_respawns: u32,
    /// Overall wall-clock abort (ms) — a supervisor must never hang.
    pub max_wall_ms: u64,
    /// Fault spec injected into the *first* worker process via
    /// `RFLASH_FAULTS` (respawned generations run clean).
    pub worker_faults: Option<String>,
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
        FleetConfig {
            worker_bin: worker_bin.into(),
            setup: setup.into(),
            steps,
            checkpoint_every: 1,
            keep_last: 0,
            series_dir: series_dir.into(),
            series_prefix: "fleet".into(),
            heartbeat_ms: 25,
            heartbeat_timeout_ms: 1000,
            probe_retries: 3,
            probe_backoff_ms: 40,
            max_respawns: 2,
            max_wall_ms: 120_000,
            worker_faults: None,
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
    /// A worker process launched (generation 1 = the first launch).
    Spawned { generation: u64 },
    /// A launch attempt failed (including the injected `spawn-fail`).
    SpawnFailed { error: String },
    /// A heartbeat deadline expired; the probe ladder started.
    HeartbeatMissed { generation: u64 },
    /// The worker was declared lost.
    WorkerLost { generation: u64, cause: LossCause },
    /// A lost worker was replaced by a new process.
    Respawned { generation: u64 },
    /// The replacement resumed from `checkpoint` at `to_step` (`None`:
    /// rebuilt from the spec at step 0).
    RolledBack {
        to_step: u64,
        checkpoint: Option<PathBuf>,
    },
    /// The worker recorded a series checkpoint it can restart from.
    CheckpointRecorded { step: u64, path: PathBuf },
    /// The worker reported its final digest.
    DigestReported { crc: u32, step: u64 },
}

/// Terminal fleet failures.
#[derive(Debug)]
pub enum FleetError {
    Config(String),
    Io(std::io::Error),
    /// The worker is gone and the respawn budget spent. The newest valid
    /// checkpoint — the emergency restart point — is named, and the full
    /// event trail rides along.
    AllWorkersLost {
        emergency_checkpoint: Option<PathBuf>,
        events: Vec<FleetEvent>,
    },
    /// The worker violated the protocol in a way recovery can't absorb, or
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
    /// The worker's final digest.
    pub digest: StateDigest,
    /// Steps run.
    pub steps: u64,
    /// Restarts from a checkpoint (or from step 0) survived.
    pub rollbacks: u64,
    /// The full ordered event trail.
    pub events: Vec<FleetEvent>,
    /// Monotonic counters (printed by `rflash run-fleet`, asserted by the
    /// fleet drills).
    pub counters: FleetCounters,
    /// Newest recovery point recorded during the run.
    pub newest_checkpoint: Option<PathBuf>,
}

/// What the pipe reader thread feeds the supervisor loop.
enum Inbound {
    Frame {
        generation: u64,
        msg: WireMsg,
        bytes: usize,
    },
    Gone {
        generation: u64,
        torn: bool,
    },
}

/// The probe ladder state of a suspect worker.
struct Probing {
    attempts: u32,
    next_at: Instant,
}

/// The live worker process.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    last_seen: Instant,
    probing: Option<Probing>,
    /// The final digest, once reported.
    digest: Option<StateDigest>,
    /// Said `Bye` after its digest: the run is complete and the process
    /// exits by itself.
    finished: bool,
}

struct Supervisor {
    cfg: FleetConfig,
    tx: Sender<Inbound>,
    rx: Receiver<Inbound>,
    worker: Option<Worker>,
    /// Generation of the newest launched process.
    generation: u64,
    respawns_used: u32,
    events: Vec<FleetEvent>,
    counters: FleetCounters,
    newest_ckpt: Option<PathBuf>,
    started: Instant,
    nonce: u64,
}

/// Run a supervised fleet to completion. Blocks until the worker reports
/// its final digest, or until the recovery ladder is exhausted.
pub fn run_fleet(cfg: FleetConfig) -> Result<FleetReport, FleetError> {
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
    let mut sup = Supervisor {
        cfg,
        tx,
        rx,
        worker: None,
        generation: 0,
        respawns_used: 0,
        events: Vec::new(),
        counters: FleetCounters::default(),
        newest_ckpt: None,
        started: Instant::now(),
        nonce: 0,
    };
    let result = sup.run();
    sup.reap();
    result
}

impl Supervisor {
    fn run(&mut self) -> Result<FleetReport, FleetError> {
        if !self.spawn(None) {
            self.respawn()?;
        }
        loop {
            if self.started.elapsed() > Duration::from_millis(self.cfg.max_wall_ms) {
                return Err(FleetError::Protocol(format!(
                    "wall-clock budget ({} ms) exhausted",
                    self.cfg.max_wall_ms
                )));
            }
            match self.rx.recv_timeout(Duration::from_millis(10)) {
                Ok(Inbound::Frame {
                    generation,
                    msg,
                    bytes,
                }) => {
                    if let Some(report) = self.on_frame(generation, msg, bytes)? {
                        return Ok(report);
                    }
                }
                Ok(Inbound::Gone { generation, torn }) => self.on_gone(generation, torn)?,
                Err(RecvTimeoutError::Timeout) => self.check_deadline()?,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(FleetError::Protocol("inbound channel closed".into()));
                }
            }
        }
    }

    // ---- lifecycle ----------------------------------------------------

    /// Launch a worker, resuming from `resume` when given. Consults the
    /// `spawn-fail` site on *every* attempt — the first launch included —
    /// so `nth:N` specs count launches deterministically.
    fn spawn(&mut self, resume: Option<&Path>) -> bool {
        if faults::fires(FaultSite::SpawnFail) {
            self.spawn_failed("injected spawn-fail".into());
            return false;
        }
        let generation = self.generation + 1;
        let mut cmd = Command::new(&self.cfg.worker_bin);
        cmd.arg("fleet-worker")
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
            // The worker never inherits the supervisor's fault spec;
            // injected faults go only to the first generation.
            .env_remove("RFLASH_FAULTS");
        if let Some(path) = resume {
            cmd.arg("--resume").arg(path);
        }
        if generation == 1 {
            if let Some(spec) = &self.cfg.worker_faults {
                cmd.env("RFLASH_FAULTS", spec);
            }
        }
        let mut child = match cmd.spawn() {
            Ok(child) => child,
            Err(e) => {
                self.spawn_failed(e.to_string());
                return false;
            }
        };
        // Invariant: both pipes were requested above.
        let stdout = child.stdout.take().unwrap();
        let stdin = child.stdin.take().unwrap();
        let tx = self.tx.clone();
        std::thread::spawn(move || {
            let mut r = std::io::BufReader::new(stdout);
            loop {
                let inbound = match wire::read_frame(&mut r) {
                    Ok((msg, bytes)) => Inbound::Frame {
                        generation,
                        msg,
                        bytes,
                    },
                    Err(e) => Inbound::Gone {
                        generation,
                        torn: !matches!(e, FrameError::Eof),
                    },
                };
                let gone = matches!(inbound, Inbound::Gone { .. });
                if tx.send(inbound).is_err() || gone {
                    return;
                }
            }
        });
        self.generation = generation;
        self.worker = Some(Worker {
            child,
            stdin,
            last_seen: Instant::now(),
            probing: None,
            digest: None,
            finished: false,
        });
        self.counters.spawns += 1;
        self.events.push(FleetEvent::Spawned { generation });
        true
    }

    fn spawn_failed(&mut self, error: String) {
        self.counters.spawn_failures += 1;
        self.events.push(FleetEvent::SpawnFailed { error });
    }

    /// Relaunch from the newest valid checkpoint, spending the respawn
    /// budget one launch attempt at a time.
    fn respawn(&mut self) -> Result<(), FleetError> {
        while self.respawns_used < self.cfg.max_respawns {
            self.respawns_used += 1;
            let ckpt = self.newest_valid_checkpoint();
            if self.spawn(ckpt.as_ref().map(|(_, p)| p.as_path())) {
                self.counters.respawns += 1;
                self.counters.rollbacks += 1;
                self.events.push(FleetEvent::Respawned {
                    generation: self.generation,
                });
                self.events.push(FleetEvent::RolledBack {
                    to_step: ckpt.as_ref().map_or(0, |(s, _)| *s),
                    checkpoint: ckpt.map(|(_, p)| p),
                });
                return Ok(());
            }
        }
        Err(FleetError::AllWorkersLost {
            emergency_checkpoint: self.newest_valid_checkpoint().map(|(_, p)| p),
            events: std::mem::take(&mut self.events),
        })
    }

    /// Declare the worker lost: kill and reap it, then respawn.
    fn lose(&mut self, cause: LossCause) -> Result<(), FleetError> {
        self.reap();
        self.counters.worker_losses += 1;
        self.events.push(FleetEvent::WorkerLost {
            generation: self.generation,
            cause,
        });
        self.respawn()
    }

    /// Kill (unless it said `Bye`) and reap the worker.
    fn reap(&mut self) {
        if let Some(mut w) = self.worker.take() {
            drop(w.stdin);
            if !w.finished {
                let _ = w.child.kill();
            }
            let _ = w.child.wait();
        }
    }

    // ---- inbound ------------------------------------------------------

    fn on_frame(
        &mut self,
        generation: u64,
        msg: WireMsg,
        bytes: usize,
    ) -> Result<Option<FleetReport>, FleetError> {
        let Some(w) = self
            .worker
            .as_mut()
            .filter(|_| generation == self.generation)
        else {
            return Ok(None); // a frame of an earlier generation
        };
        w.last_seen = Instant::now();
        w.probing = None;
        self.counters.frames_rx += 1;
        self.counters.bytes_rx += bytes as u64;
        match msg {
            WireMsg::Pong { .. } | WireMsg::StepDone { .. } => {}
            WireMsg::Heartbeat => self.counters.heartbeats += 1,
            WireMsg::CheckpointDone { step, path } => {
                let path = PathBuf::from(path);
                self.counters.checkpoints += 1;
                self.newest_ckpt = Some(path.clone());
                self.events
                    .push(FleetEvent::CheckpointRecorded { step, path });
            }
            WireMsg::Digest {
                crc,
                step,
                time_bits,
                leaves,
                cells,
            } => {
                self.events.push(FleetEvent::DigestReported { crc, step });
                w.digest = Some(StateDigest {
                    crc,
                    step,
                    time_bits,
                    leaves,
                    cells,
                });
            }
            WireMsg::Bye => {
                w.finished = true;
                let digest = w
                    .digest
                    .ok_or_else(|| FleetError::Protocol("worker said Bye before Digest".into()))?;
                return Ok(Some(FleetReport {
                    digest,
                    steps: digest.step,
                    rollbacks: self.counters.rollbacks,
                    events: self.events.clone(),
                    counters: self.counters,
                    newest_checkpoint: self.newest_ckpt.clone(),
                }));
            }
            // A supervisor→worker message arriving from the worker is a
            // protocol violation.
            WireMsg::Ping { .. } => self.lose(LossCause::TornFrame)?,
        }
        Ok(None)
    }

    fn on_gone(&mut self, generation: u64, torn: bool) -> Result<(), FleetError> {
        if generation != self.generation {
            return Ok(()); // an earlier generation's pipe
        }
        self.lose(if torn {
            LossCause::TornFrame
        } else {
            LossCause::Eof
        })
    }

    // ---- failure detection --------------------------------------------

    /// Walk the heartbeat deadline and the probe ladder.
    fn check_deadline(&mut self) -> Result<(), FleetError> {
        let now = Instant::now();
        let timeout = Duration::from_millis(self.cfg.heartbeat_timeout_ms);
        let generation = self.generation;
        let Some(w) = self.worker.as_mut() else {
            return Ok(());
        };
        match &w.probing {
            None if now.duration_since(w.last_seen) > timeout => {
                self.counters.heartbeat_misses += 1;
                self.events.push(FleetEvent::HeartbeatMissed { generation });
                w.probing = Some(Probing {
                    attempts: 0,
                    next_at: now,
                });
            }
            Some(p) if now >= p.next_at && p.attempts >= self.cfg.probe_retries => {
                return self.lose(LossCause::HeartbeatTimeout);
            }
            _ => {}
        }
        let Some(p) = w.probing.as_mut().filter(|p| now >= p.next_at) else {
            return Ok(());
        };
        // Exponential backoff: base, 2×, 4×, …
        p.next_at = now + Duration::from_millis(self.cfg.probe_backoff_ms << p.attempts.min(16));
        p.attempts += 1;
        self.nonce += 1;
        if self.send(&WireMsg::Ping { nonce: self.nonce }).is_err() {
            return self.lose(LossCause::PipeWrite);
        }
        self.counters.probes += 1;
        Ok(())
    }

    /// Send one frame to the worker.
    fn send(&mut self, msg: &WireMsg) -> Result<(), ()> {
        let frame = wire::encode_frame(msg).map_err(|_| ())?;
        let w = self.worker.as_mut().ok_or(())?;
        w.stdin
            .write_all(&frame)
            .and_then(|_| w.stdin.flush())
            .map_err(|_| ())?;
        self.counters.frames_tx += 1;
        self.counters.bytes_tx += frame.len() as u64;
        Ok(())
    }

    /// Newest series entry whose header *and* every slab CRC verify — a
    /// mid-write tear (the `ckpt-write` / torn-boundary shapes) must never
    /// be chosen as a restart point.
    fn newest_valid_checkpoint(&self) -> Option<(u64, PathBuf)> {
        let series = CheckpointSeries::new(&self.cfg.series_dir, &self.cfg.series_prefix);
        let mut found = series.scan().ok()?;
        found.reverse();
        found
            .into_iter()
            .find(|(_, path)| verify_checkpoint(path).is_ok())
    }
}

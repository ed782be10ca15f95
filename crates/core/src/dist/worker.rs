//! The fleet worker: one process running the product step loop.
//!
//! A worker builds the smoke-scale scenario from its spec — or resumes it
//! from the checkpoint named on its command line — and advances it only
//! through [`Simulation::try_step`], so it runs under the step guardian
//! like any in-process run. After each step it reports `StepDone`; every
//! `checkpoint_every` steps it writes a series checkpoint and reports
//! `CheckpointDone`; at the end it reports its `Digest` and says `Bye`.
//! Its emergency series is the fleet series, so a guardian abort leaves
//! the rolled-back state exactly where the supervisor looks for a restart
//! point.
//!
//! Threads: the main thread steps; a reader thread drains stdin,
//! answering `Ping` inline so probes work even mid-step; a heartbeat
//! thread emits periodic liveness frames. All writes go through one
//! mutex'd stdout and a single `write_all`, so frames never interleave.
//!
//! Fault hooks (`RFLASH_FAULTS`, consulted once per step boundary, in a
//! fixed order, so `nth:N` specs count boundaries deterministically):
//! `worker-kill` exits abruptly mid-protocol; `heartbeat-drop` goes
//! permanently silent (heartbeats stop, probes go unanswered) without
//! exiting; `msg-truncate` cuts the next outbound frame short and then
//! dies — the exact bytes a crash mid-send leaves on the pipe.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rflash_hugepages::faults::{self, FaultSite, IoFault};
use rflash_hugepages::Policy;

use super::wire::{self, WireMsg};
use crate::checkpoint::{read_checkpoint, CheckpointSeries};
use crate::registry::{self, StateDigest};
use crate::{RuntimeParams, Simulation};

/// Everything a worker process needs, fixed for its lifetime.
#[derive(Clone, Debug)]
pub struct WorkerArgs {
    /// Scenario name in the registry (built at smoke scale).
    pub setup: String,
    /// Total steps of the run.
    pub steps: u64,
    /// Series-checkpoint cadence (0 disables).
    pub checkpoint_every: u64,
    /// Series retention (0 keeps everything).
    pub keep_last: usize,
    /// Directory of the checkpoint series.
    pub series_dir: PathBuf,
    /// Filename prefix of the series.
    pub series_prefix: String,
    /// Heartbeat cadence in milliseconds.
    pub heartbeat_ms: u64,
    /// Checkpoint to resume from (`None`: build from the spec at step 0).
    pub resume: Option<PathBuf>,
}

/// The write side shared by the main, reader (pong), and heartbeat
/// threads.
struct Shared {
    writer: Mutex<std::io::Stdout>,
    /// Set by the `heartbeat-drop` fault: stop all liveness traffic.
    silent: AtomicBool,
}

impl Shared {
    /// Send a frame outside the fault-injection path (heartbeats, pongs).
    /// These never consult fault counters — `nth:N` specs must count only
    /// deterministic protocol sends.
    fn send_unchecked(&self, msg: &WireMsg) -> Result<(), ()> {
        let frame = wire::encode_frame(msg).map_err(|_| ())?;
        let mut w = self.writer.lock().map_err(|_| ())?;
        w.write_all(&frame).and_then(|_| w.flush()).map_err(|_| ())
    }

    /// Send one protocol frame, honoring an armed truncation fault.
    fn send(&self, msg: &WireMsg, truncate: &mut Option<IoFault>) -> Result<(), String> {
        let frame = wire::encode_frame(msg).map_err(|e| format!("encode: {e}"))?;
        let mut w = self
            .writer
            .lock()
            .map_err(|_| "writer poisoned".to_string())?;
        if let Some(fault) = truncate.take() {
            // Leave a torn frame on the pipe — the bytes a crash mid-send
            // leaves — then die the way the crash would.
            let cut = match fault {
                IoFault::ShortWrite(n) => n.min(frame.len()),
                IoFault::Errno(_) => frame.len() / 2,
            };
            let _ = w.write_all(&frame[..cut]);
            let _ = w.flush();
            std::process::exit(102);
        }
        w.write_all(&frame)
            .and_then(|_| w.flush())
            .map_err(|e| format!("supervisor pipe: {e}"))
    }
}

/// Entry point for the `fleet-worker` subcommand.
pub fn worker_main(args: WorkerArgs) -> Result<(), String> {
    let shared = Arc::new(Shared {
        writer: Mutex::new(std::io::stdout()),
        silent: AtomicBool::new(false),
    });
    {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || reader_loop(&shared));
    }
    {
        let shared = Arc::clone(&shared);
        let interval = Duration::from_millis(args.heartbeat_ms.max(1));
        std::thread::spawn(move || heartbeat_loop(&shared, interval));
    }

    let mut series = CheckpointSeries::new(&args.series_dir, &args.series_prefix);
    if args.keep_last > 0 {
        series = series.keep_last(args.keep_last);
    }
    let mut sim = build_sim(&args)?;
    sim.emergency_series = Some(series.clone());

    let mut truncate = None;
    while sim.step < args.steps {
        step_boundary_faults(&shared, &mut truncate);
        sim.try_step().map_err(|e| e.to_string())?;
        shared.send(
            &WireMsg::StepDone {
                step: sim.step,
                time_bits: sim.time.to_bits(),
            },
            &mut truncate,
        )?;
        if args.checkpoint_every > 0 && sim.step.is_multiple_of(args.checkpoint_every) {
            let path = series
                .write(&sim)
                .map_err(|e| format!("series checkpoint: {e}"))?;
            shared.send(
                &WireMsg::CheckpointDone {
                    step: sim.step,
                    path: path.display().to_string(),
                },
                &mut truncate,
            )?;
        }
    }

    let d = StateDigest::of(&sim);
    shared.send(
        &WireMsg::Digest {
            crc: d.crc,
            step: d.step,
            time_bits: d.time_bits,
            leaves: d.leaves,
            cells: d.cells,
        },
        &mut truncate,
    )?;
    shared.send(&WireMsg::Bye, &mut truncate)
}

/// Drain stdin, answering probes inline. Anything else from the
/// supervisor is ignored; a closed pipe ends the thread (the main thread
/// notices on its next send).
fn reader_loop(shared: &Shared) {
    let mut stdin = std::io::stdin();
    while let Ok((msg, _)) = wire::read_frame(&mut stdin) {
        if let WireMsg::Ping { nonce } = msg {
            if !shared.silent.load(Ordering::SeqCst) {
                let _ = shared.send_unchecked(&WireMsg::Pong { nonce });
            }
        }
    }
}

/// Periodic liveness signal. Returns (ending heartbeats for good) when
/// silenced by the `heartbeat-drop` fault or when the pipe dies.
fn heartbeat_loop(shared: &Shared, interval: Duration) {
    loop {
        std::thread::sleep(interval);
        if shared.silent.load(Ordering::SeqCst) {
            return;
        }
        if shared.send_unchecked(&WireMsg::Heartbeat).is_err() {
            return;
        }
    }
}

/// Build the smoke-scale run fresh from the spec, or resume it from the
/// checkpoint on the command line through [`crate::SetupSpec::resume`].
fn build_sim(args: &WorkerArgs) -> Result<Simulation, String> {
    let spec = registry::load(&args.setup)
        .map_err(|e| format!("load {}: {e}", args.setup))?
        .at_smoke_scale();
    match &args.resume {
        None => {
            let params = RuntimeParams {
                policy: Policy::None,
                use_hw: false,
                pattern_every: 0,
                gather_every: 0,
                nranks: 1,
                ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
            };
            spec.build(params)
                .map_err(|e| format!("build {}: {e}", args.setup))
        }
        Some(path) => {
            let state =
                read_checkpoint(path).map_err(|e| format!("resume {}: {e}", path.display()))?;
            spec.resume(state)
                .map_err(|e| format!("resume {}: {e}", path.display()))
        }
    }
}

/// Consult the step-boundary fault sites, in a fixed order.
fn step_boundary_faults(shared: &Shared, truncate: &mut Option<IoFault>) {
    if faults::fires(FaultSite::WorkerKill) {
        // Abrupt death: no Bye, nothing flushed — the supervisor sees EOF.
        std::process::exit(101);
    }
    if faults::fires(FaultSite::HeartbeatDrop) {
        // Permanently silent hang: heartbeats and pongs stop, the
        // protocol stalls, and only the supervisor's kill ends us.
        shared.silent.store(true, Ordering::SeqCst);
        loop {
            std::thread::park();
        }
    }
    if let Some(fault) = faults::check_io(FaultSite::MsgTruncate) {
        *truncate = Some(fault);
    }
}

//! The fleet worker: one process, one shard, a full deterministic replica.
//!
//! A worker rebuilds the whole simulation from the scenario spec (or
//! replays it from a checkpoint the supervisor names), then walks the step
//! loop in lock-step with the fleet. Its *owned* contiguous Morton shard
//! of leaf blocks is the part it computes authoritatively; everything else
//! is a replica kept current by the slab exchange that precedes every
//! guard-cell fill. Because guard cells are a pure function of interiors
//! and boundary conditions, and every per-block kernel is block-pure, the
//! worker's state at each exchange point is bit-identical to the
//! single-process driver's — which is the whole correctness contract
//! (`tests/fleet_drill.rs` holds it against the golden digests).
//!
//! Threads: the main thread runs protocol + physics; a reader thread
//! drains stdin (answering `Ping` inline so probes work even mid-sweep);
//! a heartbeat thread emits periodic liveness frames. All writes go
//! through one mutex'd stdout and a single `write_all`, so frames never
//! interleave.
//!
//! Fault hooks (`RFLASH_FAULTS`, consulted once per step boundary, in a
//! fixed order, so `nth:N` specs count boundaries deterministically):
//! `worker-kill` exits abruptly mid-protocol; `heartbeat-drop` goes
//! permanently silent (heartbeats stop, probes go unanswered) without
//! exiting; `msg-truncate` cuts the next outbound frame short and then
//! dies — the exact bytes a crash mid-send leaves on the pipe.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rflash_gravity::{apply_gravity, GravityField};
use rflash_hugepages::faults::{self, FaultSite, IoFault};
use rflash_hugepages::Policy;
use rflash_hydro::{
    apply_block_corrections, block_min_wavetime_slab, sweep_leaf_block, SweepEos, NFLUX,
};
use rflash_mesh::flux::{Correction, Face};
use rflash_mesh::refine::lohner_marks;
use rflash_mesh::tree::Neighbor;
use rflash_mesh::{BlockId, BlockState, GuardNeed, Tree};
use rflash_perfmon::Probe;

use super::wire::{self, WireMsg};
use super::shard_range;
use crate::checkpoint::{read_checkpoint, CheckpointSeries};
use crate::crc32::crc32;
use crate::registry::{self, StateDigest};
use crate::{RuntimeParams, Simulation};

/// Everything a worker process needs that is fixed for its lifetime.
/// The shard assignment is *not* here — it arrives (and re-arrives, after
/// rollbacks) over the wire as [`WireMsg::Assign`].
#[derive(Clone, Debug)]
pub struct WorkerArgs {
    /// This worker's fleet rank (stable across respawns of the same slot).
    pub rank: usize,
    /// Scenario name in the registry (built at smoke scale).
    pub setup: String,
    /// Total steps the fleet will run.
    pub steps: u64,
    /// Series-checkpoint cadence (0 disables; only shard 0 writes).
    pub checkpoint_every: u64,
    /// Series retention (0 keeps everything).
    pub keep_last: usize,
    /// Directory of the shared `CheckpointSeries`.
    pub series_dir: PathBuf,
    /// Filename prefix of the shared series.
    pub series_prefix: String,
    /// Heartbeat cadence in milliseconds.
    pub heartbeat_ms: u64,
}

/// Why the step loop stopped before the run completed.
enum Interrupt {
    /// The supervisor reassigned us (rollback or migration): rebuild and
    /// rerun.
    Reassign(Assignment),
    /// Orderly stop.
    Shutdown,
    /// The supervisor's pipe closed under us.
    SupervisorGone,
    /// Unrecoverable local error (bad replay, protocol corruption).
    Fatal(String),
}

/// One shard assignment, as delivered by [`WireMsg::Assign`].
#[derive(Clone, Debug)]
struct Assignment {
    epoch: u64,
    nshards: usize,
    shard_index: usize,
    ckpt: Option<PathBuf>,
}

/// What the reader thread forwards to the main thread.
enum FromSup {
    Msg(WireMsg, Vec<u8>),
    Gone,
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
        let frame = wire::encode_frame(msg, &[]).map_err(|_| ())?;
        let mut w = self.writer.lock().map_err(|_| ())?;
        w.write_all(&frame).and_then(|_| w.flush()).map_err(|_| ())
    }
}

/// Entry point for the `fleet-worker` subcommand.
pub fn worker_main(args: WorkerArgs) -> Result<(), String> {
    let shared = Arc::new(Shared {
        writer: Mutex::new(std::io::stdout()),
        silent: AtomicBool::new(false),
    });
    let (tx, rx) = mpsc::channel::<FromSup>();

    {
        let shared = Arc::clone(&shared);
        let tx = tx.clone();
        std::thread::spawn(move || reader_loop(&shared, &tx));
    }
    {
        let shared = Arc::clone(&shared);
        let interval = Duration::from_millis(args.heartbeat_ms.max(1));
        std::thread::spawn(move || heartbeat_loop(&shared, interval));
    }

    let mut ctx = Ctx {
        shared: &shared,
        rx: &rx,
        truncate: None,
    };
    ctx.send(&WireMsg::Ready { rank: args.rank }, &[])
        .map_err(|_| "supervisor gone before Ready".to_string())?;

    let mut next: Option<Assignment> = None;
    loop {
        let assignment = match next.take() {
            Some(a) => a,
            None => match wait_assign(&rx) {
                Ok(a) => a,
                Err(Interrupt::Shutdown) => return Ok(()),
                Err(_) => return Err("supervisor gone awaiting Assign".into()),
            },
        };
        match run_epoch(&mut ctx, &args, &assignment) {
            Ok(()) => return Ok(()),
            Err(Interrupt::Reassign(a)) => next = Some(a),
            Err(Interrupt::Shutdown) => return Ok(()),
            Err(Interrupt::SupervisorGone) => return Err("supervisor pipe closed".into()),
            Err(Interrupt::Fatal(m)) => return Err(m),
        }
    }
}

/// Drain stdin: answer probes inline, forward everything else.
fn reader_loop(shared: &Shared, tx: &Sender<FromSup>) {
    let mut stdin = std::io::stdin();
    loop {
        match wire::read_frame(&mut stdin) {
            Ok((WireMsg::Ping { nonce }, _)) => {
                if !shared.silent.load(Ordering::SeqCst) {
                    let _ = shared.send_unchecked(&WireMsg::Pong { nonce });
                }
            }
            Ok((msg, payload)) => {
                if tx.send(FromSup::Msg(msg, payload)).is_err() {
                    return;
                }
            }
            Err(_) => {
                let _ = tx.send(FromSup::Gone);
                return;
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
        // The epoch is advisory on heartbeats; the supervisor only uses
        // their arrival time.
        if shared.send_unchecked(&WireMsg::Heartbeat { epoch: 0 }).is_err() {
            return;
        }
    }
}

/// Main-thread protocol context: the fault-aware send path plus the
/// channel the reader feeds.
struct Ctx<'a> {
    shared: &'a Shared,
    rx: &'a Receiver<FromSup>,
    /// Armed by the `msg-truncate` fault: cut the next frame short, then
    /// die.
    truncate: Option<IoFault>,
}

impl Ctx<'_> {
    /// Send one protocol frame, honoring an armed truncation fault.
    fn send(&mut self, msg: &WireMsg, slabs: &[u8]) -> Result<(), Interrupt> {
        let frame = wire::encode_frame(msg, slabs)
            .map_err(|e| Interrupt::Fatal(format!("encode: {e}")))?;
        if let Some(fault) = self.truncate.take() {
            // Leave a torn frame on the pipe — the bytes a crash mid-send
            // leaves — then die the way the crash would.
            let cut = match fault {
                IoFault::ShortWrite(n) => n.min(frame.len()),
                IoFault::Errno(_) => frame.len() / 2,
            };
            if let Ok(mut w) = self.shared.writer.lock() {
                let _ = w.write_all(&frame[..cut]);
                let _ = w.flush();
            }
            std::process::exit(102);
        }
        let mut w = self
            .shared
            .writer
            .lock()
            .map_err(|_| Interrupt::Fatal("writer poisoned".into()))?;
        w.write_all(&frame)
            .and_then(|_| w.flush())
            .map_err(|_| Interrupt::SupervisorGone)
    }

    /// Receive the next supervisor message, mapping control messages to
    /// interrupts. `stale` sees (and drops) everything else that does not
    /// match what the caller is waiting for.
    fn recv(&self) -> Result<(WireMsg, Vec<u8>), Interrupt> {
        match self.rx.recv() {
            Ok(FromSup::Msg(m, p)) => Ok((m, p)),
            Ok(FromSup::Gone) | Err(_) => Err(Interrupt::SupervisorGone),
        }
    }
}

/// Block until the first `Assign` arrives.
fn wait_assign(rx: &Receiver<FromSup>) -> Result<Assignment, Interrupt> {
    loop {
        match rx.recv() {
            Ok(FromSup::Msg(msg, _)) => {
                if let Some(i) = control(msg) {
                    match i {
                        Interrupt::Reassign(a) => return Ok(a),
                        other => return Err(other),
                    }
                }
            }
            Ok(FromSup::Gone) | Err(_) => return Err(Interrupt::SupervisorGone),
        }
    }
}

/// Map a control message to its interrupt; `None` for data messages.
fn control(msg: WireMsg) -> Option<Interrupt> {
    match msg {
        WireMsg::Assign {
            epoch,
            nshards,
            shard_index,
            ckpt,
        } => Some(Interrupt::Reassign(Assignment {
            epoch,
            nshards,
            shard_index,
            ckpt: ckpt.map(PathBuf::from),
        })),
        WireMsg::Shutdown => Some(Interrupt::Shutdown),
        _ => None,
    }
}

/// Build the worker's replica: fresh from the spec, or replayed from the
/// checkpoint the supervisor named. A checkpoint restores mesh + state,
/// not the physics objects, so flame/gravity/refinement config transplant
/// from a spec-built twin — that twin is deterministic, so replay is
/// bit-identical.
fn build_sim(args: &WorkerArgs, ckpt: Option<&Path>) -> Result<Simulation, String> {
    let spec = registry::load(&args.setup)
        .map_err(|e| format!("load {}: {e}", args.setup))?
        .at_smoke_scale();
    let params = RuntimeParams {
        policy: Policy::None,
        use_hw: false,
        pattern_every: 0,
        gather_every: 0,
        nranks: 1,
        ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
    };
    let fresh = spec
        .build(params)
        .map_err(|e| format!("build {}: {e}", args.setup))?;
    match ckpt {
        None => Ok(fresh),
        Some(path) => {
            let restored = read_checkpoint(path)
                .map_err(|e| format!("replay {}: {e}", path.display()))?;
            let Simulation {
                eos,
                comp,
                flame,
                gravity,
                refine_vars,
                lohner,
                ..
            } = fresh;
            let mut sim = restored.into_simulation(eos, comp);
            sim.flame = flame;
            sim.gravity = gravity;
            sim.refine_vars = refine_vars;
            sim.lohner = lohner;
            Ok(sim)
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

/// Run one epoch: build (or replay) the replica, then step to completion
/// unless the supervisor interrupts with a new assignment.
fn run_epoch(ctx: &mut Ctx<'_>, args: &WorkerArgs, a: &Assignment) -> Result<(), Interrupt> {
    let mut sim = build_sim(args, a.ckpt.as_deref()).map_err(Interrupt::Fatal)?;
    let cfl = sim.params.cfl;
    // Exchange sequence numbers are local to the epoch; both sides count
    // the same protocol events, so they agree without negotiation.
    let mut seq: u64 = 0;

    while sim.step < args.steps {
        step_boundary_faults(ctx.shared, &mut ctx.truncate);

        // ---- dt: local shard minimum, fleet-wide f64 min, cfl applied
        // locally (identical op on identical bits everywhere) ----
        let local = local_wavetime_min(&sim, a);
        ctx.send(
            &WireMsg::DtLocal {
                epoch: a.epoch,
                step: sim.step,
                min_bits: local.to_bits(),
            },
            &[],
        )?;
        let dt = cfl * wait_dt(ctx, a, sim.step)?;

        // ---- split sweeps, alternating direction order like the
        // single-process driver ----
        let ndim = sim.domain.tree.config().ndim;
        let dirs: Vec<usize> = if sim.step.is_multiple_of(2) {
            (0..ndim).collect()
        } else {
            (0..ndim).rev().collect()
        };
        for dir in dirs {
            exchange(ctx, a, &mut sim, &mut seq)?;
            sim.domain
                .fill_guardcells_for(sim.params.nranks, GuardNeed::Axis(dir));
            sweep_shard(&mut sim, a, dir, dt);
            eos_shard(&mut sim, a);
        }

        // ---- flame ----
        if sim.flame.is_some() {
            exchange(ctx, a, &mut sim, &mut seq)?;
            sim.domain
                .fill_guardcells_for(sim.params.nranks, GuardNeed::Faces);
            if let Some(flame) = &sim.flame {
                // Full-domain advance on replica-identical inputs; only
                // owned blocks' results are authoritative, and the next
                // exchange re-syncs the rest.
                let (_probes, released) = flame.advance(&mut sim.domain, dt);
                sim.energy_released += released;
            }
            eos_shard(&mut sim, a);
        }

        // ---- gravity ----
        if !matches!(sim.gravity.field, GravityField::None) || sim.gravity.monopole.is_some() {
            if sim.gravity.monopole.is_some() && sim.step.is_multiple_of(sim.params.gravity_every)
            {
                exchange(ctx, a, &mut sim, &mut seq)?;
                if let Some(solver) = &sim.gravity.monopole {
                    sim.gravity.field = GravityField::Monopole(solver.solve(&sim.domain));
                }
            }
            apply_gravity(&mut sim.domain, &sim.gravity.field, dt, sim.params.nranks);
        }

        // ---- end-of-step exchange: makes the whole replica
        // authoritative, so checkpoints, digests, and the regrid below
        // see exactly the single-process state ----
        exchange(ctx, a, &mut sim, &mut seq)?;

        // ---- commit ----
        sim.step += 1;
        sim.time += dt;
        if sim.params.regrid_every > 0 && sim.step.is_multiple_of(sim.params.regrid_every) {
            sim.domain
                .fill_guardcells_for(sim.params.nranks, GuardNeed::Faces);
            let marks = lohner_marks(
                &sim.domain.tree,
                &sim.domain.unk,
                &sim.refine_vars,
                &sim.lohner,
            );
            sim.domain.tree.adapt(&mut sim.domain.unk, &marks);
        }
        ctx.send(
            &WireMsg::StepDone {
                epoch: a.epoch,
                step: sim.step,
                time_bits: sim.time.to_bits(),
            },
            &[],
        )?;

        // ---- recovery point: shard 0 writes the shared series entry ----
        if args.checkpoint_every > 0
            && sim.step.is_multiple_of(args.checkpoint_every)
            && a.shard_index == 0
        {
            let mut series = CheckpointSeries::new(&args.series_dir, &args.series_prefix);
            if args.keep_last > 0 {
                series = series.keep_last(args.keep_last);
            }
            let path = series
                .write(&sim)
                .map_err(|e| Interrupt::Fatal(format!("series checkpoint: {e}")))?;
            ctx.send(
                &WireMsg::CheckpointDone {
                    epoch: a.epoch,
                    step: sim.step,
                    path: path.display().to_string(),
                },
                &[],
            )?;
        }
    }

    let d = StateDigest::of(&sim);
    ctx.send(
        &WireMsg::Digest {
            epoch: a.epoch,
            crc: d.crc,
            step: d.step,
            time_bits: d.time_bits,
            leaves: d.leaves,
            cells: d.cells,
        },
        &[],
    )?;
    ctx.send(&WireMsg::Bye { epoch: a.epoch }, &[])?;
    Ok(())
}

/// Await the fleet dt for `step`, dropping stale-epoch frames.
fn wait_dt(ctx: &Ctx<'_>, a: &Assignment, step: u64) -> Result<f64, Interrupt> {
    loop {
        let (msg, _) = ctx.recv()?;
        match msg {
            WireMsg::DtGlobal {
                epoch,
                step: s,
                min_bits,
            } if epoch == a.epoch && s == step => return Ok(f64::from_bits(min_bits)),
            other => {
                if let Some(i) = control(other) {
                    return Err(i);
                }
            }
        }
    }
}

/// Minimum wavetime over the owned shard — the raw (pre-cfl) reduction
/// input. Empty shards contribute +inf, the reduction's identity.
fn local_wavetime_min(sim: &Simulation, a: &Assignment) -> f64 {
    let leaves = sim.domain.tree.leaves();
    let range = shard_range(leaves.len(), a.nshards, a.shard_index);
    let geom = sim.domain.unk.geom();
    let mut min = f64::INFINITY;
    for &id in &leaves[range] {
        min = min.min(block_min_wavetime_slab(
            &sim.domain.tree,
            &geom,
            sim.domain.unk.block_slab(id.idx()),
            id,
        ));
    }
    min
}

/// One slab exchange: send owned interiors, receive everyone's, overwrite
/// *all* interiors (our own included — identical bytes) so the replica is
/// exact before the next guard fill.
fn exchange(
    ctx: &mut Ctx<'_>,
    a: &Assignment,
    sim: &mut Simulation,
    seq: &mut u64,
) -> Result<(), Interrupt> {
    *seq += 1;
    let s = *seq;
    let leaves = sim.domain.tree.leaves();
    let range = shard_range(leaves.len(), a.nshards, a.shard_index);
    let per_slab = sim.domain.unk.interior_len();

    let mut packed = Vec::with_capacity(range.len() * per_slab);
    for &id in &leaves[range.clone()] {
        sim.domain.unk.pack_interior_into(id.idx(), &mut packed);
    }
    let bytes = wire::doubles_to_bytes(&packed);
    let crcs = wire::slab_crcs(&bytes, per_slab, range.len());
    ctx.send(
        &WireMsg::Slabs {
            epoch: a.epoch,
            seq: s,
            start: range.start,
            per_slab,
            crcs,
        },
        &bytes,
    )?;

    let (all_crcs, payload) = wait_slabs_all(ctx, a, s, per_slab)?;
    if payload.len() != leaves.len() * per_slab * 8 || all_crcs.len() != leaves.len() {
        return Err(Interrupt::Fatal(format!(
            "exchange {s}: got {} bytes / {} crcs for {} leaves",
            payload.len(),
            all_crcs.len(),
            leaves.len()
        )));
    }
    let mut vals: Vec<f64> = Vec::with_capacity(per_slab);
    for (ord, &id) in leaves.iter().enumerate() {
        let chunk = &payload[ord * per_slab * 8..(ord + 1) * per_slab * 8];
        if crc32(chunk) != all_crcs[ord] {
            return Err(Interrupt::Fatal(format!(
                "exchange {s}: slab {ord} CRC mismatch"
            )));
        }
        vals.clear();
        for b in chunk.chunks_exact(8) {
            // Invariant: chunks_exact(8) yields 8-byte slices.
            vals.push(f64::from_le_bytes(b.try_into().unwrap()));
        }
        if !sim.domain.unk.unpack_interior(id.idx(), &vals) {
            return Err(Interrupt::Fatal(format!(
                "exchange {s}: slab {ord} wrong length for block {}",
                id.idx()
            )));
        }
    }
    Ok(())
}

/// Await the rebroadcast for exchange `seq`, dropping stale frames.
fn wait_slabs_all(
    ctx: &Ctx<'_>,
    a: &Assignment,
    seq: u64,
    per_slab: usize,
) -> Result<(Vec<u32>, Vec<u8>), Interrupt> {
    loop {
        let (msg, payload) = ctx.recv()?;
        match msg {
            WireMsg::SlabsAll {
                epoch,
                seq: sq,
                per_slab: ps,
                crcs,
            } if epoch == a.epoch && sq == seq => {
                if ps != per_slab {
                    return Err(Interrupt::Fatal(format!(
                        "exchange {seq}: per_slab {ps} != {per_slab}"
                    )));
                }
                return Ok((crcs, payload));
            }
            other => {
                if let Some(i) = control(other) {
                    return Err(i);
                }
            }
        }
    }
}

/// The fine blocks whose `dir`-fluxes feed corrections into the owned
/// shard: children of Parent-state same-level neighbors of owned leaves,
/// selected by child slot offset exactly as `corrections_for_leaf` does.
fn flux_halo(tree: &Tree, owned: &[BlockId], dir: usize) -> HashSet<u32> {
    let mut halo = HashSet::new();
    for &id in owned {
        for side in 0..2 {
            let face = Face { axis: dir, side };
            let Neighbor::Same(nid) = tree.neighbor(id, face.outward()) else {
                continue;
            };
            let meta = tree.block(nid);
            if meta.state != BlockState::Parent {
                continue;
            }
            let Some(children) = meta.children else {
                continue;
            };
            for (ci, &cid) in children.iter().enumerate().take(meta.n_children as usize) {
                let off = [(ci & 1), ((ci >> 1) & 1), ((ci >> 2) & 1)];
                if off[dir] == 1 - side {
                    halo.insert(cid.0);
                }
            }
        }
    }
    halo
}

/// Sweep owned ∪ flux-halo blocks in global Morton order, then apply this
/// direction's flux corrections to owned coarse blocks — the register walk
/// and per-block grouping mirror `sweep_direction_prefilled` +
/// `apply_flux_corrections` field for field, which is what keeps the
/// owned-block results bit-identical. Halo sweeps scribble on
/// non-authoritative interiors; the next exchange overwrites them.
fn sweep_shard(sim: &mut Simulation, a: &Assignment, dir: usize, dt: f64) {
    let cfg = sim.sweep_config();
    let defer = SweepEos::Defer;
    let leaves = sim.domain.tree.leaves();
    let range = shard_range(leaves.len(), a.nshards, a.shard_index);
    let owned: HashSet<u32> = leaves[range.clone()].iter().map(|id| id.0).collect();
    let halo = flux_halo(&sim.domain.tree, &leaves[range.clone()], dir);
    let nxb = sim.domain.tree.config().nxb;
    let geom = sim.domain.unk.geom();
    let mut probe = Probe::new();

    let domain = &mut sim.domain;
    let reg = &mut sim.reg;
    reg.clear();
    for &id in &leaves {
        if !owned.contains(&id.0) && !halo.contains(&id.0) {
            continue;
        }
        let tree = &domain.tree;
        let slab = domain.unk.block_slab_mut(id.idx());
        let bf = sweep_leaf_block(tree, &geom, id, slab, &defer, dir, dt, &cfg, &mut probe);
        for side in 0..2 {
            let face = Face { axis: dir, side };
            for t1 in 0..nxb {
                for t2 in 0..bf.t2_cells() {
                    for ch in 0..NFLUX {
                        reg.save(id.idx(), face, [t1, t2], ch, bf.at(side, t1, t2, ch));
                    }
                }
            }
        }
    }

    let corrections = reg.corrections(&domain.tree);
    let mut by_block: HashMap<u32, Vec<&Correction>> = HashMap::new();
    for c in &corrections {
        if c.face.axis == dir && owned.contains(&c.block.0) {
            by_block.entry(c.block.0).or_default().push(c);
        }
    }
    for &id in &leaves[range] {
        if let Some(corrs) = by_block.get(&id.0) {
            let tree = &domain.tree;
            let slab = domain.unk.block_slab_mut(id.idx());
            apply_block_corrections(tree, &geom, id, slab, corrs, &defer, dir, dt, &cfg, &mut probe);
        }
    }
}

/// The instrumented EOS pass over the owned shard only; non-owned blocks
/// diverge until the next exchange re-syncs them.
fn eos_shard(sim: &mut Simulation, a: &Assignment) {
    let geom = sim.domain.unk.geom();
    let leaves = sim.domain.tree.leaves();
    let range = shard_range(leaves.len(), a.nshards, a.shard_index);
    let gather = sim.params.gather_every;
    let pattern = sim.params.pattern_every;
    let tolerate = sim.params.guardian.enabled;
    let mut probe = Probe::new();
    let domain = &mut sim.domain;
    for &id in &leaves[range] {
        let slab = domain.unk.block_slab_mut(id.idx());
        crate::instrument::eos_block(
            &geom, &sim.eos, sim.comp, gather, pattern, tolerate, id, slab, &mut probe,
        );
    }
}

//! The task-graph step scheduler: the split sweeps in one pool dispatch
//! per attempt.
//!
//! Run on a pool as phases — guard fill, sweep, EOS — a step loop puts a
//! full barrier at every phase boundary, so the fastest rank idles until
//! the slowest finishes *each phase*. This module assembles the sweeps of
//! one step into one per-block dependency graph (see
//! [`rflash_mesh::taskgraph`]) and executes it in a single dispatch of the
//! rank pool: a block's sweep runs the moment its own guard cells are
//! filled, and interior compute overlaps other blocks' exchanges. The graph
//! does what the serial sweep loop does — per direction, restrict → fill →
//! sweep → correct → EOS — at the `dt` it is handed; the dt scan, the fault
//! hooks and the guardian's validation run once, outside it, for both step
//! paths ([`crate::guardian`]).
//!
//! Determinism (bit-identity with the serial step loop, which runs at one
//! rank and is the graph's oracle) is by construction —
//! DESIGN.md §13:
//! * Task accesses are declared to the [`GraphBuilder`] in the canonical
//!   serial order, so resource versioning reproduces the serial
//!   data flow exactly; any edge-consistent schedule computes the same
//!   values.
//! * Each block's slab is split into an *interior* and a *guards* resource:
//!   same-level guard copies read only the source interior, so two
//!   neighbors' fills don't falsely serialize on each other.

use std::time::Instant;

use rflash_hydro::{apply_block_corrections, sweep_leaf_block, NFLUX};
use rflash_mesh::audit::ResourceMap;
use rflash_mesh::executor::PerRank;
use rflash_mesh::flux::{Correction, Face};
use rflash_mesh::guardcell::{fill_block_cells, restrict_parent_cells, ExchangePlan};
use rflash_mesh::taskgraph::{GraphBuilder, GraphStats, TaskClass, TaskGraph, TaskId};
use rflash_mesh::tree::Neighbor;
use rflash_mesh::unk::Region;
use rflash_mesh::{BlockId, BlockState, GuardNeed, Tree};
use rflash_perfmon::Probe;
use serde::Serialize;

use crate::instrument::eos_block;
use crate::sim::Simulation;

pub mod mutation;

// Task kinds, also the indices of the per-kind busy ledger.
const K_RESTRICT: u8 = 0;
const K_FILL: u8 = 1;
const K_SWEEP: u8 = 2;
const K_CORRECT: u8 = 3;
const K_EOS: u8 = 4;
const NKINDS: usize = 5;

/// Scheduling classes per kind, for the overlap ledger.
const CLASSES: [TaskClass; NKINDS] = [
    TaskClass::Exchange, // Restrict
    TaskClass::Exchange, // Fill
    TaskClass::Compute,  // Sweep
    TaskClass::Compute,  // Correct
    TaskClass::Other,    // Eos
];

/// What a cached plan was built for; any mismatch forces a rebuild. The
/// cache holds one plan per `reversed` parity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PlanKey {
    /// Tree topology revision.
    pub epoch: u64,
    pub nranks: usize,
    /// Odd steps sweep the directions in reverse (Strang alternation);
    /// selects the cache slot.
    pub reversed: bool,
}

/// Everything the body closure needs to know about one task.
#[derive(Clone, Copy)]
struct TaskMeta {
    kind: u8,
    block: BlockId,
    /// Sweep axis.
    dir: u8,
    /// What a fill task's body asks the exchange for. Always the need its
    /// declarations were generated from, `Axis(dir)`, except under the
    /// race-audit harness's [`mutation::widen_body_need`].
    need: GuardNeed,
}

/// A frozen step graph for one [`PlanKey`].
pub(crate) struct StepGraphPlan {
    key: PlanKey,
    graph: TaskGraph,
    meta: Vec<TaskMeta>,
}

/// Per-rank counters accumulated over every graph execution of a run.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct GraphRankReport {
    /// Tasks executed on this rank (own + stolen).
    pub tasks: u64,
    /// Tasks stolen from other ranks' deques.
    pub steals: u64,
    /// Nanoseconds inside task bodies.
    pub busy_ns: u64,
    /// Nanoseconds failing to find runnable work.
    pub idle_ns: u64,
}

/// Cumulative task-graph statistics of a run — the task-graph analog of
/// the serial loop's per-phase timers, plus the overlap and stealing
/// ledgers a phase-by-phase loop structurally cannot have.
#[derive(Clone, Debug, Default, Serialize)]
pub struct GraphExecReport {
    /// Graph executions (one per step attempt).
    pub executions: u64,
    /// Step graphs built. The cache holds one plan per sweep parity, so
    /// a run builds two per tree epoch, however many steps it takes.
    pub plan_builds: u64,
    /// Busy ns in guard-cell exchange tasks (restrict + fill).
    pub guardcell_ns: u64,
    /// Busy ns in sweep + flux-correction tasks.
    pub sweep_ns: u64,
    /// Busy ns in EOS tasks.
    pub eos_ns: u64,
    /// Compute-class ns spent while ≥1 exchange task was in flight.
    pub overlap_ns: u64,
    /// Total compute-class ns (the overlap denominator).
    pub compute_ns: u64,
    /// Per-rank task/steal/busy/idle counters.
    pub per_rank: Vec<GraphRankReport>,
}

impl GraphExecReport {
    /// Fold one execution's statistics in.
    pub fn accumulate(&mut self, stats: &GraphStats) {
        self.executions += 1;
        let kind = |k: u8| {
            let i = k as usize;
            if i < stats.kind_busy_ns.len() {
                stats.kind_busy_ns[i]
            } else {
                0
            }
        };
        self.guardcell_ns += kind(K_RESTRICT) + kind(K_FILL);
        self.sweep_ns += kind(K_SWEEP) + kind(K_CORRECT);
        self.eos_ns += kind(K_EOS);
        self.overlap_ns += stats.overlap_ns;
        self.compute_ns += stats.compute_ns;
        if self.per_rank.len() < stats.per_rank.len() {
            self.per_rank
                .resize(stats.per_rank.len(), GraphRankReport::default());
        }
        for (r, s) in stats.per_rank.iter().enumerate() {
            let slot = &mut self.per_rank[r];
            slot.tasks += s.tasks;
            slot.steals += s.steals;
            slot.busy_ns += s.busy_ns;
            slot.idle_ns += s.idle_ns;
        }
    }

    /// Fraction of compute time overlapped with in-flight exchanges.
    pub fn overlap_ratio(&self) -> f64 {
        if self.compute_ns == 0 {
            0.0
        } else {
            self.overlap_ns as f64 / self.compute_ns as f64
        }
    }

    /// Total steals across ranks.
    pub fn total_steals(&self) -> u64 {
        self.per_rank.iter().map(|r| r.steals).sum()
    }
}

/// Build the step graph for `key`, declaring every task's resource
/// accesses in the canonical serial order (DESIGN.md §13).
///
/// Resource layout ([`ResourceMap`], `3·max_blocks` resources):
/// `interior(b) = b`, `guards(b) = max_blocks + b` and
/// `flux rows(b) = 2·max_blocks + b`.
///
/// Every declaration goes through [`mutation::keep`] with a stable site
/// number (`S0`–`S14`, see [`mutation::NAMES`]) so the race-audit harness
/// can drop any single one and require the audit to notice.
fn build_plan(
    tree: &Tree,
    exchange: &ExchangePlan,
    parts: &[Vec<BlockId>],
    key: PlanKey,
) -> StepGraphPlan {
    let cfg = tree.config();
    let max_blocks = cfg.max_blocks;
    let rmap = ResourceMap { max_blocks };
    let interior = |b: BlockId| rmap.interior(b.idx());
    let guards = |b: BlockId| rmap.guards(b.idx());
    let fluxrow = |b: BlockId| rmap.fluxrow(b.idx());

    let leaves = tree.leaves();

    // Block ownership: leaves from the cost-weighted Morton partition;
    // parents follow their first child. Ownership is a scheduling hint
    // only — stealing rebalances, and correctness never depends on it.
    let mut owner = vec![0u32; max_blocks];
    for (r, part) in parts.iter().enumerate() {
        for id in part {
            owner[id.idx()] = r as u32;
        }
    }
    for &id in &leaves {
        // Walk up while the block is its parent's first child.
        let mut b = id;
        while let Some(pid) = tree.block(b).parent {
            if tree.block(pid).children.map(|c| c[0]) != Some(b) {
                break;
            }
            owner[pid.idx()] = owner[id.idx()];
            b = pid;
        }
    }

    let mut b = GraphBuilder::new(rmap.count());
    let mut meta: Vec<TaskMeta> = Vec::new();
    let mut add = |b: &mut GraphBuilder, kind: u8, block: BlockId, dir: u8| {
        let t = b.add_task(kind, owner[block.idx()] as usize);
        meta.push(TaskMeta {
            kind,
            block,
            dir,
            need: mutation::body_need(GuardNeed::Axis(dir as usize)),
        });
        t
    };

    // Per direction: restriction, guard exchange, sweeps, flux
    // corrections, EOS — each family declared in its serial order.
    let ndim = cfg.ndim;
    let dirs_order: Vec<usize> = if key.reversed {
        (0..ndim).rev().collect()
    } else {
        (0..ndim).collect()
    };
    for &d in &dirs_order {
        let d8 = d as u8;
        // The exchange ahead of a sweep along `d` fills what that sweep
        // reads. The plan's orders are the serial fill's: live parents
        // deepest level first, then blocks level-ascending
        // (BlockId-ascending within a level). A block the need leaves
        // alone gets no task: no fill for a parent, no restriction for a
        // parent nobody copies from.
        let need = GuardNeed::Axis(d);
        // Restriction into live parents. Reads child interiors
        // (restriction touches no guard cells), writes the parent's.
        for lvl in (0..exchange.levels()).rev() {
            for &pid in exchange.live_parents(need, lvl) {
                let t = add(&mut b, K_RESTRICT, pid, d8);
                let m = tree.block(pid);
                if let Some(children) = m.children {
                    for &cid in children.iter().take(m.n_children as usize) {
                        if mutation::keep(0) {
                            b.note_read(interior(cid), t); // S0
                        }
                    }
                }
                if mutation::keep(1) {
                    b.note_write(interior(pid), t); // S1
                }
            }
        }
        // Guard fill per block with a masked region, coarse levels first.
        // A fill reads same-level neighbor interiors, a coarser neighbor's
        // full slab (prolongation also samples its guards) and its own
        // interior (the physical boundary mirrors), and writes only its own
        // guards — so fills of one level never order against each other.
        for lvl in 0..exchange.levels() {
            for &id in exchange.fill_blocks(need, lvl) {
                let t = add(&mut b, K_FILL, id, d8);
                // The same masked table the task body walks, so declaration
                // and access cannot drift apart.
                for (_, nbr) in exchange.reads(need, id) {
                    match nbr {
                        Neighbor::Same(nid) => {
                            if mutation::keep(2) {
                                b.note_read(interior(nid), t); // S2
                            }
                        }
                        Neighbor::Coarser(nid) => {
                            if mutation::keep(3) {
                                b.note_read(interior(nid), t); // S3
                            }
                            if mutation::keep(4) {
                                b.note_read(guards(nid), t); // S4
                            }
                        }
                        Neighbor::Boundary => {}
                    }
                }
                if mutation::keep(5) {
                    b.note_read(interior(id), t); // S5
                }
                if mutation::keep(6) {
                    b.note_write(guards(id), t); // S6
                }
            }
        }
        // Sweeps per leaf, Morton order.
        for &id in &leaves {
            let t = add(&mut b, K_SWEEP, id, d8);
            if mutation::keep(7) {
                b.note_read(guards(id), t); // S7
            }
            if mutation::keep(8) {
                b.note_write(interior(id), t); // S8
            }
            if mutation::keep(9) {
                b.note_write(fluxrow(id), t); // S9
            }
        }
        // Flux corrections: only coarse leaves with a refined same-level
        // neighbor along this axis receive any. The fine fluxes live in
        // the rows of the parent neighbor's children.
        for &id in &leaves {
            let mut fine_neighbors: Vec<BlockId> = Vec::new();
            for side in 0..2 {
                let mut dv = [0i32; 3];
                dv[d] = if side == 0 { -1 } else { 1 };
                if let Neighbor::Same(nid) = tree.neighbor(id, dv) {
                    if tree.block(nid).state == BlockState::Parent {
                        fine_neighbors.push(nid);
                    }
                }
            }
            if fine_neighbors.is_empty() {
                continue;
            }
            let t = add(&mut b, K_CORRECT, id, d8);
            if mutation::keep(10) {
                b.note_read(fluxrow(id), t); // S10
            }
            for nid in fine_neighbors {
                let m = tree.block(nid);
                if let Some(children) = m.children {
                    for &cid in children.iter().take(m.n_children as usize) {
                        if mutation::keep(11) {
                            b.note_read(fluxrow(cid), t); // S11
                        }
                    }
                }
            }
            if mutation::keep(12) {
                b.note_write(interior(id), t); // S12
            }
        }
        // EOS per leaf, Morton order. The row gather reads the whole
        // pencil — guards included — so the read must be declared even
        // though only interior lanes feed the solve.
        for &id in &leaves {
            let t = add(&mut b, K_EOS, id, d8);
            if mutation::keep(13) {
                b.note_read(guards(id), t); // S13
            }
            if mutation::keep(14) {
                b.note_write(interior(id), t); // S14
            }
        }
    }

    let mut graph = b.build();
    let label_meta = meta.clone();
    graph.set_audit_context(
        move |t| {
            const KIND_NAMES: [&str; NKINDS] = ["restrict", "fill", "sweep", "correct", "eos"];
            let m = label_meta[t as usize];
            format!(
                "{}(block {}, dir {})",
                KIND_NAMES[m.kind as usize],
                m.block.idx(),
                m.dir
            )
        },
        move |r| rmap.describe(r),
    );

    StepGraphPlan { key, graph, meta }
}

impl Simulation {
    /// Whether this step runs through the task graph: there is a real pool
    /// and there is work. Otherwise the (identical-result) serial loop
    /// runs.
    pub(crate) fn use_taskgraph(&self) -> bool {
        self.params.nranks > 1 && !self.domain.tree.leaves().is_empty()
    }

    /// Make the cached plan of `key`'s parity current for `key`, charging
    /// build time to the pool's idle ledger (workers wait while the
    /// dispatcher builds). Returns the slot.
    fn ensure_graph_plan(&mut self, key: PlanKey) -> usize {
        let slot = usize::from(key.reversed);
        if self.graph_plans[slot]
            .as_ref()
            .is_some_and(|plan| plan.key == key)
        {
            return slot;
        }
        let t0 = Instant::now();
        let parts = self.domain.leaf_partition(key.nranks);
        let (pool, tree, exchange, _) = self.domain.pool_for_graph(key.nranks);
        let plan = build_plan(tree, exchange, &parts, key);
        pool.account_idle(t0.elapsed().as_nanos() as u64);
        self.graph_plans[slot] = Some(plan);
        self.graph_report.plan_builds += 1;
        slot
    }

    /// The split sweeps of one step attempt at `dt` through the task
    /// graph, in a single pool dispatch: per direction, restriction, guard
    /// exchange, sweeps, flux corrections and EOS passes — what the serial
    /// sweep loop ([`serial_sweeps`](Self::serial_sweeps)) does.
    pub(crate) fn graph_sweeps(&mut self, attempt: u32, dt: f64) {
        let nranks = self.params.nranks;
        // Adversarial mode: mix the step and attempt into the seed so every
        // dispatch explores a different (but reproducible) topological order.
        let adversary = self
            .params
            .adversary_seed
            .map(|s| s ^ self.step.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt));
        let key = PlanKey {
            epoch: self.domain.tree.epoch(),
            nranks,
            reversed: !self.step.is_multiple_of(2),
        };
        let slot = self.ensure_graph_plan(key);

        let sweep_cfg = self.sweep_config();
        let geom = self.domain.unk.geom();
        let ndim = self.domain.tree.config().ndim;
        let tolerate_bad_rows = self.params.guardian.enabled;
        let gather_every = self.params.gather_every;
        let pattern_every = self.params.pattern_every;
        let comp = self.comp;
        let eos_choice = &self.eos;

        self.reg.clear();
        let fcells = self.reg.cells();

        // analyze::allow(panic): `ensure_graph_plan` ran just above.
        let plan = self.graph_plans[slot].as_ref().expect("plan ensured");
        let meta = &plan.meta;
        let probes: PerRank<(Probe, Probe)> = PerRank::new(nranks, || (Probe::new(), Probe::new()));

        self.hydro_session.start_region();
        self.eos_session.start_region();
        self.timers.start("graph");
        let (pool, tree, exchange, unk) = self.domain.pool_for_graph(nranks);
        let cells = unk.cells();

        let body = |rank: usize, t: TaskId| {
            let m = meta[t as usize];
            match m.kind {
                K_RESTRICT => {
                    // SAFETY: child interiors are ordered shared reads and
                    // the parent interior is exclusive, per the edges.
                    unsafe { restrict_parent_cells(tree, &geom, &cells, m.block) };
                }
                K_FILL => {
                    // SAFETY: own guards are exclusive; the own interior,
                    // same-level neighbor interiors and coarser neighbor
                    // slabs are ordered shared reads, per the edges.
                    unsafe { fill_block_cells(tree, &geom, &cells, exchange, m.need, m.block) };
                }
                K_SWEEP => {
                    let dir = m.dir as usize;
                    // SAFETY: exclusive interior access with ordered shared
                    // guard reads, per the declared resources.
                    let slab = unsafe {
                        cells.write_slab(m.block.idx(), Region::Interior, Some(Region::Guards))
                    };
                    // SAFETY: rank-local probe pair.
                    let pr = unsafe { probes.slot(rank) };
                    let bf = sweep_leaf_block(
                        tree, &geom, m.block, slab, dir, dt, &sweep_cfg, &mut pr.0,
                    );
                    for side in 0..2 {
                        let face = Face { axis: dir, side };
                        for t1 in 0..geom.nxb {
                            for t2 in 0..bf.t2_cells() {
                                for ch in 0..NFLUX {
                                    // SAFETY: exclusive flux-row access via
                                    // the fluxrow resource.
                                    unsafe {
                                        fcells.save(
                                            m.block.idx(),
                                            face,
                                            [t1, t2],
                                            ch,
                                            bf.at(side, t1, t2, ch),
                                        )
                                    };
                                }
                            }
                        }
                    }
                }
                K_CORRECT => {
                    let dir = m.dir as usize;
                    let mut corrs: Vec<Correction> = Vec::new();
                    // SAFETY: ordered after every flux-row writer it reads.
                    unsafe { fcells.corrections_for(tree, m.block, dir, &mut corrs) };
                    if corrs.is_empty() {
                        return;
                    }
                    // SAFETY: exclusive interior access via the edges.
                    let slab = unsafe { cells.write_slab(m.block.idx(), Region::Interior, None) };
                    let refs: Vec<&Correction> = corrs.iter().collect();
                    apply_block_corrections(tree, &geom, m.block, slab, &refs, dir, dt, &sweep_cfg);
                }
                K_EOS => {
                    // SAFETY: exclusive interior access with ordered shared
                    // guard reads (the pencil gather spans the guards).
                    let slab = unsafe {
                        cells.write_slab(m.block.idx(), Region::Interior, Some(Region::Guards))
                    };
                    // SAFETY: rank-local probe pair.
                    let pr = unsafe { probes.slot(rank) };
                    eos_block(
                        &geom,
                        eos_choice,
                        comp,
                        gather_every,
                        pattern_every,
                        tolerate_bad_rows,
                        m.block,
                        slab,
                        &mut pr.1,
                    );
                }
                // The builder only emits the kinds matched above.
                other => unreachable!("unknown task kind {other}"),
            }
        };
        let stats = match adversary {
            Some(seed) => plan.graph.execute_adversarial(&CLASSES, seed, &body),
            None => plan.graph.execute(pool, &CLASSES, &body),
        };
        self.timers.stop("graph");
        for d in 0..ndim {
            self.domain.record_guard_fill(GuardNeed::Axis(d));
        }

        for (hydro, eos) in probes.into_inner() {
            self.hydro_session.absorb(hydro);
            self.eos_session.absorb(eos);
        }
        self.hydro_session.stop_region();
        self.eos_session.stop_region();
        self.graph_report.accumulate(&stats);
    }
}

//! Rank decomposition and parallel block updates.
//!
//! FLASH distributes blocks over MPI ranks along the Morton space-filling
//! curve; within a time step every rank sweeps its own blocks
//! independently (guard cells were exchanged beforehand). We reproduce the
//! same structure with a persistent pool of rank threads ([`RankPool`]):
//! leaves are split into contiguous Morton-curve segments, cost-weighted by
//! interior zone count, and each simulated rank updates its blocks on its
//! own long-lived thread. Disjointness is by construction — every block's
//! data is a contiguous slab of `unk`, and each slab is handed to exactly
//! one rank.
//!
//! The partition and the guard-exchange plan (every block's neighbors and,
//! per need, its region mask and the per-level fill lists) are cached on
//! the tree's topology [`Tree::epoch`] and only rebuilt after a regrid, so
//! the steady-state per-call cost of a parallel section is one channel
//! message per rank — no thread spawns, no handout vector allocation, no
//! neighbor lookups.

use rflash_perfmon::{Probe, RankLoad};

use crate::block::BlockId;
use crate::executor::{PerRank, RankPool};
use crate::guardcell::{self, ExchangePlan, GuardFillStats, GuardNeed};
use crate::tree::{MeshConfig, Tree};
use crate::unk::UnkStorage;

use rflash_hugepages::Policy;

/// A cached work distribution for one (tree epoch, nranks) pair.
struct RankPlan {
    /// Tree topology revision this plan was built at.
    epoch: u64,
    /// Requested rank count (the pool width it pairs with).
    nranks: usize,
    /// Ranks that actually receive leaves: `min(nranks, leaves)`.
    eff_ranks: usize,
    /// `parts[r]` — contiguous Morton segment of leaves owned by rank `r`.
    /// Always `nranks` entries; trailing ones are empty when there are
    /// fewer leaves than ranks.
    parts: Vec<Vec<BlockId>>,
}

/// Executor state carried by the [`Domain`]: the persistent rank pool, the
/// cached work distribution, and the cached guard-exchange plan.
#[derive(Default)]
struct Exec {
    pool: Option<RankPool>,
    plan: Option<RankPlan>,
    /// Neighbor table and per-need masks and lists, keyed on the tree epoch
    /// alone (it does not depend on the rank count).
    exchange: Option<ExchangePlan>,
    /// How many times `exchange` has been (re)built — once per tree epoch.
    exchange_builds: u64,
    /// What every guard fill so far wrote.
    fill_stats: GuardFillStats,
}

impl Exec {
    /// Make pool and plans current for (`tree`, `nranks`).
    fn ensure(&mut self, tree: &Tree, nranks: usize) {
        let plan_stale = match &self.plan {
            Some(p) => p.epoch != tree.epoch() || p.nranks != nranks,
            None => true,
        };
        let exchange_stale = !matches!(&self.exchange, Some(x) if x.epoch() == tree.epoch());
        if plan_stale || exchange_stale {
            let t0 = std::time::Instant::now();
            if plan_stale {
                self.plan = Some(build_plan(tree, nranks));
            }
            if exchange_stale {
                self.exchange = Some(ExchangePlan::build(tree));
                self.exchange_builds += 1;
            }
            // The partition epoch refresh runs on the dispatching thread
            // while every worker waits: charge it to the idle ledger so it
            // doesn't vanish from the busy+idle ≈ wall invariant.
            if let Some(pool) = &mut self.pool {
                if pool.nranks() == nranks {
                    pool.account_idle(t0.elapsed().as_nanos() as u64);
                }
            }
        }
        let pool_stale = match &self.pool {
            Some(p) => p.nranks() != nranks,
            None => true,
        };
        if nranks > 1 && pool_stale {
            self.pool = Some(RankPool::new(nranks));
        }
    }
}

/// Cost-weighted contiguous Morton split: a leaf's cost is its interior
/// zone count, and rank cuts fall where the cumulative cost crosses
/// multiples of `total/eff`. With today's uniform block sizes this
/// degenerates to the classic balanced `r = i·R/n` split (counts within
/// one of each other); the cut logic is written against per-leaf costs so
/// non-uniform weights (e.g. per-block kernel masks) rebalance for free.
fn partition_by_cost(tree: &Tree, nranks: usize) -> Vec<Vec<BlockId>> {
    let leaves = tree.leaves();
    let mut parts = vec![Vec::new(); nranks];
    if leaves.is_empty() {
        // Degenerate mesh (no leaves): nothing to distribute.
        return parts;
    }
    let eff = nranks.min(leaves.len());
    let cfg = tree.config();
    let cost_of = |_id: BlockId| -> u64 { cfg.nxb.pow(cfg.ndim as u32) as u64 };
    let total: u64 = leaves.iter().map(|&id| cost_of(id)).sum();
    let mut cum = 0u64;
    for id in leaves {
        let r = ((cum * eff as u64) / total.max(1)) as usize;
        parts[r.min(eff - 1)].push(id);
        cum += cost_of(id);
    }
    parts
}

/// Rank `rank`'s share of `list` split into contiguous count-balanced
/// chunks over at most `min(nranks, len)` ranks.
fn rank_chunk(list: &[BlockId], nranks: usize, rank: usize) -> &[BlockId] {
    let eff = nranks.min(list.len());
    if rank >= eff {
        return &[];
    }
    let cut = |r: usize| (r * list.len()).div_ceil(eff);
    &list[cut(rank)..cut(rank + 1)]
}

fn build_plan(tree: &Tree, nranks: usize) -> RankPlan {
    let parts = partition_by_cost(tree, nranks);
    let eff_ranks = parts.iter().filter(|p| !p.is_empty()).count();
    RankPlan {
        epoch: tree.epoch(),
        nranks,
        eff_ranks,
        parts,
    }
}

/// Raw handout of `unk`'s per-block slabs for the worker ranks. Each block
/// id appears in exactly one rank's work list (the partition invariant), so
/// the slabs materialized through this are disjoint — the raw-pointer
/// analog of [`UnkStorage::slabs_mut`], minus the per-call `Vec` handout
/// the scoped-thread implementation rebuilt on every parallel section.
#[derive(Clone, Copy)]
struct RawSlabs {
    ptr: *mut f64,
    per_block: usize,
}

// SAFETY: the pointer spans a plain-f64 region; callers uphold the
// one-rank-per-block discipline documented on `slab`.
unsafe impl Send for RawSlabs {}
unsafe impl Sync for RawSlabs {}

impl RawSlabs {
    fn of(unk: &mut UnkStorage) -> RawSlabs {
        RawSlabs {
            per_block: unk.per_block(),
            ptr: unk.base_ptr_mut(),
        }
    }

    /// Block `blk`'s slab.
    ///
    /// # Safety
    /// During one pool dispatch, `blk` must be touched by exactly one rank,
    /// and no `&UnkStorage` reads of the same storage may be live.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slab(&self, blk: usize) -> &mut [f64] {
        std::slice::from_raw_parts_mut(self.ptr.add(blk * self.per_block), self.per_block)
    }
}

/// Tree + solution container, the pair every solver operates on.
pub struct Domain {
    pub tree: Tree,
    pub unk: UnkStorage,
    exec: Exec,
}

impl Domain {
    /// Build the tree and its matching `unk` container under `policy`.
    pub fn new(config: MeshConfig, policy: Policy) -> Domain {
        let tree = Tree::new(config);
        let unk = tree.make_unk(policy);
        Domain {
            tree,
            unk,
            exec: Exec::default(),
        }
    }

    /// The leaves split into `nranks` contiguous Morton-curve segments with
    /// cost-balanced zone counts (PARAMESH's work distribution), cached and
    /// rebuilt when stale — the block-ownership map task-graph builders
    /// seed their deques from.
    pub fn leaf_partition(&mut self, nranks: usize) -> Vec<Vec<BlockId>> {
        assert!(nranks > 0);
        let Domain { tree, unk: _, exec } = self;
        exec.ensure(tree, nranks);
        exec.plan.as_ref().expect("plan ensured").parts.clone()
    }

    /// Borrow the persistent rank pool together with the tree, the cached
    /// guard-exchange plan and the storage, for executing an
    /// externally-built task graph in one dispatch. Requires `nranks > 1`
    /// (a one-rank "graph" is just the serial path).
    pub fn pool_for_graph(
        &mut self,
        nranks: usize,
    ) -> (&mut RankPool, &Tree, &ExchangePlan, &mut UnkStorage) {
        assert!(nranks > 1, "task-graph execution needs a real pool");
        let Domain { tree, unk, exec } = self;
        exec.ensure(tree, nranks);
        let pool = exec.pool.as_mut().expect("pool ensured for nranks > 1");
        let exchange = exec.exchange.as_ref().expect("exchange plan ensured");
        (pool, tree, exchange, unk)
    }

    /// Update every leaf in parallel over `nranks` simulated ranks.
    ///
    /// The closure receives the tree, the block id, that block's mutable
    /// slab, and the rank-local [`Probe`] for instrumentation. Returns the
    /// probes in rank order for the driver to absorb (deterministically —
    /// rank order, not completion order).
    pub fn par_leaf_update<F>(&mut self, nranks: usize, f: F) -> Vec<Probe>
    where
        F: Fn(&Tree, BlockId, &mut [f64], &mut Probe) + Sync,
    {
        let (probes, _units) = self.par_leaf_map(nranks, |tree, id, slab, probe| {
            f(tree, id, slab, probe);
        });
        probes
    }

    /// Like [`Domain::par_leaf_update`] but collecting a per-block result
    /// (e.g. boundary fluxes for the conservation fix-up). Results come back
    /// in Morton order regardless of rank scheduling.
    pub fn par_leaf_map<R, F>(&mut self, nranks: usize, f: F) -> (Vec<Probe>, Vec<(BlockId, R)>)
    where
        R: Send,
        F: Fn(&Tree, BlockId, &mut [f64], &mut Probe) -> R + Sync,
    {
        assert!(nranks > 0);
        let Domain { tree, unk, exec } = self;
        exec.ensure(tree, nranks);
        let plan = exec.plan.as_ref().expect("plan ensured");

        if nranks == 1 || plan.eff_ranks <= 1 {
            // Serial fast path: no dispatch, same Morton visit order.
            let mut probe = Probe::new();
            let mut results = Vec::new();
            for part in &plan.parts {
                for &id in part {
                    let r = f(tree, id, unk.block_slab_mut(id.idx()), &mut probe);
                    results.push((id, r));
                }
            }
            let mut probes = vec![probe];
            probes.resize_with(nranks, Probe::new);
            return (probes, results);
        }

        let pool = exec.pool.as_mut().expect("pool ensured for nranks > 1");
        let slabs = RawSlabs::of(unk);
        let out: PerRank<(Probe, Vec<(BlockId, R)>)> =
            PerRank::new(nranks, || (Probe::new(), Vec::new()));
        let parts = &plan.parts;
        let tree_ref: &Tree = tree;
        pool.run(&|rank| {
            // SAFETY: each rank writes only its own output slot and the
            // slabs of its own Morton segment (disjoint by the partition).
            let (probe, results) = unsafe { out.slot(rank) };
            results.reserve(parts[rank].len());
            for &id in &parts[rank] {
                // SAFETY: `id` is in this rank's Morton segment only.
                let slab = unsafe { slabs.slab(id.idx()) };
                let r = f(tree_ref, id, slab, probe);
                results.push((id, r));
            }
        });

        let mut probes = Vec::with_capacity(nranks);
        let mut results = Vec::new();
        for (probe, mut rs) in out.into_inner() {
            probes.push(probe);
            results.append(&mut rs);
        }
        (probes, results)
    }

    /// Exact parallel min-reduction over the leaves (the CFL time-step
    /// scan). Each rank reduces its Morton segment; the caller reduces
    /// across ranks. `min` is associative and commutative, so the result is
    /// bit-identical to a serial scan for any rank count.
    pub fn par_leaf_min<F>(&mut self, nranks: usize, f: F) -> f64
    where
        F: Fn(&Tree, &UnkStorage, BlockId) -> f64 + Sync,
    {
        assert!(nranks > 0);
        let Domain { tree, unk, exec } = self;
        exec.ensure(tree, nranks);
        let plan = exec.plan.as_ref().expect("plan ensured");

        if nranks == 1 || plan.eff_ranks <= 1 {
            let mut m = f64::INFINITY;
            for part in &plan.parts {
                for &id in part {
                    m = m.min(f(tree, unk, id));
                }
            }
            return m;
        }

        let pool = exec.pool.as_mut().expect("pool ensured for nranks > 1");
        let out: PerRank<f64> = PerRank::new(nranks, || f64::INFINITY);
        let parts = &plan.parts;
        let tree_ref: &Tree = tree;
        let unk_ref: &UnkStorage = unk;
        pool.run(&|rank| {
            // SAFETY: each rank writes only its own slot; `unk` is only read.
            let m = unsafe { out.slot(rank) };
            for &id in &parts[rank] {
                *m = m.min(f(tree_ref, unk_ref, id));
            }
        });
        out.into_inner().into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Guard-cell exchange of what `need` asks for over the persistent rank
    /// pool, from the cached [`ExchangePlan`] (no neighbor lookups in steady
    /// state).
    ///
    /// One pool dispatch per refinement level and pass, levels with no work
    /// skipped: on the downward pass each rank restricts the children of
    /// its share of the level's live parents (deepest level first); on the
    /// upward pass each rank fills the masked guard regions of its share of
    /// the level's blocks, coarse → fine. Within one dispatch every read is
    /// a same-level *interior* or a slab a previous dispatch finished, and
    /// every write is a block only this rank visits — its interior when
    /// restricting, its guards when filling — so ranks never conflict and
    /// the result is bit-identical to the serial fill, which runs the same
    /// two block drivers. The parity tests assert exactness.
    pub fn fill_guardcells_for(&mut self, nranks: usize, need: GuardNeed) {
        assert!(nranks > 0);
        let Domain { tree, unk, exec } = self;
        exec.ensure(tree, nranks);
        let plan = exec.plan.as_ref().expect("plan ensured");
        let exchange = exec.exchange.as_ref().expect("exchange plan ensured");
        exec.fill_stats.absorb(exchange.fill_totals(need));

        if nranks == 1 || plan.eff_ranks <= 1 {
            guardcell::fill_guardcells_planned(tree, exchange, need, unk);
            return;
        }
        let pool = exec.pool.as_mut().expect("pool ensured for nranks > 1");
        let geom = unk.geom();
        let cells = unk.cells();
        let tree: &Tree = tree;

        for lvl in (0..exchange.levels()).rev() {
            let parents = exchange.live_parents(need, lvl);
            if parents.is_empty() {
                continue;
            }
            pool.run(&|rank| {
                for &pid in rank_chunk(parents, nranks, rank) {
                    // SAFETY: `pid` is in this rank's chunk only, and its
                    // children — one level down, restricted by an earlier
                    // dispatch if they are parents — are not written by
                    // anyone during this one.
                    unsafe { guardcell::restrict_parent_cells(tree, &geom, &cells, pid) };
                }
            });
        }
        for lvl in 0..exchange.levels() {
            let blocks = exchange.fill_blocks(need, lvl);
            if blocks.is_empty() {
                continue;
            }
            pool.run(&|rank| {
                for &id in rank_chunk(blocks, nranks, rank) {
                    // SAFETY: `id` is in this rank's chunk only, so its
                    // guards are exclusive; the interiors it reads are not
                    // written during the exchange and its coarser
                    // neighbors were finished by the previous dispatch.
                    unsafe { guardcell::fill_block_cells(tree, &geom, &cells, exchange, need, id) };
                }
            });
        }
    }

    /// [`fill_guardcells_for`](Self::fill_guardcells_for) with
    /// [`GuardNeed::All`]: every guard zone of every active block. What the
    /// per-cell oracle and outside-in probes mean by "a fill"; the step
    /// loop asks for less.
    pub fn fill_guardcells(&mut self, nranks: usize) {
        self.fill_guardcells_for(nranks, GuardNeed::All);
    }

    /// Count a `need` fill that ran outside
    /// [`fill_guardcells_for`](Self::fill_guardcells_for) — the step
    /// graph's per-block fill tasks — into
    /// [`guard_fill_stats`](Self::guard_fill_stats). The plan must be
    /// current (the graph borrowed it through
    /// [`pool_for_graph`](Self::pool_for_graph)).
    pub fn record_guard_fill(&mut self, need: GuardNeed) {
        let exchange = self.exec.exchange.as_ref().expect("exchange plan ensured");
        debug_assert_eq!(exchange.epoch(), self.tree.epoch(), "stale exchange plan");
        self.exec.fill_stats.absorb(exchange.fill_totals(need));
    }

    /// Exact counts of what every guard fill so far did: fills, blocks
    /// filled, parents restricted, guard zones and bytes written.
    pub fn guard_fill_stats(&self) -> GuardFillStats {
        self.exec.fill_stats
    }

    /// How many times the guard-exchange plan has been built: once per
    /// tree epoch in which a pooled section ran.
    pub fn exchange_plan_builds(&self) -> u64 {
        self.exec.exchange_builds
    }

    /// Cumulative per-rank load counters from the persistent pool. Empty
    /// when every parallel section so far took the serial path.
    pub fn rank_loads(&self) -> Vec<RankLoad> {
        match &self.exec.pool {
            Some(pool) => pool
                .counters()
                .iter()
                .enumerate()
                .map(|(rank, c)| RankLoad {
                    rank,
                    busy_s: c.busy_ns as f64 * 1e-9,
                    idle_s: c.idle_ns as f64 * 1e-9,
                    dispatches: pool.dispatches(),
                })
                .collect(),
            None => Vec::new(),
        }
    }

    /// Total interior zones over all leaves.
    pub fn total_zones(&self) -> usize {
        let cfg = self.tree.config();
        let per = cfg.nxb.pow(cfg.ndim as u32);
        self.tree.leaves().len() * per
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MeshConfig;
    use crate::vars::DENS;

    fn refined_domain() -> Domain {
        let mut d = Domain::new(MeshConfig::test_2d(), Policy::None);
        let root = d.tree.leaves()[0];
        let children = d.tree.refine_block(root, &mut d.unk);
        d.tree.refine_block(children[0], &mut d.unk);
        d // 3 level-1 leaves + 4 level-2 leaves
    }

    #[test]
    fn partition_covers_all_leaves_contiguously() {
        let mut d = refined_domain();
        let parts = d.leaf_partition(3);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, d.tree.leaves().len());
        // Counts are balanced within 1 (uniform costs today).
        let (min, max) = (
            parts.iter().map(Vec::len).min().unwrap(),
            parts.iter().map(Vec::len).max().unwrap(),
        );
        assert!(max - min <= 1, "{parts:?}");
        // Concatenation preserves Morton order.
        let cat: Vec<BlockId> = parts.into_iter().flatten().collect();
        assert_eq!(cat, d.tree.leaves());
    }

    #[test]
    fn rank_chunks_partition_a_level_contiguously_and_evenly() {
        let list: Vec<BlockId> = (0..10).map(BlockId).collect();
        for nranks in [1usize, 3, 4, 10, 16] {
            let chunks: Vec<&[BlockId]> =
                (0..nranks).map(|r| rank_chunk(&list, nranks, r)).collect();
            assert_eq!(chunks.concat(), list, "nranks={nranks}");
            let used: Vec<usize> = chunks.iter().map(|c| c.len()).filter(|&n| n > 0).collect();
            assert_eq!(used.len(), nranks.min(list.len()));
            assert!(
                used.iter().max().unwrap() - used.iter().min().unwrap() <= 1,
                "{used:?}"
            );
        }
        assert!(rank_chunk(&[], 4, 0).is_empty());
    }

    #[test]
    fn more_ranks_than_leaves_is_fine() {
        let mut d = Domain::new(MeshConfig::test_2d(), Policy::None);
        let parts = d.leaf_partition(4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn par_update_touches_each_leaf_once() {
        let mut d = refined_domain();
        let g = d.tree.config().nguard;
        let idx = d.unk.slab_idx(DENS, g, g, 0);
        for nranks in [1, 2, 4] {
            // Increment a marker cell in every leaf.
            let probes = d.par_leaf_update(nranks, |_tree, _id, slab, probe| {
                slab[idx] += 1.0;
                probe.stats.zones += 1;
            });
            assert_eq!(probes.len(), nranks);
            let zones: u64 = probes.iter().map(|p| p.stats.zones).sum();
            assert_eq!(zones as usize, d.tree.leaves().len());
        }
        // Every leaf got exactly 3 increments (one per nranks round).
        for id in d.tree.leaves() {
            assert_eq!(d.unk.get(DENS, g, g, 0, id.idx()), 3.0);
        }
    }

    #[test]
    fn par_update_results_are_rank_deterministic() {
        let mut d = refined_domain();
        let probes = d.par_leaf_update(2, |tree, id, _slab, probe| {
            probe.stats.fp_ops += tree.block(id).key.level as u64;
        });
        let again = d.par_leaf_update(2, |tree, id, _slab, probe| {
            probe.stats.fp_ops += tree.block(id).key.level as u64;
        });
        let a: Vec<u64> = probes.iter().map(|p| p.stats.fp_ops).collect();
        let b: Vec<u64> = again.iter().map(|p| p.stats.fp_ops).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn excess_ranks_get_empty_segments_and_padded_probes() {
        let mut d = refined_domain(); // 7 leaves
        let probes = d.par_leaf_update(9, |_tree, _id, _slab, probe| {
            probe.stats.zones += 1;
        });
        assert_eq!(probes.len(), 9);
        let zones: u64 = probes.iter().map(|p| p.stats.zones).sum();
        assert_eq!(zones, 7);
    }

    #[test]
    fn pool_and_partition_persist_across_calls() {
        let mut d = refined_domain();
        d.par_leaf_update(2, |_, _, _, _| {});
        d.par_leaf_update(2, |_, _, _, _| {});
        let loads = d.rank_loads();
        assert_eq!(loads.len(), 2);
        // One pool served both calls: the dispatch counter accumulated.
        assert_eq!(loads[0].dispatches, 2);
        // And the plan was built exactly once (same epoch, same nranks).
        assert_eq!(d.exec.plan.as_ref().unwrap().epoch, d.tree.epoch());
    }

    #[test]
    fn adapt_invalidates_cached_partition() {
        let mut d = refined_domain();
        d.par_leaf_update(2, |_, _, _, _| {});
        let epoch_before = d.exec.plan.as_ref().unwrap().epoch;
        let leaves_before = d.tree.leaves().len();

        // A regrid (here: direct refine) bumps the tree epoch…
        let coarse_leaf = *d.tree.leaves().last().unwrap();
        d.tree.refine_block(coarse_leaf, &mut d.unk);
        assert!(d.tree.epoch() > epoch_before);

        // …so the next parallel call rebuilds the plan over the new leaves.
        let probes = d.par_leaf_update(2, |_tree, _id, _slab, probe| {
            probe.stats.zones += 1;
        });
        let plan = d.exec.plan.as_ref().unwrap();
        assert_eq!(plan.epoch, d.tree.epoch());
        let covered: usize = plan.parts.iter().map(Vec::len).sum();
        assert_eq!(covered, d.tree.leaves().len());
        assert!(d.tree.leaves().len() > leaves_before);
        let zones: u64 = probes.iter().map(|p| p.stats.zones).sum();
        assert_eq!(zones as usize, d.tree.leaves().len());
    }

    #[test]
    fn par_leaf_min_matches_serial_scan() {
        let mut d = refined_domain();
        let g = d.tree.config().nguard;
        for (n, id) in d.tree.leaves().into_iter().enumerate() {
            d.unk.set(DENS, g, g, 0, id.idx(), 10.0 - n as f64);
        }
        let serial = d.par_leaf_min(1, |tree, unk, id| {
            let _ = tree;
            unk.get(DENS, g, g, 0, id.idx())
        });
        for nranks in [2, 4, 7] {
            let par = d.par_leaf_min(nranks, |tree, unk, id| {
                let _ = tree;
                unk.get(DENS, g, g, 0, id.idx())
            });
            assert_eq!(par.to_bits(), serial.to_bits());
        }
    }

    #[test]
    fn total_zones_counts_interiors() {
        let d = refined_domain();
        assert_eq!(d.total_zones(), 7 * 64);
    }
}

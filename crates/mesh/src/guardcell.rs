//! Guard-cell filling, restriction, and prolongation.
//!
//! PARAMESH's `amr_guardcell` fills every block's guard layers from
//! same-level neighbors (direct copy), finer neighbors (restriction — via
//! the neighbor's parent node, which holds restricted data), coarser
//! neighbors (monotone linear prolongation), and the physical boundary
//! conditions. Fill order is coarse → fine so prolongation sources are
//! always current.
//!
//! The exchange is built from four *region kernels* that write the
//! destination slab directly:
//!
//! * [`restrict_child`] averages a child's interior into its octant of the
//!   parent's interior;
//! * [`copy_same`] moves a same-level neighbor's interior into a guard
//!   region as contiguous row runs ([`UnkGeom::row_runs`] — one
//!   `copy_from_slice` of `n × nvar` doubles per row under the FLASH
//!   layout, so both layouts share the kernel);
//! * [`prolong_region`] walks the *coarse source* zones, computes the
//!   limited slopes once per (zone, variable) and emits the 2^ndim fine
//!   values;
//! * [`fill_boundary_region`] applies the physical boundary conditions
//!   inside one slab.
//!
//! All of them walk zones outermost and variables innermost, the order the
//! `nvar`-fastest layout stores them (the stride structure the paper's
//! §I.C singles out). Two block-level drivers sit on top —
//! [`restrict_parent_cells`] and [`fill_block_cells`] — and every fill
//! path runs exactly those two: the serial [`fill_guardcells`], the pooled
//! `Domain::fill_guardcells` (one dispatch per tree level) and the step
//! graph's per-block restrict/fill tasks. Within a level every read is a
//! same-level *interior* or a finished coarser slab and every write is the
//! block's own *guards*, so blocks of one level can be filled in any
//! order, concurrently, with bit-identical results.
//!
//! The neighbor of each (block, direction) is looked up once per tree
//! epoch and kept in an [`ExchangePlan`].

use crate::block::{BlockId, BlockState, MortonKey};
use crate::tree::{BoundaryCondition, MeshConfig, Neighbor, Tree};
use crate::unk::{Region, UnkCells, UnkGeom, UnkStorage};
use crate::vars::{VELX, VELY, VELZ};

/// minmod slope limiter.
#[inline]
fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// Prolongate the parent's interior into child `c`'s interior
/// (conservative, minmod-limited linear; one-sided slopes at the parent's
/// interior edges so stale parent guards are never read).
pub fn prolong_interior(
    tree: &Tree,
    unk: &mut UnkStorage,
    parent: BlockId,
    child: BlockId,
    c: usize,
) {
    let cfg = tree.config();
    let ng = cfg.nguard;
    let nxb = cfg.nxb;
    let half = nxb / 2;
    let (ox, oy, oz) = (c & 1, (c >> 1) & 1, (c >> 2) & 1);
    let pb = parent.idx();
    let cb = child.idx();

    // Limited slope of var at parent interior cell (pi, pj, pk) along axis,
    // using one-sided differences at the interior edge.
    let slope = |unk: &UnkStorage, var: usize, p: [usize; 3], axis: usize| -> f64 {
        let lo = ng;
        let hi = ng + nxb - 1;
        let at = |q: [usize; 3]| unk.get(var, q[0], q[1], q[2], pb);
        let mut m = p;
        let mut pl = p;
        if p[axis] == lo {
            m[axis] += 1;
            let d = at(m) - at(p);
            return d;
        }
        if p[axis] == hi {
            pl[axis] -= 1;
            return at(p) - at(pl);
        }
        m[axis] += 1;
        pl[axis] -= 1;
        minmod(at(m) - at(p), at(p) - at(pl))
    };

    let kr = unk.interior_k().collect::<Vec<_>>();
    for var in 0..cfg.nvar {
        for &k in &kr {
            for j in unk.interior() {
                for i in unk.interior() {
                    let (fi, fj) = (i - ng, j - ng);
                    let fk = if cfg.ndim == 3 { k - ng } else { 0 };
                    let p = [
                        ng + ox * half + fi / 2,
                        ng + oy * half + fj / 2,
                        if cfg.ndim == 3 { ng + oz * half + fk / 2 } else { 0 },
                    ];
                    let base = unk.get(var, p[0], p[1], p[2], pb);
                    let mut v = base;
                    let fracs = [fi & 1, fj & 1, fk & 1];
                    for (axis, &frac) in fracs.iter().enumerate().take(cfg.ndim) {
                        let s = slope(unk, var, p, axis);
                        let off = if frac == 0 { -0.25 } else { 0.25 };
                        v += s * off;
                    }
                    unk.set(var, i, j, k, cb, v);
                }
            }
        }
    }
}

// ---- region kernels ------------------------------------------------------

/// Average child `c`'s interior (plain averaging — conservative for cell
/// means) into the corresponding quadrant/octant of the parent's interior.
/// Reads only `child`'s interior, writes only `parent`'s.
fn restrict_child(geom: &UnkGeom, parent: &mut [f64], child: &[f64], c: usize) {
    let ng = geom.nguard;
    let half = geom.nxb / 2;
    let (ox, oy, oz) = (c & 1, (c >> 1) & 1, (c >> 2) & 1);
    let three_d = geom.ndim == 3;
    let (kcells, kk) = if three_d { (half, 2) } else { (1, 1) };
    let weight = 1.0 / (1 << geom.ndim) as f64;
    let (per_var, per_zone) = geom.strides();

    let mut fine = [0usize; 8];
    for pk in 0..kcells {
        for pj in 0..half {
            for pi in 0..half {
                // The 2^ndim child zones under this parent zone, in the
                // (dk, dj, di) order the sum below accumulates them.
                let mut n = 0;
                for dk in 0..kk {
                    let ck = if three_d { ng + 2 * pk + dk } else { 0 };
                    for dj in 0..2 {
                        for di in 0..2 {
                            fine[n] = geom.cell(ng + 2 * pi + di, ng + 2 * pj + dj, ck) * per_zone;
                            n += 1;
                        }
                    }
                }
                let zk = if three_d { ng + oz * half + pk } else { 0 };
                let p = geom.cell(ng + ox * half + pi, ng + oy * half + pj, zk) * per_zone;
                for var in 0..geom.nvar {
                    let v = var * per_var;
                    let mut sum = 0.0;
                    for &f in &fine[..n] {
                        sum += child[f + v];
                    }
                    parent[p + v] = sum * weight;
                }
            }
        }
    }
}

/// Per-axis destination range of the guard region in direction `d`.
fn guard_range(ng: usize, nxb: usize, da: i32, axis_is_k_in_2d: bool) -> std::ops::Range<usize> {
    if axis_is_k_in_2d {
        return 0..1;
    }
    match da {
        -1 => 0..ng,
        0 => ng..ng + nxb,
        1 => ng + nxb..2 * ng + nxb,
        _ => unreachable!(),
    }
}

/// Visit the row runs of a same-level copy into the guard region in
/// direction `d`: `row(dst, src)` gets equal-length element ranges, `dst`
/// in the destination slab's guards and `src` — the same zones shifted
/// back by one block — in the source slab's interior.
fn same_level_rows(
    geom: &UnkGeom,
    d: [i32; 3],
    mut row: impl FnMut(std::ops::Range<usize>, std::ops::Range<usize>),
) {
    let shift = |idx: usize, da: i32| (idx as i64 - da as i64 * geom.nxb as i64) as usize;
    let ri = guard_range(geom.nguard, geom.nxb, d[0], false);
    let rj = guard_range(geom.nguard, geom.nxb, d[1], false);
    let rk = guard_range(geom.nguard, geom.nxb, d[2], geom.ndim == 2);
    let si = shift(ri.start, d[0]);
    for k in rk {
        let sk = if geom.ndim == 3 { shift(k, d[2]) } else { 0 };
        for j in rj.clone() {
            let sj = shift(j, d[1]);
            let dst = geom.row_runs(ri.start, j, k, ri.len());
            let src = geom.row_runs(si, sj, sk, ri.len());
            for (dr, sr) in dst.zip(src) {
                row(dr, sr);
            }
        }
    }
}

/// Fill the guard region of `dst` in direction `d` from the same-level
/// neighbor slab `src` (its interior shifted by one block).
fn copy_same(geom: &UnkGeom, dst: &mut [f64], src: &[f64], d: [i32; 3]) {
    same_level_rows(geom, d, |dr, sr| dst[dr].copy_from_slice(&src[sr]));
}

/// [`copy_same`] for a block that is its own neighbor (a singly-rooted
/// periodic axis): interior rows move into guard rows of the *same* slab,
/// so the copy is `copy_within` on one exclusive borrow instead of a
/// shared and an exclusive view of the same memory.
fn copy_same_within(geom: &UnkGeom, slab: &mut [f64], d: [i32; 3]) {
    same_level_rows(geom, d, |dr, sr| slab.copy_within(sr, dr.start));
}

/// Fill the guard region of the fine block `dst` (whose Morton key is
/// `key`) in direction `d` by limited linear prolongation from its coarser
/// neighbor's slab `src` — one level coarser, so already fully filled when
/// the exchange proceeds coarse → fine; its guards are sampled by the
/// slope stencil.
///
/// Iterates the coarse source zones: the minmod slopes are computed once
/// per (zone, variable) and shared by the up to 2^ndim fine zones the
/// coarse zone covers inside the region. `NDIM` is `geom.ndim` as a
/// constant so the per-axis loops unroll (halves the kernel's time).
fn prolong_region<const NDIM: usize>(
    geom: &UnkGeom,
    key: MortonKey,
    dst: &mut [f64],
    src: &[f64],
    d: [i32; 3],
) {
    debug_assert_eq!(NDIM, geom.ndim);
    let ng = geom.nguard as i64;
    let nxb = geom.nxb as i64;
    let coords = [key.ix as i64, key.iy as i64, key.iz as i64];
    let ranges = [
        guard_range(geom.nguard, geom.nxb, d[0], false),
        guard_range(geom.nguard, geom.nxb, d[1], false),
        guard_range(geom.nguard, geom.nxb, d[2], NDIM == 2),
    ];

    /// One axis of the region in *parent-block fine-zone units*: padded
    /// destination index `idx` sits at `fp = fp0 + idx`, coarse zone
    /// `fp.div_euclid(2)`, and that coarse zone is padded index
    /// `cp + src0` of the source block.
    #[derive(Clone, Copy)]
    struct Axis {
        fp0: i64,
        lo: i64,
        hi: i64,
        src0: i64,
    }
    let axis = |a: usize| -> Axis {
        if a >= NDIM {
            // The flat k axis of a 2-d block: zone 0 maps to zone 0.
            return Axis { fp0: 0, lo: 0, hi: 1, src0: 0 };
        }
        let fp0 = (coords[a] & 1) * nxb - ng;
        // The coarse source block's offset from the fine block's parent
        // follows from key arithmetic — for diagonal directions it can be
        // 0 even when d[a] ≠ 0 (the guard region stays inside the
        // parent's column on that axis).
        let e = (coords[a] + d[a] as i64).div_euclid(2) - coords[a].div_euclid(2);
        Axis {
            fp0,
            lo: fp0 + ranges[a].start as i64,
            hi: fp0 + ranges[a].end as i64,
            src0: ng - e * nxb,
        }
    };
    let ax = [axis(0), axis(1), axis(2)];
    // Coarse zones an axis spans, and the fine positions of coarse zone
    // `cp` that fall inside the region.
    let coarse = |a: Axis| a.lo.div_euclid(2)..=(a.hi - 1).div_euclid(2);
    let fine = |a: Axis, cp: i64| (2 * cp).max(a.lo)..(2 * cp + 2).min(a.hi);
    let quarter = |fp: i64| if fp.rem_euclid(2) == 0 { -0.25 } else { 0.25 };

    let (per_var, per_zone) = geom.strides();
    let step = [per_zone, per_zone * geom.ni, per_zone * geom.ni * geom.nj];
    let mut dst_zone = [0usize; 8];
    let mut offs = [[0.0f64; 3]; 8];

    for ck in coarse(ax[2]) {
        for cj in coarse(ax[1]) {
            for ci in coarse(ax[0]) {
                let s = [ci + ax[0].src0, cj + ax[1].src0, ck + ax[2].src0];
                debug_assert!(
                    (0..NDIM).all(|a| s[a] >= 1 && (s[a] as usize) < geom.pencil_len(a) - 1),
                    "coarse source out of range: {s:?}"
                );
                let sc = geom.cell(s[0] as usize, s[1] as usize, s[2] as usize) * per_zone;
                let mut n = 0;
                for fk in fine(ax[2], ck) {
                    for fj in fine(ax[1], cj) {
                        for fi in fine(ax[0], ci) {
                            dst_zone[n] = geom.cell(
                                (fi - ax[0].fp0) as usize,
                                (fj - ax[1].fp0) as usize,
                                (fk - ax[2].fp0) as usize,
                            ) * per_zone;
                            offs[n] = [quarter(fi), quarter(fj), quarter(fk)];
                            n += 1;
                        }
                    }
                }
                for var in 0..geom.nvar {
                    let v = var * per_var;
                    let v0 = src[sc + v];
                    let mut slope = [0.0f64; 3];
                    for a in 0..NDIM {
                        slope[a] = minmod(src[sc + step[a] + v] - v0, v0 - src[sc - step[a] + v]);
                    }
                    for (zone, off) in dst_zone[..n].iter().zip(&offs[..n]) {
                        let mut val = v0;
                        for a in 0..NDIM {
                            val += slope[a] * off[a];
                        }
                        dst[zone + v] = val;
                    }
                }
            }
        }
    }
}

/// What a physical boundary does to a padded index along one axis of a
/// boundary region.
#[derive(Clone, Copy)]
enum AxisRule {
    /// Real data exists in this direction (already filled): read it in
    /// place. Also the periodic axis of a mixed corner (periodic along
    /// this axis, a wall along another) — a purely periodic face never
    /// reaches the boundary fill because `neighbor` wraps it, and in the
    /// mixed case the wrapped neighbor's copy already filled this guard
    /// column, so the wall axis mirrors it.
    Keep,
    /// Outflow: clamp into the interior `lo..=hi`.
    Clamp { lo: usize, hi: usize },
    /// Reflecting: guard `t` reads interior `sum - t`, and the normal
    /// velocity flips sign.
    Mirror { sum: usize },
}

impl AxisRule {
    #[inline]
    fn source(self, idx: usize) -> usize {
        match self {
            AxisRule::Keep => idx,
            AxisRule::Clamp { lo, hi } => idx.clamp(lo, hi),
            AxisRule::Mirror { sum } => sum - idx,
        }
    }
}

/// Apply the physical boundary condition to the guard region of the block
/// with Morton key `key` in direction `d` (some axes of which may point at
/// real neighbors; those are handled by per-axis clamping into
/// already-filled guard data). Operates on the block's own slab only, after
/// its neighbor-sourced regions have been filled.
fn fill_boundary_region(
    cfg: &MeshConfig,
    geom: &UnkGeom,
    key: MortonKey,
    d: [i32; 3],
    slab: &mut [f64],
) {
    let (ng, nxb) = (cfg.nguard, cfg.nxb);
    let ri = guard_range(ng, nxb, d[0], false);
    let rj = guard_range(ng, nxb, d[1], false);
    let rk = guard_range(ng, nxb, d[2], cfg.ndim == 2);

    let rule = |axis: usize| -> AxisRule {
        if axis >= cfg.ndim || d[axis] == 0 {
            return AxisRule::Keep;
        }
        // Is the block face in direction d[axis] on the physical boundary?
        let coord = [key.ix, key.iy, key.iz][axis] as u64;
        let extent = (cfg.nroot[axis] as u64) << key.level;
        let low = d[axis] < 0;
        if !(low && coord == 0 || !low && coord == extent - 1) {
            return AxisRule::Keep;
        }
        match cfg.bc_at(axis, if low { 0 } else { 1 }) {
            BoundaryCondition::Outflow => AxisRule::Clamp { lo: ng, hi: ng + nxb - 1 },
            BoundaryCondition::Reflecting => AxisRule::Mirror {
                sum: if low { 2 * ng - 1 } else { 2 * (ng + nxb) - 1 },
            },
            BoundaryCondition::Periodic => AxisRule::Keep,
        }
    };
    let rules = [rule(0), rule(1), rule(2)];

    let (per_var, per_zone) = geom.strides();
    for k in rk {
        let sk = rules[2].source(k);
        for j in rj.clone() {
            let sj = rules[1].source(j);
            for i in ri.clone() {
                let s = geom.cell(rules[0].source(i), sj, sk) * per_zone;
                let t = geom.cell(i, j, k) * per_zone;
                for var in 0..geom.nvar {
                    slab[t + var * per_var] = slab[s + var * per_var];
                }
                // Flip the normal velocity component on reflection.
                for (rule, vel) in rules.iter().zip([VELX, VELY, VELZ]) {
                    if matches!(rule, AxisRule::Mirror { .. }) && vel < geom.nvar {
                        slab[t + vel * per_var] *= -1.0;
                    }
                }
            }
        }
    }
}

// ---- exchange plan ---------------------------------------------------------

/// Everything about a guard exchange that depends only on the tree
/// topology: the per-level block lists in fill order and the neighbor of
/// every (active block, direction). Built once per [`Tree::epoch`] —
/// `Domain` caches it — so a fill does no neighbor lookups.
pub struct ExchangePlan {
    epoch: u64,
    dirs: Vec<[i32; 3]>,
    /// `neighbors[blk * dirs.len() + n]` is `tree.neighbor(blk, dirs[n])`
    /// for every active block (`Boundary` filler for free slots).
    neighbors: Vec<Neighbor>,
    /// `active[l]` — active (leaf + parent) blocks at tree level `l`,
    /// BlockId-ascending.
    active: Vec<Vec<BlockId>>,
    /// `parents[l]` — the parent blocks among `active[l]`.
    parents: Vec<Vec<BlockId>>,
}

impl ExchangePlan {
    /// Look up every active block's neighbors and bin the blocks by level.
    pub(crate) fn build(tree: &Tree) -> ExchangePlan {
        let cfg = tree.config();
        let dirs = cfg.neighbor_dirs();
        let mut neighbors = vec![Neighbor::Boundary; cfg.max_blocks * dirs.len()];
        let mut active: Vec<Vec<BlockId>> = Vec::new();
        let mut parents: Vec<Vec<BlockId>> = Vec::new();
        for raw in 0..cfg.max_blocks as u32 {
            let id = BlockId(raw);
            let meta = tree.block(id);
            if meta.state == BlockState::Free {
                continue;
            }
            let lvl = meta.key.level as usize;
            if lvl >= active.len() {
                active.resize_with(lvl + 1, Vec::new);
                parents.resize_with(lvl + 1, Vec::new);
            }
            active[lvl].push(id);
            if meta.state == BlockState::Parent {
                parents[lvl].push(id);
            }
            let row = &mut neighbors[id.idx() * dirs.len()..][..dirs.len()];
            for (slot, &d) in row.iter_mut().zip(&dirs) {
                *slot = tree.neighbor(id, d);
            }
        }
        ExchangePlan {
            epoch: tree.epoch(),
            dirs,
            neighbors,
            active,
            parents,
        }
    }

    /// The tree topology revision this plan was built at.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of tree levels holding active blocks.
    pub fn levels(&self) -> usize {
        self.active.len()
    }

    /// Active blocks at level `lvl`, in fill order.
    pub fn active(&self, lvl: usize) -> &[BlockId] {
        &self.active[lvl]
    }

    /// Parent blocks at level `lvl`, in restriction order.
    pub fn parents(&self, lvl: usize) -> &[BlockId] {
        &self.parents[lvl]
    }

    /// Block `id`'s `(direction, neighbor)` pairs in
    /// [`MeshConfig::neighbor_dirs`] order.
    pub fn neighbors(&self, id: BlockId) -> impl Iterator<Item = ([i32; 3], Neighbor)> + '_ {
        let row = &self.neighbors[id.idx() * self.dirs.len()..][..self.dirs.len()];
        self.dirs.iter().copied().zip(row.iter().copied())
    }
}

// ---- block drivers ---------------------------------------------------------

/// Restrict all of `pid`'s children into its interior, in child order.
/// A no-op on leaves.
///
/// # Safety
/// The caller must have exclusive access to `pid`'s interior and shared
/// access to every child's interior for the duration of the call: no other
/// thread may write the children or touch the parent's interior (graph
/// edges, a level-wise dispatch, or an exclusive `&mut UnkStorage`
/// guarantee it).
pub unsafe fn restrict_parent_cells(tree: &Tree, geom: &UnkGeom, cells: &UnkCells, pid: BlockId) {
    let meta = tree.block(pid);
    let Some(children) = meta.children else {
        return;
    };
    // SAFETY: exclusive parent-interior access is the caller's contract;
    // a parent is never its own child, so the child views below are of
    // other slabs.
    let parent = unsafe { cells.write_slab(pid.idx(), Region::Interior, None) };
    for (c, &cid) in children.iter().enumerate().take(meta.n_children as usize) {
        // SAFETY: shared child access is the caller's contract;
        // restrict_child samples only the child's interior.
        let child = unsafe { cells.read_slab(cid.idx(), Region::Interior) };
        restrict_child(geom, parent, child, c);
    }
}

/// Fill every guard region of block `id`: same-level copies and
/// prolongations first, in `plan` direction order, then the physical
/// boundary regions (which may read guards the copies produced, e.g.
/// corners at a wall).
///
/// # Safety
/// The caller must have exclusive access to `id`'s guards and shared
/// access to `id`'s interior, every same-level neighbor's interior and
/// every coarser neighbor's full slab for the duration of the call. No
/// other thread may write those regions meanwhile; concurrent fills of
/// other blocks of the same level only write *their* guards, so they
/// qualify. `plan` must have been built for `tree`'s current epoch.
pub unsafe fn fill_block_cells(
    tree: &Tree,
    geom: &UnkGeom,
    cells: &UnkCells,
    plan: &ExchangePlan,
    id: BlockId,
) {
    debug_assert_eq!(plan.epoch(), tree.epoch(), "stale exchange plan");
    let key = tree.block(id).key;
    // SAFETY: exclusive own-guard access is the caller's contract; the
    // kernels below write only guards and read the own interior for the
    // self-neighbor copy and the boundary mirrors.
    let own = unsafe { cells.write_slab(id.idx(), Region::Guards, Some(Region::Interior)) };
    for (d, nbr) in plan.neighbors(id) {
        match nbr {
            // A singly-rooted periodic axis wraps onto the block itself:
            // `own` already covers it, a second view would alias.
            Neighbor::Same(nid) if nid == id => copy_same_within(geom, own, d),
            Neighbor::Same(nid) => {
                // SAFETY: shared neighbor access is the caller's contract
                // and `nid != id`; a same-level copy reads only the source
                // interior.
                let src = unsafe { cells.read_slab(nid.idx(), Region::Interior) };
                copy_same(geom, own, src, d);
            }
            Neighbor::Coarser(nid) => {
                // SAFETY: as above (a coarser block is never `id`);
                // prolongation also samples the coarse neighbor's guards,
                // so the claim is the full slab.
                let src = unsafe { cells.read_slab(nid.idx(), Region::Full) };
                if geom.ndim == 3 {
                    prolong_region::<3>(geom, key, own, src, d);
                } else {
                    prolong_region::<2>(geom, key, own, src, d);
                }
            }
            Neighbor::Boundary => {}
        }
    }
    for (d, nbr) in plan.neighbors(id) {
        if nbr == Neighbor::Boundary {
            fill_boundary_region(tree.config(), geom, key, d, own);
        }
    }
}

/// Restrict the children of `pid` into its interior (the derefinement
/// data move).
pub(crate) fn restrict_into_parent(tree: &Tree, unk: &mut UnkStorage, pid: BlockId) {
    let geom = unk.geom();
    let cells = unk.cells();
    // SAFETY: `unk` is exclusively borrowed for the whole call and nothing
    // else runs, so the region contract holds trivially.
    unsafe { restrict_parent_cells(tree, &geom, &cells, pid) };
}

/// Fill every active block's guard cells. Restriction of leaf data into
/// parent nodes happens first (deepest parents first) so same-level copies
/// from "virtual" coarse data work; then blocks are filled coarse → fine.
///
/// This is the serial reference path; `Domain::fill_guardcells` runs the
/// same two block drivers from a cached plan, so the results are
/// bit-identical.
pub fn fill_guardcells(tree: &Tree, unk: &mut UnkStorage) {
    fill_guardcells_planned(tree, &ExchangePlan::build(tree), unk);
}

/// [`fill_guardcells`] with a prebuilt plan for `tree`'s current epoch.
pub(crate) fn fill_guardcells_planned(tree: &Tree, plan: &ExchangePlan, unk: &mut UnkStorage) {
    let geom = unk.geom();
    let cells = unk.cells();
    for lvl in (0..plan.levels()).rev() {
        for &pid in plan.parents(lvl) {
            // SAFETY: `unk` is exclusively borrowed for the whole call and
            // blocks are visited one at a time, so each call's region
            // contract holds trivially.
            unsafe { restrict_parent_cells(tree, &geom, &cells, pid) };
        }
    }
    for lvl in 0..plan.levels() {
        for &id in plan.active(lvl) {
            // SAFETY: as above.
            unsafe { fill_block_cells(tree, &geom, &cells, plan, id) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Mark, MeshConfig};
    use crate::vars::{DENS, VELX};
    use rflash_hugepages::Policy;
    use std::collections::HashMap;

    fn linear_fill(tree: &Tree, unk: &mut UnkStorage, f: impl Fn([f64; 3]) -> f64) {
        for id in tree.leaves() {
            for k in unk.interior_k() {
                for j in unk.interior() {
                    for i in unk.interior() {
                        let x = tree.cell_center(id, i, j, k);
                        unk.set(DENS, i, j, k, id.idx(), f(x));
                    }
                }
            }
        }
    }

    /// Check DENS guard cells of every leaf against the analytic field
    /// (interior-covered guards only — physical boundaries use outflow and
    /// won't match a linear function).
    fn check_guards(tree: &Tree, unk: &UnkStorage, f: impl Fn([f64; 3]) -> f64, tol: f64) {
        let cfg = tree.config();
        for id in tree.leaves() {
            let (ni, nj, nk) = unk.padded();
            for k in 0..nk {
                for j in 0..nj {
                    for i in 0..ni {
                        let interior = unk.interior().contains(&i)
                            && unk.interior().contains(&j)
                            && (cfg.ndim == 2 || unk.interior().contains(&k));
                        if interior {
                            continue;
                        }
                        let x = tree.cell_center(id, i, j, k);
                        // Skip guards outside the physical domain, and
                        // guards near it: a coarse prolongation source whose
                        // limiter stencil touches an outflow-clamped guard
                        // correctly flattens to first order there.
                        let inside = (0..cfg.ndim).all(|a| {
                            let coarse_dx = (cfg.domain_hi[a] - cfg.domain_lo[a])
                                / (cfg.nroot[a] * cfg.nxb) as f64;
                            let margin = 3.0 * coarse_dx;
                            x[a] > cfg.domain_lo[a] + margin
                                && x[a] < cfg.domain_hi[a] - margin
                        });
                        if !inside {
                            continue;
                        }
                        let got = unk.get(DENS, i, j, k, id.idx());
                        let want = f(x);
                        assert!(
                            (got - want).abs() <= tol * want.abs().max(1.0),
                            "leaf {id:?} guard ({i},{j},{k}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_same_level_copy_is_exact() {
        let mut cfg = MeshConfig::test_2d();
        cfg.nroot = [2, 2, 1];
        let tree = Tree::new(cfg);
        let mut unk = tree.make_unk(Policy::None);
        let f = |x: [f64; 3]| 1.0 + 2.0 * x[0] + 3.0 * x[1];
        linear_fill(&tree, &mut unk, f);
        fill_guardcells(&tree, &mut unk);
        check_guards(&tree, &unk, f, 1e-12);
    }

    #[test]
    fn fine_coarse_guards_reproduce_linear_fields() {
        // Refine one quadrant: the fine/coarse interfaces must still
        // reproduce a linear field exactly (linear prolongation + averaging
        // restriction are exact on linear data away from limiter kicks).
        let mut cfg = MeshConfig::test_2d();
        cfg.nroot = [2, 2, 1];
        let mut tree = Tree::new(cfg);
        let mut unk = tree.make_unk(Policy::None);
        let first = tree.leaves()[0];
        let mut marks = HashMap::new();
        marks.insert(first, Mark::Refine);
        tree.adapt(&mut unk, &marks);
        assert!(tree.leaves().len() > 4);

        let f = |x: [f64; 3]| 1.0 + 2.0 * x[0] + 3.0 * x[1];
        linear_fill(&tree, &mut unk, f);
        fill_guardcells(&tree, &mut unk);
        check_guards(&tree, &unk, f, 1e-10);
    }

    #[test]
    fn three_d_guard_fill_linear() {
        let mut cfg = MeshConfig::test_2d();
        cfg.ndim = 3;
        cfg.nroot = [2, 2, 2];
        cfg.max_blocks = 128;
        let tree = Tree::new(cfg);
        let mut unk = tree.make_unk(Policy::None);
        let f = |x: [f64; 3]| 0.5 + x[0] + 2.0 * x[1] - x[2];
        linear_fill(&tree, &mut unk, f);
        fill_guardcells(&tree, &mut unk);
        check_guards(&tree, &unk, f, 1e-12);
    }

    #[test]
    fn outflow_boundary_copies_edge_values() {
        let tree = Tree::new(MeshConfig::test_2d());
        let mut unk = tree.make_unk(Policy::None);
        let id = tree.leaves()[0];
        linear_fill(&tree, &mut unk, |x| 1.0 + x[0]);
        fill_guardcells(&tree, &mut unk);
        let ng = tree.config().nguard;
        // -x guards equal the first interior column's value.
        let edge = unk.get(DENS, ng, ng + 2, 0, id.idx());
        for i in 0..ng {
            assert_eq!(unk.get(DENS, i, ng + 2, 0, id.idx()), edge);
        }
    }

    #[test]
    fn reflecting_boundary_flips_normal_velocity() {
        let mut cfg = MeshConfig::test_2d();
        cfg.bc = BoundaryCondition::Reflecting;
        let tree = Tree::new(cfg);
        let mut unk = tree.make_unk(Policy::None);
        let id = tree.leaves()[0];
        let ng = tree.config().nguard;
        for j in unk.interior() {
            for i in unk.interior() {
                unk.set(VELX, i, j, 0, id.idx(), 3.0);
                unk.set(DENS, i, j, 0, id.idx(), 2.0);
            }
        }
        fill_guardcells(&tree, &mut unk);
        // VELX mirrors with a sign flip in the x guards…
        assert_eq!(unk.get(VELX, ng - 1, ng, 0, id.idx()), -3.0);
        // …but not in the y guards (tangential there).
        assert_eq!(unk.get(VELX, ng, ng - 1, 0, id.idx()), 3.0);
        // Scalars mirror unchanged.
        assert_eq!(unk.get(DENS, ng - 1, ng, 0, id.idx()), 2.0);
    }

    #[test]
    fn periodic_guards_wrap_values() {
        let mut cfg = MeshConfig::test_2d();
        cfg.bc = BoundaryCondition::Periodic;
        cfg.nroot = [2, 1, 1];
        let tree = Tree::new(cfg);
        let mut unk = tree.make_unk(Policy::None);
        let left = tree.leaves()[0];
        let right = tree.leaves()[1];
        let ng = tree.config().nguard;
        for j in unk.interior() {
            for i in unk.interior() {
                unk.set(DENS, i, j, 0, left.idx(), 1.0);
                unk.set(DENS, i, j, 0, right.idx(), 2.0);
            }
        }
        fill_guardcells(&tree, &mut unk);
        // Left block's -x guards wrap to the right block.
        assert_eq!(unk.get(DENS, ng - 1, ng, 0, left.idx()), 2.0);
        assert_eq!(unk.get(DENS, ng + tree.config().nxb, ng, 0, right.idx()), 1.0);
    }

    /// Mixed corners — periodic along x, walls along y — must compose: the
    /// corner guard is the y-mirror of the x-wrapped neighbor's column
    /// (regression for the Rayleigh–Taylor channel topology).
    #[test]
    fn periodic_x_reflecting_y_corners_compose() {
        let mut cfg = MeshConfig::test_2d();
        cfg.bc = BoundaryCondition::Periodic;
        cfg.bc_faces[1] = [
            Some(BoundaryCondition::Reflecting),
            Some(BoundaryCondition::Reflecting),
        ];
        cfg.nroot = [2, 1, 1];
        let tree = Tree::new(cfg);
        let mut unk = tree.make_unk(Policy::None);
        let left = tree.leaves()[0];
        let right = tree.leaves()[1];
        let ng = tree.config().nguard;
        for j in unk.interior() {
            for i in unk.interior() {
                unk.set(DENS, i, j, 0, left.idx(), 1.0);
                unk.set(VELY, i, j, 0, left.idx(), 5.0);
                unk.set(DENS, i, j, 0, right.idx(), 2.0);
                unk.set(VELY, i, j, 0, right.idx(), 7.0);
            }
        }
        fill_guardcells(&tree, &mut unk);
        // Left block's lower-left corner guard: x wraps to the right block,
        // y mirrors off the wall. Scalars copy, normal velocity flips.
        assert_eq!(unk.get(DENS, ng - 1, ng - 1, 0, left.idx()), 2.0);
        assert_eq!(unk.get(VELY, ng - 1, ng - 1, 0, left.idx()), -7.0);
        // Face guards stay pure: x face wraps, y face mirrors in place.
        assert_eq!(unk.get(DENS, ng - 1, ng, 0, left.idx()), 2.0);
        assert_eq!(unk.get(VELY, ng, ng - 1, 0, left.idx()), -5.0);
    }

    /// A singly-rooted periodic mesh: the root is its own neighbor in every
    /// direction, so the fill reads the interior and writes the guards of
    /// one slab. Every guard zone must equal the wrapped interior zone, for
    /// every variable, in both layouts.
    fn self_neighbor_wraps(ndim: usize, layout: crate::unk::Layout) {
        let mut cfg = MeshConfig::test_2d();
        cfg.ndim = ndim;
        cfg.nroot = [1, 1, 1];
        cfg.bc = BoundaryCondition::Periodic;
        cfg.layout = layout;
        cfg.max_blocks = 4;
        let tree = Tree::new(cfg);
        let root = tree.leaves()[0];
        for d in cfg.neighbor_dirs() {
            assert_eq!(tree.neighbor(root, d), Neighbor::Same(root));
        }
        let mut unk = tree.make_unk(Policy::None);
        // Unique interior values; poison in the guards.
        let (ni, nj, nk) = unk.padded();
        for var in 0..cfg.nvar {
            for k in 0..nk {
                for j in 0..nj {
                    for i in 0..ni {
                        unk.set(var, i, j, k, root.idx(), f64::NAN);
                    }
                }
            }
            for k in unk.interior_k() {
                for j in unk.interior() {
                    for i in unk.interior() {
                        let v = (var * 10_000 + i * 400 + j * 20 + k) as f64;
                        unk.set(var, i, j, k, root.idx(), v);
                    }
                }
            }
        }
        fill_guardcells(&tree, &mut unk);
        let (ng, nxb) = (cfg.nguard, cfg.nxb);
        let wrap = |p: usize| ng + (p + nxb - ng) % nxb;
        for var in 0..cfg.nvar {
            for k in 0..nk {
                for j in 0..nj {
                    for i in 0..ni {
                        let wk = if ndim == 3 { wrap(k) } else { 0 };
                        let want = unk.get(var, wrap(i), wrap(j), wk, root.idx());
                        let got = unk.get(var, i, j, k, root.idx());
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{ndim}-d {layout:?} var {var} zone ({i},{j},{k}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn periodic_single_root_is_its_own_neighbor_2d() {
        self_neighbor_wraps(2, crate::unk::Layout::VarFirst);
        self_neighbor_wraps(2, crate::unk::Layout::VarLast);
    }

    #[test]
    fn periodic_single_root_is_its_own_neighbor_3d() {
        self_neighbor_wraps(3, crate::unk::Layout::VarFirst);
        self_neighbor_wraps(3, crate::unk::Layout::VarLast);
    }

    #[test]
    fn restriction_is_conservative_sum() {
        let mut cfg = MeshConfig::test_2d();
        let mut tree = Tree::new(cfg);
        let mut unk = tree.make_unk(Policy::None);
        let root = tree.leaves()[0];
        let children = tree.refine_block(root, &mut unk);
        // Random-ish child data.
        for (n, id) in children[..4].iter().enumerate() {
            for j in unk.interior() {
                for i in unk.interior() {
                    unk.set(DENS, i, j, 0, id.idx(), (n + 1) as f64 + (i * j) as f64 * 0.01);
                }
            }
        }
        let fine_mean: f64 = {
            let mut sum = 0.0;
            let mut count = 0;
            for id in &children[..4] {
                for j in unk.interior() {
                    for i in unk.interior() {
                        sum += unk.get(DENS, i, j, 0, id.idx());
                        count += 1;
                    }
                }
            }
            sum / count as f64
        };
        fill_guardcells(&tree, &mut unk);
        let coarse_mean: f64 = {
            let mut sum = 0.0;
            let mut count = 0;
            for j in unk.interior() {
                for i in unk.interior() {
                    sum += unk.get(DENS, i, j, 0, root.idx());
                    count += 1;
                }
            }
            sum / count as f64
        };
        assert!((fine_mean - coarse_mean).abs() < 1e-12);
        cfg.ndim = 2; // silence unused-mut lint path
        let _ = cfg;
    }

    #[test]
    fn prolongation_is_monotone_at_jumps() {
        // A step function must not overshoot under limited prolongation.
        let mut tree = Tree::new(MeshConfig::test_2d());
        let mut unk = tree.make_unk(Policy::None);
        let root = tree.leaves()[0];
        for j in unk.interior() {
            for i in unk.interior() {
                let v = if i < unk.interior().start + 4 { 1.0 } else { 10.0 };
                unk.set(DENS, i, j, 0, root.idx(), v);
            }
        }
        tree.refine_block(root, &mut unk);
        for id in tree.leaves() {
            for j in unk.interior() {
                for i in unk.interior() {
                    let v = unk.get(DENS, i, j, 0, id.idx());
                    assert!(
                        (0.999..=10.001).contains(&v),
                        "overshoot {v} at ({i},{j}) of {id:?}"
                    );
                }
            }
        }
    }
}

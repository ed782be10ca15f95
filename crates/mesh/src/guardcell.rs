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
//!   region as contiguous row runs ([`UnkGeom::row_run`] — one
//!   `copy_from_slice` of `n × nvar` doubles per row);
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
//! `Domain::fill_guardcells_for` (one dispatch per tree level) and the step
//! graph's per-block restrict/fill tasks. Within a level every read is a
//! same-level *interior* or a finished coarser slab and every write is the
//! block's own *guards*, so blocks of one level can be filled in any
//! order, concurrently, with bit-identical results.
//!
//! A fill is *need-driven*: the caller names what its consumer will read
//! ([`GuardNeed`]) and the drivers skip every region outside it. The
//! neighbor of each (block, direction), and per need the region mask of
//! every block and the parents that must be restricted, are derived once
//! per tree epoch and kept in an [`ExchangePlan`].

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
                        if cfg.ndim == 3 {
                            ng + oz * half + fk / 2
                        } else {
                            0
                        },
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
                            fine[n] = geom.zone(ng + 2 * pi + di, ng + 2 * pj + dj, ck);
                            n += 1;
                        }
                    }
                }
                let zk = if three_d { ng + oz * half + pk } else { 0 };
                let p = geom.zone(ng + ox * half + pi, ng + oy * half + pj, zk);
                for var in 0..geom.nvar {
                    let mut sum = 0.0;
                    for &f in &fine[..n] {
                        sum += child[f + var];
                    }
                    parent[p + var] = sum * weight;
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

/// Visit the rows of a same-level copy into the guard region in
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
            row(
                geom.row_run(ri.start, j, k, ri.len()),
                geom.row_run(si, sj, sk, ri.len()),
            );
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
            return Axis {
                fp0: 0,
                lo: 0,
                hi: 1,
                src0: 0,
            };
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

    let nvar = geom.nvar;
    let step = [nvar, nvar * geom.ni, nvar * geom.ni * geom.nj];
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
                let sc = geom.zone(s[0] as usize, s[1] as usize, s[2] as usize);
                let mut n = 0;
                for fk in fine(ax[2], ck) {
                    for fj in fine(ax[1], cj) {
                        for fi in fine(ax[0], ci) {
                            dst_zone[n] = geom.zone(
                                (fi - ax[0].fp0) as usize,
                                (fj - ax[1].fp0) as usize,
                                (fk - ax[2].fp0) as usize,
                            );
                            offs[n] = [quarter(fi), quarter(fj), quarter(fk)];
                            n += 1;
                        }
                    }
                }
                for var in 0..nvar {
                    let v0 = src[sc + var];
                    let mut slope = [0.0f64; 3];
                    for a in 0..NDIM {
                        slope[a] =
                            minmod(src[sc + step[a] + var] - v0, v0 - src[sc - step[a] + var]);
                    }
                    for (zone, off) in dst_zone[..n].iter().zip(&offs[..n]) {
                        let mut val = v0;
                        for a in 0..NDIM {
                            val += slope[a] * off[a];
                        }
                        dst[zone + var] = val;
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
            BoundaryCondition::Outflow => AxisRule::Clamp {
                lo: ng,
                hi: ng + nxb - 1,
            },
            BoundaryCondition::Reflecting => AxisRule::Mirror {
                sum: if low { 2 * ng - 1 } else { 2 * (ng + nxb) - 1 },
            },
            BoundaryCondition::Periodic => AxisRule::Keep,
        }
    };
    let rules = [rule(0), rule(1), rule(2)];

    for k in rk {
        let sk = rules[2].source(k);
        for j in rj.clone() {
            let sj = rules[1].source(j);
            for i in ri.clone() {
                let s = geom.zone(rules[0].source(i), sj, sk);
                let t = geom.zone(i, j, k);
                for var in 0..geom.nvar {
                    slab[t + var] = slab[s + var];
                }
                // Flip the normal velocity component on reflection.
                for (rule, vel) in rules.iter().zip([VELX, VELY, VELZ]) {
                    if matches!(rule, AxisRule::Mirror { .. }) && vel < geom.nvar {
                        slab[t + vel] *= -1.0;
                    }
                }
            }
        }
    }
}

// ---- exchange plan ---------------------------------------------------------

/// Which guard zones the consumer of a fill is about to read. The exchange
/// fills exactly those (plus what filling them reads) and leaves every other
/// guard zone untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardNeed {
    /// The two face regions along one axis of every leaf: what a split
    /// sweep along that axis reads.
    Axis(usize),
    /// All `2·ndim` face regions of every leaf: per-axis ±1 stencils (the
    /// Löhner estimator, the flame's advection–diffusion step).
    Faces,
    /// Every face, edge and corner region of every active block, parents
    /// included, with every parent restricted — the per-cell oracle's
    /// contract. No step consumer needs it.
    All,
}

/// Exact counts of what guard fills did: cumulative on a `Domain`, or one
/// fill's worth from [`ExchangePlan::fill_totals`]. They depend only on the
/// tree and the needs requested, so repeats of a run agree to the last
/// digit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardFillStats {
    /// Fills run (one per need requested).
    pub fills: u64,
    /// Blocks that had at least one guard region written.
    pub blocks_filled: u64,
    /// Parents whose interior was restricted from their children.
    pub parents_restricted: u64,
    /// Guard zones written.
    pub guard_zones: u64,
    /// Bytes those zones hold (`zones × nvar × 8`).
    pub guard_bytes: u64,
}

impl GuardFillStats {
    /// The part of this tally that came after `earlier` was taken.
    pub fn since(self, earlier: GuardFillStats) -> GuardFillStats {
        GuardFillStats {
            fills: self.fills - earlier.fills,
            blocks_filled: self.blocks_filled - earlier.blocks_filled,
            parents_restricted: self.parents_restricted - earlier.parents_restricted,
            guard_zones: self.guard_zones - earlier.guard_zones,
            guard_bytes: self.guard_bytes - earlier.guard_bytes,
        }
    }

    /// Fold another tally in.
    pub fn absorb(&mut self, other: GuardFillStats) {
        self.fills += other.fills;
        self.blocks_filled += other.blocks_filled;
        self.parents_restricted += other.parents_restricted;
        self.guard_zones += other.guard_zones;
        self.guard_bytes += other.guard_bytes;
    }
}

/// What one [`GuardNeed`] makes of the tree: which regions of which blocks
/// get filled and which parents must hold restricted data first.
struct NeedTable {
    /// `masks[row]` — bit `n` set when the block's guard region in
    /// direction `dirs[n]` is filled.
    masks: Vec<u32>,
    /// `fill[l]` — level-`l` blocks with a non-empty mask, BlockId-ascending.
    fill: Vec<Vec<BlockId>>,
    /// `restrict[l]` — the live parents at level `l`: those a masked
    /// same-level copy reads, plus their parent children.
    restrict: Vec<Vec<BlockId>>,
    /// One fill's counts.
    totals: GuardFillStats,
}

const NO_ROW: u32 = u32::MAX;

/// Everything about a guard exchange that depends only on the tree
/// topology: the neighbor of every (active block, direction) and, per
/// [`GuardNeed`], the region mask of every block, the per-level fill lists
/// and the live-parent lists. Built once per [`Tree::epoch`] — `Domain`
/// caches it — so a fill does no neighbor lookups.
///
/// Masks follow from who reads what. A leaf gets the face directions the
/// need names. A block that is the [`Neighbor::Coarser`] source of a masked
/// region gets all its faces: [`prolong_region`]'s slope stencil reaches one
/// zone past the coarse zones it covers, per axis, which lands in the first
/// guard layer of the source's *face* regions (never an edge or corner).
/// That rule is applied fine → coarse, so a source's own coarser sources
/// are covered too. Parents get nothing — a `Neighbor::Same(parent)` copy
/// reads the parent's interior, and nothing reads a parent's guards. A face
/// region itself is filled from interiors, from a coarser block's faces, or
/// from the block's own interior at a physical boundary, so face fills
/// never depend on edge or corner regions.
pub struct ExchangePlan {
    epoch: u64,
    ndim: usize,
    dirs: Vec<[i32; 3]>,
    /// Pool slot → row of `neighbors` and of every mask table; [`NO_ROW`]
    /// for slots that hold no active block. As long as the highest live
    /// slot, not `max_blocks`.
    row_of: Vec<u32>,
    /// `neighbors[row * dirs.len() + n]` is `tree.neighbor(blk, dirs[n])`.
    neighbors: Vec<Neighbor>,
    /// Indexed by [`ExchangePlan::table`]: `Axis(0..ndim)`, `Faces`, `All`.
    tables: Vec<NeedTable>,
}

impl ExchangePlan {
    /// Look up every active block's neighbors and derive the table of every
    /// need.
    pub(crate) fn build(tree: &Tree) -> ExchangePlan {
        let cfg = tree.config();
        let dirs = cfg.neighbor_dirs();
        let ids = tree.active_ids();
        let mut row_of = vec![NO_ROW; ids.last().map_or(0, |id| id.idx() + 1)];
        let mut neighbors = Vec::with_capacity(ids.len() * dirs.len());
        // `levels[l]` — active (leaf + parent) blocks at tree level `l`,
        // BlockId-ascending.
        let mut levels: Vec<Vec<BlockId>> = Vec::new();
        for (row, &id) in ids.iter().enumerate() {
            row_of[id.idx()] = row as u32;
            neighbors.extend(dirs.iter().map(|&d| tree.neighbor(id, d)));
            let lvl = tree.block(id).key.level as usize;
            if lvl >= levels.len() {
                levels.resize_with(lvl + 1, Vec::new);
            }
            levels[lvl].push(id);
        }
        let mut plan = ExchangePlan {
            epoch: tree.epoch(),
            ndim: cfg.ndim,
            dirs,
            row_of,
            neighbors,
            tables: Vec::new(),
        };
        plan.tables = (0..cfg.ndim)
            .map(GuardNeed::Axis)
            .chain([GuardNeed::Faces, GuardNeed::All])
            .map(|need| plan.derive(tree, &levels, need))
            .collect();
        plan
    }

    /// Masks, fill lists and live parents of one need (see the type docs).
    fn derive(&self, tree: &Tree, levels: &[Vec<BlockId>], need: GuardNeed) -> NeedTable {
        let cfg = tree.config();
        let bits = |keep: &dyn Fn([i32; 3]) -> bool| -> u32 {
            self.dirs
                .iter()
                .enumerate()
                .filter(|(_, &d)| keep(d))
                .fold(0, |m, (n, _)| m | 1 << n)
        };
        let is_face = |d: [i32; 3]| d.iter().filter(|&&c| c != 0).count() == 1;
        let faces = bits(&is_face);
        let wanted = match need {
            GuardNeed::Axis(a) => bits(&|d| is_face(d) && d[a] != 0),
            GuardNeed::Faces => faces,
            GuardNeed::All => bits(&|_| true),
        };
        let is_parent = |id: BlockId| tree.block(id).state == BlockState::Parent;

        let mut masks = vec![0u32; self.neighbors.len() / self.dirs.len()];
        for blocks in levels {
            for &id in blocks {
                if need == GuardNeed::All || !is_parent(id) {
                    masks[self.row(id)] = wanted;
                }
            }
        }
        // Prolongation sources, finest level first: a level's masks are
        // final before they are read, because only finer blocks add to them.
        for blocks in levels.iter().rev() {
            for &id in blocks {
                let row = self.row(id);
                for (_, nbr) in self.masked(row, masks[row]) {
                    if let Neighbor::Coarser(src) = nbr {
                        masks[self.row(src)] |= faces;
                    }
                }
            }
        }

        // Live parents, coarsest level first so a live parent's parent
        // children are marked before their level is listed.
        let mut live = vec![need == GuardNeed::All; masks.len()];
        for (row, &mask) in masks.iter().enumerate() {
            for (_, nbr) in self.masked(row, mask) {
                if let Neighbor::Same(nid) = nbr {
                    live[self.row(nid)] = true;
                }
            }
        }
        let mut restrict = vec![Vec::new(); levels.len()];
        for (lvl, blocks) in levels.iter().enumerate() {
            for &id in blocks {
                let meta = tree.block(id);
                let Some(children) = meta.children else {
                    continue;
                };
                if !live[self.row(id)] {
                    continue;
                }
                restrict[lvl].push(id);
                for &cid in children.iter().take(meta.n_children as usize) {
                    live[self.row(cid)] = true;
                }
            }
        }

        let region_zones = |d: [i32; 3]| -> u64 {
            (0..cfg.ndim)
                .map(|a| if d[a] == 0 { cfg.nxb } else { cfg.nguard } as u64)
                .product()
        };
        let guard_zones: u64 = masks
            .iter()
            .enumerate()
            .flat_map(|(row, &mask)| self.masked(row, mask))
            .map(|(d, _)| region_zones(d))
            .sum();
        let fill: Vec<Vec<BlockId>> = levels
            .iter()
            .map(|blocks| {
                blocks
                    .iter()
                    .copied()
                    .filter(|&id| masks[self.row(id)] != 0)
                    .collect()
            })
            .collect();
        let totals = GuardFillStats {
            fills: 1,
            blocks_filled: fill.iter().map(|l| l.len() as u64).sum(),
            parents_restricted: restrict.iter().map(|l| l.len() as u64).sum(),
            guard_zones,
            guard_bytes: guard_zones * cfg.nvar as u64 * 8,
        };
        NeedTable {
            masks,
            fill,
            restrict,
            totals,
        }
    }

    fn row(&self, id: BlockId) -> usize {
        let row = self.row_of[id.idx()];
        debug_assert_ne!(row, NO_ROW, "{id:?} is not an active block of this plan");
        row as usize
    }

    fn table(&self, need: GuardNeed) -> &NeedTable {
        let ndim = self.ndim;
        &self.tables[match need {
            GuardNeed::Axis(a) => {
                assert!(a < ndim, "GuardNeed::Axis({a}) on a {ndim}-d mesh");
                a
            }
            GuardNeed::Faces => ndim,
            GuardNeed::All => ndim + 1,
        }]
    }

    /// The `(direction, neighbor)` pairs of row `row` whose bit is set in
    /// `mask`, in [`MeshConfig::neighbor_dirs`] order.
    fn masked(&self, row: usize, mask: u32) -> impl Iterator<Item = ([i32; 3], Neighbor)> + '_ {
        let nbrs = &self.neighbors[row * self.dirs.len()..][..self.dirs.len()];
        self.dirs
            .iter()
            .zip(nbrs)
            .enumerate()
            .filter(move |(n, _)| mask & (1 << n) != 0)
            .map(|(_, (&d, &nbr))| (d, nbr))
    }

    /// The tree topology revision this plan was built at.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of tree levels holding active blocks.
    pub fn levels(&self) -> usize {
        self.tables[0].fill.len()
    }

    /// Level-`lvl` blocks a `need` fill writes guards of, in fill order.
    pub fn fill_blocks(&self, need: GuardNeed, lvl: usize) -> &[BlockId] {
        &self.table(need).fill[lvl]
    }

    /// Level-`lvl` parents a `need` fill restricts, in restriction order.
    pub fn live_parents(&self, need: GuardNeed, lvl: usize) -> &[BlockId] {
        &self.table(need).restrict[lvl]
    }

    /// The guard regions of block `id` a `need` fill writes, as
    /// `(direction, neighbor)` pairs in [`MeshConfig::neighbor_dirs`] order
    /// — the table [`fill_block_cells`] walks, and so exactly what it reads.
    pub fn reads(
        &self,
        need: GuardNeed,
        id: BlockId,
    ) -> impl Iterator<Item = ([i32; 3], Neighbor)> + '_ {
        let row = self.row(id);
        self.masked(row, self.table(need).masks[row])
    }

    /// What one `need` fill does on this tree.
    pub fn fill_totals(&self, need: GuardNeed) -> GuardFillStats {
        self.table(need).totals
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

/// Fill the guard regions of block `id` that `need` asks for
/// ([`ExchangePlan::reads`]): same-level copies and prolongations first, in
/// `plan` direction order, then the physical boundary regions (which may
/// read guards the copies produced, e.g. corners at a wall). Regions
/// outside the need are neither read nor written.
///
/// # Safety
/// The caller must have exclusive access to `id`'s guards and shared
/// access to `id`'s interior and, for every region `plan.reads(need, id)`
/// lists, the same-level neighbor's interior or the coarser neighbor's full
/// slab, for the duration of the call. No other thread may write those
/// regions meanwhile; concurrent fills of other blocks of the same level
/// only write *their* guards, so they qualify. `plan` must have been built
/// for `tree`'s current epoch.
pub unsafe fn fill_block_cells(
    tree: &Tree,
    geom: &UnkGeom,
    cells: &UnkCells,
    plan: &ExchangePlan,
    need: GuardNeed,
    id: BlockId,
) {
    debug_assert_eq!(plan.epoch(), tree.epoch(), "stale exchange plan");
    let key = tree.block(id).key;
    // SAFETY: exclusive own-guard access is the caller's contract; the
    // kernels below write only guards and read the own interior for the
    // self-neighbor copy and the boundary mirrors.
    let own = unsafe { cells.write_slab(id.idx(), Region::Guards, Some(Region::Interior)) };
    for (d, nbr) in plan.reads(need, id) {
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
    for (d, nbr) in plan.reads(need, id) {
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

/// Fill every guard cell of every active block ([`GuardNeed::All`]).
/// Restriction of leaf data into parent nodes happens first (deepest
/// parents first) so same-level copies from "virtual" coarse data work;
/// then blocks are filled coarse → fine.
///
/// This is the serial reference path; `Domain::fill_guardcells_for` runs
/// the same two block drivers from a cached plan, so the results are
/// bit-identical.
pub fn fill_guardcells(tree: &Tree, unk: &mut UnkStorage) {
    fill_guardcells_planned(tree, &ExchangePlan::build(tree), GuardNeed::All, unk);
}

/// The serial fill of what `need` asks for, from a prebuilt plan for
/// `tree`'s current epoch.
pub(crate) fn fill_guardcells_planned(
    tree: &Tree,
    plan: &ExchangePlan,
    need: GuardNeed,
    unk: &mut UnkStorage,
) {
    let geom = unk.geom();
    let cells = unk.cells();
    for lvl in (0..plan.levels()).rev() {
        for &pid in plan.live_parents(need, lvl) {
            // SAFETY: `unk` is exclusively borrowed for the whole call and
            // blocks are visited one at a time, so each call's region
            // contract holds trivially.
            unsafe { restrict_parent_cells(tree, &geom, &cells, pid) };
        }
    }
    for lvl in 0..plan.levels() {
        for &id in plan.fill_blocks(need, lvl) {
            // SAFETY: as above.
            unsafe { fill_block_cells(tree, &geom, &cells, plan, need, id) };
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
                            x[a] > cfg.domain_lo[a] + margin && x[a] < cfg.domain_hi[a] - margin
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
        assert_eq!(
            unk.get(DENS, ng + tree.config().nxb, ng, 0, right.idx()),
            1.0
        );
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
    /// every variable.
    fn self_neighbor_wraps(ndim: usize) {
        let mut cfg = MeshConfig::test_2d();
        cfg.ndim = ndim;
        cfg.nroot = [1, 1, 1];
        cfg.bc = BoundaryCondition::Periodic;
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
                            "{ndim}-d var {var} zone ({i},{j},{k}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn periodic_single_root_is_its_own_neighbor_2d() {
        self_neighbor_wraps(2);
    }

    #[test]
    fn periodic_single_root_is_its_own_neighbor_3d() {
        self_neighbor_wraps(3);
    }

    /// The `sedov3d` tree: one root, its 8 children all refined, and the
    /// central 8 of the 64 level-2 blocks refined again — 64 level-3 and 56
    /// level-2 leaves under 1 + 8 + 8 = 17 parents. Topology only.
    fn sedov3d_shape(nxb: usize, nguard: usize) -> Tree {
        let mut cfg = MeshConfig::test_2d();
        cfg.ndim = 3;
        cfg.nxb = nxb;
        cfg.nguard = nguard;
        cfg.max_blocks = 160;
        let mut tree = Tree::new(cfg);
        let root = tree.leaves()[0];
        let level2: Vec<BlockId> = tree.refine_topology(root)[..8]
            .to_vec()
            .into_iter()
            .flat_map(|id| tree.refine_topology(id))
            .collect();
        for id in level2 {
            let key = tree.block(id).key;
            if [key.ix, key.iy, key.iz].iter().all(|c| (1..=2).contains(c)) {
                tree.refine_topology(id);
            }
        }
        assert_eq!(tree.leaves().len(), 120);
        assert_eq!(tree.active_blocks(), 137);
        tree
    }

    #[test]
    fn need_closure_on_the_sedov3d_shape() {
        let tree = sedov3d_shape(8, 4);
        let plan = ExchangePlan::build(&tree);
        let bytes = |zones: u64| zones * tree.config().nvar as u64 * 8;

        // A sweep fill: two 4×8×8 faces on each of the 120 leaves; the
        // 2×2 level-2 leaves behind each of the fine cube's two faces on
        // that axis are prolongation sources and get their other four
        // faces too; only the 8 level-2 parents are read (by their
        // level-2 leaf neighbors), the 8 level-1 parents and the root by
        // nobody.
        for axis in 0..3 {
            let need = GuardNeed::Axis(axis);
            assert_eq!(
                plan.fill_totals(need),
                GuardFillStats {
                    fills: 1,
                    blocks_filled: 120,
                    parents_restricted: 8,
                    guard_zones: 120 * 512 + 8 * 1024,
                    guard_bytes: bytes(120 * 512 + 8 * 1024),
                }
            );
            let regions = |id| plan.reads(need, id).count();
            let leaves = tree.leaves();
            assert_eq!(leaves.iter().filter(|&&id| regions(id) == 2).count(), 112);
            assert_eq!(leaves.iter().filter(|&&id| regions(id) == 6).count(), 8);
            for lvl in 0..plan.levels() {
                let parents = plan.live_parents(need, lvl);
                assert_eq!(parents.len(), if lvl == 2 { 8 } else { 0 }, "level {lvl}");
                assert!(plan
                    .fill_blocks(need, lvl)
                    .iter()
                    .all(|&id| tree.block(id).is_leaf()));
            }
        }

        // All six faces of every leaf; sources need nothing extra.
        assert_eq!(
            plan.fill_totals(GuardNeed::Faces),
            GuardFillStats {
                fills: 1,
                blocks_filled: 120,
                parents_restricted: 8,
                guard_zones: 120 * 1536,
                guard_bytes: bytes(120 * 1536),
            }
        );
        // Everything: 16³ − 8³ guard zones on all 137 blocks, 17 parents.
        assert_eq!(
            plan.fill_totals(GuardNeed::All),
            GuardFillStats {
                fills: 1,
                blocks_filled: 137,
                parents_restricted: 17,
                guard_zones: 137 * 3584,
                guard_bytes: bytes(137 * 3584),
            }
        );
    }

    /// A live parent's parent children are live too: restricting it reads
    /// their interiors, which only a restriction of their own makes current.
    #[test]
    fn live_parents_include_their_parent_children() {
        // 2-d, two roots side by side. Refine the right root, then its
        // child farthest from the left root: the left root (a leaf) copies
        // from the right root (a parent), whose far child is a parent.
        let mut cfg = MeshConfig::test_2d();
        cfg.nroot = [2, 1, 1];
        let mut tree = Tree::new(cfg);
        let right = tree.leaves()[1];
        let far_child = tree.refine_topology(right)[1];
        tree.refine_topology(far_child);
        let plan = ExchangePlan::build(&tree);
        assert_eq!(plan.live_parents(GuardNeed::Axis(0), 0), [right]);
        assert_eq!(plan.live_parents(GuardNeed::Axis(0), 1), [far_child]);
        // Across y only the far child is copied from (by the sibling above
        // it); the roots have no y neighbors, so `right` stays dead.
        assert_eq!(plan.live_parents(GuardNeed::Axis(1), 0), []);
        assert_eq!(plan.live_parents(GuardNeed::Axis(1), 1), [far_child]);
    }

    /// Poison every guard zone, run a need fill, and require: every masked
    /// region bit-identical to the `All` fill of the same state, every
    /// other guard zone still poison.
    fn check_need_against_all(
        tree: &Tree,
        plan: &ExchangePlan,
        need: GuardNeed,
        unk: &mut UnkStorage,
    ) -> Result<(), String> {
        let cfg = *tree.config();
        let (ng, nxb) = (cfg.nguard, cfg.nxb);
        let blocks = tree.active_ids();
        let zones_of = |d: [i32; 3]| {
            let (ri, rj) = (
                guard_range(ng, nxb, d[0], false),
                guard_range(ng, nxb, d[1], false),
            );
            let rk = guard_range(ng, nxb, d[2], cfg.ndim == 2);
            rk.flat_map(move |k| {
                let ri = ri.clone();
                rj.clone()
                    .flat_map(move |j| ri.clone().map(move |i| (i, j, k)))
            })
        };
        let guards_of = |unk: &UnkStorage, id: BlockId, d: [i32; 3]| -> Vec<u64> {
            zones_of(d)
                .flat_map(|(i, j, k)| (0..cfg.nvar).map(move |v| (v, i, j, k)))
                .map(|(v, i, j, k)| unk.get(v, i, j, k, id.idx()).to_bits())
                .collect()
        };
        let poison = f64::from_bits(0x7ff8_dead_beef_0001);
        let poison_guards = |unk: &mut UnkStorage| {
            for &id in &blocks {
                for d in cfg.neighbor_dirs() {
                    for (i, j, k) in zones_of(d) {
                        for v in 0..cfg.nvar {
                            unk.set(v, i, j, k, id.idx(), poison);
                        }
                    }
                }
            }
        };

        poison_guards(unk);
        fill_guardcells_planned(tree, plan, GuardNeed::All, unk);
        let want: Vec<Vec<Vec<u64>>> = blocks
            .iter()
            .map(|&id| {
                cfg.neighbor_dirs()
                    .iter()
                    .map(|&d| guards_of(unk, id, d))
                    .collect()
            })
            .collect();
        poison_guards(unk);
        fill_guardcells_planned(tree, plan, need, unk);
        for (b, &id) in blocks.iter().enumerate() {
            let masked: Vec<[i32; 3]> = plan.reads(need, id).map(|(d, _)| d).collect();
            for (n, d) in cfg.neighbor_dirs().into_iter().enumerate() {
                let got = guards_of(unk, id, d);
                if masked.contains(&d) {
                    if got != want[b][n] {
                        return Err(format!(
                            "{need:?}: {id:?} region {d:?} differs from the All fill"
                        ));
                    }
                } else if got.iter().any(|&bits| bits != poison.to_bits()) {
                    return Err(format!("{need:?}: {id:?} region {d:?} was written"));
                }
            }
        }
        Ok(())
    }

    /// The closure rule earns its keep: with it every need reproduces the
    /// `All` fill on its declared zones; with the coarse sources' extra
    /// faces struck from the masks, a fine face prolongs from a poisoned
    /// slope stencil and the same check fails.
    #[test]
    fn dropping_the_coarse_source_rule_breaks_the_need_property() {
        let tree = sedov3d_shape(4, 2);
        let mut unk = tree.make_unk(Policy::None);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for slab in unk.slabs_mut() {
            for v in slab {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            }
        }
        let mut plan = ExchangePlan::build(&tree);
        for need in [
            GuardNeed::Axis(0),
            GuardNeed::Axis(1),
            GuardNeed::Axis(2),
            GuardNeed::Faces,
        ] {
            check_need_against_all(&tree, &plan, need, &mut unk).expect("closed masks");
        }

        let sweep_faces = plan.tables[0].masks[plan.row(tree.leaves()[0])];
        let mut struck = 0;
        for mask in &mut plan.tables[0].masks {
            if *mask != 0 && *mask != sweep_faces {
                *mask = sweep_faces;
                struck += 1;
            }
        }
        assert_eq!(
            struck, 8,
            "the eight sources of the x-faces of the fine cube"
        );
        let err = check_need_against_all(&tree, &plan, GuardNeed::Axis(0), &mut unk)
            .expect_err("an unclosed mask must not reproduce the All fill");
        assert!(err.contains("differs from the All fill"), "{err}");
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
                    unk.set(
                        DENS,
                        i,
                        j,
                        0,
                        id.idx(),
                        (n + 1) as f64 + (i * j) as f64 * 0.01,
                    );
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
                let v = if i < unk.interior().start + 4 {
                    1.0
                } else {
                    10.0
                };
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

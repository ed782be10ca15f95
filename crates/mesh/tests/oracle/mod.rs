//! Per-cell reference oracle for the guard-cell exchange.
//!
//! These are the sink kernels the exchange used before it moved to direct
//! region kernels: every guard value goes through a `sink(offset, value)`
//! call, is staged as an `(offset, value)` pair and stored by a second
//! pass, with `var` as the outermost loop. Slow and obviously correct — the
//! property tests require the production fill to reproduce it bit for bit,
//! guards included. Compiled only into the mesh crate's integration tests.

use rflash_mesh::tree::Neighbor;
use rflash_mesh::unk::{UnkGeom, UnkStorage};
use rflash_mesh::vars::{VELX, VELY, VELZ};
use rflash_mesh::{BlockId, BlockState, BoundaryCondition, MortonKey, Tree};

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

/// Emit the restriction of child `c`'s interior (its slab, passed
/// directly) into the corresponding quadrant/octant of the parent:
/// `sink(offset_in_parent_slab, value)`. Reads only the child slab, so
/// every restriction at one tree level can run concurrently.
fn pack_restrict(geom: &UnkGeom, child: &[f64], c: usize, sink: &mut dyn FnMut(usize, f64)) {
    let ng = geom.nguard;
    let nxb = geom.nxb;
    let half = nxb / 2;
    let (ox, oy, oz) = (c & 1, (c >> 1) & 1, (c >> 2) & 1);
    let kcells = if geom.ndim == 3 { half } else { 1 };
    let weight = 1.0 / (1 << geom.ndim) as f64;

    for var in 0..geom.nvar {
        for pk in 0..kcells {
            for pj in 0..half {
                for pi in 0..half {
                    let mut sum = 0.0;
                    let kk = if geom.ndim == 3 { 2 } else { 1 };
                    for dk in 0..kk {
                        for dj in 0..2 {
                            for di in 0..2 {
                                let ci = ng + 2 * pi + di;
                                let cj = ng + 2 * pj + dj;
                                let ck = if geom.ndim == 3 { ng + 2 * pk + dk } else { 0 };
                                sum += child[geom.slab_idx(var, ci, cj, ck)];
                            }
                        }
                    }
                    let p = [
                        ng + ox * half + pi,
                        ng + oy * half + pj,
                        if geom.ndim == 3 {
                            ng + oz * half + pk
                        } else {
                            0
                        },
                    ];
                    sink(geom.slab_idx(var, p[0], p[1], p[2]), sum * weight);
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

/// Fill every active block's guard cells. Restriction of leaf data into
/// parent nodes happens first so same-level copies from "virtual" coarse
/// data work; then blocks are filled coarse → fine.
///
/// Every block's neighbor-sourced values are staged from immutable slab
/// views before any is applied, so a block that is its own periodic
/// neighbor needs no special case here.
pub fn fill_guardcells(tree: &Tree, unk: &mut UnkStorage) {
    let mut staged: Vec<(usize, f64)> = Vec::new();

    // 1. Restrict into parents, deepest parents first.
    let mut parents: Vec<BlockId> = (0..unk.max_blocks() as u32)
        .map(BlockId)
        .filter(|id| tree.block(*id).state == BlockState::Parent)
        .collect();
    parents.sort_by_key(|id| std::cmp::Reverse(tree.block(*id).key.level));
    for pid in parents {
        restrict_into_parent(tree, unk, pid, &mut staged);
    }

    // 2. Fill guards, coarse levels first.
    let mut active: Vec<BlockId> = (0..unk.max_blocks() as u32)
        .map(BlockId)
        .filter(|id| tree.block(*id).state != BlockState::Free)
        .collect();
    active.sort_by_key(|id| tree.block(*id).key.level);

    let geom = unk.geom();
    let dirs = tree.config().neighbor_dirs();
    for &id in &active {
        // Non-boundary directions first; boundary fills may read guards the
        // neighbor copies produced (e.g. corners at a wall).
        staged.clear();
        for &d in &dirs {
            match tree.neighbor(id, d) {
                Neighbor::Same(nid) => {
                    pack_copy_same(&geom, unk.block_slab(nid.idx()), d, &mut |off, v| {
                        staged.push((off, v))
                    })
                }
                Neighbor::Coarser(nid) => pack_prolong(
                    &geom,
                    tree.block(id).key,
                    unk.block_slab(nid.idx()),
                    d,
                    &mut |off, v| staged.push((off, v)),
                ),
                Neighbor::Boundary => {}
            }
        }
        let slab = unk.block_slab_mut(id.idx());
        for &(off, v) in &staged {
            slab[off] = v;
        }
        for &d in &dirs {
            if tree.neighbor(id, d) == Neighbor::Boundary {
                fill_boundary_slab(tree, &geom, id, d, slab);
            }
        }
    }
}

/// Restrict all of `pid`'s children into it, using `staged` as scratch.
fn restrict_into_parent(
    tree: &Tree,
    unk: &mut UnkStorage,
    pid: BlockId,
    staged: &mut Vec<(usize, f64)>,
) {
    staged.clear();
    let meta = tree.block(pid);
    let Some(children) = meta.children else {
        return; // leaf: nothing to restrict
    };
    let geom = unk.geom();
    for (c, &cid) in children.iter().enumerate().take(meta.n_children as usize) {
        pack_restrict(&geom, unk.block_slab(cid.idx()), c, &mut |off, v| {
            staged.push((off, v))
        });
    }
    let slab = unk.block_slab_mut(pid.idx());
    for &(off, v) in staged.iter() {
        slab[off] = v;
    }
}

/// Emit the guard region of the destination block in direction `d` copied
/// from the same-level source block's slab (interior shifted by one
/// block): `sink(offset_in_dst_slab, value)`. Reads only `src`'s interior.
fn pack_copy_same(geom: &UnkGeom, src: &[f64], d: [i32; 3], sink: &mut dyn FnMut(usize, f64)) {
    let nxb = geom.nxb as i64;
    let ri = guard_range(geom.nguard, geom.nxb, d[0], false);
    let rj = guard_range(geom.nguard, geom.nxb, d[1], false);
    let rk = guard_range(geom.nguard, geom.nxb, d[2], geom.ndim == 2);
    for var in 0..geom.nvar {
        for k in rk.clone() {
            let sk = if geom.ndim == 3 {
                (k as i64 - d[2] as i64 * nxb) as usize
            } else {
                0
            };
            for j in rj.clone() {
                let sj = (j as i64 - d[1] as i64 * nxb) as usize;
                for i in ri.clone() {
                    let si = (i as i64 - d[0] as i64 * nxb) as usize;
                    sink(
                        geom.slab_idx(var, i, j, k),
                        src[geom.slab_idx(var, si, sj, sk)],
                    );
                }
            }
        }
    }
}

/// Emit the prolongated guard region of the fine destination block (whose
/// Morton key is `key`) in direction `d` from its coarser neighbor's slab:
/// `sink(offset_in_dst_slab, value)`. Reads only `src` (one level coarser —
/// already fully filled when the exchange proceeds coarse → fine).
fn pack_prolong(
    geom: &UnkGeom,
    key: MortonKey,
    src: &[f64],
    d: [i32; 3],
    sink: &mut dyn FnMut(usize, f64),
) {
    let ng = geom.nguard as i64;
    let nxb = geom.nxb as i64;
    let halves = [
        (key.ix & 1) as i64,
        (key.iy & 1) as i64,
        (key.iz & 1) as i64,
    ];
    let ri = guard_range(geom.nguard, geom.nxb, d[0], false);
    let rj = guard_range(geom.nguard, geom.nxb, d[1], false);
    let rk = guard_range(geom.nguard, geom.nxb, d[2], geom.ndim == 2);

    // Map a destination padded index to (source padded index, ±¼ offset).
    // The coarse source block's offset from the fine block's parent along
    // each axis follows from key arithmetic — for diagonal directions it
    // can be 0 even when d[axis] ≠ 0 (the guard region stays inside the
    // parent's column on that axis).
    let coords = [key.ix as i64, key.iy as i64, key.iz as i64];
    let padded_i = geom.ni;
    let ndim = geom.ndim;
    let map = move |axis: usize, idx: usize| -> (usize, f64) {
        if axis >= ndim {
            return (0, 0.0);
        }
        let f = idx as i64 - ng; // offset from fine block start
        let fp = halves[axis] * nxb + f; // in parent-block cell units
        let cp = fp.div_euclid(2); // coarse cell relative to parent start
        let r = fp.rem_euclid(2);
        let ia = coords[axis];
        let e = (ia + d[axis] as i64).div_euclid(2) - ia.div_euclid(2);
        let local = cp - e * nxb + ng;
        debug_assert!(
            local >= 1 && (local as usize) < padded_i - 1,
            "coarse source out of range: local={local}"
        );
        (local as usize, if r == 0 { -0.25 } else { 0.25 })
    };

    let slope = |var: usize, s: [usize; 3], axis: usize| -> f64 {
        let mut hi = s;
        let mut lo = s;
        hi[axis] += 1;
        lo[axis] -= 1;
        let vh = src[geom.slab_idx(var, hi[0], hi[1], hi[2])];
        let v0 = src[geom.slab_idx(var, s[0], s[1], s[2])];
        let vl = src[geom.slab_idx(var, lo[0], lo[1], lo[2])];
        minmod(vh - v0, v0 - vl)
    };

    for var in 0..geom.nvar {
        for k in rk.clone() {
            let (sk, ok) = map(2, k);
            for j in rj.clone() {
                let (sj, oj) = map(1, j);
                for i in ri.clone() {
                    let (si, oi) = map(0, i);
                    let s = [si, sj, sk];
                    let mut v = src[geom.slab_idx(var, si, sj, sk)];
                    let offs = [oi, oj, ok];
                    for (axis, &off) in offs.iter().enumerate().take(geom.ndim) {
                        v += slope(var, s, axis) * off;
                    }
                    sink(geom.slab_idx(var, i, j, k), v);
                }
            }
        }
    }
}

/// Apply the physical boundary condition to the guard region of `id` in
/// direction `d` (some axes of which may point at real neighbors; those are
/// handled by per-axis clamping into already-filled guard data). Operates on
/// the block's own slab only, so each rank can run it for the blocks it owns
/// once its staged neighbor data has been applied.
fn fill_boundary_slab(tree: &Tree, geom: &UnkGeom, id: BlockId, d: [i32; 3], slab: &mut [f64]) {
    let cfg = tree.config();
    let ng = cfg.nguard as i64;
    let nxb = cfg.nxb as i64;
    let key = tree.block(id).key;
    let ri = guard_range(cfg.nguard, cfg.nxb, d[0], false);
    let rj = guard_range(cfg.nguard, cfg.nxb, d[1], false);
    let rk = guard_range(cfg.nguard, cfg.nxb, d[2], cfg.ndim == 2);

    // Is the block face in direction d[axis] on the physical boundary?
    let on_boundary = |axis: usize| -> bool {
        if axis >= cfg.ndim || d[axis] == 0 {
            return false;
        }
        let coord = [key.ix, key.iy, key.iz][axis] as i64;
        let extent = ((cfg.nroot[axis] as u64) << key.level) as i64;
        (d[axis] < 0 && coord == 0) || (d[axis] > 0 && coord == extent - 1)
    };

    // Per-axis source index + velocity sign for the BC.
    let map = |axis: usize, idx: usize| -> (usize, f64) {
        if axis >= cfg.ndim {
            return (idx, 1.0);
        }
        if !on_boundary(axis) {
            // Real data exists in this direction (already filled): read it.
            return (idx, 1.0);
        }
        let i = idx as i64;
        let side = if d[axis] < 0 { 0 } else { 1 };
        match cfg.bc_at(axis, side) {
            BoundaryCondition::Outflow => {
                let clamped = i.clamp(ng, ng + nxb - 1);
                (clamped as usize, 1.0)
            }
            BoundaryCondition::Reflecting => {
                // Mirror across the face: guard t maps to interior t-mirrored.
                let m = if d[axis] < 0 {
                    2 * ng - 1 - i
                } else {
                    2 * (ng + nxb) - 1 - i
                };
                (m as usize, -1.0)
            }
            BoundaryCondition::Periodic => {
                // A purely periodic face never reaches here — `neighbor`
                // wraps it. Only mixed corners do (periodic along this
                // axis, a wall along another): the wrapped neighbor's copy
                // already filled this guard column in the earlier staging
                // pass, so read it in place and let the wall axis mirror it.
                (idx, 1.0)
            }
        }
    };

    let vel_var = [VELX, VELY, VELZ];
    for var in 0..cfg.nvar {
        for k in rk.clone() {
            let (sk, fk) = if cfg.ndim == 3 { map(2, k) } else { (0, 1.0) };
            for j in rj.clone() {
                let (sj, fj) = map(1, j);
                for i in ri.clone() {
                    let (si, fi) = map(0, i);
                    let mut v = slab[geom.slab_idx(var, si, sj, sk)];
                    // Flip the normal velocity component on reflection.
                    for axis in 0..cfg.ndim {
                        if var == vel_var[axis] {
                            let f = [fi, fj, fk][axis];
                            v *= f;
                        }
                    }
                    slab[geom.slab_idx(var, i, j, k)] = v;
                }
            }
        }
    }
}

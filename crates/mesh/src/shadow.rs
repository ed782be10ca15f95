//! In-memory shadow snapshot of the leaf-block *interior* state for step
//! rollback.
//!
//! The step guardian (rflash-core) captures every leaf's interior zones
//! before a step is committed; if the evolved state fails physicality
//! validation the snapshot is copied back and the step retried. Guard
//! cells are deliberately **not** captured: every consumer refills them
//! deterministically from interiors before reading (each sweep, the flame
//! advance, and the regrid marker all start with a guard-cell fill, and
//! the dt/EOS/validation scans read interiors only), so restoring
//! interiors reproduces the forward evolution bit-exactly at 1/8th the
//! copy traffic of full padded slabs (16³ padded vs 8³ interior) — the
//! difference between a guardian that costs a few percent and one that
//! doesn't.
//!
//! The backing is a single [`PageBuffer`] riding the same huge-page
//! [`Policy`] — and therefore the same explicit degradation chain and
//! `AllocStats` accounting — as `unk` itself: a shadow of a
//! huge-page-backed container should not silently be a base-page
//! allocation, or the rollback path would have different TLB behavior
//! than the forward path it protects.
//!
//! The snapshot is keyed on [`Tree::epoch`]: a regrid between capture and
//! restore changes the block population, so the restore refuses (returns
//! `false`) rather than scattering stale zones onto the wrong blocks. The
//! guardian orders its work so that never happens (regrid runs only after
//! a committed step), but the invariant is enforced here, not assumed.
//!
//! [`Tree::epoch`]: crate::Tree::epoch

use crate::unk::UnkGeom;
use crate::{BlockId, Domain};
use rflash_hugepages::{PageBuffer, Policy};

/// Walk the contiguous interior runs of one block slab in a fixed order,
/// yielding `(slab_offset, len)`: each interior i-row is one run of
/// `nvar · nxb` doubles holding every variable of its zones.
fn for_each_interior_run(geom: &UnkGeom, mut f: impl FnMut(usize, usize)) {
    let ng = geom.nguard;
    let nxb = geom.nxb;
    let kr = if geom.ndim == 3 { ng..ng + nxb } else { 0..1 };
    for k in kr {
        for j in ng..ng + nxb {
            f(geom.zone(ng, j, k), geom.nvar * nxb);
        }
    }
}

/// A reusable copy of all leaf interiors plus the bookkeeping to put them
/// back.
pub struct ShadowSnapshot {
    /// Backing store; grown (never shrunk) as the leaf population grows.
    buf: Option<PageBuffer<f64>>,
    policy: Policy,
    /// Leaves at capture time, in `Tree::leaves()` (Morton) order; packed
    /// segment `n` of `buf` belongs to `leaves[n]`.
    leaves: Vec<BlockId>,
    /// Interior doubles per block (`nvar · nxb² · nxb` in 3-d).
    per_block: usize,
    epoch: u64,
    valid: bool,
}

impl ShadowSnapshot {
    /// An empty snapshot that will allocate under `policy` on first capture.
    pub fn new(policy: Policy) -> ShadowSnapshot {
        ShadowSnapshot {
            buf: None,
            policy,
            leaves: Vec::new(),
            per_block: 0,
            epoch: 0,
            valid: false,
        }
    }

    /// Copy every leaf's interior zones out of `domain.unk`. Returns
    /// `false` (and marks the snapshot invalid) only if growing the
    /// backing store fails under every rung of the degradation chain —
    /// the guardian then runs that step unprotected rather than aborting
    /// a healthy simulation.
    pub fn capture(&mut self, domain: &Domain) -> bool {
        let geom = domain.unk.geom();
        let leaves = domain.tree.leaves();
        let nk = if geom.ndim == 3 { geom.nxb } else { 1 };
        let per_block = geom.nvar * geom.nxb * geom.nxb * nk;
        let need = (leaves.len() * per_block).max(1);
        if self.buf.as_ref().is_none_or(|b| b.len() < need) {
            match PageBuffer::<f64>::zeroed(need, self.policy) {
                Ok(b) => self.buf = Some(b),
                Err(_) => {
                    self.valid = false;
                    return false;
                }
            }
        }
        let Some(buf) = self.buf.as_mut() else {
            self.valid = false;
            return false;
        };
        let packed = buf.as_mut_slice();
        for (n, id) in leaves.iter().enumerate() {
            let slab = domain.unk.block_slab(id.idx());
            let mut pos = n * per_block;
            for_each_interior_run(&geom, |off, len| {
                packed[pos..pos + len].copy_from_slice(&slab[off..off + len]);
                pos += len;
            });
            debug_assert_eq!(pos, (n + 1) * per_block);
        }
        self.leaves = leaves;
        self.per_block = per_block;
        self.epoch = domain.tree.epoch();
        self.valid = true;
        true
    }

    /// Copy the captured interiors back onto their blocks. Guard cells are
    /// left as-is — consumers refill them from interiors before reading.
    /// Returns `false` without touching `unk` when there is nothing valid
    /// to restore or the tree topology changed since capture (epoch
    /// mismatch).
    pub fn restore(&self, domain: &mut Domain) -> bool {
        if !self.valid || domain.tree.epoch() != self.epoch {
            return false;
        }
        let Some(buf) = self.buf.as_ref() else {
            return false;
        };
        let geom = domain.unk.geom();
        let packed = buf.as_slice();
        for (n, id) in self.leaves.iter().enumerate() {
            let slab = domain.unk.block_slab_mut(id.idx());
            let mut pos = n * self.per_block;
            for_each_interior_run(&geom, |off, len| {
                slab[off..off + len].copy_from_slice(&packed[pos..pos + len]);
                pos += len;
            });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MeshConfig;

    fn domain() -> Domain {
        Domain::new(MeshConfig::test_2d(), Policy::None)
    }

    fn fill(d: &mut Domain, base: f64) {
        for id in d.tree.leaves() {
            for v in 0..d.unk.nvar() {
                for j in 0..d.unk.padded().1 {
                    for i in 0..d.unk.padded().0 {
                        let x = base + (v * 1000 + j * 10 + i) as f64;
                        d.unk.set(v, i, j, 0, id.idx(), x);
                    }
                }
            }
        }
    }

    /// Interior bits only — the contract covers interiors, not guards.
    fn interior_bits(d: &Domain) -> Vec<u64> {
        let mut bits = Vec::new();
        for id in d.tree.leaves() {
            for v in 0..d.unk.nvar() {
                for k in d.unk.interior_k() {
                    for j in d.unk.interior() {
                        for i in d.unk.interior() {
                            bits.push(d.unk.get(v, i, j, k, id.idx()).to_bits());
                        }
                    }
                }
            }
        }
        bits
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let mut d = domain();
        fill(&mut d, 3.5);
        let before = interior_bits(&d);
        let mut shadow = ShadowSnapshot::new(Policy::None);
        assert!(shadow.capture(&d));
        fill(&mut d, -7.25); // trash the state, guards included
        assert_ne!(interior_bits(&d), before);
        assert!(shadow.restore(&mut d));
        assert_eq!(interior_bits(&d), before);
    }

    #[test]
    fn guard_cells_are_not_touched_by_restore() {
        let mut d = domain();
        fill(&mut d, 1.0);
        let mut shadow = ShadowSnapshot::new(Policy::None);
        assert!(shadow.capture(&d));
        let id = d.tree.leaves()[0];
        d.unk.set(0, 0, 0, 0, id.idx(), 42.0); // corner guard cell
        assert!(shadow.restore(&mut d));
        assert_eq!(d.unk.get(0, 0, 0, 0, id.idx()), 42.0);
    }

    #[test]
    fn restore_refuses_after_regrid() {
        let mut d = domain();
        fill(&mut d, 1.0);
        let mut shadow = ShadowSnapshot::new(Policy::None);
        assert!(shadow.capture(&d));
        let root = d.tree.leaves()[0];
        d.tree.refine_block(root, &mut d.unk);
        assert!(!shadow.restore(&mut d), "epoch changed, must refuse");
        // Re-capture on the new topology works and restores.
        assert!(shadow.capture(&d));
        assert!(shadow.restore(&mut d));
    }

    #[test]
    fn recapture_after_refine_is_bit_exact() {
        let mut d = domain();
        fill(&mut d, 2.0);
        let mut shadow = ShadowSnapshot::new(Policy::None);
        assert!(shadow.capture(&d));
        let root = d.tree.leaves()[0];
        d.tree.refine_block(root, &mut d.unk);
        assert!(shadow.capture(&d));
        let before = interior_bits(&d);
        fill(&mut d, 9.0);
        assert!(shadow.restore(&mut d));
        assert_eq!(interior_bits(&d), before);
    }

    #[test]
    fn empty_snapshot_refuses_restore() {
        let mut d = domain();
        let shadow = ShadowSnapshot::new(Policy::None);
        assert!(!shadow.restore(&mut d));
    }
}

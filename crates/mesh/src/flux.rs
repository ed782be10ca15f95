//! Flux registers: conservation at fine–coarse boundaries.
//!
//! PARAMESH's `amr_flux_conserve`: when a coarse block face abuts finer
//! blocks, the coarse update must use the (area-weighted) sum of the fine
//! interface fluxes, or mass/momentum/energy leak at every jump in
//! refinement. Kernels record their per-area boundary-face fluxes here
//! during a sweep; [`FluxRegister::corrections`] then yields, per coarse
//! face cell, the difference `⟨F_fine⟩ − F_coarse` the solver applies to
//! the face-adjacent coarse zones.

use crate::block::{BlockId, BlockState};
use crate::tree::{Neighbor, Tree};

/// One block face: axis 0..ndim, side 0 = low, 1 = high.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Face {
    pub axis: usize,
    pub side: usize,
}

impl Face {
    fn index(self) -> usize {
        self.axis * 2 + self.side
    }

    /// The direction vector pointing out of the block through this face.
    pub fn outward(self) -> [i32; 3] {
        let mut d = [0i32; 3];
        d[self.axis] = if self.side == 0 { -1 } else { 1 };
        d
    }
}

/// A flux mismatch at one coarse face cell.
#[derive(Clone, Copy, Debug)]
pub struct Correction {
    /// The coarse block to correct.
    pub block: BlockId,
    pub face: Face,
    /// Face-plane cell coordinates (interior-relative, 0-based; the second
    /// entry is 0 in 2-d).
    pub cell: [usize; 2],
    pub channel: usize,
    /// ⟨F_fine⟩ − F_coarse (per-area flux difference).
    pub delta: f64,
}

/// Boundary-face flux storage for every block slot.
pub struct FluxRegister {
    nxb: usize,
    ndim: usize,
    nflux: usize,
    face_cells: usize,
    /// `[blk][face][cell][channel]`, flattened.
    data: Vec<f64>,
    /// Whether a face was written this sweep (skip stale data).
    written: Vec<bool>,
}

impl FluxRegister {
    /// Allocate storage for every block slot's boundary faces.
    pub fn new(ndim: usize, nxb: usize, nflux: usize, max_blocks: usize) -> FluxRegister {
        assert!(ndim == 2 || ndim == 3);
        let face_cells = if ndim == 3 { nxb * nxb } else { nxb };
        FluxRegister {
            nxb,
            ndim,
            nflux,
            face_cells,
            data: vec![0.0; max_blocks * 2 * ndim * face_cells * nflux],
            written: vec![false; max_blocks * 2 * ndim],
        }
    }

    /// Forget all recorded fluxes (start of a sweep).
    pub fn clear(&mut self) {
        self.written.fill(false);
    }

    #[inline]
    fn slot(&self, blk: usize, face: Face, cell: [usize; 2], channel: usize) -> usize {
        debug_assert!(face.axis < self.ndim);
        debug_assert!(cell[0] < self.nxb);
        debug_assert!(channel < self.nflux);
        let cell_idx = cell[0] + self.nxb * cell[1];
        ((blk * 2 * self.ndim + face.index()) * self.face_cells + cell_idx) * self.nflux + channel
    }

    /// Record the per-area flux of `channel` through `face` of block `blk`
    /// at face cell `cell`.
    #[inline]
    pub fn save(&mut self, blk: usize, face: Face, cell: [usize; 2], channel: usize, flux: f64) {
        let s = self.slot(blk, face, cell, channel);
        self.data[s] = flux;
        self.written[blk * 2 * self.ndim + face.index()] = true;
    }

    #[inline]
    /// Read a stored per-area flux.
    pub fn get(&self, blk: usize, face: Face, cell: [usize; 2], channel: usize) -> f64 {
        self.data[self.slot(blk, face, cell, channel)]
    }

    fn face_written(&self, blk: usize, face: Face) -> bool {
        self.written[blk * 2 * self.ndim + face.index()]
    }

    /// Compute the corrections for every coarse leaf face that abuts finer
    /// blocks. The finer side is found through the same-level parent node;
    /// fine fluxes come from its children's opposing faces.
    pub fn corrections(&self, tree: &Tree) -> Vec<Correction> {
        let mut out = Vec::new();
        for id in tree.leaves() {
            corrections_for_leaf(
                tree,
                id,
                self.ndim,
                self.nxb,
                self.nflux,
                None,
                &mut |b, f, c, ch| self.get(b, f, c, ch),
                &mut |b, f| self.face_written(b, f),
                &mut out,
            );
        }
        out
    }

    /// Raw view for task-graph sweeps: every (block, face) flux row is
    /// touched by exactly one sweep task, and the graph's flux-row resource
    /// edges order each row's writer before its correction readers.
    pub fn cells(&mut self) -> FluxCells {
        FluxCells {
            data: self.data.as_mut_ptr(),
            written: self.written.as_mut_ptr(),
            nxb: self.nxb,
            ndim: self.ndim,
            nflux: self.nflux,
            face_cells: self.face_cells,
            max_blocks: self.written.len() / (2 * self.ndim),
        }
    }
}

/// One leaf's share of [`FluxRegister::corrections`], with the identical
/// loop structure — the serial output restricted to `id` (and optionally to
/// one `axis`) is exactly what this emits, in the same order, which is what
/// makes per-block graph corrections bit-identical to the serial path.
#[allow(clippy::too_many_arguments)]
fn corrections_for_leaf(
    tree: &Tree,
    id: BlockId,
    ndim: usize,
    nxb: usize,
    nflux: usize,
    axis_filter: Option<usize>,
    get: &mut dyn FnMut(usize, Face, [usize; 2], usize) -> f64,
    written: &mut dyn FnMut(usize, Face) -> bool,
    out: &mut Vec<Correction>,
) {
    for axis in 0..ndim {
        if axis_filter.is_some_and(|a| a != axis) {
            continue;
        }
        for side in 0..2 {
            let face = Face { axis, side };
            let Neighbor::Same(nid) = tree.neighbor(id, face.outward()) else {
                continue;
            };
            if tree.block(nid).state != BlockState::Parent {
                continue; // same-level leaf: fluxes already agree
            }
            if !written(id.idx(), face) {
                continue;
            }
            // The children of `nid` that touch the shared face have
            // child offset (1 − side) along `axis`, and their
            // opposing face faces us.
            let opp = Face {
                axis,
                side: 1 - side,
            };
            let children = tree.block(nid).children.expect("parent");
            let nchild = tree.block(nid).n_children as usize;
            // Transverse axes (face-plane coordinates).
            let t_axes: Vec<usize> = (0..ndim).filter(|&a| a != axis).collect();
            let cells2 = if ndim == 3 { nxb } else { 1 };
            for c1 in 0..nxb {
                for c2 in 0..cells2 {
                    // Exactly one child covers coarse face cell
                    // (c1, c2); find it by its transverse halves.
                    for (ci, &cid) in children.iter().enumerate().take(nchild) {
                        let off = [(ci & 1), ((ci >> 1) & 1), ((ci >> 2) & 1)];
                        if off[axis] != 1 - side {
                            continue;
                        }
                        if c1 / (nxb / 2) != off[t_axes[0]] {
                            continue;
                        }
                        if let Some(&a2) = t_axes.get(1) {
                            if c2 / (nxb / 2) != off[a2] {
                                continue;
                            }
                        }
                        if !written(cid.idx(), opp) {
                            continue;
                        }
                        // Fine face cells covering coarse cell (c1, c2).
                        let f1 = (c1 % (nxb / 2)) * 2;
                        let f2 = if ndim == 3 { (c2 % (nxb / 2)) * 2 } else { 0 };
                        let fr2 = if ndim == 3 { 2 } else { 1 };
                        let n_faces = (2 * fr2) as f64;
                        for ch in 0..nflux {
                            let mut s = 0.0;
                            for d1 in 0..2 {
                                for d2 in 0..fr2 {
                                    s += get(cid.idx(), opp, [f1 + d1, f2 + d2], ch);
                                }
                            }
                            let coarse = get(id.idx(), face, [c1, c2], ch);
                            out.push(Correction {
                                block: id,
                                face,
                                cell: [c1, c2],
                                channel: ch,
                                delta: s / n_faces - coarse,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Raw, copyable view of a [`FluxRegister`] for task-graph execution. Each
/// (block, face) row is one graph resource: its sweep task is the only
/// writer, correction tasks are the readers, and the builder's edges
/// serialize them — the same discipline [`crate::unk::UnkCells`] relies on.
#[derive(Clone, Copy)]
pub struct FluxCells {
    data: *mut f64,
    written: *mut bool,
    nxb: usize,
    ndim: usize,
    nflux: usize,
    face_cells: usize,
    max_blocks: usize,
}

// SAFETY: the pointers span plain POD regions owned by the register this
// view was taken from; cross-thread discipline is the graph's edges.
unsafe impl Send for FluxCells {}
// SAFETY: as above.
unsafe impl Sync for FluxCells {}

impl FluxCells {
    #[inline]
    fn slot(&self, blk: usize, face: Face, cell: [usize; 2], channel: usize) -> usize {
        debug_assert!(face.axis < self.ndim);
        debug_assert!(cell[0] < self.nxb);
        debug_assert!(channel < self.nflux);
        debug_assert!(blk < self.max_blocks);
        let cell_idx = cell[0] + self.nxb * cell[1];
        ((blk * 2 * self.ndim + face.index()) * self.face_cells + cell_idx) * self.nflux + channel
    }

    #[inline]
    fn rmap(&self) -> crate::audit::ResourceMap {
        crate::audit::ResourceMap {
            max_blocks: self.max_blocks,
        }
    }

    /// Record a per-area flux, like [`FluxRegister::save`]. The write is
    /// recorded against the block's flux-row resource in the race-audit
    /// ledger.
    ///
    /// # Safety
    /// The calling task must be the only task touching block `blk`'s flux
    /// rows (graph edges make the sweep task each row's sole writer).
    #[inline]
    pub unsafe fn save(&self, blk: usize, face: Face, cell: [usize; 2], channel: usize, flux: f64) {
        crate::audit::rec_write(self.rmap().fluxrow(blk));
        let s = self.slot(blk, face, cell, channel);
        *self.data.add(s) = flux;
        *self.written.add(blk * 2 * self.ndim + face.index()) = true;
    }

    /// Corrections for one leaf along one axis, in the exact order the
    /// serial [`FluxRegister::corrections`] emits them for that leaf/axis.
    /// Every flux row probed is recorded as a read in the race-audit
    /// ledger.
    ///
    /// # Safety
    /// Graph edges must order the calling task after the sweep tasks of
    /// `id` and of every finer neighbor's child along `axis` (their rows
    /// are read here), with no concurrent writer of those rows.
    pub unsafe fn corrections_for(
        &self,
        tree: &Tree,
        id: BlockId,
        axis: usize,
        out: &mut Vec<Correction>,
    ) {
        let rm = self.rmap();
        corrections_for_leaf(
            tree,
            id,
            self.ndim,
            self.nxb,
            self.nflux,
            Some(axis),
            // SAFETY: row-shared read access is the caller's contract.
            &mut |b, f, c, ch| unsafe {
                crate::audit::rec_read(rm.fluxrow(b));
                *self.data.add(self.slot(b, f, c, ch))
            },
            // SAFETY: as above.
            &mut |b, f| unsafe {
                crate::audit::rec_read(rm.fluxrow(b));
                *self.written.add(b * 2 * self.ndim + f.index())
            },
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MeshConfig;
    use rflash_hugepages::Policy;

    #[test]
    fn save_get_round_trip() {
        let mut reg = FluxRegister::new(2, 8, 3, 16);
        let face = Face { axis: 0, side: 1 };
        reg.save(5, face, [3, 0], 2, 1.5);
        assert_eq!(reg.get(5, face, [3, 0], 2), 1.5);
        assert_eq!(reg.get(5, face, [3, 0], 0), 0.0);
        assert!(reg.face_written(5, face));
        reg.clear();
        assert!(!reg.face_written(5, face));
    }

    #[test]
    fn outward_directions() {
        assert_eq!(Face { axis: 0, side: 0 }.outward(), [-1, 0, 0]);
        assert_eq!(Face { axis: 1, side: 1 }.outward(), [0, 1, 0]);
    }

    #[test]
    fn matching_fluxes_produce_zero_corrections() {
        let mut tree = Tree::new(MeshConfig::test_2d());
        let mut unk = tree.make_unk(Policy::None);
        let root = tree.leaves()[0];
        let children = tree.refine_block(root, &mut unk);
        // Refine lower-left again so children[1] (lower-right, coarse) has a
        // finer -x neighbor.
        tree.refine_block(children[0], &mut unk);

        let nxb = tree.config().nxb;
        let mut reg = FluxRegister::new(2, nxb, 1, tree.config().max_blocks);
        // Uniform flux 2.0 on every face of every leaf.
        for id in tree.leaves() {
            for axis in 0..2 {
                for side in 0..2 {
                    for c in 0..nxb {
                        reg.save(id.idx(), Face { axis, side }, [c, 0], 0, 2.0);
                    }
                }
            }
        }
        let corr = reg.corrections(&tree);
        assert!(
            corr.iter().all(|c| c.delta.abs() < 1e-14),
            "uniform fluxes must not produce corrections"
        );
        // But corrections are generated for the coarse faces that touch
        // finer blocks.
        assert!(!corr.is_empty());
        assert!(corr
            .iter()
            .all(|c| c.block == children[1] || c.block == children[2] || c.block == children[3]));
    }

    #[test]
    fn mismatched_fluxes_yield_mean_difference() {
        let mut tree = Tree::new(MeshConfig::test_2d());
        let mut unk = tree.make_unk(Policy::None);
        let root = tree.leaves()[0];
        let children = tree.refine_block(root, &mut unk);
        let grand = tree.refine_block(children[0], &mut unk);

        let nxb = tree.config().nxb;
        let mut reg = FluxRegister::new(2, nxb, 1, tree.config().max_blocks);
        // Coarse block children[1] reports 1.0 on its -x face.
        for c in 0..nxb {
            reg.save(children[1].idx(), Face { axis: 0, side: 0 }, [c, 0], 0, 1.0);
        }
        // The fine blocks on the other side (grand[1], grand[3], i.e. the
        // +x half of children[0]) report 3.0 on their +x faces.
        for g in [grand[1], grand[3]] {
            for c in 0..nxb {
                reg.save(g.idx(), Face { axis: 0, side: 1 }, [c, 0], 0, 3.0);
            }
        }
        let corr = reg.corrections(&tree);
        let ours: Vec<&Correction> = corr
            .iter()
            .filter(|c| c.block == children[1] && c.face.axis == 0 && c.face.side == 0)
            .collect();
        assert_eq!(ours.len(), nxb);
        for c in ours {
            assert!(
                (c.delta - 2.0).abs() < 1e-14,
                "mean(3) − 1 = 2, got {}",
                c.delta
            );
        }
    }
}

//! The block tree: allocation, refinement, derefinement, neighbors.

use std::collections::HashMap;

use rflash_hugepages::Policy;
use serde::{Deserialize, Serialize};

use crate::block::{BlockId, BlockMeta, BlockState, MortonKey};
use crate::geometry::Geometry;
use crate::unk::UnkStorage;

/// Physical boundary treatment at the domain edges (uniform on all faces;
/// FLASH allows per-face choices, the paper's problems use uniform ones).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum BoundaryCondition {
    /// Zero-gradient ("outflow").
    #[default]
    Outflow,
    /// Mirror, with normal velocity sign-flipped ("reflecting").
    Reflecting,
    /// Periodic wrap.
    Periodic,
}

/// Mesh construction parameters (PARAMESH's runtime parameters).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeshConfig {
    pub ndim: usize,
    /// Zones per block side (FLASH: 16).
    pub nxb: usize,
    /// Guard cells per side (FLASH: 4).
    pub nguard: usize,
    pub nvar: usize,
    /// Block-pool capacity (PARAMESH's `maxblocks`).
    pub max_blocks: usize,
    /// Root blocks per dimension (`nblockx/y/z`); use 1 for the z entry in 2-d.
    pub nroot: [usize; 3],
    pub domain_lo: [f64; 3],
    pub domain_hi: [f64; 3],
    /// Minimum leaf refinement level (`lrefine_min`).
    pub min_refine: u8,
    /// Maximum leaf refinement level (`lrefine_max`).
    pub max_refine: u8,
    /// Default boundary condition on every face.
    pub bc: BoundaryCondition,
    /// Per-face overrides: `bc_faces[axis][side]` (side 0 = low, 1 = high).
    /// `None` entries fall back to `bc`. FLASH's `xl_boundary_type` etc.;
    /// cylindrical r–z setups reflect at the axis (axis 0, side 0) and
    /// outflow elsewhere.
    pub bc_faces: [[Option<BoundaryCondition>; 2]; 3],
    pub geometry: Geometry,
}

impl MeshConfig {
    /// A small 2-d config for unit tests.
    pub fn test_2d() -> MeshConfig {
        MeshConfig {
            ndim: 2,
            nxb: 8,
            nguard: 4,
            nvar: crate::vars::NVAR,
            max_blocks: 512,
            nroot: [1, 1, 1],
            domain_lo: [0.0, 0.0, 0.0],
            domain_hi: [1.0, 1.0, 1.0],
            min_refine: 0,
            max_refine: 4,
            bc: BoundaryCondition::Outflow,
            bc_faces: [[None; 2]; 3],
            geometry: Geometry::Cartesian,
        }
    }

    /// The boundary condition at `(axis, side)` with overrides applied.
    #[inline]
    pub fn bc_at(&self, axis: usize, side: usize) -> BoundaryCondition {
        self.bc_faces[axis][side].unwrap_or(self.bc)
    }

    /// Children per block.
    #[inline]
    pub fn n_children(&self) -> usize {
        1 << self.ndim
    }

    /// Directions to all face/edge/corner neighbors (3^ndim − 1 of them).
    pub fn neighbor_dirs(&self) -> Vec<[i32; 3]> {
        let mut dirs = Vec::new();
        let kz: &[i32] = if self.ndim == 3 { &[-1, 0, 1] } else { &[0] };
        for &dz in kz {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    if dx != 0 || dy != 0 || dz != 0 {
                        dirs.push([dx, dy, dz]);
                    }
                }
            }
        }
        dirs
    }
}

/// One block's zone geometry ([`Tree::zone_grid`]): its low corner and
/// zone widths. Every zone center on the mesh comes from
/// [`ZoneGrid::center`], so a center computed from a grid taken once per
/// block is bit-identical to [`Tree::cell_center`].
#[derive(Clone, Copy, Debug)]
pub struct ZoneGrid {
    /// Zone widths (0 along the unused axis of a 2-d mesh).
    pub dx: [f64; 3],
    lo: [f64; 3],
    nguard: f64,
    three_d: bool,
}

impl ZoneGrid {
    /// Center of padded zone (i, j, k); z is 0 on a 2-d mesh.
    #[inline]
    pub fn center(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        let g = self.nguard;
        let kk = if self.three_d { k as f64 - g } else { 0.0 };
        [
            self.lo[0] + (i as f64 - g + 0.5) * self.dx[0],
            self.lo[1] + (j as f64 - g + 0.5) * self.dx[1],
            if self.three_d {
                self.lo[2] + (kk + 0.5) * self.dx[2]
            } else {
                0.0
            },
        ]
    }
}

/// Where a same-level neighbor lookup landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Neighbor {
    /// A block exists at the same level (a leaf, or a parent holding the
    /// restriction of its finer children).
    Same(BlockId),
    /// The area is covered by a coarser leaf (level − 1).
    Coarser(BlockId),
    /// Physical domain boundary.
    Boundary,
}

/// The PARAMESH-style block tree plus the block pool bookkeeping.
pub struct Tree {
    config: MeshConfig,
    metas: Vec<BlockMeta>,
    lookup: HashMap<MortonKey, BlockId>,
    /// Free slots, popped from the back: initially ascending ids, then
    /// most-recently-released first. `unk` is backed only where a block has
    /// been written, so this LIFO order is what keeps its resident set at
    /// the high-water block count — a regrid reuses warm slabs before it
    /// touches a never-used one. A recycled slab holds its previous
    /// tenant's data; nothing may assume a fresh block reads as zero.
    free: Vec<BlockId>,
    n_active: usize,
    /// Per-slot Morton code at `max_refine`, computed once when the block
    /// is allocated (stale on free slots).
    codes: Vec<u128>,
    /// The leaves in Morton order, updated on every change to the leaf set
    /// (a leaf allocated or released, a Leaf↔Parent flip). Leaves never
    /// overlap, so their codes are distinct and a binary search on the
    /// code finds a leaf's position. It changes only together with `epoch`.
    leaf_order: Vec<BlockId>,
    /// Bumped on every block allocation/release; cached work distributions
    /// (rank partitions, guard-exchange schedules) key on this to detect
    /// that a regrid made them stale.
    epoch: u64,
}

/// Refinement marks produced by the error estimator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    Derefine,
    Keep,
    Refine,
}

/// What one adaptation pass does, as decided by [`Tree::plan_adapt`]:
/// derefinements first, then refinements. Refining never touches a block a
/// derefinement frees, so the plan stays valid while it executes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdaptPlan {
    /// Parents whose children all coarsen, in Morton order of the children.
    pub derefine: Vec<BlockId>,
    /// Leaves to refine, coarse to fine, in Morton order within a level.
    pub refine: Vec<BlockId>,
}

impl Tree {
    /// Create the tree with its root blocks as leaves.
    pub fn new(config: MeshConfig) -> Tree {
        assert!(config.ndim == 2 || config.ndim == 3);
        let nroot_total =
            config.nroot[0] * config.nroot[1] * if config.ndim == 3 { config.nroot[2] } else { 1 };
        assert!(nroot_total <= config.max_blocks, "maxblocks too small");
        assert!(config.max_refine >= config.min_refine);
        let mut tree = Tree {
            metas: vec![BlockMeta::free(); config.max_blocks],
            lookup: HashMap::new(),
            free: (0..config.max_blocks as u32).rev().map(BlockId).collect(),
            n_active: 0,
            codes: vec![0; config.max_blocks],
            leaf_order: Vec::new(),
            epoch: 0,
            config,
        };
        let nz = if config.ndim == 3 { config.nroot[2] } else { 1 };
        for iz in 0..nz {
            for iy in 0..config.nroot[1] {
                for ix in 0..config.nroot[0] {
                    let key = MortonKey {
                        level: 0,
                        ix: ix as u32,
                        iy: iy as u32,
                        iz: iz as u32,
                    };
                    tree.alloc(key, None);
                }
            }
        }
        tree
    }

    /// Allocate a matching `unk` container for this tree.
    pub fn make_unk(&self, policy: Policy) -> UnkStorage {
        UnkStorage::new(
            self.config.ndim,
            self.config.nxb,
            self.config.nguard,
            self.config.nvar,
            self.config.max_blocks,
            policy,
        )
    }

    /// The mesh configuration this tree was built with.
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Metadata of one block slot.
    pub fn block(&self, id: BlockId) -> &BlockMeta {
        &self.metas[id.idx()]
    }

    /// Number of live (leaf + parent) blocks.
    pub fn active_blocks(&self) -> usize {
        self.n_active
    }

    /// Topology revision: changes whenever any block is allocated or
    /// released (refine, derefine, `adapt`). Equal epochs guarantee an
    /// identical block population, so epoch-keyed caches stay valid.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// All leaf block ids, sorted along the Morton curve (PARAMESH's
    /// work-distribution order). A copy of the maintained order: the cost
    /// follows the leaf count, not `max_blocks`, and nothing is sorted.
    pub fn leaves(&self) -> Vec<BlockId> {
        self.leaf_order.clone()
    }

    /// All live (leaf + parent) block ids, ascending. Walks the key index,
    /// not the pool, so the cost follows the live count rather than
    /// `max_blocks`.
    pub fn active_ids(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.lookup.values().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Find the block with an exact key.
    pub fn find(&self, key: MortonKey) -> Option<BlockId> {
        self.lookup.get(&key).copied()
    }

    fn alloc(&mut self, key: MortonKey, parent: Option<BlockId>) -> BlockId {
        let id = self.free.pop().unwrap_or_else(|| {
            panic!(
                "block pool exhausted (maxblocks = {})",
                self.config.max_blocks
            )
        });
        let meta = &mut self.metas[id.idx()];
        meta.key = key;
        meta.state = BlockState::Leaf;
        meta.parent = parent;
        meta.children = None;
        meta.n_children = 0;
        self.codes[id.idx()] = key.morton_code(self.config.max_refine);
        self.insert_leaf(id);
        self.lookup.insert(key, id);
        self.n_active += 1;
        self.epoch += 1;
        id
    }

    fn release(&mut self, id: BlockId) {
        let meta = &self.metas[id.idx()];
        let key = meta.key;
        if meta.is_leaf() {
            self.remove_leaf(id);
        }
        self.lookup.remove(&key);
        self.metas[id.idx()] = BlockMeta::free();
        self.free.push(id);
        self.n_active -= 1;
        self.epoch += 1;
    }

    /// Put a block that just became a leaf at its Morton position.
    fn insert_leaf(&mut self, id: BlockId) {
        let codes = &self.codes;
        let code = codes[id.idx()];
        let at = self.leaf_order.partition_point(|l| codes[l.idx()] < code);
        self.leaf_order.insert(at, id);
    }

    /// Take a block that stops being a leaf out of the Morton order.
    fn remove_leaf(&mut self, id: BlockId) {
        let codes = &self.codes;
        let at = self
            .leaf_order
            .binary_search_by_key(&codes[id.idx()], |l| codes[l.idx()])
            .unwrap_or_else(|_| panic!("leaf {id:?} missing from the Morton order"));
        self.leaf_order.remove(at);
    }

    // ---- geometry --------------------------------------------------------

    /// Physical bounds of a block.
    pub fn bounds(&self, id: BlockId) -> ([f64; 3], [f64; 3]) {
        let key = self.block(id).key;
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        let coords = [key.ix as usize, key.iy as usize, key.iz as usize];
        for d in 0..3 {
            if d >= self.config.ndim {
                lo[d] = self.config.domain_lo[d];
                hi[d] = self.config.domain_hi[d];
                continue;
            }
            let extent = (self.config.nroot[d] as u64) << key.level;
            let width = (self.config.domain_hi[d] - self.config.domain_lo[d]) / extent as f64;
            lo[d] = self.config.domain_lo[d] + coords[d] as f64 * width;
            hi[d] = lo[d] + width;
        }
        (lo, hi)
    }

    /// Zone widths of a block.
    pub fn cell_size(&self, id: BlockId) -> [f64; 3] {
        self.zone_grid(id).dx
    }

    /// Center coordinates of interior zone (i, j, k) — padded indices.
    pub fn cell_center(&self, id: BlockId, i: usize, j: usize, k: usize) -> [f64; 3] {
        self.zone_grid(id).center(i, j, k)
    }

    /// A block's zone geometry, computed once: what [`Tree::cell_center`]
    /// and [`Tree::cell_size`] evaluate per call, for loops over all of a
    /// block's zones.
    pub fn zone_grid(&self, id: BlockId) -> ZoneGrid {
        let (lo, hi) = self.bounds(id);
        let mut dx = [0.0; 3];
        for a in 0..self.config.ndim {
            dx[a] = (hi[a] - lo[a]) / self.config.nxb as f64;
        }
        ZoneGrid {
            lo,
            dx,
            nguard: self.config.nguard as f64,
            three_d: self.config.ndim == 3,
        }
    }

    // ---- neighbors --------------------------------------------------------

    /// Same-level neighbor lookup in direction `d`, honoring the boundary
    /// condition. Guaranteed to resolve under 2:1 balance.
    pub fn neighbor(&self, id: BlockId, d: [i32; 3]) -> Neighbor {
        let key = self.block(id).key;
        let mut coords = [key.ix as i64, key.iy as i64, key.iz as i64];
        for a in 0..3 {
            coords[a] += d[a] as i64;
        }
        // Domain extent at this level.
        for (a, coord) in coords.iter_mut().enumerate().take(self.config.ndim) {
            let extent = ((self.config.nroot[a] as u64) << key.level) as i64;
            if *coord < 0 || *coord >= extent {
                let side = if *coord < 0 { 0 } else { 1 };
                match self.config.bc_at(a, side) {
                    BoundaryCondition::Periodic => {
                        *coord = coord.rem_euclid(extent);
                    }
                    _ => return Neighbor::Boundary,
                }
            }
        }
        let nkey = MortonKey {
            level: key.level,
            ix: coords[0] as u32,
            iy: coords[1] as u32,
            iz: coords[2] as u32,
        };
        if let Some(nid) = self.find(nkey) {
            return Neighbor::Same(nid);
        }
        if let Some(pkey) = nkey.parent() {
            if let Some(pid) = self.find(pkey) {
                return Neighbor::Coarser(pid);
            }
        }
        panic!(
            "2:1 balance violated: no neighbor for {:?} in direction {d:?}",
            key
        );
    }

    // ---- refinement -------------------------------------------------------

    /// Refine one leaf: allocate 2^ndim children and prolongate the parent's
    /// interior into them (conservative, minmod-limited linear).
    pub fn refine_block(&mut self, id: BlockId, unk: &mut UnkStorage) -> [BlockId; 8] {
        let children = self.refine_topology(id);
        for (c, &cid) in children.iter().enumerate().take(self.config.n_children()) {
            crate::guardcell::prolong_interior(self, unk, id, cid, c);
        }
        children
    }

    /// The tree half of [`Tree::refine_block`]: allocate the children and
    /// mark `id` a parent without writing any `unk` slab. For callers that
    /// fill the children from elsewhere (checkpoint restore): the child
    /// slots may be recycled ones holding stale data, and the parent's slab
    /// stays exactly as it was — untouched, hence unbacked, on a fresh pool.
    pub fn refine_topology(&mut self, id: BlockId) -> [BlockId; 8] {
        assert!(self.block(id).is_leaf(), "only leaves refine");
        let key = self.block(id).key;
        assert!(
            key.level < self.config.max_refine,
            "refinement beyond lrefine_max"
        );
        let nchild = self.config.n_children();
        // Out of the order before the children go in: the first child
        // shares this block's code.
        self.remove_leaf(id);
        let mut children = [BlockId(u32::MAX); 8];
        for (c, slot) in children.iter_mut().enumerate().take(nchild) {
            let ckey = key.child(c, self.config.ndim);
            *slot = self.alloc(ckey, Some(id));
        }
        let meta = &mut self.metas[id.idx()];
        meta.state = BlockState::Parent;
        meta.children = Some(children);
        meta.n_children = nchild as u8;
        children
    }

    /// Derefine: restrict the children of `parent` into it and free them.
    pub fn derefine_block(&mut self, parent: BlockId, unk: &mut UnkStorage) {
        let meta = self.block(parent);
        assert_eq!(meta.state, BlockState::Parent);
        let children = meta.children.expect("parent has children");
        let nchild = meta.n_children as usize;
        for &cid in children.iter().take(nchild) {
            assert!(self.block(cid).is_leaf(), "derefine requires leaf children");
        }
        crate::guardcell::restrict_into_parent(self, unk, parent);
        for &cid in children.iter().take(nchild) {
            self.release(cid);
        }
        let meta = &mut self.metas[parent.idx()];
        meta.state = BlockState::Leaf;
        meta.children = None;
        meta.n_children = 0;
        self.insert_leaf(parent);
    }

    /// One adaptation pass: take per-leaf marks, decide with
    /// [`Tree::plan_adapt`], then derefine (restricting children into their
    /// parents) and refine (prolongating into the children) in the plan's
    /// order. Returns (refined, derefined) counts.
    pub fn adapt(
        &mut self,
        unk: &mut UnkStorage,
        marks: &HashMap<BlockId, Mark>,
    ) -> (usize, usize) {
        let plan = self.plan_adapt(marks);
        for &pid in &plan.derefine {
            self.derefine_block(pid, unk);
        }
        for &id in &plan.refine {
            self.refine_block(id, unk);
        }
        (plan.refine.len(), plan.derefine.len())
    }

    /// The decision half of [`Tree::adapt`]: apply the level limits to the
    /// per-leaf marks, close the refinements under 2:1 balance and veto
    /// derefinements that would break it. Changes nothing; a caller that
    /// fills new leaves itself (the set-up builder) refines with
    /// [`Tree::refine_topology`] instead of [`Tree::refine_block`].
    pub fn plan_adapt(&self, marks: &HashMap<BlockId, Mark>) -> AdaptPlan {
        let mut want: HashMap<BlockId, Mark> = HashMap::new();
        for id in self.leaves() {
            let level = self.block(id).key.level;
            let mut mark = marks.get(&id).copied().unwrap_or(Mark::Keep);
            // Level limits.
            if mark == Mark::Refine && level >= self.config.max_refine {
                mark = Mark::Keep;
            }
            if mark == Mark::Derefine && level <= self.config.min_refine {
                mark = Mark::Keep;
            }
            want.insert(id, mark);
        }

        // Balance: a refining leaf forces coarser neighbors to refine; a
        // leaf with a finer neighbor (or a neighbor that will refine) cannot
        // keep level if that would break 2:1 after the neighbor refines.
        loop {
            let mut changed = false;
            let ids: Vec<BlockId> = want.keys().copied().collect();
            for id in ids {
                if want[&id] != Mark::Refine {
                    continue;
                }
                for d in self.config.neighbor_dirs() {
                    if let Neighbor::Coarser(nid) = self.neighbor(id, d) {
                        // The coarser neighbor must at least refine to keep
                        // the post-refinement difference ≤ 1.
                        if want.get(&nid) != Some(&Mark::Refine) {
                            want.insert(nid, Mark::Refine);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Derefinement vetoes: all siblings must agree, and no neighbor of
        // any sibling may be finer or refining.
        let mut derefine: Vec<BlockId> = Vec::new();
        let leaf_ids = self.leaves();
        'parents: for &id in &leaf_ids {
            if want.get(&id) != Some(&Mark::Derefine) {
                continue;
            }
            let Some(pid) = self.block(id).parent else {
                continue;
            };
            // Only handle each parent once (via its 0th child).
            if self.block(id).key.child_index() != 0 {
                continue;
            }
            let children = self.block(pid).children.expect("parent has children");
            let nchild = self.block(pid).n_children as usize;
            for &cid in children.iter().take(nchild) {
                if !self.block(cid).is_leaf() || want.get(&cid) != Some(&Mark::Derefine) {
                    continue 'parents;
                }
                for d in self.config.neighbor_dirs() {
                    match self.neighbor(cid, d) {
                        Neighbor::Same(nid) => {
                            let n = self.block(nid);
                            // A same-level *parent* node means a finer
                            // neighbor exists; a refining same-level leaf
                            // will become finer.
                            if n.state == BlockState::Parent
                                || want.get(&nid) == Some(&Mark::Refine)
                            {
                                continue 'parents;
                            }
                        }
                        Neighbor::Coarser(_) | Neighbor::Boundary => {}
                    }
                }
            }
            derefine.push(pid);
        }

        // Refines run coarse-to-fine so forced coarse refinements land
        // before their finer instigators (prolongation sources stay valid),
        // and along the Morton curve within a level, so the slots the
        // children get do not depend on hash order.
        let mut refine: Vec<BlockId> = want
            .iter()
            .filter(|(_, m)| **m == Mark::Refine)
            .map(|(id, _)| *id)
            .collect();
        refine.sort_unstable_by_key(|id| (self.block(*id).key.level, self.codes[id.idx()]));
        AdaptPlan { derefine, refine }
    }

    /// Verify the 2:1 balance invariant over all leaves (test support).
    pub fn check_balance(&self) -> Result<(), String> {
        for id in self.leaves() {
            for d in self.config.neighbor_dirs() {
                match self.neighbor(id, d) {
                    Neighbor::Same(nid) => {
                        if self.block(nid).state == BlockState::Parent {
                            // Finer neighbor: the children that actually
                            // touch our block across direction `d` must be
                            // leaves (level difference exactly 1).
                            let children = self.block(nid).children.unwrap();
                            for (ci, &c) in children
                                .iter()
                                .enumerate()
                                .take(self.block(nid).n_children as usize)
                            {
                                let off = [
                                    (ci & 1) as i32,
                                    ((ci >> 1) & 1) as i32,
                                    ((ci >> 2) & 1) as i32,
                                ];
                                let touches = (0..self.config.ndim).all(|a| match d[a] {
                                    1 => off[a] == 0,
                                    -1 => off[a] == 1,
                                    _ => true,
                                });
                                if touches && !self.block(c).is_leaf() {
                                    return Err(format!(
                                        "leaf {id:?} has neighbor {nid:?} refined twice"
                                    ));
                                }
                            }
                        }
                    }
                    Neighbor::Coarser(_) | Neighbor::Boundary => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::DENS;

    fn tree_and_unk() -> (Tree, UnkStorage) {
        let tree = Tree::new(MeshConfig::test_2d());
        let unk = tree.make_unk(Policy::None);
        (tree, unk)
    }

    #[test]
    fn root_initialization() {
        let (tree, _) = tree_and_unk();
        assert_eq!(tree.active_blocks(), 1);
        assert_eq!(tree.leaves().len(), 1);
        let (lo, hi) = tree.bounds(tree.leaves()[0]);
        assert_eq!(lo[0], 0.0);
        assert_eq!(hi[0], 1.0);
    }

    #[test]
    fn multi_root_grid() {
        let mut cfg = MeshConfig::test_2d();
        cfg.nroot = [2, 3, 1];
        let tree = Tree::new(cfg);
        assert_eq!(tree.leaves().len(), 6);
    }

    #[test]
    fn refine_creates_children_with_correct_bounds() {
        let (mut tree, mut unk) = tree_and_unk();
        let root = tree.leaves()[0];
        let children = tree.refine_block(root, &mut unk);
        assert_eq!(tree.leaves().len(), 4);
        assert!(!tree.block(root).is_leaf());
        let (lo, hi) = tree.bounds(children[3]); // upper-right in 2-d
        assert_eq!(lo, [0.5, 0.5, 0.0]);
        assert_eq!(hi[0], 1.0);
        assert_eq!(hi[1], 1.0);
    }

    #[test]
    fn refine_prolongs_constant_exactly() {
        let (mut tree, mut unk) = tree_and_unk();
        let root = tree.leaves()[0];
        // Constant density 7.0 in root interior.
        for j in unk.interior() {
            for i in unk.interior() {
                unk.set(DENS, i, j, 0, root.idx(), 7.0);
            }
        }
        tree.refine_block(root, &mut unk);
        for id in tree.leaves() {
            for j in unk.interior() {
                for i in unk.interior() {
                    assert_eq!(unk.get(DENS, i, j, 0, id.idx()), 7.0);
                }
            }
        }
    }

    #[test]
    fn refine_then_derefine_conserves_linear_fields() {
        let (mut tree, mut unk) = tree_and_unk();
        let root = tree.leaves()[0];
        // Linear field in x.
        for j in unk.interior() {
            for i in unk.interior() {
                let x = tree.cell_center(root, i, j, 0)[0];
                unk.set(DENS, i, j, 0, root.idx(), 1.0 + 2.0 * x);
            }
        }
        let before: f64 = unk
            .interior()
            .flat_map(|j| unk.interior().map(move |i| (i, j)))
            .map(|(i, j)| unk.get(DENS, i, j, 0, root.idx()))
            .sum();
        tree.refine_block(root, &mut unk);
        tree.derefine_block(root, &mut unk);
        let after: f64 = unk
            .interior()
            .flat_map(|j| unk.interior().map(move |i| (i, j)))
            .map(|(i, j)| unk.get(DENS, i, j, 0, root.idx()))
            .sum();
        assert!(
            (before - after).abs() < 1e-12 * before.abs(),
            "{before} vs {after}"
        );
        assert_eq!(tree.leaves().len(), 1);
    }

    #[test]
    fn neighbor_same_coarser_boundary() {
        let (mut tree, mut unk) = tree_and_unk();
        let root = tree.leaves()[0];
        let children = tree.refine_block(root, &mut unk);
        // children[0] = lower-left. Its +x neighbor is children[1].
        assert_eq!(
            tree.neighbor(children[0], [1, 0, 0]),
            Neighbor::Same(children[1])
        );
        // Its -x neighbor is the domain boundary.
        assert_eq!(tree.neighbor(children[0], [-1, 0, 0]), Neighbor::Boundary);
        // Refine children[0] once more; its child's +x-neighbor outside
        // children[0] is covered by children[1] (coarser).
        let grand = tree.refine_block(children[0], &mut unk);
        // grand[1] is at (1,0) of level 2; +x neighbor (2,0) is inside
        // children[1], which is a level-1 leaf ⇒ coarser.
        assert_eq!(
            tree.neighbor(grand[1], [1, 0, 0]),
            Neighbor::Coarser(children[1])
        );
    }

    #[test]
    fn periodic_neighbors_wrap() {
        let mut cfg = MeshConfig::test_2d();
        cfg.bc = BoundaryCondition::Periodic;
        let mut tree = Tree::new(cfg);
        let mut unk = tree.make_unk(Policy::None);
        let root = tree.leaves()[0];
        let children = tree.refine_block(root, &mut unk);
        // Lower-left's -x neighbor wraps to lower-right.
        assert_eq!(
            tree.neighbor(children[0], [-1, 0, 0]),
            Neighbor::Same(children[1])
        );
    }

    #[test]
    fn adapt_enforces_two_to_one() {
        let (mut tree, mut unk) = tree_and_unk();
        let root = tree.leaves()[0];
        let children = tree.refine_block(root, &mut unk);
        // Ask to refine only the lower-left twice; balance must drag
        // neighbors along.
        let mut marks = HashMap::new();
        marks.insert(children[0], Mark::Refine);
        tree.adapt(&mut unk, &marks);
        let grand = tree
            .leaves()
            .into_iter()
            .find(|id| tree.block(*id).key.level == 2)
            .expect("refinement happened");
        let mut marks = HashMap::new();
        marks.insert(grand, Mark::Refine);
        tree.adapt(&mut unk, &marks);
        tree.check_balance().unwrap();
        // The level-2 block at the corner now has level-3 children; its
        // level-1 neighbors must have refined to level 2.
        let levels: Vec<u8> = tree
            .leaves()
            .iter()
            .map(|id| tree.block(*id).key.level)
            .collect();
        assert!(levels.contains(&3));
        for id in tree.leaves() {
            for d in tree.config().neighbor_dirs() {
                if let Neighbor::Coarser(nid) = tree.neighbor(id, d) {
                    assert_eq!(
                        tree.block(nid).key.level + 1,
                        tree.block(id).key.level,
                        "difference must be exactly one"
                    );
                }
            }
        }
    }

    #[test]
    fn adapt_derefines_uniform_siblings() {
        let (mut tree, mut unk) = tree_and_unk();
        let root = tree.leaves()[0];
        let children = tree.refine_block(root, &mut unk);
        let mut marks = HashMap::new();
        for c in &children[..4] {
            marks.insert(*c, Mark::Derefine);
        }
        let (refined, derefined) = tree.adapt(&mut unk, &marks);
        assert_eq!((refined, derefined), (0, 1));
        assert_eq!(tree.leaves().len(), 1);
        assert!(tree.block(root).is_leaf());
    }

    #[test]
    fn derefine_vetoed_by_finer_neighbor() {
        let (mut tree, mut unk) = tree_and_unk();
        let root = tree.leaves()[0];
        let children = tree.refine_block(root, &mut unk);
        tree.refine_block(children[3], &mut unk);
        // children[0..3] want to coarsen, but children[3] is refined; the
        // diagonal/face neighbors of the would-be coarse block would then be
        // two levels apart.
        let mut marks = HashMap::new();
        for c in &children[..3] {
            marks.insert(*c, Mark::Derefine);
        }
        let (_, derefined) = tree.adapt(&mut unk, &marks);
        assert_eq!(derefined, 0, "siblings disagree ⇒ veto");
    }

    #[test]
    fn leaves_are_morton_sorted() {
        let (mut tree, mut unk) = tree_and_unk();
        let root = tree.leaves()[0];
        tree.refine_block(root, &mut unk);
        let leaves = tree.leaves();
        let codes: Vec<u128> = leaves
            .iter()
            .map(|id| tree.block(*id).key.morton_code(tree.config().max_refine))
            .collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted);
    }

    #[test]
    fn cell_centers_nest() {
        let (mut tree, mut unk) = tree_and_unk();
        let root = tree.leaves()[0];
        let g = tree.config().nguard;
        let c_root = tree.cell_center(root, g, g, 0);
        assert!((c_root[0] - 0.0625).abs() < 1e-12); // (1/8)/2 with nxb=8
        let children = tree.refine_block(root, &mut unk);
        let c_child = tree.cell_center(children[0], g, g, 0);
        assert!((c_child[0] - 0.03125).abs() < 1e-12);
    }

    #[test]
    fn pool_capacity_is_enforced() {
        let mut cfg = MeshConfig::test_2d();
        cfg.max_blocks = 3; // root + less than 4 children
        let mut tree = Tree::new(cfg);
        let mut unk = tree.make_unk(Policy::None);
        let root = tree.leaves()[0];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tree.refine_block(root, &mut unk);
        }));
        assert!(result.is_err(), "pool exhaustion must be loud");
    }

    #[test]
    fn three_d_tree_has_octants() {
        let mut cfg = MeshConfig::test_2d();
        cfg.ndim = 3;
        cfg.max_blocks = 64;
        let mut tree = Tree::new(cfg);
        let mut unk = tree.make_unk(Policy::None);
        let root = tree.leaves()[0];
        tree.refine_block(root, &mut unk);
        assert_eq!(tree.leaves().len(), 8);
        let (lo, hi) = tree.bounds(tree.leaves()[7]);
        assert!(lo.iter().zip(&hi).all(|(l, h)| h > l));
    }
}

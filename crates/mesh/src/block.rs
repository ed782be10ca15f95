//! Block identity and tree keys.

use serde::{Deserialize, Serialize};

/// Slot index into the block pool (PARAMESH's block number).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    #[inline]
    /// The slot index as a usize (for array indexing).
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Logical position of a block in the tree: refinement level plus integer
/// coordinates at that level (block `(ix, iy, iz)` covers
/// `[ix/2^… ]`-style fractions of the domain).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MortonKey {
    /// Refinement level; 0 = root blocks.
    pub level: u8,
    pub ix: u32,
    pub iy: u32,
    pub iz: u32,
}

impl MortonKey {
    /// Parent key (level−1). Root keys return `None`.
    pub fn parent(self) -> Option<MortonKey> {
        if self.level == 0 {
            None
        } else {
            Some(MortonKey {
                level: self.level - 1,
                ix: self.ix / 2,
                iy: self.iy / 2,
                iz: self.iz / 2,
            })
        }
    }

    /// The `child`-th child key (0..2^ndim, bit 0 = x, bit 1 = y, bit 2 = z).
    pub fn child(self, child: usize, ndim: usize) -> MortonKey {
        debug_assert!(child < (1 << ndim));
        MortonKey {
            level: self.level + 1,
            ix: self.ix * 2 + (child & 1) as u32,
            iy: self.iy * 2 + ((child >> 1) & 1) as u32,
            iz: self.iz * 2 + ((child >> 2) & 1) as u32,
        }
    }

    /// Which child of its parent this key is.
    pub fn child_index(self) -> usize {
        ((self.ix & 1) + 2 * (self.iy & 1) + 4 * (self.iz & 1)) as usize
    }

    /// Neighbor key at the same level, offset by (dx, dy, dz) blocks.
    /// Returns `None` on underflow (domain edge handled by the caller with
    /// the root-block counts).
    pub fn neighbor(self, d: [i32; 3]) -> Option<MortonKey> {
        let ix = self.ix.checked_add_signed(d[0])?;
        let iy = self.iy.checked_add_signed(d[1])?;
        let iz = self.iz.checked_add_signed(d[2])?;
        Some(MortonKey {
            level: self.level,
            ix,
            iy,
            iz,
        })
    }

    /// Morton (Z-order) code at a fixed normalization level, used to sort
    /// leaves along the space-filling curve for load balancing — the same
    /// ordering PARAMESH uses to distribute blocks over MPI ranks.
    pub fn morton_code(self, max_level: u8) -> u128 {
        debug_assert!(self.level <= max_level);
        let shift = (max_level - self.level) as u32;
        spread3(self.ix << shift) | spread3(self.iy << shift) << 1 | spread3(self.iz << shift) << 2
    }
}

/// Spread the 32 bits of `v` to every third bit of a `u128` (bit `i` lands
/// on bit `3i`) in five shift-and-mask steps. Step `k` (16, 8, 4, 2, 1)
/// moves every bit whose index has bit `k` set up by `2k`; its mask keeps
/// exactly the positions bits occupy after that step.
#[inline]
fn spread3(v: u32) -> u128 {
    const fn mask(k: u32) -> u128 {
        let mut m = 0u128;
        let mut i = 0;
        while i < 32 {
            m |= 1 << (i + 2 * (i & !(k - 1)));
            i += 1;
        }
        m
    }
    const STEPS: [(u32, u128); 5] = [
        (32, mask(16)),
        (16, mask(8)),
        (8, mask(4)),
        (4, mask(2)),
        (2, mask(1)),
    ];
    let mut x = v as u128;
    for (shift, m) in STEPS {
        x = (x | x << shift) & m;
    }
    x
}

/// Lifecycle state of a block slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockState {
    /// Unused pool slot.
    Free,
    /// A leaf block carrying live solution data.
    Leaf,
    /// An interior node whose data is the restriction of its children.
    Parent,
}

/// Per-block metadata (PARAMESH's `lrefine`, `parent`, `child`, bounding
/// boxes, …).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlockMeta {
    pub key: MortonKey,
    pub state: BlockState,
    pub parent: Option<BlockId>,
    /// Children in child-index order; `None` for leaves.
    pub children: Option<[BlockId; 8]>,
    /// Number of valid children (2^ndim).
    pub n_children: u8,
}

impl BlockMeta {
    /// An empty pool slot.
    pub fn free() -> BlockMeta {
        BlockMeta {
            key: MortonKey {
                level: 0,
                ix: 0,
                iy: 0,
                iz: 0,
            },
            state: BlockState::Free,
            parent: None,
            children: None,
            n_children: 0,
        }
    }

    /// Is this block a leaf carrying live solution data?
    pub fn is_leaf(&self) -> bool {
        self.state == BlockState::Leaf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_child_round_trip() {
        let root = MortonKey {
            level: 0,
            ix: 0,
            iy: 0,
            iz: 0,
        };
        for ndim in [2usize, 3] {
            for c in 0..(1 << ndim) {
                let child = root.child(c, ndim);
                assert_eq!(child.parent(), Some(root));
                assert_eq!(child.child_index(), c);
                assert_eq!(child.level, 1);
            }
        }
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn neighbor_arithmetic() {
        let k = MortonKey {
            level: 2,
            ix: 1,
            iy: 2,
            iz: 0,
        };
        let n = k.neighbor([1, -1, 0]).unwrap();
        assert_eq!((n.ix, n.iy, n.iz), (2, 1, 0));
        assert!(k.neighbor([0, 0, -1]).is_none(), "underflow is None");
    }

    #[test]
    fn morton_orders_along_curve() {
        // At one level, codes must be unique and respect Z-ordering of the
        // first quadrant split.
        let keys: Vec<MortonKey> = (0..4)
            .flat_map(|y| {
                (0..4).map(move |x| MortonKey {
                    level: 2,
                    ix: x,
                    iy: y,
                    iz: 0,
                })
            })
            .collect();
        let mut codes: Vec<u128> = keys.iter().map(|k| k.morton_code(2)).collect();
        let unique: std::collections::HashSet<u128> = codes.iter().copied().collect();
        assert_eq!(unique.len(), 16);
        codes.sort_unstable();
        // The first four codes along the curve are the 2×2 lower-left quad.
        let first: Vec<u128> = keys
            .iter()
            .filter(|k| k.ix < 2 && k.iy < 2)
            .map(|k| k.morton_code(2))
            .collect();
        assert!(first.iter().all(|c| codes[..4].contains(c)));
    }

    /// The bit-at-a-time interleave `morton_code` used before the mask
    /// spread: the reference the spread must match.
    fn morton_code_by_loop(k: MortonKey, max_level: u8) -> u128 {
        let shift = (max_level - k.level) as u32;
        let (x, y, z) = (
            (k.ix << shift) as u128,
            (k.iy << shift) as u128,
            (k.iz << shift) as u128,
        );
        let mut code: u128 = 0;
        for bit in 0..32 {
            code |= ((x >> bit) & 1) << (3 * bit)
                | ((y >> bit) & 1) << (3 * bit + 1)
                | ((z >> bit) & 1) << (3 * bit + 2);
        }
        code
    }

    #[test]
    fn spread_places_every_bit() {
        for i in 0..32 {
            assert_eq!(spread3(1 << i), 1u128 << (3 * i), "bit {i}");
        }
        assert_eq!(spread3(u32::MAX).count_ones(), 32);
    }

    #[test]
    fn morton_code_matches_the_bitwise_loop() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for ndim in [2usize, 3] {
            for max_refine in [4u8, 9, 17, 31] {
                for level in 0..=max_refine {
                    // Coordinates span the level's extent (several roots
                    // wide, so the top bits are exercised too).
                    let extent = 4u64 << level;
                    for _ in 0..64 {
                        let k = MortonKey {
                            level,
                            ix: (next() % extent) as u32,
                            iy: (next() % extent) as u32,
                            iz: if ndim == 3 {
                                (next() % extent) as u32
                            } else {
                                0
                            },
                        };
                        assert_eq!(
                            k.morton_code(max_refine),
                            morton_code_by_loop(k, max_refine),
                            "{k:?} at max_refine {max_refine}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn coarse_block_and_descendants_share_curve_segment() {
        // A parent's Morton code equals its first child's code at the
        // normalization level — contiguous curve segments per subtree.
        let parent = MortonKey {
            level: 1,
            ix: 1,
            iy: 1,
            iz: 0,
        };
        let c0 = parent.child(0, 2);
        assert_eq!(parent.morton_code(4), c0.morton_code(4));
        let c3 = parent.child(3, 2);
        assert!(c3.morton_code(4) > parent.morton_code(4));
    }
}

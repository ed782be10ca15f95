//! Declarative access patterns.
//!
//! Simulation kernels describe their memory walks as patterns instead of
//! calling [`Tlb::touch`] per element; the pattern is replayed against the
//! TLB at page-relevant granularity. This keeps instrumentation overhead
//! bounded while preserving the touch *order*, which is what determines
//! TLB behaviour.

use crate::tlb::Tlb;

/// A memory access pattern emitted by an instrumented kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    /// `count` accesses of `elem` bytes starting at `base`, `stride` bytes
    /// apart — the FLASH `unk(nvar, i, j, k, blk)` signature.
    Strided {
        base: usize,
        stride: usize,
        count: usize,
        elem: usize,
    },
    /// A dense sequential read/write of `len` bytes from `base`.
    Range { base: usize, len: usize },
    /// Indexed gather: `base + idx*elem` for each index — the EOS table
    /// interpolation signature.
    Gather {
        base: usize,
        elem: usize,
        indices: Vec<usize>,
    },
}

impl AccessPattern {
    /// Total bytes moved by the pattern.
    pub fn bytes(&self) -> u64 {
        match self {
            AccessPattern::Strided { count, elem, .. } => (count * elem) as u64,
            AccessPattern::Range { len, .. } => *len as u64,
            AccessPattern::Gather { indices, elem, .. } => (indices.len() * elem) as u64,
        }
    }

    /// Replay the pattern against a TLB.
    ///
    /// Dense ranges are touched once per base page (every access in between
    /// is a guaranteed hit on the same entry — the TLB's one-entry filter
    /// would absorb them; we account them in bulk instead of looping).
    /// Strided and gather patterns touch every element: their page behaviour
    /// is exactly the phenomenon under study.
    pub fn replay(&self, tlb: &mut Tlb) {
        match *self {
            AccessPattern::Strided {
                base,
                stride,
                count,
                elem,
            } => {
                let mut addr = base;
                for _ in 0..count {
                    tlb.touch(addr);
                    // An element spanning a page boundary touches both pages.
                    if elem > 1 {
                        let last = addr + elem - 1;
                        if last / tlb.config().base_page != addr / tlb.config().base_page {
                            tlb.touch(last);
                        }
                    }
                    addr += stride;
                }
            }
            AccessPattern::Range { base, len } => {
                let page = tlb.config().base_page;
                let mut addr = base;
                let end = base + len;
                while addr < end {
                    tlb.touch(addr);
                    addr = (addr / page + 1) * page;
                }
            }
            AccessPattern::Gather {
                base,
                elem,
                ref indices,
            } => {
                for &i in indices {
                    tlb.touch(base + i * elem);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TlbConfig;
    use crate::page_table::FrameSizing;

    fn tlb() -> Tlb {
        Tlb::new(TlbConfig::a64fx_like())
    }

    #[test]
    fn range_touches_once_per_page() {
        let mut t = tlb();
        AccessPattern::Range {
            base: 100,
            len: 3 * 4096,
        }
        .replay(&mut t);
        // Pages at 0, 4096, 8192, 12288 → 4 touches (base 100 spills into a
        // fourth page).
        assert_eq!(t.stats().accesses, 4);
        assert_eq!(t.stats().walks, 4);
    }

    #[test]
    fn strided_touches_every_element() {
        let mut t = tlb();
        AccessPattern::Strided {
            base: 0,
            stride: 8192,
            count: 10,
            elem: 8,
        }
        .replay(&mut t);
        assert_eq!(t.stats().accesses, 10);
        assert_eq!(t.stats().walks, 10);
    }

    #[test]
    fn straddling_element_touches_both_pages() {
        let mut t = tlb();
        AccessPattern::Strided {
            base: 4092, // 8-byte element crosses the 4096 boundary
            stride: 4096,
            count: 1,
            elem: 8,
        }
        .replay(&mut t);
        assert_eq!(t.stats().accesses, 2);
    }

    #[test]
    fn gather_follows_indices() {
        let mut t = tlb();
        AccessPattern::Gather {
            base: 0,
            elem: 8,
            indices: vec![0, 512, 1024, 0],
        }
        .replay(&mut t);
        assert_eq!(t.stats().accesses, 4);
        // idx 0 and 512 share page 0 (4096/8=512 elems per page)… index 512
        // starts page 1, 1024 page 2, final 0 returns to page 0 (L1 hit).
        assert_eq!(t.stats().walks, 3);
        assert_eq!(t.stats().l1_hits, 1);
    }

    #[test]
    fn bytes_per_pattern() {
        let s = AccessPattern::Strided {
            base: 0,
            stride: 96,
            count: 100,
            elem: 8,
        };
        assert_eq!(s.bytes(), 800);
        let r = AccessPattern::Range { base: 0, len: 130 };
        assert_eq!(r.bytes(), 130);
        let g = AccessPattern::Gather {
            base: 0,
            elem: 16,
            indices: vec![1, 2],
        };
        assert_eq!(g.bytes(), 32);
    }

    #[test]
    fn unk_stride_pattern_benefits_from_huge_pages() {
        // The motivating case from the paper's §I.C: one variable strided
        // through an interleaved block container. nvar=16 f64s → 128 B
        // stride; 512 blocks of 16×16×16 zones.
        let nvar = 16usize;
        let zones = 16 * 16 * 16;
        let blocks = 256usize;
        let stride = nvar * 8;
        let total = blocks * zones * stride;

        let run = |sizing: FrameSizing| {
            let mut t = tlb();
            t.map_region(0, total, sizing);
            // Two sweeps of variable #3 over all blocks.
            for _ in 0..2 {
                AccessPattern::Strided {
                    base: 3 * 8,
                    stride,
                    count: blocks * zones,
                    elem: 8,
                }
                .replay(&mut t);
            }
            t.stats()
        };
        let base = run(FrameSizing::Base);
        let huge = run(FrameSizing::huge(2 << 20));
        assert!(huge.walks * 20 < base.walks, "{huge:?} vs {base:?}");
    }
}

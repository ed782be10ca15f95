//! Virtual-page → frame-size resolution.
//!
//! The page table decides, per address, what page size backs it. Regions are
//! registered by the harness with a [`FrameSizing`] derived from the
//! huge-page policy actually in force; huge frames only cover the
//! naturally-aligned extents that lie wholly inside the region, matching THP
//! semantics (the kernel only installs a PMD mapping for a fully-populated
//! aligned 2 MiB extent).

use serde::{Deserialize, Serialize};

/// How frames are sized inside a registered region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameSizing {
    /// Base pages only.
    Base,
    /// Huge frames of `size` bytes for every naturally aligned, fully
    /// contained `size`-extent; base pages for the ragged edges.
    Huge { size: usize },
}

impl FrameSizing {
    /// Convenience constructor; panics if `size` is not a power of two.
    pub fn huge(size: usize) -> FrameSizing {
        assert!(size.is_power_of_two(), "huge frame size must be 2^n");
        FrameSizing::Huge { size }
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Region {
    base: usize,
    len: usize,
    sizing: FrameSizing,
}

/// The sparse "page table": a handful of registered regions (simulations
/// register their big buffers) over a base-page default.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PageTable {
    base_page: usize,
    regions: Vec<Region>,
}

/// A resolved translation: the page (start, size) covering an address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageId {
    /// Virtual page number: page start address divided by page size.
    pub vpn: usize,
    /// Page size in bytes.
    pub size: usize,
}

impl PageTable {
    /// An empty page table with the given base page size.
    pub fn new(base_page: usize) -> PageTable {
        assert!(base_page.is_power_of_two());
        PageTable {
            base_page,
            regions: Vec::new(),
        }
    }

    /// Register `[base, base+len)` with the given frame sizing. Later
    /// registrations win on overlap (meaning a harness can re-register a
    /// buffer after changing policy).
    pub fn map_region(&mut self, base: usize, len: usize, sizing: FrameSizing) {
        self.regions.push(Region { base, len, sizing });
    }

    /// Remove all registrations (used when a simulation re-allocates).
    pub fn clear(&mut self) {
        self.regions.clear();
    }

    /// Resolve the page covering `addr`.
    pub fn resolve(&self, addr: usize) -> PageId {
        // Later registrations take precedence.
        for region in self.regions.iter().rev() {
            if addr >= region.base && addr < region.base + region.len {
                if let FrameSizing::Huge { size } = region.sizing {
                    let page_start = addr & !(size - 1);
                    // The huge frame must lie entirely within the region.
                    if page_start >= region.base && page_start + size <= region.base + region.len {
                        return PageId {
                            vpn: page_start / size,
                            size,
                        };
                    }
                }
                break; // region found but edge not huge-coverable → base page
            }
        }
        PageId {
            vpn: addr / self.base_page,
            size: self.base_page,
        }
    }

    /// Count of distinct pages needed to cover `[base, base+len)` —
    /// the "page footprint" that must fit in the TLB for reuse to hit.
    pub fn page_footprint(&self, base: usize, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let mut count = 0;
        let mut addr = base;
        let end = base + len;
        while addr < end {
            let page = self.resolve(addr);
            let page_end = (page.vpn + 1) * page.size;
            count += 1;
            addr = page_end;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1 << 20;

    #[test]
    fn unregistered_addresses_are_base_pages() {
        let pt = PageTable::new(4096);
        let p = pt.resolve(0x1234_5678);
        assert_eq!(p.size, 4096);
        assert_eq!(p.vpn, 0x1234_5678 / 4096);
    }

    #[test]
    fn huge_region_resolves_to_huge_pages() {
        let mut pt = PageTable::new(4096);
        pt.map_region(64 * MB, 8 * MB, FrameSizing::huge(2 * MB));
        let p = pt.resolve(64 * MB + 3 * MB + 17);
        assert_eq!(p.size, 2 * MB);
        assert_eq!(p.vpn, (64 * MB + 2 * MB) / (2 * MB));
    }

    #[test]
    fn unaligned_region_edges_fall_back_to_base() {
        let mut pt = PageTable::new(4096);
        // Region starts 1 MiB into a 2 MiB extent: the first aligned huge
        // frame starting at 64 MiB is not fully inside the region.
        pt.map_region(64 * MB + MB, 2 * MB, FrameSizing::huge(2 * MB));
        let front = pt.resolve(64 * MB + MB + 100);
        assert_eq!(front.size, 4096, "leading ragged edge is base pages");
        let tail = pt.resolve(64 * MB + 2 * MB + 100);
        assert_eq!(tail.size, 4096, "no aligned extent fits: all base");
    }

    #[test]
    fn aligned_interior_of_unaligned_region_is_huge() {
        let mut pt = PageTable::new(4096);
        // 4 MiB region starting at 1 MiB offset = [1M, 5M): the 2 MiB extent
        // [2M,4M) lies fully inside; [0,2M) and [4M,6M) do not.
        pt.map_region(MB, 4 * MB, FrameSizing::huge(2 * MB));
        assert_eq!(pt.resolve(3 * MB).size, 2 * MB);
        assert_eq!(pt.resolve(MB + 100).size, 4096);
        assert_eq!(pt.resolve(4 * MB + 4096).size, 4096);
    }

    #[test]
    fn later_registration_wins() {
        let mut pt = PageTable::new(4096);
        pt.map_region(0, 4 * MB, FrameSizing::Base);
        pt.map_region(0, 4 * MB, FrameSizing::huge(2 * MB));
        assert_eq!(pt.resolve(MB).size, 2 * MB);
    }

    #[test]
    fn footprint_counts_pages() {
        let mut pt = PageTable::new(4096);
        pt.map_region(0, 4 * MB, FrameSizing::Base);
        assert_eq!(pt.page_footprint(0, 4 * MB), 1024);
        pt.map_region(0, 4 * MB, FrameSizing::huge(2 * MB));
        assert_eq!(pt.page_footprint(0, 4 * MB), 2);
        assert_eq!(pt.page_footprint(0, 0), 0);
    }

    #[test]
    fn footprint_mixed_edges() {
        let mut pt = PageTable::new(4096);
        // Huge-sized region with 1 MiB ragged head: 256 base pages + 1 huge
        // page + 256 base pages of tail.
        pt.map_region(MB, 4 * MB, FrameSizing::huge(2 * MB));
        let fp = pt.page_footprint(MB, 4 * MB);
        assert_eq!(fp, 256 + 1 + 256);
    }

    #[test]
    fn clear_removes_regions() {
        let mut pt = PageTable::new(4096);
        pt.map_region(0, 2 * MB, FrameSizing::huge(2 * MB));
        assert_eq!(pt.resolve(0).size, 2 * MB);
        pt.clear();
        assert_eq!(pt.resolve(0).size, 4096);
    }
}

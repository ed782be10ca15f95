//! Linux huge-page allocation toolkit.
//!
//! This crate is the Rust stand-in for the machinery the CLUSTER 2022 paper
//! *"On Using Linux Kernel Huge Pages with FLASH"* drives through the Fujitsu
//! compiler's largepage runtime, `libhugetlbfs` (`hugectl`/`hugeadm`), and raw
//! kernel interfaces:
//!
//! * [`PageSize`] — base and huge page sizes, discovered from `/sys`.
//! * [`Policy`] — how large anonymous allocations should be backed
//!   (`none` / `thp` / `hugetlbfs`), parsed from the `RFLASH_HPAGE_TYPE`
//!   environment variable exactly like the paper's `XOS_MMM_L_HPAGE_TYPE`.
//! * [`MmapRegion`] — an RAII anonymous mapping with the policy applied
//!   (`madvise(MADV_HUGEPAGE)` for THP, `MAP_HUGETLB` for explicit pages)
//!   and graceful, *reported* fallback when the kernel refuses.
//! * [`PageBuffer`] — a typed, zero-initialized buffer on top of a region;
//!   this is what the mesh `unk` container and the EOS table live in.
//!   Allocation is reservation: pages are backed where they are written.
//! * [`HugeArena`] — a bump allocator carving sub-buffers out of one region.
//! * [`meminfo`] / [`smaps`] — parsers for the `/proc` files the paper
//!   monitors to *verify* that huge pages are actually in use (§III).
//! * [`probe`] — a `hugeadm`-style snapshot of the host's huge-page
//!   configuration.
//!
//! # Quick example
//!
//! ```
//! use rflash_hugepages::{PageBuffer, Policy};
//!
//! // Allocate 1M doubles with transparent-huge-page advice.
//! let mut buf = PageBuffer::<f64>::zeroed(1 << 20, Policy::Thp).unwrap();
//! buf[42] = 3.14;
//! assert_eq!(buf[42], 3.14);
//! // How the kernel actually backed it:
//! let report = buf.backing_report();
//! println!("{report}");
//! ```

pub mod arena;
pub mod buffer;
pub mod crc32;
pub mod error;
pub mod faults;
pub mod meminfo;
pub mod metrics;
pub mod page;
pub mod policy;
pub mod probe;
pub mod region;
pub mod smaps;
mod sys;
pub mod watcher;

pub use arena::HugeArena;
pub use buffer::{
    as_bytes, as_bytes_mut, fill_from_le, with_le_bytes, BackingReport, PageBuffer, Pod,
};
pub use error::{Error, Result};
pub use faults::{FaultGuard, FaultKind, FaultPlan, FaultRule, FaultSite, IoFault, FAULTS_ENV_VAR};
pub use meminfo::MemInfo;
pub use metrics::{alloc_stats, count_heap_fallback, AllocStats};
pub use page::PageSize;
pub use policy::{Policy, POLICY_ENV_VAR};
pub use probe::{probe_system, SystemReport, ThpMode};
pub use region::{AllocStage, DegradationStep, EffectiveBacking, MmapRegion};
pub use smaps::SmapsRegion;
pub use watcher::{MemInfoWatch, WatchSummary};

/// Round `len` up to a multiple of `align` (which must be a power of two).
#[inline]
pub fn align_up(len: usize, align: usize) -> usize {
    debug_assert!(align.is_power_of_two());
    (len + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 4096), 0);
        assert_eq!(align_up(1, 4096), 4096);
        assert_eq!(align_up(4096, 4096), 4096);
        assert_eq!(align_up(4097, 4096), 8192);
        assert_eq!(align_up(3, 1), 3);
    }

    #[test]
    fn align_up_huge() {
        let two_mb = 2 * 1024 * 1024;
        assert_eq!(align_up(1, two_mb), two_mb);
        assert_eq!(align_up(two_mb + 1, two_mb), 2 * two_mb);
    }
}

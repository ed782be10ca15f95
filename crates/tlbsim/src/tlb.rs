//! The two-level TLB model itself.

use crate::config::TlbConfig;
use crate::page_table::{FrameSizing, PageId, PageTable};
use crate::stats::TlbStats;

/// Where a translation was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    L1Hit,
    L2Hit,
    Walk,
}

/// One TLB entry: a (vpn, size) pair plus an LRU timestamp.
#[derive(Clone, Copy, Debug)]
struct Entry {
    vpn: usize,
    size: usize,
    last_used: u64,
    valid: bool,
}

impl Entry {
    const INVALID: Entry = Entry {
        vpn: 0,
        size: 0,
        last_used: 0,
        valid: false,
    };

    #[inline]
    fn matches(&self, page: PageId) -> bool {
        self.valid && self.vpn == page.vpn && self.size == page.size
    }
}

/// Two-level TLB with a page-table resolver.
///
/// Level 1 is fully associative with LRU replacement; level 2 is
/// set-associative (set chosen by vpn low bits, hashed with the page size so
/// different sizes spread over sets) with LRU within the set. Inclusive fill:
/// a walk installs into both levels, an L2 hit promotes into L1.
pub struct Tlb {
    config: TlbConfig,
    page_table: PageTable,
    l1: Vec<Entry>,
    l2: Vec<Entry>, // l2_sets × l2_assoc, row-major by set
    clock: u64,
    stats: TlbStats,
    // One-entry filter for the extremely common same-page-as-last-time case;
    // counted as an L1 hit (it would be one) but avoids the L1 scan.
    last: Option<PageId>,
}

impl Tlb {
    /// Build an empty TLB with the given (validated) geometry.
    pub fn new(config: TlbConfig) -> Tlb {
        config.validate().expect("invalid TlbConfig");
        Tlb {
            page_table: PageTable::new(config.base_page),
            l1: vec![Entry::INVALID; config.l1_entries],
            l2: vec![Entry::INVALID; config.l2_entries],
            clock: 0,
            stats: TlbStats::default(),
            last: None,
            config,
        }
    }

    /// Register a buffer with the page table (see [`PageTable::map_region`]).
    pub fn map_region(&mut self, base: usize, len: usize, sizing: FrameSizing) {
        self.page_table.map_region(base, len, sizing);
    }

    /// The configuration this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Accumulated counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Invalidate all cached translations (e.g. between benchmark phases).
    pub fn flush(&mut self) {
        self.l1.fill(Entry::INVALID);
        self.l2.fill(Entry::INVALID);
        self.last = None;
    }

    /// Translate one byte address; update hierarchy and counters.
    #[inline]
    pub fn touch(&mut self, addr: usize) -> AccessOutcome {
        let page = self.page_table.resolve(addr);
        self.stats.accesses += 1;
        if self.last == Some(page) {
            self.stats.l1_hits += 1;
            return AccessOutcome::L1Hit;
        }
        self.last = Some(page);
        self.clock += 1;
        let now = self.clock;

        // L1: fully associative scan.
        if let Some(e) = self.l1.iter_mut().find(|e| e.matches(page)) {
            e.last_used = now;
            self.stats.l1_hits += 1;
            return AccessOutcome::L1Hit;
        }

        // L2 lookup.
        let set = self.l2_set(page);
        let ways = self.l2_ways_mut(set);
        if let Some(e) = ways.iter_mut().find(|e| e.matches(page)) {
            e.last_used = now;
            self.stats.l2_hits += 1;
            self.install_l1(page, now);
            return AccessOutcome::L2Hit;
        }

        // Miss: page walk, install in both levels.
        self.stats.walks += 1;
        if page.size > self.config.base_page {
            self.stats.huge_walks += 1;
        }
        self.install_l2(set, page, now);
        self.install_l1(page, now);
        AccessOutcome::Walk
    }

    #[inline]
    fn l2_set(&self, page: PageId) -> usize {
        let sets = self.config.l2_sets();
        // Mix the size in so 4K and 2M pages of similar vpn don't collide
        // pathologically; sets is a power of two.
        (page.vpn ^ (page.size >> 12)) & (sets - 1)
    }

    #[inline]
    fn l2_ways_mut(&mut self, set: usize) -> &mut [Entry] {
        let assoc = self.config.l2_assoc;
        &mut self.l2[set * assoc..(set + 1) * assoc]
    }

    fn install_l1(&mut self, page: PageId, now: u64) {
        let victim = self
            .l1
            .iter_mut()
            .min_by_key(|e| if e.valid { e.last_used } else { 0 })
            .expect("l1_entries > 0 is validated");
        *victim = Entry {
            vpn: page.vpn,
            size: page.size,
            last_used: now,
            valid: true,
        };
    }

    fn install_l2(&mut self, set: usize, page: PageId, now: u64) {
        let ways = self.l2_ways_mut(set);
        let victim = ways
            .iter_mut()
            .min_by_key(|e| if e.valid { e.last_used } else { 0 })
            .expect("l2_assoc > 0 is validated");
        *victim = Entry {
            vpn: page.vpn,
            size: page.size,
            last_used: now,
            valid: true,
        };
    }
}

impl std::fmt::Debug for Tlb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tlb")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> TlbConfig {
        TlbConfig {
            l1_entries: 2,
            l2_entries: 8,
            l2_assoc: 2,
            base_page: 4096,
            ..TlbConfig::a64fx_like()
        }
    }

    #[test]
    fn first_touch_walks_second_hits() {
        let mut tlb = Tlb::new(tiny_config());
        assert_eq!(tlb.touch(0x1000), AccessOutcome::Walk);
        assert_eq!(tlb.touch(0x1008), AccessOutcome::L1Hit);
        assert_eq!(tlb.touch(0x1fff), AccessOutcome::L1Hit);
        let s = tlb.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.walks, 1);
        assert_eq!(s.l1_hits, 2);
    }

    #[test]
    fn lru_eviction_in_l1_falls_back_to_l2() {
        let mut tlb = Tlb::new(tiny_config());
        // Fill L1 (2 entries) with pages A, B; touch C to evict LRU (A).
        tlb.touch(0x0000); // A walk
        tlb.touch(0x1000); // B walk
        tlb.touch(0x2000); // C walk, evicts A from L1 (still in L2)
        assert_eq!(tlb.touch(0x0000), AccessOutcome::L2Hit);
    }

    #[test]
    fn capacity_miss_when_working_set_exceeds_hierarchy() {
        let mut tlb = Tlb::new(tiny_config());
        // 10 entries total; a cyclic walk over 64 pages must keep missing.
        for round in 0..3 {
            for p in 0..64 {
                let outcome = tlb.touch(p * 4096);
                if round > 0 {
                    assert_eq!(outcome, AccessOutcome::Walk, "page {p} round {round}");
                }
            }
        }
    }

    #[test]
    fn huge_pages_collapse_the_footprint() {
        let mb = 1 << 20;
        // Working set of 16 MiB, strided at 4 KiB: 4096 base pages versus
        // 8 huge pages.
        let mut base = Tlb::new(TlbConfig::a64fx_like());
        base.map_region(0, 16 * mb, FrameSizing::Base);
        let mut huge = Tlb::new(TlbConfig::a64fx_like());
        huge.map_region(0, 16 * mb, FrameSizing::huge(2 * mb));
        for _round in 0..2 {
            for addr in (0..16 * mb).step_by(4096) {
                base.touch(addr);
                huge.touch(addr);
            }
        }
        let b = base.stats();
        let h = huge.stats();
        assert_eq!(b.accesses, h.accesses);
        assert!(h.walks <= 8, "8 huge pages fit: h.walks={}", h.walks);
        assert!(
            b.walks > 4000,
            "base pages thrash a 1040-entry hierarchy: {}",
            b.walks
        );
        assert!(h.huge_walks == h.walks);
        assert_eq!(b.huge_walks, 0);
    }

    #[test]
    fn flush_invalidates_but_keeps_mappings() {
        let mut tlb = Tlb::new(tiny_config());
        tlb.map_region(0, 1 << 21, FrameSizing::huge(1 << 21));
        tlb.touch(0x100);
        tlb.flush();
        assert_eq!(tlb.touch(0x100), AccessOutcome::Walk);
        assert_eq!(tlb.stats().huge_walks, 2, "mapping survives flush");
    }

    #[test]
    fn same_page_filter_counts_as_l1() {
        let mut tlb = Tlb::new(tiny_config());
        tlb.touch(0x4000);
        for i in 0..100 {
            assert_eq!(tlb.touch(0x4000 + i), AccessOutcome::L1Hit);
        }
        assert_eq!(tlb.stats().l1_hits, 100);
    }

    #[test]
    #[should_panic(expected = "invalid TlbConfig")]
    fn invalid_config_panics() {
        let mut cfg = tiny_config();
        cfg.l2_assoc = 3;
        let _ = Tlb::new(cfg);
    }
}

//! Process-wide allocation-chain counters.
//!
//! The degradation chain in [`crate::MmapRegion`] records per-region steps;
//! these counters aggregate them process-wide so a run's profile report can
//! answer "how often did we fall back, retry, or hit an injected fault?"
//! without walking every live buffer — the §III verification loop turned
//! into cheap always-on telemetry.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

static HUGETLB_ATTEMPTS: AtomicU64 = AtomicU64::new(0);
static HUGETLB_GRANTS: AtomicU64 = AtomicU64::new(0);
static TRANSIENT_RETRIES: AtomicU64 = AtomicU64::new(0);
static THP_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static BASE_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static MADVISE_DENIALS: AtomicU64 = AtomicU64::new(0);
static INJECTED_FAULTS: AtomicU64 = AtomicU64::new(0);
static HEAP_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the allocation-chain counters since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocStats {
    /// Regions that asked for an explicit `MAP_HUGETLB` reservation.
    pub hugetlb_attempts: u64,
    /// ... of which the kernel granted (possibly after transient retries).
    pub hugetlb_grants: u64,
    /// Bounded-backoff retries spent on transient pool exhaustion.
    pub transient_retries: u64,
    /// Degradations hugetlbfs → THP.
    pub thp_fallbacks: u64,
    /// Degradations THP → base pages (mmap or `MADV_HUGEPAGE` refused).
    pub base_fallbacks: u64,
    /// `madvise` calls the kernel refused (any advice).
    pub madvise_denials: u64,
    /// Faults fired by an active [`crate::faults::FaultPlan`].
    pub injected_faults: u64,
    /// Scratch requests no policy could map, served from the heap instead
    /// (the pencil sweep counts one per block swept that way).
    #[serde(default)]
    pub heap_fallbacks: u64,
}

impl AllocStats {
    /// Any degradation or retry at all? (The happy path keeps this false.)
    pub fn degraded(&self) -> bool {
        self.thp_fallbacks > 0
            || self.base_fallbacks > 0
            || self.transient_retries > 0
            || self.madvise_denials > 0
            || self.heap_fallbacks > 0
    }
}

impl std::fmt::Display for AllocStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hugetlb {}/{} granted, {} transient retries, fallbacks: {} to THP / {} to base, \
             {} madvise denials, {} injected faults, {} heap fallbacks",
            self.hugetlb_grants,
            self.hugetlb_attempts,
            self.transient_retries,
            self.thp_fallbacks,
            self.base_fallbacks,
            self.madvise_denials,
            self.injected_faults,
            self.heap_fallbacks,
        )
    }
}

/// Read the current counters.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        hugetlb_attempts: HUGETLB_ATTEMPTS.load(Ordering::Relaxed),
        hugetlb_grants: HUGETLB_GRANTS.load(Ordering::Relaxed),
        transient_retries: TRANSIENT_RETRIES.load(Ordering::Relaxed),
        thp_fallbacks: THP_FALLBACKS.load(Ordering::Relaxed),
        base_fallbacks: BASE_FALLBACKS.load(Ordering::Relaxed),
        madvise_denials: MADVISE_DENIALS.load(Ordering::Relaxed),
        injected_faults: INJECTED_FAULTS.load(Ordering::Relaxed),
        heap_fallbacks: HEAP_FALLBACKS.load(Ordering::Relaxed),
    }
}

pub(crate) fn count_hugetlb_attempt() {
    HUGETLB_ATTEMPTS.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn count_hugetlb_grant() {
    HUGETLB_GRANTS.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn count_transient_retries(n: u64) {
    TRANSIENT_RETRIES.fetch_add(n, Ordering::Relaxed);
}
pub(crate) fn count_thp_fallback() {
    THP_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn count_base_fallback() {
    BASE_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn count_madvise_denial() {
    MADVISE_DENIALS.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn count_injected() {
    INJECTED_FAULTS.fetch_add(1, Ordering::Relaxed);
}
/// Count one scratch request served from the heap because no policy could
/// map it — for callers whose fallback lives outside the allocation chain.
pub fn count_heap_fallback() {
    HEAP_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_display() {
        // Other tests allocate concurrently, so assert deltas only.
        let before = alloc_stats();
        count_hugetlb_attempt();
        count_transient_retries(3);
        count_injected();
        let after = alloc_stats();
        assert!(after.hugetlb_attempts > before.hugetlb_attempts);
        assert!(after.transient_retries >= before.transient_retries + 3);
        assert!(after.injected_faults > before.injected_faults);
        assert!(after.degraded());
        let s = after.to_string();
        assert!(s.contains("transient retries"), "{s}");
    }
}

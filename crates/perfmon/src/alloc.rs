//! Allocation-chain telemetry in profile reports.
//!
//! The hugepages crate counts every fallback, retry, and injected fault in
//! its degradation chain ([`rflash_hugepages::metrics`]); this module folds
//! a snapshot (or a delta across an instrumented region) into the same
//! reporting surface as the paper-style tables, so a run that silently lost
//! its huge pages is visible right next to the DTLB numbers it corrupts.

use std::fmt;

use rflash_hugepages::AllocStats;
use serde::{Deserialize, Serialize};

/// Allocation-chain counters attached to a profile report.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct AllocSummary {
    /// The counters (process-wide totals, or a region delta).
    pub stats: AllocStats,
}

impl AllocSummary {
    /// Snapshot the process-wide counters right now.
    pub fn capture() -> Self {
        AllocSummary {
            stats: rflash_hugepages::alloc_stats(),
        }
    }

    /// Counters accumulated since an earlier [`capture`](Self::capture) —
    /// what an instrumented region itself cost.
    pub fn since(baseline: &AllocSummary) -> Self {
        let now = rflash_hugepages::alloc_stats();
        let b = baseline.stats;
        AllocSummary {
            stats: AllocStats {
                hugetlb_attempts: now.hugetlb_attempts - b.hugetlb_attempts,
                hugetlb_grants: now.hugetlb_grants - b.hugetlb_grants,
                transient_retries: now.transient_retries - b.transient_retries,
                thp_fallbacks: now.thp_fallbacks - b.thp_fallbacks,
                base_fallbacks: now.base_fallbacks - b.base_fallbacks,
                madvise_denials: now.madvise_denials - b.madvise_denials,
                injected_faults: now.injected_faults - b.injected_faults,
                heap_fallbacks: now.heap_fallbacks - b.heap_fallbacks,
            },
        }
    }

    /// Did any allocation degrade below its requested backing?
    pub fn degraded(&self) -> bool {
        self.stats.degraded()
    }
}

impl fmt::Display for AllocSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ALLOCATION CHAIN")?;
        writeln!(
            f,
            "| {:<28} | {:>13} |",
            "hugetlb attempts", self.stats.hugetlb_attempts
        )?;
        writeln!(
            f,
            "| {:<28} | {:>13} |",
            "hugetlb grants", self.stats.hugetlb_grants
        )?;
        writeln!(
            f,
            "| {:<28} | {:>13} |",
            "transient retries", self.stats.transient_retries
        )?;
        writeln!(
            f,
            "| {:<28} | {:>13} |",
            "fallbacks to THP", self.stats.thp_fallbacks
        )?;
        writeln!(
            f,
            "| {:<28} | {:>13} |",
            "fallbacks to base pages", self.stats.base_fallbacks
        )?;
        writeln!(
            f,
            "| {:<28} | {:>13} |",
            "madvise denials", self.stats.madvise_denials
        )?;
        writeln!(
            f,
            "| {:<28} | {:>13} |",
            "injected faults", self.stats.injected_faults
        )?;
        writeln!(
            f,
            "| {:<28} | {:>13} |",
            "heap scratch fallbacks", self.stats.heap_fallbacks
        )?;
        if self.degraded() {
            writeln!(
                f,
                "NOTE: allocations degraded below the requested backing; \
                 huge-page measures reflect the *achieved* chain above."
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_hugepages::{PageBuffer, PageSize, Policy};

    #[test]
    fn delta_sees_a_hugetlb_attempt() {
        let before = AllocSummary::capture();
        let _buf = PageBuffer::<u8>::zeroed(1 << 21, Policy::HugeTlbFs(PageSize::Huge2M)).unwrap();
        let delta = AllocSummary::since(&before);
        assert!(delta.stats.hugetlb_attempts >= 1);
        // Either the pool granted it or the chain recorded the degradation.
        assert!(delta.stats.hugetlb_grants >= 1 || delta.stats.thp_fallbacks >= 1);
        let text = delta.to_string();
        assert!(text.contains("hugetlb attempts"), "{text}");
    }

    #[test]
    fn display_flags_degradation() {
        let s = AllocSummary {
            stats: rflash_hugepages::AllocStats {
                hugetlb_attempts: 2,
                thp_fallbacks: 2,
                ..Default::default()
            },
        };
        assert!(s.degraded());
        assert!(s.to_string().contains("degraded below"));
    }

    #[test]
    fn serde_round_trip() {
        let s = AllocSummary::capture();
        let json = serde_json::to_string(&s).unwrap();
        let back: AllocSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stats, s.stats);
    }
}

//! Counters accumulated by the TLB model.

use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

use crate::config::CostModel;

/// Access counters. "Walks" are DTLB misses in the paper's terminology
/// (PAPI's `PAPI_TLB_DM` counts translations that miss the whole hierarchy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Total translated accesses.
    pub accesses: u64,
    /// Hits in the first-level TLB.
    pub l1_hits: u64,
    /// Hits in the second-level TLB.
    pub l2_hits: u64,
    /// Full page-table walks — the DTLB miss count.
    pub walks: u64,
    /// Walks that installed a huge (non-base) entry.
    pub huge_walks: u64,
}

impl TlbStats {
    /// Modeled translation-stall cycles under a cost model.
    pub fn stall_cycles(&self, cost: &CostModel) -> u64 {
        self.l2_hits * cost.l2_hit_cycles + self.walks * cost.walk_cycles
    }

    /// Misses per second given an elapsed wall time — the unit of the
    /// paper's Tables I/II "DTLB misses (1/s)" row.
    pub fn misses_per_second(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs <= 0.0 {
            0.0
        } else {
            self.walks as f64 / elapsed_secs
        }
    }

    /// Scale all counters by `factor` — used to extrapolate sampled traces
    /// back to full-run magnitudes.
    pub fn scaled(&self, factor: f64) -> TlbStats {
        let s = |v: u64| (v as f64 * factor).round() as u64;
        TlbStats {
            accesses: s(self.accesses),
            l1_hits: s(self.l1_hits),
            l2_hits: s(self.l2_hits),
            walks: s(self.walks),
            huge_walks: s(self.huge_walks),
        }
    }
}

impl Add for TlbStats {
    type Output = TlbStats;
    fn add(self, rhs: TlbStats) -> TlbStats {
        TlbStats {
            accesses: self.accesses + rhs.accesses,
            l1_hits: self.l1_hits + rhs.l1_hits,
            l2_hits: self.l2_hits + rhs.l2_hits,
            walks: self.walks + rhs.walks,
            huge_walks: self.huge_walks + rhs.huge_walks,
        }
    }
}

impl AddAssign for TlbStats {
    fn add_assign(&mut self, rhs: TlbStats) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalls_and_miss_throughput() {
        let s = TlbStats {
            accesses: 1000,
            l1_hits: 800,
            l2_hits: 150,
            walks: 50,
            huge_walks: 10,
        };
        let cost = CostModel {
            l2_hit_cycles: 10,
            walk_cycles: 100,
        };
        assert_eq!(s.stall_cycles(&cost), 150 * 10 + 50 * 100);
        assert!((s.misses_per_second(2.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = TlbStats::default();
        assert_eq!(s.misses_per_second(0.0), 0.0);
    }

    #[test]
    fn add_and_scale() {
        let a = TlbStats {
            accesses: 10,
            l1_hits: 5,
            l2_hits: 3,
            walks: 2,
            huge_walks: 1,
        };
        let sum = a + a;
        assert_eq!(sum.accesses, 20);
        assert_eq!(sum.walks, 4);
        let scaled = a.scaled(10.0);
        assert_eq!(scaled.accesses, 100);
        assert_eq!(scaled.huge_walks, 10);
        let mut acc = TlbStats::default();
        acc += a;
        assert_eq!(acc, a);
    }
}

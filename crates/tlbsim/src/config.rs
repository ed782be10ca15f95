//! TLB geometry and cost-model configuration.

use serde::{Deserialize, Serialize};

/// Cycle costs charged per access outcome.
///
/// An L1 hit is free (fully pipelined); an L2 hit and a page walk stall the
/// load. Absolute values are approximate — the reproduction compares
/// *configurations*, not absolute cycle counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Extra cycles for an access that hits the second-level TLB.
    pub l2_hit_cycles: u64,
    /// Extra cycles for a full page-table walk (DTLB miss).
    pub walk_cycles: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            l2_hit_cycles: 7,
            walk_cycles: 280,
        }
    }
}

/// Geometry of the two-level TLB.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Level-1 (micro) TLB entry count; fully associative.
    pub l1_entries: usize,
    /// Level-2 TLB total entry count.
    pub l2_entries: usize,
    /// Level-2 associativity (ways per set). Must divide `l2_entries`,
    /// and `l2_entries / l2_assoc` must be a power of two.
    pub l2_assoc: usize,
    /// Base page size in bytes (power of two).
    pub base_page: usize,
    /// Cycle costs.
    pub cost: CostModel,
}

impl TlbConfig {
    /// Approximation of the Fujitsu A64FX data-TLB hierarchy (the paper's
    /// Ookami nodes): small fully-associative L1, 1024-entry 4-way L2,
    /// 4 KiB granule (CentOS aarch64 config used on Ookami).
    pub fn a64fx_like() -> TlbConfig {
        TlbConfig {
            l1_entries: 16,
            l2_entries: 1024,
            l2_assoc: 4,
            base_page: 4096,
            cost: CostModel::default(),
        }
    }

    /// Number of sets in the L2.
    pub fn l2_sets(&self) -> usize {
        self.l2_entries / self.l2_assoc
    }

    /// Validate the invariants the simulator relies on.
    pub fn validate(&self) -> Result<(), String> {
        if self.l1_entries == 0 {
            return Err("l1_entries must be > 0".into());
        }
        if self.l2_assoc == 0 || !self.l2_entries.is_multiple_of(self.l2_assoc) {
            return Err("l2_assoc must divide l2_entries".into());
        }
        if !self.l2_sets().is_power_of_two() {
            return Err("l2_entries / l2_assoc must be a power of two".into());
        }
        if !self.base_page.is_power_of_two() || self.base_page < 1024 {
            return Err("base_page must be a power of two ≥ 1024".into());
        }
        Ok(())
    }

    /// TLB *reach* with base pages only: bytes coverable without a walk.
    pub fn base_reach_bytes(&self) -> usize {
        (self.l1_entries + self.l2_entries) * self.base_page
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::a64fx_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_validates() {
        TlbConfig::a64fx_like().validate().unwrap();
    }

    #[test]
    fn a64fx_reach_is_about_4mib() {
        let reach = TlbConfig::a64fx_like().base_reach_bytes();
        assert_eq!(reach, (16 + 1024) * 4096);
        assert!(reach < 8 << 20, "working sets beyond ~4 MiB thrash the TLB");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = TlbConfig::a64fx_like();
        c.l2_assoc = 3;
        assert!(c.validate().is_err());
        let mut c = TlbConfig::a64fx_like();
        c.l2_entries = 768; // 192 sets, not a power of two
        assert!(c.validate().is_err());
        let mut c = TlbConfig::a64fx_like();
        c.base_page = 5000;
        assert!(c.validate().is_err());
        let mut c = TlbConfig::a64fx_like();
        c.l1_entries = 0;
        assert!(c.validate().is_err());
    }
}

//! Huge-page backing policy, mirroring the Fujitsu runtime's
//! `XOS_MMM_L_HPAGE_TYPE` environment variable from the paper.
//!
//! The paper (§III) reports that the Fujitsu compiler's runtime accepts
//! `none` and `hugetlbfs`, and that `thp` is additionally accepted on
//! Fugaku/FX700. We accept all three, plus an explicit page size for the
//! hugetlbfs case (`hugetlbfs:512M`).

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::error::Error;
use crate::page::PageSize;

/// Environment variable consulted by [`Policy::from_env`]. The analog of the
/// Fujitsu runtime's `XOS_MMM_L_HPAGE_TYPE`.
pub const POLICY_ENV_VAR: &str = "RFLASH_HPAGE_TYPE";

/// How large anonymous allocations should be backed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Policy {
    /// Base pages only. `madvise(MADV_NOHUGEPAGE)` is applied so the result
    /// is deterministic even on `THP=always` systems — this is the paper's
    /// "-Knolargepage" / "without HPs" configuration.
    #[default]
    None,
    /// Transparent huge pages: `madvise(MADV_HUGEPAGE)` on the mapping and
    /// let khugepaged / the fault handler supply huge frames.
    Thp,
    /// Explicit pre-reserved huge pages via `MAP_HUGETLB` with the given
    /// page size, like `hugectl`/`libhugetlbfs`. Requires a configured pool;
    /// when the kernel refuses, [`MmapRegion`](crate::MmapRegion) falls back
    /// to THP and records the fallback.
    HugeTlbFs(PageSize),
}

impl Policy {
    /// Read the policy from [`POLICY_ENV_VAR`], defaulting to [`Policy::Thp`]
    /// when unset (the Fujitsu toolchain's behaviour: huge pages are on by
    /// default and must be explicitly disabled).
    pub fn from_env() -> Result<Policy, Error> {
        match std::env::var(POLICY_ENV_VAR) {
            Ok(v) => v.parse(),
            Err(std::env::VarError::NotPresent) => Ok(Policy::Thp),
            Err(std::env::VarError::NotUnicode(v)) => Err(Error::BadPolicy {
                value: v.to_string_lossy().into_owned(),
            }),
        }
    }
}

impl FromStr for Policy {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        let t = s.trim().to_ascii_lowercase();
        match t.as_str() {
            "none" | "off" | "base" => Ok(Policy::None),
            "thp" | "transparent" => Ok(Policy::Thp),
            "hugetlbfs" | "hugetlb" => Ok(Policy::HugeTlbFs(PageSize::Huge2M)),
            other => {
                if let Some(size) = other
                    .strip_prefix("hugetlbfs:")
                    .or_else(|| other.strip_prefix("hugetlb:"))
                {
                    PageSize::parse(size)
                        .filter(|p| *p != PageSize::Base)
                        .map(Policy::HugeTlbFs)
                        .ok_or_else(|| Error::BadPolicy { value: s.into() })
                } else {
                    Err(Error::BadPolicy { value: s.into() })
                }
            }
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::None => write!(f, "none"),
            Policy::Thp => write!(f, "thp"),
            Policy::HugeTlbFs(sz) => write!(f, "hugetlbfs:{sz}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_documented_values() {
        assert_eq!("none".parse::<Policy>().unwrap(), Policy::None);
        assert_eq!("THP".parse::<Policy>().unwrap(), Policy::Thp);
        assert_eq!(
            "hugetlbfs".parse::<Policy>().unwrap(),
            Policy::HugeTlbFs(PageSize::Huge2M)
        );
        assert_eq!(
            "hugetlbfs:512M".parse::<Policy>().unwrap(),
            Policy::HugeTlbFs(PageSize::Huge512M)
        );
        assert_eq!(
            "hugetlb:1G".parse::<Policy>().unwrap(),
            Policy::HugeTlbFs(PageSize::Huge1G)
        );
    }

    #[test]
    fn rejects_garbage_and_base_hugetlb() {
        assert!("sometimes".parse::<Policy>().is_err());
        assert!("hugetlbfs:3M".parse::<Policy>().is_err());
        // Requesting MAP_HUGETLB with the base size is contradictory.
        assert!("hugetlbfs:4K".parse::<Policy>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for p in [
            Policy::None,
            Policy::Thp,
            Policy::HugeTlbFs(PageSize::Huge2M),
            Policy::HugeTlbFs(PageSize::Huge512M),
        ] {
            assert_eq!(p.to_string().parse::<Policy>().unwrap(), p);
        }
    }
}

//! `/proc/meminfo` huge-page fields — the exact set the paper monitors
//! (§III): `AnonHugePages`, `ShmemHugePages`, `HugePages_Total`,
//! `HugePages_Free`, `HugePages_Rsvd`, `HugePages_Surp`, `Hugepagesize`,
//! `Hugetlb`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// Snapshot of the huge-page-related fields of `/proc/meminfo`.
///
/// All byte quantities are in bytes (converted from the kernel's kB);
/// `hugepages_*` counts are page counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemInfo {
    /// Anonymous memory currently backed by transparent huge pages.
    pub anon_huge_pages: u64,
    /// tmpfs/shmem memory backed by huge pages.
    pub shmem_huge_pages: u64,
    /// Pool size (default-sized persistent huge pages).
    pub huge_pages_total: u64,
    /// Free pages in the pool.
    pub huge_pages_free: u64,
    /// Pages reserved but not yet faulted.
    pub huge_pages_rsvd: u64,
    /// Surplus pages above the persistent pool size.
    pub huge_pages_surp: u64,
    /// The default huge page size.
    pub hugepagesize: u64,
    /// Total memory consumed by huge pages of all sizes.
    pub hugetlb: u64,
}

impl MemInfo {
    /// Read and parse `/proc/meminfo`.
    pub fn read() -> Result<MemInfo> {
        let text = std::fs::read_to_string("/proc/meminfo").map_err(|source| Error::ProcRead {
            path: "/proc/meminfo".into(),
            source,
        })?;
        Self::parse(&text)
    }

    /// Parse meminfo-formatted text (exposed for fixture-based tests).
    pub fn parse(text: &str) -> Result<MemInfo> {
        let mut info = MemInfo::default();
        for line in text.lines() {
            let Some((key, rest)) = line.split_once(':') else {
                continue;
            };
            let rest = rest.trim();
            let field: &mut u64 = match key.trim() {
                "AnonHugePages" => &mut info.anon_huge_pages,
                "ShmemHugePages" => &mut info.shmem_huge_pages,
                "HugePages_Total" => &mut info.huge_pages_total,
                "HugePages_Free" => &mut info.huge_pages_free,
                "HugePages_Rsvd" => &mut info.huge_pages_rsvd,
                "HugePages_Surp" => &mut info.huge_pages_surp,
                "Hugepagesize" => &mut info.hugepagesize,
                "Hugetlb" => &mut info.hugetlb,
                _ => continue,
            };
            *field = parse_kb_or_count(rest).ok_or_else(|| Error::ProcParse {
                path: "/proc/meminfo".into(),
                detail: format!("bad value for {key}: {rest:?}"),
            })?;
        }
        Ok(info)
    }

    /// Pages of the default size currently in use out of the pool.
    pub fn huge_pages_in_use(&self) -> u64 {
        self.huge_pages_total.saturating_sub(self.huge_pages_free)
    }
}

/// Values in meminfo are either "`N kB`" (bytes-like) or a bare count.
fn parse_kb_or_count(s: &str) -> Option<u64> {
    let mut parts = s.split_whitespace();
    let n: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(n * 1024),
        None => Some(n),
        Some(_) => None,
    }
}

impl fmt::Display for MemInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "AnonHugePages:  {:>12} kB", self.anon_huge_pages / 1024)?;
        writeln!(f, "ShmemHugePages: {:>12} kB", self.shmem_huge_pages / 1024)?;
        writeln!(f, "HugePages_Total:{:>12}", self.huge_pages_total)?;
        writeln!(f, "HugePages_Free: {:>12}", self.huge_pages_free)?;
        writeln!(f, "HugePages_Rsvd: {:>12}", self.huge_pages_rsvd)?;
        writeln!(f, "HugePages_Surp: {:>12}", self.huge_pages_surp)?;
        writeln!(f, "Hugepagesize:   {:>12} kB", self.hugepagesize / 1024)?;
        write!(f, "Hugetlb:        {:>12} kB", self.hugetlb / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = "\
MemTotal:       32620044 kB
MemFree:         1653352 kB
AnonHugePages:    471040 kB
ShmemHugePages:        0 kB
ShmemPmdMapped:        0 kB
FileHugePages:         0 kB
HugePages_Total:     512
HugePages_Free:      384
HugePages_Rsvd:       16
HugePages_Surp:        0
Hugepagesize:       2048 kB
Hugetlb:         1048576 kB
";

    #[test]
    fn parses_ookami_style_fixture() {
        let info = MemInfo::parse(FIXTURE).unwrap();
        assert_eq!(info.anon_huge_pages, 471040 * 1024);
        assert_eq!(info.shmem_huge_pages, 0);
        assert_eq!(info.huge_pages_total, 512);
        assert_eq!(info.huge_pages_free, 384);
        assert_eq!(info.huge_pages_rsvd, 16);
        assert_eq!(info.huge_pages_surp, 0);
        assert_eq!(info.hugepagesize, 2048 * 1024);
        assert_eq!(info.hugetlb, 1048576 * 1024);
        assert_eq!(info.huge_pages_in_use(), 128);
    }

    #[test]
    fn malformed_value_is_an_error() {
        let err = MemInfo::parse("AnonHugePages: lots kB\n").unwrap_err();
        assert!(err.to_string().contains("AnonHugePages"));
    }

    #[test]
    fn unknown_lines_and_units_are_ignored_or_rejected() {
        // Unknown keys: ignored.
        let info = MemInfo::parse("Bogus: 7 kB\n").unwrap();
        assert_eq!(info, MemInfo::default());
        // Known key, unknown unit: rejected.
        assert!(MemInfo::parse("Hugetlb: 7 MB\n").is_err());
    }

    #[test]
    fn reads_live_proc_when_available() {
        // Runs on any Linux host; must not panic and must produce a
        // plausible default huge page size when THP support exists.
        if let Ok(info) = MemInfo::read() {
            if info.hugepagesize != 0 {
                assert!(info.hugepagesize >= 64 * 1024);
            }
            let _ = format!("{info}");
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        let info = MemInfo::parse(FIXTURE).unwrap();
        let rendered = format!("{info}\n");
        let reparsed = MemInfo::parse(&rendered).unwrap();
        assert_eq!(info, reparsed);
    }
}

//! Per-mapping introspection via `/proc/self/smaps`.
//!
//! `/proc/meminfo` tells you huge pages are in use *somewhere*; smaps tells
//! you whether *your* buffer is actually backed by them. The paper's test
//! loop ("running the instrumented code … while monitoring the values … to
//! ensure that huge pages were in use when expected", §III) is implemented
//! here at mapping granularity.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// Fields of one smaps entry that matter for huge-page verification.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmapsRegion {
    /// Mapping start address.
    pub start: usize,
    /// Mapping end address (exclusive).
    pub end: usize,
    /// Resident set size, bytes.
    pub rss: u64,
    /// Bytes backed by transparent huge pages.
    pub anon_huge_pages: u64,
    /// The page size the kernel uses for this mapping's page-table entries.
    /// 2 MiB+ here means a hugetlb mapping.
    pub kernel_page_size: u64,
    /// Bytes of this mapping in the hugetlbfs pools (`Shared_Hugetlb` +
    /// `Private_Hugetlb`).
    pub hugetlb: u64,
    /// Whether the kernel marks the VMA eligible for THP
    /// (`THPeligible: 1`); missing on old kernels → `None`.
    pub thp_eligible: Option<bool>,
    /// VM flags ( `hg` = MADV_HUGEPAGE, `nh` = MADV_NOHUGEPAGE, `ht` = hugetlb).
    pub vm_flags: Vec<String>,
}

impl SmapsRegion {
    /// Find the mapping containing `addr` in this process.
    pub fn for_addr(addr: usize) -> Result<SmapsRegion> {
        let text =
            std::fs::read_to_string("/proc/self/smaps").map_err(|source| Error::ProcRead {
                path: "/proc/self/smaps".into(),
                source,
            })?;
        Self::parse_for_addr(&text, addr).ok_or_else(|| Error::ProcParse {
            path: "/proc/self/smaps".into(),
            detail: format!("no mapping contains address {addr:#x}"),
        })
    }

    /// Parse smaps text and return the region containing `addr`.
    pub fn parse_for_addr(text: &str, addr: usize) -> Option<SmapsRegion> {
        Self::parse_all(text)
            .into_iter()
            .find(|r| r.start <= addr && addr < r.end)
    }

    /// Parse every region in smaps-formatted text.
    pub fn parse_all(text: &str) -> Vec<SmapsRegion> {
        let mut out: Vec<SmapsRegion> = Vec::new();
        for line in text.lines() {
            // Header lines look like "7f120a600000-7f120aa00000 rw-p ...".
            if let Some(region) = parse_header(line) {
                out.push(region);
                continue;
            }
            let Some(current) = out.last_mut() else {
                continue;
            };
            let Some((key, rest)) = line.split_once(':') else {
                continue;
            };
            let rest = rest.trim();
            match key.trim() {
                "Rss" => current.rss = parse_kb(rest).unwrap_or(0),
                "AnonHugePages" => current.anon_huge_pages = parse_kb(rest).unwrap_or(0),
                "KernelPageSize" => current.kernel_page_size = parse_kb(rest).unwrap_or(0),
                "Shared_Hugetlb" | "Private_Hugetlb" => {
                    current.hugetlb += parse_kb(rest).unwrap_or(0)
                }
                "THPeligible" => current.thp_eligible = rest.parse::<u8>().ok().map(|v| v != 0),
                "VmFlags" => {
                    current.vm_flags = rest.split_whitespace().map(str::to_owned).collect()
                }
                _ => {}
            }
        }
        out
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` iff the mapping covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// Fraction of RSS that is huge-page backed, in [0, 1].
    pub fn huge_fraction(&self) -> f64 {
        let huge = (self.anon_huge_pages + self.hugetlb) as f64;
        let denom = self.rss.max(1) as f64;
        if self.kernel_page_size > crate::page::base_page_bytes() as u64 {
            // hugetlb mapping: everything resident is huge by construction.
            1.0
        } else {
            (huge / denom).min(1.0)
        }
    }
}

fn parse_header(line: &str) -> Option<SmapsRegion> {
    let (range, rest) = line.split_once(' ')?;
    // Permission field sanity check: "rw-p" etc.
    let perms = rest.split_whitespace().next()?;
    if perms.len() != 4 || !perms.ends_with(['p', 's']) {
        return None;
    }
    let (start, end) = range.split_once('-')?;
    let start = usize::from_str_radix(start, 16).ok()?;
    let end = usize::from_str_radix(end, 16).ok()?;
    if end <= start {
        return None;
    }
    Some(SmapsRegion {
        start,
        end,
        ..SmapsRegion::default()
    })
}

fn parse_kb(s: &str) -> Option<u64> {
    let mut parts = s.split_whitespace();
    let n: u64 = parts.next()?.parse().ok()?;
    matches!(parts.next(), Some("kB")).then_some(n * 1024)
}

impl fmt::Display for SmapsRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#x}-{:#x} rss={} kB anonhuge={} kB hugetlb={} kB kpagesize={} kB thp_eligible={:?}",
            self.start,
            self.end,
            self.rss / 1024,
            self.anon_huge_pages / 1024,
            self.hugetlb / 1024,
            self.kernel_page_size / 1024,
            self.thp_eligible,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = "\
7f1200000000-7f1240000000 rw-p 00000000 00:00 0
Size:            1048576 kB
Rss:              524288 kB
Pss:              524288 kB
AnonHugePages:    524288 kB
KernelPageSize:        4 kB
MMUPageSize:           4 kB
THPeligible:    1
VmFlags: rd wr mr mw me ac hg
7f1300000000-7f1300200000 rw-p 00000000 00:00 0
Size:               2048 kB
Rss:                   0 kB
AnonHugePages:         0 kB
Shared_Hugetlb:        0 kB
Private_Hugetlb:    2048 kB
KernelPageSize:     2048 kB
VmFlags: rd wr mr mw me ht
7f1400000000-7f1400004000 rw-p 00000000 00:00 0
Size:                 16 kB
Rss:                  16 kB
AnonHugePages:         0 kB
KernelPageSize:        4 kB
THPeligible:    0
VmFlags: rd wr mr mw me nh
";

    #[test]
    fn parses_three_regions() {
        let regions = SmapsRegion::parse_all(FIXTURE);
        assert_eq!(regions.len(), 3);
    }

    #[test]
    fn thp_region_detected() {
        let r = SmapsRegion::parse_for_addr(FIXTURE, 0x7f1200000000 + 4096).unwrap();
        assert_eq!(r.anon_huge_pages, 524288 * 1024);
        assert_eq!(r.thp_eligible, Some(true));
        assert!(r.vm_flags.iter().any(|f| f == "hg"));
        assert!((r.huge_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hugetlb_region_detected() {
        let r = SmapsRegion::parse_for_addr(FIXTURE, 0x7f1300000000).unwrap();
        assert_eq!(r.hugetlb, 2048 * 1024);
        assert_eq!(r.kernel_page_size, 2048 * 1024);
        assert_eq!(r.huge_fraction(), 1.0);
        assert!(r.vm_flags.iter().any(|f| f == "ht"));
    }

    #[test]
    fn base_region_has_no_huge_backing() {
        let r = SmapsRegion::parse_for_addr(FIXTURE, 0x7f1400000000).unwrap();
        assert_eq!(r.thp_eligible, Some(false));
        assert_eq!(r.huge_fraction(), 0.0);
        assert_eq!(r.len(), 16 * 1024);
    }

    #[test]
    fn address_outside_all_regions_is_none() {
        assert!(SmapsRegion::parse_for_addr(FIXTURE, 0x1000).is_none());
        // End is exclusive.
        assert!(SmapsRegion::parse_for_addr(FIXTURE, 0x7f1400004000).is_none());
    }

    #[test]
    fn live_smaps_contains_our_own_mapping() {
        use crate::{MmapRegion, Policy};
        let mut region = MmapRegion::new(4 << 20, Policy::Thp).unwrap();
        region.fault_in();
        let smaps = region.smaps().expect("own mapping must appear in smaps");
        assert!(smaps.start <= region.as_ptr() as usize);
        assert!((region.as_ptr() as usize) < smaps.end);
        // We cannot assert the *kernel* granted THP (depends on host config),
        // but the mapping must at least be resident after fault_in.
        assert!(smaps.rss > 0);
    }

    #[test]
    fn header_parser_rejects_garbage() {
        assert!(parse_header("not a header").is_none());
        assert!(parse_header("zzzz-yyyy rw-p 0 0 0").is_none());
        assert!(parse_header("2000-1000 rw-p 0 0 0").is_none());
    }
}

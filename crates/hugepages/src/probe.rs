//! `hugeadm`-style snapshot of the host's huge-page configuration.
//!
//! The paper configured Ookami nodes with kernel boot parameters
//! (`hugepagesz=2M hugepagesz=512M default_hugepagesz=2M`), installed
//! `libhugetlbfs-utils`, and toggled
//! `/sys/kernel/mm/transparent_hugepage/enabled` between `always` and
//! `never`. This module reads the same knobs (read-only: an unprivileged
//! process cannot flip them, and the harness reports rather than mutates).

use std::fmt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::meminfo::MemInfo;
use crate::page::{supported_huge_sizes_in, PageSize};

/// System-wide THP mode from `/sys/kernel/mm/transparent_hugepage/enabled`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThpMode {
    /// `[always]` — kernel may back any anonymous VMA with huge pages.
    Always,
    /// `[madvise]` — only VMAs with `MADV_HUGEPAGE` (our [`crate::Policy::Thp`]).
    Madvise,
    /// `[never]` — THP disabled system-wide.
    Never,
    /// File missing or unreadable (THP compiled out, non-Linux, masked /sys).
    Unknown,
}

impl ThpMode {
    /// Parse the kernel's bracketed-choice format, e.g.
    /// `always [madvise] never`.
    pub fn parse(text: &str) -> ThpMode {
        for (token, mode) in [
            ("[always]", ThpMode::Always),
            ("[madvise]", ThpMode::Madvise),
            ("[never]", ThpMode::Never),
        ] {
            if text.contains(token) {
                return mode;
            }
        }
        ThpMode::Unknown
    }

    /// Will a `MADV_HUGEPAGE`'d mapping get THP under this mode?
    pub fn thp_possible(self) -> bool {
        matches!(self, ThpMode::Always | ThpMode::Madvise)
    }
}

impl fmt::Display for ThpMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ThpMode::Always => "always",
            ThpMode::Madvise => "madvise",
            ThpMode::Never => "never",
            ThpMode::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

/// Per-size hugetlb pool counters from
/// `/sys/kernel/mm/hugepages/hugepages-<N>kB/`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStatus {
    pub size: PageSize,
    pub nr_hugepages: u64,
    pub free_hugepages: u64,
    pub resv_hugepages: u64,
    pub surplus_hugepages: u64,
}

impl PoolStatus {
    /// `true` when an explicit `MAP_HUGETLB` allocation of this size could
    /// currently succeed for at least one page.
    pub fn can_allocate(&self) -> bool {
        self.free_hugepages > self.resv_hugepages
    }
}

/// Full snapshot: THP mode + every advertised pool + meminfo fields.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SystemReport {
    pub thp_mode: ThpMode,
    pub pools: Vec<PoolStatus>,
    pub meminfo: MemInfo,
}

impl SystemReport {
    /// Which policies can *actually* produce huge pages on this host.
    pub fn viable_policies(&self) -> Vec<crate::Policy> {
        let mut out = vec![crate::Policy::None];
        if self.thp_mode.thp_possible() {
            out.push(crate::Policy::Thp);
        }
        for pool in &self.pools {
            if pool.can_allocate() {
                out.push(crate::Policy::HugeTlbFs(pool.size));
            }
        }
        out
    }
}

impl fmt::Display for SystemReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "transparent_hugepage: {}", self.thp_mode)?;
        if self.pools.is_empty() {
            writeln!(f, "hugetlb pools: none advertised")?;
        }
        for p in &self.pools {
            writeln!(
                f,
                "pool {:>5}: total={} free={} resv={} surplus={} allocatable={}",
                p.size.to_string(),
                p.nr_hugepages,
                p.free_hugepages,
                p.resv_hugepages,
                p.surplus_hugepages,
                p.can_allocate(),
            )?;
        }
        write!(f, "{}", self.meminfo)
    }
}

/// Probe the live system (graceful on hosts where /sys is masked).
pub fn probe_system() -> SystemReport {
    probe_system_at(Path::new("/sys/kernel/mm"), true)
}

/// Probe using an alternate sysfs root (fixture trees in tests). When
/// `live_meminfo` is false, meminfo is left at defaults.
pub fn probe_system_at(mm_root: &Path, live_meminfo: bool) -> SystemReport {
    let thp_mode = read_to_string(mm_root.join("transparent_hugepage/enabled"))
        .map(|t| ThpMode::parse(&t))
        .unwrap_or(ThpMode::Unknown);

    let pool_root = mm_root.join("hugepages");
    let mut pools = Vec::new();
    for size in supported_huge_sizes_in(&pool_root) {
        let dir = pool_root.join(size.sysfs_dir_name());
        let read_count = |name: &str| -> u64 {
            read_to_string(dir.join(name))
                .ok()
                .and_then(|t| t.trim().parse().ok())
                .unwrap_or(0)
        };
        pools.push(PoolStatus {
            size,
            nr_hugepages: read_count("nr_hugepages"),
            free_hugepages: read_count("free_hugepages"),
            resv_hugepages: read_count("resv_hugepages"),
            surplus_hugepages: read_count("surplus_hugepages"),
        });
    }

    let meminfo = if live_meminfo {
        MemInfo::read().unwrap_or_default()
    } else {
        MemInfo::default()
    };

    SystemReport {
        thp_mode,
        pools,
        meminfo,
    }
}

/// Try to (re)size the persistent hugetlb pool for `size` pages — what the
/// paper's admins did with `hugeadm`/boot parameters on the two modified
/// Ookami nodes. Needs privilege; returns the pool size actually granted
/// (the kernel may give fewer pages than asked under memory pressure).
pub fn set_pool_size(size: PageSize, pages: u64) -> Result<u64> {
    let path = PathBuf::from("/sys/kernel/mm/hugepages")
        .join(size.sysfs_dir_name())
        .join("nr_hugepages");
    std::fs::write(&path, format!("{pages}\n")).map_err(|source| Error::ProcRead {
        path: path.display().to_string(),
        source,
    })?;
    let granted = read_to_string(path)?.trim().parse::<u64>().unwrap_or(0);
    Ok(granted)
}

/// Ensure the 2 MiB pool can cover `bytes` of allocations (plus slack).
/// Best-effort: failures (no privilege, no pool support) are returned for
/// the caller to report, mirroring the paper's observation that unprivileged
/// users depend on node configuration.
pub fn ensure_pool_for(bytes: usize) -> Result<u64> {
    let page = PageSize::Huge2M.bytes();
    let needed = (bytes / page + 64) as u64;
    let info = MemInfo::read()?;
    let have = info.huge_pages_free;
    if have >= needed {
        return Ok(info.huge_pages_total);
    }
    set_pool_size(PageSize::Huge2M, info.huge_pages_total + (needed - have))
}

fn read_to_string(path: PathBuf) -> Result<String> {
    std::fs::read_to_string(&path).map_err(|source| Error::ProcRead {
        path: path.display().to_string(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thp_mode_parses_kernel_format() {
        assert_eq!(ThpMode::parse("[always] madvise never"), ThpMode::Always);
        assert_eq!(ThpMode::parse("always [madvise] never"), ThpMode::Madvise);
        assert_eq!(ThpMode::parse("always madvise [never]"), ThpMode::Never);
        assert_eq!(ThpMode::parse(""), ThpMode::Unknown);
        assert!(ThpMode::Madvise.thp_possible());
        assert!(!ThpMode::Never.thp_possible());
    }

    fn fixture_tree(thp: &str, free_2m: u64) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rflash-probe-{}-{}",
            std::process::id(),
            thp.len() * 1000 + free_2m as usize
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("transparent_hugepage")).unwrap();
        std::fs::write(dir.join("transparent_hugepage/enabled"), thp).unwrap();
        let pool = dir.join("hugepages/hugepages-2048kB");
        std::fs::create_dir_all(&pool).unwrap();
        std::fs::write(pool.join("nr_hugepages"), "512\n").unwrap();
        std::fs::write(pool.join("free_hugepages"), format!("{free_2m}\n")).unwrap();
        std::fs::write(pool.join("resv_hugepages"), "0\n").unwrap();
        std::fs::write(pool.join("surplus_hugepages"), "0\n").unwrap();
        dir
    }

    #[test]
    fn probe_reads_fixture_pools() {
        let dir = fixture_tree("always [madvise] never", 100);
        let report = probe_system_at(&dir, false);
        assert_eq!(report.thp_mode, ThpMode::Madvise);
        assert_eq!(report.pools.len(), 1);
        assert_eq!(report.pools[0].nr_hugepages, 512);
        assert!(report.pools[0].can_allocate());
        let viable = report.viable_policies();
        assert!(viable.contains(&crate::Policy::Thp));
        assert!(viable.contains(&crate::Policy::HugeTlbFs(PageSize::Huge2M)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_pool_is_not_viable() {
        let dir = fixture_tree("always madvise [never]", 0);
        let report = probe_system_at(&dir, false);
        assert!(!report.pools[0].can_allocate());
        let viable = report.viable_policies();
        assert_eq!(viable, vec![crate::Policy::None]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_probe_never_panics() {
        let report = probe_system();
        let _ = format!("{report}");
        let _ = report.viable_policies();
    }
}

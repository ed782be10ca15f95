//! Page sizes and discovery of the sizes the running kernel supports.

use std::fmt;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// A virtual-memory page size.
///
/// The paper's Ookami nodes (CentOS 8.1, aarch64) boot with
/// `hugepagesz=2M hugepagesz=512M default_hugepagesz=2M`; x86-64 hosts
/// typically support 2 MiB and 1 GiB. The base size is 4 KiB on x86-64 and
/// on Ookami's kernel, 64 KiB on some other aarch64 distributions — use
/// [`PageSize::bytes`] rather than assuming.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PageSize {
    /// The kernel's base page size (usually 4 KiB).
    Base,
    /// 2 MiB huge page (aarch64 4K-granule and x86-64 PMD level).
    Huge2M,
    /// 512 MiB huge page (aarch64 64K-granule PMD level; Ookami's second size).
    Huge512M,
    /// 1 GiB huge page (x86-64 PUD level).
    Huge1G,
}

impl PageSize {
    /// Size in bytes.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            PageSize::Base => base_page_bytes(),
            PageSize::Huge2M => 2 * 1024 * 1024,
            PageSize::Huge512M => 512 * 1024 * 1024,
            PageSize::Huge1G => 1024 * 1024 * 1024,
        }
    }

    /// log2 of the size in bytes — what `MAP_HUGE_*` encodes into mmap flags.
    #[inline]
    pub fn shift(self) -> u32 {
        self.bytes().trailing_zeros()
    }

    /// Parse a human size like `2M`, `512M`, `1G`, `2048kB`.
    pub fn parse(s: &str) -> Option<PageSize> {
        let t = s.trim();
        let lower = t.to_ascii_lowercase();
        let (num, unit) = lower.split_at(lower.find(|c: char| !c.is_ascii_digit())?);
        let num: u64 = num.parse().ok()?;
        let mult: u64 = match unit.trim() {
            "k" | "kb" | "kib" => 1024,
            "m" | "mb" | "mib" => 1024 * 1024,
            "g" | "gb" | "gib" => 1024 * 1024 * 1024,
            _ => return None,
        };
        PageSize::from_bytes((num * mult) as usize)
    }

    /// Map a byte count to a known page size.
    pub fn from_bytes(bytes: usize) -> Option<PageSize> {
        match bytes {
            b if b == base_page_bytes() => Some(PageSize::Base),
            0x20_0000 => Some(PageSize::Huge2M),
            0x2000_0000 => Some(PageSize::Huge512M),
            0x4000_0000 => Some(PageSize::Huge1G),
            _ => None,
        }
    }

    pub(crate) fn sysfs_dir_name(self) -> String {
        format!("hugepages-{}kB", self.bytes() / 1024)
    }
}

/// Huge sizes for which `dir` (the kernel's `/sys/kernel/mm/hugepages/`, or
/// a fixture tree in tests) holds a pool, whether or not the pool is
/// non-empty.
pub fn supported_huge_sizes_in(dir: &Path) -> Vec<PageSize> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return out,
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(kb) = name
            .strip_prefix("hugepages-")
            .and_then(|rest| rest.strip_suffix("kB"))
        {
            if let Ok(kb) = kb.parse::<usize>() {
                if let Some(size) = PageSize::from_bytes(kb * 1024) {
                    out.push(size);
                }
            }
        }
    }
    out.sort();
    out
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Base => write!(f, "{}K", base_page_bytes() / 1024),
            PageSize::Huge2M => write!(f, "2M"),
            PageSize::Huge512M => write!(f, "512M"),
            PageSize::Huge1G => write!(f, "1G"),
        }
    }
}

/// The kernel's base page size, queried once via `sysconf(_SC_PAGESIZE)`.
pub fn base_page_bytes() -> usize {
    use std::sync::OnceLock;
    static BASE: OnceLock<usize> = OnceLock::new();
    *BASE.get_or_init(|| {
        // SAFETY: sysconf is always safe to call.
        let sz = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
        if sz <= 0 {
            4096
        } else {
            sz as usize
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_and_shift_agree() {
        for p in [PageSize::Huge2M, PageSize::Huge512M, PageSize::Huge1G] {
            assert_eq!(1usize << p.shift(), p.bytes());
        }
        assert!(PageSize::Base.bytes().is_power_of_two());
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(PageSize::parse("2M"), Some(PageSize::Huge2M));
        assert_eq!(PageSize::parse("512m"), Some(PageSize::Huge512M));
        assert_eq!(PageSize::parse("1G"), Some(PageSize::Huge1G));
        assert_eq!(PageSize::parse("2048kB"), Some(PageSize::Huge2M));
        assert_eq!(PageSize::parse("524288kB"), Some(PageSize::Huge512M));
        assert_eq!(PageSize::parse("3M"), None);
        assert_eq!(PageSize::parse("banana"), None);
        assert_eq!(PageSize::parse(""), None);
    }

    #[test]
    fn from_bytes_rejects_odd_sizes() {
        assert_eq!(PageSize::from_bytes(12345), None);
        assert_eq!(PageSize::from_bytes(0x20_0000), Some(PageSize::Huge2M));
    }

    #[test]
    fn sysfs_names_match_kernel_convention() {
        assert_eq!(PageSize::Huge2M.sysfs_dir_name(), "hugepages-2048kB");
        assert_eq!(PageSize::Huge512M.sysfs_dir_name(), "hugepages-524288kB");
        assert_eq!(PageSize::Huge1G.sysfs_dir_name(), "hugepages-1048576kB");
    }

    #[test]
    fn supported_sizes_from_fixture_dir() {
        let dir = std::env::temp_dir().join(format!("rflash-hp-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("hugepages-2048kB")).unwrap();
        std::fs::create_dir_all(dir.join("hugepages-524288kB")).unwrap();
        std::fs::create_dir_all(dir.join("not-a-pool")).unwrap();
        let sizes = supported_huge_sizes_in(&dir);
        assert_eq!(sizes, vec![PageSize::Huge2M, PageSize::Huge512M]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ordering_is_by_size() {
        assert!(PageSize::Huge2M < PageSize::Huge512M);
        assert!(PageSize::Huge512M < PageSize::Huge1G);
    }
}

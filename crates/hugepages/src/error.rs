//! Error type shared across the crate.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from huge-page allocation and `/proc` / `/sys` introspection.
#[derive(Debug)]
pub enum Error {
    /// `mmap(2)` failed. Carries the requested length and the OS error.
    Mmap { len: usize, errno: i32 },
    /// `madvise(2)` failed (e.g. THP disabled system-wide).
    Madvise { advice: &'static str, errno: i32 },
    /// Explicit `MAP_HUGETLB` mapping failed and fallback was disallowed.
    HugeTlbUnavailable { size: super::PageSize, errno: i32 },
    /// A `/proc` or `/sys` file could not be read.
    ProcRead {
        path: String,
        source: std::io::Error,
    },
    /// A `/proc` or `/sys` file had an unexpected format.
    ProcParse { path: String, detail: String },
    /// An environment variable held an unrecognized value.
    BadPolicy { value: String },
    /// A fault-injection spec (`RFLASH_FAULTS` / `FaultPlan::parse`) was
    /// malformed.
    BadFaultSpec { value: String, detail: String },
    /// Arena exhausted: requested more bytes than remain in the region.
    ArenaExhausted { requested: usize, remaining: usize },
    /// Zero-length allocation requested where it is not meaningful.
    ZeroLength,
    /// Capacity arithmetic would overflow `usize`.
    CapacityOverflow,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Mmap { len, errno } => {
                write!(f, "mmap of {len} bytes failed (errno {errno})")
            }
            Error::Madvise { advice, errno } => {
                write!(f, "madvise({advice}) failed (errno {errno})")
            }
            Error::HugeTlbUnavailable { size, errno } => write!(
                f,
                "MAP_HUGETLB mapping with {size} pages unavailable (errno {errno}); \
                 is the hugetlb pool configured (hugeadm --pool-list)?"
            ),
            Error::ProcRead { path, source } => write!(f, "cannot read {path}: {source}"),
            Error::ProcParse { path, detail } => write!(f, "cannot parse {path}: {detail}"),
            Error::BadPolicy { value } => write!(
                f,
                "unrecognized huge-page policy {value:?} (expected none|thp|hugetlbfs[:SIZE])"
            ),
            Error::BadFaultSpec { value, detail } => write!(
                f,
                "malformed fault spec {value:?}: {detail} \
                 (expected site=kind entries, e.g. hugetlb-mmap=always:ENOMEM)"
            ),
            Error::ArenaExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "arena exhausted: requested {requested} bytes, {remaining} remain"
            ),
            Error::ZeroLength => write!(f, "zero-length allocation"),
            Error::CapacityOverflow => write!(f, "capacity overflow"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::ProcRead { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::Mmap {
            len: 4096,
            errno: 12,
        };
        assert!(e.to_string().contains("4096"));
        assert!(e.to_string().contains("12"));

        let e = Error::BadPolicy {
            value: "sometimes".into(),
        };
        assert!(e.to_string().contains("sometimes"));
    }

    #[test]
    fn source_chains_for_io() {
        let e = Error::ProcRead {
            path: "/proc/meminfo".into(),
            source: std::io::Error::from(std::io::ErrorKind::NotFound),
        };
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::ZeroLength;
        assert!(std::error::Error::source(&e).is_none());
    }
}

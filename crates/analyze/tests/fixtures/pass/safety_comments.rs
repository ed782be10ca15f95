// Fixture: every unsafe site carries a proper justification.
// Expected: clean.

fn deref(p: *const u64) -> u64 {
    // SAFETY: p is non-null and aligned; the caller keeps the allocation
    // alive for the duration of this call.
    unsafe { *p }
}

fn trailing(p: *const u64) -> u64 {
    unsafe { *p } // SAFETY: validated by the caller's bounds check.
}

/// Reads one element.
///
/// # Safety
/// `p` must point to a live, aligned `u64`.
unsafe fn read_raw(p: *const u64) -> u64 {
    // SAFETY: forwarded verbatim from this fn's own contract.
    unsafe { *p }
}

struct Zeroable(u64);

// SAFETY: every field of each listed type is valid for all bit patterns,
// so a shared comment covers the whole group.
unsafe impl Send for Zeroable {}
unsafe impl Sync for Zeroable {}

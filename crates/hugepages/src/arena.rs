//! A bump arena over one policy-backed region.
//!
//! PARAMESH allocates its block pool once at startup (`maxblocks` slots);
//! carving all per-block storage out of a single mapping keeps the whole
//! working set inside one VMA so a single `madvise`/`MAP_HUGETLB` governs it
//! — the same reason the Fujitsu largepage runtime intercepts the big
//! allocations rather than every `malloc`.

use std::cell::Cell;

use crate::buffer::Pod;
use crate::error::{Error, Result};
use crate::policy::Policy;
use crate::region::MmapRegion;

/// Bump allocator over a single [`MmapRegion`].
///
/// Allocations are aligned to the element type and never freed individually;
/// [`HugeArena::recycle`] rewinds the whole arena (only safe because handles
/// borrow the arena, so the borrow checker prevents stale views).
pub struct HugeArena {
    region: MmapRegion,
    offset: Cell<usize>,
}

impl HugeArena {
    /// Create an arena of `capacity` bytes under `policy`.
    pub fn new(capacity: usize, policy: Policy) -> Result<Self> {
        let mut region = MmapRegion::new(capacity, policy)?;
        region.fault_in();
        Ok(HugeArena {
            region,
            offset: Cell::new(0),
        })
    }

    /// Total capacity in bytes (rounded up to the policy granule).
    pub fn capacity(&self) -> usize {
        self.region.len()
    }

    /// Bytes handed out so far (including alignment padding).
    pub fn used(&self) -> usize {
        self.offset.get()
    }

    /// Bytes still available.
    pub fn remaining(&self) -> usize {
        self.capacity() - self.used()
    }

    /// The arena's underlying policy.
    pub fn policy(&self) -> Policy {
        self.region.policy()
    }

    /// Base address (for trace generation).
    pub fn base_addr(&self) -> usize {
        self.region.as_ptr() as usize
    }

    /// Allocate a zeroed slice of `len` `T`s.
    ///
    /// Takes `&mut self` for the returned unique borrow; the bump pointer
    /// itself is interior-mutable so failed probes don't need `&mut`.
    pub fn alloc_slice<T: Pod>(&mut self, len: usize) -> Result<&mut [T]> {
        if len == 0 {
            return Err(Error::ZeroLength);
        }
        let size = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or(Error::CapacityOverflow)?;
        let align = std::mem::align_of::<T>();
        let start = crate::align_up(self.offset.get(), align);
        let end = start.checked_add(size).ok_or(Error::CapacityOverflow)?;
        if end > self.capacity() {
            return Err(Error::ArenaExhausted {
                requested: size,
                remaining: self.remaining(),
            });
        }
        self.offset.set(end);
        // SAFETY: [start, end) is in-bounds, aligned for T, initialized
        // (fresh anonymous pages are zeroed; after
        // recycle() bytes may be stale but any bit pattern is a valid Pod
        // value), and disjoint from every previously returned slice because
        // the bump pointer only advances. The &mut self receiver ties the
        // borrow to the arena.
        let ptr = unsafe { self.region.as_ptr().add(start) as *mut T };
        // SAFETY: same contract as above — `ptr` spans `len` valid `T`s.
        Ok(unsafe { std::slice::from_raw_parts_mut(ptr, len) })
    }

    /// Recycle the arena *without* zeroing — the steady-state reuse path for
    /// per-rank scratch that is fully overwritten before being read (the
    /// sweep pencil buffers). Unlike a fresh arena's, slices handed out
    /// after a `recycle` may contain stale bytes from the previous cycle;
    /// for the `Pod` element types the arena serves every bit pattern is a
    /// valid value, so this is purely a contract (not a safety) difference.
    pub fn recycle(&mut self) {
        self.offset.set(0);
    }
}

impl std::fmt::Debug for HugeArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HugeArena")
            .field("capacity", &self.capacity())
            .field("used", &self.used())
            .field("policy", &self.policy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroed_disjoint_slices() {
        let mut arena = HugeArena::new(1 << 20, Policy::None).unwrap();
        let a_range = {
            let a = arena.alloc_slice::<f64>(100).unwrap();
            assert!(a.iter().all(|&x| x == 0.0));
            a.fill(1.0);
            a.as_ptr() as usize..a.as_ptr() as usize + 800
        };
        let b = arena.alloc_slice::<f64>(100).unwrap();
        assert!(b.iter().all(|&x| x == 0.0), "second slice must not alias");
        assert!(!(a_range.contains(&(b.as_ptr() as usize))));
    }

    #[test]
    fn alignment_respected_across_types() {
        let mut arena = HugeArena::new(1 << 16, Policy::None).unwrap();
        let _ = arena.alloc_slice::<u8>(3).unwrap();
        let d = arena.alloc_slice::<f64>(4).unwrap();
        assert_eq!(d.as_ptr() as usize % std::mem::align_of::<f64>(), 0);
    }

    #[test]
    fn exhaustion_is_typed() {
        let mut arena = HugeArena::new(4096, Policy::None).unwrap();
        let cap = arena.capacity();
        let _ = arena.alloc_slice::<u8>(cap).unwrap();
        match arena.alloc_slice::<u8>(1) {
            Err(Error::ArenaExhausted {
                requested,
                remaining,
            }) => {
                assert_eq!(requested, 1);
                assert_eq!(remaining, 0);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn recycle_rewinds_without_zeroing() {
        let mut arena = HugeArena::new(1 << 16, Policy::None).unwrap();
        let base = {
            let a = arena.alloc_slice::<u64>(16).unwrap();
            a.fill(u64::MAX);
            a.as_ptr() as usize
        };
        arena.recycle();
        assert_eq!(arena.used(), 0);
        let again = arena.alloc_slice::<u64>(16).unwrap();
        // Same storage handed back, stale contents preserved — the whole
        // point: steady-state reuse with no page traffic and no memset.
        assert_eq!(again.as_ptr() as usize, base);
        assert!(again.iter().all(|&x| x == u64::MAX));
    }

    #[test]
    fn zero_len_rejected() {
        let mut arena = HugeArena::new(4096, Policy::None).unwrap();
        assert!(matches!(arena.alloc_slice::<u8>(0), Err(Error::ZeroLength)));
    }

    #[test]
    fn used_accounts_for_padding() {
        let mut arena = HugeArena::new(1 << 16, Policy::None).unwrap();
        let _ = arena.alloc_slice::<u8>(1).unwrap();
        let _ = arena.alloc_slice::<u64>(1).unwrap();
        assert_eq!(arena.used(), 16); // 1 byte + 7 padding + 8.
    }
}

//! Typed, policy-backed buffers — the home of the mesh `unk` container and
//! the EOS table, i.e. exactly the "large dynamically allocated arrays" whose
//! backing the paper varies.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::policy::Policy;
use crate::region::{DegradationStep, EffectiveBacking, MmapRegion};

/// Plain-old-data marker: types that are valid for any bit pattern and can
/// therefore live in zero-filled mapped memory and be viewed as raw bytes
/// ([`as_bytes`], [`as_bytes_mut`]).
///
/// # Safety
/// Implementors must be `Copy`, have no padding bytes, and accept every bit
/// pattern (all-zeroes included) as a valid value.
pub unsafe trait Pod: Copy + 'static {}

// SAFETY: every listed primitive is valid for all bit patterns incl. zero.
unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for usize {}
unsafe impl Pod for i8 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for isize {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
// SAFETY: arrays of Pod are Pod.
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// The in-memory bytes of a `Pod` slice — what lets checkpoint and table
/// I/O checksum and stream `unk` slabs in place instead of converting one
/// value at a time into a staging buffer.
#[inline]
pub fn as_bytes<T: Pod>(vals: &[T]) -> &[u8] {
    // SAFETY: `Pod` types have no padding, so all `size_of_val(vals)` bytes
    // are initialized; `u8` has alignment 1 and the borrow carries over.
    unsafe { std::slice::from_raw_parts(vals.as_ptr().cast(), std::mem::size_of_val(vals)) }
}

/// Mutable twin of [`as_bytes`].
#[inline]
pub fn as_bytes_mut<T: Pod>(vals: &mut [T]) -> &mut [u8] {
    // SAFETY: as for `as_bytes`; additionally every bit pattern is a valid
    // `Pod` value, so arbitrary byte writes cannot break `T`, and `&mut`
    // gives exclusivity for the view's lifetime.
    unsafe { std::slice::from_raw_parts_mut(vals.as_mut_ptr().cast(), std::mem::size_of_val(vals)) }
}

/// Run `f` on the little-endian byte image of `vals` (the on-disk order of
/// every rflash container): the slice's own memory on little-endian hosts,
/// a per-value converted copy on big-endian ones.
pub fn with_le_bytes<R>(vals: &[f64], f: impl FnOnce(&[u8]) -> R) -> R {
    if cfg!(target_endian = "little") {
        f(as_bytes(vals))
    } else {
        let swapped: Vec<u64> = vals.iter().map(|v| v.to_bits().to_le()).collect();
        f(as_bytes(&swapped))
    }
}

/// Let `fill` write a little-endian byte image straight into `vals`' memory
/// (e.g. `read_exact` + checksum), then fix the value order up in place on
/// big-endian hosts. On `Err` the contents of `vals` are unspecified.
pub fn fill_from_le<E>(
    vals: &mut [f64],
    fill: impl FnOnce(&mut [u8]) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    fill(as_bytes_mut(vals))?;
    if cfg!(target_endian = "big") {
        for v in vals {
            *v = f64::from_bits(u64::from_le(v.to_bits()));
        }
    }
    Ok(())
}

/// A `len`-element zero-initialized `T` buffer whose pages are backed
/// according to a [`Policy`], lazily: resident where written.
///
/// Dereferences to `[T]`. The backing can be audited at runtime with
/// [`PageBuffer::backing_report`], which goes through `/proc/self/smaps` —
/// never trust the request, verify the grant (the paper's GNU/Cray runs
/// requested huge pages and silently did not get them).
pub struct PageBuffer<T: Pod> {
    region: MmapRegion,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Pod> PageBuffer<T> {
    /// Reserve `len` zeroed elements under `policy`.
    ///
    /// Allocation is reservation, touch is backing: a fresh anonymous
    /// mapping reads as zero by contract under every policy, so nothing is
    /// pre-faulted here and the kernel backs each page on its first write.
    /// A pool sized for `maxblocks` therefore costs resident memory (and
    /// first-touch time) only for the slabs blocks actually occupy. A
    /// reserved `hugetlbfs` mapping cannot `SIGBUS` on a later touch: the
    /// mapping is made without `MAP_NORESERVE`, so the kernel sets its huge
    /// pages aside at `mmap` time (or refuses then, and the chain degrades).
    pub fn zeroed(len: usize, policy: Policy) -> Result<Self> {
        if len == 0 {
            return Err(Error::ZeroLength);
        }
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or(Error::CapacityOverflow)?;
        let region = MmapRegion::new(bytes, policy)?;
        debug_assert_eq!(region.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        Ok(PageBuffer {
            region,
            len,
            _marker: PhantomData,
        })
    }

    /// Number of `T` elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the buffer holds no elements (cannot happen post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The policy this buffer was allocated under.
    #[inline]
    pub fn policy(&self) -> Policy {
        self.region.policy()
    }

    /// What was actually requested from the kernel (fallbacks applied).
    #[inline]
    pub fn effective_backing(&self) -> EffectiveBacking {
        self.region.effective_backing()
    }

    /// Base virtual address — what the TLB model uses to derive page numbers.
    #[inline]
    pub fn base_addr(&self) -> usize {
        self.region.as_ptr() as usize
    }

    /// Reset every element to zero.
    pub fn clear(&mut self) {
        self.as_mut_slice().fill_with(|| {
            // SAFETY: Pod guarantees all-zeroes is valid for T.
            unsafe { std::mem::zeroed() }
        });
    }

    #[inline]
    /// View the buffer as a slice.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: the region holds at least len*size_of::<T>() initialized
        // (zero-filled) bytes, properly aligned for T (page alignment ≫ any
        // primitive alignment), living as long as &self.
        unsafe { std::slice::from_raw_parts(self.region.as_ptr() as *const T, self.len) }
    }

    #[inline]
    /// View the buffer as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as above, with exclusivity from &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.region.as_mut_ptr() as *mut T, self.len) }
    }

    /// Audit the kernel's real backing of this buffer via smaps.
    pub fn backing_report(&self) -> BackingReport {
        let smaps = self.region.smaps().ok();
        BackingReport {
            policy: self.policy(),
            requested: match self.effective_backing() {
                EffectiveBacking::BasePages => "base pages (MADV_NOHUGEPAGE)".into(),
                EffectiveBacking::ThpAdvised => "THP (MADV_HUGEPAGE)".into(),
                EffectiveBacking::HugeTlb(sz) => format!("hugetlbfs {sz} pages"),
            },
            fell_back: self.region.fallback().map(|s| s.to_string()),
            degradation: self.region.degradation().to_vec(),
            rss_bytes: smaps.as_ref().map(|s| s.rss).unwrap_or(0),
            huge_bytes: smaps
                .as_ref()
                .map(|s| s.anon_huge_pages + s.hugetlb)
                .unwrap_or(0),
            kernel_page_size: smaps.as_ref().map(|s| s.kernel_page_size).unwrap_or(0),
            huge_fraction: smaps.as_ref().map(|s| s.huge_fraction()).unwrap_or(0.0),
        }
    }
}

// SAFETY: the buffer exclusively owns its anonymous mapping (the raw
// pointer inside MmapRegion is never aliased by another object), there is
// no interior mutability, and `T: Pod` is plain data — so moving a buffer
// across threads, or sharing `&PageBuffer` for concurrent reads, is safe.
// Mutation still requires `&mut`, which the borrow checker serializes.
unsafe impl<T: Pod> Send for PageBuffer<T> {}
unsafe impl<T: Pod> Sync for PageBuffer<T> {}

impl<T: Pod> Deref for PageBuffer<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> DerefMut for PageBuffer<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Pod> Index<usize> for PageBuffer<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.as_slice()[i]
    }
}

impl<T: Pod> IndexMut<usize> for PageBuffer<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.as_mut_slice()[i]
    }
}

impl<T: Pod> fmt::Debug for PageBuffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageBuffer")
            .field("len", &self.len)
            .field("elem_bytes", &std::mem::size_of::<T>())
            .field("policy", &self.policy())
            .field("effective", &self.effective_backing())
            .finish()
    }
}

/// Human/JSON-friendly audit of how the kernel backs a buffer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BackingReport {
    pub policy: Policy,
    pub requested: String,
    /// Set when the policy's promised backing was downgraded (first
    /// degrading step of the chain, rendered).
    pub fell_back: Option<String>,
    /// The full allocation chain: every degradation, transient-exhaustion
    /// recovery, and denied advice, in order. Empty on the clean happy path.
    #[serde(default)]
    pub degradation: Vec<DegradationStep>,
    pub rss_bytes: u64,
    pub huge_bytes: u64,
    pub kernel_page_size: u64,
    /// Fraction of resident bytes that are huge-backed, \[0,1\].
    pub huge_fraction: f64,
}

impl BackingReport {
    /// Did the kernel grant any huge backing at all?
    pub fn verified_huge(&self) -> bool {
        self.huge_bytes > 0 || self.kernel_page_size > crate::page::base_page_bytes() as u64
    }
}

impl fmt::Display for BackingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "policy={} requested={} rss={:.1} MiB huge={:.1} MiB ({:.0}%){}",
            self.policy,
            self.requested,
            self.rss_bytes as f64 / (1 << 20) as f64,
            self.huge_bytes as f64 / (1 << 20) as f64,
            self.huge_fraction * 100.0,
            match &self.fell_back {
                Some(why) => format!(" [FELL BACK: {why}]"),
                None => String::new(),
            }
        )?;
        for step in &self.degradation {
            write!(f, "\n  chain: {step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_indexable() {
        let mut buf = PageBuffer::<f64>::zeroed(1000, Policy::None).unwrap();
        assert_eq!(buf.len(), 1000);
        assert!(buf.iter().all(|&x| x == 0.0));
        buf[999] = 2.5;
        assert_eq!(buf[999], 2.5);
        assert_eq!(buf.as_slice()[999], 2.5);
    }

    #[test]
    fn zero_len_rejected_and_overflow_rejected() {
        assert!(matches!(
            PageBuffer::<f64>::zeroed(0, Policy::None),
            Err(Error::ZeroLength)
        ));
        assert!(matches!(
            PageBuffer::<u64>::zeroed(usize::MAX, Policy::None),
            Err(Error::CapacityOverflow)
        ));
    }

    #[test]
    fn clear_resets() {
        let mut buf = PageBuffer::<u32>::zeroed(64, Policy::None).unwrap();
        buf.as_mut_slice().fill(7);
        buf.clear();
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn thp_buffer_is_usable_and_reportable() {
        let mut buf = PageBuffer::<f64>::zeroed(1 << 20, Policy::Thp).unwrap();
        // Nothing is resident until written: zeroed() only reserves.
        assert_eq!(buf.backing_report().rss_bytes, 0);
        buf.as_mut_slice().fill(1.0);
        let report = buf.backing_report();
        // Backing depends on host THP config, but the report itself must be
        // coherent: every written page is resident.
        assert!(report.rss_bytes >= 8 << 20, "{report}");
        let _ = format!("{report}");
    }

    #[test]
    fn untouched_pages_stay_unbacked_and_read_zero() {
        let page = crate::page::base_page_bytes();
        let mut buf = PageBuffer::<u8>::zeroed(64 * page, Policy::None).unwrap();
        buf[5 * page] = 7;
        buf[40 * page] = 9;
        assert_eq!(buf.backing_report().rss_bytes, 2 * page as u64);
        assert!(buf.iter().enumerate().all(|(i, &b)| match i {
            i if i == 5 * page => b == 7,
            i if i == 40 * page => b == 9,
            _ => b == 0,
        }));
    }

    #[test]
    fn byte_views_round_trip_in_le_order() {
        let vals = [1.5f64, -0.0, f64::NAN, 6.02e23];
        let le: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(as_bytes(&vals).len(), 32);
        with_le_bytes(&vals, |b| assert_eq!(b, &le[..]));
        let mut back = [0.0f64; 4];
        fill_from_le(&mut back, |b| -> std::result::Result<(), ()> {
            b.copy_from_slice(&le);
            Ok(())
        })
        .unwrap();
        assert_eq!(back.map(f64::to_bits), vals.map(f64::to_bits));
        assert!(fill_from_le(&mut back, |_| Err(())).is_err());
    }

    #[test]
    fn array_elements_work() {
        let mut buf = PageBuffer::<[f64; 4]>::zeroed(10, Policy::None).unwrap();
        buf[2] = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(buf[2][3], 4.0);
        assert_eq!(buf[0], [0.0; 4]);
    }

    #[test]
    fn hugetlb_request_never_fails_construction() {
        // Even with an empty pool the buffer must come back usable (fallback).
        let buf =
            PageBuffer::<u8>::zeroed(1 << 21, Policy::HugeTlbFs(crate::PageSize::Huge2M)).unwrap();
        assert_eq!(buf[0], 0);
        let report = buf.backing_report();
        if report.fell_back.is_some() {
            assert!(report.requested.contains("THP"));
        }
    }
}

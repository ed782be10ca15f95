//! RAII anonymous memory regions with a huge-page policy applied.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::metrics;
use crate::page::PageSize;
use crate::policy::Policy;
use crate::sys;
use crate::{align_up, smaps};

/// How a region actually ended up being requested, which can differ from the
/// policy when the kernel refuses explicit huge pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EffectiveBacking {
    /// Base pages, THP explicitly discouraged (`MADV_NOHUGEPAGE`).
    BasePages,
    /// THP requested via `MADV_HUGEPAGE`; the kernel decides per-fault.
    ThpAdvised,
    /// Explicit `MAP_HUGETLB` pages of the given size — backing guaranteed.
    HugeTlb(PageSize),
}

/// The rungs of the allocation ladder, highest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocStage {
    /// Explicit `MAP_HUGETLB` reservation.
    HugeTlbFs,
    /// Anonymous mapping with `MADV_HUGEPAGE`.
    Thp,
    /// Anonymous mapping on base pages.
    Base,
}

impl std::fmt::Display for AllocStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AllocStage::HugeTlbFs => "hugetlbfs",
            AllocStage::Thp => "thp",
            AllocStage::Base => "base",
        })
    }
}

/// One recorded event in the degradation chain. Nothing in the chain is
/// silent: a transient-exhaustion recovery, a denied advice, and a
/// downgrade to the next rung all leave a step.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegradationStep {
    /// The chain rung this step describes.
    pub stage: AllocStage,
    /// What happened there — the error text, or the recovery note.
    pub detail: String,
    /// Transient-exhaustion retries burned at this rung.
    pub retries: u32,
    /// `true`: the rung still provided the mapping (retry recovery, or a
    /// tolerated base-page advice denial). `false`: the chain degraded to
    /// the next rung — the policy's promised backing was not delivered.
    pub kept: bool,
}

impl std::fmt::Display for DegradationStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}{}] {}{}",
            self.stage,
            if self.kept { "" } else { " -> degraded" },
            self.detail,
            if self.retries > 0 {
                format!(" ({} retries)", self.retries)
            } else {
                String::new()
            }
        )
    }
}

/// Bounded retry on transient hugetlb-pool exhaustion: another rank or
/// process may be mid-release, so a short exponential backoff is worth it
/// before abandoning the reservation entirely.
const MAX_TRANSIENT_RETRIES: u32 = 3;
const BACKOFF_BASE_US: u64 = 50;

fn transient_errno(errno: i32) -> bool {
    errno == libc::ENOMEM || errno == libc::EAGAIN
}

/// Map `len` bytes of anonymous memory between two `guard`-byte guards and
/// return the start of the body.
fn mmap_guarded(len: usize, guard: usize) -> Result<*mut u8> {
    sys::mmap_anon(guard + len + guard, None).map(|base| base.wrapping_add(guard))
}

/// An anonymous private mapping whose lifetime owns the pages.
///
/// The region is created with the requested [`Policy`]; requests the kernel
/// denies degrade down an explicit chain — hugetlbfs → THP → base pages,
/// with bounded backoff retries on transient pool exhaustion — and *every*
/// step of that chain is recorded in [`MmapRegion::degradation`] so
/// harnesses report it instead of silently measuring the wrong thing (the
/// paper's GNU/Cray "mystery" is exactly a silent failure to engage).
pub struct MmapRegion {
    ptr: *mut u8,
    len: usize,
    /// Length of the never-touched guard mapped on each side of the body
    /// (zero for `MAP_HUGETLB`). The guards keep the kernel's default THP
    /// advice while the body carries the policy's, so the body stays a VMA
    /// of its own — a same-flags mapping placed directly above or below
    /// (another region, or a thread stack, which the kernel marks
    /// no-huge-page like a base-page body) would otherwise merge with it
    /// and [`MmapRegion::smaps`] would audit the sum of them.
    guard: usize,
    policy: Policy,
    effective: EffectiveBacking,
    steps: Vec<DegradationStep>,
}

// SAFETY: the region is exclusively owned plain memory; sending it between
// threads is fine. Shared `&MmapRegion` only exposes `&[u8]` reads.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Map at least `len` bytes under `policy`. The mapped length is rounded
    /// up to the policy's expected page size (a `MAP_HUGETLB` mapping *must*
    /// be a multiple of the huge page size).
    pub fn new(len: usize, policy: Policy) -> Result<Self> {
        if len == 0 {
            return Err(Error::ZeroLength);
        }
        let mut steps = Vec::new();
        match policy {
            Policy::HugeTlbFs(size) => {
                metrics::count_hugetlb_attempt();
                match Self::try_hugetlb(len, size, &mut steps) {
                    Ok(region) => Ok(region.finish(policy, steps)),
                    Err(_) => {
                        // The reservation is gone for good; degrade to THP.
                        metrics::count_thp_fallback();
                        Self::try_thp_then_base(len, &mut steps).map(|r| r.finish(policy, steps))
                    }
                }
            }
            Policy::Thp => {
                Self::try_thp_then_base(len, &mut steps).map(|r| r.finish(policy, steps))
            }
            Policy::None => Self::try_base(len, &mut steps).map(|r| r.finish(policy, steps)),
        }
    }

    fn finish(mut self, policy: Policy, steps: Vec<DegradationStep>) -> Self {
        self.policy = policy;
        self.steps = steps;
        self
    }

    /// Rung 1: explicit `MAP_HUGETLB`, with bounded backoff on transient
    /// exhaustion. On success after retries, the recovery is recorded.
    fn try_hugetlb(len: usize, size: PageSize, steps: &mut Vec<DegradationStep>) -> Result<Self> {
        let rounded = align_up(len, size.bytes());
        let mut retries = 0u32;
        loop {
            match sys::mmap_anon(rounded, Some(size)) {
                Ok(ptr) => {
                    metrics::count_hugetlb_grant();
                    if retries > 0 {
                        metrics::count_transient_retries(retries as u64);
                        steps.push(DegradationStep {
                            stage: AllocStage::HugeTlbFs,
                            detail: format!(
                                "transient pool exhaustion; reservation granted after \
                                 {retries} retr{}",
                                if retries == 1 { "y" } else { "ies" }
                            ),
                            retries,
                            kept: true,
                        });
                    }
                    return Ok(MmapRegion {
                        ptr,
                        len: rounded,
                        guard: 0,
                        policy: Policy::None,
                        effective: EffectiveBacking::HugeTlb(size),
                        steps: Vec::new(),
                    });
                }
                Err(err) => {
                    let errno = match &err {
                        Error::HugeTlbUnavailable { errno, .. } => *errno,
                        _ => 0,
                    };
                    if transient_errno(errno) && retries < MAX_TRANSIENT_RETRIES {
                        retries += 1;
                        std::thread::sleep(std::time::Duration::from_micros(
                            BACKOFF_BASE_US << (retries - 1),
                        ));
                        continue;
                    }
                    if retries > 0 {
                        metrics::count_transient_retries(retries as u64);
                    }
                    steps.push(DegradationStep {
                        stage: AllocStage::HugeTlbFs,
                        detail: err.to_string(),
                        retries,
                        kept: false,
                    });
                    return Err(err);
                }
            }
        }
    }

    /// Rung 2: anonymous mapping with `MADV_HUGEPAGE`; a denied advice or
    /// failed mmap degrades to rung 3 (base pages).
    fn try_thp_then_base(len: usize, steps: &mut Vec<DegradationStep>) -> Result<Self> {
        let rounded = align_up(len, PageSize::Huge2M.bytes());
        // A whole huge page of guard: the kernel only aligns anonymous
        // mappings to 2 MiB when their length is a multiple of it.
        let guard = PageSize::Huge2M.bytes();
        match mmap_guarded(rounded, guard) {
            Ok(ptr) => {
                // SAFETY: we own [ptr, ptr+rounded), freshly mapped above.
                match unsafe { sys::madvise(ptr, rounded, sys::Advice::Huge) } {
                    Ok(()) => Ok(MmapRegion {
                        ptr,
                        len: rounded,
                        guard,
                        policy: Policy::None,
                        effective: EffectiveBacking::ThpAdvised,
                        steps: Vec::new(),
                    }),
                    Err(err) => {
                        // The mapping itself is fine — keep it rather than
                        // remapping — but huge frames were refused, so the
                        // honest effective backing is base pages.
                        metrics::count_madvise_denial();
                        metrics::count_base_fallback();
                        steps.push(DegradationStep {
                            stage: AllocStage::Thp,
                            detail: err.to_string(),
                            retries: 0,
                            kept: false,
                        });
                        Ok(MmapRegion {
                            ptr,
                            len: rounded,
                            guard,
                            policy: Policy::None,
                            effective: EffectiveBacking::BasePages,
                            steps: Vec::new(),
                        })
                    }
                }
            }
            Err(err) => {
                metrics::count_base_fallback();
                steps.push(DegradationStep {
                    stage: AllocStage::Thp,
                    detail: err.to_string(),
                    retries: 0,
                    kept: false,
                });
                Self::try_base(len, steps)
            }
        }
    }

    /// Rung 3: base pages with `MADV_NOHUGEPAGE` for determinism. A denied
    /// advice is recorded but tolerated — the mapping is still base-backed
    /// unless the host runs THP=always, and the step makes that auditable.
    fn try_base(len: usize, steps: &mut Vec<DegradationStep>) -> Result<Self> {
        let rounded = align_up(len, PageSize::Base.bytes());
        let guard = PageSize::Base.bytes();
        let ptr = mmap_guarded(rounded, guard)?;
        // SAFETY: we own [ptr, ptr+rounded), freshly mapped above.
        if let Err(err) = unsafe { sys::madvise(ptr, rounded, sys::Advice::NoHuge) } {
            metrics::count_madvise_denial();
            steps.push(DegradationStep {
                stage: AllocStage::Base,
                detail: format!("{err} (determinism advice only; mapping kept)"),
                retries: 0,
                kept: true,
            });
        }
        Ok(MmapRegion {
            ptr,
            len: rounded,
            guard,
            policy: Policy::None,
            effective: EffectiveBacking::BasePages,
            steps: Vec::new(),
        })
    }

    /// Usable length in bytes (≥ the requested length).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the region maps zero bytes (never: construction rejects 0).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address of the mapping.
    #[inline]
    pub fn as_ptr(&self) -> *const u8 {
        self.ptr
    }

    /// Mutable base address of the mapping.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut u8 {
        self.ptr
    }

    /// The policy the region was created with.
    #[inline]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// What was actually requested from the kernel.
    #[inline]
    pub fn effective_backing(&self) -> EffectiveBacking {
        self.effective
    }

    /// Every recorded event in the allocation chain: degradations,
    /// transient-exhaustion recoveries, denied advice. Empty on the clean
    /// happy path.
    #[inline]
    pub fn degradation(&self) -> &[DegradationStep] {
        &self.steps
    }

    /// If the policy's promised backing was downgraded, the first step that
    /// caused it.
    #[inline]
    pub fn fallback(&self) -> Option<&DegradationStep> {
        self.steps.iter().find(|s| !s.kept)
    }

    /// View the whole region as bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: we own the mapping; it is initialized (anonymous pages are
        // zero-filled) and lives as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// View the whole region as mutable bytes.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as above, plus `&mut self` guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Touch every base page so the kernel populates frames now (fault-in),
    /// independent of policy — for callers that must not take first-touch
    /// faults later (the pencil scratch arena, allocation benches); nothing
    /// is pre-faulted otherwise. Uses volatile writes: a plain `x = x` store
    /// is removed by the optimizer and faults nothing.
    pub fn fault_in(&mut self) -> usize {
        let step = crate::page::base_page_bytes().min(self.len);
        let ptr = self.as_mut_ptr();
        let len = self.len;
        let mut touched = 0;
        let mut off = 0;
        while off < len {
            // SAFETY: off < len and the mapping is writable; a volatile
            // zero-write to fresh anonymous memory preserves contents.
            unsafe { std::ptr::write_volatile(ptr.add(off), 0u8) };
            touched += 1;
            off += step;
        }
        touched
    }

    /// Inspect `/proc/self/smaps` for the mapping and report how the kernel
    /// is really backing it — the verification loop of the paper's §III.
    pub fn smaps(&self) -> Result<smaps::SmapsRegion> {
        smaps::SmapsRegion::for_addr(self.ptr as usize)
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: the guard before ptr, the body and the guard after it
        // are exactly the live mapping created in `new`.
        unsafe { sys::munmap(self.ptr.wrapping_sub(self.guard), self.len + 2 * self.guard) };
    }
}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion")
            .field("len", &self.len)
            .field("policy", &self.policy)
            .field("effective", &self.effective)
            .field("fell_back", &self.fallback().is_some())
            .field("chain_steps", &self.steps.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan, FaultSite};

    #[test]
    fn zero_length_rejected() {
        assert!(matches!(
            MmapRegion::new(0, Policy::None),
            Err(Error::ZeroLength)
        ));
    }

    #[test]
    fn base_policy_rounds_to_base_pages() {
        let r = MmapRegion::new(1, Policy::None).unwrap();
        assert_eq!(r.len(), crate::page::base_page_bytes());
        assert_eq!(r.effective_backing(), EffectiveBacking::BasePages);
        assert!(r.fallback().is_none());
        assert!(r.degradation().is_empty());
    }

    #[test]
    fn thp_policy_rounds_to_2m() {
        let r = MmapRegion::new(1, Policy::Thp).unwrap();
        assert_eq!(r.len(), PageSize::Huge2M.bytes());
        assert_eq!(r.effective_backing(), EffectiveBacking::ThpAdvised);
    }

    #[test]
    fn region_memory_is_zeroed_and_writable() {
        let mut r = MmapRegion::new(1 << 16, Policy::None).unwrap();
        assert!(r.as_slice().iter().all(|&b| b == 0));
        r.as_mut_slice()[12345] = 0xAB;
        assert_eq!(r.as_slice()[12345], 0xAB);
    }

    #[test]
    fn hugetlb_either_works_or_falls_back_with_reason() {
        let r = MmapRegion::new(4 << 20, Policy::HugeTlbFs(PageSize::Huge2M)).unwrap();
        match r.effective_backing() {
            EffectiveBacking::HugeTlb(sz) => {
                assert_eq!(sz, PageSize::Huge2M);
                assert!(r.fallback().is_none());
            }
            EffectiveBacking::ThpAdvised => {
                let step = r.fallback().expect("fallback must record the cause");
                assert_eq!(step.stage, AllocStage::HugeTlbFs);
                assert!(!step.detail.is_empty());
            }
            EffectiveBacking::BasePages => {
                // hugetlbfs AND THP advice denied: both steps must exist.
                assert!(r.degradation().len() >= 2, "{:?}", r.degradation());
            }
        }
        // Regardless of backing, memory must be usable.
        assert_eq!(r.as_slice()[0], 0);
    }

    #[test]
    fn injected_hugetlb_denial_degrades_with_full_trail() {
        let _g = FaultPlan::new(0)
            .with(
                FaultSite::HugeTlbMmap,
                FaultKind::Always { errno: libc::EPERM },
            )
            .activate();
        let r = MmapRegion::new(4 << 20, Policy::HugeTlbFs(PageSize::Huge2M)).unwrap();
        assert_eq!(r.effective_backing(), EffectiveBacking::ThpAdvised);
        let step = r.fallback().unwrap();
        assert_eq!(step.stage, AllocStage::HugeTlbFs);
        assert_eq!(step.retries, 0, "EPERM is not transient; no retries");
        assert!(step.detail.contains("errno 1"), "{}", step.detail);
    }

    #[test]
    fn transient_exhaustion_recovers_via_retry() {
        let _g = FaultPlan::new(0)
            .with(
                FaultSite::HugeTlbMmap,
                FaultKind::FirstN {
                    n: 2,
                    errno: libc::ENOMEM,
                },
            )
            .activate();
        let r = MmapRegion::new(2 << 20, Policy::HugeTlbFs(PageSize::Huge2M)).unwrap();
        // Whatever the host pool says on the third (real) attempt, the two
        // injected failures must show up as retries in the trail.
        match r.effective_backing() {
            EffectiveBacking::HugeTlb(_) => {
                let step = &r.degradation()[0];
                assert!(step.kept);
                assert_eq!(step.retries, 2);
                assert!(r.fallback().is_none());
            }
            _ => {
                // Pool-less host: the real third attempt failed too, after
                // burning the full retry budget.
                let step = r.fallback().unwrap();
                assert_eq!(step.stage, AllocStage::HugeTlbFs);
                assert_eq!(step.retries, MAX_TRANSIENT_RETRIES);
            }
        }
    }

    #[test]
    fn exhausted_chain_reports_the_final_error() {
        let _g = FaultPlan::new(0)
            .with(
                FaultSite::HugeTlbMmap,
                FaultKind::Always { errno: libc::EPERM },
            )
            .with(
                FaultSite::AnonMmap,
                FaultKind::Always {
                    errno: libc::ENOMEM,
                },
            )
            .activate();
        match MmapRegion::new(2 << 20, Policy::HugeTlbFs(PageSize::Huge2M)) {
            Err(Error::Mmap { errno, .. }) => assert_eq!(errno, libc::ENOMEM),
            other => panic!("expected chain exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn denied_thp_advice_degrades_to_base_pages() {
        let _g = FaultPlan::new(0)
            .with(
                FaultSite::Madvise,
                FaultKind::Nth {
                    n: 1,
                    errno: libc::EINVAL,
                },
            )
            .activate();
        let r = MmapRegion::new(2 << 20, Policy::Thp).unwrap();
        assert_eq!(r.effective_backing(), EffectiveBacking::BasePages);
        let step = r.fallback().unwrap();
        assert_eq!(step.stage, AllocStage::Thp);
        assert!(step.detail.contains("MADV_HUGEPAGE"), "{}", step.detail);
        // Memory still usable after the degradation.
        assert_eq!(r.as_slice()[0], 0);
    }

    #[test]
    fn fault_in_touches_every_base_page() {
        let mut r = MmapRegion::new(8 << 20, Policy::Thp).unwrap();
        let granules = r.fault_in();
        assert_eq!(granules, (8 << 20) / crate::page::base_page_bytes());
        // The region is now fully resident.
        let s = r.smaps().unwrap();
        assert!(s.rss >= 8 << 20, "rss = {}", s.rss);
    }

    #[test]
    fn adjacent_regions_are_audited_separately() {
        // Back-to-back mappings under one policy land next to each other;
        // without the guard they merge into one VMA and each smaps audit
        // reports the sum.
        for policy in [Policy::None, Policy::Thp] {
            let mut regions: Vec<MmapRegion> = (0..4)
                .map(|_| MmapRegion::new(4 << 20, policy).unwrap())
                .collect();
            regions[1].fault_in();
            for (n, r) in regions.iter().enumerate() {
                let s = r.smaps().unwrap();
                assert_eq!(
                    (s.start, s.len()),
                    (r.as_ptr() as usize, r.len()),
                    "{policy}"
                );
                assert_eq!(
                    s.rss,
                    if n == 1 { 4 << 20 } else { 0 },
                    "{policy} region {n}"
                );
            }
        }
    }

    #[test]
    fn a_thread_stack_mapped_beside_a_region_stays_out_of_its_vma() {
        // The kernel places a new thread's stack directly below the newest
        // mapping and marks it no-huge-page, like a base-page body.
        for policy in [Policy::None, Policy::Thp] {
            for _ in 0..20 {
                let r = MmapRegion::new(4 << 20, policy).unwrap();
                let (tx, rx) = std::sync::mpsc::channel::<()>();
                let waiter = std::thread::spawn(move || rx.recv());
                let s = r.smaps().unwrap();
                tx.send(()).unwrap();
                waiter.join().unwrap().unwrap();
                assert_eq!(
                    (s.start, s.len()),
                    (r.as_ptr() as usize, r.len()),
                    "{policy}"
                );
            }
        }
    }

    #[test]
    fn debug_format_mentions_policy() {
        let r = MmapRegion::new(4096, Policy::None).unwrap();
        let s = format!("{r:?}");
        assert!(s.contains("None"));
    }
}

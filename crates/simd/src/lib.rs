//! `rflash-simd` — the lane-width-generic explicit SIMD layer.
//!
//! The paper's performance story is vector instructions-per-cycle
//! interacting with page size; leaving the hot lane loops to the
//! autovectorizer makes that throughput an accident of the optimizer.
//! This crate is the explicit alternative every ported kernel is written
//! against: a [`Lane`] trait over packed `f64` lanes (splat, load/store,
//! mul/add, select-based min/max, compare-to-mask, masked select, gather)
//! with two implementations: the portable scalar reference lane and an
//! `x86_64` AVX2 intrinsic lane, selected **once** at startup by runtime
//! CPU detection ([`resolve`]). `RuntimeParams::simd_backend = scalar`
//! forces the reference lane.
//!
//! # Bit-identity contract
//!
//! Every backend must produce results bit-identical to the scalar
//! reference kernels, which is why the op set is deliberately narrow:
//!
//! * **No FMA.** A fused multiply-add contracts `a*b+c` into one rounding
//!   where the scalar reference rounds twice; the products differ in the
//!   last ulp and the golden-corpus digests drift. Only separately rounded
//!   `mul`/`add` are offered.
//! * **min/max use the x86 select semantics**: `min(a,b) = a < b ? a : b`
//!   and `max(a,b) = a > b ? a : b` — exactly `_mm_min_pd`/`_mm_max_pd`
//!   (NaN in `a` and ±0 ties both yield `b`). The portable lane
//!   implements the same branch so every backend agrees bitwise. Ported
//!   kernels may substitute these for `f64::min`/`f64::max` only where the
//!   operand analysis rules the divergent cases (NaN in `b`, ±0 ties with
//!   differing signs) out.
//! * **`select` is a bitwise blend**: unselected lanes may hold inf/NaN
//!   garbage from a speculatively computed branch; the blend discards the
//!   bits without ever "touching" them arithmetically.
//!
//! Per-lane arithmetic is IEEE-754 deterministic, so a kernel that applies
//! the identical op sequence per lane produces the identical bits at any
//! width — W-wide chunks plus a scalar-lane tail equal the all-scalar
//! reference by construction. The golden-corpus backend axis and the
//! hydro/eos parity proptests enforce this end to end.
//!
//! # Dispatch
//!
//! Kernels implement [`WithLanes`] (a visitor generic over the lane type)
//! and run through [`dispatch`], which monomorphizes the whole kernel per
//! backend and enters the intrinsic instantiations through
//! `#[target_feature]` wrappers — one runtime branch per *block*, not per
//! loop iteration. The intrinsic lane types are deliberately not exported:
//! the only way to reach them is through [`dispatch`], which re-checks CPU
//! support, so the `unsafe` surface stays confined to this crate
//! (`rflash-analyze` rule `simd_confinement`).

use serde::{Deserialize, Serialize};

/// A comparison-result mask for one lane type.
pub trait LaneMask: Copy {
    fn and(self, o: Self) -> Self;
    fn or(self, o: Self) -> Self;
    fn not(self) -> Self;
    /// True when any lane is set.
    fn any(self) -> bool;
}

/// One packed vector of `W` `f64` lanes. All ops are elementwise and
/// separately rounded (no contractions); see the crate docs for the
/// bit-identity contract, in particular the `min`/`max` semantics.
pub trait Lane: Copy + Sized + 'static {
    /// Lane count.
    const W: usize;
    type Mask: LaneMask;

    fn splat(x: f64) -> Self;
    /// Load lanes from `src[0..W]` (unaligned; panics when short).
    fn load(src: &[f64]) -> Self;
    /// Store lanes to `dst[0..W]` (unaligned; panics when short).
    fn store(self, dst: &mut [f64]);
    /// Extract lane `k < W`.
    fn extract(self, k: usize) -> f64;
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self;
    /// Gather `src[idx[k]]` into lane `k` (`idx[0..W]`; panics on
    /// out-of-bounds indices).
    #[inline(always)]
    fn gather(src: &[f64], idx: &[usize]) -> Self {
        Self::from_fn(|k| src[idx[k]])
    }

    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    fn sqrt(self) -> Self;
    fn abs(self) -> Self;
    fn neg(self) -> Self;
    /// Magnitude of `self` with the sign bit of `sign` (IEEE copysign).
    fn copysign(self, sign: Self) -> Self;

    /// `a < b ? a : b` per lane — `_mm_min_pd` semantics (NaN in `a` or a
    /// ±0 tie yields `b`), NOT `f64::min`.
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        Self::select(self.lt(o), self, o)
    }
    /// `a > b ? a : b` per lane — `_mm_max_pd` semantics (NaN in `a` or a
    /// ±0 tie yields `b`), NOT `f64::max`.
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        Self::select(self.gt(o), self, o)
    }

    fn lt(self, o: Self) -> Self::Mask;
    fn le(self, o: Self) -> Self::Mask;
    fn gt(self, o: Self) -> Self::Mask;
    fn ge(self, o: Self) -> Self::Mask;

    /// Per-lane blend: `m ? t : f`, bitwise (garbage in unselected lanes
    /// is discarded, never operated on).
    fn select(m: Self::Mask, t: Self, f: Self) -> Self;
}

// ---------------------------------------------------------------------------
// Portable lanes: plain arrays, zero unsafe.
// ---------------------------------------------------------------------------

/// Portable boolean mask.
#[derive(Clone, Copy, Debug)]
pub struct BMask<const W: usize>([bool; W]);

impl<const W: usize> LaneMask for BMask<W> {
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        let mut m = [false; W];
        for (k, slot) in m.iter_mut().enumerate() {
            *slot = self.0[k] && o.0[k];
        }
        BMask(m)
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        let mut m = [false; W];
        for (k, slot) in m.iter_mut().enumerate() {
            *slot = self.0[k] || o.0[k];
        }
        BMask(m)
    }
    #[inline(always)]
    fn not(self) -> Self {
        let mut m = [false; W];
        for (k, slot) in m.iter_mut().enumerate() {
            *slot = !self.0[k];
        }
        BMask(m)
    }
    #[inline(always)]
    fn any(self) -> bool {
        self.0.iter().any(|&b| b)
    }
}

/// Portable `W`-wide lane: a plain `[f64; W]` with per-lane scalar ops in
/// the contract's exact order. `Portable<1>` is the scalar reference lane
/// used for loop tails.
#[derive(Clone, Copy, Debug)]
pub struct Portable<const W: usize>([f64; W]);

/// The scalar (W = 1) reference lane.
pub type ScalarLane = Portable<1>;

macro_rules! portable_map {
    ($self:ident, $o:ident, |$a:ident, $b:ident| $e:expr) => {{
        let mut r = [0.0; W];
        for (k, slot) in r.iter_mut().enumerate() {
            let ($a, $b) = ($self.0[k], $o.0[k]);
            *slot = $e;
        }
        Portable(r)
    }};
}

macro_rules! portable_cmp {
    ($self:ident, $o:ident, |$a:ident, $b:ident| $e:expr) => {{
        let mut m = [false; W];
        for (k, slot) in m.iter_mut().enumerate() {
            let ($a, $b) = ($self.0[k], $o.0[k]);
            *slot = $e;
        }
        BMask(m)
    }};
}

impl<const W: usize> Lane for Portable<W> {
    const W: usize = W;
    type Mask = BMask<W>;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        Portable([x; W])
    }
    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        let mut r = [0.0; W];
        r.copy_from_slice(&src[..W]);
        Portable(r)
    }
    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        dst[..W].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn extract(self, k: usize) -> f64 {
        self.0[k]
    }
    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        let mut r = [0.0; W];
        for (k, slot) in r.iter_mut().enumerate() {
            *slot = f(k);
        }
        Portable(r)
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        portable_map!(self, o, |a, b| a + b)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        portable_map!(self, o, |a, b| a - b)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        portable_map!(self, o, |a, b| a * b)
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        portable_map!(self, o, |a, b| a / b)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        let o = self;
        portable_map!(self, o, |a, _b| a.sqrt())
    }
    #[inline(always)]
    fn abs(self) -> Self {
        let o = self;
        portable_map!(self, o, |a, _b| a.abs())
    }
    #[inline(always)]
    fn neg(self) -> Self {
        let o = self;
        portable_map!(self, o, |a, _b| -a)
    }
    #[inline(always)]
    fn copysign(self, sign: Self) -> Self {
        portable_map!(self, sign, |a, b| a.copysign(b))
    }

    // The x86 select semantics, spelled as the branch so every backend
    // agrees bitwise (see the trait docs).
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        portable_map!(self, o, |a, b| if a < b { a } else { b })
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        portable_map!(self, o, |a, b| if a > b { a } else { b })
    }

    #[inline(always)]
    fn lt(self, o: Self) -> Self::Mask {
        portable_cmp!(self, o, |a, b| a < b)
    }
    #[inline(always)]
    fn le(self, o: Self) -> Self::Mask {
        portable_cmp!(self, o, |a, b| a <= b)
    }
    #[inline(always)]
    fn gt(self, o: Self) -> Self::Mask {
        portable_cmp!(self, o, |a, b| a > b)
    }
    #[inline(always)]
    fn ge(self, o: Self) -> Self::Mask {
        portable_cmp!(self, o, |a, b| a >= b)
    }

    #[inline(always)]
    fn select(m: Self::Mask, t: Self, f: Self) -> Self {
        let mut r = [0.0; W];
        for (k, slot) in r.iter_mut().enumerate() {
            *slot = if m.0[k] { t.0[k] } else { f.0[k] };
        }
        Portable(r)
    }
}

// ---------------------------------------------------------------------------
// x86_64 intrinsic backends (crate-private: reachable only via `dispatch`)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    //! The AVX2 lane.
    //!
    //! The type is only ever instantiated behind `dispatch`'s runtime
    //! feature check + `#[target_feature]` wrapper; every method body notes
    //! that contract. All comparison/blend ops lower to generic LLVM vector
    //! IR (`fcmp`+`select`, bitwise logic), so instantiations that fail to
    //! inline into the wrapper still legalize — there is no codegen path
    //! that silently changes numerics.

    use super::{Lane, LaneMask};
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_andnot_pd, _mm256_cmp_pd, _mm256_div_pd,
        _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd, _mm256_or_pd, _mm256_set1_pd,
        _mm256_sqrt_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_xor_pd, _CMP_GE_OQ, _CMP_GT_OQ,
        _CMP_LE_OQ, _CMP_LT_OQ,
    };

    /// AVX2 mask: all-ones / all-zeros lanes from `vcmppd`.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2Mask(__m256d);

    impl LaneMask for Avx2Mask {
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            // SAFETY: Avx2Mask values exist only inside `dispatch`'s
            // runtime-checked `#[target_feature(enable = "avx2")]` scope.
            Avx2Mask(unsafe { _mm256_and_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn or(self, o: Self) -> Self {
            // SAFETY: see `Avx2Mask::and` — runtime-checked dispatch scope.
            Avx2Mask(unsafe { _mm256_or_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn not(self) -> Self {
            // SAFETY: see `Avx2Mask::and` — runtime-checked dispatch scope.
            Avx2Mask(unsafe {
                _mm256_andnot_pd(
                    self.0,
                    _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_set1_pd(0.0), _mm256_set1_pd(0.0)),
                )
            })
        }
        #[inline(always)]
        fn any(self) -> bool {
            // SAFETY: see `Avx2Mask::and` — runtime-checked dispatch scope.
            unsafe { _mm256_movemask_pd(self.0) != 0 }
        }
    }

    /// 4-wide AVX2 lane (`__m256d`).
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2Lane(__m256d);

    impl Lane for Avx2Lane {
        const W: usize = 4;
        type Mask = Avx2Mask;

        #[inline(always)]
        fn splat(x: f64) -> Self {
            // SAFETY: Avx2Lane values exist only inside `dispatch`'s
            // runtime-checked `#[target_feature(enable = "avx2")]` scope.
            Avx2Lane(unsafe { _mm256_set1_pd(x) })
        }
        #[inline(always)]
        fn load(src: &[f64]) -> Self {
            assert!(src.len() >= 4);
            // SAFETY: length checked above; `loadu` has no alignment
            // requirement. See `Avx2Lane::splat` for the feature contract.
            Avx2Lane(unsafe { _mm256_loadu_pd(src.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, dst: &mut [f64]) {
            assert!(dst.len() >= 4);
            // SAFETY: length checked above; `storeu` has no alignment
            // requirement. See `Avx2Lane::splat` for the feature contract.
            unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn extract(self, k: usize) -> f64 {
            let mut tmp = [0.0; 4];
            self.store(&mut tmp);
            tmp[k]
        }
        #[inline(always)]
        fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
            Self::load(&[f(0), f(1), f(2), f(3)])
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: see `Avx2Lane::splat` — runtime-checked dispatch scope.
            Avx2Lane(unsafe { _mm256_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: see `Avx2Lane::splat` — runtime-checked dispatch scope.
            Avx2Lane(unsafe { _mm256_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: see `Avx2Lane::splat` — runtime-checked dispatch scope.
            Avx2Lane(unsafe { _mm256_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: see `Avx2Lane::splat` — runtime-checked dispatch scope.
            Avx2Lane(unsafe { _mm256_div_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            // SAFETY: see `Avx2Lane::splat` — runtime-checked dispatch scope.
            Avx2Lane(unsafe { _mm256_sqrt_pd(self.0) })
        }
        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: see `Avx2Lane::splat`. Clearing the sign bit is IEEE
            // abs, bit-identical to `f64::abs`.
            Avx2Lane(unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: see `Avx2Lane::splat`. Flipping the sign bit is IEEE
            // negation, bit-identical to `-x`.
            Avx2Lane(unsafe { _mm256_xor_pd(_mm256_set1_pd(-0.0), self.0) })
        }
        #[inline(always)]
        fn copysign(self, sign: Self) -> Self {
            // SAFETY: see `Avx2Lane::splat`. Bit-select of the sign bit,
            // identical to `f64::copysign`.
            Avx2Lane(unsafe {
                let mask = _mm256_set1_pd(-0.0);
                _mm256_or_pd(_mm256_and_pd(mask, sign.0), _mm256_andnot_pd(mask, self.0))
            })
        }

        #[inline(always)]
        fn lt(self, o: Self) -> Self::Mask {
            // SAFETY: see `Avx2Lane::splat` — runtime-checked dispatch scope.
            Avx2Mask(unsafe { _mm256_cmp_pd::<_CMP_LT_OQ>(self.0, o.0) })
        }
        #[inline(always)]
        fn le(self, o: Self) -> Self::Mask {
            // SAFETY: see `Avx2Lane::splat` — runtime-checked dispatch scope.
            Avx2Mask(unsafe { _mm256_cmp_pd::<_CMP_LE_OQ>(self.0, o.0) })
        }
        #[inline(always)]
        fn gt(self, o: Self) -> Self::Mask {
            // SAFETY: see `Avx2Lane::splat` — runtime-checked dispatch scope.
            Avx2Mask(unsafe { _mm256_cmp_pd::<_CMP_GT_OQ>(self.0, o.0) })
        }
        #[inline(always)]
        fn ge(self, o: Self) -> Self::Mask {
            // SAFETY: see `Avx2Lane::splat` — runtime-checked dispatch scope.
            Avx2Mask(unsafe { _mm256_cmp_pd::<_CMP_GE_OQ>(self.0, o.0) })
        }

        #[inline(always)]
        fn select(m: Self::Mask, t: Self, f: Self) -> Self {
            // SAFETY: see `Avx2Lane::splat`. vcmppd masks are
            // all-ones/all-zeros, so and/andnot/or is an exact bitwise
            // blend.
            Avx2Lane(unsafe { _mm256_or_pd(_mm256_and_pd(m.0, t.0), _mm256_andnot_pd(m.0, f.0)) })
        }
    }
}

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// The *requested* backend, as it appears in `RuntimeParams::simd_backend`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Backend {
    /// Force the W=1 reference lane everywhere.
    Scalar,
    /// Pick the intrinsic backend when the CPU supports it (the default):
    /// AVX2 if detected, else the scalar lane.
    #[default]
    Native,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Native => "native",
        }
    }
}

/// The backend a request *resolved* to — what `dispatch` actually runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Resolved {
    Scalar,
    Avx2,
}

impl Resolved {
    /// Lane width of this backend.
    pub fn width(self) -> usize {
        match self {
            Resolved::Scalar => 1,
            Resolved::Avx2 => 4,
        }
    }
    pub fn name(self) -> &'static str {
        match self {
            Resolved::Scalar => "scalar",
            Resolved::Avx2 => "avx2",
        }
    }
    /// Every backend compiled into this build (the parity-test axis). On
    /// a CPU without AVX2, [`dispatch`] runs `Avx2` on the scalar lane.
    pub fn all() -> &'static [Resolved] {
        #[cfg(target_arch = "x86_64")]
        {
            &[Resolved::Scalar, Resolved::Avx2]
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            &[Resolved::Scalar]
        }
    }
}

impl std::fmt::Display for Resolved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// CPU detection for [`Backend::Native`], cached process-wide.
fn native_backend() -> Resolved {
    #[cfg(target_arch = "x86_64")]
    {
        static DETECTED: std::sync::OnceLock<Resolved> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx2") {
                Resolved::Avx2
            } else {
                Resolved::Scalar
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Resolved::Scalar
    }
}

/// Resolve a requested backend (`RuntimeParams::simd_backend`): CPU
/// detection for [`Backend::Native`].
pub fn resolve(requested: Backend) -> Resolved {
    match requested {
        Backend::Scalar => Resolved::Scalar,
        Backend::Native => native_backend(),
    }
}

/// How a request was resolved — recorded by `profile_report` so a run's
/// numbers name the vector backend they were produced with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchReport {
    pub requested: Backend,
    pub resolved: Resolved,
    /// Lane width of the resolved backend.
    pub width: usize,
    /// Runtime CPU detection result (static false off `x86_64`).
    pub cpu_avx2: bool,
}

/// Build the dispatch report for a request (same resolution as
/// [`resolve`]).
pub fn dispatch_report(requested: Backend) -> DispatchReport {
    #[cfg(target_arch = "x86_64")]
    let cpu_avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let cpu_avx2 = false;
    DispatchReport {
        requested,
        resolved: resolve(requested),
        width: resolve(requested).width(),
        cpu_avx2,
    }
}

impl std::fmt::Display for DispatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simd dispatch: requested {} -> {} (width {}; cpu avx2={})",
            self.requested.name(),
            self.resolved.name(),
            self.width,
            self.cpu_avx2,
        )
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// A kernel generic over the lane type. Implementations must mark
/// `with_lanes` `#[inline(always)]` so intrinsic instantiations inline
/// into the `#[target_feature]` wrappers and the whole kernel is compiled
/// with the backend's feature set.
pub trait WithLanes {
    type Output;
    fn with_lanes<L: Lane>(self) -> Self::Output;
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
/// # Safety
/// The caller must have verified AVX2 support at runtime ([`dispatch`]
/// checks `is_x86_feature_detected!` before entering).
unsafe fn with_avx2<V: WithLanes>(v: V) -> V::Output {
    v.with_lanes::<x86::Avx2Lane>()
}

/// Run `v` on the resolved backend — one runtime branch per call, so call
/// this once per block/batch, not per loop iteration. A `Resolved::Avx2`
/// request on a CPU without AVX2 (possible only by constructing `Resolved`
/// directly; `resolve` never does this) falls back to the scalar lane.
pub fn dispatch<V: WithLanes>(backend: Resolved, v: V) -> V::Output {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Resolved::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: AVX2 support verified by the match guard.
            unsafe { with_avx2(v) }
        }
        _ => v.with_lanes::<Portable<1>>(),
    }
}

/// Chunk/tail split of a loop span for width `W`: returns
/// `(full_chunk_lanes, tail_lanes)`. The occupancy counters in
/// `KernelStats` are fed from this.
#[inline]
pub fn chunk_split(span: usize, w: usize) -> (usize, usize) {
    let chunks = span.checked_div(w).unwrap_or(0);
    (chunks * w, span - chunks * w)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic value soup including negatives, zeros, denormals and
    /// wide magnitude spread.
    fn test_values() -> Vec<f64> {
        let mut v = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -2.5,
            1e-300,
            -1e-300,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            std::f64::consts::PI,
        ];
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..52 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let f = (seed >> 11) as f64 / (1u64 << 53) as f64;
            v.push((f - 0.5) * 2e3);
        }
        v
    }

    /// Apply a binary op through dispatch on every backend and compare
    /// bitwise against the `Portable<1>` reference.
    struct BinOp<'a> {
        a: &'a [f64],
        b: &'a [f64],
        op: usize,
        out: &'a mut [f64],
    }

    impl WithLanes for BinOp<'_> {
        type Output = ();
        #[inline(always)]
        fn with_lanes<L: Lane>(self) {
            let n = self.a.len();
            let mut i = 0;
            while i + L::W <= n {
                let x = L::load(&self.a[i..]);
                let y = L::load(&self.b[i..]);
                apply_op::<L>(x, y, self.op).store(&mut self.out[i..]);
                i += L::W;
            }
            while i < n {
                let x = Portable::<1>::load(&self.a[i..]);
                let y = Portable::<1>::load(&self.b[i..]);
                apply_op::<Portable<1>>(x, y, self.op).store(&mut self.out[i..]);
                i += 1;
            }
        }
    }

    #[inline(always)]
    fn apply_op<L: Lane>(x: L, y: L, op: usize) -> L {
        match op {
            0 => x.add(y),
            1 => x.sub(y),
            2 => x.mul(y),
            3 => x.div(y),
            4 => x.min(y),
            5 => x.max(y),
            6 => x.abs().sqrt(),
            7 => x.copysign(y),
            8 => x.neg(),
            9 => L::select(x.lt(y), x.mul(y), x.sub(y)),
            10 => L::select(x.gt(y).and(x.abs().ge(y.abs()).not().or(x.le(y))), y, x),
            _ => unreachable!("test op"),
        }
    }

    #[test]
    fn every_backend_is_bit_identical_to_the_scalar_reference() {
        let a = test_values();
        let b: Vec<f64> = a.iter().rev().copied().collect();
        for op in 0..11 {
            let mut reference = vec![0.0; a.len()];
            dispatch(
                Resolved::Scalar,
                BinOp {
                    a: &a,
                    b: &b,
                    op,
                    out: &mut reference,
                },
            );
            for &backend in Resolved::all() {
                let mut out = vec![0.0; a.len()];
                dispatch(
                    backend,
                    BinOp {
                        a: &a,
                        b: &b,
                        op,
                        out: &mut out,
                    },
                );
                for k in 0..a.len() {
                    assert_eq!(
                        out[k].to_bits(),
                        reference[k].to_bits(),
                        "op {op} lane {k} backend {backend}: {} vs {}",
                        out[k],
                        reference[k]
                    );
                }
            }
        }
    }

    /// The x86 min/max semantics the kernels rely on: NaN in the first
    /// operand and ±0 ties both yield the second operand, on every backend.
    #[test]
    fn min_max_intel_semantics() {
        let a = [f64::NAN, 0.0, -0.0, 3.0, f64::NAN, 0.0, -0.0, 3.0];
        let b = [2.0, -0.0, 0.0, f64::NAN, 2.0, -0.0, 0.0, f64::NAN];
        for &backend in Resolved::all() {
            for op in [4usize, 5] {
                let mut out = vec![0.0; a.len()];
                dispatch(
                    backend,
                    BinOp {
                        a: &a,
                        b: &b,
                        op,
                        out: &mut out,
                    },
                );
                // min(NaN, 2) = 2, max(NaN, 2) = 2 (second operand).
                assert_eq!(out[0].to_bits(), 2.0f64.to_bits(), "{backend}");
                assert_eq!(out[4].to_bits(), 2.0f64.to_bits(), "{backend}");
                // ±0 ties yield the second operand's bits.
                assert_eq!(out[1].to_bits(), (-0.0f64).to_bits(), "{backend}");
                assert_eq!(out[2].to_bits(), 0.0f64.to_bits(), "{backend}");
                // NaN in the second operand propagates the NaN.
                assert!(out[3].is_nan(), "{backend}");
                assert!(out[7].is_nan(), "{backend}");
            }
        }
    }

    struct GatherOp<'a> {
        src: &'a [f64],
        idx: &'a [usize],
        out: &'a mut [f64],
    }

    impl WithLanes for GatherOp<'_> {
        type Output = ();
        #[inline(always)]
        fn with_lanes<L: Lane>(self) {
            let n = self.idx.len();
            let mut i = 0;
            while i + L::W <= n {
                L::gather(self.src, &self.idx[i..]).store(&mut self.out[i..]);
                i += L::W;
            }
            while i < n {
                Portable::<1>::gather(self.src, &self.idx[i..]).store(&mut self.out[i..]);
                i += 1;
            }
        }
    }

    #[test]
    fn gather_reads_indexed_lanes_on_every_backend() {
        let src = test_values();
        let idx: Vec<usize> = (0..src.len()).map(|i| (i * 7 + 3) % src.len()).collect();
        for &backend in Resolved::all() {
            let mut out = vec![0.0; idx.len()];
            dispatch(
                backend,
                GatherOp {
                    src: &src,
                    idx: &idx,
                    out: &mut out,
                },
            );
            for (k, &ix) in idx.iter().enumerate() {
                assert_eq!(out[k].to_bits(), src[ix].to_bits(), "{backend} lane {k}");
            }
        }
    }

    #[test]
    fn backend_names() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Native.name(), "native");
        assert_eq!(Backend::default(), Backend::Native);
        for &r in Resolved::all() {
            assert!(r.width() >= 1 && r.width() <= 4);
            assert!(!r.name().is_empty());
        }
    }

    #[test]
    fn native_resolution_picks_avx2_where_the_cpu_has_it() {
        assert_eq!(resolve(Backend::Scalar), Resolved::Scalar);
        let native = resolve(Backend::Native);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            native == Resolved::Avx2,
            std::arch::is_x86_feature_detected!("avx2")
        );
        let report = dispatch_report(Backend::Native);
        assert_eq!(report.resolved, native);
        assert_eq!(report.width, native.width());
        let text = report.to_string();
        assert!(text.contains("native"), "{text}");
    }

    #[test]
    fn chunk_split_partitions_the_span() {
        assert_eq!(chunk_split(10, 4), (8, 2));
        assert_eq!(chunk_split(8, 4), (8, 0));
        assert_eq!(chunk_split(3, 4), (0, 3));
        assert_eq!(chunk_split(5, 1), (5, 0));
    }
}

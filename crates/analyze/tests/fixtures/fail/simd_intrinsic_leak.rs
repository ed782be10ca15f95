//@ path: crates/hydro/src/riemann.rs
// Fixture: architecture intrinsics, a `#[target_feature]` wrapper, and a
// `core::arch` import leaking into a kernel crate. Vector code outside
// `crates/simd` must go through the portable `Lane` abstraction — a stray
// intrinsic forks the bit-identity contract per architecture and reopens
// an unsafe surface the simd crate exists to confine.
// Expected: simd_confinement (the `# Safety` doc section satisfies the
// safety_comment rule, so only the confinement rule trips).

use core::arch::x86_64::{__m256d, _mm256_add_pd};

/// Sums two AVX2 vectors without going through `Lane`.
///
/// # Safety
/// Caller must have verified AVX2 support.
#[target_feature(enable = "avx2")]
unsafe fn leak_avx2(a: __m256d, b: __m256d) -> __m256d {
    _mm256_add_pd(a, b)
}

//@ path: crates/hydro/src/riemann.rs
// Fixture: kernel code staying inside the SIMD confinement contract — the
// lane math is generic over the portable `Lane` trait, backend selection
// is a `cfg(target_feature = ...)` *probe* (allowed anywhere; only the
// codegen-changing `#[target_feature(enable = ...)]` attribute is
// confined), and intrinsic names in prose never trip the token matcher.
// Expected: clean.

// the avx2 backend lowers Lane::mul_add to _mm256_fmadd_pd via core::arch

/// Build-time report of what the compile target already guarantees.
#[cfg(target_feature = "sse2")]
const BASELINE_SSE2: bool = true;

fn wave_speed<L: Lane>(dens: L, pres: L, gamc: L) -> L {
    gamc.mul(pres).div(dens).sqrt()
}

fn sum_lanes<L: Lane>(a: &[f64], b: &[f64], out: &mut [f64]) {
    let mut i = 0;
    while i + L::W <= out.len() {
        L::load(&a[i..]).add(L::load(&b[i..])).store(&mut out[i..]);
        i += L::W;
    }
}

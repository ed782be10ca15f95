//! Piecewise-parabolic reconstruction (Colella & Woodward 1984) with
//! monotonization and shock flattening, as in FLASH's split PPM unit.
//!
//! Operates on 1-d pencils of zone averages and produces limited left/right
//! interface states per zone.
//!
//! Two forms of each kernel exist: lane-generic kernels
//! ([`reconstruct_lanes`], [`flattening_lanes`]) over [`rflash_simd::Lane`],
//! which the pencil sweep engine runs under runtime dispatch, and their
//! scalar references ([`reconstruct_into`], the test-only `flattening_into`),
//! the oracles the lane kernels are tested against. The twins replicate the
//! scalar operation order exactly (branches become masked selects on
//! speculatively computed values; see the bit-identity notes on each) so
//! every backend produces bit-identical faces.

use rflash_simd::{Lane, LaneMask, ScalarLane};

/// Fourth-order interface value between zones `i` and `i+1`
/// (CW84 eq. 1.6 on a uniform grid), using limited slopes.
fn interface_value(a: &[f64], i: usize) -> f64 {
    // a[i-1], a[i], a[i+1], a[i+2] must exist.
    let da_i = limited_slope(a, i);
    let da_ip = limited_slope(a, i + 1);
    0.5 * (a[i] + a[i + 1]) - (da_ip - da_i) / 6.0
}

/// CW84 monotonized central slope (eq. 1.8).
fn limited_slope(a: &[f64], i: usize) -> f64 {
    let d = 0.5 * (a[i + 1] - a[i - 1]);
    let dl = a[i] - a[i - 1];
    let dr = a[i + 1] - a[i];
    if dl * dr > 0.0 {
        let lim = 2.0 * dl.abs().min(dr.abs());
        d.signum() * d.abs().min(lim)
    } else {
        0.0
    }
}

/// Reconstruct limited parabola face values for zones `lo..hi` of the
/// pencil `a` (needs 2 ghost zones each side of that range) into separate
/// minus (low face) and plus (high face) lanes. `flat[i]` ∈ \[0,1\] blends
/// toward first order at shocks (1 = keep the parabola, 0 = flat).
pub fn reconstruct_into(
    a: &[f64],
    lo: usize,
    hi: usize,
    flat: &[f64],
    minus: &mut [f64],
    plus: &mut [f64],
) {
    assert!(lo >= 2 && hi + 2 <= a.len());
    assert!(minus.len() == a.len() && plus.len() == a.len());
    for i in lo..hi {
        let f = flat[i];
        let mut am = interface_value(a, i - 1);
        let mut ap = interface_value(a, i);

        // Blend toward the cell average where the flattening detector fired.
        am = f * am + (1.0 - f) * a[i];
        ap = f * ap + (1.0 - f) * a[i];

        // CW84 monotonization (eq. 1.10).
        if (ap - a[i]) * (a[i] - am) <= 0.0 {
            am = a[i];
            ap = a[i];
        } else {
            let d = ap - am;
            let six = 6.0 * (a[i] - 0.5 * (am + ap));
            if d * six > d * d {
                am = 3.0 * a[i] - 2.0 * ap;
            } else if -d * d > d * six {
                ap = 3.0 * a[i] - 2.0 * am;
            }
        }
        minus[i] = am;
        plus[i] = ap;
    }
}

/// CW84-style shock flattening coefficient per zone, from the pressure and
/// velocity pencils: detect strong compressive pressure jumps and flatten
/// the reconstruction there, writing the coefficient of zones `lo..hi`
/// into `out` (positions outside `lo - 1..=hi` stay 1); `snap` is the
/// neighbour-min pass's snapshot scratch.
///
/// Pass 2 takes each zone's neighbour-min over the detector values of
/// zones `i - 1..=i + 1`, so pass 1 runs one zone wider than the output
/// range, over `lo - 1..=hi`. Without that margin the two edge zones of a
/// block read an uncomputed neighbour χ of 1, while the block across the
/// face computes the same zone as interior; the two blocks then disagree
/// on the shared face's flux and the update stops being conservative.
#[cfg(test)]
fn flattening_into(
    pres: &[f64],
    velx: &[f64],
    lo: usize,
    hi: usize,
    out: &mut [f64],
    snap: &mut [f64],
) {
    assert_eq!(out.len(), pres.len());
    assert_eq!(snap.len(), pres.len());
    out.fill(1.0);
    // CW84 appendix parameters.
    const OMEGA1: f64 = 0.75;
    const OMEGA2: f64 = 10.0;
    const EPSILON: f64 = 0.33;
    for i in lo.saturating_sub(1)..=hi {
        if i < 2 || i + 2 >= pres.len() {
            continue;
        }
        let dp = pres[i + 1] - pres[i - 1];
        let dp2 = pres[i + 2] - pres[i - 2];
        let compressive = velx[i - 1] > velx[i + 1];
        let strong = dp.abs() / pres[i + 1].min(pres[i - 1]).max(f64::MIN_POSITIVE) > EPSILON;
        if compressive && strong {
            let ratio = if dp2.abs() > 1e-300 { dp / dp2 } else { 1.0 };
            let chi = 1.0 - (OMEGA2 * (ratio - OMEGA1)).clamp(0.0, 1.0);
            out[i] = out[i].min(chi);
        }
    }
    // Spread the minimum to immediate neighbors (CW84 uses the neighbor in
    // the shock direction; symmetric min is a robust simplification).
    snap.copy_from_slice(out);
    for i in lo..hi {
        if i >= 1 && i + 1 < snap.len() {
            out[i] = snap[i - 1].min(snap[i]).min(snap[i + 1]);
        }
    }
}

// ---------------------------------------------------------------------------
// Lane-generic twins (pencil engine hot path)
// ---------------------------------------------------------------------------

// The twins take a lane stride `s`: zone `p` of pencil `b` lives at lane
// index `p * s + b`, so a ±1 step along the pencil is ±`s` in the lane and
// one flat loop over `lo * s..hi * s` covers `s` interleaved pencils
// (`s = 1` is a single pencil). `lo`/`hi` are pencil positions.

/// [`limited_slope`] on `W` consecutive lanes starting at `j0`.
///
/// Bit-identity vs the scalar reference: on gated lanes (`dl*dr > 0`) the
/// slope `d = 0.5*(dl+dr)` is nonzero and non-NaN, so
/// `d.signum()*d.abs().min(lim)` equals `copysign(min(|d|, lim), d)`; the
/// operands of `min` are positive and non-NaN there, where the x86 select
/// `min` agrees with `f64::min`. Ungated lanes select the literal `0.0`.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn slope_at<L: Lane>(a: &[f64], j0: usize, s: usize) -> L {
    let am1 = L::load(&a[j0 - s..]);
    let a0 = L::load(&a[j0..]);
    let ap1 = L::load(&a[j0 + s..]);
    let d = L::splat(0.5).mul(ap1.sub(am1));
    let dl = a0.sub(am1);
    let dr = ap1.sub(a0);
    let gate = dl.mul(dr).gt(L::splat(0.0));
    let lim = L::splat(2.0).mul(dl.abs().min(dr.abs()));
    let slope = d.abs().min(lim).copysign(d);
    L::select(gate, slope, L::splat(0.0))
}

/// [`interface_value`] between positions `j` and `j + 1` on `W`
/// consecutive lanes starting at `j`, from the precomputed slope lane:
/// `0.5*(a[j] + a[j+1]) - (slope[j+1] - slope[j]) / 6`, the scalar
/// expression in the scalar order.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn interface_at<L: Lane>(a: &[f64], slope: &[f64], iface: &mut [f64], j: usize, s: usize) {
    let sum = L::load(&a[j..]).add(L::load(&a[j + s..]));
    let dslope = L::load(&slope[j + s..]).sub(L::load(&slope[j..]));
    L::splat(0.5)
        .mul(sum)
        .sub(dslope.div(L::splat(6.0)))
        .store(&mut iface[j..]);
}

/// One zone of [`reconstruct_into`] on `W` consecutive lanes starting at `i`, from the
/// precomputed interface values (`iface[i - s]` is the zone's low face,
/// `iface[i]` its high face), writing `minus[i..i+W]`/`plus[i..i+W]`.
///
/// The scalar if/else-if monotonization becomes a select cascade over
/// values computed from the *original* face pair — legal because the
/// scalar branches are mutually exclusive and each reads only unmodified
/// state. NaN discriminants take the scalar else-paths in both forms
/// (`<=`/`>` compares are false on NaN, as are the lane masks).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn reconstruct_at<L: Lane>(
    a: &[f64],
    flat: &[f64],
    iface: &[f64],
    minus: &mut [f64],
    plus: &mut [f64],
    i: usize,
    s: usize,
) {
    let a0 = L::load(&a[i..]);
    let half = L::splat(0.5);
    let sixth = L::splat(6.0);
    let mut am = L::load(&iface[i - s..]);
    let mut ap = L::load(&iface[i..]);

    // Blend toward the cell average where the flattening detector fired.
    let f = L::load(&flat[i..]);
    let one_m_f = L::splat(1.0).sub(f);
    am = f.mul(am).add(one_m_f.mul(a0));
    ap = f.mul(ap).add(one_m_f.mul(a0));

    // CW84 monotonization (eq. 1.10) as a masked cascade.
    let m_flat = ap.sub(a0).mul(a0.sub(am)).le(L::splat(0.0));
    let d = ap.sub(am);
    let six = sixth.mul(a0.sub(half.mul(am.add(ap))));
    let m_hi = d.mul(six).gt(d.mul(d));
    let m_lo = d.mul(d).neg().gt(d.mul(six)).and(m_hi.not());
    let am_new = L::splat(3.0).mul(a0).sub(L::splat(2.0).mul(ap));
    let ap_new = L::splat(3.0).mul(a0).sub(L::splat(2.0).mul(am));
    let out_m = L::select(m_flat, a0, L::select(m_hi, am_new, am));
    let out_p = L::select(m_flat, a0, L::select(m_lo, ap_new, ap));
    out_m.store(&mut minus[i..]);
    out_p.store(&mut plus[i..]);
}

/// Lane-generic twin of [`reconstruct_into`] over positions `lo..hi` of
/// `s` interleaved pencils. The scalar reference recomputes each limited
/// slope three times and each interface value twice; here each is computed
/// once per position, from the same operands in the same order, so the
/// values are the same bits:
///
/// 1. slopes at positions `lo - 1..=hi`, parked in `minus`;
/// 2. interface values between positions `j` and `j + 1`, `j` in
///    `lo - 1..hi`, into `iface` (caller scratch, `a.len()` long);
/// 3. each zone's blended, monotonized face pair into `minus`/`plus`.
///
/// On return `minus` at positions `lo - 1` and `hi` still holds those two
/// slopes (scratch); lanes outside positions `lo - 1..=hi` of `minus` and
/// outside `lo..hi` of `plus` are left untouched.
///
/// Every pass runs `W`-wide chunks and a scalar-lane tail through the
/// *same* kernel at `W = 1`, so the tail is bit-identical by construction.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
#[allow(clippy::too_many_arguments)] // flat lane-slice plumbing, no natural struct
pub fn reconstruct_lanes<L: Lane>(
    a: &[f64],
    lo: usize,
    hi: usize,
    s: usize,
    flat: &[f64],
    iface: &mut [f64],
    minus: &mut [f64],
    plus: &mut [f64],
) {
    assert!(s > 0 && lo >= 2 && hi + 2 <= a.len() / s);
    assert!(minus.len() == a.len() && plus.len() == a.len() && iface.len() == a.len());
    let (mut i, end) = ((lo - 1) * s, (hi + 1) * s);
    while i + L::W <= end {
        slope_at::<L>(a, i, s).store(&mut minus[i..]);
        i += L::W;
    }
    while i < end {
        slope_at::<ScalarLane>(a, i, s).store(&mut minus[i..]);
        i += 1;
    }
    let (mut i, end) = ((lo - 1) * s, hi * s);
    while i + L::W <= end {
        interface_at::<L>(a, minus, iface, i, s);
        i += L::W;
    }
    while i < end {
        interface_at::<ScalarLane>(a, minus, iface, i, s);
        i += 1;
    }
    let (mut i, end) = (lo * s, hi * s);
    while i + L::W <= end {
        reconstruct_at::<L>(a, flat, iface, minus, plus, i, s);
        i += L::W;
    }
    while i < end {
        reconstruct_at::<ScalarLane>(a, flat, iface, minus, plus, i, s);
        i += 1;
    }
}

/// Pass 1 of the flattening detector on `W` lanes starting at `i`
/// (callers restrict `i` to the guard-safe subrange).
///
/// Bit-identity notes: the pencil engine floors pressure lanes to
/// `f64::MIN_POSITIVE` before calling, so the `min`/`max` chain sees
/// positive non-NaN operands where select semantics equal `f64::min`/
/// `f64::max`; `clamp` becomes the select chain `x<0 -> 0, x>1 -> 1, x`
/// which matches `f64::clamp` including NaN passthrough; the guarded
/// `dp/dp2` ratio is computed speculatively and discarded by mask; the
/// running `out[i].min(chi)` keeps `min`'s first-operand-NaN rule on the
/// `chi` side so a NaN `chi` leaves `out` untouched exactly like
/// `f64::min`.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn flatten_pass1_at<L: Lane>(pres: &[f64], velx: &[f64], out: &mut [f64], i: usize, s: usize) {
    const OMEGA1: f64 = 0.75;
    const OMEGA2: f64 = 10.0;
    const EPSILON: f64 = 0.33;
    let dp = L::load(&pres[i + s..]).sub(L::load(&pres[i - s..]));
    let dp2 = L::load(&pres[i + 2 * s..]).sub(L::load(&pres[i - 2 * s..]));
    let compressive = L::load(&velx[i - s..]).gt(L::load(&velx[i + s..]));
    let denom = L::load(&pres[i + s..])
        .min(L::load(&pres[i - s..]))
        .max(L::splat(f64::MIN_POSITIVE));
    let strong = dp.abs().div(denom).gt(L::splat(EPSILON));
    let gate = compressive.and(strong);
    let ratio = L::select(dp2.abs().gt(L::splat(1e-300)), dp.div(dp2), L::splat(1.0));
    let x = L::splat(OMEGA2).mul(ratio.sub(L::splat(OMEGA1)));
    let clamped = L::select(
        x.lt(L::splat(0.0)),
        L::splat(0.0),
        L::select(x.gt(L::splat(1.0)), L::splat(1.0), x),
    );
    let chi = L::splat(1.0).sub(clamped);
    let cur = L::load(&out[i..]);
    L::select(gate, chi.min(cur), cur).store(&mut out[i..]);
}

/// Pass 2 (neighbor-min spread) on `W` lanes starting at `i`.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn flatten_pass2_at<L: Lane>(snap: &[f64], out: &mut [f64], i: usize, s: usize) {
    L::load(&snap[i - s..])
        .min(L::load(&snap[i..]))
        .min(L::load(&snap[i + s..]))
        .store(&mut out[i..]);
}

/// Lane-generic twin of `flattening_into` over positions `lo..hi` of `s`
/// interleaved pencils (pass 1 over `lo - 1..=hi`, as there). The scalar
/// loop's per-zone guards (`i < 2 || i + 2 >= len` ⇒ untouched,
/// `i >= 1 && i + 1 < len`, in positions) become subrange clamps — zones
/// outside keep the pass's incoming value exactly as the scalar `continue`
/// leaves them.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
pub fn flattening_lanes<L: Lane>(
    pres: &[f64],
    velx: &[f64],
    lo: usize,
    hi: usize,
    s: usize,
    out: &mut [f64],
    snap: &mut [f64],
) {
    assert!(s > 0);
    assert_eq!(out.len(), pres.len());
    assert_eq!(snap.len(), pres.len());
    let n = pres.len() / s;
    out.fill(1.0);
    let (mut i, end) = (
        lo.saturating_sub(1).max(2) * s,
        (hi + 1).min(n.saturating_sub(2)) * s,
    );
    while i + L::W <= end {
        flatten_pass1_at::<L>(pres, velx, out, i, s);
        i += L::W;
    }
    while i < end {
        flatten_pass1_at::<ScalarLane>(pres, velx, out, i, s);
        i += 1;
    }
    snap.copy_from_slice(out);
    let (mut i, end) = (lo.max(1) * s, hi.min(n.saturating_sub(1)) * s);
    while i + L::W <= end {
        flatten_pass2_at::<L>(snap, out, i, s);
        i += L::W;
    }
    while i < end {
        flatten_pass2_at::<ScalarLane>(snap, out, i, s);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(minus, plus)` face values of zones `2..len-2`, unflattened.
    fn reconstruct_simple(a: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let flat = vec![1.0; a.len()];
        let (mut minus, mut plus) = (vec![0.0; a.len()], vec![0.0; a.len()]);
        reconstruct_into(a, 2, a.len() - 2, &flat, &mut minus, &mut plus);
        (minus, plus)
    }

    fn flattening(pres: &[f64], velx: &[f64], lo: usize, hi: usize) -> Vec<f64> {
        let (mut flat, mut snap) = (vec![0.0; pres.len()], vec![0.0; pres.len()]);
        flattening_into(pres, velx, lo, hi, &mut flat, &mut snap);
        flat
    }

    #[test]
    fn linear_data_reconstructs_exactly() {
        let a: Vec<f64> = (0..12).map(|i| 3.0 + 2.0 * i as f64).collect();
        let (minus, plus) = reconstruct_simple(&a);
        for i in 2..10 {
            assert!((minus[i] - (a[i] - 1.0)).abs() < 1e-13, "zone {i}");
            assert!((plus[i] - (a[i] + 1.0)).abs() < 1e-13);
        }
    }

    #[test]
    fn parabola_mean_is_preserved() {
        // The parabola defined by (minus, plus, a) integrates back to a:
        // mean = (minus + plus)/2 + (a − (minus+plus)/2) = a by
        // construction; verify face values bracket sanely on smooth data.
        let a: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).sin() + 2.0).collect();
        let (minus, plus) = reconstruct_simple(&a);
        for i in 2..14 {
            let lo = a[i - 1].min(a[i]).min(a[i + 1]);
            let hi = a[i - 1].max(a[i]).max(a[i + 1]);
            assert!(minus[i] >= lo - 1e-12 && minus[i] <= hi + 1e-12);
            assert!(plus[i] >= lo - 1e-12 && plus[i] <= hi + 1e-12);
        }
    }

    #[test]
    fn local_extremum_flattens_to_constant() {
        let a = [1.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0, 1.0];
        let (minus, plus) = reconstruct_simple(&a);
        // Zone 3 is a local max: parabola must collapse (monotonization).
        assert_eq!(minus[3], 5.0);
        assert_eq!(plus[3], 5.0);
    }

    #[test]
    fn step_is_monotone() {
        let a = [1.0, 1.0, 1.0, 1.0, 10.0, 10.0, 10.0, 10.0];
        let (minus, plus) = reconstruct_simple(&a);
        for i in 2..6 {
            assert!(minus[i] >= 1.0 - 1e-12 && minus[i] <= 10.0 + 1e-12);
            assert!(plus[i] >= 1.0 - 1e-12 && plus[i] <= 10.0 + 1e-12);
            assert!(minus[i] <= plus[i] + 1e-12, "monotone within zone");
        }
    }

    #[test]
    fn flattening_fires_on_strong_compression() {
        let n = 12;
        // Strong pressure jump with converging velocity — a shock.
        let pres: Vec<f64> = (0..n).map(|i| if i < 6 { 100.0 } else { 1.0 }).collect();
        let velx: Vec<f64> = (0..n).map(|i| if i < 6 { 1.0 } else { -1.0 }).collect();
        let flat = flattening(&pres, &velx, 2, n - 2);
        assert!(
            flat[5] < 0.5 || flat[6] < 0.5,
            "flattening at the jump: {flat:?}"
        );
        // Smooth region untouched.
        assert_eq!(flat[2], 1.0);
    }

    /// A zone's coefficient must not depend on the range it is computed
    /// in: a block computes its edge zones over a range ending there, the
    /// neighbouring block over a range that runs through them, and a face
    /// flux is unique only if both get the same bits.
    #[test]
    fn flattening_of_a_zone_does_not_depend_on_the_range_on_every_backend() {
        let n = 24;
        let pres: Vec<f64> = (0..n)
            .map(|i| {
                ((i as f64 * 0.9).sin() * 2.0).exp() + if (7..15).contains(&i) { 50.0 } else { 0.0 }
            })
            .collect();
        let velx: Vec<f64> = (0..n).map(|i| (12.0 - i as f64) * 0.3).collect();
        let whole = flattening(&pres, &velx, 2, n - 2);
        assert!(
            whole.iter().any(|&f| f < 1.0),
            "the detector must fire: {whole:?}"
        );
        for (lo, hi) in [(3, n - 3), (5, 9), (6, 16), (8, 14), (13, 17)] {
            let part = flattening(&pres, &velx, lo, hi);
            for &backend in rflash_simd::Resolved::all() {
                let (mut flat, mut snap) = (vec![0.0; n], vec![0.0; n]);
                rflash_simd::dispatch(
                    backend,
                    FlattenLanes {
                        pres: &pres,
                        velx: &velx,
                        lo,
                        hi,
                        flat: &mut flat,
                        snap: &mut snap,
                    },
                );
                for i in lo..hi {
                    assert_eq!(
                        part[i].to_bits(),
                        whole[i].to_bits(),
                        "scalar {lo}..{hi} zone {i}"
                    );
                    assert_eq!(
                        flat[i].to_bits(),
                        whole[i].to_bits(),
                        "{backend} {lo}..{hi} zone {i}"
                    );
                }
            }
        }
    }

    struct FlattenLanes<'a> {
        pres: &'a [f64],
        velx: &'a [f64],
        lo: usize,
        hi: usize,
        flat: &'a mut [f64],
        snap: &'a mut [f64],
    }

    impl rflash_simd::WithLanes for FlattenLanes<'_> {
        type Output = ();
        fn with_lanes<L: Lane>(self) {
            flattening_lanes::<L>(
                self.pres, self.velx, self.lo, self.hi, 1, self.flat, self.snap,
            );
        }
    }

    struct PpmLanes<'a> {
        a: &'a [f64],
        velx: &'a [f64],
        lo: usize,
        hi: usize,
        s: usize,
        flat: &'a mut [f64],
        snap: &'a mut [f64],
        minus: &'a mut [f64],
        plus: &'a mut [f64],
    }

    impl rflash_simd::WithLanes for PpmLanes<'_> {
        type Output = ();
        #[cfg_attr(debug_assertions, inline)]
        #[cfg_attr(not(debug_assertions), inline(always))]
        fn with_lanes<L: Lane>(self) {
            let (lo, hi, s) = (self.lo, self.hi, self.s);
            flattening_lanes::<L>(self.a, self.velx, lo, hi, s, self.flat, self.snap);
            reconstruct_lanes::<L>(
                self.a, lo, hi, s, self.flat, self.snap, self.minus, self.plus,
            );
        }
    }

    #[test]
    fn strided_twins_match_each_pencil_alone_on_every_backend() {
        // Three shock-bearing pencils interleaved at stride 3: every W-chunk
        // of width 2 or 4 straddles pencils and positions.
        let (n, s) = (17, 3);
        let pencil = |b: usize| -> (Vec<f64>, Vec<f64>) {
            let jump = |i: usize| if i > 6 + b { 30.0 } else { 0.0 };
            let a = (0..n)
                .map(|i| ((i as f64 * 0.7 + b as f64).sin() * 2.0).exp() + jump(i))
                .collect();
            let velx = (0..n).map(|i| (8.0 - i as f64 - b as f64) * 0.4).collect();
            (a, velx)
        };
        let mut a = vec![0.0; n * s];
        let mut velx = vec![0.0; n * s];
        let mut want = vec![[0.0; 3]; n * s];
        for b in 0..s {
            let (pa, pv) = pencil(b);
            let (mut flat, mut snap) = (vec![0.0; n], vec![0.0; n]);
            flattening_into(&pa, &pv, 2, n - 2, &mut flat, &mut snap);
            let (mut minus, mut plus) = (vec![0.0; n], vec![0.0; n]);
            reconstruct_into(&pa, 2, n - 2, &flat, &mut minus, &mut plus);
            // The twin leaves the limited slopes of positions lo-1 and hi
            // in `minus`.
            minus[1] = limited_slope(&pa, 1);
            minus[n - 2] = limited_slope(&pa, n - 2);
            for p in 0..n {
                a[p * s + b] = pa[p];
                velx[p * s + b] = pv[p];
                want[p * s + b] = [flat[p], minus[p], plus[p]];
            }
        }
        for &backend in rflash_simd::Resolved::all() {
            let (mut flat, mut snap) = (vec![0.0; n * s], vec![0.0; n * s]);
            let (mut minus, mut plus) = (vec![0.0; n * s], vec![0.0; n * s]);
            rflash_simd::dispatch(
                backend,
                PpmLanes {
                    a: &a,
                    velx: &velx,
                    lo: 2,
                    hi: n - 2,
                    s,
                    flat: &mut flat,
                    snap: &mut snap,
                    minus: &mut minus,
                    plus: &mut plus,
                },
            );
            for i in 0..n * s {
                let got = [flat[i], minus[i], plus[i]];
                for (g, w) in got.iter().zip(want[i]) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{backend} lane {i}");
                }
            }
        }
    }

    #[test]
    fn lane_twins_match_scalar_reference_bit_exactly_on_every_backend() {
        // Positive, shock-bearing data (the pencil engine floors pressure
        // before flattening; replicate that precondition here).
        let n = 23; // prime: exercises every chunk/tail split
        let a: Vec<f64> = (0..n)
            .map(|i| ((i as f64 * 0.9).sin() * 3.0).exp() + if i > n / 2 { 40.0 } else { 0.0 })
            .collect();
        let velx: Vec<f64> = (0..n).map(|i| (11.0 - i as f64) * 0.3).collect();

        let mut flat_ref = vec![0.0; n];
        let mut snap = vec![0.0; n];
        flattening_into(&a, &velx, 2, n - 2, &mut flat_ref, &mut snap);
        let mut minus_ref = vec![0.0; n];
        let mut plus_ref = vec![0.0; n];
        reconstruct_into(&a, 2, n - 2, &flat_ref, &mut minus_ref, &mut plus_ref);

        for &backend in rflash_simd::Resolved::all() {
            let mut flat = vec![0.0; n];
            let mut snap = vec![0.0; n];
            let mut minus = vec![0.0; n];
            let mut plus = vec![0.0; n];
            rflash_simd::dispatch(
                backend,
                PpmLanes {
                    a: &a,
                    velx: &velx,
                    lo: 2,
                    hi: n - 2,
                    s: 1,
                    flat: &mut flat,
                    snap: &mut snap,
                    minus: &mut minus,
                    plus: &mut plus,
                },
            );
            // `reconstruct_lanes` parks the limited slopes of positions
            // `lo - 1` and `hi` in `minus`; every other lane matches the
            // scalar reference, including the ones it leaves alone.
            let (lo, hi) = (2, n - 2);
            for i in 0..n {
                assert_eq!(
                    flat[i].to_bits(),
                    flat_ref[i].to_bits(),
                    "{backend} flat {i}"
                );
                assert_eq!(
                    plus[i].to_bits(),
                    plus_ref[i].to_bits(),
                    "{backend} plus {i}"
                );
                let want = if i == lo - 1 || i == hi {
                    limited_slope(&a, i)
                } else {
                    minus_ref[i]
                };
                assert_eq!(minus[i].to_bits(), want.to_bits(), "{backend} minus {i}");
            }
        }
    }

    #[test]
    fn flattening_ignores_expansion() {
        let n = 12;
        let pres: Vec<f64> = (0..n).map(|i| if i < 6 { 100.0 } else { 1.0 }).collect();
        // Diverging velocity: rarefaction, no flattening.
        let velx: Vec<f64> = (0..n).map(|i| if i < 6 { -1.0 } else { 1.0 }).collect();
        let flat = flattening(&pres, &velx, 2, n - 2);
        assert!(flat.iter().all(|&f| f == 1.0), "{flat:?}");
    }
}

//! Generalized Fermi–Dirac integrals.
//!
//! The electron/positron thermodynamics needs
//!
//! ```text
//! F_k(η, β) = ∫₀^∞ x^k √(1 + βx/2) / (exp(x − η) + 1) dx
//! ```
//!
//! for k = 1/2, 3/2, 5/2, where η is the degeneracy parameter (kinetic
//! chemical potential over kT) and β = kT/(mₑc²) the relativity parameter.
//! We evaluate by composite Gauss–Legendre quadrature with breakpoints
//! placed around the Fermi surface (x ≈ η), where the integrand's only
//! sharp feature lives; everywhere else it is a smooth near-polynomial that
//! Gauss–Legendre nails. Degenerate η up to ~10⁷ (cold white-dwarf cores)
//! are handled by splitting [0, η−40] into panels — the occupation there is
//! exponentially close to 1 so the integrand is smooth.

use std::sync::OnceLock;

/// Points per quadrature panel. 32 gives ≲1e-12 relative error on every
/// panel of the breakpoint scheme (verified against closed forms in tests).
const GL_POINTS: usize = 32;

/// Gauss–Legendre nodes/weights on [-1, 1], computed once by Newton
/// iteration on the Legendre polynomial.
fn gl_rule() -> &'static (Vec<f64>, Vec<f64>) {
    static RULE: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
    RULE.get_or_init(|| gauss_legendre(GL_POINTS))
}

/// Compute an n-point Gauss–Legendre rule on [-1, 1].
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 2);
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Chebyshev-based initial guess for the i-th root.
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut dp = 0.0;
        for _ in 0..100 {
            // Evaluate P_n(x) and P_n'(x) by the three-term recurrence.
            let mut p0 = 1.0;
            let mut p1 = x;
            for j in 2..=n {
                let jf = j as f64;
                let p2 = ((2.0 * jf - 1.0) * x * p1 - (jf - 1.0) * p0) / jf;
                p0 = p1;
                p1 = p2;
            }
            dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
            let dx = p1 / dp;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        nodes[i] = -x;
        nodes[n - 1 - i] = x;
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        weights[i] = w;
        weights[n - 1 - i] = w;
    }
    (nodes, weights)
}

/// Numerically stable Fermi factor 1/(exp(t) + 1).
#[inline]
fn fermi_factor(t: f64) -> f64 {
    if t > 0.0 {
        let e = (-t).exp();
        e / (1.0 + e)
    } else {
        1.0 / (1.0 + t.exp())
    }
}

/// d/dη of the Fermi factor at t = x − η: exp(t)/(exp(t)+1)² = σ(t)·σ(−t).
#[cfg(test)]
fn fermi_factor_deriv(t: f64) -> f64 {
    let f = fermi_factor(t);
    f * (1.0 - f)
}

/// Below this t, e^t < 2⁻⁵³ and `1 + e^t` rounds to 1: the occupancy is
/// exactly 1 and its derivative exactly 0.
const FERMI_FULL: f64 = -37.0;
/// Above this t, e^−t underflows to +0: the occupancy and its derivative
/// are exactly 0.
const FERMI_EMPTY: f64 = 746.0;

/// The Fermi factor and its η-derivative at t = x − η from one
/// [`fermi_factor`], with the saturated tails (common in a table build: a
/// degenerate electron gas fills its low nodes, and its positrons' nodes
/// are all empty) short-cut to the values the formula rounds to — bit for
/// bit, without the `exp`.
#[inline]
fn fermi_pair(t: f64) -> (f64, f64) {
    if t < FERMI_FULL {
        (1.0, 0.0)
    } else if t > FERMI_EMPTY {
        (0.0, 0.0)
    } else {
        let f = fermi_factor(t);
        (f, f * (1.0 - f))
    }
}

/// Quadrature breakpoints in u-space (u = √x), adapted to the location of
/// the Fermi surface at u = √η.
fn breakpoints(eta: f64) -> Vec<f64> {
    let mut bp = Vec::with_capacity(20);
    if eta <= 30.0 {
        // Transition (if any) is near the origin; geometric panels suffice.
        let top = eta.max(0.0);
        for x in [
            0.0,
            top + 4.0,
            top + 12.0,
            top + 30.0,
            top + 70.0,
            top + 160.0,
        ] {
            bp.push(x.sqrt());
        }
    } else {
        // Smooth degenerate interior [0, √(η−30)] in equal u-panels…
        let interior_end = (eta - 30.0).sqrt();
        let panels = 6;
        for i in 0..=panels {
            bp.push(interior_end * i as f64 / panels as f64);
        }
        // …then fine panels across the Fermi surface and an exponential tail.
        for x in [
            eta - 10.0,
            eta,
            eta + 10.0,
            eta + 30.0,
            eta + 70.0,
            eta + 160.0,
        ] {
            bp.push(x.sqrt());
        }
    }
    bp
}

/// All three generalized FD integrals and their η-derivatives, evaluated in
/// one pass over the quadrature nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FdSet {
    pub f12: f64,
    pub f32: f64,
    pub f52: f64,
    pub df12: f64,
    pub df32: f64,
    pub df52: f64,
}

/// Above this η the Fermi surface is numerically unresolvable in f64
/// (x − η cancels catastrophically) *and* physically irrelevant: finite-T
/// corrections scale as η⁻², below 10⁻¹² here. Switch to the analytic
/// degenerate branch with the first Sommerfeld correction.
const ETA_DEGENERATE: f64 = 1e6;

/// Evaluate F_{1/2}, F_{3/2}, F_{5/2} and ∂/∂η of each at (η, β).
pub fn fd_set(eta: f64, beta: f64) -> FdSet {
    assert!(beta >= 0.0, "relativity parameter must be non-negative");
    if eta > ETA_DEGENERATE {
        return fd_set_degenerate(eta, beta);
    }
    let (nodes, weights) = gl_rule();
    let bp = breakpoints(eta);
    let mut out = FdSet::default();
    // Substituted form: x = u², dx = 2u du, so
    //   F_k = ∫ 2 u^{2k+1} √(1 + βu²/2) / (exp(u² − η) + 1) du
    // — integer powers of u for k = 1/2, 3/2, 5/2, no endpoint singularity.
    for seg in bp.windows(2) {
        let (a, b) = (seg[0], seg[1]);
        if b <= a {
            continue;
        }
        let half = 0.5 * (b - a);
        let mid = 0.5 * (b + a);
        for (&ui, &wi) in nodes.iter().zip(weights.iter()) {
            let u = mid + half * ui;
            let w = wi * half;
            let x = u * u;
            let rel = (1.0 + 0.5 * beta * x).sqrt();
            let (occ, docc) = fermi_pair(x - eta);
            let base = 2.0 * w * u * u * rel; // 2 u^{2k+1} with k=1/2 ⇒ u²
            let x1 = base;
            let x3 = base * x;
            let x5 = x3 * x;
            out.f12 += x1 * occ;
            out.f32 += x3 * occ;
            out.f52 += x5 * occ;
            out.df12 += x1 * docc;
            out.df32 += x3 * docc;
            out.df52 += x5 * docc;
        }
    }
    out
}

/// Difference set F_k(η_a, β) − F_k(η_b, β), with the derivative fields
/// holding F_k'(η_a) **+** F_k'(η_b).
///
/// This exists for the pair-plasma regime: charge neutrality needs
/// n⁻ − n⁺ ∝ [F(η) − F(η⁺)] + β[…], and at kT ≫ mₑc² the two terms agree to
/// ~14 digits — subtracting the *integrals* loses everything, subtracting
/// the *occupancies pointwise inside one quadrature* is stable. The summed
/// derivative is exactly what Newton needs, since η⁺ = −η − 2/β gives
/// d(ΔF)/dη = F'(η_a) + F'(η_b).
pub fn fd_diff_set(eta_a: f64, eta_b: f64, beta: f64) -> FdSet {
    assert!(beta >= 0.0);
    if eta_a > ETA_DEGENERATE {
        // Positron side is doubly-exponentially negligible.
        return fd_set_degenerate(eta_a, beta);
    }
    let (nodes, weights) = gl_rule();
    // Union of both breakpoint sets so each occupancy's feature is resolved.
    let mut bp = breakpoints(eta_a);
    bp.extend(breakpoints(eta_b));
    bp.retain(|u| u.is_finite());
    bp.sort_by(f64::total_cmp);
    bp.dedup();
    let mut out = FdSet::default();
    for seg in bp.windows(2) {
        let (a, b) = (seg[0], seg[1]);
        if b <= a {
            continue;
        }
        let half = 0.5 * (b - a);
        let mid = 0.5 * (b + a);
        for (&ui, &wi) in nodes.iter().zip(weights.iter()) {
            let u = mid + half * ui;
            let w = wi * half;
            let x = u * u;
            let rel = (1.0 + 0.5 * beta * x).sqrt();
            let (occ_a, docc_a) = fermi_pair(x - eta_a);
            let (occ_b, docc_b) = fermi_pair(x - eta_b);
            let occ = occ_a - occ_b;
            let docc = docc_a + docc_b;
            let base = 2.0 * w * u * u * rel;
            let x1 = base;
            let x3 = base * x;
            let x5 = x3 * x;
            out.f12 += x1 * occ;
            out.f32 += x3 * occ;
            out.f52 += x5 * occ;
            out.df12 += x1 * docc;
            out.df32 += x3 * docc;
            out.df52 += x5 * docc;
        }
    }
    out
}

/// Analytic strongly-degenerate limit: unit occupancy up to x = η
/// (integrated by the same panel quadrature, no Fermi factor, hence no
/// cancellation) plus the first Sommerfeld correction
/// (π²/6)·d/dη[η^k √(1+βη/2)]. The η-derivatives are the surface terms
/// η^k √(1+βη/2) themselves.
fn fd_set_degenerate(eta: f64, beta: f64) -> FdSet {
    let (nodes, weights) = gl_rule();
    let mut out = FdSet::default();
    let u_end = eta.sqrt();
    let panels = 12;
    for p in 0..panels {
        let a = u_end * p as f64 / panels as f64;
        let b = u_end * (p + 1) as f64 / panels as f64;
        let half = 0.5 * (b - a);
        let mid = 0.5 * (b + a);
        for (&ui, &wi) in nodes.iter().zip(weights.iter()) {
            let u = mid + half * ui;
            let w = wi * half;
            let x = u * u;
            let rel = (1.0 + 0.5 * beta * x).sqrt();
            let base = 2.0 * w * u * u * rel;
            out.f12 += base;
            out.f32 += base * x;
            out.f52 += base * x * x;
        }
    }
    // Sommerfeld correction and surface derivatives.
    let rel = (1.0 + 0.5 * beta * eta).sqrt();
    let drel = 0.25 * beta / rel;
    let s = std::f64::consts::PI.powi(2) / 6.0;
    // d/dη [η^k rel] = k η^{k-1} rel + η^k drel, k = 1/2, 3/2, 5/2.
    let surf = |k: f64| eta.powf(k) * rel;
    let dsurf = |k: f64| k * eta.powf(k - 1.0) * rel + eta.powf(k) * drel;
    out.f12 += s * dsurf(0.5);
    out.f32 += s * dsurf(1.5);
    out.f52 += s * dsurf(2.5);
    out.df12 = surf(0.5);
    out.df32 = surf(1.5);
    out.df52 = surf(2.5);
    out
}

/// Single integral (k doubled to stay integer: `k2` = 1, 3, or 5).
pub fn fd(k2: u8, eta: f64, beta: f64) -> f64 {
    let set = fd_set(eta, beta);
    match k2 {
        1 => set.f12,
        3 => set.f32,
        5 => set.f52,
        // analyze::allow(panic): k2 is a literal 1/3/5 at every call site;
        // any other value is a caller bug, not runtime data.
        _ => panic!("fd supports k = 1/2, 3/2, 5/2 (k2 = 1, 3, 5)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Riemann zeta at small integer/half-integer arguments via the
    /// Dirichlet eta series (fast-converging alternating sum).
    fn dirichlet_eta(s: f64) -> f64 {
        let mut sum = 0.0;
        for n in 1..200_000 {
            let term = (-1.0f64).powi(n + 1) / (n as f64).powf(s);
            sum += term;
        }
        sum
    }

    fn gamma_fn(x: f64) -> f64 {
        // Lanczos approximation, g=7.
        const G: f64 = 7.0;
        const C: [f64; 9] = [
            0.999_999_999_999_809_9,
            676.5203681218851,
            -1259.1392167224028,
            771.323_428_777_653_1,
            -176.615_029_162_140_6,
            12.507343278686905,
            -0.13857109526572012,
            9.984_369_578_019_572e-6,
            1.5056327351493116e-7,
        ];
        if x < 0.5 {
            std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_fn(1.0 - x))
        } else {
            let x = x - 1.0;
            let mut a = C[0];
            let t = x + G + 0.5;
            for (i, &c) in C.iter().enumerate().skip(1) {
                a += c / (x + i as f64);
            }
            (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
        }
    }

    #[test]
    fn gl_rule_integrates_polynomials_exactly() {
        let (nodes, weights) = gauss_legendre(8);
        // ∫_{-1}^{1} x^6 dx = 2/7.
        let s: f64 = nodes
            .iter()
            .zip(&weights)
            .map(|(&x, &w)| w * x.powi(6))
            .sum();
        assert!((s - 2.0 / 7.0).abs() < 1e-14);
        // Weights sum to 2.
        let total: f64 = weights.iter().sum();
        assert!((total - 2.0).abs() < 1e-14);
    }

    #[test]
    fn nonrelativistic_eta_zero_matches_eta_function() {
        // F_k(0, 0) = Γ(k+1)·η_D(k+1) where η_D is the Dirichlet eta.
        for (k2, k) in [(1u8, 0.5), (3, 1.5), (5, 2.5)] {
            let expect = gamma_fn(k + 1.0) * dirichlet_eta(k + 1.0);
            let got = fd(k2, 0.0, 0.0);
            assert!(
                (got - expect).abs() / expect < 1e-8,
                "k={k}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn nondegenerate_limit_is_boltzmann() {
        // η → −∞: F_k → e^η Γ(k+1).
        let eta = -25.0f64;
        for (k2, k) in [(1u8, 0.5), (3, 1.5), (5, 2.5)] {
            let expect = eta.exp() * gamma_fn(k + 1.0);
            let got = fd(k2, eta, 0.0);
            assert!(
                (got - expect).abs() / expect < 1e-6,
                "k={k}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn degenerate_limit_is_polytropic() {
        // η ≫ 1, β = 0: F_k → η^{k+1}/(k+1) + Sommerfeld corrections.
        for eta in [1e3f64, 1e5, 1e7] {
            for (k2, k) in [(1u8, 0.5), (3, 1.5), (5, 2.5)] {
                let lead = eta.powf(k + 1.0) / (k + 1.0);
                // First Sommerfeld correction: (π²/6)·k·η^{k-1}.
                let corr = std::f64::consts::PI.powi(2) / 6.0 * k * eta.powf(k - 1.0);
                let expect = lead + corr;
                let got = fd(k2, eta, 0.0);
                assert!(
                    (got - expect).abs() / expect < 1e-7,
                    "eta={eta:e} k={k}: rel err {}",
                    (got - expect).abs() / expect
                );
            }
        }
    }

    #[test]
    fn relativistic_factor_increases_integrals() {
        let cold = fd_set(10.0, 0.0);
        let hot = fd_set(10.0, 1.0);
        assert!(hot.f12 > cold.f12);
        assert!(hot.f32 > cold.f32);
        assert!(hot.f52 > cold.f52);
    }

    #[test]
    fn ultrarelativistic_degenerate_limit() {
        // β ≫ 1, η ≫ 1: √(1+βx/2) → √(βx/2), so the integrand of F_{3/2}
        // becomes √(β/2)·x² and F_{3/2} ≈ √(β/2)·η³/3.
        let (eta, beta) = (1e4f64, 100.0f64);
        let expect = (beta / 2.0f64).sqrt() * eta.powi(3) / 3.0;
        let got = fd(3, eta, beta);
        assert!(
            (got - expect).abs() / expect < 2e-3,
            "rel err {}",
            (got - expect).abs() / expect
        );
    }

    #[test]
    fn eta_derivative_matches_finite_difference() {
        for eta in [-5.0f64, 0.0, 3.0, 50.0] {
            let h = 1e-5 * eta.abs().max(1.0);
            let plus = fd_set(eta + h, 0.3);
            let minus = fd_set(eta - h, 0.3);
            let mid = fd_set(eta, 0.3);
            for (d, (p, m)) in [
                (mid.df12, (plus.f12, minus.f12)),
                (mid.df32, (plus.f32, minus.f32)),
                (mid.df52, (plus.f52, minus.f52)),
            ] {
                let fd_est = (p - m) / (2.0 * h);
                assert!(
                    (d - fd_est).abs() / fd_est.abs().max(1e-300) < 1e-5,
                    "eta={eta}: {d} vs {fd_est}"
                );
            }
        }
    }

    #[test]
    fn monotone_in_eta() {
        let mut prev = 0.0;
        for i in 0..60 {
            let eta = -20.0 + i as f64 * 2.0;
            let v = fd(1, eta, 0.1);
            assert!(v > prev, "F_1/2 must increase with eta");
            prev = v;
        }
    }

    #[test]
    fn fermi_pair_is_the_factor_and_its_derivative_bit_for_bit() {
        let check = |t: f64| {
            let (f, d) = fermi_pair(t);
            assert_eq!(
                f.to_bits(),
                fermi_factor(t).to_bits(),
                "factor at t = {t:e}"
            );
            assert_eq!(
                d.to_bits(),
                fermi_factor_deriv(t).to_bits(),
                "derivative at t = {t:e}"
            );
        };
        // Densely across both cut-offs: every double within 2¹² ulps of
        // each, then a 1e-3 grid over ±2 around it.
        for edge in [FERMI_FULL, FERMI_EMPTY] {
            let bits = edge.to_bits();
            for k in 0..=1u64 << 12 {
                check(f64::from_bits(bits + k));
                check(f64::from_bits(bits - k));
            }
            for k in -2000..=2000 {
                check(edge + k as f64 * 1e-3);
            }
        }
        for t in [
            f64::MIN,
            -1e300,
            -745.2,
            -0.0,
            0.0,
            1e-300,
            709.8,
            1e300,
            f64::MAX,
        ] {
            check(t);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(20_000))]
        #[test]
        fn fermi_pair_matches_on_random_t(t in -800.0f64..800.0) {
            let (f, d) = fermi_pair(t);
            proptest::prop_assert_eq!(f.to_bits(), fermi_factor(t).to_bits());
            proptest::prop_assert_eq!(d.to_bits(), fermi_factor_deriv(t).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "k = 1/2, 3/2, 5/2")]
    fn bad_k_panics() {
        let _ = fd(2, 0.0, 0.0);
    }
}

//! Exact electron/positron thermodynamics from Fermi–Dirac integrals.
//!
//! Given (ρYₑ, T), charge neutrality fixes the electron degeneracy
//! parameter η through n⁻(η) − n⁺(η) = ρNₐYₑ; pressure, energy, and entropy
//! follow from the generalized FD integrals. This is the physics the
//! Helmholtz table caches — the table module calls into here at build time,
//! and the tests compare interpolated values back against these exact ones.

use crate::consts::{electron_density_scale, K_B, ME_C2, N_A};
use crate::fermi::{fd_diff_set, fd_set, FdSet};
use crate::EosError;

/// Exact state of the electron/positron gas at one (ρYₑ, T) point.
#[derive(Clone, Copy, Debug, Default)]
pub struct ElectronState {
    /// Degeneracy parameter η = μ_kinetic/kT.
    pub eta: f64,
    /// Electron number density, cm⁻³.
    pub n_ele: f64,
    /// Positron number density, cm⁻³.
    pub n_pos: f64,
    /// Pressure, erg/cm³.
    pub pres: f64,
    /// Kinetic energy density (positron rest-mass pairs included), erg/cm³.
    pub ener: f64,
    /// Entropy density, erg/(cm³·K).
    pub entr: f64,
}

/// Relativity parameter β = kT / mₑc².
#[inline]
pub fn beta_of(temp: f64) -> f64 {
    K_B * temp / ME_C2
}

/// Number density of a single species with degeneracy parameter `eta`.
fn species_n(set: &FdSet, beta: f64) -> f64 {
    electron_density_scale() * beta.powf(1.5) * (set.f12 + beta * set.f32)
}

/// dn/dη for the same species.
fn species_dn_deta(set: &FdSet, beta: f64) -> f64 {
    electron_density_scale() * beta.powf(1.5) * (set.df12 + beta * set.df32)
}

/// Pressure of a single species.
fn species_p(set: &FdSet, beta: f64) -> f64 {
    2.0 / 3.0 * electron_density_scale() * ME_C2 * beta.powf(2.5) * (set.f32 + 0.5 * beta * set.f52)
}

/// Kinetic energy density of a single species.
fn species_e(set: &FdSet, beta: f64) -> f64 {
    electron_density_scale() * ME_C2 * beta.powf(2.5) * (set.f32 + beta * set.f52)
}

/// Solve charge neutrality for η given the net electron density
/// `n_net = ρ Nₐ Yₑ` (cm⁻³) and temperature (K), from an optional warm-start
/// guess — table builds sweep density monotonically and reuse the previous
/// η to cut Newton iterations.
///
/// Newton iteration with a bisection safeguard; n(η) is strictly monotone.
pub fn solve_eta_with_guess(n_net: f64, temp: f64, guess: Option<f64>) -> Result<f64, EosError> {
    if !(n_net.is_finite() && n_net > 0.0) {
        return Err(EosError::BadInput {
            what: "n_net",
            value: n_net,
        });
    }
    if !(temp.is_finite() && temp > 0.0) {
        return Err(EosError::BadInput {
            what: "temp",
            value: temp,
        });
    }
    let beta = beta_of(temp);
    let scale = electron_density_scale() * beta.powf(1.5);

    // Initial guess: the larger of the non-degenerate and degenerate limits.
    let gamma_32 = 0.5 * std::f64::consts::PI.sqrt(); // Γ(3/2)
    let eta_nondeg = (n_net / (scale * gamma_32)).ln();
    let eta_deg = (1.5 * n_net / scale).powf(2.0 / 3.0);
    let mut eta = guess
        .filter(|g| g.is_finite())
        .unwrap_or(if eta_nondeg > 1.0 {
            eta_deg
        } else {
            eta_nondeg
        });

    // Bracket for the bisection safeguard.
    let (mut lo, mut hi): (f64, f64) = (-740.0, eta_deg.max(10.0) * 4.0 + 100.0);
    let net = |eta: f64| -> (f64, f64) {
        // One stable quadrature for n⁻ − n⁺ (critical in the pair plasma,
        // where the two densities agree to ~14 digits).
        let diff = fd_diff_set(eta, -eta - 2.0 / beta, beta);
        let n = species_n(&diff, beta);
        // fd_diff_set's derivative fields already sum both species
        // (dη⁺/dη = −1 and n⁺ decreases in η⁺, so both terms add).
        let dn = species_dn_deta(&diff, beta);
        (n - n_net, dn)
    };

    let mut residual = f64::INFINITY;
    let mut best = (f64::INFINITY, eta);
    for _ in 0..200 {
        let (f, df) = net(eta);
        residual = f / n_net;
        if residual.abs() < best.0 {
            best = (residual.abs(), eta);
        }
        if residual.abs() < 1e-11 {
            return Ok(eta);
        }
        if f > 0.0 {
            hi = hi.min(eta);
        } else {
            lo = lo.max(eta);
        }
        // Pair-plasma regime: the charge asymmetry can be ~12 orders below
        // the pair density, so the n-residual is ill-conditioned even though
        // η itself (and every thermodynamic quantity) is fully converged.
        // Accept once the bracket has collapsed to machine precision in η.
        if hi - lo < 4.0 * f64::EPSILON * (1.0 + eta.abs()) {
            return Ok(0.5 * (lo + hi));
        }
        let newton = eta - f / df;
        eta = if df > 0.0 && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
    }
    // Accept slightly looser convergence before failing: at extreme
    // degeneracy (eta ~ 1e9) the quadrature's own relative accuracy is the
    // limit, so Newton plateaus around 1e-7.
    if best.0 < 1e-5 {
        Ok(best.1)
    } else {
        Err(EosError::NoConvergence {
            mode: "solve_eta",
            residual,
        })
    }
}

/// Full electron/positron state at (ρYₑ [g/cm³], T \[K\]).
pub fn electron_state(rho_ye: f64, temp: f64) -> Result<ElectronState, EosError> {
    electron_state_with_guess(rho_ye, temp, None)
}

/// [`electron_state`] with an η warm start (see [`solve_eta_with_guess`]).
pub fn electron_state_with_guess(
    rho_ye: f64,
    temp: f64,
    eta_guess: Option<f64>,
) -> Result<ElectronState, EosError> {
    let n_net = rho_ye * N_A;
    let eta = solve_eta_with_guess(n_net, temp, eta_guess)?;
    let beta = beta_of(temp);
    let ele = fd_set(eta, beta);
    let eta_pos = -eta - 2.0 / beta;
    let pos = fd_set(eta_pos, beta);

    let n_ele = species_n(&ele, beta);
    let n_pos = species_n(&pos, beta);
    let pres = species_p(&ele, beta) + species_p(&pos, beta);
    // Positrons carry the pair rest-mass energy 2mₑc² per pair.
    let ener = species_e(&ele, beta) + species_e(&pos, beta) + 2.0 * ME_C2 * n_pos;
    // TS = E + P − μ⁻n⁻ − μ⁺n⁺ with kinetic chemical potentials
    // μ⁻ = ηkT, μ⁺ = η⁺kT (pair rest mass accounted in E).
    let kt = K_B * temp;
    let ts = species_e(&ele, beta) + species_p(&ele, beta) - eta * kt * n_ele
        + species_e(&pos, beta)
        + species_p(&pos, beta)
        - eta_pos * kt * n_pos
        + 2.0 * ME_C2 * n_pos;
    let entr = ts / temp;

    Ok(ElectronState {
        eta,
        n_ele,
        n_pos,
        pres,
        ener,
        entr,
    })
}

/// Chandrasekhar's exact cold (T = 0) electron pressure for a given net
/// electron density — the classical closed form used for validation.
pub fn cold_pressure(n_ele: f64) -> f64 {
    use crate::consts::{C_LIGHT, H_PLANCK, M_E};
    // Fermi momentum parameter x = p_F/(mc):
    // n = (8π/3)(mc/h)³ x³.
    let lam3 = (M_E * C_LIGHT / H_PLANCK).powi(3);
    let x = (3.0 * n_ele / (8.0 * std::f64::consts::PI * lam3)).cbrt();
    let a = std::f64::consts::PI * M_E.powi(4) * C_LIGHT.powi(5) / (3.0 * H_PLANCK.powi(3));
    a * (x * (2.0 * x * x - 3.0) * (1.0 + x * x).sqrt() + 3.0 * x.asinh())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_neutrality_round_trips() {
        for rho_ye in [1e-2, 1.0, 1e3, 1e6, 1e9] {
            for temp in [1e5, 1e7, 1e9] {
                let n_net = rho_ye * N_A;
                let eta = solve_eta_with_guess(n_net, temp, None).unwrap();
                let beta = beta_of(temp);
                let ele = fd_set(eta, beta);
                let pos = fd_set(-eta - 2.0 / beta, beta);
                let n = species_n(&ele, beta) - species_n(&pos, beta);
                assert!(
                    (n - n_net).abs() / n_net < 1e-8,
                    "rho_ye={rho_ye:e} T={temp:e}"
                );
            }
        }
    }

    #[test]
    fn nondegenerate_limit_is_ideal_gas() {
        // Low density, warm: P → n k T.
        let (rho_ye, temp) = (10.0, 5e8);
        let st = electron_state(rho_ye, temp).unwrap();
        let ideal = (st.n_ele + st.n_pos) * K_B * temp;
        assert!(
            (st.pres - ideal).abs() / ideal < 2e-2,
            "P={:e} nkT={ideal:e}",
            st.pres
        );
        // Energy per particle between the non-relativistic (3/2)kT and the
        // ultra-relativistic 3kT bounds (β ≈ 0.08 here, slightly warm).
        let e_per = st.ener / (st.n_ele + st.n_pos);
        assert!(
            e_per > 1.5 * K_B * temp && e_per < 3.0 * K_B * temp,
            "{e_per:e}"
        );
    }

    #[test]
    fn cold_degenerate_matches_chandrasekhar_nonrel() {
        // ρYe = 10³, T = 10⁵ K: strongly degenerate, x_F ≈ 0.1.
        let rho_ye = 1e3;
        let st = electron_state(rho_ye, 1e5).unwrap();
        let exact = cold_pressure(rho_ye * N_A);
        assert!(
            (st.pres - exact).abs() / exact < 1e-3,
            "P={:e} cold={exact:e}",
            st.pres
        );
        assert!(st.eta > 100.0, "strongly degenerate: eta={}", st.eta);
    }

    #[test]
    fn cold_degenerate_matches_chandrasekhar_rel() {
        // ρYe = 10⁹: relativistic degeneracy, x_F ≈ 10.
        let rho_ye = 1e9;
        let st = electron_state(rho_ye, 1e7).unwrap();
        let exact = cold_pressure(rho_ye * N_A);
        assert!(
            (st.pres - exact).abs() / exact < 1e-3,
            "P={:e} cold={exact:e}",
            st.pres
        );
    }

    #[test]
    fn polytropic_slopes_in_limits() {
        // d ln P / d ln ρ ≈ 5/3 non-relativistic, 4/3 relativistic.
        let slope = |rho_ye: f64| {
            let p1 = electron_state(rho_ye, 1e5).unwrap().pres;
            let p2 = electron_state(rho_ye * 1.1, 1e5).unwrap().pres;
            (p2 / p1).ln() / 1.1f64.ln()
        };
        let nonrel = slope(1e2);
        assert!((nonrel - 5.0 / 3.0).abs() < 0.02, "{nonrel}");
        let rel = slope(1e9);
        assert!((rel - 4.0 / 3.0).abs() < 0.02, "{rel}");
    }

    #[test]
    fn pairs_appear_at_high_temperature() {
        let cool = electron_state(1.0, 1e8).unwrap();
        let hot = electron_state(1.0, 5e9).unwrap();
        assert!(cool.n_pos < 1e-6 * cool.n_ele);
        assert!(
            hot.n_pos > 0.1 * hot.n_ele,
            "pair plasma expected: n+/n- = {}",
            hot.n_pos / hot.n_ele
        );
    }

    #[test]
    fn entropy_positive_and_rising_with_t() {
        let s1 = electron_state(1e3, 1e7).unwrap().entr;
        let s2 = electron_state(1e3, 1e9).unwrap().entr;
        assert!(s1 > 0.0);
        assert!(s2 > s1);
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        assert!(matches!(
            solve_eta_with_guess(-1.0, 1e7, None),
            Err(EosError::BadInput { .. })
        ));
        assert!(matches!(
            solve_eta_with_guess(1e24, f64::NAN, None),
            Err(EosError::BadInput { .. })
        ));
        assert!(electron_state(0.0, 1e7).is_err());
    }

    #[test]
    fn pressure_monotone_in_density_and_temperature() {
        let mut prev = 0.0;
        for i in 0..8 {
            let rho_ye = 10f64.powi(i);
            let p = electron_state(rho_ye, 1e8).unwrap().pres;
            assert!(p > prev);
            prev = p;
        }
        let p_cold = electron_state(1e5, 1e7).unwrap().pres;
        let p_hot = electron_state(1e5, 5e9).unwrap().pres;
        assert!(p_hot > p_cold);
    }
}

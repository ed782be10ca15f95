//! Physical constants in CGS units (FLASH's unit system).

/// Boltzmann constant, erg/K.
pub const K_B: f64 = 1.380649e-16;
/// Avogadro's number, 1/mol.
pub const N_A: f64 = 6.02214076e23;
/// Radiation constant a = 4σ/c, erg cm⁻³ K⁻⁴.
pub const A_RAD: f64 = 7.565723e-15;
/// Speed of light, cm/s.
pub const C_LIGHT: f64 = 2.99792458e10;
/// Planck constant, erg·s.
pub const H_PLANCK: f64 = 6.62607015e-27;
/// Electron mass, g.
pub const M_E: f64 = 9.1093837015e-28;
/// Electron rest energy m_e c², erg.
pub const ME_C2: f64 = M_E * C_LIGHT * C_LIGHT;
/// Newton's gravitational constant, cm³ g⁻¹ s⁻².
pub const G_NEWTON: f64 = 6.67430e-8;
/// Solar mass, g.
pub const M_SUN: f64 = 1.98892e33;

/// Compton prefactor 8π√2 (m_e c / h)³ — the number density scale of the
/// relativistic electron gas, cm⁻³.
pub fn electron_density_scale() -> f64 {
    // 1/(Compton wavelength), cubed by hand: an optimized build folds
    // `powi` of a constant with the host's `pow`, a debug build multiplies,
    // and the two differ in the last bit, which every Helmholtz table row
    // then inherits.
    let lambda_inv = M_E * C_LIGHT / H_PLANCK;
    8.0 * std::f64::consts::PI * std::f64::consts::SQRT_2 * (lambda_inv * lambda_inv * lambda_inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rest_energy_is_511_kev() {
        // 511 keV in erg = 8.187e-7.
        assert!((ME_C2 - 8.187e-7).abs() / 8.187e-7 < 1e-3);
    }

    #[test]
    fn density_scale_magnitude() {
        // 8π√2/λ_C³ with λ_C = 2.426e-10 cm → ≈ 2.49e30 cm⁻³.
        let s = electron_density_scale();
        assert!(s > 2.3e30 && s < 2.7e30, "{s:e}");
    }

    #[test]
    fn radiation_constant_consistency() {
        // a = 8π⁵k⁴/(15 h³c³).
        let pi = std::f64::consts::PI;
        let a = 8.0 * pi.powi(5) * K_B.powi(4) / (15.0 * H_PLANCK.powi(3) * C_LIGHT.powi(3));
        assert!((a - A_RAD).abs() / A_RAD < 1e-5, "{a:e} vs {A_RAD:e}");
    }
}

//! Laminar flame speeds and turbulent enhancement.
//!
//! The laminar speed of a carbon deflagration follows the Timmes & Woosley
//! (1992) power-law fit; the FLASH supernova models tabulate it (with ²²Ne
//! corrections from Chamulak et al. 2007) and interpolate at run time —
//! we build the same kind of table from the fit and interpolate, preserving
//! both the physics and the table-lookup access pattern.

use serde::{Deserialize, Serialize};

/// Timmes & Woosley (1992)-style laminar carbon-flame speed fit, cm/s:
///
/// `s ≈ 92 km/s · (ρ/2e9)^0.805 · (X_C/0.5)^0.889`
///
/// valid for ρ ≳ 10⁷ g/cc; below that we let the power law decay (the model
/// flame is quenched by the DDT/quench density in the driver anyway).
pub fn laminar_speed(dens: f64, x_c: f64) -> f64 {
    if dens <= 0.0 || x_c <= 0.0 {
        return 0.0;
    }
    9.2e6 * (dens / 2e9).powf(0.805) * (x_c / 0.5).powf(0.889)
}

/// Khokhlov (1995)-style buoyancy-driven turbulent speed floor:
/// `s_t = α √(A g L)` with Atwood-number×gravity `a_g` and the unresolved
/// scale `l` (the zone size). The flame front propagates at
/// `max(s_laminar, s_turbulent)`.
pub fn turbulent_enhancement(s_lam: f64, a_g: f64, l: f64) -> f64 {
    const ALPHA: f64 = 0.5;
    let s_t = if a_g > 0.0 && l > 0.0 {
        ALPHA * (a_g * l).sqrt()
    } else {
        0.0
    };
    s_lam.max(s_t)
}

/// Tabulated laminar speed on a (log ρ, X_C) grid with bilinear
/// interpolation — the run-time structure FLASH's `fl_fsConstFlameSpeed=false`
/// path uses.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpeedTable {
    log_rho: (f64, f64),
    n_rho: usize,
    x_c: (f64, f64),
    n_xc: usize,
    values: Vec<f64>,
}

impl SpeedTable {
    /// Tabulate the laminar-speed fit on the given (log ρ, X_C) grid.
    pub fn build(log_rho: (f64, f64), n_rho: usize, x_c: (f64, f64), n_xc: usize) -> SpeedTable {
        assert!(n_rho >= 2 && n_xc >= 2);
        assert!(log_rho.1 > log_rho.0 && x_c.1 > x_c.0);
        let mut values = Vec::with_capacity(n_rho * n_xc);
        for jx in 0..n_xc {
            let x = x_c.0 + (x_c.1 - x_c.0) * jx as f64 / (n_xc - 1) as f64;
            for ir in 0..n_rho {
                let lr = log_rho.0 + (log_rho.1 - log_rho.0) * ir as f64 / (n_rho - 1) as f64;
                values.push(laminar_speed(10f64.powf(lr), x));
            }
        }
        SpeedTable {
            log_rho,
            n_rho,
            x_c,
            n_xc,
            values,
        }
    }

    /// A default table spanning deflagration conditions.
    pub fn default_co() -> SpeedTable {
        SpeedTable::build((6.0, 10.0), 65, (0.2, 0.7), 11)
    }

    /// Bilinear lookup, clamped to the table domain.
    pub fn speed(&self, dens: f64, x_c: f64) -> f64 {
        let lr = dens.max(1.0).log10().clamp(self.log_rho.0, self.log_rho.1);
        let x = x_c.clamp(self.x_c.0, self.x_c.1);
        let fr =
            (lr - self.log_rho.0) / (self.log_rho.1 - self.log_rho.0) * (self.n_rho - 1) as f64;
        let fx = (x - self.x_c.0) / (self.x_c.1 - self.x_c.0) * (self.n_xc - 1) as f64;
        let ir = (fr as usize).min(self.n_rho - 2);
        let jx = (fx as usize).min(self.n_xc - 2);
        let (tr, tx) = (fr - ir as f64, fx - jx as f64);
        let at = |j: usize, i: usize| self.values[j * self.n_rho + i];
        (1.0 - tx) * ((1.0 - tr) * at(jx, ir) + tr * at(jx, ir + 1))
            + tx * ((1.0 - tr) * at(jx + 1, ir) + tr * at(jx + 1, ir + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_anchor_point() {
        // At ρ = 2e9, X_C = 0.5 the fit returns its 92 km/s anchor.
        assert!((laminar_speed(2e9, 0.5) - 9.2e6).abs() < 1.0);
    }

    #[test]
    fn speed_rises_with_density_and_carbon() {
        assert!(laminar_speed(2e9, 0.5) > laminar_speed(2e8, 0.5));
        assert!(laminar_speed(2e9, 0.5) > laminar_speed(2e9, 0.3));
        assert_eq!(laminar_speed(0.0, 0.5), 0.0);
        assert_eq!(laminar_speed(1e9, 0.0), 0.0);
    }

    #[test]
    fn table_matches_fit_at_and_off_nodes() {
        let t = SpeedTable::default_co();
        for (dens, xc) in [(1e7, 0.3), (3.3e8, 0.5), (2e9, 0.48), (9e9, 0.7)] {
            let exact = laminar_speed(dens, xc);
            let got = t.speed(dens, xc);
            assert!(
                (got - exact).abs() / exact < 2e-2,
                "({dens:e},{xc}): {got} vs {exact}"
            );
        }
    }

    #[test]
    fn table_clamps_out_of_domain() {
        let t = SpeedTable::default_co();
        // Way below the domain: clamps to the ρ=1e6 edge, stays finite.
        let lo = t.speed(1.0, 0.5);
        assert!(lo > 0.0 && lo.is_finite());
        assert_eq!(lo, t.speed(1e6, 0.5));
        // Above: clamps to 1e10.
        assert_eq!(t.speed(1e12, 0.5), t.speed(1e10, 0.5));
    }

    #[test]
    fn turbulent_floor_engages_for_weak_flames() {
        // Weak laminar flame in a strong gravity field on a coarse grid:
        // buoyancy term dominates.
        let s_lam = 1e3;
        let boosted = turbulent_enhancement(s_lam, 1e9, 1e7);
        assert!(boosted > s_lam);
        assert!((boosted - 0.5 * (1e9f64 * 1e7).sqrt()).abs() < 1.0);
        // Strong laminar flame: unchanged.
        assert_eq!(turbulent_enhancement(1e8, 1e3, 1e5), 1e8);
        // No gravity: laminar.
        assert_eq!(turbulent_enhancement(1e3, 0.0, 1e7), 1e3);
    }
}

//! Hydrostatic white-dwarf structure.
//!
//! Integrates dP/dr = −G M(<r) ρ / r², dM/dr = 4π r² ρ outward from a
//! central density at fixed (low) temperature with the Helmholtz EOS —
//! FLASH's supernova setups read an equivalent 1-d model file produced the
//! same way. Density at given pressure comes from bisecting the monotone
//! P(ρ) relation.

use rflash_eos::consts::{G_NEWTON, M_SUN};
use rflash_eos::{Eos, EosError, EosMode, EosState, Helmholtz};

use crate::eos_choice::Composition;

/// The 1-d hydrostatic model.
#[derive(Clone, Debug)]
pub struct WdProfile {
    /// Shell radii (cm), ascending, uniform spacing.
    pub r: Vec<f64>,
    /// Density at each radius (g/cm³).
    pub rho: Vec<f64>,
    /// Pressure at each radius.
    pub pres: Vec<f64>,
    /// Enclosed mass at each radius (g).
    pub m: Vec<f64>,
    /// Isothermal temperature of the model (K).
    pub temp: f64,
}

impl WdProfile {
    /// Stellar radius: where the integration hit the surface density.
    pub fn radius(&self) -> f64 {
        *self.r.last().unwrap()
    }

    /// Total mass, g.
    pub fn mass(&self) -> f64 {
        *self.m.last().unwrap()
    }

    /// Total mass in solar masses.
    pub fn mass_msun(&self) -> f64 {
        self.mass() / M_SUN
    }

    /// Linear interpolation of density at radius r (surface value outside).
    pub fn rho_at(&self, r: f64) -> f64 {
        interp(&self.r, &self.rho, r)
    }
}

fn interp(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    if x <= xs[0] {
        return ys[0];
    }
    if x >= *xs.last().unwrap() {
        return *ys.last().unwrap();
    }
    let i = xs.partition_point(|&v| v < x).max(1);
    let f = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
    ys[i - 1] + f * (ys[i] - ys[i - 1])
}

/// Pressure at (ρ, T) for the model's composition.
fn pressure_of(eos: &Helmholtz, comp: Composition, rho: f64, temp: f64) -> Result<f64, EosError> {
    let mut s = EosState {
        dens: rho,
        temp,
        abar: comp.abar,
        zbar: comp.zbar,
        pres: 0.0,
        eint: 0.0,
        entr: 0.0,
        gamc: 0.0,
        game: 0.0,
        cs: 0.0,
        cv: 0.0,
    };
    eos.call(EosMode::DensTemp, &mut s)?;
    Ok(s.pres)
}

/// Invert P(ρ) at fixed T by bisection (P is strictly increasing in ρ).
fn rho_of_pressure(
    eos: &Helmholtz,
    comp: Composition,
    pres: f64,
    temp: f64,
    rho_hint: f64,
) -> Result<f64, EosError> {
    // Stay strictly inside the Helmholtz table's density domain.
    let (lr_lo, lr_hi) = eos.table().config().log_rho_ye;
    let rho_min = 10f64.powf(lr_lo + 0.01) * comp.abar / comp.zbar;
    let rho_max = 10f64.powf(lr_hi - 0.01) * comp.abar / comp.zbar;
    let mut lo = (rho_hint * 1e-3).max(rho_min);
    let mut hi = (rho_hint * 1e3).min(rho_max);
    // Expand the bracket if needed (within the domain).
    for _ in 0..60 {
        if lo <= rho_min || pressure_of(eos, comp, lo, temp)? < pres {
            break;
        }
        lo = (lo * 0.1).max(rho_min);
    }
    for _ in 0..60 {
        if hi >= rho_max || pressure_of(eos, comp, hi, temp)? > pres {
            break;
        }
        hi = (hi * 10.0).min(rho_max);
    }
    for _ in 0..100 {
        let mid = (lo * hi).sqrt();
        if pressure_of(eos, comp, mid, temp)? < pres {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi / lo < 1.0 + 1e-12 {
            break;
        }
    }
    Ok((lo * hi).sqrt())
}

/// Build the hydrostatic model.
///
/// * `rho_c` — central density, g/cm³ (the paper's hybrid-WD progenitors:
///   a few ×10⁹);
/// * `temp` — isothermal temperature (cold WD: a few ×10⁷ K);
/// * `rho_surface` — stop when the density falls below this;
/// * `dr` — radial step (cm).
pub fn build_wd(
    eos: &Helmholtz,
    comp: Composition,
    rho_c: f64,
    temp: f64,
    rho_surface: f64,
    dr: f64,
) -> Result<WdProfile, EosError> {
    assert!(rho_c > rho_surface && rho_surface > 0.0);
    let mut r = vec![0.0];
    let mut rho = vec![rho_c];
    let mut pres = vec![pressure_of(eos, comp, rho_c, temp)?];
    let mut m = vec![0.0];

    let mut p = pres[0];
    let mut mass = 0.0f64;
    let mut dens = rho_c;

    for i in 1..2_000_000 {
        let r_prev = (i - 1) as f64 * dr;
        let r_now = i as f64 * dr;

        // Midpoint (RK2) integration of dP/dr with the mass updated
        // consistently.
        let g_half = |mass: f64, r: f64| -> f64 {
            if r <= 0.0 {
                0.0
            } else {
                -G_NEWTON * mass / (r * r)
            }
        };
        // Half step.
        let r_half = r_prev + 0.5 * dr;
        let m_half = mass + 4.0 * std::f64::consts::PI * r_prev * r_prev * dens * 0.5 * dr;
        let p_half = p + g_half(mass, r_prev) * dens * 0.5 * dr;
        if p_half <= 0.0 {
            break;
        }
        let rho_half = rho_of_pressure(eos, comp, p_half, temp, dens)?;
        // Full step with midpoint slopes.
        p += g_half(m_half, r_half) * rho_half * dr;
        mass += 4.0 * std::f64::consts::PI * r_half * r_half * rho_half * dr;
        if p <= 0.0 {
            break;
        }
        dens = rho_of_pressure(eos, comp, p, temp, dens)?;
        r.push(r_now);
        rho.push(dens);
        pres.push(p);
        m.push(mass);
        if dens < rho_surface {
            break;
        }
    }

    Ok(WdProfile {
        r,
        rho,
        pres,
        m,
        temp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_eos::TableConfig;
    use rflash_hugepages::Policy;
    use std::sync::OnceLock;

    fn eos() -> &'static Helmholtz {
        static EOS: OnceLock<Helmholtz> = OnceLock::new();
        EOS.get_or_init(|| Helmholtz::build(TableConfig::coarse(), Policy::None).unwrap())
    }

    fn model() -> &'static WdProfile {
        static WD: OnceLock<WdProfile> = OnceLock::new();
        WD.get_or_init(|| build_wd(eos(), Composition::co_half(), 2.2e9, 5e7, 1e4, 2e5).unwrap())
    }

    #[test]
    fn chandrasekhar_scale_mass_and_radius() {
        let wd = model();
        // A cold CO white dwarf at ρc = 2.2e9: M ≈ 1.3–1.4 M⊙, R ≈ 1.5–2.2e8 cm.
        assert!(
            (1.25..1.45).contains(&wd.mass_msun()),
            "mass = {} Msun",
            wd.mass_msun()
        );
        assert!(
            (1.2e8..2.5e8).contains(&wd.radius()),
            "radius = {:e} cm",
            wd.radius()
        );
    }

    #[test]
    fn profile_is_monotone() {
        let wd = model();
        for w in wd.rho.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12), "density decreases outward");
        }
        for w in wd.m.windows(2) {
            assert!(w[1] >= w[0], "mass increases outward");
        }
    }

    #[test]
    fn interpolation_matches_nodes_and_clamps() {
        let wd = model();
        let mid = wd.r.len() / 2;
        assert_eq!(wd.rho_at(wd.r[mid]), wd.rho[mid]);
        assert_eq!(wd.rho_at(-1.0), wd.rho[0]);
        assert_eq!(wd.rho_at(1e12), *wd.rho.last().unwrap());
        let between = 0.5 * (wd.r[mid] + wd.r[mid + 1]);
        let v = wd.rho_at(between);
        assert!(v <= wd.rho[mid] && v >= wd.rho[mid + 1]);
    }

    #[test]
    fn hydrostatic_residual_is_small() {
        // dP/dr ≈ −GMρ/r² at interior points.
        let wd = model();
        let i = wd.r.len() / 3;
        let dpdr = (wd.pres[i + 1] - wd.pres[i - 1]) / (wd.r[i + 1] - wd.r[i - 1]);
        let expect = -G_NEWTON * wd.m[i] * wd.rho[i] / (wd.r[i] * wd.r[i]);
        assert!(
            ((dpdr - expect) / expect).abs() < 0.02,
            "{dpdr:e} vs {expect:e}"
        );
    }

    #[test]
    fn denser_core_is_more_massive() {
        let lighter = build_wd(eos(), Composition::co_half(), 4e8, 5e7, 1e4, 4e5).unwrap();
        let wd = model();
        assert!(wd.mass() > lighter.mass());
        assert!(lighter.mass_msun() > 0.8 && lighter.mass_msun() < wd.mass_msun());
    }
}

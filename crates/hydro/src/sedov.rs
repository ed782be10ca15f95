//! Analytic Sedov–Taylor point-explosion solution.
//!
//! The self-similar blast wave: a point energy `E₀` released at t = 0 in a
//! cold uniform medium of density ρ₀ drives a shock at
//! `R(t) = ξ₀ (E₀ t² / ρ₀)^{1/(ν+2)}` (ν = 2 cylindrical, 3 spherical).
//! We integrate the similarity ODEs numerically from the strong-shock
//! boundary conditions inward and fix ξ₀ from the energy integral — no
//! tabulated magic constants (the classic ξ₀(γ=1.4, ν=3) = 1.0328 emerges
//! as a test).
//!
//! Scalings: with δ = 2/(ν+2), ξ = r/R(t),
//! `u = δ (r/t) V(ξ)`, `c² = δ² (r/t)² Z(ξ)`, `ρ = ρ₀ G(ξ)`,
//! `p = ρ c² / γ`.

/// Integrated similarity profile plus normalization.
#[derive(Clone, Debug)]
pub struct SedovSolution {
    pub gamma: f64,
    /// Geometry index ν (2 or 3).
    pub nu: usize,
    pub e0: f64,
    pub rho0: f64,
    /// Ambient pressure (only used for the exterior state).
    pub p_ambient: f64,
    xi0: f64,
    /// Profile samples from ξ ≈ 0 to 1: (ξ, V, Z, G).
    profile: Vec<[f64; 4]>,
}

/// Solve a 3×3 linear system by Gaussian elimination with partial pivoting.
fn solve3(a: [[f64; 3]; 3], b: [f64; 3]) -> [f64; 3] {
    let mut m = [[0.0; 4]; 3];
    for r in 0..3 {
        m[r][..3].copy_from_slice(&a[r]);
        m[r][3] = b[r];
    }
    for col in 0..3 {
        let mut piv = col;
        for r in col + 1..3 {
            if m[r][col].abs() > m[piv][col].abs() {
                piv = r;
            }
        }
        m.swap(col, piv);
        let p = m[col][col];
        assert!(p.abs() > 1e-300, "singular similarity system");
        let prow = m[col];
        for (r, row) in m.iter_mut().enumerate() {
            if r != col {
                let f = row[col] / p;
                for (mc, &pc) in row.iter_mut().zip(&prow).skip(col) {
                    *mc -= f * pc;
                }
            }
        }
    }
    [m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]]
}

impl SedovSolution {
    /// Integrate the similarity ODEs and normalize via the energy integral.
    pub fn new(gamma: f64, nu: usize, e0: f64, rho0: f64, p_ambient: f64) -> SedovSolution {
        assert!(nu == 2 || nu == 3);
        assert!(gamma > 1.0 && gamma < 3.0);
        let delta = 2.0 / (nu as f64 + 2.0);
        let g = gamma;

        // Strong-shock boundary values at ξ = 1.
        let mut v = 2.0 / (g + 1.0);
        let mut z = 2.0 * g * (g - 1.0) / ((g + 1.0) * (g + 1.0));
        let mut ln_g = ((g + 1.0) / (g - 1.0)).ln();

        // d/dη of (V, Z, lnG) from the three similarity ODEs (continuity,
        // momentum, entropy advection), which are linear in the derivatives.
        let nuf = nu as f64;
        let derivs = |v: f64, z: f64| -> [f64; 3] {
            let a = [
                // continuity: dV + (V−1) dlnG = −νV
                [1.0, 0.0, v - 1.0],
                // momentum: δ(V−1) dV + (δ/γ) dZ + (δZ/γ) dlnG
                //           = −V(δV−1) − 2δZ/γ
                [delta * (v - 1.0), delta / g, delta * z / g],
                // entropy: (δ(V−1)/Z) dZ + δ(V−1)(1−γ) dlnG = 2(1−δV)
                [0.0, delta * (v - 1.0) / z, delta * (v - 1.0) * (1.0 - g)],
            ];
            let b = [
                -nuf * v,
                -v * (delta * v - 1.0) - 2.0 * delta * z / g,
                2.0 * (1.0 - delta * v),
            ];
            solve3(a, b)
        };

        // RK4 from η = 0 inward to η = −12 (ξ ≈ 6×10⁻⁶).
        let steps = 6000;
        let h = -12.0 / steps as f64;
        let mut profile = Vec::with_capacity(steps + 1);
        profile.push([1.0, v, z, ln_g.exp()]);
        let mut eta = 0.0;
        for _ in 0..steps {
            let y = [v, z, ln_g];
            let k1 = derivs(y[0], y[1]);
            let k2 = derivs(y[0] + 0.5 * h * k1[0], y[1] + 0.5 * h * k1[1]);
            let k3 = derivs(y[0] + 0.5 * h * k2[0], y[1] + 0.5 * h * k2[1]);
            let k4 = derivs(y[0] + h * k3[0], y[1] + h * k3[1]);
            v += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]);
            z += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]);
            ln_g += h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]);
            eta += h;
            profile.push([eta.exp(), v, z.max(0.0), ln_g.exp()]);
        }
        profile.reverse(); // ascending ξ

        // Energy integral I = ∫₀¹ [G V²/2 + G Z /(γ(γ−1))] ξ^{ν+1} dξ by
        // the trapezoid rule on the (log-spaced) profile.
        let integrand = |s: &[f64; 4]| -> f64 {
            let (xi, v, z, gg) = (s[0], s[1], s[2], s[3]);
            (gg * v * v / 2.0 + gg * z / (g * (g - 1.0))) * xi.powi(nu as i32 + 1)
        };
        let mut i_energy = 0.0;
        for w in profile.windows(2) {
            let dxi = w[1][0] - w[0][0];
            i_energy += 0.5 * (integrand(&w[0]) + integrand(&w[1])) * dxi;
        }
        let s_nu = match nu {
            2 => 2.0 * std::f64::consts::PI,
            _ => 4.0 * std::f64::consts::PI,
        };
        let xi0 = (s_nu * delta * delta * i_energy).powf(-1.0 / (nuf + 2.0));

        SedovSolution {
            gamma,
            nu,
            e0,
            rho0,
            p_ambient,
            xi0,
            profile,
        }
    }

    /// The dimensionless shock-position constant ξ₀.
    pub fn xi0(&self) -> f64 {
        self.xi0
    }

    /// Shock radius at time t.
    pub fn shock_radius(&self, t: f64) -> f64 {
        self.xi0 * (self.e0 * t * t / self.rho0).powf(1.0 / (self.nu as f64 + 2.0))
    }

    /// Shock speed at time t.
    #[cfg(test)]
    fn shock_speed(&self, t: f64) -> f64 {
        2.0 / (self.nu as f64 + 2.0) * self.shock_radius(t) / t
    }

    /// Interpolate the similarity profile at ξ ∈ [0, 1] → (V, Z, G).
    fn interp(&self, xi: f64) -> [f64; 3] {
        let p = &self.profile;
        if xi <= p[0][0] {
            return [p[0][1], p[0][2], p[0][3]];
        }
        if xi >= 1.0 {
            if let Some(last) = p.last() {
                return [last[1], last[2], last[3]];
            }
        }
        let idx = p.partition_point(|s| s[0] < xi).max(1);
        let (a, b) = (&p[idx - 1], &p[idx]);
        let f = (xi - a[0]) / (b[0] - a[0]).max(1e-300);
        [
            a[1] + f * (b[1] - a[1]),
            a[2] + f * (b[2] - a[2]),
            a[3] + f * (b[3] - a[3]),
        ]
    }

    /// (ρ, u_radial, p) at radius r and time t.
    pub fn state(&self, r: f64, t: f64) -> (f64, f64, f64) {
        let rs = self.shock_radius(t);
        if r >= rs || t <= 0.0 {
            return (self.rho0, 0.0, self.p_ambient);
        }
        let xi = r / rs;
        let [v, z, gg] = self.interp(xi);
        let delta = 2.0 / (self.nu as f64 + 2.0);
        let u = delta * (r / t) * v;
        let rho = self.rho0 * gg;
        let c2 = (delta * r / t).powi(2) * z;
        let p = rho * c2 / self.gamma;
        (rho, u, p.max(self.p_ambient))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_xi0_for_gamma_1_4_spherical() {
        let s = SedovSolution::new(1.4, 3, 1.0, 1.0, 1e-12);
        // Sedov's classical value: 1.03279…
        assert!(
            (s.xi0() - 1.0328).abs() < 3e-3,
            "xi0 = {} (expected ≈1.0328)",
            s.xi0()
        );
    }

    #[test]
    fn xi0_for_gamma_5_3() {
        let s = SedovSolution::new(5.0 / 3.0, 3, 1.0, 1.0, 1e-12);
        // Literature value ≈ 1.152.
        assert!((s.xi0() - 1.152).abs() < 5e-3, "xi0 = {}", s.xi0());
    }

    #[test]
    fn shock_radius_scales_as_t_to_two_fifths() {
        let s = SedovSolution::new(1.4, 3, 1e51, 1e-24, 1e-12);
        let r1 = s.shock_radius(1.0e10);
        let r2 = s.shock_radius(2.0e10);
        assert!((r2 / r1 - 2f64.powf(0.4)).abs() < 1e-12);
    }

    #[test]
    fn mass_is_conserved_inside_the_shock() {
        // ∫₀¹ G ξ^{ν−1} dξ = 1/ν: swept-up mass equals interior mass.
        for (gamma, nu) in [(1.4, 3usize), (5.0 / 3.0, 3), (1.4, 2)] {
            let s = SedovSolution::new(gamma, nu, 1.0, 1.0, 1e-12);
            let mut m = 0.0;
            for w in s.profile.windows(2) {
                let f = |p: &[f64; 4]| p[3] * p[0].powi(nu as i32 - 1);
                m += 0.5 * (f(&w[0]) + f(&w[1])) * (w[1][0] - w[0][0]);
            }
            let expect = 1.0 / nu as f64;
            assert!(
                (m - expect).abs() / expect < 2e-3,
                "gamma={gamma} nu={nu}: {m} vs {expect}"
            );
        }
    }

    #[test]
    fn jump_conditions_at_the_shock() {
        let s = SedovSolution::new(1.4, 3, 1.0, 1.0, 1e-12);
        let t = 1.0;
        let rs = s.shock_radius(t);
        // Sample very close to the front — the density profile falls
        // steeply behind it (G(0.999) is already ≈ 5.88).
        let (rho, u, p) = s.state(rs * 0.99999, t);
        // Strong-shock density jump: 6 for γ = 1.4.
        assert!((rho - 6.0).abs() < 0.05, "rho2 = {rho}");
        // Post-shock velocity: 2Ṙ/(γ+1).
        let expect_u = 2.0 / 2.4 * s.shock_speed(t);
        assert!((u - expect_u).abs() / expect_u < 2e-2, "{u} vs {expect_u}");
        // Post-shock pressure: 2ρ₀Ṙ²/(γ+1).
        let expect_p = 2.0 / 2.4 * s.shock_speed(t).powi(2);
        assert!((p - expect_p).abs() / expect_p < 2e-2, "{p} vs {expect_p}");
    }

    #[test]
    fn ambient_beyond_the_shock() {
        let s = SedovSolution::new(1.4, 3, 1.0, 2.0, 3e-9);
        let (rho, u, p) = s.state(10.0 * s.shock_radius(1.0), 1.0);
        assert_eq!((rho, u, p), (2.0, 0.0, 3e-9));
    }

    #[test]
    fn density_vanishes_toward_the_center() {
        let s = SedovSolution::new(1.4, 3, 1.0, 1.0, 1e-12);
        let (rho_c, _, _) = s.state(1e-4 * s.shock_radius(1.0), 1.0);
        assert!(rho_c < 1e-3, "hollow interior: {rho_c}");
        // And monotone outward.
        let mut prev = 0.0;
        for frac in [0.2, 0.4, 0.6, 0.8, 0.99] {
            let (rho, _, _) = s.state(frac * s.shock_radius(1.0), 1.0);
            assert!(rho >= prev);
            prev = rho;
        }
    }

    #[test]
    fn pressure_tends_to_finite_center_value() {
        // The Sedov interior has nearly uniform pressure ≈ 0.3–0.5 of the
        // post-shock value.
        let s = SedovSolution::new(1.4, 3, 1.0, 1.0, 1e-12);
        let t = 1.0;
        let (_, _, p_shock) = s.state(0.999 * s.shock_radius(t), t);
        let (_, _, p_center) = s.state(0.05 * s.shock_radius(t), t);
        let ratio = p_center / p_shock;
        assert!(
            (0.2..0.6).contains(&ratio),
            "central pressure plateau ratio {ratio}"
        );
    }
}

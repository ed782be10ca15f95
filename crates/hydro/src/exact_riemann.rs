//! Exact Riemann solver for the gamma-law gas (Toro ch. 4).
//!
//! Used to validate the HLLC solver and the full shock-tube evolution; the
//! paper's hydro solver heritage (PPM) was historically verified the same
//! way (Fryxell et al. 2000 §8).

/// A constant state for the exact solver.
#[derive(Clone, Copy, Debug)]
pub struct GasState {
    pub dens: f64,
    pub vel: f64,
    pub pres: f64,
}

/// Star-region solution of the Riemann problem.
#[derive(Clone, Copy, Debug)]
pub struct StarState {
    pub pres: f64,
    pub vel: f64,
    /// Density left/right of the contact.
    pub dens_l: f64,
    pub dens_r: f64,
}

/// Exact Riemann solution for a gamma-law gas.
pub struct ExactRiemann {
    pub gamma: f64,
    pub left: GasState,
    pub right: GasState,
    star: StarState,
}

impl ExactRiemann {
    /// Solve the star region by Newton iteration on the pressure function
    /// (Toro eq. 4.5), with a positivity check for vacuum generation.
    pub fn new(gamma: f64, left: GasState, right: GasState) -> ExactRiemann {
        assert!(gamma > 1.0);
        assert!(left.dens > 0.0 && right.dens > 0.0);
        assert!(left.pres > 0.0 && right.pres > 0.0);
        let cl = (gamma * left.pres / left.dens).sqrt();
        let cr = (gamma * right.pres / right.dens).sqrt();
        // Vacuum check (Toro eq. 4.40).
        assert!(
            2.0 * (cl + cr) / (gamma - 1.0) > right.vel - left.vel,
            "initial states generate vacuum"
        );

        // f_K(p): change of velocity across the K-wave (Toro eqs. 4.6/4.7).
        let f = |p: f64, s: &GasState, c: f64| -> (f64, f64) {
            if p > s.pres {
                // Shock.
                let a = 2.0 / ((gamma + 1.0) * s.dens);
                let b = (gamma - 1.0) / (gamma + 1.0) * s.pres;
                let sq = (a / (p + b)).sqrt();
                let fv = (p - s.pres) * sq;
                let dfv = sq * (1.0 - 0.5 * (p - s.pres) / (p + b));
                (fv, dfv)
            } else {
                // Rarefaction.
                let pr = p / s.pres;
                let fv = 2.0 * c / (gamma - 1.0) * (pr.powf((gamma - 1.0) / (2.0 * gamma)) - 1.0);
                let dfv = 1.0 / (s.dens * c) * pr.powf(-(gamma + 1.0) / (2.0 * gamma));
                (fv, dfv)
            }
        };

        // Initial guess: two-rarefaction approximation (Toro eq. 4.46).
        let z = (gamma - 1.0) / (2.0 * gamma);
        let mut p = ((cl + cr - 0.5 * (gamma - 1.0) * (right.vel - left.vel))
            / (cl / left.pres.powf(z) + cr / right.pres.powf(z)))
        .powf(1.0 / z);
        if !p.is_finite() || p <= 0.0 {
            p = 0.5 * (left.pres + right.pres);
        }

        let du = right.vel - left.vel;
        for _ in 0..100 {
            let (fl, dfl) = f(p, &left, cl);
            let (fr, dfr) = f(p, &right, cr);
            let g = fl + fr + du;
            let dg = dfl + dfr;
            let p_new = (p - g / dg).max(1e-14 * p);
            if (p_new - p).abs() / (0.5 * (p_new + p)) < 1e-14 {
                p = p_new;
                break;
            }
            p = p_new;
        }

        let (fl, _) = f(p, &left, cl);
        let (fr, _) = f(p, &right, cr);
        let u_star = 0.5 * (left.vel + right.vel) + 0.5 * (fr - fl);

        // Star densities (shock: Rankine–Hugoniot; rarefaction: isentrope).
        let star_dens = |s: &GasState, p_star: f64| -> f64 {
            if p_star > s.pres {
                let r = p_star / s.pres;
                let g1 = (gamma - 1.0) / (gamma + 1.0);
                s.dens * (r + g1) / (g1 * r + 1.0)
            } else {
                s.dens * (p_star / s.pres).powf(1.0 / gamma)
            }
        };

        ExactRiemann {
            gamma,
            left,
            right,
            star: StarState {
                pres: p,
                vel: u_star,
                dens_l: star_dens(&left, p),
                dens_r: star_dens(&right, p),
            },
        }
    }

    /// The star region.
    pub fn star(&self) -> StarState {
        self.star
    }

    /// Sample the self-similar solution at speed ξ = x/t (Toro §4.5).
    pub fn sample(&self, xi: f64) -> GasState {
        let g = self.gamma;
        let s = &self.star;
        if xi <= s.vel {
            // Left of the contact.
            let k = &self.left;
            let c = (g * k.pres / k.dens).sqrt();
            if s.pres > k.pres {
                // Left shock.
                let shock_speed = k.vel
                    - c * ((g + 1.0) / (2.0 * g) * s.pres / k.pres + (g - 1.0) / (2.0 * g)).sqrt();
                if xi < shock_speed {
                    *k
                } else {
                    GasState {
                        dens: s.dens_l,
                        vel: s.vel,
                        pres: s.pres,
                    }
                }
            } else {
                // Left rarefaction.
                let c_star = c * (s.pres / k.pres).powf((g - 1.0) / (2.0 * g));
                let head = k.vel - c;
                let tail = s.vel - c_star;
                if xi < head {
                    *k
                } else if xi > tail {
                    GasState {
                        dens: s.dens_l,
                        vel: s.vel,
                        pres: s.pres,
                    }
                } else {
                    // Inside the fan.
                    let u = 2.0 / (g + 1.0) * (c + (g - 1.0) / 2.0 * k.vel + xi);
                    let cfan = 2.0 / (g + 1.0) * (c + (g - 1.0) / 2.0 * (k.vel - xi));
                    let dens = k.dens * (cfan / c).powf(2.0 / (g - 1.0));
                    let pres = k.pres * (cfan / c).powf(2.0 * g / (g - 1.0));
                    GasState { dens, vel: u, pres }
                }
            }
        } else {
            // Right of the contact (mirror).
            let k = &self.right;
            let c = (g * k.pres / k.dens).sqrt();
            if s.pres > k.pres {
                let shock_speed = k.vel
                    + c * ((g + 1.0) / (2.0 * g) * s.pres / k.pres + (g - 1.0) / (2.0 * g)).sqrt();
                if xi > shock_speed {
                    *k
                } else {
                    GasState {
                        dens: s.dens_r,
                        vel: s.vel,
                        pres: s.pres,
                    }
                }
            } else {
                let c_star = c * (s.pres / k.pres).powf((g - 1.0) / (2.0 * g));
                let head = k.vel + c;
                let tail = s.vel + c_star;
                if xi > head {
                    *k
                } else if xi < tail {
                    GasState {
                        dens: s.dens_r,
                        vel: s.vel,
                        pres: s.pres,
                    }
                } else {
                    let u = 2.0 / (g + 1.0) * (-c + (g - 1.0) / 2.0 * k.vel + xi);
                    let cfan = 2.0 / (g + 1.0) * (c - (g - 1.0) / 2.0 * (k.vel - xi));
                    let dens = k.dens * (cfan / c).powf(2.0 / (g - 1.0));
                    let pres = k.pres * (cfan / c).powf(2.0 * g / (g - 1.0));
                    GasState { dens, vel: u, pres }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toro's test 1: the Sod problem. Known star values (Toro table 4.3):
    /// p* = 0.30313, u* = 0.92745.
    #[test]
    fn sod_star_state_matches_toro() {
        let ex = ExactRiemann::new(
            1.4,
            GasState {
                dens: 1.0,
                vel: 0.0,
                pres: 1.0,
            },
            GasState {
                dens: 0.125,
                vel: 0.0,
                pres: 0.1,
            },
        );
        let s = ex.star();
        assert!((s.pres - 0.30313).abs() < 1e-4, "p* = {}", s.pres);
        assert!((s.vel - 0.92745).abs() < 1e-4, "u* = {}", s.vel);
        // Star densities from Toro: 0.42632 (left of contact), 0.26557 (right).
        assert!((s.dens_l - 0.42632).abs() < 1e-4, "{}", s.dens_l);
        assert!((s.dens_r - 0.26557).abs() < 1e-4, "{}", s.dens_r);
    }

    /// Toro's test 2: the 123 problem (double rarefaction). p* ≈ 0.00189.
    #[test]
    fn double_rarefaction_star() {
        let ex = ExactRiemann::new(
            1.4,
            GasState {
                dens: 1.0,
                vel: -2.0,
                pres: 0.4,
            },
            GasState {
                dens: 1.0,
                vel: 2.0,
                pres: 0.4,
            },
        );
        let s = ex.star();
        assert!((s.pres - 0.00189).abs() < 5e-5, "p* = {}", s.pres);
        assert!(s.vel.abs() < 1e-10, "symmetric: u* = {}", s.vel);
    }

    /// Toro's test 3: strong left blast. p* ≈ 460.894, u* ≈ 19.5975.
    #[test]
    fn strong_blast_star() {
        let ex = ExactRiemann::new(
            1.4,
            GasState {
                dens: 1.0,
                vel: 0.0,
                pres: 1000.0,
            },
            GasState {
                dens: 1.0,
                vel: 0.0,
                pres: 0.01,
            },
        );
        let s = ex.star();
        assert!((s.pres - 460.894).abs() / 460.894 < 1e-4, "p* = {}", s.pres);
        assert!((s.vel - 19.5975).abs() / 19.5975 < 1e-4, "u* = {}", s.vel);
    }

    #[test]
    fn sampling_recovers_far_field_and_contact() {
        let l = GasState {
            dens: 1.0,
            vel: 0.0,
            pres: 1.0,
        };
        let r = GasState {
            dens: 0.125,
            vel: 0.0,
            pres: 0.1,
        };
        let ex = ExactRiemann::new(1.4, l, r);
        // Far field.
        let far_l = ex.sample(-10.0);
        assert_eq!(far_l.dens, 1.0);
        let far_r = ex.sample(10.0);
        assert_eq!(far_r.dens, 0.125);
        // Just either side of the contact: same p and u, different dens.
        let a = ex.sample(ex.star().vel - 1e-9);
        let b = ex.sample(ex.star().vel + 1e-9);
        assert!((a.pres - b.pres).abs() < 1e-9);
        assert!((a.vel - b.vel).abs() < 1e-9);
        assert!(a.dens > b.dens);
    }

    #[test]
    fn sampled_profile_is_physical_everywhere() {
        let ex = ExactRiemann::new(
            5.0 / 3.0,
            GasState {
                dens: 2.0,
                vel: 0.5,
                pres: 3.0,
            },
            GasState {
                dens: 0.5,
                vel: -0.3,
                pres: 0.2,
            },
        );
        for i in -100..=100 {
            let s = ex.sample(i as f64 * 0.05);
            assert!(
                s.dens > 0.0 && s.pres > 0.0,
                "xi={}: {s:?}",
                i as f64 * 0.05
            );
        }
    }

    #[test]
    #[should_panic(expected = "vacuum")]
    fn vacuum_generation_rejected() {
        let _ = ExactRiemann::new(
            1.4,
            GasState {
                dens: 1.0,
                vel: -20.0,
                pres: 0.1,
            },
            GasState {
                dens: 1.0,
                vel: 20.0,
                pres: 0.1,
            },
        );
    }
}

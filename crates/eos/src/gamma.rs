//! Ideal-gas gamma-law EOS — FLASH's default for pure-hydro test problems
//! like the Sedov explosion (the paper's "3-d Hydro" test).

use crate::consts::{K_B, N_A};
use crate::{BatchReport, Eos, EosBatch, EosError, EosMode, EosState};

/// P = (γ−1) ρ e, with temperature defined through the ideal-gas specific
/// heat c_v = Nₐ k / (Ā (γ−1)).
#[derive(Clone, Copy, Debug)]
pub struct GammaLaw {
    gamma: f64,
}

impl GammaLaw {
    /// # Panics
    /// `gamma` must exceed 1 (otherwise c_v and the sound speed are
    /// undefined).
    pub fn new(gamma: f64) -> GammaLaw {
        assert!(gamma > 1.0, "gamma-law EOS requires gamma > 1");
        GammaLaw { gamma }
    }

    /// The adiabatic index.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    fn cv(&self, abar: f64) -> f64 {
        N_A * K_B / (abar * (self.gamma - 1.0))
    }
}

impl Default for GammaLaw {
    /// The monatomic-gas 5/3 used by the FLASH Sedov setup.
    fn default() -> Self {
        GammaLaw::new(5.0 / 3.0)
    }
}

impl Eos for GammaLaw {
    fn call(&self, mode: EosMode, s: &mut EosState) -> Result<(), EosError> {
        if !(s.dens.is_finite() && s.dens > 0.0) {
            return Err(EosError::BadInput {
                what: "dens",
                value: s.dens,
            });
        }
        let cv = self.cv(s.abar);
        match mode {
            EosMode::DensTemp => {
                if s.temp.is_nan() || s.temp <= 0.0 {
                    return Err(EosError::BadInput {
                        what: "temp",
                        value: s.temp,
                    });
                }
                s.eint = cv * s.temp;
            }
            EosMode::DensEi => {
                if s.eint.is_nan() || s.eint <= 0.0 {
                    return Err(EosError::BadInput {
                        what: "eint",
                        value: s.eint,
                    });
                }
                s.temp = s.eint / cv;
            }
            EosMode::DensPres => {
                if s.pres.is_nan() || s.pres <= 0.0 {
                    return Err(EosError::BadInput {
                        what: "pres",
                        value: s.pres,
                    });
                }
                s.eint = s.pres / ((self.gamma - 1.0) * s.dens);
                s.temp = s.eint / cv;
            }
        }
        s.pres = (self.gamma - 1.0) * s.dens * s.eint;
        s.cv = cv;
        s.gamc = self.gamma;
        s.entr = cv * (s.temp.max(f64::MIN_POSITIVE).ln() - (self.gamma - 1.0) * s.dens.ln());
        s.finish_derived();
        Ok(())
    }

    fn name(&self) -> &'static str {
        "gamma-law"
    }

    /// Branch-light lane loops. Entropy is not an [`EosBatch`] output, so
    /// the two `ln` calls of the scalar path are skipped; every output lane
    /// is bit-identical to `call` (same expressions, same order).
    fn eos_batch(&self, mode: EosMode, b: &mut EosBatch<'_>) -> Result<BatchReport, EosError> {
        let lanes = b.lanes();
        for l in 0..lanes {
            let dens = b.dens[l];
            if !(dens.is_finite() && dens > 0.0) {
                return Err(EosError::BadInput {
                    what: "dens",
                    value: dens,
                });
            }
            match mode {
                EosMode::DensTemp => {
                    if b.temp[l].is_nan() || b.temp[l] <= 0.0 {
                        return Err(EosError::BadInput {
                            what: "temp",
                            value: b.temp[l],
                        });
                    }
                }
                EosMode::DensEi => {
                    if b.eint[l].is_nan() || b.eint[l] <= 0.0 {
                        return Err(EosError::BadInput {
                            what: "eint",
                            value: b.eint[l],
                        });
                    }
                }
                EosMode::DensPres => {
                    if b.pres[l].is_nan() || b.pres[l] <= 0.0 {
                        return Err(EosError::BadInput {
                            what: "pres",
                            value: b.pres[l],
                        });
                    }
                }
            }
        }
        let gm1 = self.gamma - 1.0;
        match mode {
            EosMode::DensTemp => {
                for l in 0..lanes {
                    b.eint[l] = self.cv(b.abar[l]) * b.temp[l];
                }
            }
            EosMode::DensEi => {
                for l in 0..lanes {
                    b.temp[l] = b.eint[l] / self.cv(b.abar[l]);
                }
            }
            EosMode::DensPres => {
                for l in 0..lanes {
                    b.eint[l] = b.pres[l] / (gm1 * b.dens[l]);
                    b.temp[l] = b.eint[l] / self.cv(b.abar[l]);
                }
            }
        }
        for l in 0..lanes {
            b.pres[l] = gm1 * b.dens[l] * b.eint[l];
            b.gamc[l] = self.gamma;
            b.game[l] = 1.0 + b.pres[l] / (b.dens[l] * b.eint[l]).max(f64::MIN_POSITIVE);
        }
        Ok(BatchReport {
            lanes: lanes as u64,
            vector_lanes: lanes as u64,
            ..Default::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> EosState {
        let mut s = EosState::co_wd(1.0, 0.0);
        s.abar = 1.0;
        s.zbar = 1.0;
        s
    }

    #[test]
    fn dens_temp_gives_ideal_gas_pressure() {
        let eos = GammaLaw::default();
        let mut s = state();
        s.temp = 1e6;
        eos.call(EosMode::DensTemp, &mut s).unwrap();
        let expect = s.dens * N_A * K_B * s.temp / s.abar;
        assert!((s.pres - expect).abs() / expect < 1e-12);
        assert!((s.game - eos.gamma()).abs() < 1e-12);
        assert!(s.cs > 0.0);
    }

    #[test]
    fn modes_round_trip() {
        let eos = GammaLaw::new(1.4);
        let mut s = state();
        s.temp = 3e7;
        eos.call(EosMode::DensTemp, &mut s).unwrap();
        let (p0, e0, t0) = (s.pres, s.eint, s.temp);

        // Perturb temp, recover it from energy.
        s.temp = 0.0;
        eos.call(EosMode::DensEi, &mut s).unwrap();
        assert!((s.temp - t0).abs() / t0 < 1e-12);

        // Recover from pressure.
        s.temp = 0.0;
        s.eint = 0.0;
        s.pres = p0;
        eos.call(EosMode::DensPres, &mut s).unwrap();
        assert!((s.eint - e0).abs() / e0 < 1e-12);
        assert!((s.temp - t0).abs() / t0 < 1e-12);
    }

    #[test]
    fn sound_speed_formula() {
        let eos = GammaLaw::default();
        let mut s = state();
        s.dens = 2.0;
        s.temp = 1e6;
        eos.call(EosMode::DensTemp, &mut s).unwrap();
        let expect = (eos.gamma() * s.pres / s.dens).sqrt();
        assert!((s.cs - expect).abs() / expect < 1e-14);
    }

    #[test]
    fn entropy_increases_with_temperature() {
        let eos = GammaLaw::default();
        let mut a = state();
        a.temp = 1e6;
        eos.call(EosMode::DensTemp, &mut a).unwrap();
        let mut b = state();
        b.temp = 1e7;
        eos.call(EosMode::DensTemp, &mut b).unwrap();
        assert!(b.entr > a.entr);
    }

    #[test]
    fn bad_inputs_rejected() {
        let eos = GammaLaw::default();
        let mut s = state();
        s.dens = -1.0;
        assert!(eos.call(EosMode::DensTemp, &mut s).is_err());
        let mut s = state();
        s.temp = 0.0;
        assert!(eos.call(EosMode::DensTemp, &mut s).is_err());
        let mut s = state();
        s.eint = -5.0;
        assert!(eos.call(EosMode::DensEi, &mut s).is_err());
    }

    #[test]
    #[should_panic(expected = "gamma > 1")]
    fn gamma_must_exceed_one() {
        let _ = GammaLaw::new(1.0);
    }

    #[test]
    fn batched_lanes_are_bit_exact_vs_scalar() {
        let eos = GammaLaw::new(1.4);
        for mode in [EosMode::DensTemp, EosMode::DensEi, EosMode::DensPres] {
            let n = 9;
            let dens: Vec<f64> = (0..n).map(|i| 0.5 + 0.37 * i as f64).collect();
            let mut eint: Vec<f64> = (0..n).map(|i| 1e12 * (1.0 + 0.11 * i as f64)).collect();
            let mut temp: Vec<f64> = (0..n).map(|i| 1e6 * (1.0 + 0.07 * i as f64)).collect();
            let abar: Vec<f64> = (0..n).map(|i| 1.0 + 0.2 * i as f64).collect();
            let zbar = vec![1.0; n];
            let mut pres: Vec<f64> = (0..n).map(|i| 1e11 * (1.0 + 0.13 * i as f64)).collect();
            let mut gamc = vec![0.0; n];
            let mut game = vec![0.0; n];

            let mut scalar = Vec::new();
            for l in 0..n {
                let mut s = state();
                s.dens = dens[l];
                s.temp = temp[l];
                s.abar = abar[l];
                s.eint = eint[l];
                s.pres = pres[l];
                eos.call(mode, &mut s).unwrap();
                scalar.push(s);
            }

            let mut b = EosBatch {
                dens: &dens,
                eint: &mut eint,
                temp: &mut temp,
                abar: &abar,
                zbar: &zbar,
                pres: &mut pres,
                gamc: &mut gamc,
                game: &mut game,
            };
            let report = eos.eos_batch(mode, &mut b).unwrap();
            assert_eq!(report.vector_lanes, n as u64, "{mode:?}");
            for l in 0..n {
                assert_eq!(temp[l], scalar[l].temp, "{mode:?} lane {l} temp");
                assert_eq!(eint[l], scalar[l].eint, "{mode:?} lane {l} eint");
                assert_eq!(pres[l], scalar[l].pres, "{mode:?} lane {l} pres");
                assert_eq!(gamc[l], scalar[l].gamc, "{mode:?} lane {l} gamc");
                assert_eq!(game[l], scalar[l].game, "{mode:?} lane {l} game");
            }
        }
    }
}

//! Batched (structure-of-arrays) EOS interface.
//!
//! Real FLASH feeds its Helmholtz routine *vectors* of zones (`eosvector`
//! with `vecLen` lanes), not one zone at a time; the per-zone `Eos::call`
//! path exists for flexibility, but the hot paths — the driver's
//! `Eos_wrapped(MODE_DENS_EI)` pass and the sweep's post-update EOS — hand
//! whole pencils to [`crate::Eos::eos_batch`] through this view.
//!
//! # Contract
//!
//! [`EosBatch`] is a borrowed SoA view over equal-length lanes. Inputs per
//! mode follow [`crate::EosMode`]; `temp` doubles as the inversion guess for
//! `DensEi`/`DensPres`. On success every output lane (`temp`, `pres`,
//! `gamc`, `game`, and `eint` where the mode derives it) holds exactly the
//! value the scalar [`crate::Eos::call`] would have produced for that lane —
//! batching is a layout optimization, never a physics change. Implementations
//! with a vectorized fast path (Helmholtz) keep non-converged lanes in the
//! compacted active set as a masked re-iteration; lanes that stop at the
//! table's edge clamp past their goal, collapse their bracket or exhaust
//! the iteration budget are accepted on the same residual-plateau
//! criterion the scalar routine applies. The [`BatchReport`] says how many lanes converged
//! cleanly (`vector_lanes`), how many were plateau-accepted
//! (`plateau_lanes`), and how occupancy decayed per Newton iteration
//! (`iter_hist`).
//!
//! On `Err` the output lanes are unspecified (the first failing lane aborts
//! the batch, matching the scalar path's per-zone abort).

/// A structure-of-arrays view of one batch of zones.
///
/// All slices must have the same length (debug-asserted by [`lanes`]
/// (EosBatch::lanes)); a zero-length batch is a no-op.
pub struct EosBatch<'a> {
    /// Mass density per lane, g/cm³ (input).
    pub dens: &'a [f64],
    /// Specific internal energy, erg/g (input goal for `DensEi`; output for
    /// `DensTemp`/`DensPres`).
    pub eint: &'a mut [f64],
    /// Temperature, K (inversion guess in; solution out).
    pub temp: &'a mut [f64],
    /// Mean atomic mass per lane (input).
    pub abar: &'a [f64],
    /// Mean nuclear charge per lane (input).
    pub zbar: &'a [f64],
    /// Pressure, erg/cm³ (input goal for `DensPres`; output otherwise).
    pub pres: &'a mut [f64],
    /// First adiabatic index Γ₁ (output).
    pub gamc: &'a mut [f64],
    /// Energy-like gamma Γₑ = 1 + P/(ρe) (output).
    pub game: &'a mut [f64],
}

impl EosBatch<'_> {
    /// Number of lanes in the batch.
    #[inline]
    pub fn lanes(&self) -> usize {
        let n = self.dens.len();
        debug_assert!(
            self.eint.len() == n
                && self.temp.len() == n
                && self.abar.len() == n
                && self.zbar.len() == n
                && self.pres.len() == n
                && self.gamc.len() == n
                && self.game.len() == n,
            "EosBatch lanes must have equal lengths"
        );
        n
    }
}

/// Bins in [`BatchReport::iter_hist`]: bin `i` counts lanes still active
/// entering Newton iteration `i`; the last bin accumulates everything past
/// it.
pub const NEWTON_HIST_BINS: usize = 16;

/// How a batched EOS call was serviced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Total lanes processed.
    pub lanes: u64,
    /// Lanes the vectorized fast path converged cleanly (residual below
    /// the Newton tolerance). The default per-zone implementation
    /// reports 0.
    pub vector_lanes: u64,
    /// Lanes that stopped without a clean exit (at the edge clamp past
    /// their goal, on a collapsed bracket, or out of iterations) and were
    /// accepted on the residual-plateau criterion — counted separately so
    /// `vector_lanes` stays an honest clean-convergence figure.
    pub plateau_lanes: u64,
    /// Active-lane count entering each Newton iteration (masked
    /// re-iteration occupancy decay). All zeros for non-iterating EOS
    /// implementations.
    pub iter_hist: [u64; NEWTON_HIST_BINS],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Eos, EosError, EosMode, GammaLaw};

    fn run_batch(eos: &dyn Eos, mode: EosMode, n: usize) -> (Vec<f64>, Vec<f64>, BatchReport) {
        let dens: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut eint: Vec<f64> = (0..n).map(|i| 1e12 * (1.0 + i as f64)).collect();
        let mut temp = vec![1e6; n];
        let abar = vec![1.0; n];
        let zbar = vec![1.0; n];
        let mut pres = vec![0.0; n];
        let mut gamc = vec![0.0; n];
        let mut game = vec![0.0; n];
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
        (pres, temp, report)
    }

    #[test]
    fn default_fallback_matches_scalar_calls() {
        let eos = GammaLaw::new(1.4);
        let n = 7;
        let (pres, temp, report) = run_batch(&eos, EosMode::DensEi, n);
        assert_eq!(report.lanes, n as u64);
        for i in 0..n {
            let mut s = crate::EosState::co_wd(1.0 + i as f64, 1e6);
            s.abar = 1.0;
            s.zbar = 1.0;
            s.eint = 1e12 * (1.0 + i as f64);
            eos.call(EosMode::DensEi, &mut s).unwrap();
            assert_eq!(pres[i], s.pres, "lane {i} pressure");
            assert_eq!(temp[i], s.temp, "lane {i} temperature");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let eos = GammaLaw::new(1.4);
        let (_, _, report) = run_batch(&eos, EosMode::DensEi, 0);
        assert_eq!(report.lanes, 0);
    }

    #[test]
    fn bad_lane_aborts_the_batch() {
        let eos = GammaLaw::new(1.4);
        let dens = [1.0, -1.0];
        let mut eint = [1e12, 1e12];
        let mut temp = [0.0, 0.0];
        let abar = [1.0, 1.0];
        let zbar = [1.0, 1.0];
        let mut pres = [0.0, 0.0];
        let mut gamc = [0.0, 0.0];
        let mut game = [0.0, 0.0];
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
        assert!(matches!(
            eos.eos_batch(EosMode::DensEi, &mut b),
            Err(EosError::BadInput { .. })
        ));
    }
}

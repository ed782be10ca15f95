//! Which EOS the run uses, plus the (uniform) composition.
//!
//! FLASH carries per-zone species; the paper's two problems use a fixed
//! composition each (ideal gas for Sedov, C/O white-dwarf matter for the
//! supernova), so a uniform `(abar, zbar)` suffices and matches the data
//! flow the EOS unit sees.

use rflash_eos::{BatchReport, Eos, EosBatch, EosError, EosMode, EosState, GammaLaw, Helmholtz};
use serde::{Deserialize, Serialize};

/// Mean atomic mass / charge of the (uniform) mixture.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Composition {
    pub abar: f64,
    pub zbar: f64,
}

impl Composition {
    /// 50/50 carbon/oxygen by mass.
    pub fn co_half() -> Composition {
        Composition {
            abar: 13.714285714285715,
            zbar: 6.857142857142857,
        }
    }

    /// Fully-ionized hydrogen-like ideal gas.
    pub fn ideal() -> Composition {
        Composition {
            abar: 1.0,
            zbar: 1.0,
        }
    }
}

/// The run's EOS.
pub enum EosChoice {
    Gamma(GammaLaw),
    Helmholtz(Box<Helmholtz>),
}

impl EosChoice {
    /// Evaluate with the composition applied.
    pub fn call(
        &self,
        mode: EosMode,
        comp: Composition,
        state: &mut EosState,
    ) -> Result<(), EosError> {
        state.abar = comp.abar;
        state.zbar = comp.zbar;
        match self {
            EosChoice::Gamma(g) => g.call(mode, state),
            EosChoice::Helmholtz(h) => h.call(mode, state),
        }
    }

    /// Batched SoA evaluation — dispatches to the underlying
    /// [`Eos::eos_batch`] (the caller fills the composition lanes).
    pub fn eos_batch(
        &self,
        mode: EosMode,
        batch: &mut EosBatch<'_>,
    ) -> Result<BatchReport, EosError> {
        match self {
            EosChoice::Gamma(g) => g.eos_batch(mode, batch),
            EosChoice::Helmholtz(h) => h.eos_batch(mode, batch),
        }
    }

    /// Select the SIMD backend for EOS implementations with an explicit
    /// lane path (Helmholtz); a no-op for the gamma law, whose lane loops
    /// the autovectorizer already handles.
    pub fn set_simd(&mut self, simd: rflash_simd::Resolved) {
        match self {
            EosChoice::Gamma(_) => {}
            EosChoice::Helmholtz(h) => h.set_simd(simd),
        }
    }

    /// Access the Helmholtz table when present (gather-pattern recording,
    /// backing audits).
    pub fn helmholtz(&self) -> Option<&Helmholtz> {
        match self {
            EosChoice::Gamma(_) => None,
            EosChoice::Helmholtz(h) => Some(h),
        }
    }

    /// Short name of the underlying EOS ("gamma-law" / "helmholtz").
    pub fn name(&self) -> &'static str {
        match self {
            EosChoice::Gamma(g) => g.name(),
            EosChoice::Helmholtz(h) => h.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_choice_dispatches() {
        let eos = EosChoice::Gamma(GammaLaw::new(1.4));
        let mut s = EosState::co_wd(1.0, 1e6);
        eos.call(EosMode::DensTemp, Composition::ideal(), &mut s)
            .unwrap();
        assert_eq!(s.abar, 1.0, "composition applied");
        assert!(s.pres > 0.0);
        assert!(eos.helmholtz().is_none());
        assert_eq!(eos.name(), "gamma-law");
    }

    #[test]
    fn co_composition_is_ye_half() {
        let c = Composition::co_half();
        assert!((c.zbar / c.abar - 0.5).abs() < 1e-12);
    }
}

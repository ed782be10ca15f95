//! Equations of state for the FLASH reproduction.
//!
//! The paper's "EOS" experiment instruments FLASH's equation-of-state unit
//! while running a 2-d thermonuclear-supernova simulation: for white-dwarf
//! matter that unit is a Helmholtz-style tabulated EOS for the degenerate,
//! partially relativistic electron/positron plasma, plus ideal ions and
//! radiation. Profiling on Ookami found FLASH "spent considerable time in
//! the routines for the EOS" (§II) — it is the table-lookup-heavy, stride-y
//! kernel whose DTLB behaviour huge pages improve most (Table I).
//!
//! This crate implements that unit from scratch:
//!
//! * [`fermi`] — generalized Fermi–Dirac integrals by quadrature;
//! * [`electron`] — exact electron/positron thermodynamics built on them
//!   (chemical-potential solve for charge neutrality);
//! * [`table`] — a tabulated version on a (log ρYₑ, log T) grid with
//!   bicubic Hermite interpolation, stored in a
//!   [`rflash_hugepages::PageBuffer`] so its backing follows the huge-page
//!   policy under study;
//! * [`helmholtz`] — the full EOS (electrons + positrons + ions +
//!   radiation) with the FLASH call modes;
//! * [`gamma`] — the ideal-gas gamma-law EOS used by the Sedov problem.
//!
//! # Call interface
//!
//! The FLASH `Eos_wrapped` interface is mirrored by [`Eos::call`] with
//! [`EosMode`]: `DensTemp` evaluates directly, `DensEi` and `DensPres`
//! invert for temperature with Newton iterations.

pub mod batch;
pub mod consts;
pub mod electron;
pub mod fermi;
pub mod gamma;
pub mod helmholtz;
pub mod table;

pub use batch::{BatchReport, EosBatch};
pub use gamma::GammaLaw;
pub use helmholtz::Helmholtz;
pub use table::{HelmTable, RowsBuilt, TableConfig};

use serde::{Deserialize, Serialize};

/// Which pair of inputs is authoritative for an EOS call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EosMode {
    /// Density and temperature in; everything else out.
    DensTemp,
    /// Density and specific internal energy in; solve for temperature.
    DensEi,
    /// Density and pressure in; solve for temperature.
    DensPres,
}

/// The per-zone thermodynamic state exchanged with the EOS —
/// FLASH's `eosData` block.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EosState {
    /// Mass density, g/cm³.
    pub dens: f64,
    /// Temperature, K.
    pub temp: f64,
    /// Mean atomic mass (amu per nucleus).
    pub abar: f64,
    /// Mean nuclear charge.
    pub zbar: f64,
    /// Pressure, erg/cm³.
    pub pres: f64,
    /// Specific internal energy, erg/g.
    pub eint: f64,
    /// Specific entropy, erg/(g·K).
    pub entr: f64,
    /// First adiabatic index Γ₁ = ∂lnP/∂lnρ at constant entropy.
    pub gamc: f64,
    /// Energy-like gamma: Γₑ = 1 + P/(ρ·e).
    pub game: f64,
    /// Adiabatic sound speed, cm/s.
    pub cs: f64,
    /// Specific heat at constant volume, erg/(g·K).
    pub cv: f64,
}

impl EosState {
    /// A blank state for carbon/oxygen matter (abar=13.7, zbar=6.9 ≈ 50/50
    /// C/O by mass), the paper's white-dwarf composition.
    pub fn co_wd(dens: f64, temp: f64) -> EosState {
        EosState {
            dens,
            temp,
            abar: 13.714285714285715, // 50/50 C12/O16 by mass
            zbar: 6.857142857142857,
            pres: 0.0,
            eint: 0.0,
            entr: 0.0,
            gamc: 0.0,
            game: 0.0,
            cs: 0.0,
            cv: 0.0,
        }
    }

    /// Electron fraction Yₑ = Z̄/Ā.
    #[inline]
    pub fn ye(&self) -> f64 {
        self.zbar / self.abar
    }

    /// Recompute `game` and `cs` from (pres, eint, gamc); helper shared by
    /// EOS implementations.
    pub(crate) fn finish_derived(&mut self) {
        self.game = 1.0 + self.pres / (self.dens * self.eint).max(f64::MIN_POSITIVE);
        self.cs = (self.gamc * self.pres / self.dens).max(0.0).sqrt();
    }
}

/// Errors from EOS evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EosError {
    /// Inputs outside the validity/table domain.
    OutOfRange {
        what: &'static str,
        value: f64,
        lo: f64,
        hi: f64,
    },
    /// The Newton/bisection inversion failed to converge.
    NoConvergence { mode: &'static str, residual: f64 },
    /// Non-physical input (negative density etc.).
    BadInput { what: &'static str, value: f64 },
    /// Backing-store allocation for a table failed.
    Allocation { what: &'static str, detail: String },
}

impl std::fmt::Display for EosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EosError::OutOfRange {
                what,
                value,
                lo,
                hi,
            } => write!(f, "{what}={value:e} outside [{lo:e}, {hi:e}]"),
            EosError::NoConvergence { mode, residual } => {
                write!(
                    f,
                    "{mode} inversion failed to converge (residual {residual:e})"
                )
            }
            EosError::BadInput { what, value } => write!(f, "bad input {what}={value:e}"),
            EosError::Allocation { what, detail } => {
                write!(f, "allocating {what} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for EosError {}

/// The EOS interface FLASH's physics units call.
pub trait Eos: Send + Sync {
    /// Evaluate/invert the state in place according to `mode`.
    fn call(&self, mode: EosMode, state: &mut EosState) -> Result<(), EosError>;

    /// A short name for reports.
    fn name(&self) -> &'static str;

    /// Evaluate/invert a whole batch of zones at once (FLASH's `eosvector`).
    ///
    /// The default implementation is the per-zone fallback guaranteed by the
    /// [`batch`] contract: it loops [`Eos::call`] over the lanes and reports
    /// `vector_lanes: 0`. Implementations with a vectorizable kernel
    /// (notably [`Helmholtz`]) override it; callers may rely on the outputs
    /// being bit-identical to per-zone calls either way.
    fn eos_batch(&self, mode: EosMode, b: &mut EosBatch<'_>) -> Result<BatchReport, EosError> {
        let lanes = b.lanes();
        for l in 0..lanes {
            let mut s = EosState {
                dens: b.dens[l],
                temp: b.temp[l],
                abar: b.abar[l],
                zbar: b.zbar[l],
                pres: b.pres[l],
                eint: b.eint[l],
                entr: 0.0,
                gamc: 0.0,
                game: 0.0,
                cs: 0.0,
                cv: 0.0,
            };
            self.call(mode, &mut s)?;
            b.temp[l] = s.temp;
            b.pres[l] = s.pres;
            b.eint[l] = s.eint;
            b.gamc[l] = s.gamc;
            b.game[l] = s.game;
        }
        Ok(BatchReport {
            lanes: lanes as u64,
            vector_lanes: 0,
            ..Default::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn co_wd_composition() {
        let s = EosState::co_wd(1e9, 1e8);
        // 50/50 C/O: Ye is exactly 0.5.
        assert!((s.ye() - 0.5).abs() < 1e-12);
        assert_eq!(s.dens, 1e9);
    }

    #[test]
    fn finish_derived_sets_game_and_cs() {
        let mut s = EosState::co_wd(1.0, 1.0);
        s.pres = 2.0;
        s.eint = 3.0;
        s.gamc = 1.5;
        s.finish_derived();
        assert!((s.game - (1.0 + 2.0 / 3.0)).abs() < 1e-12);
        assert!((s.cs - (1.5 * 2.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn errors_display() {
        let e = EosError::OutOfRange {
            what: "temp",
            value: 1e14,
            lo: 1e3,
            hi: 1e13,
        };
        assert!(e.to_string().contains("temp"));
        let e = EosError::NoConvergence {
            mode: "DensEi",
            residual: 1e-3,
        };
        assert!(e.to_string().contains("DensEi"));
    }
}

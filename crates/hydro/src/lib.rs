//! Compressible hydrodynamics for the FLASH reproduction.
//!
//! FLASH's default hydro solver is the dimensionally split PPM scheme; the
//! paper's "3-d Hydro" experiment instruments exactly these routines while
//! running the Sedov explosion problem for 200 steps. This crate implements
//! the split finite-volume solver from scratch:
//!
//! * [`state`] — primitive/conserved conversions for a general-EOS gas;
//! * [`ppm`] — piecewise-parabolic reconstruction with monotonization and
//!   shock flattening;
//! * [`riemann`] — an HLLC approximate Riemann solver;
//! * [`sweep`] — the per-direction pencil update over all AMR blocks,
//!   including boundary-flux recording for [`rflash_mesh::flux`]
//!   conservation fix-ups; the EOS update after each sweep (the call
//!   pattern whose cost dominates the paper's supernova runs) is the
//!   driver's own pass;
//! * [`dt`] — the CFL time-step computation;
//! * [`sedov`] — the analytic Sedov–Taylor self-similar solution, used to
//!   validate the solver end-to-end;
//! * [`exact_riemann`] — the exact gamma-law Riemann solution (Toro), the
//!   reference for shock-tube validation.

pub mod dt;
pub mod exact_riemann;
pub(crate) mod pencil;
pub mod ppm;
pub mod riemann;
pub mod sedov;
pub mod state;
pub mod sweep;

pub use dt::{block_min_wavetime_slab, compute_dt, compute_dt_parallel_raw};
pub use exact_riemann::{ExactRiemann, GasState};
pub use sedov::SedovSolution;
pub use sweep::{
    apply_block_corrections, sweep_direction, sweep_direction_prefilled, sweep_leaf_block,
    BlockFluxes, SweepConfig, SweepEngine, SweepEos,
};

/// Number of conserved flux channels (ρ, ρu, ρv, ρw, ρE) — fixed even in
/// 2-d, where the w channel is identically zero.
pub const NFLUX: usize = 5;

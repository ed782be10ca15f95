//! The FLASH-like simulation driver.
//!
//! Ties every substrate together the way FLASH's Driver unit does: the
//! PARAMESH mesh ([`rflash_mesh`]), split PPM hydro ([`rflash_hydro`]), the
//! Helmholtz/gamma-law EOS ([`rflash_eos`]), the ADR model flame
//! ([`rflash_flame`]), monopole gravity ([`rflash_gravity`]) — with the
//! huge-page policy ([`rflash_hugepages`]) governing the big allocations
//! and the PAPI-like instrumentation ([`rflash_perfmon`]) wrapped around
//! the paper's two regions of interest:
//!
//! * the **"EOS" region** — `Eos_wrapped(MODE_DENS_EI)` passes after every
//!   sweep (Table I instruments these during a 2-d supernova run);
//! * the **"Hydro" region** — the directional PPM sweeps (Table II
//!   instruments these during a 3-d Sedov run).
//!
//! Every problem — the paper's two, the Sod verification tube and four
//! more — is a committed spec file under `crates/core/specs/`, built by
//! the one scenario registry: [`registry::load`] a [`SetupSpec`], edit its
//! public fields, then [`SetupSpec::build`] it.

pub mod checkpoint;
pub use rflash_hugepages::crc32;
pub mod dist;
pub mod eos_choice;
pub mod guardian;
pub mod instrument;
pub mod output;
pub mod params;
pub mod registry;
pub mod sim;
pub mod stepgraph;
pub mod wd;

pub use checkpoint::{
    read_checkpoint, verify_checkpoint, write_checkpoint, CheckpointError, CheckpointSeries,
    RestoredState, CHECKPOINT_FORMAT,
};
pub use dist::{
    run_fleet, worker_main, FleetConfig, FleetError, FleetEvent, FleetReport, LossCause, WorkerArgs,
};
pub use eos_choice::{Composition, EosChoice};
pub use guardian::{GuardianConfig, StepError};
pub use params::{RuntimeParams, StepScheduler};
pub use registry::{GoldenRecord, SetupSpec, SpecError, StateDigest};
pub use sim::Simulation;
pub use stepgraph::{GraphExecReport, GraphRankReport};

//! `rflash-dist`: supervised runs — one worker process restarted from
//! verified checkpoints (DESIGN.md §17).
//!
//! * **The worker** ([`worker`]) runs the product step loop
//!   ([`crate::Simulation::try_step`], under the step guardian) on the
//!   smoke-scale scenario, writes a series checkpoint every N steps, and
//!   reports progress over the CRC-framed pipe protocol in [`wire`].
//! * **The supervisor** ([`supervisor`]) never models physics. It detects
//!   a lost worker via pipe EOF, a torn frame, or a missed heartbeat
//!   followed by a liveness-probe ladder with exponential backoff; it
//!   kills and reaps the process and respawns it from the newest series
//!   checkpoint that passes `verify_checkpoint`. When the respawn budget
//!   is spent the run ends with a typed error naming that checkpoint.
//!   Every transition is a typed [`FleetEvent`].
//!
//! Bit-identity is the contract: a run that loses and restarts its worker
//! at any step boundary reproduces the golden digest of an uninterrupted
//! run (`tests/fleet_drill.rs` drills the ladder with the `worker-kill` /
//! `heartbeat-drop` / `msg-truncate` / `spawn-fail` fault sites and the
//! checkpoint and state-corruption sites).

pub mod supervisor;
pub mod wire;
pub mod worker;

pub use supervisor::{run_fleet, FleetConfig, FleetError, FleetEvent, FleetReport, LossCause};
pub use worker::{worker_main, WorkerArgs};

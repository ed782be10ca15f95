//! Runtime parameters — FLASH's `flash.par`, as a serde-able struct.

use rflash_hugepages::Policy;
use rflash_hydro::SweepEngine;
use rflash_mesh::MeshConfig;
use serde::{Deserialize, Serialize};

/// How the driver schedules the work inside one time step. There is one
/// pooled scheduler; the rank count decides the path (the serial loop at
/// one rank, the task graph at more). The type remains so that callers and
/// parameter files that name it keep working.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StepScheduler {
    /// Per-block dependency graph over the rank pool with work stealing:
    /// a block sweeps the moment its own guard cells are ready, interior
    /// compute overlaps other blocks' exchanges. The graph runs the split
    /// sweeps of a step; its dt scan and validation are pooled scans
    /// around the dispatch. Bit-identical to the serial loop by
    /// construction (DESIGN.md §13).
    #[default]
    TaskGraph,
}

/// Everything a run needs beyond the setup-specific initial conditions.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RuntimeParams {
    /// Mesh geometry and AMR limits.
    pub mesh: MeshConfig,
    /// Huge-page backing policy for the big allocations (`unk`, EOS table).
    pub policy: Policy,
    /// CFL number.
    pub cfl: f64,
    /// Density floor (`smlrho`).
    pub dens_floor: f64,
    /// Specific-internal-energy floor (`smalle`).
    pub eint_floor: f64,
    /// Simulated MPI ranks (threads).
    pub nranks: usize,
    /// Re-run the Löhner estimator + adapt every N steps (`nrefs`).
    pub regrid_every: u64,
    /// Recompute the gravity field every N steps.
    pub gravity_every: u64,
    /// Record one unk access pattern per N pencils/rows (0 disables).
    pub pattern_every: usize,
    /// Record one EOS-table gather per N zones (0 disables).
    pub gather_every: usize,
    /// Try hardware counters alongside the model.
    pub use_hw: bool,
    /// Write a series checkpoint every N steps in
    /// [`crate::Simulation::evolve_checkpointed`] (0 disables).
    #[serde(default)]
    pub checkpoint_every: u64,
    /// Sweep inner-loop engine; only the slab-batched `pencil` engine
    /// exists (the field stays so parameter files that name it load).
    #[serde(default)]
    pub sweep_engine: SweepEngine,
    /// SIMD backend request for the explicit lane kernels (pencil sweep,
    /// batched Helmholtz). `native` (the default) picks the widest
    /// instruction set the CPU supports at startup; `scalar` forces the
    /// reference lane. This is the only backend knob. Every backend is
    /// bit-identical.
    #[serde(default)]
    pub simd_backend: rflash_simd::Backend,
    /// Step-guardian policy (validation floors, retry budget). Defaulted
    /// so pre-guardian checkpoints still load.
    #[serde(default)]
    pub guardian: crate::guardian::GuardianConfig,
    /// In-step work scheduler (one value). Defaulted so pre-task-graph
    /// checkpoints and parameter files still load.
    #[serde(default)]
    pub step_scheduler: StepScheduler,
    /// When set, every graph attempt executes single-threaded in a seeded
    /// random edge-consistent topological order instead of on the pool —
    /// the adversarial scheduler used by the race-audit tests to shake out
    /// schedules the work-stealing executor rarely produces. Results must
    /// stay bit-identical (DESIGN.md §13/§14).
    #[serde(default)]
    pub adversary_seed: Option<u64>,
}

impl RuntimeParams {
    /// Defaults shared by both setups; the mesh field still needs
    /// per-problem dimensions.
    pub fn with_mesh(mesh: MeshConfig) -> RuntimeParams {
        RuntimeParams {
            mesh,
            policy: Policy::None,
            cfl: 0.3,
            dens_floor: 1e-30,
            eint_floor: 1e-30,
            nranks: 1,
            regrid_every: 4,
            gravity_every: 2,
            pattern_every: 4,
            gather_every: 4,
            use_hw: true,
            checkpoint_every: 0,
            sweep_engine: SweepEngine::default(),
            simd_backend: rflash_simd::Backend::default(),
            guardian: crate::guardian::GuardianConfig::default(),
            step_scheduler: StepScheduler::default(),
            adversary_seed: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_mesh::tree::MeshConfig;

    #[test]
    fn serde_round_trip() {
        let p = RuntimeParams::with_mesh(MeshConfig::test_2d());
        let json = serde_json::to_string_pretty(&p).unwrap();
        let back: RuntimeParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cfl, p.cfl);
        assert_eq!(back.mesh.nxb, p.mesh.nxb);
        assert_eq!(back.policy, p.policy);
    }

    #[test]
    fn defaults_are_sane() {
        let p = RuntimeParams::with_mesh(MeshConfig::test_2d());
        assert!(p.cfl > 0.0 && p.cfl < 1.0);
        assert!(p.regrid_every >= 1);
    }
}

//! The declarative scenario registry.
//!
//! A FLASH setup module is, conceptually, *data*: an initial condition
//! built from a handful of primitives, an EOS choice, refinement criteria,
//! boundary conditions, physics toggles, and step budgets. This module
//! makes that literal — [`SetupSpec`] captures all of it, parseable from a
//! dependency-free RON-like text format ([`parse`]), buildable into a
//! [`Simulation`] ([`SetupSpec::build`]), and fingerprint-able into a
//! committed golden corpus ([`digest`]). It is the one way the tree builds
//! a scenario.
//!
//! The built-in scenarios live as committed spec files under
//! `crates/core/specs/`; [`builtin`] parses them, [`load`] fetches one by
//! name. A caller that needs a variant (another dimension, refinement
//! depth, pool size, geometry, budget) edits the loaded spec's public
//! fields before building it. DESIGN.md §15 documents the grammar and the
//! golden-corpus policy.

pub mod build;
pub mod digest;
pub mod parse;
pub mod spec;

pub use build::SETUP_STAGES;
pub use digest::{golden_path, load_golden, store_golden, GoldenRecord, StateDigest};
pub use parse::{ParseError, Value};
pub use spec::{
    BudgetSpec, CompositionSpec, EosSpec, FieldSet, GravitySpec, IcPrimitive, InitMode, MeshSpec,
    PhysicsSpec, RefineSpec, SetupSpec, SmokeSpec, SpecError,
};

use rflash_hugepages::Policy;
use rflash_hydro::SweepEngine;

use crate::params::{RuntimeParams, StepScheduler};
use crate::sim::Simulation;

/// The committed spec sources, compiled in so the registry works from any
/// working directory (tests, CLI, bench bins).
pub fn builtin_sources() -> &'static [(&'static str, &'static str)] {
    &[
        ("sedov", include_str!("../../specs/sedov.ron")),
        ("sod", include_str!("../../specs/sod.ron")),
        ("supernova", include_str!("../../specs/supernova.ron")),
        ("cellular", include_str!("../../specs/cellular.ron")),
        (
            "kelvin_helmholtz",
            include_str!("../../specs/kelvin_helmholtz.ron"),
        ),
        (
            "rayleigh_taylor",
            include_str!("../../specs/rayleigh_taylor.ron"),
        ),
        ("wd_relax", include_str!("../../specs/wd_relax.ron")),
    ]
}

/// Parse and validate every committed scenario. Panics only if a
/// *committed* spec file is broken — that is a build error, not a runtime
/// condition.
pub fn builtin() -> Vec<SetupSpec> {
    builtin_sources()
        .iter()
        .map(|(name, source)| {
            let spec = SetupSpec::from_source(source)
                .unwrap_or_else(|e| panic!("committed spec `{name}` is invalid: {e}"));
            assert_eq!(
                spec.name, *name,
                "spec file name and declared name must agree"
            );
            spec
        })
        .collect()
}

/// Fetch one scenario by name.
pub fn load(name: &str) -> Result<SetupSpec, SpecError> {
    for (n, source) in builtin_sources() {
        if *n == name {
            return SetupSpec::from_source(source);
        }
    }
    Err(SpecError::UnknownScenario { name: name.into() })
}

/// Deterministic runtime parameters for a golden-corpus cell: hardware
/// counters and pattern recording off, mesh/budgets from the spec, the
/// rank count from the caller. `engine` and `scheduler` have one value
/// each (`SweepEngine::Pencil`, `StepScheduler::TaskGraph`); the arguments
/// stay so existing callers build.
pub fn smoke_params(
    spec: &SetupSpec,
    nranks: usize,
    engine: SweepEngine,
    scheduler: StepScheduler,
) -> RuntimeParams {
    RuntimeParams {
        policy: Policy::None,
        use_hw: false,
        pattern_every: 0,
        gather_every: 0,
        nranks,
        sweep_engine: engine,
        step_scheduler: scheduler,
        ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
    }
}

/// Build a scenario at smoke scale and evolve it for its spec'd smoke
/// steps — the run whose digest the golden corpus commits.
pub fn run_smoke(
    spec: &SetupSpec,
    nranks: usize,
    engine: SweepEngine,
    scheduler: StepScheduler,
) -> Result<Simulation, SpecError> {
    let smoke = spec.at_smoke_scale();
    let params = smoke_params(&smoke, nranks, engine, scheduler);
    let mut sim = smoke.build(params)?;
    sim.evolve(smoke.smoke.steps);
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_spec_parses_and_validates() {
        let specs = builtin();
        assert_eq!(specs.len(), 7, "seven committed scenarios");
        for spec in &specs {
            assert!(!spec.title.is_empty(), "`{}` needs a title", spec.name);
            assert!(spec.smoke.steps >= 1);
        }
    }

    #[test]
    fn builtin_specs_round_trip_through_their_own_serializer() {
        for spec in builtin() {
            let text = spec.to_value().to_ron(0);
            let back = SetupSpec::from_source(&text)
                .unwrap_or_else(|e| panic!("`{}` re-parse: {e}\n{text}", spec.name));
            assert_eq!(spec, back, "`{}` drifted through to_ron", spec.name);
        }
    }

    #[test]
    fn load_rejects_unknown_scenarios() {
        assert!(matches!(
            load("not-a-scenario"),
            Err(SpecError::UnknownScenario { .. })
        ));
    }

    #[test]
    fn smoke_scale_shrinks_the_legacy_problems() {
        let sedov = load("sedov").unwrap();
        let smoke = sedov.at_smoke_scale();
        assert!(smoke.mesh.max_refine < sedov.mesh.max_refine);
        assert!(smoke.mesh.max_blocks < sedov.mesh.max_blocks);
    }
}

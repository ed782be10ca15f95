//! The golden-result regression corpus (ISSUE 8, DESIGN.md §15).
//!
//! Every registered scenario runs at smoke scale across the determinism
//! matrix — `nranks ∈ {1, 4}`, the serial step loop and the task graph —
//! and both cells must produce the *same* CRC-backed state digest, equal
//! to the record committed under `golden/`. A digest change means the numerics drifted:
//! either a bug, or an intentional change that must be re-blessed with
//!
//! ```text
//! cargo run --release -p rflash-bench --bin scenario_matrix -- --bless
//! ```
//!
//! The suite also pins the recovery story: a spec-launched run that
//! crashes and recovers from its checkpoint series resumes to the same
//! golden digest as an uninterrupted run.

use std::path::PathBuf;

use rflash::core::registry::{self, load_golden, GoldenRecord, SetupSpec, StateDigest};
use rflash::core::{CheckpointSeries, Simulation, StepScheduler};
use rflash::hydro::SweepEngine;

/// The committed corpus lives at the repo root.
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rflash-golden-it-{}-{name}", std::process::id()))
}

/// The determinism matrix for one scenario: the serial loop at one rank
/// and the task graph at four must digest identically, and match the
/// committed golden record.
fn assert_matrix_matches_golden(name: &str) {
    let spec = registry::load(name).expect("registered scenario");
    let golden = load_golden(&golden_dir(), name).unwrap_or_else(|e| {
        panic!(
            "no committed golden for `{name}` ({e}); regenerate with \
             `cargo run --release -p rflash-bench --bin scenario_matrix -- --bless`"
        )
    });
    assert_eq!(golden.scenario, name);
    assert_eq!(
        golden.steps, spec.smoke.steps,
        "golden is stale: steps drifted"
    );

    let mut reference: Option<StateDigest> = None;
    for nranks in [1usize, 4] {
        let sim = registry::run_smoke(&spec, nranks, SweepEngine::Pencil, StepScheduler::TaskGraph)
            .expect("smoke run");
        let digest = StateDigest::of(&sim);
        let cell = format!("{name} @ nranks={nranks}");
        match reference {
            None => reference = Some(digest),
            Some(r) => assert_eq!(digest, r, "matrix cell diverged from its sibling: {cell}"),
        }
        assert_eq!(
            digest, golden.digest,
            "digest drifted from the committed golden: {cell}\n  \
             got      {digest}\n  expected {}\n  \
             if the numerics change is intentional, re-bless with \
             `cargo run --release -p rflash-bench --bin scenario_matrix -- --bless`",
            golden.digest
        );
    }
}

// One test per scenario so the matrix parallelizes across the test
// harness's threads and a failure names the scenario directly.

#[test]
fn golden_matrix_sedov() {
    assert_matrix_matches_golden("sedov");
}

#[test]
fn golden_matrix_sod() {
    assert_matrix_matches_golden("sod");
}

#[test]
fn golden_matrix_supernova() {
    assert_matrix_matches_golden("supernova");
}

#[test]
fn golden_matrix_cellular() {
    assert_matrix_matches_golden("cellular");
}

#[test]
fn golden_matrix_kelvin_helmholtz() {
    assert_matrix_matches_golden("kelvin_helmholtz");
}

#[test]
fn golden_matrix_rayleigh_taylor() {
    assert_matrix_matches_golden("rayleigh_taylor");
}

#[test]
fn golden_matrix_wd_relax() {
    assert_matrix_matches_golden("wd_relax");
}

/// The SIMD backend axis: pinning `simd_backend` to the scalar oracle and
/// to the native intrinsic lanes must each reproduce the committed golden digest bit-for-bit. This is
/// the end-to-end form of the bit-identity contract (DESIGN.md §16) — the
/// kernel-level parity tests in `crates/hydro` and `crates/simd` prove the
/// lanes agree, this proves nothing upstream (dispatch, pencil carving,
/// batched EOS plumbing) lets the choice of backend leak into the physics.
fn assert_backend_axis_matches_golden(name: &str) {
    let spec = registry::load(name).expect("registered scenario");
    let golden = load_golden(&golden_dir(), name).expect("committed golden record");
    let smoke = spec.at_smoke_scale();
    for backend in [rflash::simd::Backend::Scalar, rflash::simd::Backend::Native] {
        let mut params =
            registry::smoke_params(&smoke, 1, SweepEngine::Pencil, StepScheduler::TaskGraph);
        params.simd_backend = backend;
        let mut sim = smoke.build(params).expect("spec builds");
        sim.evolve(smoke.smoke.steps);
        let digest = StateDigest::of(&sim);
        assert_eq!(
            digest,
            golden.digest,
            "{name} with simd_backend={} drifted from the committed golden \
             (resolved to {})",
            backend.name(),
            rflash::simd::resolve(backend).name()
        );
    }
}

#[test]
fn golden_backend_axis_sedov() {
    // Gamma-law scenario: exercises the pencil hydro lane kernels.
    assert_backend_axis_matches_golden("sedov");
}

#[test]
fn golden_backend_axis_supernova() {
    // Helmholtz scenario: additionally exercises the batched bicubic table
    // evaluation and the masked-re-iteration Newton inversion.
    assert_backend_axis_matches_golden("supernova");
}

// ---------------------------------------------------------------------------
// Checkpoint-series recovery of a spec-launched run
// ---------------------------------------------------------------------------

/// A spec-launched run of `name` that "crashes" mid-way and recovers from
/// its checkpoint series must resume to exactly the committed golden
/// digest — the registry riding the recovery machinery without drift.
/// The resumed run gets its physics (flame, gravity, refinement variables)
/// from the spec, not from the checkpoint.
fn assert_spec_recovery_resumes_to_golden(name: &str) {
    let spec = registry::load(name).unwrap();
    let golden: GoldenRecord = load_golden(&golden_dir(), name).expect("committed golden");
    let smoke: SetupSpec = spec.at_smoke_scale();
    let steps = smoke.smoke.steps;
    assert!(steps >= 2, "need room for a mid-run checkpoint");
    let mid = steps / 2;

    let dir = scratch(&format!("spec-recovery-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let series = CheckpointSeries::new(&dir, "chk");

    // Run half way, checkpointing every step, then "crash".
    let mut params =
        registry::smoke_params(&smoke, 1, SweepEngine::Pencil, StepScheduler::TaskGraph);
    params.checkpoint_every = 1;
    let mut first = smoke.build(params).unwrap();
    let written = first.evolve_checkpointed(mid, &series).unwrap();
    assert_eq!(written.len(), mid as usize);
    drop(first);

    // Recover — the EOS and physics come back from the spec, the state
    // from disk.
    let (mut resumed, skipped) = Simulation::recover(&series, &smoke).unwrap();
    assert!(skipped.is_empty(), "no corrupt checkpoints expected");
    assert_eq!(resumed.step, mid);
    // The series does not fit another scenario's mesh.
    let sod = registry::load("sod").unwrap().at_smoke_scale();
    assert!(Simulation::recover(&series, &sod).is_err());
    resumed.evolve(steps - mid);

    assert_eq!(
        StateDigest::of(&resumed),
        golden.digest,
        "recovered {name} run diverged from the committed golden"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spec_launched_recovery_resumes_to_the_golden_digest() {
    // Kelvin–Helmholtz regrids; supernova burns and has gravity.
    for name in ["kelvin_helmholtz", "supernova"] {
        assert_spec_recovery_resumes_to_golden(name);
    }
}

//! The `unk` memory layout must not change the physics: FLASH's
//! variable-interleaved order (`VarFirst`, the paper's §I.C stride) and the
//! SoA order (`VarLast`) are different *addresses* for the same arithmetic,
//! so a run under each must agree bit-for-bit. This pins down that every
//! kernel goes through the layout-aware indexing and none bakes in a
//! stride. The same contract holds one level down: the pencil-batched SoA
//! sweep engine is a different *schedule* for the same arithmetic as the
//! scalar per-zone engine, so full runs under each must also agree
//! bit-for-bit.

use rflash::core::registry::spec::LayoutSpec;
use rflash::core::registry::{self, SetupSpec};
use rflash::core::StepScheduler;
use rflash::hydro::SweepEngine;
use rflash::mesh::vars;

/// Bitwise comparison of two evolved simulations: same AMR topology, same
/// interior state in every compared variable.
fn assert_runs_identical(a: &rflash::core::Simulation, b: &rflash::core::Simulation, what: &str) {
    assert_eq!(a.step, b.step);
    assert_eq!(a.time, b.time, "{what}: time steps must agree exactly");
    let leaves_a = a.domain.tree.leaves();
    let leaves_b = b.domain.tree.leaves();
    assert_eq!(leaves_a.len(), leaves_b.len(), "{what}: same AMR evolution");
    for (ia, ib) in leaves_a.iter().zip(&leaves_b) {
        assert_eq!(
            a.domain.tree.block(*ia).key,
            b.domain.tree.block(*ib).key,
            "{what}: same topology"
        );
        for var in [vars::DENS, vars::VELX, vars::PRES, vars::ENER] {
            for k in a.domain.unk.interior_k() {
                for j in a.domain.unk.interior() {
                    for i in a.domain.unk.interior() {
                        let va = a.domain.unk.get(var, i, j, k, ia.idx());
                        let vb = b.domain.unk.get(var, i, j, k, ib.idx());
                        assert_eq!(
                            va, vb,
                            "{what}: var {var} differs at ({i},{j},{k}) of {:?}",
                            a.domain.tree.block(*ia).key
                        );
                    }
                }
            }
        }
    }
}

/// The stock Sedov spec at `max_refine` 2 on a 256-block pool.
fn sedov(ndim: usize) -> SetupSpec {
    let mut spec = registry::load("sedov").unwrap();
    spec.mesh.ndim = ndim;
    spec.mesh.max_refine = 2;
    spec.mesh.max_blocks = 256;
    spec
}

fn run(spec: &SetupSpec, engine: SweepEngine, steps: u64) -> rflash::core::Simulation {
    let params = registry::smoke_params(spec, 1, engine, StepScheduler::default());
    let mut sim = spec.build(params).unwrap();
    sim.evolve(steps);
    sim
}

#[test]
fn physics_is_bit_identical_across_unk_layouts() {
    let mut spec = sedov(2);
    let a = run(&spec, SweepEngine::default(), 20);
    spec.mesh.layout = LayoutSpec::VarLast;
    let b = run(&spec, SweepEngine::default(), 20);
    assert_runs_identical(&a, &b, "layout");
}

/// The pencil-batched SoA engine replicates the scalar engine's exact
/// floating-point operation order, so a full 3-d Sedov run — sweeps,
/// flux corrections, regrids, instrumented EOS passes — must agree
/// bit-for-bit between the two.
#[test]
fn pencil_engine_is_bit_identical_to_scalar_on_sedov_3d() {
    let spec = sedov(3);
    let scalar = run(&spec, SweepEngine::Scalar, 8);
    let pencil = run(&spec, SweepEngine::Pencil, 8);
    assert_runs_identical(&scalar, &pencil, "sweep engine");
}

//! The `unk` memory layout must not change the physics: FLASH's
//! variable-interleaved order (`VarFirst`, the paper's §I.C stride) and the
//! SoA order (`VarLast`) are different *addresses* for the same arithmetic,
//! so a run under each must agree bit-for-bit. This pins down that every
//! kernel goes through the layout-aware indexing and none bakes in a
//! stride.

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

fn run(spec: &SetupSpec, steps: u64) -> rflash::core::Simulation {
    let params = registry::smoke_params(spec, 1, SweepEngine::default(), StepScheduler::default());
    let mut sim = spec.build(params).unwrap();
    sim.evolve(steps);
    sim
}

#[test]
fn physics_is_bit_identical_across_unk_layouts() {
    let mut spec = sedov(2);
    let a = run(&spec, 20);
    spec.mesh.layout = LayoutSpec::VarLast;
    let b = run(&spec, 20);
    assert_runs_identical(&a, &b, "layout");
}

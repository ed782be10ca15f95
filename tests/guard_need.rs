//! Nobody reads what the exchange no longer fills.
//!
//! The guard exchange is need-driven: a fill ahead of a split sweep writes
//! the two face regions along the sweep axis, the fills ahead of the flame
//! and the regrid estimator write the face regions, and edges, corners and
//! every guard zone of a parent block are never written at all. That is
//! only sound if no consumer reads them. This suite makes a stale read
//! loud: before every step, **every guard zone of every active block**
//! (parents too) is overwritten with NaN through the public `unk.set`, and
//! the run must still land on the bits of an unpoisoned run — and, at the
//! spec's smoke length, on the committed `golden/<name>.ron` digest. One
//! consumer that reaches into a zone the masks dropped, and a NaN walks
//! into an interior and the digest moves. The dropped zones stay NaN from
//! the first step to the last, which is the proof that they are dead.
//!
//! The runs cover both sweep parities (even steps sweep x→y→z, odd ones
//! z→y→x), a regrid inside the window, refinement jumps (prolongation
//! sources), outflow and periodic boundaries, the flame and gravity tail,
//! and both step schedulers.

use std::path::PathBuf;

use rflash::core::registry::{self, load_golden, SetupSpec, StateDigest};
use rflash::core::{Simulation, StepScheduler};
use rflash::hydro::SweepEngine;
use rflash::mesh::vars;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// NaN into every guard zone of every variable of every active block.
fn poison_guards(sim: &mut Simulation) {
    let unk = &mut sim.domain.unk;
    let (ni, nj, nk) = unk.padded();
    let (interior, interior_k) = (unk.interior(), unk.interior_k());
    for id in sim.domain.tree.active_ids() {
        for k in 0..nk {
            for j in 0..nj {
                for i in 0..ni {
                    if interior.contains(&i) && interior.contains(&j) && interior_k.contains(&k) {
                        continue;
                    }
                    for var in 0..unk.nvar() {
                        unk.set(var, i, j, k, id.idx(), f64::NAN);
                    }
                }
            }
        }
    }
}

/// Step `spec` to `steps`, poisoning the guards before every step when
/// asked, and return the digest after each step plus the finished run.
fn digests(
    spec: &SetupSpec,
    nranks: usize,
    steps: u64,
    poison: bool,
) -> (Vec<StateDigest>, Simulation) {
    let params =
        registry::smoke_params(spec, nranks, SweepEngine::Pencil, StepScheduler::TaskGraph);
    let mut sim = spec.build(params).expect("spec builds");
    let mut out = Vec::new();
    for _ in 0..steps {
        if poison {
            poison_guards(&mut sim);
        }
        sim.try_step().expect("step succeeds");
        out.push(StateDigest::of(&sim));
    }
    (out, sim)
}

/// Does the mesh carry a refinement jump (leaves on more than one level)?
fn has_jumps(sim: &Simulation) -> bool {
    let tree = &sim.domain.tree;
    let level = |id| tree.block(id).key.level;
    let leaves = tree.leaves();
    leaves.iter().any(|&id| level(id) != level(leaves[0]))
}

/// The poisoned run of `spec` must match the clean one step for step, and
/// end on a mesh with refinement jumps. Returns the poisoned run.
fn assert_poison_is_invisible(spec: &SetupSpec, nranks: usize, steps: u64) -> Simulation {
    assert!(steps >= 6, "cover both sweep parities several times over");
    let (clean, _) = digests(spec, nranks, steps, false);
    let (poisoned, sim) = digests(spec, nranks, steps, true);
    for (step, (c, p)) in clean.iter().zip(&poisoned).enumerate() {
        assert_eq!(
            c,
            p,
            "`{}` nranks={nranks}: a consumer read a guard zone no fill wrote (step {})",
            spec.name,
            step + 1
        );
    }
    assert!(
        has_jumps(&sim),
        "`{}` must exercise prolongation sources",
        spec.name
    );
    sim
}

/// The poisoned smoke-scale run must land on the committed golden digest.
fn assert_poisoned_smoke_matches_golden(name: &str, nranks: usize) {
    let spec = registry::load(name)
        .expect("registered scenario")
        .at_smoke_scale();
    let golden = load_golden(&golden_dir(), name).expect("committed golden record");
    assert_eq!(
        golden.steps, spec.smoke.steps,
        "golden is stale: steps drifted"
    );
    let (poisoned, _) = digests(&spec, nranks, spec.smoke.steps, true);
    assert_eq!(
        *poisoned.last().expect("at least one step"),
        golden.digest,
        "`{name}` nranks={nranks}: poisoned guards moved the golden digest"
    );
}

/// 3-d Sedov at the committed spec's three levels (the paper's Table II
/// mesh: outflow walls, a fine cube inside a coarser shell, so every
/// fine–coarse face prolongs from a coarse leaf), on the one-rank serial
/// loop. The step-4 regrid runs the estimator but the blast has not
/// reached a block edge yet, so the tree holds still here.
#[test]
fn sedov_3d_with_jumps_never_reads_an_unfilled_guard() {
    let mut spec = registry::load("sedov").expect("registered scenario");
    spec.mesh.max_blocks = 512;
    assert_poison_is_invisible(&spec, 1, 6);
    assert_poisoned_smoke_matches_golden("sedov", 1);
}

/// 2-d supernova: Helmholtz EOS, the ADR flame (its own `Faces` fill) and
/// monopole gravity behind the sweeps, two levels past the smoke mesh so
/// the star's edge sits on refinement jumps.
#[test]
fn supernova_2d_flame_and_gravity_never_read_an_unfilled_guard() {
    let mut spec = registry::load("supernova")
        .expect("registered scenario")
        .at_smoke_scale();
    spec.mesh.max_refine += 2;
    assert_poison_is_invisible(&spec, 1, 6);
    assert_poisoned_smoke_matches_golden("supernova", 1);
}

/// Kelvin–Helmholtz on two ranks: the task graph's per-block fill tasks
/// and a doubly periodic wrap. The run starts unrefined (the initial
/// estimator is pointed at the uniform pressure) and regrids every other step, so the tree grows a
/// level at steps 2, 4 and 6 — fresh children with poisoned guards each
/// time — and carries jumps along the shear layers from step 6 on.
#[test]
fn kelvin_helmholtz_regridding_on_the_task_graph_never_reads_an_unfilled_guard() {
    let mut spec = registry::load("kelvin_helmholtz").expect("registered scenario");
    spec.mesh.max_refine += 1;
    spec.refine.init_vars = vec![vars::PRES];
    spec.budgets.regrid_every = 2;
    let leaves_at_start = spec.mesh.nroot[0] * spec.mesh.nroot[1];
    let sim = assert_poison_is_invisible(&spec, 2, 10);
    assert!(
        sim.domain.tree.leaves().len() > leaves_at_start,
        "the window must contain regrids that change the tree"
    );
    assert_poisoned_smoke_matches_golden("kelvin_helmholtz", 2);
}

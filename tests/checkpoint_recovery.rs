//! Checkpoint round-trip property tests and crash-recovery scenarios.
//!
//! A hand-rolled seeded generator (SplitMix64 — no external PRNG crates)
//! sweeps (ndim, refinement pattern, nvar) and demands bit-exact
//! write → restore for every case; a second battery injects write/rename
//! faults through the deterministic fault plan and demands that a kill
//! mid-checkpoint never damages the previous good checkpoint.

use std::path::PathBuf;

use rflash::core::checkpoint::{
    read_checkpoint, write_checkpoint, CheckpointError, CheckpointSeries,
};
use rflash::core::registry::{self, SetupSpec};
use rflash::core::{RuntimeParams, Simulation, StepScheduler};
use rflash::hugepages::{FaultKind, FaultPlan, FaultSite, Policy};
use rflash::hydro::SweepEngine;
use rflash::mesh::{vars, BlockId, Domain, MeshConfig};

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rflash-ckpt-it-{}-{name}", std::process::id()))
}

/// The one temp file a failed write of `path` left beside it
/// (`<name>.<pid>.<n>.tmp` — the counter makes the exact name unknowable).
fn tmp_orphan(path: &std::path::Path) -> PathBuf {
    let stem = format!("{}.", path.file_name().unwrap().to_str().unwrap());
    let mut found: Vec<PathBuf> = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with(&stem) && name.ends_with(".tmp")
        })
        .collect();
    assert_eq!(
        found.len(),
        1,
        "expected exactly one temp orphan of {path:?}: {found:?}"
    );
    found.remove(0)
}

/// SplitMix64: tiny, seedable, and plenty random for case generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A finite, distinctive double.
    fn value(&mut self) -> f64 {
        (self.next() as i64 as f64) * 1e-12
    }
}

/// Generate a random domain: dimensionality, extra variables, and an
/// irregular refinement pattern all drawn from the seed.
fn random_domain(rng: &mut Rng) -> (Domain, MeshConfig) {
    let mut cfg = MeshConfig::test_2d();
    cfg.ndim = if rng.below(2) == 0 { 2 } else { 3 };
    cfg.nvar = vars::NVAR + rng.below(3) as usize;
    cfg.max_blocks = 1024;
    let mut domain = Domain::new(cfg, Policy::None);
    // Random refinement: a few rounds of splitting random leaves.
    for _ in 0..rng.below(4) {
        let leaves = domain.tree.leaves();
        let pick = leaves[rng.below(leaves.len() as u64) as usize];
        if domain.tree.block(pick).key.level < cfg.max_refine {
            domain.tree.refine_block(pick, &mut domain.unk);
        }
    }
    // Distinctive data in every leaf slab (bit-for-bit comparable).
    for id in domain.tree.leaves() {
        for v in domain.unk.block_slab_mut(id.idx()) {
            *v = rng.value();
        }
    }
    (domain, cfg)
}

/// The leaves of `domain` by scanning every pool slot and sorting along
/// the Morton curve — the reference for the order the tree maintains.
fn leaves_by_scan(domain: &Domain) -> Vec<BlockId> {
    let cfg = domain.tree.config();
    let mut ids: Vec<BlockId> = (0..cfg.max_blocks as u32)
        .map(BlockId)
        .filter(|&id| domain.tree.block(id).is_leaf())
        .collect();
    ids.sort_by_key(|id| domain.tree.block(*id).key.morton_code(cfg.max_refine));
    ids
}

#[test]
fn round_trip_is_bit_exact_across_generated_cases() {
    let mut rng = Rng(0xF1A5_0001);
    for case in 0..16u32 {
        let (domain, cfg) = random_domain(&mut rng);
        let params = RuntimeParams {
            use_hw: false,
            ..RuntimeParams::with_mesh(cfg)
        };
        let time = rng.value().abs();
        let step = rng.below(1 << 20);
        let path = scratch(&format!("prop-{case}"));
        write_checkpoint(&path, &domain, &params, time, step, 0.0)
            .unwrap_or_else(|e| panic!("case {case}: write failed: {e}"));
        let restored =
            read_checkpoint(&path).unwrap_or_else(|e| panic!("case {case}: restore failed: {e}"));
        assert_eq!(restored.time, time);
        assert_eq!(restored.step, step);
        let leaves = domain.tree.leaves();
        let restored_leaves = restored.domain.tree.leaves();
        assert_eq!(leaves.len(), restored_leaves.len(), "case {case}");
        // The rebuilt tree keeps its leaf order as it refines: the same
        // order a scan of every slot and a Morton sort give.
        assert_eq!(
            restored_leaves,
            leaves_by_scan(&restored.domain),
            "case {case}"
        );
        for id in leaves {
            let key = domain.tree.block(id).key;
            let rid = restored
                .domain
                .tree
                .find(key)
                .unwrap_or_else(|| panic!("case {case}: leaf {key:?} lost"));
            let a = domain.unk.block_slab(id.idx());
            let b = restored.domain.unk.block_slab(rid.idx());
            assert_eq!(a.len(), b.len(), "case {case}");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "case {case}: bit drift at {key:?}[{i}]"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}

fn sedov_spec() -> SetupSpec {
    let mut spec = registry::load("sedov").unwrap();
    spec.mesh.ndim = 2;
    spec.mesh.max_refine = 2;
    spec.mesh.max_blocks = 256;
    spec
}

fn sedov_sim(checkpoint_every: u64) -> Simulation {
    let spec = sedov_spec();
    let mut params =
        registry::smoke_params(&spec, 1, SweepEngine::default(), StepScheduler::default());
    params.checkpoint_every = checkpoint_every;
    spec.build(params).unwrap()
}

/// Recover the Sedov run from `series` with the EOS its spec names.
fn recover(series: &CheckpointSeries) -> (Simulation, Vec<(PathBuf, CheckpointError)>) {
    Simulation::recover(series, &sedov_spec()).unwrap()
}

#[test]
fn restart_from_series_matches_the_uninterrupted_run() {
    let dir = scratch("series-restart");
    let _ = std::fs::remove_dir_all(&dir);
    let series = CheckpointSeries::new(&dir, "chk");

    let mut sim = sedov_sim(2);
    let written = sim.evolve_checkpointed(6, &series).unwrap();
    assert_eq!(written.len(), 3, "checkpoints at steps 2, 4, 6");
    sim.evolve(4); // uninterrupted to step 10

    // "Crash" and recover from the newest checkpoint (step 6), then run
    // the same remaining steps.
    let (mut sim2, skipped) = recover(&series);
    assert!(skipped.is_empty());
    assert_eq!(sim2.step, 6);
    sim2.evolve(4);

    assert_eq!(sim.step, sim2.step);
    for id in sim.domain.tree.leaves() {
        let key = sim.domain.tree.block(id).key;
        let id2 = sim2.domain.tree.find(key).expect("same topology");
        for j in sim.domain.unk.interior() {
            for i in sim.domain.unk.interior() {
                let a = sim.domain.unk.get(vars::DENS, i, j, 0, id.idx());
                let b = sim2.domain.unk.get(vars::DENS, i, j, 0, id2.idx());
                assert_eq!(a.to_bits(), b.to_bits(), "restart drift at ({i},{j})");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_mid_checkpoint_leaves_the_previous_checkpoint_restorable() {
    let path = scratch("kill-mid-write");
    let mut sim = sedov_sim(0);
    sim.evolve(2);
    sim.checkpoint(&path).unwrap();
    let good_bytes = std::fs::read(&path).unwrap();
    let good_step = sim.step;

    // Advance and "crash" 200 bytes into the next checkpoint write.
    sim.evolve(2);
    {
        let _g = FaultPlan::new(0)
            .with(FaultSite::CkptWrite, FaultKind::ShortWrite { bytes: 200 })
            .activate();
        match sim.checkpoint(&path) {
            Err(CheckpointError::Io(_)) => {}
            Err(other) => panic!("expected Io from the injected kill, got {other}"),
            Ok(()) => panic!("short write must fail the checkpoint"),
        }
    }

    // The previous checkpoint is untouched, byte for byte, and restores.
    assert_eq!(
        std::fs::read(&path).unwrap(),
        good_bytes,
        "atomic write must not touch the published file"
    );
    let restored = read_checkpoint(&path).unwrap();
    assert_eq!(restored.step, good_step);

    // The torn temp file is what a real crash leaves; recovery ignores it.
    let tmp = tmp_orphan(&path);
    assert_eq!(std::fs::read(&tmp).unwrap().len(), 200);
    std::fs::remove_file(&tmp).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn failed_rename_keeps_the_old_checkpoint_current() {
    let path = scratch("rename-fail");
    let mut sim = sedov_sim(0);
    sim.evolve(1);
    sim.checkpoint(&path).unwrap();
    let good_bytes = std::fs::read(&path).unwrap();

    sim.evolve(1);
    {
        let _g = FaultPlan::new(0)
            .with(FaultSite::CkptRename, FaultKind::Always { errno: 5 })
            .activate();
        match sim.checkpoint(&path) {
            Err(CheckpointError::Io(e)) => assert_eq!(e.raw_os_error(), Some(5)),
            Err(other) => panic!("expected Io from the injected rename fault, got {other}"),
            Ok(()) => panic!("rename fault must fail the checkpoint"),
        }
    }
    assert_eq!(std::fs::read(&path).unwrap(), good_bytes);
    // The fully-written temp survives (real rename failures keep it too);
    // it is complete but unpublished.
    let tmp = tmp_orphan(&path);
    std::fs::remove_file(&tmp).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn series_recovery_survives_a_crashed_latest_checkpoint() {
    let dir = scratch("series-crash");
    let _ = std::fs::remove_dir_all(&dir);
    let series = CheckpointSeries::new(&dir, "chk");
    let mut sim = sedov_sim(0);
    sim.evolve(2);
    series.write(&sim).unwrap();
    let good_step = sim.step;

    // The next series write dies mid-file.
    sim.evolve(2);
    {
        let _g = FaultPlan::new(0)
            .with(FaultSite::CkptWrite, FaultKind::ShortWrite { bytes: 64 })
            .activate();
        assert!(series.write(&sim).is_err());
    }

    let (recovered, skipped) = recover(&series);
    assert_eq!(recovered.step, good_step);
    // The torn file never got published (it died as a .tmp), so nothing
    // was skipped: the series only ever contains whole files.
    assert!(skipped.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

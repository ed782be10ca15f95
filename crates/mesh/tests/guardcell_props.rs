//! The direct run-copy guard exchange against the per-cell oracle.
//!
//! Random refined trees — 2-d and 3-d, every boundary flavor including
//! mixed periodic×wall faces and singly-rooted periodic axes (a block that
//! is its own neighbor), and refinement jumps — get random slab contents,
//! guards and parent interiors included. The
//! production fill (serial plan path and the pooled per-level exchange)
//! must then reproduce the oracle's staged per-cell fill **bit for bit over
//! every slab**, not just the leaf interiors.
//!
//! That pins [`GuardNeed::All`]. The needs the step loop actually asks for
//! — `Axis(a)` ahead of a sweep, `Faces` ahead of the flame and the regrid
//! estimator — are pinned against it: started from poisoned guards, every
//! zone a consumer is declared to read comes out bit-identical to the `All`
//! fill, and every other guard zone still holds the poison.

mod oracle;

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use rflash_hugepages::Policy;
use rflash_mesh::tree::{Mark, MeshConfig, Neighbor, Tree};
use rflash_mesh::{BlockId, BlockState, BoundaryCondition, Domain, GuardNeed};

use BoundaryCondition::{Outflow, Periodic, Reflecting};

/// xorshift64 — the tests' only randomness, so a case is its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value in (-8, 8) with a full 52-bit mantissa, so limiter branches
    /// and round-off both get exercised.
    fn value(&mut self) -> f64 {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 16.0
    }
}

/// Boundary flavors: a default plus per-axis wall overrides.
fn boundary(flavor: usize, cfg: &mut MeshConfig) {
    let walls = |bc| [Some(bc), Some(bc)];
    match flavor {
        0 => cfg.bc = Outflow,
        1 => cfg.bc = Reflecting,
        2 => cfg.bc = Periodic,
        // Periodic x, walls on y (the Rayleigh–Taylor channel).
        3 => {
            cfg.bc = Periodic;
            cfg.bc_faces[1] = walls(Reflecting);
        }
        // Walls on x, periodic y — and in 3-d an open z.
        4 => {
            cfg.bc = Periodic;
            cfg.bc_faces[0] = walls(Outflow);
            cfg.bc_faces[2] = walls(Outflow);
        }
        // One-sided mix: reflecting low faces, outflow high faces.
        _ => {
            cfg.bc = Outflow;
            for axis in 0..3 {
                cfg.bc_faces[axis][0] = Some(Reflecting);
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Case {
    seed: u64,
    three_d: bool,
    flavor: usize,
    wide_root: bool,
    small_block: bool,
}

fn config(case: Case) -> MeshConfig {
    let mut cfg = MeshConfig::test_2d();
    if case.three_d {
        cfg.ndim = 3;
        cfg.max_refine = 2;
        cfg.max_blocks = 160;
    } else {
        cfg.max_refine = 3;
        cfg.max_blocks = 192;
    }
    if case.small_block || case.three_d {
        cfg.nxb = 4;
        cfg.nguard = 2;
    }
    if case.wide_root {
        cfg.nroot = [2, 1, 1];
    }
    boundary(case.flavor, &mut cfg);
    cfg
}

/// Build the case's domain: one uniform refinement, then random adapt
/// rounds (the tree enforces 2:1 balance, so jumps appear wherever the
/// marks allow), then random data in every slab slot. (`adapt` walks a
/// `HashMap`, so block numbering differs between two builds of one case —
/// comparisons run on one domain, via [`snapshot`]/[`restore`].)
fn build(case: Case) -> Domain {
    let mut d = Domain::new(config(case), Policy::None);
    let mut rng = Rng(case.seed | 1);
    for round in 0..3 {
        let marks: HashMap<_, _> = d
            .tree
            .leaves()
            .into_iter()
            .map(|id| {
                let mark = match rng.next() % 4 {
                    _ if round == 0 => Mark::Refine,
                    0 | 1 => Mark::Refine,
                    2 => Mark::Derefine,
                    _ => Mark::Keep,
                };
                (id, mark)
            })
            .collect();
        d.tree.adapt(&mut d.unk, &marks);
    }
    for slab in d.unk.slabs_mut() {
        for v in slab {
            *v = rng.value();
        }
    }
    d
}

/// Every slab of the container, free slots included.
fn snapshot(d: &mut Domain) -> Vec<f64> {
    d.unk
        .slabs_mut()
        .flat_map(|slab| slab.iter().copied())
        .collect()
}

fn restore(d: &mut Domain, state: &[f64]) {
    let per = d.unk.per_block();
    for (slab, saved) in d.unk.slabs_mut().zip(state.chunks(per)) {
        slab.copy_from_slice(saved);
    }
}

/// Run the oracle on `d`'s current state and return (initial state, the
/// oracle's result); `d` is left holding the result.
fn oracle_result(d: &mut Domain) -> (Vec<f64>, Vec<f64>) {
    let initial = snapshot(d);
    oracle::fill_guardcells(&d.tree, &mut d.unk);
    (initial, snapshot(d))
}

fn first_difference(d: &mut Domain, want: &[f64]) -> Option<String> {
    let per = d.unk.per_block();
    let got = snapshot(d);
    (0..want.len())
        .find(|&o| want[o].to_bits() != got[o].to_bits())
        .map(|o| {
            format!(
                "block {} offset {}: oracle {} vs fill {}",
                o / per,
                o % per,
                want[o],
                got[o]
            )
        })
}

type Dir = [i32; 3];

fn is_face(d: Dir) -> bool {
    d.iter().filter(|&&c| c != 0).count() == 1
}

/// The guard regions a `need` fill is declared to write, derived from
/// `Tree::neighbor` alone: the need's faces on every leaf, plus all faces of
/// every coarse block one of those regions prolongs from (whose own faces
/// may prolong from a yet coarser block, hence the fixed point).
fn declared_regions(tree: &Tree, need: GuardNeed) -> HashSet<(BlockId, Dir)> {
    let faces: Vec<Dir> = tree
        .config()
        .neighbor_dirs()
        .into_iter()
        .filter(|&d| is_face(d))
        .collect();
    let wanted = |d: Dir| match need {
        GuardNeed::Axis(a) => d[a] != 0,
        GuardNeed::Faces => true,
        GuardNeed::All => unreachable!("All is the reference, not a subject"),
    };
    let mut set: HashSet<(BlockId, Dir)> = tree
        .leaves()
        .into_iter()
        .flat_map(|id| faces.iter().filter(|&&d| wanted(d)).map(move |&d| (id, d)))
        .collect();
    loop {
        let sources: Vec<BlockId> = set
            .iter()
            .filter_map(|&(id, d)| match tree.neighbor(id, d) {
                Neighbor::Coarser(src) => Some(src),
                _ => None,
            })
            .collect();
        let before = set.len();
        set.extend(
            sources
                .into_iter()
                .flat_map(|src| faces.iter().map(move |&d| (src, d))),
        );
        if set.len() == before {
            return set;
        }
    }
}

/// The parents a fill of `regions` must restrict first: those a same-level
/// copy reads, and the parents among their children, recursively.
fn live_parents(tree: &Tree, regions: &HashSet<(BlockId, Dir)>) -> HashSet<BlockId> {
    let is_parent = |id: BlockId| tree.block(id).state == BlockState::Parent;
    let mut stack: Vec<BlockId> = regions
        .iter()
        .filter_map(|&(id, d)| match tree.neighbor(id, d) {
            Neighbor::Same(nid) if is_parent(nid) => Some(nid),
            _ => None,
        })
        .collect();
    let mut live = HashSet::new();
    while let Some(pid) = stack.pop() {
        if live.insert(pid) {
            let meta = tree.block(pid);
            let children = meta.children.expect("a parent has children");
            stack.extend(
                children[..meta.n_children as usize]
                    .iter()
                    .copied()
                    .filter(|&c| is_parent(c)),
            );
        }
    }
    live
}

/// Padded-index zones of the guard region in direction `dir` (all-zero:
/// the interior).
fn region_zones(cfg: &MeshConfig, dir: Dir) -> Vec<(usize, usize, usize)> {
    let range = |a: usize| match dir[a] {
        _ if a >= cfg.ndim => 0..1,
        -1 => 0..cfg.nguard,
        0 => cfg.nguard..cfg.nguard + cfg.nxb,
        _ => cfg.nguard + cfg.nxb..2 * cfg.nguard + cfg.nxb,
    };
    let mut zones = Vec::new();
    for k in range(2) {
        for j in range(1) {
            for i in range(0) {
                zones.push((i, j, k));
            }
        }
    }
    zones
}

fn region_bits(d: &Domain, id: BlockId, dir: Dir) -> Vec<u64> {
    let cfg = d.tree.config();
    region_zones(cfg, dir)
        .into_iter()
        .flat_map(|(i, j, k)| (0..cfg.nvar).map(move |v| (v, i, j, k)))
        .map(|(v, i, j, k)| d.unk.get(v, i, j, k, id.idx()).to_bits())
        .collect()
}

const POISON: u64 = 0x7ff8_dead_beef_0001;

fn poison_guards(d: &mut Domain) {
    let cfg = *d.tree.config();
    for id in d.tree.active_ids() {
        for dir in cfg.neighbor_dirs() {
            for (i, j, k) in region_zones(&cfg, dir) {
                for v in 0..cfg.nvar {
                    d.unk.set(v, i, j, k, id.idx(), f64::from_bits(POISON));
                }
            }
        }
    }
}

/// One need, one rank count: poisoned start, then every declared region and
/// live-parent interior equals the `All` fill's (`all`, same start), every
/// other guard zone is still poison, every dead parent's interior is still
/// the start state's.
fn check_need(
    d: &mut Domain,
    initial: &[f64],
    all: &[f64],
    need: GuardNeed,
    nranks: usize,
) -> Result<(), String> {
    let declared = declared_regions(&d.tree, need);
    let live = live_parents(&d.tree, &declared);
    let dirs = d.tree.config().neighbor_dirs();
    let blocks = d.tree.active_ids();
    let interior = [0, 0, 0];

    // What the All fill left in each region, and the start state's interiors.
    let gather = |d: &mut Domain, state: &[f64], regions: &[Dir]| -> Vec<Vec<Vec<u64>>> {
        restore(d, state);
        blocks
            .iter()
            .map(|&id| regions.iter().map(|&dir| region_bits(d, id, dir)).collect())
            .collect()
    };
    let regions: Vec<Dir> = dirs.iter().copied().chain([interior]).collect();
    let want = gather(d, all, &regions);
    let start_interior = gather(d, initial, &[interior]);

    restore(d, initial);
    poison_guards(d);
    d.fill_guardcells_for(nranks, need);

    for (b, &id) in blocks.iter().enumerate() {
        for (n, &dir) in dirs.iter().enumerate() {
            let got = region_bits(d, id, dir);
            if declared.contains(&(id, dir)) {
                if got != want[b][n] {
                    return Err(format!(
                        "{id:?} region {dir:?}: declared, but differs from the All fill"
                    ));
                }
            } else if got.iter().any(|&bits| bits != POISON) {
                return Err(format!("{id:?} region {dir:?}: undeclared, but written"));
            }
        }
        let got = region_bits(d, id, interior);
        let (want, what) = if live.contains(&id) {
            (
                &want[b][dirs.len()],
                "live parent's interior differs from the All fill",
            )
        } else {
            (
                &start_interior[b][0],
                "interior of a leaf or dead parent was written",
            )
        };
        if &got != want {
            return Err(format!("{id:?}: {what}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fill_is_bit_identical_to_the_per_cell_oracle(
        seed in any::<u64>(),
        three_d in any::<bool>(),
        flavor in 0usize..6,
        wide_root in any::<bool>(),
        small_block in any::<bool>(),
    ) {
        let case = Case { seed, three_d, flavor, wide_root, small_block };
        let mut d = build(case);
        let (initial, want) = oracle_result(&mut d);

        for nranks in [1usize, 2, 4] {
            restore(&mut d, &initial);
            d.fill_guardcells(nranks);
            let diff = first_difference(&mut d, &want);
            prop_assert!(diff.is_none(), "{case:?} nranks={nranks}: {}", diff.unwrap_or_default());
        }
    }

    #[test]
    fn need_fills_write_exactly_their_declared_zones_as_the_all_fill_does(
        seed in any::<u64>(),
        three_d in any::<bool>(),
        flavor in 0usize..6,
        wide_root in any::<bool>(),
        small_block in any::<bool>(),
    ) {
        let case = Case { seed, three_d, flavor, wide_root, small_block };
        let mut d = build(case);
        let initial = snapshot(&mut d);
        d.fill_guardcells(1);
        let all = snapshot(&mut d);

        let ndim = d.tree.config().ndim;
        for need in (0..ndim).map(GuardNeed::Axis).chain([GuardNeed::Faces]) {
            for nranks in [1usize, 2, 4] {
                let verdict = check_need(&mut d, &initial, &all, need, nranks);
                prop_assert!(verdict.is_ok(), "{case:?} {need:?} nranks={nranks}: {}", verdict.unwrap_err());
            }
        }
    }
}

/// The serial free function builds its own plan; it must agree too.
#[test]
fn serial_free_function_matches_the_oracle_with_jumps_in_3d() {
    let case = Case {
        seed: 0x5EED,
        three_d: true,
        flavor: 3,
        wide_root: true,
        small_block: true,
    };
    let mut d = build(case);
    assert!(d.tree.leaves().len() > 8, "the case must refine");
    let (initial, want) = oracle_result(&mut d);
    restore(&mut d, &initial);
    rflash_mesh::guardcell::fill_guardcells(&d.tree, &mut d.unk);
    assert_eq!(first_difference(&mut d, &want), None);
}

/// The exchange plan (level lists + neighbor table) is built once per tree
/// epoch — not per fill, not per rank count — and rebuilt after a regrid.
#[test]
fn exchange_plan_is_built_once_per_tree_epoch() {
    let case = Case {
        seed: 7,
        three_d: false,
        flavor: 2,
        wide_root: false,
        small_block: false,
    };
    let mut d = build(case);
    assert_eq!(d.exchange_plan_builds(), 0);
    for nranks in [2usize, 2, 1, 4, 2] {
        d.fill_guardcells(nranks);
    }
    assert_eq!(
        d.exchange_plan_builds(),
        1,
        "same epoch, any rank count: one build"
    );

    let epoch = d.tree.epoch();
    let marks: HashMap<_, _> = d
        .tree
        .leaves()
        .into_iter()
        .map(|id| (id, Mark::Refine))
        .collect();
    d.tree.adapt(&mut d.unk, &marks);
    assert!(
        d.tree.epoch() > epoch,
        "a regrid that changes the tree bumps the epoch"
    );
    d.fill_guardcells(2);
    d.fill_guardcells(2);
    assert_eq!(
        d.exchange_plan_builds(),
        2,
        "rebuilt exactly once after tree.adapt"
    );

    // The rebuilt plan covers the new blocks: the fill still matches.
    let (initial, want) = oracle_result(&mut d);
    restore(&mut d, &initial);
    d.fill_guardcells(4);
    assert_eq!(first_difference(&mut d, &want), None);
    assert_eq!(d.exchange_plan_builds(), 2);
}

//! Property-based tests of mesh invariants: guard-fill idempotence,
//! conservation of restriction∘prolongation, 2:1 balance under arbitrary
//! mark sets, Morton ordering, and the maintained leaf order against a
//! scan-and-sort oracle.

use proptest::prelude::*;
use rflash_hugepages::Policy;
use rflash_mesh::guardcell::fill_guardcells;
use rflash_mesh::tree::{Mark, MeshConfig, Neighbor, Tree};
use rflash_mesh::{vars, BlockId, BlockState, Domain};
use std::collections::HashMap;

/// The leaf order as `Tree::leaves` used to compute it on every call:
/// scan every pool slot for leaves, then stable-sort by Morton code.
fn leaves_by_scan(tree: &Tree) -> Vec<BlockId> {
    let cfg = tree.config();
    let mut ids: Vec<BlockId> = (0..cfg.max_blocks as u32)
        .map(BlockId)
        .filter(|&id| tree.block(id).is_leaf())
        .collect();
    ids.sort_by_key(|id| tree.block(*id).key.morton_code(cfg.max_refine));
    ids
}

/// A leaf may refine on its own without breaking 2:1 balance when it is
/// below `max_refine` and no neighbor is coarser.
fn can_refine(tree: &Tree, id: BlockId) -> bool {
    tree.block(id).key.level < tree.config().max_refine
        && tree
            .config()
            .neighbor_dirs()
            .into_iter()
            .all(|d| !matches!(tree.neighbor(id, d), Neighbor::Coarser(_)))
}

/// A parent may derefine on its own when its children are leaves and none
/// of them has a finer neighbor (the veto `adapt` applies).
fn can_derefine(tree: &Tree, pid: BlockId) -> bool {
    let meta = tree.block(pid);
    let Some(children) = meta.children else {
        return false;
    };
    children[..meta.n_children as usize].iter().all(|&c| {
        tree.block(c).is_leaf()
            && tree
                .config()
                .neighbor_dirs()
                .into_iter()
                .all(|d| match tree.neighbor(c, d) {
                    Neighbor::Same(n) => tree.block(n).state != BlockState::Parent,
                    Neighbor::Coarser(_) | Neighbor::Boundary => true,
                })
    })
}

/// Drive `d` through `ops` pseudo-random refine / derefine / `adapt`
/// operations drawn from `seed`, checking after each one that the
/// maintained leaf order equals the scan-and-sort oracle.
fn leaf_order_follows_every_change(
    d: &mut Domain,
    seed: u64,
    ops: usize,
) -> Result<(), TestCaseError> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    prop_assert_eq!(d.tree.leaves(), leaves_by_scan(&d.tree));
    for op in 0..ops {
        let (epoch, leaves) = (d.tree.epoch(), d.tree.leaves());
        match next() % 3 {
            0 => {
                let candidates: Vec<BlockId> = d
                    .tree
                    .leaves()
                    .into_iter()
                    .filter(|&id| can_refine(&d.tree, id))
                    .collect();
                if let Some(&id) = candidates.get(next() as usize % candidates.len().max(1)) {
                    d.tree.refine_block(id, &mut d.unk);
                }
            }
            1 => {
                let candidates: Vec<BlockId> = d
                    .tree
                    .active_ids()
                    .into_iter()
                    .filter(|&id| can_derefine(&d.tree, id))
                    .collect();
                if let Some(&id) = candidates.get(next() as usize % candidates.len().max(1)) {
                    d.tree.derefine_block(id, &mut d.unk);
                }
            }
            _ => {
                let mut marks = HashMap::new();
                for id in d.tree.leaves() {
                    let mark = match next() % 3 {
                        0 => Mark::Refine,
                        1 => Mark::Derefine,
                        _ => Mark::Keep,
                    };
                    marks.insert(id, mark);
                }
                d.tree.adapt(&mut d.unk, &marks);
            }
        }
        prop_assert_eq!(d.tree.leaves(), leaves_by_scan(&d.tree), "after op {}", op);
        // The order only moves together with the epoch.
        if d.tree.epoch() == epoch {
            prop_assert_eq!(d.tree.leaves(), leaves);
        }
    }
    d.tree.check_balance().map_err(TestCaseError::fail)?;
    Ok(())
}

fn domain() -> Domain {
    let mut cfg = MeshConfig::test_2d();
    cfg.max_blocks = 1024;
    cfg.max_refine = 3;
    Domain::new(cfg, Policy::None)
}

/// Apply a pseudo-random mark pattern derived from `seed`.
fn adapt_randomly(d: &mut Domain, seed: u64, rounds: usize) {
    let mut state = seed | 1;
    for _ in 0..rounds {
        let mut marks = HashMap::new();
        for id in d.tree.leaves() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mark = match state % 4 {
                0 => Mark::Refine,
                1 => Mark::Derefine,
                _ => Mark::Keep,
            };
            marks.insert(id, mark);
        }
        d.tree.adapt(&mut d.unk, &marks);
    }
}

fn fill_linear(d: &mut Domain, a: f64, b: f64, c: f64) {
    for id in d.tree.leaves() {
        for j in d.unk.interior() {
            for i in d.unk.interior() {
                let x = d.tree.cell_center(id, i, j, 0);
                d.unk
                    .set(vars::DENS, i, j, 0, id.idx(), a + b * x[0] + c * x[1]);
            }
        }
    }
}

fn interior_sum_weighted(d: &Domain) -> f64 {
    // Volume-weighted integral of DENS: conserved under re-gridding.
    let mut total = 0.0;
    for id in d.tree.leaves() {
        let dx = d.tree.cell_size(id);
        for j in d.unk.interior() {
            for i in d.unk.interior() {
                total += d.unk.get(vars::DENS, i, j, 0, id.idx()) * dx[0] * dx[1];
            }
        }
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary adapt sequences keep the tree 2:1 balanced and the pool
    /// accounting consistent.
    #[test]
    fn adapt_preserves_balance(seed in any::<u64>(), rounds in 1usize..4) {
        let mut d = domain();
        adapt_randomly(&mut d, seed, rounds);
        d.tree.check_balance().unwrap();
        let leaves = d.tree.leaves().len();
        prop_assert!(leaves >= 1);
        prop_assert!(d.tree.active_blocks() >= leaves);
    }

    /// Guard-cell filling is idempotent: a second fill changes nothing.
    #[test]
    fn guardfill_is_idempotent(seed in any::<u64>()) {
        let mut d = domain();
        adapt_randomly(&mut d, seed, 2);
        fill_linear(&mut d, 1.0, 2.0, -0.5);
        fill_guardcells(&d.tree, &mut d.unk);
        let snapshot: Vec<f64> = d
            .tree
            .leaves()
            .iter()
            .flat_map(|id| d.unk.block_slab(id.idx()).to_vec())
            .collect();
        fill_guardcells(&d.tree, &mut d.unk);
        let again: Vec<f64> = d
            .tree
            .leaves()
            .iter()
            .flat_map(|id| d.unk.block_slab(id.idx()).to_vec())
            .collect();
        prop_assert_eq!(snapshot, again);
    }

    /// The volume integral of a field is invariant under refinement and
    /// derefinement (conservative prolongation/restriction).
    #[test]
    fn regridding_conserves_volume_integral(
        seed in any::<u64>(),
        a in -10.0f64..10.0,
        b in -10.0f64..10.0,
        c in -10.0f64..10.0,
    ) {
        let mut d = domain();
        adapt_randomly(&mut d, seed, 2);
        fill_linear(&mut d, a, b, c);
        let before = interior_sum_weighted(&d);
        // Refine everything once, then derefine everything back.
        let marks: HashMap<_, _> = d.tree.leaves().into_iter().map(|id| (id, Mark::Refine)).collect();
        d.tree.adapt(&mut d.unk, &marks);
        let mid = interior_sum_weighted(&d);
        prop_assert!((mid - before).abs() <= 1e-12 * before.abs().max(1.0),
            "refine changed the integral: {before} -> {mid}");
        let marks: HashMap<_, _> = d.tree.leaves().into_iter().map(|id| (id, Mark::Derefine)).collect();
        d.tree.adapt(&mut d.unk, &marks);
        let after = interior_sum_weighted(&d);
        prop_assert!((after - before).abs() <= 1e-12 * before.abs().max(1.0),
            "derefine changed the integral: {before} -> {after}");
    }

    /// Leaves are always Morton-sorted and unique.
    #[test]
    fn leaves_sorted_and_unique(seed in any::<u64>()) {
        let mut d = domain();
        adapt_randomly(&mut d, seed, 3);
        let leaves = d.tree.leaves();
        let codes: Vec<u128> = leaves
            .iter()
            .map(|id| d.tree.block(*id).key.morton_code(d.tree.config().max_refine))
            .collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), codes.len(), "duplicate morton codes");
    }

    /// The maintained 2-d leaf order equals the scan-and-sort oracle after
    /// every refine, derefine and `adapt`, on a multi-root grid.
    #[test]
    fn leaf_order_matches_the_scan_oracle_2d(seed in any::<u64>(), ops in 1usize..16) {
        let mut cfg = MeshConfig::test_2d();
        cfg.nroot = [2, 3, 1];
        cfg.max_blocks = 1024;
        cfg.max_refine = 3;
        let mut d = Domain::new(cfg, Policy::None);
        leaf_order_follows_every_change(&mut d, seed, ops)?;
    }

    /// The same in 3-d.
    #[test]
    fn leaf_order_matches_the_scan_oracle_3d(seed in any::<u64>(), ops in 1usize..10) {
        let mut cfg = MeshConfig::test_2d();
        cfg.ndim = 3;
        cfg.nroot = [2, 1, 1];
        cfg.max_blocks = 256;
        cfg.max_refine = 2;
        let mut d = Domain::new(cfg, Policy::None);
        leaf_order_follows_every_change(&mut d, seed, ops)?;
    }
}

mod three_d {
    use rflash_hugepages::Policy;
    use rflash_mesh::flux::{Face, FluxRegister};
    use rflash_mesh::guardcell::fill_guardcells;
    use rflash_mesh::tree::{Mark, MeshConfig};
    use rflash_mesh::{vars, Domain};
    use std::collections::HashMap;

    fn domain_3d() -> Domain {
        let mut cfg = MeshConfig::test_2d();
        cfg.ndim = 3;
        cfg.max_blocks = 1024;
        cfg.max_refine = 2;
        Domain::new(cfg, Policy::None)
    }

    #[test]
    fn three_d_fine_coarse_guards_reproduce_linear_fields() {
        let mut d = domain_3d();
        // Refine one octant so every kind of 3-d interface exists.
        let root = d.tree.leaves()[0];
        let children = d.tree.refine_block(root, &mut d.unk);
        d.tree.refine_block(children[0], &mut d.unk);
        let f = |x: [f64; 3]| 1.0 + 2.0 * x[0] - 3.0 * x[1] + 0.5 * x[2];
        for id in d.tree.leaves() {
            for k in d.unk.interior_k() {
                for j in d.unk.interior() {
                    for i in d.unk.interior() {
                        let x = d.tree.cell_center(id, i, j, k);
                        d.unk.set(vars::DENS, i, j, k, id.idx(), f(x));
                    }
                }
            }
        }
        fill_guardcells(&d.tree, &mut d.unk);
        // Check all guards whose coarse stencil stays inside the domain.
        let cfg = *d.tree.config();
        let margin = 3.0 / (cfg.nxb as f64); // 3 coarse cells at level 0
        for id in d.tree.leaves() {
            let (ni, nj, nk) = d.unk.padded();
            for k in 0..nk {
                for j in 0..nj {
                    for i in 0..ni {
                        let interior = d.unk.interior().contains(&i)
                            && d.unk.interior().contains(&j)
                            && d.unk.interior().contains(&k);
                        if interior {
                            continue;
                        }
                        let x = d.tree.cell_center(id, i, j, k);
                        if !(0..3).all(|a| x[a] > margin && x[a] < 1.0 - margin) {
                            continue;
                        }
                        let got = d.unk.get(vars::DENS, i, j, k, id.idx());
                        let want = f(x);
                        assert!(
                            (got - want).abs() < 1e-10 * want.abs().max(1.0),
                            "leaf {id:?} guard ({i},{j},{k}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn three_d_flux_corrections_average_four_fine_faces() {
        let mut d = domain_3d();
        let root = d.tree.leaves()[0];
        let children = d.tree.refine_block(root, &mut d.unk);
        let grand = d.tree.refine_block(children[0], &mut d.unk);

        let nxb = d.tree.config().nxb;
        let mut reg = FluxRegister::new(3, nxb, 1, d.tree.config().max_blocks);
        // Coarse block children[1] (the +x sibling) reports 1.0 on its -x
        // face; the four fine +x-half children of children[0] report 5.0.
        for c1 in 0..nxb {
            for c2 in 0..nxb {
                reg.save(
                    children[1].idx(),
                    Face { axis: 0, side: 0 },
                    [c1, c2],
                    0,
                    1.0,
                );
            }
        }
        for g in [grand[1], grand[3], grand[5], grand[7]] {
            for c1 in 0..nxb {
                for c2 in 0..nxb {
                    reg.save(g.idx(), Face { axis: 0, side: 1 }, [c1, c2], 0, 5.0);
                }
            }
        }
        let corr = reg.corrections(&d.tree);
        let ours: Vec<_> = corr
            .iter()
            .filter(|c| c.block == children[1] && c.face.axis == 0 && c.face.side == 0)
            .collect();
        assert_eq!(ours.len(), nxb * nxb, "one correction per coarse face cell");
        for c in ours {
            assert!(
                (c.delta - 4.0).abs() < 1e-13,
                "mean(5)−1 = 4, got {}",
                c.delta
            );
        }
    }

    #[test]
    fn three_d_adapt_keeps_balance_under_random_marks() {
        let mut d = domain_3d();
        let mut state = 0xDEADBEEFu64;
        for _ in 0..3 {
            let mut marks = HashMap::new();
            for id in d.tree.leaves() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let m = match state % 3 {
                    0 => Mark::Refine,
                    1 => Mark::Derefine,
                    _ => Mark::Keep,
                };
                marks.insert(id, m);
            }
            d.tree.adapt(&mut d.unk, &marks);
        }
        d.tree.check_balance().unwrap();
    }

    /// `unk` is a sparse reservation: through refine → derefine → refine
    /// cycles its resident set stays at the high-water block count (the
    /// free list recycles warm slots first), and a recycled slot's stale
    /// contents never leak into a result — poisoning every freed slab with
    /// NaN changes nothing.
    #[test]
    fn three_d_unk_residency_follows_the_free_list() {
        let run = |poison: bool| -> (Domain, usize) {
            let mut d = domain_3d();
            let root = d.tree.leaves()[0];
            for k in d.unk.interior_k() {
                for j in d.unk.interior() {
                    for i in d.unk.interior() {
                        let x = d.tree.cell_center(root, i, j, k);
                        for v in 0..vars::NVAR {
                            let val = 1.0 + v as f64 + x[0] + 2.0 * x[1] * x[1] + 3.0 * x[2];
                            d.unk.set(v, i, j, k, root.idx(), val);
                        }
                    }
                }
            }
            let octants = d.tree.refine_block(root, &mut d.unk);
            let mut high_water = d.tree.active_blocks();
            for round in 0..4 {
                let picked = [octants[round], octants[(round + 3) % 8]];
                let mut freed = Vec::new();
                for &p in &picked {
                    freed.extend(d.tree.refine_block(p, &mut d.unk));
                }
                high_water = high_water.max(d.tree.active_blocks());
                for &p in &picked {
                    d.tree.derefine_block(p, &mut d.unk);
                }
                if poison {
                    for id in freed {
                        d.unk.block_slab_mut(id.idx()).fill(f64::NAN);
                    }
                }
            }
            for &p in &[octants[1], octants[6]] {
                d.tree.refine_block(p, &mut d.unk);
            }
            high_water = high_water.max(d.tree.active_blocks());
            fill_guardcells(&d.tree, &mut d.unk);
            (d, high_water)
        };
        let (clean, high_water) = run(false);
        let (poisoned, _) = run(true);
        assert_eq!(clean.tree.leaves(), poisoned.tree.leaves());
        for id in clean.tree.leaves() {
            let (a, b) = (
                clean.unk.block_slab(id.idx()),
                poisoned.unk.block_slab(id.idx()),
            );
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "stale data leaked into {:?}",
                clean.tree.block(id).key
            );
        }
        for d in [&clean, &poisoned] {
            let slab_bytes = (d.unk.per_block() * 8) as u64;
            let rss = d.unk.backing_report().rss_bytes;
            assert!(
                rss >= slab_bytes,
                "smaps must see the written slabs, got {rss}"
            );
            assert!(
                rss <= (high_water as u64 + 2) * slab_bytes + (2 << 20),
                "{rss} B resident for a high-water of {high_water} blocks of {slab_bytes} B \
                 ({} B reserved)",
                d.unk.bytes()
            );
        }
    }
}

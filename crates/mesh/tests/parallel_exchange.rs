//! Parity and determinism tests for the pooled parallel guard-cell
//! exchange: `Domain::fill_guardcells(nranks)` must be *bit-identical* to
//! the serial `guardcell::fill_guardcells` on every boundary flavor the
//! mesh supports (periodic wrap, reflecting mirror, outflow, fine–coarse
//! interfaces), and repeated dispatches must be deterministic.

use rflash_mesh::guardcell::fill_guardcells as serial_fill;
use rflash_mesh::tree::MeshConfig;
use rflash_mesh::{vars, BlockId, BlockState, BoundaryCondition, Domain};

use rflash_hugepages::Policy;

/// A refined test mesh: root split once, first child split again, so the
/// tree carries level-1/level-2 fine–coarse interfaces in every direction.
fn build(bc: BoundaryCondition) -> Domain {
    let mut cfg = MeshConfig::test_2d();
    cfg.bc = bc;
    let mut d = Domain::new(cfg, Policy::None);
    let root = d.tree.leaves()[0];
    let children = d.tree.refine_block(root, &mut d.unk);
    d.tree.refine_block(children[0], &mut d.unk);
    d
}

/// Deterministic, var-dependent, spatially varying leaf data. Velocities
/// get sign structure so reflecting mirrors actually exercise the flip.
fn seed_leaves(d: &mut Domain) {
    for id in d.tree.leaves() {
        for k in d.unk.interior_k() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    let x = d.tree.cell_center(id, i, j, k);
                    for var in 0..d.tree.config().nvar {
                        let v = 1.0
                            + (var as f64 + 1.0) * x[0]
                            + 0.5 * (var as f64 - 2.0) * x[1]
                            + 0.01 * (id.0 as f64);
                        let v = match var {
                            vars::VELX => v - 1.7,
                            vars::VELY => 1.3 - v,
                            vars::VELZ => 0.25 * v,
                            _ => v.abs() + 0.1,
                        };
                        d.unk.set(var, i, j, k, id.idx(), v);
                    }
                }
            }
        }
    }
}

/// Bitwise comparison of every active (non-free) block slab.
fn assert_bit_identical(a: &Domain, b: &Domain, what: &str) {
    let max_blocks = a.tree.config().max_blocks;
    for raw in 0..max_blocks as u32 {
        let id = BlockId(raw);
        if a.tree.block(id).state == BlockState::Free {
            continue;
        }
        let sa = a.unk.block_slab(id.idx());
        let sb = b.unk.block_slab(id.idx());
        for (off, (x, y)) in sa.iter().zip(sb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: block {raw} differs at offset {off}: {x} vs {y}"
            );
        }
    }
}

fn parity_case(bc: BoundaryCondition, what: &str) {
    for nranks in [2usize, 4, 7] {
        let mut serial = build(bc);
        let mut parallel = build(bc);
        seed_leaves(&mut serial);
        seed_leaves(&mut parallel);

        serial_fill(&serial.tree, &mut serial.unk);
        parallel.fill_guardcells(nranks);

        assert_bit_identical(&serial, &parallel, &format!("{what}, nranks={nranks}"));
    }
}

#[test]
fn parallel_fill_matches_serial_on_outflow_fine_coarse() {
    parity_case(BoundaryCondition::Outflow, "outflow");
}

#[test]
fn parallel_fill_matches_serial_on_reflecting() {
    parity_case(BoundaryCondition::Reflecting, "reflecting");
}

#[test]
fn parallel_fill_matches_serial_on_periodic() {
    parity_case(BoundaryCondition::Periodic, "periodic");
}

/// Whole-step determinism: guard fill + a guard-reading stencil update
/// must give the same bits for every rank count, including serial.
#[test]
fn stencil_update_is_bit_identical_across_rank_counts() {
    let reference = run_stencil(1);
    for nranks in [2usize, 4, 7] {
        let d = run_stencil(nranks);
        assert_bit_identical(&reference, &d, &format!("stencil, nranks={nranks}"));
    }
}

fn run_stencil(nranks: usize) -> Domain {
    let mut d = build(BoundaryCondition::Periodic);
    seed_leaves(&mut d);
    for _ in 0..3 {
        d.fill_guardcells(nranks);
        // A cross-stencil smoother over DENS that reads guard cells — any
        // scheduling nondeterminism in the exchange would surface here.
        let geom = d.unk.geom();
        d.par_leaf_update(nranks, |_tree, _id, slab, probe| {
            let mut next = Vec::new();
            for j in geom.nguard..geom.nguard + geom.nxb {
                for i in geom.nguard..geom.nguard + geom.nxb {
                    let c = slab[geom.slab_idx(vars::DENS, i, j, 0)];
                    let w = slab[geom.slab_idx(vars::DENS, i - 1, j, 0)];
                    let e = slab[geom.slab_idx(vars::DENS, i + 1, j, 0)];
                    let s = slab[geom.slab_idx(vars::DENS, i, j - 1, 0)];
                    let n = slab[geom.slab_idx(vars::DENS, i, j + 1, 0)];
                    next.push((
                        geom.slab_idx(vars::DENS, i, j, 0),
                        0.5 * c + 0.125 * (w + e + s + n),
                    ));
                }
            }
            for (idx, v) in next {
                slab[idx] = v;
            }
            probe.stats.zones += (geom.nxb * geom.nxb) as u64;
        });
    }
    d
}

/// The pooled fill is idempotent, like the serial one: a second exchange
/// with no interior changes must not move a single bit.
#[test]
fn parallel_fill_is_idempotent() {
    let mut once = build(BoundaryCondition::Reflecting);
    seed_leaves(&mut once);
    once.fill_guardcells(4);

    let mut twice = build(BoundaryCondition::Reflecting);
    seed_leaves(&mut twice);
    twice.fill_guardcells(4);
    twice.fill_guardcells(4);

    assert_bit_identical(&once, &twice, "idempotence");
}

//! Mesh-operation microbenchmarks: guard-cell fill and refinement — the
//! PARAMESH overheads that frame the per-step cost around the instrumented
//! regions. The fill runs through `Domain::fill_guardcells_for`, the step
//! loop's path (cached exchange plan), once per need: `axis` is what a
//! sweep asks for, `faces` what the flame and the regrid estimator ask for,
//! `all` every guard zone of every block (the `mesh.guardcell.fill_ms` row
//! of the `perf_ledger` benchmark times that one from outside).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rflash_hugepages::Policy;
use rflash_mesh::tree::{Mark, MeshConfig};
use rflash_mesh::{vars, Domain, GuardNeed};
use std::collections::HashMap;

fn refined_domain(levels: u8) -> Domain {
    let mut cfg = MeshConfig::test_2d();
    cfg.nxb = 16;
    cfg.max_blocks = 4096;
    // Headroom above the pre-refined depth: the refine/derefine cycle
    // bench pushes one block a level deeper.
    cfg.max_refine = levels + 1;
    let mut d = Domain::new(cfg, Policy::None);
    for _ in 0..levels {
        let marks: HashMap<_, _> = d
            .tree
            .leaves()
            .into_iter()
            .map(|id| (id, Mark::Refine))
            .collect();
        d.tree.adapt(&mut d.unk, &marks);
    }
    // Fill with smooth data.
    for id in d.tree.leaves() {
        for j in d.unk.interior() {
            for i in d.unk.interior() {
                let x = d.tree.cell_center(id, i, j, 0);
                d.unk
                    .set(vars::DENS, i, j, 0, id.idx(), 1.0 + x[0] + 2.0 * x[1]);
            }
        }
    }
    d
}

fn bench_guardcell_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("guardcell_fill");
    group.sample_size(20);
    for levels in [2u8, 3] {
        let mut d = refined_domain(levels);
        let leaves = d.tree.leaves().len();
        for (row, need) in [
            ("axis", GuardNeed::Axis(0)),
            ("faces", GuardNeed::Faces),
            ("all", GuardNeed::All),
        ] {
            group.bench_function(BenchmarkId::new(row, format!("{leaves}_leaves")), |b| {
                b.iter(|| black_box(&mut d).fill_guardcells_for(1, need))
            });
        }
    }
    group.finish();
}

fn bench_refine_derefine_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine_derefine");
    group.sample_size(20);
    group.bench_function("one_block_cycle", |b| {
        let mut d = refined_domain(1);
        let target = d.tree.leaves()[0];
        b.iter(|| {
            let children = d.tree.refine_block(target, &mut d.unk);
            black_box(&children);
            d.tree.derefine_block(target, &mut d.unk);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_guardcell_fill, bench_refine_derefine_cycle);
criterion_main!(benches);

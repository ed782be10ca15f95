//! E6: the `unk` layout ablation — the paper's §I.C motivation. Modeled
//! DTLB misses of one-variable sweeps in FLASH's var-interleaved order
//! (replayed through `UnkGeom::pencil_pattern`) versus the
//! structure-of-arrays what-if (the same rows at an 8-byte stride over the
//! same mapping), under base and huge frames, plus the real sweep time of
//! the FLASH order under base pages and hugetlbfs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rflash_hugepages::Policy;
use rflash_mesh::unk::UnkGeom;
use rflash_mesh::UnkStorage;
use rflash_tlbsim::{AccessPattern, FrameSizing, Tlb, TlbConfig};

const NXB: usize = 16;
const BLOCKS: usize = 128;

fn sweep_var_real(unk: &mut UnkStorage, var: usize) -> f64 {
    // Real memory traffic: read one variable over every interior zone of
    // every block (the paper's strided pattern).
    let mut acc = 0.0;
    for blk in 0..BLOCKS {
        for k in unk.interior_k() {
            for j in unk.interior() {
                for i in unk.interior() {
                    acc += unk.get(var, i, j, k, blk);
                }
            }
        }
    }
    acc
}

fn bench_sweep_real_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("unk_sweep_time");
    group.throughput(criterion::Throughput::Elements(
        (BLOCKS * NXB * NXB * NXB) as u64,
    ));
    for policy in [
        Policy::None,
        Policy::HugeTlbFs(rflash_hugepages::PageSize::Huge2M),
    ] {
        let mut unk = UnkStorage::new(3, NXB, 4, 11, BLOCKS, policy);
        group.bench_function(BenchmarkId::new("dens_sweep", policy), |b| {
            b.iter(|| black_box(sweep_var_real(&mut unk, 0)))
        });
    }
    group.finish();
}

/// Row `(j, k)` of variable 0 in block `blk`: FLASH order, or the SoA
/// what-if (the variable's zones contiguous from the slab's start).
fn row(geom: &UnkGeom, soa: bool, j: usize, k: usize, blk: usize) -> AccessPattern {
    if soa {
        AccessPattern::Strided {
            base: geom.base_addr + 8 * (blk * geom.per_block + geom.cell(0, j, k)),
            stride: 8,
            count: geom.ni,
            elem: 8,
        }
    } else {
        geom.pencil_pattern(0, 0, j, k, blk)
    }
}

fn bench_layout_modeled_misses(c: &mut Criterion) {
    let mut group = c.benchmark_group("unk_layout_modeled_dtlb");
    group.sample_size(10);
    let unk = UnkStorage::new(3, NXB, 4, 11, BLOCKS, Policy::None);
    let geom = unk.geom();
    for (order, soa) in [("flash", false), ("soa", true)] {
        for (fname, sizing) in [
            ("base", FrameSizing::Base),
            ("huge2M", FrameSizing::huge(2 << 20)),
        ] {
            group.bench_function(BenchmarkId::new(fname, order), |b| {
                b.iter(|| {
                    let mut tlb = Tlb::new(TlbConfig::a64fx_like());
                    tlb.map_region(unk.base_addr(), unk.bytes(), sizing);
                    for blk in 0..BLOCKS {
                        for k in unk.interior_k() {
                            for j in unk.interior() {
                                row(&geom, soa, j, k, blk).replay(&mut tlb);
                            }
                        }
                    }
                    black_box(tlb.stats().walks)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_real_time, bench_layout_modeled_misses);
criterion_main!(benches);

//! Rank-pool scaling microbenchmark: full time steps on a fixed 2-d Sedov
//! mesh at nranks ∈ {1, 2, 4, 8}. Regridding is disabled so every rank
//! count steps the identical block list and the cached partition is built
//! exactly once — the measurement isolates the executor, not the AMR.
//!
//! On a single hardware core the simulated ranks time-slice and the curve
//! is flat (or slightly worse from dispatch overhead); on a multi-core
//! host the same binary shows the pool's speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rflash_core::{registry, RuntimeParams};
use rflash_hugepages::Policy;

fn bench_step_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_scaling");
    group.sample_size(10);
    let mut spec = registry::load("sedov").expect("built-in scenario");
    spec.mesh.ndim = 2;
    spec.mesh.nxb = 16;
    spec.mesh.max_blocks = 1024;
    // `build` takes the regrid cadence from the spec, not from the params.
    spec.budgets.regrid_every = 0;
    for nranks in [1usize, 2, 4, 8] {
        let mut sim = spec
            .build(RuntimeParams {
                policy: Policy::None,
                nranks,
                pattern_every: 0,
                gather_every: 0,
                ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
            })
            .expect("committed spec builds");
        // Warm the pool, the cached partition, and the shock profile.
        sim.evolve(2);
        group.bench_function(
            BenchmarkId::from_parameter(format!("nranks_{nranks}")),
            |b| b.iter(|| sim.step()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_step_scaling);
criterion_main!(benches);

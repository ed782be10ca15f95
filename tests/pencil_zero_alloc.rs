//! Steady-state sweeps must be allocation-free: the pencil engine's SoA
//! scratch comes from a per-rank `HugeArena` sized on the first epoch and
//! recycled (rewound, never re-mapped) on every later one. A rebuild would
//! re-enter the huge-page degradation chain, whose every attempt/fallback
//! is counted process-wide by `AllocStats` — so the assertion is simply a
//! zero counter delta after the first epoch.
//!
//! This lives in its own integration-test binary on purpose: the counters
//! are process-wide, and unrelated tests allocating regions in parallel
//! threads would make the delta meaningless.

use rflash::core::{registry, StepScheduler};
use rflash::hugepages::{PageSize, Policy};
use rflash::hydro::{
    compute_dt_parallel_raw, sweep_direction, SweepConfig, SweepEngine, SweepEos, NFLUX,
};
use rflash::mesh::flux::FluxRegister;
use rflash::perfmon::AllocSummary;

#[test]
fn steady_state_sweeps_allocate_nothing_after_first_epoch() {
    let mut spec = registry::load("sedov").unwrap();
    spec.mesh.max_refine = 1;
    spec.mesh.max_blocks = 256;
    // Request hugetlbfs scratch: every arena (re)build walks the
    // degradation chain and bumps at least `hugetlb_attempts`, so a
    // rebuild in the steady state cannot hide from the delta below —
    // whatever backing the host actually grants.
    let params = registry::smoke_params(&spec, 1, SweepEngine::Pencil, StepScheduler::default());
    let mut sim = spec.build(params).unwrap();
    let ndim = sim.domain.tree.config().ndim;
    let cfg = SweepConfig {
        engine: SweepEngine::Pencil,
        scratch_policy: Policy::HugeTlbFs(PageSize::Huge2M),
        pattern_every: 0,
        ..SweepConfig::default()
    };
    let mut reg = FluxRegister::new(
        ndim,
        sim.domain.tree.config().nxb,
        NFLUX,
        sim.domain.tree.config().max_blocks,
    );

    // First epoch: arenas are built (counters may move — that's the cost
    // we amortize, not the one we forbid).
    let dt = compute_dt_parallel_raw(&mut sim.domain, 0.3, 1);
    let mut zones_first = 0u64;
    for dir in 0..ndim {
        for p in sweep_direction(&mut sim.domain, &SweepEos::Defer, dir, dt, &mut reg, &cfg) {
            zones_first += p.stats.zones;
        }
    }
    assert!(zones_first > 0, "pencil engine swept the grid");

    // Steady state: several more epochs must not touch the allocator.
    let baseline = AllocSummary::capture();
    for _ in 0..4 {
        let dt = compute_dt_parallel_raw(&mut sim.domain, 0.3, 1);
        for dir in 0..ndim {
            for p in sweep_direction(&mut sim.domain, &SweepEos::Defer, dir, dt, &mut reg, &cfg) {
                let _ = p;
            }
        }
    }
    let delta = AllocSummary::since(&baseline).stats;
    assert_eq!(
        delta,
        Default::default(),
        "steady-state sweeps re-entered the allocation chain: {delta:?}"
    );
}

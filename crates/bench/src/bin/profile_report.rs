//! The paper's §II profiling step, reproduced: "our MAP study indicated
//! that FLASH spent considerable time in the routines for the EOS" — run
//! the supernova workload and print the per-unit timer breakdown, plus the
//! same for the Sedov workload (where hydro dominates instead).

use rflash_bench::RunScale;
use rflash_core::registry::{self, EosSpec};
use rflash_core::RuntimeParams;
use rflash_hugepages::Policy;

/// Build a registered problem at `scale` on two ranks, uninstrumented.
fn build(name: &str, scale: RunScale) -> rflash_core::Simulation {
    let mut spec = registry::load(name).expect("built-in scenario");
    spec.mesh.max_refine = scale.max_refine;
    spec.mesh.max_blocks = scale.max_blocks;
    if let EosSpec::Helmholtz { .. } = spec.eos {
        spec.eos = EosSpec::Helmholtz {
            coarse_table: scale.coarse_table,
        };
    }
    spec.build(RuntimeParams {
        policy: Policy::None,
        pattern_every: 0,
        gather_every: 0,
        nranks: 2,
        ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
    })
    .expect("committed spec builds")
}

fn rank_report(loads: &[rflash_perfmon::RankLoad]) {
    if loads.is_empty() {
        println!("  (serial run: rank pool never engaged)");
        return;
    }
    println!("  rank pool: {} dispatches", loads[0].dispatches);
    for l in loads {
        println!(
            "    rank {:<2} busy {:>7.3} s  idle {:>7.3} s",
            l.rank, l.busy_s, l.idle_s
        );
    }
    println!(
        "  -> imbalance (max/mean busy): {:.2}, idle fraction: {:.0}%",
        rflash_perfmon::imbalance(loads),
        rflash_perfmon::idle_fraction(loads) * 100.0
    );
}

/// Pencil/batch counters: how much cell traffic moved through the SoA
/// gather/scatter path, what fraction of lane-kernel zones ran in
/// full-width SIMD chunks vs. the scalar-lane tail, and how the batched
/// Helmholtz Newton's active-lane occupancy decayed per iteration
/// (plateau-accepted lanes are counted apart from clean convergences).
fn batch_report(sim: &mut rflash_core::Simulation) {
    let hydro = *sim.hydro_session.stats_mut();
    let eos = *sim.eos_session.stats_mut();
    let s = hydro + eos;
    println!(
        "  pencil gather/scatter: {:.1}M / {:.1}M cells",
        s.gather_cells as f64 / 1e6,
        s.scatter_cells as f64 / 1e6
    );
    println!(
        "  simd lane kernels: {:.1}M chunk zones + {:.1}M tail zones, mask occupancy {:.3}",
        s.simd_chunk_lanes as f64 / 1e6,
        s.simd_tail_lanes as f64 / 1e6,
        s.simd_occupancy()
    );
    println!(
        "  batched EOS: {:.1}M lanes, occupancy {:.3} ({} plateau-accepted)",
        s.batch_lanes as f64 / 1e6,
        s.batch_occupancy(),
        s.batch_plateau_lanes
    );
    // Active lanes entering each Newton iteration of the masked
    // re-iteration — the decay profile is the vector-efficiency story.
    let total: u64 = s.newton_iter_hist.iter().sum();
    if total > 0 {
        let start = s.newton_iter_hist[0].max(1) as f64;
        print!("  newton active-lane decay:");
        for (i, &n) in s.newton_iter_hist.iter().enumerate() {
            if n == 0 {
                break;
            }
            print!(" {i}:{:.2}", n as f64 / start);
        }
        println!();
    }
}

fn breakdown(name: &str, sim: &rflash_core::Simulation) {
    let rows = sim.phase_seconds();
    let total: f64 = rows.iter().map(|(_, s)| s).sum();
    println!("\n{name}: unit share of step time (total {total:.2} s)");
    for (l, s) in rows {
        if s == 0.0 {
            continue;
        }
        let pct = s / total * 100.0;
        println!(
            "  {l:<9} {s:>8.2} s  {pct:>5.1}%  |{}",
            "#".repeat(pct.round() as usize / 2)
        );
    }
    let fills = sim.domain.guard_fill_stats();
    println!(
        "  guard fills: {} fills, {} blocks filled, {} parents restricted, \
         {} zones = {:.1} MiB written ({:.2} MiB/step)",
        fills.fills,
        fills.blocks_filled,
        fills.parents_restricted,
        fills.guard_zones,
        fills.guard_bytes as f64 / (1 << 20) as f64,
        fills.guard_bytes as f64 / (1 << 20) as f64 / sim.step.max(1) as f64,
    );
}

/// Task-graph scheduler counters: what each rank executed, how much it
/// stole off other ranks' deques, and how much exchange time was hidden
/// under compute.
fn graph_report(sim: &rflash_core::Simulation) {
    let g = &sim.graph_report;
    if g.executions == 0 {
        println!("  (task graph never engaged: one rank runs the serial step loop)");
        return;
    }
    println!(
        "  task graph: {} executions from {} plan builds, {} steals, overlap ratio {:.2}",
        g.executions,
        g.plan_builds,
        g.total_steals(),
        g.overlap_ratio()
    );
    for (rank, r) in g.per_rank.iter().enumerate() {
        println!(
            "    rank {:<2} tasks {:>7}  steals {:>6}  busy {:>7.3} s  idle {:>7.3} s",
            rank,
            r.tasks,
            r.steals,
            r.busy_ns as f64 / 1e9,
            r.idle_ns as f64 / 1e9
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = RunScale::from_args(&args);
    let steps = if scale.steps == 0 { 25 } else { scale.steps };
    let alloc_baseline = rflash_perfmon::AllocSummary::capture();

    // Name the vector backend up front — every number below was produced
    // with it.
    println!(
        "{}",
        rflash_simd::dispatch_report(rflash_simd::Backend::default())
    );

    let mut sim = build("supernova", scale);
    sim.evolve(steps);
    breakdown("2-d supernova (the paper's EOS-dominated case)", &sim);
    let rows = sim.phase_seconds();
    let phase = |label: &str| {
        rows.iter()
            .find(|(l, _)| *l == label)
            .map_or(0.0, |(_, s)| *s)
    };
    let (eos_s, hydro_s) = (phase("eos"), phase("hydro"));
    let eos_share = eos_s / (eos_s + hydro_s).max(1e-12);
    println!(
        "  -> EOS fraction of (hydro+eos): {:.0}%",
        eos_share * 100.0
    );
    batch_report(&mut sim);
    rank_report(&sim.rank_loads());
    graph_report(&sim);

    let mut sim = build("sedov", scale);
    // Drive the Sedov run step by step under a retention-bounded
    // checkpoint series, so the report also shows what the `keep_last`
    // policy actually did to the on-disk footprint.
    let ckpt_dir =
        std::env::temp_dir().join(format!("rflash-profile-series-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let series = rflash_core::CheckpointSeries::new(&ckpt_dir, "profile").keep_last(4);
    let sedov_steps = steps.min(30);
    let mut ckpt_written = 0u64;
    for _ in 0..sedov_steps {
        sim.evolve(1);
        match series.write(&sim) {
            Ok(_) => ckpt_written += 1,
            Err(e) => {
                println!("  checkpoint series write failed: {e}");
                break;
            }
        }
    }
    breakdown("3-d Sedov (hydro-dominated)", &sim);
    batch_report(&mut sim);
    rank_report(&sim.rank_loads());
    graph_report(&sim);
    let retained = series.scan().map(|v| v.len()).unwrap_or(0);
    println!(
        "\ncheckpoint retention: {ckpt_written} written, {retained} retained \
         (keep_last 4), {} pruned",
        series.pruned_count()
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // Guardian interventions: a run that rolled back or halved dt is not
    // comparable to a clean run, and the table says so explicitly.
    println!("\n{}", sim.guardian_stats);

    // Fallback/retry counters from the allocation degradation chain: a run
    // whose huge pages failed to engage, or whose sweep scratch fell back to
    // the heap, shows up here, not just in the DTLB numbers it skews.
    println!("\n{}", rflash_perfmon::AllocSummary::since(&alloc_baseline));
}

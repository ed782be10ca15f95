//! One sample: a fresh child process that builds a simulation from a
//! generated spec exactly the way `rflash run-setup` does
//! (`SetupSpec::from_source` → `registry::smoke_params` with `policy` and
//! `nranks` overridden → `spec.build` → `try_step` loop → `StateDigest::of`),
//! checks the result is physically sane, and reports timings on stdout.

use std::path::PathBuf;
use std::time::Instant;

use rflash::core::guardian::validate_domain;
use rflash::core::registry::{self, IcPrimitive, SetupSpec, StateDigest};
use rflash::core::{CheckpointSeries, Simulation, StepScheduler};
use rflash::hydro::SweepEngine;
use rflash::mesh::vars;
use rflash::perfmon::AllocSummary;
use serde::{Deserialize, Serialize};

use crate::probes;
use crate::trace::Tracer;
use crate::workload::Workload;

/// What the parent hands a sample.
pub struct SampleArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub spec_path: PathBuf,
    /// Private directory for checkpoints (the parent removes it).
    pub scratch: PathBuf,
    pub steps: u64,
    pub checkpoint_every: u64,
    /// Traced pass: record spans, feed the TLB model, run the layer probes.
    pub traced: Option<TracedArgs>,
}

pub struct TracedArgs {
    /// `step_ms_p50` of the untraced reference sample — the base of every
    /// share and of the tracing overhead.
    pub ref_step_ms: f64,
    pub ref_step_p90_ms: f64,
    pub probe_reps: usize,
    pub trace_out: PathBuf,
}

/// What a sample reports back (one JSON line, the last on its stdout).
#[derive(Serialize, Deserialize, Default)]
pub struct SampleReport {
    pub setup_s: f64,
    pub loop_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// Σ over timed steps of `domain.total_zones()` at step start.
    pub zone_updates: u64,
    /// Wall time of every attempted step.
    pub step_ms: Vec<f64>,
    pub steps_failed: u64,
    pub digest: String,
    pub leaves_first: u64,
    pub leaves_last: u64,
    /// Correctness checks this sample failed (empty = correct).
    pub failures: Vec<String>,
    /// Traced pass only: every per-layer metric, by name.
    pub layers: Vec<(String, f64)>,
}

/// Σ ρ·E·dV over leaf interiors (E = specific total energy).
fn total_energy(sim: &Simulation) -> f64 {
    let cfg = sim.domain.tree.config();
    let unk = &sim.domain.unk;
    let mut e = 0.0;
    for id in sim.domain.tree.leaves() {
        let dx = sim.domain.tree.cell_size(id);
        let dv: f64 = dx[..cfg.ndim].iter().product();
        for k in unk.interior_k() {
            for j in unk.interior() {
                for i in unk.interior() {
                    e += unk.get(vars::DENS, i, j, k, id.idx())
                        * unk.get(vars::ENER, i, j, k, id.idx())
                        * dv;
                }
            }
        }
    }
    e
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run the sample. `entry` is the child's `main` entry time: `setup_s` and
/// `wall_s` count from it.
pub fn run(args: &SampleArgs, entry: Instant) -> Result<SampleReport, String> {
    let w = args.workload;
    let mut tr = Tracer::new(entry, args.traced.is_some());
    let mut report = SampleReport::default();

    let setup = tr.begin("setup");
    let source = std::fs::read_to_string(&args.spec_path)
        .map_err(|e| format!("{}: {e}", args.spec_path.display()))?;
    let (spec, parse_s) = tr.span("core.registry.parse", || SetupSpec::from_source(&source));
    let spec = spec.map_err(|e| e.to_string())?;
    let mut params = registry::smoke_params(
        &spec,
        w.nranks,
        SweepEngine::Pencil,
        StepScheduler::TaskGraph,
    );
    params.policy = w.policy;
    if args.traced.is_some() {
        // Feed the TLB model (RuntimeParams' own default sampling rate).
        params.pattern_every = 4;
        params.gather_every = 4;
    }
    let (sim, build_s) = tr.span("core.registry.build", || spec.build(params));
    let mut sim = sim.map_err(|e| e.to_string())?;
    tr.end(setup);
    report.setup_s = entry.elapsed().as_secs_f64();

    let mass0 = sim.total_mass();
    let mut peak_leaves = sim.domain.tree.leaves().len();
    report.leaves_first = peak_leaves as u64;
    let series = CheckpointSeries::new(args.scratch.join("ckpt"), "bench");
    let alloc0 = AllocSummary::capture();

    let step_loop = tr.begin("step_loop");
    for _ in 0..args.steps {
        report.zone_updates += sim.domain.total_zones() as u64;
        let (stepped, secs) = tr.span("core.step", || sim.try_step());
        report.step_ms.push(secs * 1e3);
        if let Err(e) = stepped {
            report.steps_failed += 1;
            report.failures.push(format!("step {}: {e}", sim.step));
            break;
        }
        peak_leaves = peak_leaves.max(sim.domain.tree.leaves().len());
        if args.checkpoint_every > 0 && sim.step.is_multiple_of(args.checkpoint_every) {
            let (written, _) = tr.span("core.checkpoint.write", || series.write(&sim));
            written.map_err(|e| format!("scheduled checkpoint: {e}"))?;
        }
    }
    report.loop_s = tr.end(step_loop);
    let allocs = AllocSummary::since(&alloc0).stats;

    let live = StateDigest::of(&sim);
    report.digest = format!("{:08x}", live.crc);
    report.leaves_last = live.leaves;

    // Correctness gate — no committed digests, so a legitimate physics
    // change passes and only wrong physics fails.
    let guardian = sim.params.guardian;
    if let Some(why) = validate_domain(&mut sim.domain, &guardian, w.nranks) {
        report.failures.push(format!("validate_domain: {why}"));
    }
    if let Some(tol) = w.mass_tol {
        let drift = ((sim.total_mass() - mass0) / mass0).abs();
        if drift.is_nan() || drift > tol {
            report
                .failures
                .push(format!("mass drift {drift:e} > {tol:e}"));
        }
    }
    let deposited: f64 = spec
        .initial
        .iter()
        .map(|p| match p {
            IcPrimitive::Deposit { energy, .. } => *energy,
            _ => 0.0,
        })
        .sum();
    if deposited > 0.0 {
        // E₀ plus the cold ambient's internal energy (2.5e-5 on sedov3d).
        let err = (total_energy(&sim) - deposited).abs() / deposited;
        if err.is_nan() || err > 0.01 {
            report
                .failures
                .push(format!("total energy off E₀ by {err:e} > 1 %"));
        }
    }
    if spec.mesh.max_blocks < 2 * peak_leaves {
        report.failures.push(format!(
            "pool of {} blocks is under 2× the peak of {peak_leaves} leaves",
            spec.mesh.max_blocks
        ));
    }
    if args.checkpoint_every > 0 {
        let (recovered, _) = tr.span("core.checkpoint.recover", || series.recover_latest());
        let (state, skipped) = recovered.map_err(|e| format!("recover_latest: {e}"))?;
        let back =
            state.into_simulation(spec.make_eos(w.policy), spec.composition.to_composition());
        if !skipped.is_empty() || StateDigest::of(&back) != live {
            report
                .failures
                .push("recovered digest differs from live digest".into());
        }
    }

    if let Some(traced) = &args.traced {
        let loop_facts = probes::LoopFacts {
            parse_s,
            build_s,
            steady_alloc_calls: allocs.hugetlb_attempts
                + allocs.transient_retries
                + allocs.thp_fallbacks
                + allocs.base_fallbacks
                + allocs.madvise_denials,
            traced_step_ms: crate::stats::median(&report.step_ms),
            checkpoint_writes_per_step: if args.checkpoint_every > 0 {
                1.0 / args.checkpoint_every as f64
            } else {
                0.0
            },
        };
        report.layers = probes::run(args, traced, &spec, &mut sim, &loop_facts, &mut tr)?;
        tr.write_chrome(&traced.trace_out, w.name, args.seed)
            .map_err(|e| format!("{}: {e}", traced.trace_out.display()))?;
    }

    // Tear-down (unmapping `unk`) is part of what a user waits for.
    drop(sim);
    report.wall_s = entry.elapsed().as_secs_f64();
    report.peak_rss_mb = peak_rss_mb();
    Ok(report)
}

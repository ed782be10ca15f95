//! The traced pass's layer probes: each layer measured from outside, by
//! timing calls into its public functions on the evolved state. Spans
//! inside the program are a later change (ROADMAP item 5).
//!
//! The sweep-side probes replay a step from public calls on a throw-away
//! simulation restored from a checkpoint of the final state — dt, then per
//! direction guardcell fill → sweep → EOS pass, then validate — so the live
//! simulation (and its digest) is never touched and every probe sees a
//! consistent, physically evolving state.

use rflash::core::guardian::validate_domain;
use rflash::core::registry::{self, SetupSpec};
use rflash::core::{
    read_checkpoint, verify_checkpoint, CheckpointSeries, Simulation, StepScheduler,
};
use rflash::eos::{EosBatch, EosMode, HelmTable, TableConfig};
use rflash::hugepages::{PageBuffer, Policy};
use rflash::hydro::{
    compute_dt_parallel_raw, sweep_direction_prefilled, SweepConfig, SweepEngine, SweepEos, NFLUX,
};
use rflash::mesh::flux::FluxRegister;
use rflash::mesh::{vars, ShadowSnapshot};
use rflash::perfmon::idle_fraction;

use crate::sample::{SampleArgs, TracedArgs};
use crate::stats::median;
use crate::trace::Tracer;

/// Every per-layer metric the traced pass reports: (name, unit). The same
/// list, with directions, is `per_layer` in BENCHMARK.json (a test keeps
/// the two in step).
pub const LAYERS: [(&str, &str); 33] = [
    ("hugepages.alloc_touch_s", "s"),
    ("hugepages.huge_fraction", "fraction"),
    ("hugepages.degradation_steps", "count"),
    ("hugepages.steady_alloc_calls", "count"),
    ("core.registry.parse_s", "s"),
    ("core.registry.build_s", "s"),
    ("eos.table_build_s", "s"),
    ("mesh.guardcell.fill_ms", "ms"),
    ("mesh.guardcell.share", "fraction"),
    ("hydro.sweep.ns_per_zone", "ns/zone"),
    ("hydro.share", "fraction"),
    ("hydro.dt_ms", "ms"),
    ("eos.ns_per_zone", "ns/zone"),
    ("eos.share", "fraction"),
    ("eos.newton_iters_per_lane", "count"),
    ("core.guardian.validate_ms", "ms"),
    ("core.guardian.snapshot_ms", "ms"),
    ("core.step.ms_p50", "ms"),
    ("core.step.ms_p90", "ms"),
    ("core.step.unattributed_ms", "ms"),
    ("core.step.attributed_fraction", "fraction"),
    ("core.step.idle_fraction", "fraction"),
    ("core.step.steals", "count"),
    ("core.checkpoint.write_ms", "ms"),
    ("core.checkpoint.write_mb_per_s", "MB/s"),
    ("core.checkpoint.bytes", "bytes"),
    ("core.checkpoint.verify_ms", "ms"),
    ("core.checkpoint.read_ms", "ms"),
    ("core.checkpoint.share", "fraction"),
    ("tlbsim.hydro.dtlb_misses_model", "count"),
    ("tlbsim.eos.dtlb_misses_model", "count"),
    ("tlbsim.dtlb_ratio", "ratio"),
    ("trace.overhead_fraction", "fraction"),
];

/// What the sample's own step loop already measured.
pub struct LoopFacts {
    pub parse_s: f64,
    pub build_s: f64,
    pub steady_alloc_calls: u64,
    pub traced_step_ms: f64,
    pub checkpoint_writes_per_step: f64,
}

/// Model DTLB misses (page walks) of the hydro and EOS regions of a run.
fn dtlb_misses(sim: &Simulation) -> (u64, u64) {
    (
        sim.hydro_measures().dtlb_misses,
        sim.eos_measures().dtlb_misses,
    )
}

/// `Eos::eos_batch` over every interior zone of every leaf, for the exact
/// Newton iteration count per lane (0 for the gamma law).
fn newton_iters_per_lane(sim: &Simulation, tr: &mut Tracer) -> Result<f64, String> {
    let unk = &sim.domain.unk;
    let mut lanes: [Vec<f64>; 3] = Default::default();
    for id in sim.domain.tree.leaves() {
        for k in unk.interior_k() {
            for j in unk.interior() {
                for i in unk.interior() {
                    for (lane, var) in lanes.iter_mut().zip([vars::DENS, vars::EINT, vars::TEMP]) {
                        lane.push(unk.get(var, i, j, k, id.idx()));
                    }
                }
            }
        }
    }
    let [dens, mut eint, mut temp] = lanes;
    let n = dens.len();
    let (mut pres, mut gamc, mut game) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut batch = EosBatch {
        dens: &dens,
        eint: &mut eint,
        temp: &mut temp,
        abar: &vec![sim.comp.abar; n],
        zbar: &vec![sim.comp.zbar; n],
        pres: &mut pres,
        gamc: &mut gamc,
        game: &mut game,
    };
    let (report, _) = tr.span("eos.batch", || {
        sim.eos.eos_batch(EosMode::DensEi, &mut batch)
    });
    let report = report.map_err(|e| format!("eos_batch: {e}"))?;
    // Bin i counts lanes still active entering iteration i, so the sum is
    // the number of lane-iterations.
    Ok(report.iter_hist.iter().sum::<u64>() as f64 / report.lanes.max(1) as f64)
}

/// Run every probe; returns the per-layer metrics in [`LAYERS`] order.
pub fn run(
    args: &SampleArgs,
    traced: &TracedArgs,
    spec: &SetupSpec,
    sim: &mut Simulation,
    facts: &LoopFacts,
    tr: &mut Tracer,
) -> Result<Vec<(String, f64)>, String> {
    let w = args.workload;
    let ndim = spec.mesh.ndim;
    let probes = tr.begin("probes");

    // core.checkpoint — write, verify and read the final state.
    let series = CheckpointSeries::new(args.scratch.join("probe"), "probe");
    let (mut write_ms, mut verify_ms, mut read_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut restored = None;
    let mut bytes = 0;
    for _ in 0..3 {
        let (path, secs) = tr.span("core.checkpoint.write", || series.write(sim));
        let path = path.map_err(|e| format!("probe checkpoint: {e}"))?;
        write_ms.push(secs * 1e3);
        bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let (verified, secs) = tr.span("core.checkpoint.verify", || verify_checkpoint(&path));
        verified.map_err(|e| format!("verify_checkpoint: {e}"))?;
        verify_ms.push(secs * 1e3);
        let (state, secs) = tr.span("core.checkpoint.read", || read_checkpoint(&path));
        restored = Some(state.map_err(|e| format!("read_checkpoint: {e}"))?);
        read_ms.push(secs * 1e3);
    }
    let write_ms = median(&write_ms);

    // The throw-away simulation the step replay runs on.
    let mut state = restored.expect("three checkpoint reads");
    state.params.pattern_every = 0;
    state.params.gather_every = 0;
    let mut scratch_sim =
        state.into_simulation(spec.make_eos(w.policy), spec.composition.to_composition());
    let cfg = *scratch_sim.domain.tree.config();
    let mut reg = FluxRegister::new(cfg.ndim, cfg.nxb, NFLUX, cfg.max_blocks);
    let sweep_cfg = SweepConfig {
        nranks: w.nranks,
        dens_floor: scratch_sim.params.dens_floor,
        eint_floor: scratch_sim.params.eint_floor,
        pattern_every: 0,
        engine: SweepEngine::Pencil,
        scratch_policy: w.policy,
        simd: rflash::simd::resolve(scratch_sim.params.simd_backend),
    };
    let mut shadow = ShadowSnapshot::new(w.policy);
    let guardian = scratch_sim.params.guardian;
    let zones = scratch_sim.domain.total_zones() as f64;
    let (mut snap, mut dt_ms, mut fill, mut sweep, mut eos, mut validate) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for _ in 0..traced.probe_reps {
        let replay = tr.begin("probe.step");
        let (_, s) = tr.span("core.guardian.snapshot", || {
            shadow.capture(&scratch_sim.domain)
        });
        snap.push(s * 1e3);
        let (dt, s) = tr.span("hydro.dt", || {
            compute_dt_parallel_raw(&mut scratch_sim.domain, scratch_sim.params.cfl, w.nranks)
        });
        dt_ms.push(s * 1e3);
        for dir in 0..ndim {
            let (_, s) = tr.span("mesh.guardcell.fill", || {
                scratch_sim.domain.fill_guardcells(w.nranks)
            });
            fill.push(s * 1e3);
            let (_, s) = tr.span("hydro.sweep", || {
                sweep_direction_prefilled(
                    &mut scratch_sim.domain,
                    &SweepEos::Defer,
                    dir,
                    dt,
                    &mut reg,
                    &sweep_cfg,
                )
            });
            sweep.push(s * 1e3);
            let (_, s) = tr.span("eos.pass", || scratch_sim.eos_everywhere());
            eos.push(s * 1e3);
        }
        let (_, s) = tr.span("core.guardian.validate", || {
            validate_domain(&mut scratch_sim.domain, &guardian, w.nranks)
        });
        validate.push(s * 1e3);
        tr.end(replay);
    }
    let (fill_ms, sweep_ms, eos_ms) = (median(&fill), median(&sweep), median(&eos));
    let (dt_ms, validate_ms, snapshot_ms) = (median(&dt_ms), median(&validate), median(&snap));
    let newton = newton_iters_per_lane(&scratch_sim, tr)?;
    drop(scratch_sim);

    // hugepages — a buffer the size of `unk`, one write per base page.
    let unk_len = sim.domain.unk.bytes() / 8;
    let (touched, alloc_touch_s) = tr.span("hugepages.alloc_touch", || {
        PageBuffer::<f64>::zeroed(unk_len, w.policy).map(|mut buf| {
            for x in buf.as_mut_slice().iter_mut().step_by(4096 / 8) {
                *x = 1.0;
            }
        })
    });
    touched.map_err(|e| format!("PageBuffer::zeroed: {e}"))?;
    let backing = sim.domain.unk.backing_report();

    // eos — the full Helmholtz table, whatever EOS the workload runs, so
    // the number exists (and can regress) on every workload.
    let (table, table_build_s) = tr.span("eos.table_build", || {
        HelmTable::build(TableConfig::default(), w.policy).map(drop)
    });
    table.map_err(|e| format!("HelmTable::build: {e}"))?;

    // tlbsim — the step loop ran with the model fed; under a huge-page
    // policy, rerun it on base pages for the paper's with/without ratio.
    let (hydro_misses, eos_misses) = dtlb_misses(sim);
    let dtlb_ratio = if w.policy == Policy::None {
        1.0
    } else {
        let (base, _) = tr.span(
            "tlbsim.base_page_rerun",
            || -> Result<(u64, u64), String> {
                let mut params = registry::smoke_params(
                    spec,
                    w.nranks,
                    SweepEngine::Pencil,
                    StepScheduler::TaskGraph,
                );
                params.pattern_every = sim.params.pattern_every;
                params.gather_every = sim.params.gather_every;
                let mut base = spec.build(params).map_err(|e| e.to_string())?;
                for _ in 0..args.steps {
                    base.try_step().map_err(|e| e.to_string())?;
                }
                Ok(dtlb_misses(&base))
            },
        );
        let (base_hydro, base_eos) = base?;
        (hydro_misses + eos_misses) as f64 / (base_hydro + base_eos).max(1) as f64
    };
    tr.end(probes);

    // Derived: what the probes account for in an untraced step. Guardcell
    // fill, sweep and EOS pass run once per direction; dt, snapshot and
    // validate once. Scheduler, flame (with its own fill and cheap EOS
    // pass), gravity and regrid stay unattributed until spans exist inside
    // the program.
    let step_ms = traced.ref_step_ms;
    let per_dir = ndim as f64;
    let (fill_share_ms, sweep_share_ms, eos_share_ms) =
        (per_dir * fill_ms, per_dir * sweep_ms, per_dir * eos_ms);
    let checkpoint_ms = write_ms * facts.checkpoint_writes_per_step;
    let attributed =
        fill_share_ms + sweep_share_ms + eos_share_ms + dt_ms + validate_ms + snapshot_ms;
    let values: [f64; LAYERS.len()] = [
        alloc_touch_s,
        backing.huge_fraction,
        backing.degradation.len() as f64,
        facts.steady_alloc_calls as f64,
        facts.parse_s,
        facts.build_s,
        table_build_s,
        fill_ms,
        fill_share_ms / step_ms,
        sweep_ms * 1e6 / zones,
        sweep_share_ms / step_ms,
        dt_ms,
        eos_ms * 1e6 / zones,
        eos_share_ms / step_ms,
        newton,
        validate_ms,
        snapshot_ms,
        step_ms,
        traced.ref_step_p90_ms,
        step_ms - attributed,
        attributed / step_ms,
        idle_fraction(&sim.rank_loads()),
        sim.graph_report.total_steals() as f64,
        write_ms,
        bytes as f64 / 1e6 / (write_ms / 1e3),
        bytes as f64,
        median(&verify_ms),
        median(&read_ms),
        checkpoint_ms / (step_ms + checkpoint_ms),
        hydro_misses as f64,
        eos_misses as f64,
        dtlb_ratio,
        facts.traced_step_ms / step_ms - 1.0,
    ];
    Ok(LAYERS
        .iter()
        .zip(values)
        .map(|((name, _), v)| (name.to_string(), v))
        .collect())
}

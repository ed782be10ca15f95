//! Instrumentation wiring: registering the big buffers with the TLB model
//! and the instrumented `Eos_wrapped` pass.

use rflash_eos::{EosBatch, EosMode};
use rflash_hugepages::BackingReport;
use rflash_mesh::unk::UnkGeom;
use rflash_mesh::{vars, BlockId, Domain};
use rflash_perfmon::{PerfSession, Probe};
use rflash_tlbsim::{AccessPattern, FrameSizing};

use crate::eos_choice::{Composition, EosChoice};
use crate::params::RuntimeParams;

/// Translate a *verified* kernel backing into the TLB model's frame sizing.
/// Never trust the request: the paper's GNU/Cray binaries requested huge
/// pages and silently did not get them — we model what the kernel actually
/// granted (smaps), falling back to base pages.
pub fn frame_sizing_from(report: &BackingReport) -> FrameSizing {
    if report.verified_huge() {
        let size = if report.kernel_page_size > 4096 {
            report.kernel_page_size as usize
        } else {
            2 * 1024 * 1024 // THP grants PMD-size frames
        };
        FrameSizing::huge(size.next_power_of_two())
    } else if report.huge_fraction > 0.0 {
        FrameSizing::huge(2 * 1024 * 1024)
    } else {
        FrameSizing::Base
    }
}

/// Register the `unk` container and (when present) the Helmholtz table with
/// a session's TLB model.
pub fn register_buffers(session: &mut PerfSession, domain: &Domain, eos: &EosChoice) {
    let unk_report = domain.unk.backing_report();
    session.map_region(
        domain.unk.base_addr(),
        domain.unk.bytes(),
        frame_sizing_from(&unk_report),
    );
    if let Some(h) = eos.helmholtz() {
        let t = h.table();
        session.map_region(
            t.base_addr(),
            t.bytes(),
            frame_sizing_from(&t.backing_report()),
        );
    }
}

/// The instrumented EOS pass: `Eos_wrapped(MODE_DENS_EI)` over every
/// interior zone of every leaf, or of the leaves in `only` — the routine
/// set the paper's "EOS" experiment wraps with PAPI. Records unk row
/// patterns and EOS-table gathers (sampled) into the session's TLB model.
///
/// Skipping a leaf is exact when nothing wrote its `DENS`/`EINT` since its
/// last pass: re-solving a zone from its own `TEMP` returns its own bits.
pub fn eos_pass(
    domain: &mut Domain,
    eos: &EosChoice,
    comp: Composition,
    params: &RuntimeParams,
    session: &mut PerfSession,
    only: Option<&[BlockId]>,
) {
    session.start_region();
    let only = only.map(|ids| {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids
    });
    let geom = domain.unk.geom();
    let gather_every = params.gather_every;
    let pattern_every = params.pattern_every;
    // Under the guardian, an EOS failure (bad density out of a corrupted
    // sweep, a non-converging inversion) must not panic: the row is left
    // stale and the guardian's validation scan flags the bad zone, rolls
    // the step back, and retries. Without the guardian the legacy
    // abort-on-bad-state behavior stands.
    let tolerate_bad_rows = params.guardian.enabled;

    let probes = domain.par_leaf_update(params.nranks, |_tree, id, slab, probe| {
        if only
            .as_ref()
            .is_some_and(|ids| ids.binary_search(&id).is_err())
        {
            return;
        }
        eos_block(
            &geom,
            eos,
            comp,
            gather_every,
            pattern_every,
            tolerate_bad_rows,
            id,
            slab,
            probe,
        );
    });
    for probe in probes {
        session.absorb(probe);
    }
    session.stop_region();
}

/// The per-block body of [`eos_pass`]: one leaf's instrumented
/// `Eos_wrapped(MODE_DENS_EI)`. Also the body of the task-graph per-block
/// EOS tasks — same code, same row order, bit-identical results. Reads the
/// full row (guards included, though only interior lanes feed the solve)
/// and scatters interior lanes back.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eos_block(
    geom: &UnkGeom,
    eos: &EosChoice,
    comp: Composition,
    gather_every: usize,
    pattern_every: usize,
    tolerate_bad_rows: bool,
    id: BlockId,
    slab: &mut [f64],
    probe: &mut Probe,
) {
    {
        let ng = geom.nguard;
        let nxb = geom.nxb;
        let n = geom.ni; // full x-row (pencil) length, guards included
        let kr = if geom.ndim == 3 { ng..ng + nxb } else { 0..1 };
        let mut zone_counter = 0usize;
        let mut gather_buf: Vec<usize> = Vec::with_capacity(32);
        let mut row_counter = 0usize;
        // Row lanes (SoA), reused across rows: the whole row goes through
        // one batched EOS call instead of per-zone `Eos::call`s.
        let mut dens_l = vec![0.0f64; n];
        let mut eint_l = vec![0.0f64; n];
        let mut temp_l = vec![0.0f64; n];
        let mut pres_l = vec![0.0f64; n];
        let mut gamc_l = vec![0.0f64; n];
        let mut game_l = vec![0.0f64; n];
        let abar_l = vec![comp.abar; nxb];
        let zbar_l = vec![comp.zbar; nxb];

        for k in kr {
            for j in ng..ng + nxb {
                // Row access patterns (reads then writes), sampled.
                if pattern_every > 0 {
                    if row_counter.is_multiple_of(pattern_every) {
                        for v in [vars::DENS, vars::EINT, vars::TEMP] {
                            probe.record(AccessPattern::Strided {
                                base: geom.addr(v, ng, j, k, id.idx()),
                                stride: geom.dir_stride(0),
                                count: nxb,
                                elem: 8,
                            });
                        }
                        for v in [vars::PRES, vars::TEMP, vars::GAMC, vars::GAME] {
                            probe.record_write(AccessPattern::Strided {
                                base: geom.addr(v, ng, j, k, id.idx()),
                                stride: geom.dir_stride(0),
                                count: nxb,
                                elem: 8,
                            });
                        }
                    }
                    row_counter += 1;
                }

                geom.gather_pencil(slab, vars::DENS, 0, j, k, &mut dens_l);
                geom.gather_pencil(slab, vars::EINT, 0, j, k, &mut eint_l);
                geom.gather_pencil(slab, vars::TEMP, 0, j, k, &mut temp_l);
                probe.stats.gather_cells += (3 * n) as u64;
                let mut batch = EosBatch {
                    dens: &dens_l[ng..ng + nxb],
                    eint: &mut eint_l[ng..ng + nxb],
                    temp: &mut temp_l[ng..ng + nxb],
                    abar: &abar_l,
                    zbar: &zbar_l,
                    pres: &mut pres_l[ng..ng + nxb],
                    gamc: &mut gamc_l[ng..ng + nxb],
                    game: &mut game_l[ng..ng + nxb],
                };
                let report = match eos.eos_batch(EosMode::DensEi, &mut batch) {
                    Ok(r) => r,
                    Err(_) if tolerate_bad_rows => continue,
                    Err(e) => panic!(
                        "EOS pass failed in row (j={j}, k={k}) of block {}: {e}",
                        id.idx()
                    ),
                };
                probe.stats.batch_lanes += report.lanes;
                probe.stats.batch_vector_lanes += report.vector_lanes;
                geom.scatter_pencil(slab, vars::PRES, 0, j, k, ng..ng + nxb, &pres_l);
                geom.scatter_pencil(slab, vars::TEMP, 0, j, k, ng..ng + nxb, &temp_l);
                geom.scatter_pencil(slab, vars::GAMC, 0, j, k, ng..ng + nxb, &gamc_l);
                geom.scatter_pencil(slab, vars::GAME, 0, j, k, ng..ng + nxb, &game_l);
                probe.stats.scatter_cells += (4 * nxb) as u64;
                probe.stats.eos_calls += nxb as u64;
                probe.stats.zones += nxb as u64;
                // A Helmholtz evaluation is ~300 lane ops of interpolation
                // arithmetic (plus Newton iterations) per zone.
                probe.stats.add_vec(300 * nxb as u64);

                // Table gather patterns, sampled: the planes the batched
                // solve reads at each zone's accepted temperature.
                if gather_every > 0 {
                    if let Some(h) = eos.helmholtz() {
                        for i in 0..nxb {
                            if zone_counter.is_multiple_of(gather_every) {
                                gather_buf.clear();
                                let rho_ye = dens_l[ng + i] * comp.zbar / comp.abar;
                                if h.gather_indices(rho_ye, temp_l[ng + i], &mut gather_buf)
                                    .is_ok()
                                {
                                    probe.record(AccessPattern::Gather {
                                        base: h.table().base_addr(),
                                        elem: 8,
                                        indices: gather_buf.clone(),
                                    });
                                }
                            }
                            zone_counter += 1;
                        }
                    } else {
                        zone_counter += nxb;
                    }
                } else {
                    zone_counter += nxb;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_eos::GammaLaw;
    use rflash_hugepages::Policy;
    use rflash_mesh::tree::MeshConfig;
    use rflash_perfmon::SessionConfig;

    #[test]
    fn frame_sizing_honors_verification() {
        let base = BackingReport {
            policy: Policy::Thp,
            requested: "THP".into(),
            fell_back: None,
            degradation: Vec::new(),
            rss_bytes: 1 << 20,
            huge_bytes: 0,
            kernel_page_size: 4096,
            huge_fraction: 0.0,
        };
        assert_eq!(frame_sizing_from(&base), FrameSizing::Base);
        let huge = BackingReport {
            huge_bytes: 1 << 21,
            huge_fraction: 1.0,
            ..base.clone()
        };
        assert_eq!(frame_sizing_from(&huge), FrameSizing::huge(2 * 1024 * 1024));
        let hugetlb = BackingReport {
            kernel_page_size: 512 * 1024 * 1024,
            huge_bytes: 1 << 29,
            huge_fraction: 1.0,
            ..base
        };
        assert_eq!(
            frame_sizing_from(&hugetlb),
            FrameSizing::huge(512 * 1024 * 1024)
        );
    }

    #[test]
    fn eos_pass_updates_thermo_and_counts() {
        let mut domain = Domain::new(MeshConfig::test_2d(), Policy::None);
        let id = domain.tree.leaves()[0];
        for j in domain.unk.interior() {
            for i in domain.unk.interior() {
                domain.unk.set(vars::DENS, i, j, 0, id.idx(), 1.0);
                domain.unk.set(vars::EINT, i, j, 0, id.idx(), 1e12);
            }
        }
        let eos = EosChoice::Gamma(GammaLaw::new(1.4));
        let params = RuntimeParams::with_mesh(*domain.tree.config());
        let mut session = PerfSession::new(SessionConfig {
            use_hw: false,
            ..SessionConfig::default()
        });
        register_buffers(&mut session, &domain, &eos);
        eos_pass(
            &mut domain,
            &eos,
            Composition::ideal(),
            &params,
            &mut session,
            None,
        );

        let pres = domain.unk.get(vars::PRES, 5, 5, 0, id.idx());
        assert!((pres - 0.4 * 1e12).abs() / pres < 1e-12, "P=(γ−1)ρe");
        let m = session.measures(1.0);
        assert!(m.time_s > 0.0);
        assert!(session.tlb_stats().accesses > 0, "patterns were replayed");
        assert_eq!(session.stats_mut().eos_calls, 64);
    }
}

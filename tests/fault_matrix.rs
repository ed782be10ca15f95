//! Injected allocation failures × every huge-page policy.
//!
//! The contract under test: whatever the fault plan does to the kernel
//! interfaces, `PageBuffer::zeroed` either returns *usable* memory with an
//! honest degradation trail in its backing report, or a typed error —
//! never a panic, never a silent downgrade. A step whose pencil scratch
//! cannot be mapped sweeps on heap scratch, keeps its bits, and is counted
//! in `AllocStats::heap_fallbacks`. Each test activates a
//! deterministic thread-local [`FaultPlan`], so the suite is green both on
//! hosts with no hugetlb pool at all and under CI's process-wide
//! `RFLASH_FAULTS` injection (a thread-local plan shadows the env plan).

use rflash::core::{registry, Simulation, StepScheduler};
use rflash::hugepages::{
    alloc_stats, AllocStage, Error, FaultKind, FaultPlan, FaultSite, HugeArena, PageBuffer,
    PageSize, Policy, FAULTS_ENV_VAR,
};
use rflash::hydro::SweepEngine;

const ALL_POLICIES: [Policy; 3] = [
    Policy::None,
    Policy::Thp,
    Policy::HugeTlbFs(PageSize::Huge2M),
];

const EPERM: i32 = 1;
const EAGAIN: i32 = 11;
const ENOMEM: i32 = 12;
const EINVAL: i32 = 22;

/// Allocate, exercise, and report under whatever plan is active.
fn alloc_and_exercise(policy: Policy) -> rflash::hugepages::BackingReport {
    let mut buf = PageBuffer::<f64>::zeroed(1 << 18, policy).expect("usable memory");
    buf[999] = 2.75;
    assert_eq!(buf[999], 2.75);
    assert_eq!(buf[0], 0.0, "memory must arrive zeroed");
    buf.backing_report()
}

#[test]
fn hugetlb_denial_leaves_every_policy_usable_with_a_trail() {
    let _g = FaultPlan::new(1)
        .with(FaultSite::HugeTlbMmap, FaultKind::Always { errno: EPERM })
        .activate();
    for policy in ALL_POLICIES {
        let report = alloc_and_exercise(policy);
        match policy {
            Policy::HugeTlbFs(_) => {
                // The reservation was denied, so the chain must record it:
                // first degrading step at the hugetlbfs rung, with a reason.
                let step = report
                    .degradation
                    .iter()
                    .find(|s| !s.kept)
                    .unwrap_or_else(|| panic!("no degrading step recorded: {report}"));
                assert_eq!(step.stage, AllocStage::HugeTlbFs, "{report}");
                assert!(step.detail.contains("errno 1"), "{}", step.detail);
                assert!(report.fell_back.is_some(), "{report}");
            }
            // Policies that never touch the faulted site stay clean.
            _ => assert!(
                report.degradation.iter().all(|s| s.kept),
                "unexpected degradation under {policy}: {report}"
            ),
        }
    }
}

#[test]
fn transient_exhaustion_is_retried_with_the_retries_on_record() {
    let _g = FaultPlan::new(2)
        .with(
            FaultSite::HugeTlbMmap,
            FaultKind::FirstN {
                n: 2,
                errno: EAGAIN,
            },
        )
        .activate();
    let report = alloc_and_exercise(Policy::HugeTlbFs(PageSize::Huge2M));
    // Two injected transient failures burn two retries; the third attempt
    // asks the real host pool. Either way the retries must be on record.
    let step = report
        .degradation
        .first()
        .unwrap_or_else(|| panic!("retries left no trail: {report}"));
    assert_eq!(step.stage, AllocStage::HugeTlbFs, "{report}");
    if step.kept {
        assert_eq!(step.retries, 2, "recovered after the injected failures");
    } else {
        assert!(step.retries >= 2, "pool-less host: budget spent, {report}");
    }
}

#[test]
fn denied_thp_advice_degrades_to_base_pages_not_to_failure() {
    // Fail only the first madvise (the MADV_HUGEPAGE request); the
    // follow-on base-stage advice stays live.
    let _g = FaultPlan::new(3)
        .with(
            FaultSite::Madvise,
            FaultKind::Nth {
                n: 1,
                errno: EINVAL,
            },
        )
        .activate();
    let report = alloc_and_exercise(Policy::Thp);
    let step = report
        .degradation
        .iter()
        .find(|s| !s.kept)
        .unwrap_or_else(|| panic!("denied advice left no trail: {report}"));
    assert_eq!(step.stage, AllocStage::Thp, "{report}");
    assert!(step.detail.contains("MADV_HUGEPAGE"), "{}", step.detail);
}

#[test]
fn full_mmap_outage_is_a_typed_error_never_a_panic() {
    let _g = FaultPlan::new(4)
        .with(FaultSite::HugeTlbMmap, FaultKind::Always { errno: ENOMEM })
        .with(FaultSite::AnonMmap, FaultKind::Always { errno: ENOMEM })
        .activate();
    for policy in ALL_POLICIES {
        match PageBuffer::<f64>::zeroed(1 << 18, policy) {
            Err(Error::Mmap { errno, .. }) => assert_eq!(errno, ENOMEM),
            Err(other) => panic!("expected Mmap error under {policy}, got {other}"),
            Ok(_) => panic!("chain exhaustion must not produce memory ({policy})"),
        }
    }
}

#[test]
fn probabilistic_faults_are_deterministic_per_seed() {
    // The same seed must fire the same call numbers — run the identical
    // sequence twice and compare the resulting degradation trails.
    let run = || {
        let _g = FaultPlan::new(42)
            .with(
                FaultSite::HugeTlbMmap,
                FaultKind::Prob {
                    permille: 500,
                    errno: EPERM,
                },
            )
            .activate();
        (0..6)
            .map(|_| {
                PageBuffer::<u8>::zeroed(1 << 16, Policy::HugeTlbFs(PageSize::Huge2M))
                    .expect("usable memory")
                    .backing_report()
                    .degradation
                    .iter()
                    .map(|s| (s.stage, s.kept, s.retries))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn injected_faults_show_up_in_the_process_counters() {
    let before = alloc_stats();
    let _g = FaultPlan::new(5)
        .with(FaultSite::HugeTlbMmap, FaultKind::Always { errno: EPERM })
        .activate();
    let _report = alloc_and_exercise(Policy::HugeTlbFs(PageSize::Huge2M));
    let after = alloc_stats();
    assert!(after.injected_faults > before.injected_faults);
    assert!(after.thp_fallbacks > before.thp_fallbacks);
    assert!(after.hugetlb_attempts > before.hugetlb_attempts);
}

#[test]
fn env_spec_grammar_parses_and_rejects() {
    let plan = FaultPlan::parse("seed=7;hugetlb-mmap=first:2:ENOMEM,madvise=nth:3:EINVAL")
        .expect("valid spec");
    assert_eq!(plan.seed(), 7);
    assert_eq!(plan.rules().len(), 2);
    for bad in [
        "bogus-site=always",
        "hugetlb-mmap=sometimes",
        "madvise=prob:1500:ENOMEM",
        "hugetlb-mmap=short:64",
        "ckpt-write=always:NOTANERRNO",
    ] {
        assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
    }
}

#[test]
fn env_injection_when_present_is_visible_and_survivable() {
    // Under CI's RFLASH_FAULTS the process-global plan applies to every
    // allocation without a thread-local guard; all policies must still
    // yield usable memory (the spec CI uses only denies hugetlb).
    if std::env::var(FAULTS_ENV_VAR).is_err() {
        return; // nothing injected in this run
    }
    for policy in ALL_POLICIES {
        let report = alloc_and_exercise(policy);
        if let Policy::HugeTlbFs(_) = policy {
            assert!(
                report.fell_back.is_some(),
                "env plan denies hugetlb, report must say so: {report}"
            );
        }
    }
}

/// Smoke-scale 3-d Sedov on one rank: every sweep runs on the calling
/// thread, so a thread-local fault plan covers its scratch mapping.
fn smoke_sedov() -> Simulation {
    let spec = registry::load("sedov").unwrap().at_smoke_scale();
    let params = registry::smoke_params(&spec, 1, SweepEngine::Pencil, StepScheduler::default());
    spec.build(params).unwrap()
}

/// Bit pattern of every interior zone of every variable, leaves in Morton
/// order, prefixed by the step counter and the time bits.
fn state_bits(sim: &Simulation) -> Vec<u64> {
    let mut bits = vec![sim.step, sim.time.to_bits()];
    for id in sim.domain.tree.leaves() {
        for v in 0..sim.domain.unk.nvar() {
            for k in sim.domain.unk.interior_k() {
                for j in sim.domain.unk.interior() {
                    for i in sim.domain.unk.interior() {
                        bits.push(sim.domain.unk.get(v, i, j, k, id.idx()).to_bits());
                    }
                }
            }
        }
    }
    bits
}

#[test]
fn unmappable_pencil_scratch_falls_back_to_heap_scratch() {
    // The faulted run goes first: the per-rank scratch arena is created
    // on a thread's first pencil sweep and then reused, so a clean run on
    // this thread beforehand would leave nothing to fail.
    let before = alloc_stats().heap_fallbacks;
    let faulted = {
        let mut sim = {
            let _quiet = FaultPlan::new(0).activate();
            smoke_sedov()
        };
        let _g = FaultPlan::new(0)
            .with(FaultSite::AnonMmap, FaultKind::Always { errno: ENOMEM })
            .with(FaultSite::HugeTlbMmap, FaultKind::Always { errno: ENOMEM })
            .activate();
        assert!(
            HugeArena::new(1 << 16, Policy::None).is_err(),
            "the plan must leave no way to map scratch"
        );
        for n in 0..3 {
            sim.try_step()
                .unwrap_or_else(|e| panic!("step {n} must run on heap scratch: {e}"));
        }
        sim
    };
    let after_faulted = alloc_stats().heap_fallbacks;
    assert!(
        after_faulted > before,
        "every faulted block sweep must be counted: {before} -> {after_faulted}"
    );
    let _quiet = FaultPlan::new(0).activate();
    let mut clean = smoke_sedov();
    clean.evolve(3);
    assert_eq!(
        alloc_stats().heap_fallbacks,
        after_faulted,
        "a clean run maps its arena and never falls back"
    );
    assert_eq!(
        state_bits(&faulted),
        state_bits(&clean),
        "heap scratch must reproduce the arena run's bits"
    );
}

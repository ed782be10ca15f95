//! Race-audit battery: declared-vs-actual access auditing under adversarial
//! schedules, plus the declaration-mutation gate.
//!
//! Four claims, each a test:
//!
//! 1. **Clean plans pass.** A refined Sedov run — fault injection armed,
//!    rollbacks exercised, so the graph is re-dispatched from restored
//!    state — completes under both the canonical pool schedule and seeded
//!    adversarial schedules without the audit firing. Every access the
//!    tasks make is declared.
//! 2. **Adversarial schedules are bit-identical.** Any edge-consistent
//!    topological order must produce the same state bits as the canonical
//!    pool execution; determinism rests on the declared edges alone.
//! 3. **Every dropped declaration is caught.** For each of the
//!    `mutation::NSITES` declaration sites in `build_plan`, masking that one
//!    site and stepping must panic with a `race-audit:` diagnosis. This is
//!    the 100%-detection gate: if a new access pattern sneaks in without a
//!    declaration, the audit — not a downstream symptom — names it.
//!
//! 4. **A fill that reads more than it declared is named.** The exchange is
//!    need-driven: the `Fill` declarations cover only the regions
//!    `GuardNeed::Axis(dir)` masks in. Handing the task bodies
//!    `GuardNeed::Faces` while keeping those declarations must fail the
//!    coverage half of the audit with the under-declared neighbor read.
//!
//! The whole battery is compiled-in only under `debug_assertions` or the
//! `race-audit` feature; in a plain release build it reduces to no-ops.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rflash::core::registry;
use rflash::core::stepgraph::mutation;
use rflash::core::{Simulation, StepScheduler};
use rflash::hugepages::{FaultKind, FaultPlan, FaultSite};
use rflash::hydro::SweepEngine;
use rflash::mesh::audit;

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

/// A refined 2-d Sedov with a genuine level jump: `max_refine: 3` under a
/// tight block budget keeps the finest level local to the blast, so the
/// mesh has parents, coarser neighbors, and fine-coarse flux corrections —
/// every declaration site in `build_plan` is live. Guardian stays at its
/// (enabled) default.
fn sedov(nranks: usize, adversary_seed: Option<u64>) -> Simulation {
    let mut spec = registry::load("sedov").unwrap();
    spec.mesh.ndim = 2;
    spec.mesh.max_blocks = 256;
    let mut params = registry::smoke_params(
        &spec,
        nranks,
        SweepEngine::default(),
        StepScheduler::TaskGraph,
    );
    params.adversary_seed = adversary_seed;
    spec.build(params).unwrap()
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[test]
fn clean_plans_pass_the_audit_with_faults_and_rollbacks() {
    if !audit::COMPILED {
        return;
    }
    // Canonical pool schedule, injection armed: the guardian rolls the step
    // back mid-battery and retries. No audit panic anywhere.
    {
        let _faults = FaultPlan::new(0)
            .with(FaultSite::StepNan, FaultKind::FirstN { n: 1, errno: 22 })
            .activate();
        let mut sim = sedov(3, None);
        for _ in 0..3 {
            sim.try_step().expect("guarded step recovers");
        }
        assert_eq!(sim.step, 3);
    }
    // Same run under an adversarial schedule.
    {
        let _faults = FaultPlan::new(0)
            .with(FaultSite::StepNan, FaultKind::FirstN { n: 1, errno: 22 })
            .activate();
        let mut sim = sedov(3, Some(0xC0FFEE));
        for _ in 0..3 {
            sim.try_step().expect("adversarial guarded step recovers");
        }
        assert_eq!(sim.step, 3);
    }
}

#[test]
fn adversarial_schedules_are_bit_identical_to_the_pool() {
    let _quiet = FaultPlan::new(0).activate();
    let mut canonical = sedov(3, None);
    canonical.evolve(3);
    let want = state_bits(&canonical);

    for seed in [1u64, 42, 0x5EED_5EED, u64::MAX] {
        let mut adv = sedov(3, Some(seed));
        adv.evolve(3);
        assert_eq!(
            want,
            state_bits(&adv),
            "adversarial schedule (seed {seed:#x}) diverged from the pool"
        );
    }
}

/// Run one full step with declaration site `site` masked out of the plan
/// and report the panic message, if any.
fn step_with_dropped_site(site: u32) -> Option<String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _gag = mutation::drop_site(site);
        let _quiet = FaultPlan::new(0).activate();
        let mut sim = sedov(3, Some(0xBAD5EED ^ u64::from(site)));
        let _ = sim.try_step();
        let _ = sim.try_step();
    }));
    result.err().map(|p| panic_text(&*p))
}

#[test]
fn every_dropped_declaration_is_detected() {
    if !audit::COMPILED {
        return;
    }
    let mut missed = Vec::new();
    let mut wrong = Vec::new();
    for site in 0..mutation::NSITES {
        match step_with_dropped_site(site) {
            None => missed.push(format!("S{site} ({})", mutation::NAMES[site as usize])),
            Some(msg) if !msg.contains("race-audit") => {
                wrong.push(format!(
                    "S{site} ({}): died of a symptom, not the audit: {msg}",
                    mutation::NAMES[site as usize]
                ));
            }
            Some(_) => {}
        }
    }
    assert!(
        missed.is_empty() && wrong.is_empty(),
        "mutation gate failed.\nundetected sites: {missed:#?}\nwrong diagnosis: {wrong:#?}"
    );
}

/// The declarations shrank with the need masks; the bodies must not read
/// past them. Built for `Axis(dir)`, run with `Faces`: every leaf's fill
/// task also copies from its neighbors across the other axis, which no
/// declaration covers.
#[test]
fn a_fill_body_wider_than_its_declarations_is_named() {
    if !audit::COMPILED {
        return;
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _wide = mutation::widen_body_need();
        let _quiet = FaultPlan::new(0).activate();
        let mut sim = sedov(3, Some(0x51DE));
        let _ = sim.try_step();
    }));
    let msg = panic_text(&*result.expect_err("the coverage gate must fire"));
    assert!(msg.contains("race-audit"), "{msg}");
    assert!(msg.contains("undeclared Read of interior(block"), "{msg}");
    assert!(msg.contains("by fill(block"), "{msg}");
}

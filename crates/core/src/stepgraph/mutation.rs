//! Declaration-mutation hooks for the race-audit harness (DESIGN.md §14).
//!
//! `build_plan` funnels every `note_read`/`note_write` through [`keep`],
//! each with a stable site number `S0`–`S20`. The harness drops one site
//! at a time ([`drop_site`]), rebuilds the plan, and requires the audit to
//! fail — i.e. 100% mutant detection: if the step could lose a declaration
//! without the audit noticing, the audit would also miss a real missing
//! declaration introduced by a future refactor.
//!
//! A second mutation goes the other way ([`widen_body_need`]): the
//! declarations stay as built for `GuardNeed::Axis(dir)` while the fill
//! task *bodies* are handed `GuardNeed::Faces`, so they read neighbors the
//! plan never declared — the coverage half of the audit must name the read.
//!
//! Thread-local so concurrent tests don't interfere; effectively a no-op
//! in builds without the audit (the builder's `note_*` calls are no-ops
//! there anyway, so dropping one changes nothing).

use std::cell::Cell;

use rflash_mesh::GuardNeed;

/// Number of declaration sites in `build_plan`. The mutation matrix in
/// `tests/race_audit.rs` exercises all of them and fails if any site never
/// fires in its scenario.
pub const NSITES: u32 = 21;

/// What each site declares, for harness diagnostics.
pub const NAMES: [&str; NSITES as usize] = [
    "dt scan reads the leaf interior",           // S0
    "dt reduce writes the dt cell",              // S1
    "restrict reads the child interiors",        // S2
    "restrict writes the parent interior",       // S3
    "fill reads a same-level neighbor interior", // S4
    "fill reads a coarser neighbor interior",    // S5
    "fill reads a coarser neighbor's guards",    // S6
    "fill reads its own interior",               // S7
    "fill writes its own guards",                // S8
    "sweep reads the dt cell",                   // S9
    "sweep reads its own guards",                // S10
    "sweep writes its own interior",             // S11
    "sweep writes its own flux rows",            // S12
    "correct reads its own flux rows",           // S13
    "correct reads fine children's flux rows",   // S14
    "correct reads the dt cell",                 // S15
    "correct writes its own interior",           // S16
    "eos reads its own guards",                  // S17
    "eos writes its own interior",               // S18
    "inject writes the first leaf interior",     // S19
    "validate reads the leaf interior",          // S20
];

thread_local! {
    static DROPPED: Cell<Option<u32>> = const { Cell::new(None) };
    static WIDENED: Cell<bool> = const { Cell::new(false) };
}

/// Should declaration site `site` be emitted? True except for the one site
/// the current thread is mutating.
#[inline]
pub fn keep(site: u32) -> bool {
    debug_assert!(site < NSITES);
    DROPPED.with(|d| d.get() != Some(site))
}

/// Drop declaration site `site` on this thread until the guard drops. The
/// next plan built on this thread omits that `note_read`/`note_write`.
#[must_use = "the site is restored when the guard drops"]
pub fn drop_site(site: u32) -> MutationGuard {
    assert!(site < NSITES, "unknown mutation site {site}");
    DROPPED.with(|d| d.set(Some(site)));
    MutationGuard
}

/// The need a fill task's body is handed, given the need its declarations
/// were generated from: the same one, except while the current thread is
/// under [`widen_body_need`]. Consulted when the plan is built.
#[inline]
pub fn body_need(declared: GuardNeed) -> GuardNeed {
    if WIDENED.with(|w| w.get()) {
        GuardNeed::Faces
    } else {
        declared
    }
}

/// Until the guard drops, plans built on this thread hand their fill task
/// bodies `GuardNeed::Faces` while declaring only what `Axis(dir)` reads.
#[must_use = "the mutation is undone when the guard drops"]
pub fn widen_body_need() -> MutationGuard {
    WIDENED.with(|w| w.set(true));
    MutationGuard
}

/// Restores the unmutated plan builder on drop.
pub struct MutationGuard;

impl Drop for MutationGuard {
    fn drop(&mut self) {
        DROPPED.with(|d| d.set(None));
        WIDENED.with(|w| w.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_site_masks_exactly_one_site_until_the_guard_drops() {
        assert!(keep(0) && keep(20));
        {
            let _g = drop_site(5);
            assert!(!keep(5));
            assert!(keep(4) && keep(6));
        }
        assert!(keep(5));
    }

    #[test]
    fn widen_body_need_lasts_until_the_guard_drops() {
        assert_eq!(body_need(GuardNeed::Axis(1)), GuardNeed::Axis(1));
        {
            let _g = widen_body_need();
            assert_eq!(body_need(GuardNeed::Axis(1)), GuardNeed::Faces);
        }
        assert_eq!(body_need(GuardNeed::Axis(1)), GuardNeed::Axis(1));
    }

    #[test]
    fn names_cover_every_site() {
        assert_eq!(NAMES.len(), NSITES as usize);
    }
}

//! The four workloads and the seeded generator that turns a RON template
//! into the spec text a sample receives. The program under test sees only
//! that text; the seed never reaches it.

use rflash::hugepages::Policy;

/// One benchmark workload: a spec template plus the run-setup overrides
/// (`policy`, `nranks`) and the step budget of one sample.
pub struct Workload {
    pub name: &'static str,
    template: &'static str,
    pub policy: Policy,
    pub nranks: usize,
    /// Steps per sample, sized so one sample takes about two seconds on the
    /// 2-core reference host (nine or so samples fit a 20 s run).
    pub steps: u64,
    /// `CheckpointSeries::write` every this many steps (0 = never), then
    /// recover the newest and compare digests.
    pub checkpoint_every: u64,
    /// Allowed relative drift of total mass over a sample; `None` where the
    /// boundaries or the density floor legitimately move mass.
    pub mass_tol: Option<f64>,
}

const SEDOV: &str = include_str!("../workloads/sedov3d.ron");
const SUPERNOVA: &str = include_str!("../workloads/supernova2d.ron");
const KH: &str = include_str!("../workloads/kh2d.ron");

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sedov3d",
        template: SEDOV,
        policy: Policy::None,
        nranks: 1,
        steps: 12,
        checkpoint_every: 0,
        // Not round-off: the 3-d fine–coarse path drifts ~4e-6 in 12 steps
        // (README, findings). The gate catches a change for the worse.
        mass_tol: Some(1e-4),
    },
    Workload {
        name: "sedov3d.thp",
        template: SEDOV,
        policy: Policy::Thp,
        nranks: 1,
        steps: 12,
        checkpoint_every: 0,
        mass_tol: Some(1e-4),
    },
    Workload {
        name: "supernova2d",
        template: SUPERNOVA,
        policy: Policy::None,
        nranks: 1,
        steps: 25,
        checkpoint_every: 0,
        mass_tol: None,
    },
    Workload {
        name: "kh2d.r2.ckpt",
        template: KH,
        policy: Policy::None,
        nranks: 2,
        steps: 80,
        checkpoint_every: 20,
        mass_tol: Some(1e-10),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Steps and checkpoint interval of one sample; `--quick` shrinks both.
    pub fn budget(&self, quick: bool) -> (u64, u64) {
        if quick {
            (4, self.checkpoint_every.min(2))
        } else {
            (self.steps, self.checkpoint_every)
        }
    }

    /// The spec text for `seed`: every `{{slot}}` of the template filled
    /// with a jittered initial-condition parameter. Same seed, same bytes.
    pub fn generate(&self, seed: u64) -> String {
        let mut rng = SplitMix64(seed);
        // Each slot: (name, centre, half-width of the uniform jitter).
        // Sedov: centre within ±1 finest zone (1/32), E₀ within ±10 %;
        // supernova: match-head radius ±4 %, temperature ±2 %; KH:
        // perturbation amplitude ±10 %.
        let slots: [(&str, f64, f64); 7] = [
            ("cx", 0.5, 1.0 / 32.0),
            ("cy", 0.5, 1.0 / 32.0),
            ("cz", 0.5, 1.0 / 32.0),
            ("e0", 1.0, 0.1),
            ("ignite_radius", 2.5e7, 1e6),
            ("ignite_temp", 3e9, 6e7),
            ("amplitude", 0.01, 0.001),
        ];
        let mut text = self.template.replace("{{seed}}", &seed.to_string());
        // Every slot draws, used or not, so a workload's values do not
        // depend on which other slots its template happens to hold.
        for (slot, centre, half_width) in slots {
            let value = centre + half_width * rng.symmetric();
            text = text.replace(&format!("{{{{{slot}}}}}"), &format!("{value:?}"));
        }
        assert!(
            !text.contains("{{"),
            "unfilled slot in the {} template",
            self.name
        );
        text
    }
}

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, seedable, good enough to
/// jitter seven parameters.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn symmetric(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash::core::registry::{self, SetupSpec, StateDigest};
    use rflash::core::StepScheduler;
    use rflash::hydro::SweepEngine;

    #[test]
    fn same_seed_gives_byte_identical_ron() {
        for w in &WORKLOADS {
            assert_eq!(w.generate(7), w.generate(7), "{}", w.name);
            assert_ne!(w.generate(7), w.generate(8), "{}", w.name);
        }
    }

    #[test]
    fn every_generated_spec_validates() {
        for w in &WORKLOADS {
            for seed in 0..20 {
                let spec = SetupSpec::from_source(&w.generate(seed))
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
                spec.validate()
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            }
        }
    }

    #[test]
    fn jitter_stays_inside_its_stated_range() {
        let mut rng = SplitMix64(1);
        for _ in 0..10_000 {
            let x = rng.symmetric();
            assert!((-1.0..1.0).contains(&x));
        }
    }

    /// Two seeds must give different physics (digests), and the block pool
    /// must hold twice the initial leaf count so no sample dies on pool
    /// exhaustion. Uses the small 2-d workload to stay fast; the samples
    /// themselves re-assert the pool margin against the *peak* leaf count
    /// on every workload.
    #[test]
    fn two_seeds_give_different_digests_and_the_pool_has_margin() {
        let w = Workload::by_name("kh2d.r2.ckpt").unwrap();
        let digest = |seed| {
            let spec = SetupSpec::from_source(&w.generate(seed)).unwrap();
            let params = registry::smoke_params(
                &spec,
                w.nranks,
                SweepEngine::Pencil,
                StepScheduler::TaskGraph,
            );
            let mut sim = spec.build(params).unwrap();
            assert!(spec.mesh.max_blocks >= 2 * sim.domain.tree.leaves().len());
            sim.evolve(2);
            StateDigest::of(&sim).crc
        };
        assert_ne!(digest(1), digest(2));
    }
}

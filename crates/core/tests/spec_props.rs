//! Property tests for the declarative scenario registry (ISSUE 8):
//! parse ∘ serialize is the identity on valid specs, and malformed specs
//! fail with *typed* errors — never panics — no matter how they are
//! mangled.

use proptest::prelude::*;

use rflash_core::registry::{self, EosSpec, SetupSpec, SpecError, Value};

/// Characters a title may carry, deliberately including multi-byte UTF-8
/// and the escapes the RON-lite grammar supports.
const TITLE_POOL: &[char] = &[
    'a', 'Z', '0', ' ', '-', '_', '(', ')', '.', ',', '"', '\\', '\n', '\t', '–', 'ρ', '³', 'é',
];

/// Identifier characters for injected bogus keys.
const IDENT_POOL: &[char] = &['a', 'b', 'c', 'x', 'y', 'z', '_', '0', '7'];

fn builtin_at(index: usize) -> SetupSpec {
    let specs = registry::builtin();
    specs[index % specs.len()].clone()
}

fn title_from(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| TITLE_POOL[i % TITLE_POOL.len()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serialize → parse is the identity on any valid spec, including ones
    /// with mutated numerics and adversarial UTF-8/escape-heavy titles.
    #[test]
    fn mutated_specs_round_trip(
        index in 0usize..7,
        title_idx in proptest::collection::vec(0usize..64, 0..12),
        cfl in 0.05f64..0.95,
        floor_exp in -30i32..0,
        steps in 1u64..32,
        scale in 0.25f64..16.0,
    ) {
        let mut spec = builtin_at(index);
        spec.title = title_from(&title_idx);
        spec.budgets.cfl = cfl;
        spec.budgets.dens_floor = 10f64.powi(floor_exp);
        spec.smoke.steps = steps;
        for d in 0..3 {
            // Keep lo < hi: scale the extent, not the endpoints.
            let lo = spec.mesh.domain_lo[d];
            spec.mesh.domain_hi[d] = lo + (spec.mesh.domain_hi[d] - lo) * scale;
        }
        spec.validate().expect("mutations preserve validity");

        let text = spec.to_value().to_ron(0);
        let back = SetupSpec::from_source(&text);
        prop_assert!(back.is_ok(), "re-parse failed: {}\n{text}", back.unwrap_err());
        prop_assert_eq!(&spec, &back.unwrap(), "drifted through to_ron:\n{}", text);
    }

    /// An unknown key injected anywhere in the top-level struct is a typed
    /// `UnknownKey` error naming exactly the injected key.
    #[test]
    fn injected_unknown_keys_are_rejected_typed(
        index in 0usize..7,
        key_idx in proptest::collection::vec(0usize..64, 1..8),
        position in 0usize..16,
    ) {
        let spec = builtin_at(index);
        let bogus: String = std::iter::once('q')
            .chain(key_idx.iter().map(|&i| IDENT_POOL[i % IDENT_POOL.len()]))
            .collect();

        let Value::Struct { tag, mut fields } = spec.to_value() else {
            panic!("to_value always yields a struct");
        };
        let at = position % (fields.len() + 1);
        fields.insert(at, (bogus.clone(), Value::Bool(true)));
        let text = Value::Struct { tag, fields }.to_ron(0);

        match SetupSpec::from_source(&text) {
            Err(SpecError::UnknownKey { key, .. }) => prop_assert_eq!(key, bogus),
            other => prop_assert!(false, "expected UnknownKey, got {:?}", other.map(|_| ())),
        }
    }

    /// Truncating a valid source at any char boundary either still parses
    /// to the same spec (e.g. only trailing whitespace lost) or fails with
    /// a typed error — never a panic.
    #[test]
    fn truncated_sources_never_panic(index in 0usize..7, cut in 0.0f64..1.0) {
        let spec = builtin_at(index);
        let text = spec.to_value().to_ron(0);
        let mut at = ((text.len() as f64) * cut) as usize;
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        // An Err is a typed rejection — the property holds there by itself.
        if let Ok(back) = SetupSpec::from_source(&text[..at]) {
            prop_assert_eq!(back, spec, "prefix parsed to a different spec");
        }
    }

    /// Out-of-range dimensionality is a typed `Range` error.
    #[test]
    fn out_of_range_ndim_is_rejected_typed(index in 0usize..7, ndim in 4usize..64) {
        let mut spec = builtin_at(index);
        spec.mesh.ndim = ndim;
        match SetupSpec::from_source(&spec.to_value().to_ron(0)) {
            Err(SpecError::Range { at, .. }) => prop_assert!(at.contains("ndim"), "at={at}"),
            other => prop_assert!(false, "expected Range, got {:?}", other.map(|_| ())),
        }
    }

    /// Conflicting physics toggles are typed `Conflict` errors: a
    /// hydrostatic star cannot stand on a gamma-law EOS, and an ignite
    /// primitive without a flame would never burn.
    #[test]
    fn conflicting_toggles_are_rejected_typed(star in 0usize..2, gamma in 1.1f64..2.0) {
        // The two star-bearing scenarios.
        let name = ["supernova", "wd_relax"][star];
        let mut spec = registry::load(name).unwrap();
        spec.eos = EosSpec::Gamma { gamma };
        match SetupSpec::from_source(&spec.to_value().to_ron(0)) {
            Err(SpecError::Conflict { .. }) => {}
            other => prop_assert!(false, "expected Conflict, got {:?}", other.map(|_| ())),
        }

        let mut ignite = registry::load("supernova").unwrap();
        ignite.physics.flame = None;
        match SetupSpec::from_source(&ignite.to_value().to_ron(0)) {
            Err(SpecError::Conflict { .. }) => {}
            other => prop_assert!(false, "expected Conflict, got {:?}", other.map(|_| ())),
        }
    }
}

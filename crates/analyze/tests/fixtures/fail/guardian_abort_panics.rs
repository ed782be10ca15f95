//@ path: crates/core/src/guardian.rs
// Fixture: panic-capable calls on the guardian's rollback path. The
// guardian exists to degrade through bad states; aborting the process from
// inside it defeats the typed-StepError contract.
// Expected: panic (three sites: unwrap, expect, panic!).

fn rollback(snapshot: Option<&[f64]>, state: &mut [f64]) {
    let shadow = snapshot.unwrap();
    if shadow.len() != state.len() {
        panic!("snapshot shape drifted");
    }
    state.copy_from_slice(shadow);
}

fn halve_dt(dt: Option<f64>) -> f64 {
    dt.expect("a dt was computed") * 0.5
}

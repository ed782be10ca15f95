//@ path: crates/hydro/src/fixture.rs
// Fixture: panic-capable calls in a hot-path crate, outside test code.
// Expected: panic (three sites: unwrap, expect, panic!).

fn riemann(left: Option<f64>, right: Option<f64>) -> f64 {
    let l = left.unwrap();
    let r = right.expect("right state");
    if l < 0.0 {
        panic!("negative density");
    }
    l + r
}

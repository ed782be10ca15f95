//@ path: crates/hydro/src/fixture.rs
// Fixture: hot-path panics suppressed by documented allow annotations, both
// placements (line above, same line).
// Expected: clean.

fn dispatch(dir: usize, x: Option<f64>) -> f64 {
    let v = match dir {
        0 | 1 | 2 => 1.0,
        // analyze::allow(panic): dir is bounded by the three-sweep driver.
        _ => panic!("dir < 3"),
    };
    v + x.unwrap() // analyze::allow(panic): x is Some for every caller in this fixture.
}

//@ path: crates/eos/src/fixture.rs
// Fixture: unfinished-code macros in a hot-path crate.
// Expected: panic (todo! and unimplemented!).

fn call(mode: u8) -> f64 {
    match mode {
        0 => 1.0,
        1 => todo!(),
        _ => unimplemented!("mode {mode}"),
    }
}

//@ path: crates/eos/src/fixture.rs
// Fixture: malformed escape hatches.
// Expected: allow_syntax (unknown rule; missing reason), plus the panic
// violation the reasonless allow fails to suppress.

fn f(x: Option<u8>) -> u8 {
    // analyze::allow(everything): not a known rule id.
    // analyze::allow(panic)
    x.unwrap()
}

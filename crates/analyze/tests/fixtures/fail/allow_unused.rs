// Fixture: a well-formed allow with nothing to suppress.
// Expected: unused_allow.

// analyze::allow(panic): left behind after the unwrap was refactored away.
fn f(x: Option<u8>) -> u8 {
    x.unwrap_or(0)
}

//@ path: crates/core/src/guardian.rs
// Fixture: the step guardian's validate/rollback path is hot-path code —
// its whole point is turning bad states into typed errors, so it reports
// violations as values and lets the caller decide, never unwrap/panic!.
// Expected: clean.

pub struct Violation {
    pub block: usize,
    pub detail: String,
}

/// First unphysical zone, or `None` when the state is clean.
fn first_violation(dens: &[f64], floor: f64) -> Option<Violation> {
    for (block, &x) in dens.iter().enumerate() {
        if !x.is_finite() {
            return Some(Violation {
                block,
                detail: format!("dens = {x:e} is not finite"),
            });
        }
        if x <= floor {
            return Some(Violation {
                block,
                detail: format!("dens = {x:e} <= floor {floor:e}"),
            });
        }
    }
    None
}

/// Roll back refuses — with a value, not an abort — when the snapshot is
/// stale.
fn restore(epoch: u64, captured: Option<u64>) -> bool {
    match captured {
        Some(e) if e == epoch => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let v = super::first_violation(&[1.0, -2.0], 0.0).unwrap();
        assert_eq!(v.block, 1);
    }
}

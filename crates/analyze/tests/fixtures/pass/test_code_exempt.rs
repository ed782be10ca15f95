//@ path: crates/eos/src/fixture.rs
// Fixture: the panic rule skips #[cfg(test)] modules and #[test] fns even
// inside hot-path crates — tests are supposed to assert loudly.
// Expected: clean.

fn invert(x: f64) -> Result<f64, &'static str> {
    if x == 0.0 {
        return Err("zero");
    }
    Ok(1.0 / x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverts() {
        assert_eq!(invert(2.0).unwrap(), 0.5);
        invert(0.0).expect_err("zero must fail");
    }

    #[test]
    #[should_panic]
    fn panics_are_fine_here() {
        panic!("expected");
    }
}

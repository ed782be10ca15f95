// Fixture: the function of fail/no_caller_test_only.rs kept with a reasoned
// allow, beside a public function that non-test code calls.
// Expected: clean.

// analyze::allow(no_caller): sensitivity studies call it from outside the workspace.
pub fn miss_rate(walks: u64, accesses: u64) -> f64 {
    walks as f64 / accesses.max(1) as f64
}

pub fn stall_cycles(walks: u64) -> u64 {
    walks * 100
}

fn report(walks: u64) -> u64 {
    stall_cycles(walks)
}

#[cfg(test)]
mod tests {
    #[test]
    fn empty_counters_read_zero() {
        assert_eq!(super::miss_rate(0, 0), 0.0);
    }
}

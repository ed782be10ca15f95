// Fixture: a public function whose only caller is this file's own test;
// the doc-comment mention is not a caller.
// Expected: no_caller.

/// DTLB misses per access; `miss_rate` in the report.
pub fn miss_rate(walks: u64, accesses: u64) -> f64 {
    walks as f64 / accesses.max(1) as f64
}

#[cfg(test)]
mod tests {
    #[test]
    fn empty_counters_read_zero() {
        assert_eq!(super::miss_rate(0, 0), 0.0);
    }
}

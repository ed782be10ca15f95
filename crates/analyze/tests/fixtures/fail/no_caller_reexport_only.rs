// Fixture: a public function named only by a `pub use` re-export and by a
// `use` import; neither is a caller.
// Expected: no_caller.

pub use self::rates::miss_rate;

mod rates {
    /// DTLB misses per access; `miss_rate` in the report.
    pub fn miss_rate(walks: u64, accesses: u64) -> f64 {
        walks as f64 / accesses.max(1) as f64
    }
}

mod report {
    #[allow(unused_imports)]
    use super::rates::{self, miss_rate};
}

//! FLASH-style hierarchical named timers.
//!
//! FLASH's `Timers_start("eos") / Timers_stop("eos")` accumulate inclusive
//! wall time per label with nesting; the summary the paper quotes as
//! "FLASH Timer (s)" is the total evolution time. This is a faithful small
//! reimplementation: labels form a stack, re-entrant starts are counted,
//! and the report shows inclusive seconds and call counts per label.

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

#[derive(Clone, Copy, Debug, Default)]
struct TimerSlot {
    inclusive_secs: f64,
    calls: u64,
    depth_sum: u64,
}

/// A set of nestable named timers. Not thread-safe by design — FLASH timers
/// are per-process and the driver owns them; per-thread probes aggregate
/// into [`crate::KernelStats`] instead.
#[derive(Default)]
pub struct Timers {
    slots: HashMap<String, TimerSlot>,
    stack: Vec<(String, Instant)>,
}

impl Timers {
    /// An empty timer set.
    pub fn new() -> Timers {
        Timers::default()
    }

    /// Begin timing `label`. Nesting is allowed (including re-entrancy).
    pub fn start(&mut self, label: &str) {
        self.stack.push((label.to_owned(), Instant::now()));
    }

    /// Stop the innermost timer, which must match `label`.
    ///
    /// # Panics
    /// Panics on mismatched or missing starts — a structural bug in the
    /// caller that silently wrong numbers must not paper over.
    pub fn stop(&mut self, label: &str) {
        let (top, begun) = self
            .stack
            .pop()
            .unwrap_or_else(|| panic!("Timers::stop({label:?}) with no timer running"));
        assert_eq!(
            top, label,
            "Timers::stop({label:?}) but innermost running timer is {top:?}"
        );
        let slot = self.slots.entry(top).or_default();
        slot.inclusive_secs += begun.elapsed().as_secs_f64();
        slot.calls += 1;
        slot.depth_sum += self.stack.len() as u64;
    }

    /// Time a closure under `label`.
    pub fn time<R>(&mut self, label: &str, f: impl FnOnce() -> R) -> R {
        self.start(label);
        let r = f();
        self.stop(label);
        r
    }

    /// Inclusive seconds accumulated for `label` (0 if never stopped).
    pub fn seconds(&self, label: &str) -> f64 {
        self.slots.get(label).map_or(0.0, |s| s.inclusive_secs)
    }

    /// Number of completed start/stop pairs for `label`.
    pub fn calls(&self, label: &str) -> u64 {
        self.slots.get(label).map_or(0, |s| s.calls)
    }

    /// Labels with completed measurements, sorted by descending time.
    pub fn labels(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.slots.keys().map(String::as_str).collect();
        v.sort_by(|a, b| {
            self.seconds(b)
                .partial_cmp(&self.seconds(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        v
    }
}

impl fmt::Display for Timers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<28} {:>12} {:>8}", "timer", "secs", "calls")?;
        for label in self.labels() {
            let slot = &self.slots[label];
            writeln!(
                f,
                "{:<28} {:>12.6} {:>8}",
                label, slot.inclusive_secs, slot.calls
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn accumulates_across_calls() {
        let mut t = Timers::new();
        for _ in 0..3 {
            t.start("evolve");
            std::thread::sleep(Duration::from_millis(2));
            t.stop("evolve");
        }
        assert_eq!(t.calls("evolve"), 3);
        assert!(t.seconds("evolve") >= 0.006);
        assert!(t.stack.is_empty());
    }

    #[test]
    fn nesting_is_inclusive() {
        let mut t = Timers::new();
        t.start("outer");
        t.start("inner");
        std::thread::sleep(Duration::from_millis(3));
        t.stop("inner");
        t.stop("outer");
        assert!(t.seconds("outer") >= t.seconds("inner"));
    }

    #[test]
    fn time_closure_returns_value() {
        let mut t = Timers::new();
        let v = t.time("work", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.calls("work"), 1);
    }

    #[test]
    #[should_panic(expected = "innermost running timer")]
    fn mismatched_stop_panics() {
        let mut t = Timers::new();
        t.start("a");
        t.stop("b");
    }

    #[test]
    #[should_panic(expected = "no timer running")]
    fn stop_without_start_panics() {
        let mut t = Timers::new();
        t.stop("ghost");
    }

    #[test]
    fn labels_sorted_by_time() {
        let mut t = Timers::new();
        t.time("fast", || std::thread::sleep(Duration::from_millis(1)));
        t.time("slow", || std::thread::sleep(Duration::from_millis(8)));
        assert_eq!(t.labels()[0], "slow");
        let report = t.to_string();
        assert!(report.contains("slow"));
        assert!(report.contains("fast"));
    }

    #[test]
    fn unknown_label_reads_zero() {
        let t = Timers::new();
        assert_eq!(t.seconds("nope"), 0.0);
        assert_eq!(t.calls("nope"), 0);
    }
}

//! Instrumented-region sessions: the analog of the paper's PAPI begin/end
//! wrapping of the EOS and hydro routines.

use std::time::Instant;

use rflash_tlbsim::{AccessPattern, FrameSizing, Tlb, TlbConfig, TlbStats};

use crate::hw::{HwCounters, HwEvent};
use crate::kernel_stats::KernelStats;
use crate::report::Measures;
use crate::NOMINAL_HZ;

/// Session configuration.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Geometry of the modeled TLB.
    pub tlb: TlbConfig,
    /// Replay one in `sample_every` recorded patterns into the TLB model;
    /// reported miss counts are scaled back up by the same factor. 1 = every
    /// pattern (exact).
    pub sample_every: u32,
    /// Extra scale applied to reported TLB counters when the *kernels*
    /// themselves record only a subset of their accesses (e.g. one pencil
    /// pattern in N); keeps absolute rates honest. 1.0 = full coverage.
    pub coverage_scale: f64,
    /// Attempt to open hardware counters alongside the model.
    pub use_hw: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            tlb: TlbConfig::a64fx_like(),
            sample_every: 1,
            coverage_scale: 1.0,
            use_hw: true,
        }
    }
}

/// A lightweight per-thread accumulator kernels write into. Threads build
/// probes independently; the driver [`PerfSession::absorb`]s them in rank
/// order after each parallel section (the MPI-rank analog).
#[derive(Default)]
pub struct Probe {
    /// Work counters (always exact, never sampled).
    pub stats: KernelStats,
    patterns: Vec<AccessPattern>,
}

impl Probe {
    /// An empty probe.
    pub fn new() -> Probe {
        Probe::default()
    }

    /// Record an access pattern: its bytes count toward bandwidth
    /// accounting, and it will be replayed into the TLB model on absorb.
    /// (Do **not** also add the same bytes to `stats.bytes_read`.)
    #[inline]
    pub fn record(&mut self, pattern: AccessPattern) {
        self.stats.bytes_read += pattern.bytes();
        self.patterns.push(pattern);
    }

    /// Record a pattern that writes rather than reads.
    #[inline]
    pub fn record_write(&mut self, pattern: AccessPattern) {
        self.stats.bytes_written += pattern.bytes();
        self.patterns.push(pattern);
    }

    /// Number of buffered patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }
}

/// Instrumentation context for one experiment configuration.
pub struct PerfSession {
    config: SessionConfig,
    tlb: Tlb,
    stats: KernelStats,
    hw: Option<HwCounters>,
    region_begun: Option<Instant>,
    region_secs: f64,
    regions: u64,
    sample_counter: u32,
    sampled_in: u64,
    total_patterns: u64,
    hw_cycles: u64,
    hw_instructions: u64,
    hw_dtlb: u64,
}

impl PerfSession {
    /// Open the session, probing hardware counters if requested.
    pub fn new(config: SessionConfig) -> PerfSession {
        let hw = if config.use_hw {
            HwCounters::try_open_default()
        } else {
            None
        };
        PerfSession {
            tlb: Tlb::new(config.tlb),
            stats: KernelStats::default(),
            hw,
            region_begun: None,
            region_secs: 0.0,
            regions: 0,
            sample_counter: 0,
            sampled_in: 0,
            total_patterns: 0,
            hw_cycles: 0,
            hw_instructions: 0,
            hw_dtlb: 0,
            config,
        }
    }

    /// Register a buffer with the TLB model's page table.
    pub fn map_region(&mut self, base: usize, len: usize, sizing: FrameSizing) {
        self.tlb.map_region(base, len, sizing);
    }

    /// Enter the instrumented region (PAPI begin).
    pub fn start_region(&mut self) {
        assert!(self.region_begun.is_none(), "region already started");
        if let Some(hw) = &mut self.hw {
            hw.start();
        }
        self.region_begun = Some(Instant::now());
    }

    /// Leave the instrumented region (PAPI end), accumulating elapsed time
    /// and hardware deltas.
    pub fn stop_region(&mut self) {
        let begun = self.region_begun.take().expect("region not started");
        self.region_secs += begun.elapsed().as_secs_f64();
        self.regions += 1;
        if let Some(hw) = &self.hw {
            for (event, delta) in hw.read_deltas() {
                match event {
                    HwEvent::Cycles => self.hw_cycles += delta,
                    HwEvent::Instructions => self.hw_instructions += delta,
                    HwEvent::DtlbReadMisses => self.hw_dtlb += delta,
                }
            }
        }
    }

    /// Merge a probe produced by a kernel/thread: exact work counters plus a
    /// sampled replay of its access patterns through the TLB model.
    pub fn absorb(&mut self, probe: Probe) {
        self.stats += probe.stats;
        for pattern in probe.patterns {
            self.total_patterns += 1;
            self.sample_counter += 1;
            if self.sample_counter >= self.config.sample_every {
                self.sample_counter = 0;
                self.sampled_in += 1;
                pattern.replay(&mut self.tlb);
            }
        }
    }

    /// Direct access for single-threaded callers that skip [`Probe`].
    pub fn stats_mut(&mut self) -> &mut KernelStats {
        &mut self.stats
    }

    /// TLB counters scaled back up by the sampling and coverage factors.
    pub fn tlb_stats(&self) -> TlbStats {
        let factor = if self.sampled_in == 0 {
            1.0
        } else {
            self.total_patterns as f64 / self.sampled_in as f64
        };
        self.tlb
            .stats()
            .scaled(factor * self.config.coverage_scale.max(1.0))
    }

    /// Build the paper-style measure rows. `total_time_s` is the "FLASH
    /// Timer" (whole-run) value the driver supplies.
    pub fn measures(&self, total_time_s: f64) -> Measures {
        let time_s = self.region_secs;
        let cycles = if self.hw.is_some() && self.hw_cycles > 0 {
            self.hw_cycles as f64
        } else {
            time_s * NOMINAL_HZ
        };
        let tlb = self.tlb_stats();
        let stall_cycles = tlb.stall_cycles(&self.config.tlb.cost) as f64;
        Measures {
            cycles,
            time_s,
            vec_ops_per_cycle: self.stats.vec_ops_per_cycle(cycles),
            mem_gb_per_s: self.stats.gb_per_s(time_s),
            dtlb_miss_per_s: tlb.misses_per_second(time_s),
            total_time_s,
            dtlb_misses: tlb.walks,
            hw_backend: self.hw.is_some(),
            hw_dtlb_miss_per_s: self
                .hw
                .as_ref()
                .and_then(|_| (time_s > 0.0).then_some(self.hw_dtlb as f64 / time_s)),
            stall_fraction: if cycles > 0.0 {
                (stall_cycles / cycles).min(1.0)
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_config() -> SessionConfig {
        SessionConfig {
            use_hw: false,
            ..SessionConfig::default()
        }
    }

    #[test]
    fn region_timing_accumulates() {
        let mut s = PerfSession::new(quiet_config());
        for _ in 0..2 {
            s.start_region();
            std::thread::sleep(std::time::Duration::from_millis(2));
            s.stop_region();
        }
        assert!(s.measures(0.0).time_s >= 0.004);
    }

    #[test]
    #[should_panic(expected = "region already started")]
    fn double_start_panics() {
        let mut s = PerfSession::new(quiet_config());
        s.start_region();
        s.start_region();
    }

    #[test]
    fn probe_absorb_replays_into_model() {
        let mut s = PerfSession::new(quiet_config());
        s.map_region(0, 1 << 24, FrameSizing::Base);
        let mut probe = Probe::new();
        probe.record(AccessPattern::Strided {
            base: 0,
            stride: 4096,
            count: 1024,
            elem: 8,
        });
        probe.stats.add_vec(4096);
        s.absorb(probe);
        let tlb = s.tlb_stats();
        assert_eq!(tlb.accesses, 1024);
        assert!(tlb.walks > 0);
        assert_eq!(s.stats_mut().vec_ops, 4096);
        // Pattern bytes were accounted as reads.
        assert_eq!(s.stats_mut().bytes_read, 1024 * 8);
    }

    #[test]
    fn sampling_scales_counters_back_up() {
        let mk_probe = || {
            let mut p = Probe::new();
            for i in 0..100usize {
                p.record(AccessPattern::Range {
                    base: i << 22,
                    len: 4096,
                });
            }
            p
        };
        let mut exact = PerfSession::new(quiet_config());
        exact.absorb(mk_probe());
        let mut sampled = PerfSession::new(SessionConfig {
            sample_every: 4,
            ..quiet_config()
        });
        sampled.absorb(mk_probe());
        assert_eq!(sampled.tlb.stats().accesses, 25);
        let scaled = sampled.tlb_stats();
        assert_eq!(scaled.accesses, 100);
        assert_eq!(exact.tlb_stats().accesses, 100);
    }

    #[test]
    fn measures_are_consistent() {
        let mut s = PerfSession::new(quiet_config());
        s.start_region();
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.stop_region();
        s.stats_mut().add_read(1_000_000);
        s.stats_mut().add_vec(1000);
        let m = s.measures(1.0);
        assert!(m.time_s >= 0.005);
        assert!(m.cycles > 0.0);
        assert!(!m.hw_backend);
        assert!(m.mem_gb_per_s > 0.0);
        assert_eq!(m.total_time_s, 1.0);
    }

    #[test]
    fn hw_session_probes_gracefully() {
        // With use_hw=true the session must construct whether or not the
        // host allows perf events.
        let mut s = PerfSession::new(SessionConfig::default());
        s.start_region();
        s.stop_region();
        let m = s.measures(0.1);
        assert_eq!(m.hw_backend, s.hw.is_some());
    }

    #[test]
    fn record_write_counts_writes() {
        let mut p = Probe::new();
        p.record_write(AccessPattern::Range { base: 0, len: 512 });
        assert_eq!(p.stats.bytes_written, 512);
        assert_eq!(p.stats.bytes_read, 0);
        assert_eq!(p.pattern_count(), 1);
    }
}

/// RAII wrapper for an instrumented region.
///
/// The paper's §II describes instrumenting FLASH with a Fortran object
/// whose *finalizer* stops the counters — and how the Fujitsu compiler's
/// unreliable finalizer support forced a fall-back to hard-coded begin/end
/// calls. Rust's drop glue is guaranteed, so the guard pattern is safe
/// here: the region closes on every exit path, including panics.
pub struct RegionGuard<'a> {
    session: &'a mut PerfSession,
}

impl PerfSession {
    /// Enter the instrumented region, closing it automatically on drop.
    pub fn region(&mut self) -> RegionGuard<'_> {
        self.start_region();
        RegionGuard { session: self }
    }
}

impl RegionGuard<'_> {
    /// Access the underlying session while the region is open (e.g. to
    /// absorb probes recorded inside it).
    #[cfg(test)]
    fn session(&mut self) -> &mut PerfSession {
        self.session
    }
}

impl Drop for RegionGuard<'_> {
    fn drop(&mut self) {
        self.session.stop_region();
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;

    #[test]
    fn guard_times_the_region() {
        let mut s = PerfSession::new(SessionConfig {
            use_hw: false,
            ..SessionConfig::default()
        });
        {
            let mut g = s.region();
            std::thread::sleep(std::time::Duration::from_millis(3));
            g.session().stats_mut().add_vec(7);
        }
        assert!(s.measures(0.0).time_s >= 0.003);
        assert_eq!(s.stats_mut().vec_ops, 7);
        // Reusable after close.
        {
            let _g = s.region();
        }
        assert!(s.measures(0.0).time_s >= 0.003);
    }

    #[test]
    fn guard_closes_on_panic() {
        let mut s = PerfSession::new(SessionConfig {
            use_hw: false,
            ..SessionConfig::default()
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = s.region();
            panic!("instrumented code failed");
        }));
        assert!(result.is_err());
        // The finalizer ran: a new region can start without tripping the
        // double-start assertion.
        s.start_region();
        s.stop_region();
    }
}

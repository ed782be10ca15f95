//! Software accounting of the work kernels perform.
//!
//! Hardware counters tell you what the machine did; these counters tell you
//! what the *kernels* did (bytes they logically moved, floating-point lane
//! operations they issued). The ratio of the two is how the harness forms
//! the paper's "Memory (Gbytes/s)" and "SVE instructions/cycle" analogs on
//! machines without SVE or uncore counters.

use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

/// Per-region work counters, accumulated by instrumented kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Bytes logically read by the kernel.
    pub bytes_read: u64,
    /// Bytes logically written.
    pub bytes_written: u64,
    /// Scalar floating-point operations.
    pub fp_ops: u64,
    /// Vectorizable lane operations (the SVE-instruction analog: ops issued
    /// in inner loops a vectorizing compiler would turn into SVE lanes).
    pub vec_ops: u64,
    /// Zones (cells) processed — FLASH's natural work unit.
    pub zones: u64,
    /// EOS evaluations performed (table lookups + Newton iterations).
    pub eos_calls: u64,
    /// Cells copied `unk` → SoA pencil lanes by the sweep gather pass.
    #[serde(default)]
    pub gather_cells: u64,
    /// Cells copied SoA lanes → `unk` by the sweep scatter pass.
    #[serde(default)]
    pub scatter_cells: u64,
    /// Zones submitted to the batched EOS interface.
    #[serde(default)]
    pub batch_lanes: u64,
    /// Of those, zones the vectorized fast path completed without scalar
    /// fallback (batch occupancy = batch_vector_lanes / batch_lanes).
    #[serde(default)]
    pub batch_vector_lanes: u64,
    /// Zones that exhausted the batched Newton iteration budget and were
    /// accepted on the residual-plateau criterion instead. Counted apart
    /// from `batch_vector_lanes` so occupancy numbers stay honest.
    #[serde(default)]
    pub batch_plateau_lanes: u64,
    /// Zones processed in full-width SIMD chunks by the explicit lane
    /// kernels (PPM / HLLC / update under dispatch).
    #[serde(default)]
    pub simd_chunk_lanes: u64,
    /// Zones processed by the scalar-lane tail of those kernels
    /// (mask occupancy = simd_chunk_lanes / (simd_chunk_lanes + simd_tail_lanes)).
    #[serde(default)]
    pub simd_tail_lanes: u64,
    /// Active-lane histogram per batched-EOS Newton iteration: bin `i`
    /// counts lanes still unconverged entering iteration `i` (last bin
    /// accumulates everything past it). Shows how occupancy decays as the
    /// masked re-iteration drains.
    #[serde(default)]
    pub newton_iter_hist: [u64; 16],
}

impl KernelStats {
    /// Total bytes moved in either direction.
    #[inline]
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Bandwidth in GB/s over an elapsed time.
    pub fn gb_per_s(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs <= 0.0 {
            0.0
        } else {
            self.bytes_total() as f64 / 1e9 / elapsed_secs
        }
    }

    /// Vector-lane operations per cycle, given a cycle count.
    pub fn vec_ops_per_cycle(&self, cycles: f64) -> f64 {
        if cycles <= 0.0 {
            0.0
        } else {
            self.vec_ops as f64 / cycles
        }
    }

    #[inline]
    /// Account `bytes` of logical reads.
    pub fn add_read(&mut self, bytes: u64) {
        self.bytes_read += bytes;
    }

    #[inline]
    /// Account scalar floating-point operations.
    pub fn add_fp(&mut self, ops: u64) {
        self.fp_ops += ops;
    }

    #[inline]
    /// Account vectorizable lane operations.
    pub fn add_vec(&mut self, ops: u64) {
        self.vec_ops += ops;
    }

    /// Fraction of batched-EOS zones the vector path handled; 0 when the
    /// batched interface was never used.
    pub fn batch_occupancy(&self) -> f64 {
        if self.batch_lanes == 0 {
            0.0
        } else {
            self.batch_vector_lanes as f64 / self.batch_lanes as f64
        }
    }

    /// Fraction of lane-kernel zones processed in full-width SIMD chunks
    /// (the rest ran through the scalar-lane tail); 0 when the explicit
    /// path never ran.
    pub fn simd_occupancy(&self) -> f64 {
        let total = self.simd_chunk_lanes + self.simd_tail_lanes;
        if total == 0 {
            0.0
        } else {
            self.simd_chunk_lanes as f64 / total as f64
        }
    }
}

impl Add for KernelStats {
    type Output = KernelStats;
    fn add(self, r: KernelStats) -> KernelStats {
        KernelStats {
            bytes_read: self.bytes_read + r.bytes_read,
            bytes_written: self.bytes_written + r.bytes_written,
            fp_ops: self.fp_ops + r.fp_ops,
            vec_ops: self.vec_ops + r.vec_ops,
            zones: self.zones + r.zones,
            eos_calls: self.eos_calls + r.eos_calls,
            gather_cells: self.gather_cells + r.gather_cells,
            scatter_cells: self.scatter_cells + r.scatter_cells,
            batch_lanes: self.batch_lanes + r.batch_lanes,
            batch_vector_lanes: self.batch_vector_lanes + r.batch_vector_lanes,
            batch_plateau_lanes: self.batch_plateau_lanes + r.batch_plateau_lanes,
            simd_chunk_lanes: self.simd_chunk_lanes + r.simd_chunk_lanes,
            simd_tail_lanes: self.simd_tail_lanes + r.simd_tail_lanes,
            newton_iter_hist: {
                let mut h = [0u64; 16];
                for (i, slot) in h.iter_mut().enumerate() {
                    *slot = self.newton_iter_hist[i] + r.newton_iter_hist[i];
                }
                h
            },
        }
    }
}

impl AddAssign for KernelStats {
    fn add_assign(&mut self, r: KernelStats) {
        *self = *self + r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_rates() {
        let mut s = KernelStats::default();
        s.add_read(3_000_000_000);
        s.bytes_written = 1_000_000_000;
        s.add_fp(100);
        s.add_vec(2_000);
        s.zones = 10;
        assert_eq!(s.bytes_total(), 4_000_000_000);
        assert!((s.gb_per_s(2.0) - 2.0).abs() < 1e-12);
        assert!((s.vec_ops_per_cycle(1000.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_denominators() {
        let s = KernelStats::default();
        assert_eq!(s.gb_per_s(0.0), 0.0);
        assert_eq!(s.vec_ops_per_cycle(0.0), 0.0);
        assert_eq!(s.gb_per_s(-1.0), 0.0);
    }

    #[test]
    fn add_merges_all_fields() {
        let a = KernelStats {
            bytes_read: 1,
            bytes_written: 2,
            fp_ops: 3,
            vec_ops: 4,
            zones: 5,
            eos_calls: 6,
            gather_cells: 7,
            scatter_cells: 8,
            batch_lanes: 9,
            batch_vector_lanes: 10,
            batch_plateau_lanes: 11,
            simd_chunk_lanes: 12,
            simd_tail_lanes: 13,
            newton_iter_hist: {
                let mut h = [0u64; 16];
                for (i, slot) in h.iter_mut().enumerate() {
                    *slot = i as u64;
                }
                h
            },
        };
        let sum = a + a;
        assert_eq!(sum.eos_calls, 12);
        assert_eq!(sum.zones, 10);
        assert_eq!(sum.gather_cells, 14);
        assert_eq!(sum.scatter_cells, 16);
        assert_eq!(sum.batch_lanes, 18);
        assert_eq!(sum.batch_vector_lanes, 20);
        assert_eq!(sum.batch_plateau_lanes, 22);
        assert_eq!(sum.simd_chunk_lanes, 24);
        assert_eq!(sum.simd_tail_lanes, 26);
        assert_eq!(sum.newton_iter_hist[15], 30);
        let mut acc = KernelStats::default();
        acc += a;
        assert_eq!(acc, a);
    }

    #[test]
    fn simd_occupancy_ratio() {
        let mut s = KernelStats::default();
        assert_eq!(s.simd_occupancy(), 0.0);
        s.simd_chunk_lanes = 12;
        s.simd_tail_lanes = 4;
        assert!((s.simd_occupancy() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn batch_occupancy_ratio() {
        let mut s = KernelStats::default();
        assert_eq!(s.batch_occupancy(), 0.0);
        s.batch_lanes = 8;
        s.batch_vector_lanes = 6;
        assert!((s.batch_occupancy() - 0.75).abs() < 1e-15);
    }
}

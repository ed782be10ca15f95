//! Fleet-level counters for the supervised multi-process runtime.
//!
//! The supervisor (see `rflash-core`'s `dist` module and DESIGN.md §17)
//! accumulates one of these per run: process lifecycle (spawns, respawns),
//! failure handling (heartbeat misses, probes, rollbacks), and wire
//! traffic. They ride along in the `FleetReport`; `rflash run-fleet`
//! prints them and the fleet drills assert on them.

use serde::{Deserialize, Serialize};

/// Monotonic counters covering one fleet run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetCounters {
    /// Worker processes launched, including the first.
    pub spawns: u64,
    /// Launches that replaced a lost worker.
    pub respawns: u64,
    /// Launch attempts that failed (including injected `spawn-fail`).
    pub spawn_failures: u64,
    /// Restarts from a checkpoint (or from step 0).
    pub rollbacks: u64,
    /// Heartbeat frames received.
    pub heartbeats: u64,
    /// Heartbeat deadlines that expired (worker entered the probe ladder).
    pub heartbeat_misses: u64,
    /// Liveness probes sent.
    pub probes: u64,
    /// Workers declared lost (any cause).
    pub worker_losses: u64,
    /// Frames received from the worker (heartbeats included).
    pub frames_rx: u64,
    /// Frame bytes received from the worker.
    pub bytes_rx: u64,
    /// Frames sent to the worker (liveness probes).
    pub frames_tx: u64,
    /// Frame bytes sent to the worker.
    pub bytes_tx: u64,
    /// Checkpoints the worker recorded as recovery points.
    pub checkpoints: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_default_to_zero_and_serialize() {
        let c = FleetCounters {
            spawns: 3,
            rollbacks: 1,
            ..FleetCounters::default()
        };
        assert_eq!(FleetCounters::default().spawns, 0);
        let json = serde_json::to_string(&c).unwrap();
        let back: FleetCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}

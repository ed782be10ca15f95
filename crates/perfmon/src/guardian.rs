//! Step-guardian telemetry: every rollback, retry, and dt halving the
//! guardian performs, folded into the same reporting surface as the
//! allocation chain ([`crate::AllocSummary`]). A run that silently halved
//! its time step would corrupt any performance comparison; these counters
//! make recovery as explicit as the allocation chain makes page-backing
//! degradation.

use std::fmt;

use serde::{Deserialize, Serialize};

/// One recovery action taken by the step guardian, in the order it
/// happened. `step` is the simulation step *being attempted* (the committed
/// step count at the time), `attempt` counts retries within that step
/// (0 = the original attempt).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GuardianEvent {
    /// Validation found non-finite values or floor violations.
    Violation {
        step: u64,
        attempt: u32,
        detail: String,
    },
    /// The computed time step was non-finite or ≤ 0.
    BadDt { step: u64, attempt: u32, dt: f64 },
    /// Leaf state was rolled back to the pre-step shadow snapshot.
    Rollback { step: u64, attempt: u32 },
    /// A retry was launched with this (possibly halved) time step.
    Retry { step: u64, attempt: u32, dt: f64 },
    /// An emergency checkpoint of the last good state was written.
    EmergencyCheckpoint { step: u64, path: String },
    /// The retry budget ran out; the step returned a typed error.
    Abort { step: u64, detail: String },
}

/// Counters plus the ordered event log for one simulation's guardian.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GuardianStats {
    /// Post-step validation scans performed (one per attempt).
    pub validations: u64,
    /// Scans that found an unphysical state.
    pub violations: u64,
    /// Bad (non-finite or ≤ 0) time steps caught before advancing.
    pub bad_dts: u64,
    /// Rollbacks to the shadow snapshot.
    pub rollbacks: u64,
    /// Retry attempts launched after a rollback.
    pub retries: u64,
    /// Retries that ran at a halved (or further halved) time step.
    pub dt_halvings: u64,
    /// Emergency checkpoints written on abort paths.
    pub emergency_checkpoints: u64,
    /// Steps abandoned with a typed error.
    pub aborts: u64,
    /// Every event, in order.
    pub events: Vec<GuardianEvent>,
}

impl GuardianStats {
    /// Record one event: bump the matching counter and append to the log.
    /// (`validations` has no event shape — clean scans are counted via
    /// [`count_validation`](Self::count_validation) without log spam.)
    pub fn record(&mut self, event: GuardianEvent) {
        match &event {
            GuardianEvent::Violation { .. } => self.violations += 1,
            GuardianEvent::BadDt { .. } => self.bad_dts += 1,
            GuardianEvent::Rollback { .. } => self.rollbacks += 1,
            GuardianEvent::Retry { .. } => self.retries += 1,
            GuardianEvent::EmergencyCheckpoint { .. } => self.emergency_checkpoints += 1,
            GuardianEvent::Abort { .. } => self.aborts += 1,
        }
        self.events.push(event);
    }

    /// Count one clean validation scan.
    pub fn count_validation(&mut self) {
        self.validations += 1;
    }

    /// `true` when the guardian never had to intervene.
    pub fn clean(&self) -> bool {
        self.events.is_empty()
    }
}

impl fmt::Display for GuardianStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "STEP GUARDIAN")?;
        writeln!(
            f,
            "| {:<28} | {:>13} |",
            "validation scans", self.validations
        )?;
        writeln!(f, "| {:<28} | {:>13} |", "violations", self.violations)?;
        writeln!(f, "| {:<28} | {:>13} |", "bad time steps", self.bad_dts)?;
        writeln!(f, "| {:<28} | {:>13} |", "rollbacks", self.rollbacks)?;
        writeln!(f, "| {:<28} | {:>13} |", "retries", self.retries)?;
        writeln!(f, "| {:<28} | {:>13} |", "dt halvings", self.dt_halvings)?;
        writeln!(
            f,
            "| {:<28} | {:>13} |",
            "emergency checkpoints", self.emergency_checkpoints
        )?;
        writeln!(f, "| {:<28} | {:>13} |", "aborts", self.aborts)?;
        for ev in &self.events {
            match ev {
                GuardianEvent::Violation {
                    step,
                    attempt,
                    detail,
                } => writeln!(f, "  step {step} attempt {attempt}: violation — {detail}")?,
                GuardianEvent::BadDt { step, attempt, dt } => {
                    writeln!(f, "  step {step} attempt {attempt}: bad dt {dt:e}")?
                }
                GuardianEvent::Rollback { step, attempt } => {
                    writeln!(f, "  step {step} attempt {attempt}: rollback to shadow")?
                }
                GuardianEvent::Retry { step, attempt, dt } => {
                    writeln!(f, "  step {step} attempt {attempt}: retry at dt {dt:e}")?
                }
                GuardianEvent::EmergencyCheckpoint { step, path } => {
                    writeln!(f, "  step {step}: emergency checkpoint {path}")?
                }
                GuardianEvent::Abort { step, detail } => {
                    writeln!(f, "  step {step}: ABORT — {detail}")?
                }
            }
        }
        if !self.clean() {
            writeln!(
                f,
                "NOTE: the guardian intervened; timings include rollback/retry \
                 work and are not comparable to a clean run."
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_bumps_matching_counter() {
        let mut g = GuardianStats::default();
        g.count_validation();
        g.record(GuardianEvent::Violation {
            step: 3,
            attempt: 0,
            detail: "dens < floor".into(),
        });
        g.record(GuardianEvent::Rollback {
            step: 3,
            attempt: 0,
        });
        g.record(GuardianEvent::Retry {
            step: 3,
            attempt: 1,
            dt: 1e-3,
        });
        assert_eq!(g.validations, 1);
        assert_eq!(g.violations, 1);
        assert_eq!(g.rollbacks, 1);
        assert_eq!(g.retries, 1);
        assert_eq!(g.events.len(), 3);
        assert!(!g.clean());
    }

    #[test]
    fn display_lists_events_and_flags_intervention() {
        let mut g = GuardianStats::default();
        assert!(g.clean());
        assert!(!g.to_string().contains("NOTE"));
        g.record(GuardianEvent::Abort {
            step: 7,
            detail: "retry budget exhausted".into(),
        });
        let text = g.to_string();
        assert!(text.contains("STEP GUARDIAN"), "{text}");
        assert!(text.contains("ABORT"), "{text}");
        assert!(text.contains("NOTE"), "{text}");
        assert_eq!(g.aborts, 1);
    }

    #[test]
    fn serde_round_trip() {
        let mut g = GuardianStats::default();
        g.count_validation();
        g.record(GuardianEvent::BadDt {
            step: 1,
            attempt: 0,
            dt: 0.0,
        });
        g.record(GuardianEvent::EmergencyCheckpoint {
            step: 1,
            path: "/tmp/x_000001.ckpt".into(),
        });
        let json = serde_json::to_string(&g).unwrap();
        let back: GuardianStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }
}

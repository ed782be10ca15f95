//! The step guardian: physicality validation, typed step errors, and the
//! one guarded-step state machine.
//!
//! FLASH aborts a run the moment a zone goes unphysical (negative density
//! out of the Riemann solver, a NaN flux, a zero time step) — the long
//! production campaigns in the paper's §IV only produce numbers because
//! every step of every run stayed physical. `rflash` instead *degrades*
//! through transient bad states: [`crate::Simulation::try_step`] validates
//! the evolved state before committing it, rolls back to a shadow snapshot
//! ([`rflash_mesh::ShadowSnapshot`]) on violation, retries under a bounded
//! budget (first at the same `dt` — a transient fault recovers bit-exactly
//! — then at halved `dt`), and on exhaustion writes an emergency
//! checkpoint and returns a typed [`StepError`]. Every intervention lands
//! in [`rflash_perfmon::GuardianStats`].
//!
//! The retry ladder exists once, here, for both step paths: an attempt is
//! either the serial body at one rank (dt scan → physics → validation
//! scan) or one task-graph dispatch at more, and the ladder sees only the
//! attempt's outcome, so both paths record the same interventions.
//! With the guardian off the same loop runs a single unvalidated attempt.

use std::path::PathBuf;

use rflash_gravity::GravityField;
use rflash_hydro::compute_dt_parallel_raw;
use rflash_mesh::{vars, Domain, MortonKey};
use rflash_perfmon::GuardianEvent;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{CheckpointError, CheckpointSeries};
use crate::sim::Simulation;
use crate::stepgraph::GraphAttemptOutcome;

/// Retry/validation policy for the step guardian. Lives in
/// [`crate::RuntimeParams`] (serde-defaulted, so pre-guardian checkpoints
/// and parameter files still load; keys this version no longer has, such
/// as `degrade_engine`, are ignored).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GuardianConfig {
    /// Master switch. Off runs each step once: no snapshot, no
    /// validation, no retry.
    pub enabled: bool,
    /// Retry budget per step (0 = validate but never retry). Retry 1 runs
    /// at the computed dt, retry `a ≥ 2` at `dt·½^(a−1)`.
    pub max_retries: u32,
    /// Exclusive floor for density: `dens > dens_min` must hold.
    pub dens_min: f64,
    /// Exclusive floor for pressure.
    pub pres_min: f64,
    /// Exclusive floor for specific total energy.
    pub ener_min: f64,
}

impl Default for GuardianConfig {
    fn default() -> GuardianConfig {
        GuardianConfig {
            enabled: true,
            max_retries: 2,
            dens_min: 0.0,
            pres_min: 0.0,
            ener_min: 0.0,
        }
    }
}

/// Why a step could not be committed. Returned (never panicked) by
/// [`crate::Simulation::try_step`] and
/// [`crate::Simulation::evolve_checkpointed`].
#[derive(Debug)]
pub enum StepError {
    /// `compute_dt` produced a non-finite or non-positive time step on
    /// every attempt.
    BadDt {
        /// Committed step count when the failure hit.
        step: u64,
        /// The offending dt of the last attempt.
        dt: f64,
        /// Attempts made (1 = no retries).
        attempts: u32,
        /// Emergency checkpoint of the last good state, if one was written.
        emergency_checkpoint: Option<PathBuf>,
    },
    /// Validation kept failing after every retry.
    Unphysical {
        step: u64,
        attempts: u32,
        /// First violation of the final attempt, e.g.
        /// `"block L1(0,1,0) zone (4, 4, 0): dens = -1.2e0 <= floor 0e0"`.
        detail: String,
        emergency_checkpoint: Option<PathBuf>,
    },
    /// A scheduled checkpoint write failed mid-evolution.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::BadDt {
                step,
                dt,
                attempts,
                emergency_checkpoint,
            } => {
                write!(
                    f,
                    "step {step}: unusable time step {dt:e} after {attempts} attempt(s)"
                )?;
                if let Some(p) = emergency_checkpoint {
                    write!(f, " (emergency checkpoint at {})", p.display())?;
                }
                Ok(())
            }
            StepError::Unphysical {
                step,
                attempts,
                detail,
                emergency_checkpoint,
            } => {
                write!(
                    f,
                    "step {step}: state unphysical after {attempts} attempt(s): {detail}"
                )?;
                if let Some(p) = emergency_checkpoint {
                    write!(f, " (emergency checkpoint at {})", p.display())?;
                }
                Ok(())
            }
            StepError::Checkpoint(e) => write!(f, "checkpoint during evolution: {e}"),
        }
    }
}

impl std::error::Error for StepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StepError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for StepError {
    fn from(e: CheckpointError) -> StepError {
        StepError::Checkpoint(e)
    }
}

/// The dt of attempt `attempt` of a step whose CFL time step is `raw`.
/// Attempt 0 and the first retry run at `raw` — the restored state
/// reproduces the same dt, so a transient fault recovers bit-exactly —
/// and from the second retry on the dt halves: `raw·½^(attempt−1)`, for
/// persistent CFL-type trouble where a smaller step is the actual fix.
/// Both attempt kinds take their dt from here.
pub(crate) fn retry_dt(raw: f64, attempt: u32) -> f64 {
    if attempt >= 2 {
        raw * 0.5f64.powi(attempt as i32 - 1)
    } else {
        raw
    }
}

impl Simulation {
    /// The guarded step (DESIGN.md §12): capture the shadow → attempt →
    /// validate → roll back → retry (same dt, then halved) → emergency
    /// checkpoint → typed abort, under the "step" timer.
    pub(crate) fn guarded_step(
        &mut self,
        series: Option<&CheckpointSeries>,
    ) -> Result<f64, StepError> {
        self.timers.start("step");
        let result = self.retry_ladder(series);
        self.timers.stop("step");
        result
    }

    fn retry_ladder(&mut self, series: Option<&CheckpointSeries>) -> Result<f64, StepError> {
        let g = self.params.guardian;
        let step = self.step;
        // Snapshot the committed state. A capture failure (allocation
        // exhausted on every degradation rung) leaves the step running
        // unprotected rather than killing a healthy run.
        let shadow_ok = g.enabled && {
            self.timers.start("guardian");
            let ok = self.shadow.capture(&self.domain);
            self.timers.stop("guardian");
            ok
        };

        let mut attempt: u32 = 0;
        loop {
            let out = self.attempt(attempt, g.enabled);
            if out.poisoned && !g.enabled {
                return Err(StepError::BadDt {
                    step,
                    dt: out.raw,
                    attempts: 1,
                    emergency_checkpoint: None,
                });
            }
            // Why this attempt cannot commit, and whether the state is the
            // committed one again (so a retry, or a checkpoint, may start
            // from it).
            let (detail, state_good) = if out.poisoned {
                self.guardian_stats.record(GuardianEvent::BadDt {
                    step,
                    attempt,
                    dt: out.raw,
                });
                // A bad dt touched no state: no rollback is needed, only
                // another attempt (the fault may be transient).
                (format!("unusable time step {:e}", out.raw), true)
            } else {
                if out.dt < out.raw {
                    self.guardian_stats.dt_halvings += 1;
                }
                if g.enabled {
                    self.guardian_stats.count_validation();
                }
                let Some(detail) = out.verdict else {
                    self.commit_step(out.dt);
                    return Ok(out.dt);
                };
                self.guardian_stats.record(GuardianEvent::Violation {
                    step,
                    attempt,
                    detail: detail.clone(),
                });
                let rolled_back = shadow_ok && self.shadow.restore(&mut self.domain);
                if rolled_back {
                    self.guardian_stats
                        .record(GuardianEvent::Rollback { step, attempt });
                }
                (detail, rolled_back)
            };
            if attempt < g.max_retries && state_good {
                attempt += 1;
                self.guardian_stats.record(GuardianEvent::Retry {
                    step,
                    attempt,
                    dt: out.raw,
                });
                continue;
            }

            // Budget exhausted (or no snapshot to retry from). Only a
            // known-good state is worth checkpointing.
            let emergency_checkpoint = self.emergency(series, state_good);
            self.guardian_stats.record(GuardianEvent::Abort {
                step,
                detail: detail.clone(),
            });
            let attempts = attempt + 1;
            return Err(if out.poisoned {
                StepError::BadDt {
                    step,
                    dt: out.raw,
                    attempts,
                    emergency_checkpoint,
                }
            } else {
                StepError::Unphysical {
                    step,
                    attempts,
                    detail,
                    emergency_checkpoint,
                }
            });
        }
    }

    /// One attempt at the step at [`retry_dt`]: a single task-graph
    /// dispatch when [`use_taskgraph`](Self::use_taskgraph) holds, else the
    /// serial body (dt scan → [`advance_physics`](Self::advance_physics)).
    /// With `validate`, the verdict is the first violation in Morton order:
    /// folded into the graph's tail when no flame or gravity runs after
    /// the graph, else one [`validate_domain`] scan here. A poisoned
    /// attempt (unusable dt) has touched no leaf interior.
    fn attempt(&mut self, attempt: u32, validate: bool) -> GraphAttemptOutcome {
        let graph = self.use_taskgraph();
        let fused = graph
            && validate
            && self.flame.is_none()
            && matches!(self.gravity.field, GravityField::None)
            && self.gravity.monopole.is_none();
        let mut out = if graph {
            self.graph_attempt(attempt, fused)
        } else {
            self.timers.start("dt");
            let raw =
                compute_dt_parallel_raw(&mut self.domain, self.params.cfl, self.params.nranks);
            self.timers.stop("dt");
            GraphAttemptOutcome {
                raw,
                dt: retry_dt(raw, attempt),
                poisoned: !(raw.is_finite() && raw > 0.0),
                verdict: None,
            }
        };
        if out.poisoned {
            return out;
        }
        if graph {
            // Flame and gravity (none when fused).
            self.post_sweep_tail(out.dt);
        } else {
            self.advance_physics(out.dt);
        }
        if validate && !fused {
            self.timers.start("guardian");
            out.verdict =
                validate_domain(&mut self.domain, &self.params.guardian, self.params.nranks);
            self.timers.stop("guardian");
        }
        out
    }

    /// Write an emergency checkpoint of the current (rolled-back) state,
    /// best-effort: an abort must surface the step error, not a nested
    /// checkpoint failure.
    fn emergency(
        &mut self,
        series: Option<&CheckpointSeries>,
        state_good: bool,
    ) -> Option<PathBuf> {
        if !state_good {
            return None;
        }
        let path = series?.write(self).ok()?;
        self.guardian_stats
            .record(GuardianEvent::EmergencyCheckpoint {
                step: self.step,
                path: path.display().to_string(),
            });
        Some(path)
    }
}

/// Scan every interior zone of every leaf for non-finite values and floor
/// violations, in parallel over the rank pool. Returns the first violation
/// in Morton order (deterministic for any `nranks`), or `None` when the
/// state is physical.
pub fn validate_domain(domain: &mut Domain, cfg: &GuardianConfig, nranks: usize) -> Option<String> {
    let geom = domain.unk.geom();
    let interior = domain.unk.interior();
    let interior_k = domain.unk.interior_k();
    let cfg = *cfg;
    let (_probes, verdicts) = domain.par_leaf_map(nranks, move |tree, id, slab, _probe| {
        // Label violations with the Morton key, not the arena slot: slot
        // numbers depend on allocation history and are not stable across
        // otherwise identical runs, and reports must be replayable.
        let key = tree.block(id).key;
        check_block(key, slab, &geom, interior.clone(), interior_k.clone(), &cfg)
    });
    verdicts.into_iter().find_map(|(_, v)| v)
}

/// The per-block piece of [`validate_domain`]: first violation in this
/// block's interior, scanning zones in (k, j, i) order and variables in
/// index order so the report is deterministic. Also the body of the task
/// graph's fused per-leaf Validate tasks (interior-only, so a shared read
/// of the block slab suffices).
pub(crate) fn check_block(
    key: MortonKey,
    slab: &[f64],
    geom: &rflash_mesh::unk::UnkGeom,
    interior: std::ops::Range<usize>,
    interior_k: std::ops::Range<usize>,
    cfg: &GuardianConfig,
) -> Option<String> {
    let floors = [
        (vars::DENS, cfg.dens_min),
        (vars::PRES, cfg.pres_min),
        (vars::ENER, cfg.ener_min),
    ];
    let at = |i: usize, j: usize, k: usize| {
        format!(
            "block L{}({},{},{}) zone ({i}, {j}, {k})",
            key.level, key.ix, key.iy, key.iz
        )
    };
    for k in interior_k {
        for j in interior.clone() {
            for i in interior.clone() {
                for v in 0..geom.nvar {
                    let x = slab[geom.slab_idx(v, i, j, k)];
                    if !x.is_finite() {
                        return Some(format!(
                            "{}: {} = {x:e} is not finite",
                            at(i, j, k),
                            vars::VAR_NAMES[v],
                        ));
                    }
                }
                for (v, floor) in floors {
                    let x = slab[geom.slab_idx(v, i, j, k)];
                    if x <= floor {
                        return Some(format!(
                            "{}: {} = {x:e} <= floor {floor:e}",
                            at(i, j, k),
                            vars::VAR_NAMES[v],
                        ));
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_hugepages::Policy;
    use rflash_mesh::tree::MeshConfig;

    fn healthy_domain() -> Domain {
        let mut d = Domain::new(MeshConfig::test_2d(), Policy::None);
        for id in d.tree.leaves() {
            for j in 0..d.unk.padded().1 {
                for i in 0..d.unk.padded().0 {
                    d.unk.set(vars::DENS, i, j, 0, id.idx(), 1.0);
                    d.unk.set(vars::PRES, i, j, 0, id.idx(), 0.6);
                    d.unk.set(vars::ENER, i, j, 0, id.idx(), 1.5);
                    d.unk.set(vars::GAMC, i, j, 0, id.idx(), 1.4);
                    d.unk.set(vars::GAME, i, j, 0, id.idx(), 1.4);
                }
            }
        }
        d
    }

    #[test]
    fn healthy_state_passes() {
        let mut d = healthy_domain();
        let cfg = GuardianConfig::default();
        for nranks in [1, 3] {
            assert_eq!(validate_domain(&mut d, &cfg, nranks), None);
        }
    }

    #[test]
    fn nan_anywhere_is_reported() {
        let mut d = healthy_domain();
        let id = d.tree.leaves()[0];
        let i = d.unk.interior().start + 2;
        d.unk.set(vars::VELY, i, i, 0, id.idx(), f64::NAN);
        let v = validate_domain(&mut d, &GuardianConfig::default(), 2).unwrap();
        assert!(v.contains("vely") && v.contains("not finite"), "{v}");
    }

    #[test]
    fn floor_violations_are_reported_with_detail() {
        let mut d = healthy_domain();
        let id = d.tree.leaves()[0];
        let i = d.unk.interior().start;
        d.unk.set(vars::DENS, i, i, 0, id.idx(), -2.0);
        let v = validate_domain(&mut d, &GuardianConfig::default(), 1).unwrap();
        assert!(v.contains("dens") && v.contains("floor"), "{v}");
        // Raising the pressure floor above the healthy value trips it too.
        d.unk.set(vars::DENS, i, i, 0, id.idx(), 1.0);
        let cfg = GuardianConfig {
            pres_min: 1.0,
            ..GuardianConfig::default()
        };
        let v = validate_domain(&mut d, &cfg, 1).unwrap();
        assert!(v.contains("pres"), "{v}");
    }

    #[test]
    fn guard_cells_are_not_scanned() {
        let mut d = healthy_domain();
        let id = d.tree.leaves()[0];
        // Corner guard cell: outside the interior in both i and j.
        d.unk.set(vars::DENS, 0, 0, 0, id.idx(), f64::NAN);
        assert_eq!(validate_domain(&mut d, &GuardianConfig::default(), 2), None);
    }

    #[test]
    fn first_violation_is_deterministic_across_nranks() {
        let mut d = healthy_domain();
        let root = d.tree.leaves()[0];
        d.tree.refine_block(root, &mut d.unk); // healthy values prolong
        let leaves = d.tree.leaves();
        assert!(leaves.len() >= 4);
        let i = d.unk.interior().start;
        // Two violations on different blocks: Morton order decides.
        d.unk
            .set(vars::DENS, i, i, 0, leaves[leaves.len() - 1].idx(), -5.0);
        d.unk
            .set(vars::PRES, i + 1, i, 0, leaves[0].idx(), f64::NAN);
        let cfg = GuardianConfig::default();
        let serial = validate_domain(&mut d, &cfg, 1).unwrap();
        for nranks in [2, 4, 7] {
            assert_eq!(validate_domain(&mut d, &cfg, nranks).unwrap(), serial);
        }
        assert!(serial.contains("pres"), "first Morton leaf wins: {serial}");
    }

    #[test]
    fn step_error_display_mentions_checkpoint_path() {
        let e = StepError::Unphysical {
            step: 12,
            attempts: 3,
            detail: "block 0: dens = -1e0 at (4, 4, 0) <= floor 0e0".into(),
            emergency_checkpoint: Some(PathBuf::from("/tmp/em_000012.ckpt")),
        };
        let s = e.to_string();
        assert!(s.contains("step 12") && s.contains("em_000012.ckpt"), "{s}");
        let e = StepError::BadDt {
            step: 0,
            dt: f64::NAN,
            attempts: 1,
            emergency_checkpoint: None,
        };
        assert!(e.to_string().contains("unusable time step"), "{}", e);
    }

    #[test]
    fn config_serde_defaults_apply_to_old_params() {
        // A pre-guardian JSON blob (no `guardian` key) must deserialize.
        let g: GuardianConfig = serde_json::from_str(
            r#"{"enabled": false, "max_retries": 7, "degrade_engine": false,
                "dens_min": 0.0, "pres_min": 0.0, "ener_min": 0.0}"#,
        )
        .unwrap();
        assert!(!g.enabled);
        assert_eq!(g.max_retries, 7);
        let d = GuardianConfig::default();
        assert!(d.enabled);
        assert_eq!(d.max_retries, 2);
    }
}

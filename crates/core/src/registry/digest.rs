//! CRC-backed state digests and the golden-result corpus format.
//!
//! A [`StateDigest`] folds a run's step counter, time bits, and every
//! interior zone of every variable (leaves in Morton order) into one
//! CRC-32 — the same walk the scheduler-parity battery compares
//! element-wise, compressed to a committable fingerprint. Golden records
//! live in `golden/<scenario>.ron` in the registry's own RON-lite format,
//! so the corpus stays dependency-free and diff-friendly.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::crc32::Crc32;
use crate::sim::Simulation;

use super::parse::{self, Value};
use super::spec::SpecError;

/// A CRC-32 fingerprint of a simulation's bit-exact state, plus the
/// context needed to diagnose a mismatch (which field drifted: the mesh
/// population, the clock, or the zone data).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateDigest {
    /// CRC-32 over `step · time_bits · interior zone bits` (LE u64s).
    pub crc: u32,
    pub step: u64,
    pub time_bits: u64,
    /// Leaf-block count at digest time.
    pub leaves: u64,
    /// Interior cells digested (leaves × nvar × interior³).
    pub cells: u64,
}

impl StateDigest {
    /// Digest the current state of a simulation.
    pub fn of(sim: &Simulation) -> StateDigest {
        let mut crc = Crc32::new();
        crc.update(&sim.step.to_le_bytes());
        crc.update(&sim.time.to_bits().to_le_bytes());
        let mut leaves = 0u64;
        let mut cells = 0u64;
        for id in sim.domain.tree.leaves() {
            leaves += 1;
            for v in 0..sim.domain.unk.nvar() {
                for k in sim.domain.unk.interior_k() {
                    for j in sim.domain.unk.interior() {
                        for i in sim.domain.unk.interior() {
                            let bits = sim.domain.unk.get(v, i, j, k, id.idx()).to_bits();
                            crc.update(&bits.to_le_bytes());
                            cells += 1;
                        }
                    }
                }
            }
        }
        StateDigest {
            crc: crc.finish(),
            step: sim.step,
            time_bits: sim.time.to_bits(),
            leaves,
            cells,
        }
    }
}

impl fmt::Display for StateDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crc32:{:08x} (step {}, t={:e}, {} leaves, {} cells)",
            self.crc,
            self.step,
            f64::from_bits(self.time_bits),
            self.leaves,
            self.cells
        )
    }
}

/// One committed golden record: a scenario's digest after its smoke-scale
/// run, identical across both step schedulers, every SIMD backend and
/// every rank count (the repo's determinism invariants).
#[derive(Clone, Debug, PartialEq)]
pub struct GoldenRecord {
    pub scenario: String,
    /// Smoke steps the digest was taken after.
    pub steps: u64,
    pub digest: StateDigest,
}

impl GoldenRecord {
    /// Serialize to the committed `golden/<name>.ron` text.
    pub fn to_ron(&self) -> String {
        let v = Value::tagged(
            "Golden",
            vec![
                ("scenario".into(), Value::Str(self.scenario.clone())),
                ("steps".into(), Value::Num(self.steps as f64)),
                (
                    "crc".into(),
                    Value::Str(format!("crc32:{:08x}", self.digest.crc)),
                ),
                ("step".into(), Value::Num(self.digest.step as f64)),
                (
                    // f64 bits as hex: exact regardless of the text float
                    // round-trip rules.
                    "time_bits".into(),
                    Value::Str(format!("{:016x}", self.digest.time_bits)),
                ),
                ("leaves".into(), Value::Num(self.digest.leaves as f64)),
                ("cells".into(), Value::Num(self.digest.cells as f64)),
            ],
        );
        let mut text = v.to_ron(0);
        text.push('\n');
        text
    }

    /// Parse a committed golden record.
    pub fn from_source(source: &str) -> Result<GoldenRecord, SpecError> {
        let v = parse::parse(source)?;
        let Value::Struct { tag, fields } = v else {
            return Err(SpecError::Type {
                at: "golden".into(),
                expected: "Golden(...)",
                found: v.kind(),
            });
        };
        if tag.as_deref() != Some("Golden") {
            return Err(SpecError::Type {
                at: "golden".into(),
                expected: "a Golden(...) record",
                found: "struct",
            });
        }
        let mut scenario = None;
        let mut steps = None;
        let mut crc = None;
        let mut step = None;
        let mut time_bits = None;
        let mut leaves = None;
        let mut cells = None;
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("scenario", Value::Str(s)) => scenario = Some(s),
                ("steps", Value::Num(x)) => steps = Some(x as u64),
                ("crc", Value::Str(s)) => {
                    let hex = s.strip_prefix("crc32:").ok_or_else(|| SpecError::Range {
                        at: "golden.crc".into(),
                        detail: format!("expected a crc32: prefix in `{s}`"),
                    })?;
                    crc = Some(u32::from_str_radix(hex, 16).map_err(|_| SpecError::Range {
                        at: "golden.crc".into(),
                        detail: format!("bad hex `{hex}`"),
                    })?);
                }
                ("step", Value::Num(x)) => step = Some(x as u64),
                ("time_bits", Value::Str(s)) => {
                    time_bits =
                        Some(u64::from_str_radix(&s, 16).map_err(|_| SpecError::Range {
                            at: "golden.time_bits".into(),
                            detail: format!("bad hex `{s}`"),
                        })?);
                }
                ("leaves", Value::Num(x)) => leaves = Some(x as u64),
                ("cells", Value::Num(x)) => cells = Some(x as u64),
                (other, _) => {
                    return Err(SpecError::UnknownKey {
                        at: "golden".into(),
                        key: other.into(),
                    })
                }
            }
        }
        let missing = |key: &str| SpecError::Missing {
            at: "golden".into(),
            key: key.into(),
        };
        Ok(GoldenRecord {
            scenario: scenario.ok_or_else(|| missing("scenario"))?,
            steps: steps.ok_or_else(|| missing("steps"))?,
            digest: StateDigest {
                crc: crc.ok_or_else(|| missing("crc"))?,
                step: step.ok_or_else(|| missing("step"))?,
                time_bits: time_bits.ok_or_else(|| missing("time_bits"))?,
                leaves: leaves.ok_or_else(|| missing("leaves"))?,
                cells: cells.ok_or_else(|| missing("cells"))?,
            },
        })
    }
}

/// Path of a scenario's golden record inside a corpus directory.
pub fn golden_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(format!("{scenario}.ron"))
}

/// Load a scenario's committed golden record from `dir`.
pub fn load_golden(dir: &Path, scenario: &str) -> Result<GoldenRecord, String> {
    let path = golden_path(dir, scenario);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    GoldenRecord::from_source(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Write a scenario's golden record into `dir` (the `--bless` path).
pub fn store_golden(dir: &Path, record: &GoldenRecord) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let path = golden_path(dir, &record.scenario);
    std::fs::write(&path, record.to_ron()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_record_round_trips() {
        let rec = GoldenRecord {
            scenario: "sedov".into(),
            steps: 3,
            digest: StateDigest {
                crc: 0xDEAD_BEEF,
                step: 3,
                time_bits: 0x3F50_624D_D2F1_A9FCu64,
                leaves: 57,
                cells: 40_128,
            },
        };
        let text = rec.to_ron();
        let back = GoldenRecord::from_source(&text).unwrap();
        assert_eq!(rec, back, "\n{text}");
    }

    #[test]
    fn golden_rejects_unknown_keys() {
        let text = r#"Golden(scenario: "x", steps: 1, crc: "crc32:00000000",
            step: 1, time_bits: "0000000000000000", leaves: 1, cells: 1, bogus: 2)"#;
        assert!(matches!(
            GoldenRecord::from_source(text),
            Err(SpecError::UnknownKey { .. })
        ));
    }
}

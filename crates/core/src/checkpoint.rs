//! Crash-consistent checkpoint / restart.
//!
//! FLASH writes HDF5 checkpoint files holding the block tree and every
//! leaf's solution data; a run can restart bit-exactly. This module does
//! the same with a self-describing container (v2):
//!
//! ```text
//! u64 LE   header length
//! bytes    header JSON (params, tree topology, time/step, per-slab CRCs)
//! u32 LE   CRC-32 of the header JSON bytes
//! bytes    leaf slabs, f64 LE, one per leaf in header order
//! ```
//!
//! Writes are atomic: the container is written to a per-write sibling
//! `<path>.<pid>.<n>.tmp`, fsynced, and renamed over `path` — a crash
//! mid-write leaves the previous checkpoint untouched and at worst an
//! ignorable `.tmp` orphan, and concurrent writers never share a temp
//! file. Reads verify the header CRC and every slab CRC and fail with *typed* errors
//! (truncated / corrupt / wrong mesh), never panics, so a restart driver
//! can walk a [`CheckpointSeries`] newest-first to the last good file.
//!
//! Neither direction stages the payload: the writer checksums the live
//! leaf slabs where they sit in `unk` and streams header + slab bytes
//! straight to the file; the reader `read_exact`s each slab into its
//! destination slab of a fresh *sparse* pool (`unk` backs pages on first
//! write, so only the leaves it loads become resident) and verifies the
//! CRC there. The `Domain` under construction is local to
//! [`read_checkpoint`] until every slab has verified, so a corrupt file
//! still never hands a caller bad data.
//! The I/O path honors the deterministic fault plan from
//! [`rflash_hugepages::faults`] (`ckpt-write`, `ckpt-rename` sites), which
//! is how the crash-mid-checkpoint tests stay reproducible.

use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rflash_hugepages::faults::{self, FaultSite, IoFault};
use rflash_hugepages::{fill_from_le, with_le_bytes};
use rflash_mesh::{BlockId, Domain, MortonKey};
use serde::{Deserialize, Serialize};

use crate::crc32::crc32;
use crate::eos_choice::{Composition, EosChoice};
use crate::params::RuntimeParams;

/// Format magic/version written by this module.
pub const CHECKPOINT_FORMAT: &str = "rflash-checkpoint-v2";

/// JSON header of a checkpoint file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CheckpointHeader {
    /// Format magic/version.
    pub format: String,
    pub params: RuntimeParams,
    pub time: f64,
    pub step: u64,
    pub energy_released: f64,
    /// Leaf keys in the order their slabs follow the header.
    pub leaves: Vec<MortonKey>,
    /// Doubles per block slab (consistency check on restore).
    pub per_block: usize,
    /// CRC-32 of each leaf slab's bytes, in `leaves` order.
    #[serde(default)]
    pub slab_crcs: Vec<u32>,
}

/// Errors from checkpoint I/O — typed so recovery can distinguish "skip
/// this file and try the previous one" from "the run is misconfigured".
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (including injected write/rename faults).
    Io(std::io::Error),
    /// Header JSON malformed or internally inconsistent.
    Format(String),
    /// The file ends before `what` could be read — a torn write.
    Truncated { what: String },
    /// The magic string is not [`CHECKPOINT_FORMAT`].
    UnsupportedFormat { found: String },
    /// Stored header CRC does not match the bytes on disk.
    HeaderCrc { stored: u32, computed: u32 },
    /// A slab's stored CRC does not match its bytes on disk.
    SlabCrc {
        index: usize,
        stored: u32,
        computed: u32,
    },
    /// The file's slab geometry does not match the mesh it describes.
    SlabSizeMismatch { file: usize, mesh: usize },
    /// The header declares more payload than the file holds — a torn
    /// write, caught *before* any slab allocation or mesh rebuild trusts
    /// the declared sizes.
    PayloadBeyondEof { declared: u64, actual: u64 },
    /// A series scan found no restorable checkpoint.
    NoUsableCheckpoint { scanned: usize },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Format(m) => write!(f, "checkpoint format: {m}"),
            CheckpointError::Truncated { what } => {
                write!(f, "checkpoint truncated while reading {what}")
            }
            CheckpointError::UnsupportedFormat { found } => write!(
                f,
                "unsupported checkpoint format {found:?} (expected {CHECKPOINT_FORMAT:?})"
            ),
            CheckpointError::HeaderCrc { stored, computed } => write!(
                f,
                "checkpoint header CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CheckpointError::SlabCrc {
                index,
                stored,
                computed,
            } => write!(
                f,
                "checkpoint slab {index} CRC mismatch: stored {stored:#010x}, \
                 computed {computed:#010x}"
            ),
            CheckpointError::SlabSizeMismatch { file, mesh } => write!(
                f,
                "slab size mismatch: file says {file} doubles per block, mesh has {mesh}"
            ),
            CheckpointError::PayloadBeyondEof { declared, actual } => write!(
                f,
                "header declares {declared} bytes of payload but the file holds {actual}"
            ),
            CheckpointError::NoUsableCheckpoint { scanned } => {
                write!(f, "no usable checkpoint among {scanned} candidate file(s)")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// `Write` adapter that honors an injected `ckpt-write` fault: an errno
/// fault fails the first write, a short-write fault lets exactly `budget`
/// bytes through and then fails — simulating a crash / full disk mid-file.
struct FaultWriter<W: Write> {
    inner: W,
    /// `None`: pass-through. `Some(n)`: n bytes remain before injected EIO.
    budget: Option<u64>,
}

impl<W: Write> FaultWriter<W> {
    fn new(inner: W) -> Self {
        let budget = match faults::check_io(FaultSite::CkptWrite) {
            None => None,
            Some(IoFault::Errno(_)) => Some(0),
            Some(IoFault::ShortWrite(n)) => Some(n as u64),
        };
        FaultWriter { inner, budget }
    }
}

impl<W: Write> Write for FaultWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.budget {
            None => self.inner.write(buf),
            Some(0) => Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "injected checkpoint write fault",
            )),
            Some(n) => {
                let take = (buf.len() as u64).min(n) as usize;
                let written = self.inner.write(&buf[..take])?;
                self.budget = Some(n - written as u64);
                Ok(written)
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The container's framed header — `u64` length, header JSON, `u32` CRC —
/// for `domain`'s live leaves (returned alongside, in slab order). The one
/// CRC pass of a write happens here, over each leaf slab where it sits in
/// `unk`.
fn encode_header(
    domain: &Domain,
    params: &RuntimeParams,
    time: f64,
    step: u64,
    energy_released: f64,
) -> Result<(Vec<u8>, Vec<BlockId>), CheckpointError> {
    let leaves = domain.tree.leaves();
    let header = CheckpointHeader {
        format: CHECKPOINT_FORMAT.into(),
        params: *params,
        time,
        step,
        energy_released,
        leaves: leaves.iter().map(|id| domain.tree.block(*id).key).collect(),
        per_block: domain.unk.per_block(),
        slab_crcs: leaves
            .iter()
            .map(|id| with_le_bytes(domain.unk.block_slab(id.idx()), crc32))
            .collect(),
    };
    let header_json =
        serde_json::to_string(&header).map_err(|e| CheckpointError::Format(e.to_string()))?;
    let mut framed = Vec::with_capacity(8 + header_json.len() + 4);
    framed.extend_from_slice(&(header_json.len() as u64).to_le_bytes());
    framed.extend_from_slice(header_json.as_bytes());
    framed.extend_from_slice(&crc32(header_json.as_bytes()).to_le_bytes());
    Ok((framed, leaves))
}

/// A sibling temp path for one atomic write: `<path>.<pid>.<n>.tmp`, with
/// `n` from a process-wide counter. Two writers of the same `path` — other
/// threads or other processes — therefore never share a temp file, so one
/// cannot rename the other's half-written container into place (or away).
fn tmp_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".{}.{n}.tmp", std::process::id()));
    PathBuf::from(os)
}

/// Write a checkpoint of the simulation state, atomically.
///
/// The container goes to a per-write sibling `<path>.<pid>.<n>.tmp`, is
/// fsynced, and renamed over `path`; an existing checkpoint at `path` is
/// replaced all-or-nothing, and concurrent writers of one `path` each
/// publish a whole file (the last rename wins). On failure the temp file
/// is deliberately left behind (exactly what a crash would leave) — series
/// recovery ignores `.tmp` files.
pub fn write_checkpoint(
    path: &Path,
    domain: &Domain,
    params: &RuntimeParams,
    time: f64,
    step: u64,
    energy_released: f64,
) -> Result<(), CheckpointError> {
    let (framed_header, leaves) = encode_header(domain, params, time, step, energy_released)?;
    let tmp = tmp_path(path);
    let file = std::fs::File::create(&tmp)?;
    let mut w = FaultWriter::new(file);
    w.write_all(&framed_header)?;
    for id in &leaves {
        with_le_bytes(domain.unk.block_slab(id.idx()), |bytes| w.write_all(bytes))?;
    }
    w.flush()?;
    // Data must be durable before the rename publishes it.
    w.inner.sync_all()?;
    if let Some(fault) = faults::check_io(FaultSite::CkptRename) {
        return Err(CheckpointError::Io(fault.into_io_error()));
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable (best-effort: not all filesystems
    // support fsync on a directory handle).
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// State restored from a checkpoint.
pub struct RestoredState {
    pub domain: Domain,
    pub params: RuntimeParams,
    pub time: f64,
    pub step: u64,
    pub energy_released: f64,
}

impl RestoredState {
    /// Reassemble a [`crate::Simulation`] at the checkpointed time/step.
    /// This restores mesh and state only: refinement variables, gravity
    /// and flame stay at [`crate::Simulation::assemble`]'s defaults. To
    /// continue a scenario's run, use [`crate::SetupSpec::resume`].
    pub fn into_simulation(self, eos: EosChoice, comp: Composition) -> crate::Simulation {
        let mut sim = crate::Simulation::assemble(self.domain, eos, comp, self.params);
        sim.time = self.time;
        sim.step = self.step;
        sim.energy_released = self.energy_released;
        sim
    }
}

/// `read_exact` with truncation mapped to a typed error instead of a bare
/// `UnexpectedEof`.
fn read_exact_or_truncated(
    r: &mut impl Read,
    buf: &mut [u8],
    what: impl FnOnce() -> String,
) -> Result<(), CheckpointError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated { what: what() }
        } else {
            CheckpointError::Io(e)
        }
    })
}

/// Slab `index`'s on-disk bytes against the CRC its header stored.
fn check_slab_crc(index: usize, stored: u32, bytes: &[u8]) -> Result<(), CheckpointError> {
    let computed = crc32(bytes);
    if stored == computed {
        Ok(())
    } else {
        Err(CheckpointError::SlabCrc {
            index,
            stored,
            computed,
        })
    }
}

/// Read + validate the container header: length bound, CRC, format magic,
/// internal consistency, a slab order this build reads (not the retired
/// SoA `unk` layout), and — *before* anything downstream trusts the
/// declared sizes — that the payload the header promises actually fits in
/// `file_size` bytes. Shared by [`read_checkpoint`] and
/// [`verify_checkpoint`].
fn read_validated_header(
    r: &mut impl Read,
    file_size: u64,
) -> Result<CheckpointHeader, CheckpointError> {
    let mut len_bytes = [0u8; 8];
    read_exact_or_truncated(r, &mut len_bytes, || "header length".into())?;
    let header_len = u64::from_le_bytes(len_bytes);
    if header_len > 1 << 30 {
        return Err(CheckpointError::Format("unreasonable header length".into()));
    }
    let mut header_json = vec![0u8; header_len as usize];
    read_exact_or_truncated(r, &mut header_json, || "header".into())?;
    let mut crc_bytes = [0u8; 4];
    read_exact_or_truncated(r, &mut crc_bytes, || "header CRC".into())?;
    let stored = u32::from_le_bytes(crc_bytes);
    let computed = crc32(&header_json);
    if stored != computed {
        return Err(CheckpointError::HeaderCrc { stored, computed });
    }
    let value: serde_json::Value =
        serde_json::from_slice(&header_json).map_err(|e| CheckpointError::Format(e.to_string()))?;
    // Older writers recorded `unk`'s index order; the SoA order is gone,
    // and reading its slabs as FLASH order would silently scramble them.
    if value["params"]["mesh"]["layout"].as_str() == Some("VarLast") {
        return Err(CheckpointError::Format(
            "slabs stored in the retired SoA `unk` layout (VarLast)".into(),
        ));
    }
    let header =
        CheckpointHeader::from_value(&value).map_err(|e| CheckpointError::Format(e.to_string()))?;
    if header.format != CHECKPOINT_FORMAT {
        return Err(CheckpointError::UnsupportedFormat {
            found: header.format,
        });
    }
    if header.slab_crcs.len() != header.leaves.len() {
        return Err(CheckpointError::Format(format!(
            "{} slab CRCs for {} leaves",
            header.slab_crcs.len(),
            header.leaves.len()
        )));
    }
    // Torn-write guard: a header that survived its CRC can still promise
    // slabs a truncated file does not hold. Checked multiplication — a
    // doctored header must not be able to overflow us into accepting.
    let slab_bytes = (header.leaves.len() as u64)
        .checked_mul(header.per_block as u64)
        .and_then(|n| n.checked_mul(8))
        .ok_or_else(|| CheckpointError::Format("slab payload size overflows".into()))?;
    let declared = 8 + header_len + 4 + slab_bytes;
    if declared > file_size {
        return Err(CheckpointError::PayloadBeyondEof {
            declared,
            actual: file_size,
        });
    }
    Ok(header)
}

/// Light validation of a checkpoint file without rebuilding a mesh: header
/// CRC + format + declared-payload-vs-file-size bound, then a streaming
/// pass over every slab verifying its CRC. This is what the fleet
/// supervisor uses to pick a rollback target — it must not pay for (or
/// trust) a full [`Domain`] build just to learn whether a file is sound.
pub fn verify_checkpoint(path: &Path) -> Result<CheckpointHeader, CheckpointError> {
    let file = std::fs::File::open(path)?;
    let file_size = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let header = read_validated_header(&mut r, file_size)?;
    let mut slab = vec![0u8; header.per_block * 8];
    for (index, key) in header.leaves.iter().enumerate() {
        read_exact_or_truncated(&mut r, &mut slab, || format!("slab {index} ({key:?})"))?;
        check_slab_crc(index, header.slab_crcs[index], &slab)?;
    }
    Ok(header)
}

/// Restore a checkpoint: verify the container CRCs, rebuild the tree
/// topology (re-refining from the roots to match the stored leaf set), and
/// load every leaf slab. Parent slabs are left as the fresh pool's zeros —
/// their interiors are restricted from the leaves before anything reads
/// them.
pub fn read_checkpoint(path: &Path) -> Result<RestoredState, CheckpointError> {
    let file = std::fs::File::open(path)?;
    let file_size = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let header = read_validated_header(&mut r, file_size)?;

    let mut domain = Domain::new(header.params.mesh, header.params.policy);
    if domain.unk.per_block() != header.per_block {
        return Err(CheckpointError::SlabSizeMismatch {
            file: header.per_block,
            mesh: domain.unk.per_block(),
        });
    }
    rebuild_topology(&mut domain, &header.leaves)?;

    // Map keys to the rebuilt block ids and read each slab straight into
    // its destination, verifying the CRC in place. `domain` is still local:
    // a slab that fails takes the whole half-loaded mesh down with it.
    for (index, key) in header.leaves.iter().enumerate() {
        let id = domain
            .tree
            .find(*key)
            .ok_or_else(|| CheckpointError::Format(format!("missing block {key:?}")))?;
        fill_from_le(domain.unk.block_slab_mut(id.idx()), |bytes| {
            read_exact_or_truncated(&mut r, bytes, || format!("slab {index} ({key:?})"))?;
            check_slab_crc(index, header.slab_crcs[index], bytes)
        })?;
    }

    Ok(RestoredState {
        domain,
        params: header.params,
        time: header.time,
        step: header.step,
        energy_released: header.energy_released,
    })
}

/// Refine the fresh root tree until exactly the stored leaf set exists:
/// every stored leaf's ancestors get refined, deepest-first via repeated
/// passes. Topology only — no slab is prolonged into (every leaf is about
/// to be overwritten from the file), so parents stay untouched and
/// unbacked.
fn rebuild_topology(domain: &mut Domain, leaves: &[MortonKey]) -> Result<(), CheckpointError> {
    let max_level = leaves.iter().map(|k| k.level).max().unwrap_or(0);
    for _pass in 0..=max_level {
        let mut refined_any = false;
        for key in leaves {
            // Walk up to the deepest existing ancestor; refine it if it is
            // a leaf shallower than the target.
            let mut anc = *key;
            let target_level = key.level;
            let existing: Option<(BlockId, MortonKey)> = loop {
                if let Some(id) = domain.tree.find(anc) {
                    break Some((id, anc));
                }
                match anc.parent() {
                    Some(p) => anc = p,
                    None => break None,
                }
            };
            let Some((id, anc_key)) = existing else {
                return Err(CheckpointError::Format(format!(
                    "leaf {key:?} has no ancestor in the root grid"
                )));
            };
            if anc_key.level < target_level && domain.tree.block(id).is_leaf() {
                domain.tree.refine_topology(id);
                refined_any = true;
            }
        }
        if !refined_any {
            break;
        }
    }
    // Verify exact topology.
    for key in leaves {
        match domain.tree.find(*key) {
            Some(id) if domain.tree.block(id).is_leaf() => {}
            _ => {
                return Err(CheckpointError::Format(format!(
                    "could not rebuild leaf {key:?}"
                )))
            }
        }
    }
    Ok(())
}

/// A numbered family of checkpoints in one directory
/// (`<prefix>_NNNNNN.ckpt`), with newest-first recovery that skips
/// truncated or corrupt files, and an optional [`keep_last`] retention
/// policy so long drills don't accumulate unbounded files.
///
/// [`keep_last`]: CheckpointSeries::keep_last
#[derive(Clone, Debug)]
pub struct CheckpointSeries {
    dir: PathBuf,
    prefix: String,
    /// `Some(n)`: after each successful write, unlink all but the newest
    /// `n` checkpoints. `None`: keep everything.
    retention: Option<usize>,
    /// Total files pruned, shared across clones so drivers holding a copy
    /// (the guardian, the fleet supervisor) see one running count.
    pruned: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl CheckpointSeries {
    /// A series rooted at `dir` with the given filename prefix.
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>) -> Self {
        CheckpointSeries {
            dir: dir.into(),
            prefix: prefix.into(),
            retention: None,
            pruned: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// Keep only the newest `n` checkpoints, pruning older ones after each
    /// successful write. `n` is clamped to at least 1 — a retention policy
    /// must never delete the only recovery point.
    pub fn keep_last(mut self, n: usize) -> Self {
        self.retention = Some(n.max(1));
        self
    }

    /// Files removed by the retention policy since this series (or any
    /// clone of it) was created.
    pub fn pruned_count(&self) -> u64 {
        self.pruned.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The path a checkpoint at `step` lives at.
    pub fn path_for(&self, step: u64) -> PathBuf {
        self.dir.join(format!("{}_{:06}.ckpt", self.prefix, step))
    }

    /// Write `sim`'s state as this series' checkpoint for its current step,
    /// then apply the retention policy (if any).
    pub fn write(&self, sim: &crate::Simulation) -> Result<PathBuf, CheckpointError> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(sim.step);
        sim.checkpoint(&path)?;
        self.prune()?;
        Ok(path)
    }

    /// Unlink everything but the newest `retention` files. The unlinks are
    /// made durable with a directory fsync — same contract as the rename
    /// in [`write_checkpoint`]: after a crash, the set of files present is
    /// one this code actually produced, not an arbitrary interleaving.
    fn prune(&self) -> Result<(), CheckpointError> {
        let Some(keep) = self.retention else {
            return Ok(());
        };
        let found = self.scan()?;
        if found.len() <= keep {
            return Ok(());
        }
        let excess = found.len() - keep;
        let mut removed = 0u64;
        for (_, path) in &found[..excess] {
            match std::fs::remove_file(path) {
                Ok(()) => removed += 1,
                // Already gone (a concurrent clone pruned it): not a loss.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        if removed > 0 {
            // Best-effort directory fsync, matching write_checkpoint.
            if let Ok(d) = std::fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
            self.pruned
                .fetch_add(removed, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(())
    }

    /// Every checkpoint file in the series, sorted by step ascending.
    /// `.tmp` orphans and unrelated files are ignored.
    pub fn scan(&self) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name
                .strip_prefix(self.prefix.as_str())
                .and_then(|r| r.strip_prefix('_'))
            else {
                continue;
            };
            let Some(digits) = rest.strip_suffix(".ckpt") else {
                continue;
            };
            let Ok(step) = digits.parse::<u64>() else {
                continue;
            };
            out.push((step, entry.path()));
        }
        out.sort_by_key(|(step, _)| *step);
        Ok(out)
    }

    /// Walk the series newest-first and restore the most recent checkpoint
    /// that verifies. Files that fail (truncated, bad CRC, …) are returned
    /// alongside the restored state so the caller can report — not hide —
    /// what was skipped.
    #[allow(clippy::type_complexity)]
    pub fn recover_latest(
        &self,
    ) -> Result<(RestoredState, Vec<(PathBuf, CheckpointError)>), CheckpointError> {
        let mut candidates = self.scan()?;
        candidates.reverse();
        let scanned = candidates.len();
        let mut skipped = Vec::new();
        for (_, path) in candidates {
            match read_checkpoint(&path) {
                Ok(state) => return Ok((state, skipped)),
                Err(err) => skipped.push((path, err)),
            }
        }
        Err(CheckpointError::NoUsableCheckpoint { scanned })
    }
}

/// Convenience wrappers on [`crate::Simulation`].
impl crate::Simulation {
    /// Write this simulation's state to `path` (atomically; see
    /// [`write_checkpoint`]).
    pub fn checkpoint(&self, path: &Path) -> Result<(), CheckpointError> {
        write_checkpoint(
            path,
            &self.domain,
            &self.params,
            self.time,
            self.step,
            self.energy_released,
        )
    }

    /// Evolve `nsteps`, writing a series checkpoint every
    /// `params.checkpoint_every` steps (0 disables). Returns the paths
    /// written. A failed write aborts the run loop with the error — a
    /// driver that cannot checkpoint must not silently keep burning
    /// compute it cannot save. Steps run under the guardian with `series`
    /// as the emergency-checkpoint target: a guardian abort leaves a
    /// checkpoint of the last good state interleaved with the scheduled
    /// ones, and [`CheckpointSeries::recover_latest`] picks it first.
    pub fn evolve_checkpointed(
        &mut self,
        nsteps: u64,
        series: &CheckpointSeries,
    ) -> Result<Vec<PathBuf>, crate::guardian::StepError> {
        let every = self.params.checkpoint_every;
        let mut written = Vec::new();
        for _ in 0..nsteps {
            self.guarded_step(Some(series))?;
            if every > 0 && self.step.is_multiple_of(every) {
                written.push(series.write(self)?);
            }
        }
        Ok(written)
    }

    /// Resume `spec`'s run from the newest good checkpoint of `series`
    /// (see [`crate::SetupSpec::resume`]). Skipped (corrupt/truncated)
    /// files come back too.
    #[allow(clippy::type_complexity)]
    pub fn recover(
        series: &CheckpointSeries,
        spec: &crate::SetupSpec,
    ) -> Result<(Self, Vec<(PathBuf, CheckpointError)>), CheckpointError> {
        let (state, skipped) = series.recover_latest()?;
        let sim = spec
            .resume(state)
            .map_err(|e| CheckpointError::Format(format!("resume `{}`: {e}", spec.name)))?;
        Ok((sim, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos_choice::{Composition, EosChoice};
    use crate::sim::Simulation;
    use rflash_eos::GammaLaw;
    use rflash_hugepages::Policy;
    use rflash_mesh::tree::MeshConfig;
    use rflash_mesh::vars;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rflash-ckpt-{}-{name}", std::process::id()))
    }

    /// Temp files of `path` left in its directory (`<name>.<pid>.<n>.tmp`).
    fn tmp_orphans(path: &Path) -> Vec<std::path::PathBuf> {
        let stem = format!("{}.", path.file_name().unwrap().to_str().unwrap());
        let mut found: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_str().unwrap();
                name.starts_with(&stem) && name.ends_with(".tmp")
            })
            .collect();
        found.sort();
        found
    }

    /// The whole-container in-memory encoder the streamed writer replaced
    /// (two staging copies, one `to_le_bytes` per value), kept as the
    /// byte-for-byte oracle of the on-disk format.
    fn encode_container(sim: &Simulation) -> Vec<u8> {
        let domain = &sim.domain;
        let leaves = domain.tree.leaves();
        let per_block = domain.unk.per_block();
        let mut body = Vec::with_capacity(leaves.len() * per_block * 8);
        let mut slab_crcs = Vec::with_capacity(leaves.len());
        for id in &leaves {
            let start = body.len();
            for &v in domain.unk.block_slab(id.idx()) {
                body.extend_from_slice(&v.to_le_bytes());
            }
            slab_crcs.push(crc32(&body[start..]));
        }
        let header = CheckpointHeader {
            format: CHECKPOINT_FORMAT.into(),
            params: sim.params,
            time: sim.time,
            step: sim.step,
            energy_released: sim.energy_released,
            leaves: leaves.iter().map(|id| domain.tree.block(*id).key).collect(),
            per_block,
            slab_crcs,
        };
        let header_json = serde_json::to_string(&header).unwrap();
        let mut out = Vec::with_capacity(8 + header_json.len() + 4 + body.len());
        out.extend_from_slice(&(header_json.len() as u64).to_le_bytes());
        out.extend_from_slice(header_json.as_bytes());
        out.extend_from_slice(&crc32(header_json.as_bytes()).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// A refined Sedov blast in `ndim` dimensions, `steps` steps in (the
    /// 3-d one is the paper's Table II problem at test size).
    fn evolved_sedov(ndim: usize, steps: u64) -> Simulation {
        let mut spec = crate::registry::load("sedov").unwrap();
        spec.mesh.ndim = ndim;
        spec.mesh.max_refine = 2;
        spec.mesh.max_blocks = 512;
        let params = crate::registry::smoke_params(
            &spec,
            1,
            rflash_hydro::SweepEngine::default(),
            crate::StepScheduler::default(),
        );
        let mut sim = spec.build(params).unwrap();
        sim.evolve(steps);
        assert!(
            sim.domain.tree.active_blocks() > sim.domain.tree.leaves().len(),
            "the mesh must be refined for this test to mean anything"
        );
        sim
    }

    fn toy_sim() -> Simulation {
        let cfg = MeshConfig::test_2d();
        let params = crate::RuntimeParams {
            policy: Policy::None,
            use_hw: false,
            ..crate::RuntimeParams::with_mesh(cfg)
        };
        let mut domain = Domain::new(cfg, Policy::None);
        // Irregular topology + distinctive data.
        let root = domain.tree.leaves()[0];
        let children = domain.tree.refine_block(root, &mut domain.unk);
        domain.tree.refine_block(children[2], &mut domain.unk);
        for (n, id) in domain.tree.leaves().into_iter().enumerate() {
            for j in domain.unk.interior() {
                for i in domain.unk.interior() {
                    domain.unk.set(
                        vars::DENS,
                        i,
                        j,
                        0,
                        id.idx(),
                        (n * 1000 + i * 10 + j) as f64,
                    );
                }
            }
        }
        let mut sim = Simulation::assemble(
            domain,
            EosChoice::Gamma(GammaLaw::new(1.4)),
            Composition::ideal(),
            params,
        );
        sim.time = 0.125;
        sim.step = 17;
        sim.energy_released = 3.5e40;
        sim
    }

    #[test]
    fn round_trip_preserves_everything() {
        let sim = toy_sim();
        let path = scratch("roundtrip");
        sim.checkpoint(&path).unwrap();
        let restored = read_checkpoint(&path).unwrap();
        assert_eq!(restored.time, 0.125);
        assert_eq!(restored.step, 17);
        assert_eq!(restored.energy_released, 3.5e40);
        // Topology.
        let orig: Vec<MortonKey> = sim
            .domain
            .tree
            .leaves()
            .iter()
            .map(|id| sim.domain.tree.block(*id).key)
            .collect();
        let back: Vec<MortonKey> = restored
            .domain
            .tree
            .leaves()
            .iter()
            .map(|id| restored.domain.tree.block(*id).key)
            .collect();
        assert_eq!(orig, back);
        // Bit-exact data on every leaf.
        for key in &orig {
            let a = sim.domain.tree.find(*key).unwrap();
            let b = restored.domain.tree.find(*key).unwrap();
            assert_eq!(
                sim.domain.unk.block_slab(a.idx()),
                restored.domain.unk.block_slab(b.idx()),
                "slab mismatch at {key:?}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streamed_file_is_byte_identical_to_the_staged_encoder() {
        use rflash_hugepages::{FaultKind, FaultPlan};
        for ndim in [2, 3] {
            let sim = evolved_sedov(ndim, 3);
            let want = encode_container(&sim);
            let path = scratch(&format!("stream-{ndim}d"));
            sim.checkpoint(&path).unwrap();
            assert!(
                std::fs::read(&path).unwrap() == want,
                "{ndim}-d container bytes differ"
            );
            std::fs::remove_file(&path).unwrap();

            // A short-write budget cuts the stream at the same byte offset
            // the single whole-container write did: inside the length
            // prefix, the header JSON, its CRC, mid-slab, on a slab edge.
            let header_end = 8 + u64::from_le_bytes(want[..8].try_into().unwrap()) as usize + 4;
            let slab = sim.domain.unk.per_block() * 8;
            for budget in [
                3,
                200,
                header_end - 2,
                header_end + slab / 2,
                header_end + 2 * slab,
            ] {
                let _g = FaultPlan::new(0)
                    .with(
                        FaultSite::CkptWrite,
                        FaultKind::ShortWrite { bytes: budget },
                    )
                    .activate();
                assert!(
                    sim.checkpoint(&path).is_err(),
                    "budget {budget} must fail the write"
                );
                assert!(!path.exists(), "a torn write must not be published");
                let orphans = tmp_orphans(&path);
                assert_eq!(orphans.len(), 1, "{orphans:?}");
                assert!(
                    std::fs::read(&orphans[0]).unwrap() == want[..budget],
                    "{ndim}-d torn file differs from the first {budget} container bytes"
                );
                std::fs::remove_file(&orphans[0]).unwrap();
            }
        }
    }

    #[test]
    fn restore_of_a_refined_3d_state_touches_only_its_leaves() {
        let sim = evolved_sedov(3, 3);
        let live = crate::registry::StateDigest::of(&sim);
        let (leaves, slab_bytes) = (
            sim.domain.tree.leaves().len() as u64,
            (sim.domain.unk.per_block() * 8) as u64,
        );
        let path = scratch("sparse-restore");
        sim.checkpoint(&path).unwrap();
        let restored = read_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        // Parents are rebuilt as topology only: resident = the leaf slabs
        // read in, not the pool, and not leaves + prolonged-into parents.
        let report = restored.domain.unk.backing_report();
        assert!(report.rss_bytes >= leaves * slab_bytes, "{report}");
        assert!(
            report.rss_bytes <= (leaves + 2) * slab_bytes + (2 << 20),
            "{report} for {leaves} leaves of {slab_bytes} B"
        );
        let back =
            restored.into_simulation(EosChoice::Gamma(GammaLaw::new(1.4)), Composition::ideal());
        assert_eq!(crate::registry::StateDigest::of(&back), live);
    }

    #[test]
    fn restart_continues_a_real_run_identically() {
        // Evolve, checkpoint, evolve more; restore and evolve the same
        // number of steps: states must agree bit-for-bit (deterministic
        // driver, same policy).
        let mut sim = evolved_sedov(2, 5);
        let path = scratch("restart");
        sim.checkpoint(&path).unwrap();
        sim.evolve(5);

        let restored = read_checkpoint(&path).unwrap();
        let mut sim2 =
            restored.into_simulation(EosChoice::Gamma(GammaLaw::new(1.4)), Composition::ideal());
        sim2.evolve(5);

        assert_eq!(sim.step, sim2.step);
        assert!((sim.time - sim2.time).abs() < 1e-15 * sim.time);
        for id in sim.domain.tree.leaves() {
            let key = sim.domain.tree.block(id).key;
            let id2 = sim2.domain.tree.find(key).expect("same topology");
            for j in sim.domain.unk.interior() {
                for i in sim.domain.unk.interior() {
                    let a = sim.domain.unk.get(vars::DENS, i, j, 0, id.idx());
                    let b = sim2.domain.unk.get(vars::DENS, i, j, 0, id2.idx());
                    assert_eq!(a, b, "restart must be bit-exact at ({i},{j}) of {key:?}");
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_header_is_a_typed_error() {
        let path = scratch("corrupt");
        // 16-byte "header" + a matching CRC so the corruption detected is
        // the JSON itself, not the checksum.
        let body = b"not json at all!";
        let mut file = Vec::new();
        file.extend_from_slice(&(body.len() as u64).to_le_bytes());
        file.extend_from_slice(body);
        file.extend_from_slice(&crc32(body).to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        match read_checkpoint(&path) {
            Err(CheckpointError::Format(_)) => {}
            Err(other) => panic!("expected format error, got {other}"),
            Ok(_) => panic!("expected format error, got Ok"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_body_is_a_typed_truncation() {
        let sim = toy_sim();
        let path = scratch("truncated");
        sim.checkpoint(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 100]).unwrap();
        // The up-front declared-payload bound catches this before any slab
        // read — still typed, never a panic.
        match read_checkpoint(&path) {
            Err(CheckpointError::PayloadBeyondEof { declared, actual }) => {
                assert_eq!(declared as usize, full.len());
                assert_eq!(actual as usize, full.len() - 100);
            }
            Err(other) => panic!("expected truncation error, got {other}"),
            Ok(_) => panic!("expected truncation error, got Ok"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_header_is_a_typed_truncation() {
        let sim = toy_sim();
        let path = scratch("truncated-header");
        sim.checkpoint(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut inside the header JSON itself — before the payload bound can
        // even be computed.
        std::fs::write(&path, &full[..20]).unwrap();
        match read_checkpoint(&path) {
            Err(CheckpointError::Truncated { what }) => {
                assert!(what.contains("header"), "unexpected context: {what}")
            }
            Err(other) => panic!("expected truncation error, got {other}"),
            Ok(_) => panic!("expected truncation error, got Ok"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_slab_bit_is_a_crc_error() {
        let sim = toy_sim();
        let path = scratch("bitflip");
        sim.checkpoint(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x40; // inside the last slab
        std::fs::write(&path, &bytes).unwrap();
        match read_checkpoint(&path) {
            Err(CheckpointError::SlabCrc { .. }) => {}
            Err(other) => panic!("expected slab CRC error, got {other}"),
            Ok(_) => panic!("expected slab CRC error, got Ok"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_write_replaces_not_appends() {
        let sim = toy_sim();
        let path = scratch("atomic");
        sim.checkpoint(&path).unwrap();
        let first = std::fs::read(&path).unwrap();
        sim.checkpoint(&path).unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_eq!(first, second, "rewrite must be byte-identical");
        assert_eq!(
            tmp_orphans(&path),
            Vec::<std::path::PathBuf>::new(),
            "successful write must not leave a temp file"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn series_scan_orders_and_filters() {
        let dir = scratch("series-scan");
        let _ = std::fs::remove_dir_all(&dir);
        let series = CheckpointSeries::new(&dir, "chk");
        assert!(series.scan().unwrap().is_empty(), "missing dir scans empty");
        std::fs::create_dir_all(&dir).unwrap();
        for step in [30u64, 10, 20] {
            std::fs::write(series.path_for(step), b"placeholder").unwrap();
        }
        std::fs::write(dir.join("chk_000040.ckpt.tmp"), b"orphan").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"noise").unwrap();
        let steps: Vec<u64> = series.scan().unwrap().iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![10, 20, 30]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_skips_corrupt_newest_and_reports_it() {
        let dir = scratch("series-recover");
        let _ = std::fs::remove_dir_all(&dir);
        let series = CheckpointSeries::new(&dir, "chk");
        let mut sim = toy_sim();
        series.write(&sim).unwrap();
        sim.step = 18;
        sim.time = 0.25;
        let newest = series.write(&sim).unwrap();
        // Corrupt the newest file's tail.
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let (state, skipped) = series.recover_latest().unwrap();
        assert_eq!(state.step, 17, "must fall back to the older good file");
        assert_eq!(skipped.len(), 1);
        assert!(matches!(
            skipped[0].1,
            CheckpointError::SlabCrc { .. } | CheckpointError::HeaderCrc { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn declared_payload_beyond_eof_is_typed_not_panic() {
        // A valid header that promises more slabs than the file holds —
        // the torn-write shape satellite 2 targets. The reader must reject
        // it up front with a typed error, before trusting declared sizes.
        let sim = toy_sim();
        let path = scratch("beyond-eof");
        sim.checkpoint(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let header_len = u64::from_le_bytes(full[..8].try_into().unwrap()) as usize;
        let body_start = 8 + header_len + 4;
        let per_block = sim.domain.unk.per_block() * 8;
        // Cut exactly at a slab boundary: header intact, last slab gone.
        let cut = full.len() - per_block;
        assert!(cut >= body_start);
        std::fs::write(&path, &full[..cut]).unwrap();
        match read_checkpoint(&path) {
            Err(CheckpointError::PayloadBeyondEof { declared, actual }) => {
                assert_eq!(declared as usize, full.len());
                assert_eq!(actual as usize, cut);
            }
            Err(other) => panic!("expected PayloadBeyondEof, got {other}"),
            Ok(_) => panic!("expected PayloadBeyondEof, got Ok"),
        }
        match verify_checkpoint(&path) {
            Err(CheckpointError::PayloadBeyondEof { .. }) => {}
            other => panic!("verify must agree with read, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_checkpoint_validates_without_mesh_build() {
        let sim = toy_sim();
        let path = scratch("verify");
        sim.checkpoint(&path).unwrap();
        let header = verify_checkpoint(&path).unwrap();
        assert_eq!(header.step, 17);
        assert_eq!(header.leaves.len(), sim.domain.tree.leaves().len());
        // Flip a bit inside the last slab: verify must catch it too.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match verify_checkpoint(&path) {
            Err(CheckpointError::SlabCrc { .. }) => {}
            other => panic!("expected SlabCrc, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn retention_prunes_oldest_and_fsyncs_survivors() {
        let dir = scratch("series-retention");
        let _ = std::fs::remove_dir_all(&dir);
        let series = CheckpointSeries::new(&dir, "chk").keep_last(2);
        let mut sim = toy_sim();
        for step in [17u64, 18, 19, 20] {
            sim.step = step;
            series.write(&sim).unwrap();
        }
        let steps: Vec<u64> = series.scan().unwrap().iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![19, 20], "only the newest two survive");
        assert_eq!(series.pruned_count(), 2);
        // Clones share the counter — a driver holding a copy sees the
        // same running total.
        assert_eq!(series.clone().pruned_count(), 2);
        // Recovery still lands on the newest survivor.
        let (state, skipped) = series.recover_latest().unwrap();
        assert_eq!(state.step, 20);
        assert!(skipped.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keep_last_zero_still_keeps_one() {
        let dir = scratch("series-keep-one");
        let _ = std::fs::remove_dir_all(&dir);
        let series = CheckpointSeries::new(&dir, "chk").keep_last(0);
        let sim = toy_sim();
        series.write(&sim).unwrap();
        assert_eq!(series.scan().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_series_is_a_typed_error() {
        let dir = scratch("series-empty");
        let _ = std::fs::remove_dir_all(&dir);
        let series = CheckpointSeries::new(&dir, "chk");
        match series.recover_latest() {
            Err(CheckpointError::NoUsableCheckpoint { scanned: 0 }) => {}
            Err(other) => panic!("expected NoUsableCheckpoint, got {other}"),
            Ok(_) => panic!("expected NoUsableCheckpoint, got Ok"),
        }
    }
}

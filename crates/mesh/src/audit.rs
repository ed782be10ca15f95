//! Dynamic access ledger for task-graph race auditing.
//!
//! The task-graph scheduler (DESIGN.md §13) is bit-identical to the serial
//! step loop *only if* the hand-written `note_read`/`note_write` declarations in
//! the plan builder exactly cover what each task body actually touches —
//! one omitted declaration is a silent, schedule-dependent data race that a
//! parity test can miss on any given interleaving. This module turns that
//! assumption into a machine-checked invariant (DESIGN.md §14): the
//! instrumented accessors ([`crate::unk::UnkCells`], [`crate::flux::FluxCells`])
//! record every (resource, read|write) a task body performs into a thread-local per-task ledger, and
//! [`crate::taskgraph::TaskGraph::execute`] cross-checks the recorded
//! accesses against the declared happens-before relation after every run.
//!
//! The layer is compiled in under `debug_assertions` or the `race-audit`
//! feature and compiles to nothing otherwise ([`COMPILED`] is `false`, every
//! entry point is an empty inline function).

use std::cell::{Cell, RefCell};

/// `true` when the audit layer is compiled in (debug builds, or any build
/// with the `race-audit` feature).
#[cfg(any(debug_assertions, feature = "race-audit"))]
pub const COMPILED: bool = true;
/// `true` when the audit layer is compiled in (debug builds, or any build
/// with the `race-audit` feature).
#[cfg(not(any(debug_assertions, feature = "race-audit")))]
pub const COMPILED: bool = false;

/// Whether accesses are being recorded: exactly when the layer is compiled
/// in.
#[inline]
pub fn enabled() -> bool {
    COMPILED
}

/// Access mode of one recorded or declared access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Read,
    Write,
}

/// One (resource, mode) access, recorded by an instrumented accessor or
/// declared to the graph builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    pub res: u32,
    pub mode: Mode,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static LEDGER: RefCell<Vec<Access>> = const { RefCell::new(Vec::new()) };
}

/// Open this thread's ledger for one task body. Called by the graph
/// executors around each task; accesses recorded outside a task are
/// dropped.
#[inline]
pub fn task_begin() {
    if !enabled() {
        return;
    }
    ACTIVE.with(|a| a.set(true));
    LEDGER.with(|l| l.borrow_mut().clear());
}

/// Close this thread's ledger and return the task's recorded accesses.
#[inline]
pub fn task_end() -> Vec<Access> {
    if !enabled() {
        return Vec::new();
    }
    ACTIVE.with(|a| a.set(false));
    LEDGER.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// Record a shared read of `res` by the current task.
#[inline]
pub fn rec_read(res: usize) {
    record(res, Mode::Read);
}

/// Record an exclusive write of `res` by the current task.
#[inline]
pub fn rec_write(res: usize) {
    record(res, Mode::Write);
}

/// Serializes tests that record accesses, so concurrent test threads do not
/// interfere.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
    M.lock().unwrap_or_else(|e| e.into_inner())
}

#[inline]
fn record(res: usize, mode: Mode) {
    if !enabled() || !ACTIVE.with(|a| a.get()) {
        return;
    }
    let res = res as u32;
    LEDGER.with(|l| {
        let mut ledger = l.borrow_mut();
        // Dedup by linear scan: task bodies touch a handful of resources,
        // so this stays cheaper than hashing. A write subsumes a read.
        for a in ledger.iter_mut() {
            if a.res == res {
                if mode == Mode::Write {
                    a.mode = Mode::Write;
                }
                return;
            }
        }
        ledger.push(Access { res, mode });
    });
}

/// The step graph's resource-id layout, shared between the plan builder
/// (which declares accesses against it) and the instrumented accessors
/// (which record against it). `3·max_blocks` resources: per-block
/// interior, guard band, and flux-register rows.
#[derive(Clone, Copy, Debug)]
pub struct ResourceMap {
    pub max_blocks: usize,
}

impl ResourceMap {
    /// Block `blk`'s interior zones.
    #[inline]
    pub fn interior(&self, blk: usize) -> usize {
        blk
    }

    /// Block `blk`'s guard band.
    #[inline]
    pub fn guards(&self, blk: usize) -> usize {
        self.max_blocks + blk
    }

    /// Block `blk`'s flux-register rows.
    #[inline]
    pub fn fluxrow(&self, blk: usize) -> usize {
        2 * self.max_blocks + blk
    }

    /// Total number of resources.
    #[inline]
    pub fn count(&self) -> usize {
        3 * self.max_blocks
    }

    /// Human-readable name of resource `res`, for audit failure messages.
    pub fn describe(&self, res: usize) -> String {
        let (family, blk) = match res / self.max_blocks {
            0 => ("interior", res),
            1 => ("guards", res - self.max_blocks),
            _ => ("fluxrow", res - 2 * self.max_blocks),
        };
        format!("{family}(block {blk})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_records_dedups_and_upgrades() {
        if !COMPILED {
            return;
        }
        let _g = test_guard();
        task_begin();
        rec_read(3);
        rec_read(3); // duplicate read collapses
        rec_write(7);
        rec_read(7); // read after write is subsumed
        rec_read(5);
        rec_write(5); // write upgrades the earlier read
        let accs = task_end();
        assert_eq!(
            accs,
            vec![
                Access {
                    res: 3,
                    mode: Mode::Read
                },
                Access {
                    res: 7,
                    mode: Mode::Write
                },
                Access {
                    res: 5,
                    mode: Mode::Write
                },
            ]
        );
        // Outside a task nothing records.
        rec_write(9);
        task_begin();
        assert_eq!(task_end(), Vec::new());
    }

    #[test]
    fn resource_map_layout_and_names() {
        let m = ResourceMap { max_blocks: 10 };
        assert_eq!(m.interior(3), 3);
        assert_eq!(m.guards(3), 13);
        assert_eq!(m.fluxrow(3), 23);
        assert_eq!(m.count(), 30);
        assert_eq!(m.describe(3), "interior(block 3)");
        assert_eq!(m.describe(13), "guards(block 3)");
        assert_eq!(m.describe(23), "fluxrow(block 3)");
    }
}

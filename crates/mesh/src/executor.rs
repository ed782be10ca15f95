//! Persistent rank-pool executor.
//!
//! FLASH creates its MPI ranks once at startup and reuses them for every
//! operation of every time step. The previous implementation instead spawned
//! a fresh scoped thread per parallel section — per sweep, per EOS pass, per
//! flame advance — paying thread-creation latency hundreds of times per
//! step. [`RankPool`] reproduces the MPI structure: `nranks` long-lived
//! worker threads created once per simulation, receiving work over per-rank
//! channels and reporting completion on a shared channel. The calling thread
//! blocks until every rank has finished, which is exactly the barrier
//! semantics of a bulk-synchronous MPI code.
//!
//! The pool also keeps the load-imbalance ledger: per-rank busy time (inside
//! dispatched closures) and idle time (waiting at the implicit barrier for
//! slower ranks), surfaced through `rflash-perfmon` in `profile_report`.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A job message for one worker.
enum Job {
    /// Run the shared closure with this worker's rank index. The reference
    /// is only valid until the worker reports completion — see
    /// [`RankPool::run`] for why the `'static` is a lie we can afford.
    Run(&'static (dyn Fn(usize) + Sync)),
    Shutdown,
}

/// Completion report from one rank: its index plus `Ok` or the payload of a
/// panic inside the closure. Carrying the rank lets the dispatch barrier
/// assert the exactly-once join protocol in debug builds.
type Done = (usize, std::thread::Result<()>);

struct Worker {
    tx: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// Cumulative per-rank execution counters, monotonic over the pool's life.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankCounters {
    /// Nanoseconds this rank spent executing dispatched closures.
    pub busy_ns: u64,
    /// Nanoseconds this rank spent waiting at the dispatch barrier while
    /// slower ranks were still busy (dispatch wall time minus own busy time).
    pub idle_ns: u64,
}

/// `nranks` long-lived worker threads with barrier-style dispatch.
pub struct RankPool {
    workers: Vec<Worker>,
    done_rx: Receiver<Done>,
    busy: Vec<Arc<AtomicU64>>,
    idle_ns: Vec<u64>,
    dispatches: u64,
}

impl RankPool {
    /// Spawn `nranks` workers. They persist until the pool is dropped.
    pub fn new(nranks: usize) -> RankPool {
        assert!(nranks > 0, "a rank pool needs at least one rank");
        let (done_tx, done_rx) = channel();
        let mut workers = Vec::with_capacity(nranks);
        let mut busy = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            let (tx, rx) = channel();
            let counter = Arc::new(AtomicU64::new(0));
            let worker_counter = Arc::clone(&counter);
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .spawn(move || worker_loop(rank, rx, done, worker_counter))
                // analyze::allow(panic): thread-spawn failure at pool
                // construction is unrecoverable resource exhaustion — the
                // simulation cannot start, let alone continue.
                .expect("spawning rank worker");
            workers.push(Worker {
                tx,
                handle: Some(handle),
            });
            busy.push(counter);
        }
        RankPool {
            workers,
            done_rx,
            busy,
            idle_ns: vec![0; nranks],
            dispatches: 0,
        }
    }

    /// Pool width (the requested rank count, independent of leaf count).
    pub fn nranks(&self) -> usize {
        self.workers.len()
    }

    /// Dispatch `f(rank)` to every worker and block until all complete —
    /// the bulk-synchronous step of the simulated MPI program. If any rank
    /// panicked, the first payload is re-raised on the caller after every
    /// rank has reported in.
    ///
    /// Soundness of the `'static` transmute: the borrow handed to each
    /// worker is used only inside that worker's `catch_unwind`, and this
    /// function does not return — not even by unwinding — until every
    /// worker has sent its completion message, which is strictly after its
    /// last use of the borrow. `f` therefore outlives every use.
    pub fn run(&mut self, f: &(dyn Fn(usize) + Sync)) {
        let nranks = self.workers.len();
        let busy_before: Vec<u64> = self
            .busy
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let t0 = Instant::now();
        // SAFETY: lifetime erasure only; see the doc comment above.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        for w in &self.workers {
            // analyze::allow(panic): a worker's receiver only drops on
            // Shutdown or pool drop; a hung-up channel mid-dispatch means a
            // rank died outside the protocol and the pool cannot continue.
            w.tx.send(Job::Run(f_static)).expect("rank worker hung up");
        }
        // Debug-build protocol ledger: every dispatched rank joins exactly
        // once per dispatch.
        #[cfg(debug_assertions)]
        let mut joined = vec![false; nranks];
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for _ in 0..nranks {
            // analyze::allow(panic): every worker sends exactly one report
            // per dispatch before blocking on its next job, so the channel
            // cannot disconnect before nranks reports arrive.
            let (_rank, result) = self.done_rx.recv().expect("rank worker hung up");
            #[cfg(debug_assertions)]
            {
                debug_assert!(
                    _rank < nranks && !joined[_rank],
                    "rank {_rank} joined twice in one dispatch"
                );
                joined[_rank] = true;
            }
            match result {
                Ok(()) => {}
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                joined.iter().all(|&j| j),
                "dispatch barrier released with unjoined ranks"
            );
            debug_assert!(
                self.done_rx.try_recv().is_err(),
                "stray completion report after the dispatch barrier"
            );
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        self.dispatches += 1;
        for (rank, before) in busy_before.iter().enumerate() {
            let used = self.busy[rank].load(Ordering::Relaxed) - before;
            self.idle_ns[rank] += wall_ns.saturating_sub(used);
        }
        // Dispatch epilogue (the counter rollup above, ledger checks): the
        // workers are already parked waiting for the next job, so this is
        // idle time for every rank. Accounting it keeps the invariant
        // busy + idle ≈ wall per dispatch, instead of quietly dropping the
        // epilogue — which understates idle_fraction for short dispatches.
        let epilogue_ns = t0.elapsed().as_nanos() as u64 - wall_ns;
        for idle in &mut self.idle_ns {
            *idle += epilogue_ns;
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }

    /// Completed dispatches since the pool was created.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Charge main-thread overhead between dispatches (e.g. the partition
    /// epoch refresh after a regrid) to every rank's idle ledger: the
    /// workers exist and wait while the caller prepares their next job.
    pub fn account_idle(&mut self, ns: u64) {
        for idle in &mut self.idle_ns {
            *idle += ns;
        }
    }

    /// Move `ns[rank]` nanoseconds from each rank's busy ledger to its idle
    /// ledger. The task-graph runner executes its whole scheduling loop
    /// inside one dispatch — the pool counts all of it as busy — and then
    /// reclassifies the time its workers measurably spent waiting for
    /// runnable tasks (spin/steal misses) through this.
    pub fn reattribute_idle(&mut self, ns: &[u64]) {
        for (rank, &moved) in ns.iter().enumerate().take(self.workers.len()) {
            self.busy[rank].fetch_sub(moved, Ordering::Relaxed);
            self.idle_ns[rank] += moved;
        }
    }

    /// Cumulative per-rank busy/idle counters.
    pub fn counters(&self) -> Vec<RankCounters> {
        self.busy
            .iter()
            .zip(&self.idle_ns)
            .map(|(busy, &idle_ns)| RankCounters {
                busy_ns: busy.load(Ordering::Relaxed),
                idle_ns,
            })
            .collect()
    }
}

fn worker_loop(rank: usize, rx: Receiver<Job>, done: Sender<Done>, busy: Arc<AtomicU64>) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Run(f) => {
                let t0 = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| f(rank)));
                busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                // The completion message is the lifetime fence for `f`:
                // nothing after this send may touch the borrow.
                if done.send((rank, result)).is_err() {
                    return;
                }
            }
            Job::Shutdown => return,
        }
    }
}

impl Drop for RankPool {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(Job::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Per-rank output slots for pool dispatches. Each rank writes only the slot
/// at its own index during a dispatch, so plain `UnsafeCell`s suffice — no
/// locking on the hot path and no false sharing through a mutex.
pub struct PerRank<T>(Vec<UnsafeCell<T>>);

// SAFETY: access is partitioned by rank index (one thread per slot at a
// time), which is exactly the contract `slot` demands of its callers.
unsafe impl<T: Send> Sync for PerRank<T> {}

impl<T> PerRank<T> {
    /// `n` slots, each built by `init`.
    pub fn new(n: usize, mut init: impl FnMut() -> T) -> PerRank<T> {
        PerRank((0..n).map(|_| UnsafeCell::new(init())).collect())
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff there are no slots.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Exclusive access to one rank's slot.
    ///
    /// # Safety
    /// Each index must be accessed by at most one thread at a time; during a
    /// pool dispatch that means rank `r` touches only `slot(r)`.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slot(&self, rank: usize) -> &mut T {
        &mut *self.0[rank].get()
    }

    /// Recover the slot values in rank order.
    pub fn into_inner(self) -> Vec<T> {
        self.0.into_iter().map(UnsafeCell::into_inner).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_rank_runs_exactly_once_per_dispatch() {
        let mut pool = RankPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..3 {
            pool.run(&|rank| {
                hits[rank].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 3);
        }
        assert_eq!(pool.dispatches(), 3);
    }

    #[test]
    fn per_rank_slots_collect_in_rank_order() {
        let mut pool = RankPool::new(3);
        let out: PerRank<usize> = PerRank::new(3, || 0);
        pool.run(&|rank| {
            // SAFETY: each rank writes only its own slot.
            *unsafe { out.slot(rank) } = rank * 10;
        });
        assert_eq!(out.into_inner(), vec![0, 10, 20]);
    }

    #[test]
    fn counters_accumulate_across_dispatches() {
        let mut pool = RankPool::new(2);
        pool.run(&|_| {
            std::hint::black_box((0..10_000).sum::<u64>());
        });
        pool.run(&|_| {});
        let counters = pool.counters();
        assert_eq!(counters.len(), 2);
        // Busy time is recorded even for trivially short closures (the
        // Instant pair brackets the call), so the ledger is never empty.
        assert!(counters.iter().all(|c| c.busy_ns > 0));
    }

    #[test]
    fn busy_plus_idle_tracks_dispatch_wall() {
        let mut pool = RankPool::new(3);
        let t0 = std::time::Instant::now();
        for round in 0..4 {
            pool.run(&|rank| {
                // Deliberately skewed work so idle time is nonzero.
                if rank == round % 3 {
                    std::thread::sleep(std::time::Duration::from_millis(8));
                }
            });
        }
        let wall = t0.elapsed().as_nanos() as u64;
        for (rank, c) in pool.counters().iter().enumerate() {
            let ledger = c.busy_ns + c.idle_ns;
            // The ledger invariant: per rank, busy + idle equals the
            // cumulative dispatch wall (epilogue included) up to clock
            // skew between the worker and dispatcher Instants and the
            // loop around the dispatches.
            let skew = wall / 20 + 2_000_000;
            assert!(
                ledger + skew > wall && ledger < wall + skew,
                "rank {rank}: busy+idle = {ledger} vs wall = {wall}"
            );
        }
    }

    #[test]
    fn account_and_reattribute_idle_move_ledger_entries() {
        let mut pool = RankPool::new(2);
        pool.run(&|_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let before = pool.counters();
        pool.account_idle(1_000);
        let after = pool.counters();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(a.idle_ns, b.idle_ns + 1_000);
            assert_eq!(a.busy_ns, b.busy_ns);
        }
        // Reattribution conserves busy + idle while shifting the split.
        pool.reattribute_idle(&[500, 700]);
        let shifted = pool.counters();
        for ((a, s), moved) in after.iter().zip(&shifted).zip([500u64, 700]) {
            assert_eq!(s.busy_ns, a.busy_ns - moved);
            assert_eq!(s.idle_ns, a.idle_ns + moved);
        }
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let mut pool = RankPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|rank| {
                if rank == 1 {
                    panic!("rank 1 died");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool is still functional: the panic was caught in the worker.
        let ran = AtomicUsize::new(0);
        pool.run(&|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }
}

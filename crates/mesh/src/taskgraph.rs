//! Per-block dependency-graph execution with work stealing.
//!
//! A bulk-synchronous step loop dispatches the rank pool once per phase —
//! guard fill, sweep, EOS, dt scan — and every dispatch is a full barrier:
//! the fastest rank waits for the slowest, per phase, so load imbalance
//! converts directly into idle time. The HPX/Kokkos stellar-merger codes
//! (arXiv 2210.06439, 2304.11002) replace that structure with futurized
//! per-block task graphs over the octree; this module is the same idea on
//! the persistent [`RankPool`]: one pool dispatch executes an entire
//! dependency graph, each block's work becomes runnable the moment its own
//! inputs are ready, and per-rank deques with stealing soak up whatever
//! imbalance the cost-weighted Morton partition left behind.
//!
//! Determinism is preserved by construction, not by scheduling: tasks may
//! run in any order consistent with the edges, so the graph *builder* must
//! encode every ordering that matters. [`GraphBuilder`] does this with
//! resource versioning — each shared resource (a block's interior, its
//! guards, a flux row) tracks its last writer and the readers since; a new
//! reader depends on the last writer, and a new writer depends on the last
//! writer *and* every reader since (the classic RAW/WAR/WAW rule). Declaring
//! task accesses in the serial step-loop order therefore reproduces the
//! serial data flow exactly, and any schedule the runner picks computes
//! bit-identical results. Order-sensitive reductions (the CFL minimum, the
//! guardian verdict) are folded by dedicated tasks in Morton order over
//! per-block slots, never in completion order.

//!
//! Each execution is audited when the access ledger is compiled in (debug
//! builds or the `race-audit` feature, [`crate::audit`]): instrumented
//! accessors record what every task body actually touched, and
//! [`TaskGraph::execute`] cross-checks the recording against the declared
//! accesses — every actual access must be declared by its task, and every
//! conflicting pair of actual accesses must be ordered by the declared
//! edges (a FastTrack-style vector-clock check specialized to the
//! resource-version model: task ids are a topological order, so a replay in
//! id order with per-resource last-writer/readers-since state plus ancestor
//! bitsets decides happens-before exactly). [`TaskGraph::execute_adversarial`]
//! additionally runs the graph single-threaded in a seeded random
//! edge-consistent topological order, so undeclared dependencies surface as
//! bit-level divergence even on a single-core host.

use std::cell::UnsafeCell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::audit::{self, Access, Mode};
use crate::executor::{PerRank, RankPool};

/// Index of a task inside one graph.
pub type TaskId = u32;

/// Scheduling class of a task kind, for the overlap ledger: `Exchange`
/// covers guard-cell fill and restriction (the "communication"
/// phases), `Compute` covers the sweeps. The overlap ratio — compute time
/// spent while at least one exchange task was in flight — is the direct
/// measure of what a phase-by-phase loop structurally cannot do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskClass {
    Exchange,
    Compute,
    Other,
}

/// Builds a task graph: tasks tagged with a kind (caller-defined small
/// integer) and an owning rank, edges added either explicitly or derived
/// from resource access declarations.
pub struct GraphBuilder {
    kinds: Vec<u8>,
    owners: Vec<u32>,
    deps: Vec<u32>,
    dependents: Vec<Vec<TaskId>>,
    edge_set: HashSet<u64>,
    last_writer: Vec<Option<TaskId>>,
    readers: Vec<Vec<TaskId>>,
    /// Declared accesses per task, retained for the race audit (empty in
    /// builds without the audit layer).
    decl: Vec<Vec<Access>>,
}

impl GraphBuilder {
    /// A builder tracking `num_resources` shared resources.
    pub fn new(num_resources: usize) -> GraphBuilder {
        GraphBuilder {
            kinds: Vec::new(),
            owners: Vec::new(),
            deps: Vec::new(),
            dependents: Vec::new(),
            edge_set: HashSet::new(),
            last_writer: vec![None; num_resources],
            readers: vec![Vec::new(); num_resources],
            decl: Vec::new(),
        }
    }

    /// Add a task; returns its id. Tasks must be declared in the canonical
    /// (serial step-loop) order for resource edges to be meaningful.
    pub fn add_task(&mut self, kind: u8, owner: usize) -> TaskId {
        let id = self.kinds.len() as TaskId;
        self.kinds.push(kind);
        self.owners.push(owner as u32);
        self.deps.push(0);
        self.dependents.push(Vec::new());
        if audit::COMPILED {
            self.decl.push(Vec::new());
        }
        id
    }

    /// Add an explicit edge `from → to` (deduplicated; self-edges ignored).
    ///
    /// Edges must point forward in declaration order — task ids double as a
    /// topological order, which the executors and the race audit both rely
    /// on. A backward edge would silently corrupt the dependency counts in
    /// release builds if this were only a `debug_assert`, so it is a real
    /// assertion.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) {
        if from == to {
            return;
        }
        assert!(
            from < to,
            "edges must point forward in declaration order ({from} -> {to})"
        );
        if self.edge_set.insert(((from as u64) << 32) | to as u64) {
            self.dependents[from as usize].push(to);
            self.deps[to as usize] += 1;
        }
    }

    /// Declare that `task` reads `res`: orders it after the resource's last
    /// writer (RAW).
    pub fn note_read(&mut self, res: usize, task: TaskId) {
        if let Some(w) = self.last_writer[res] {
            self.add_edge(w, task);
        }
        self.readers[res].push(task);
        if audit::COMPILED {
            self.decl[task as usize].push(Access {
                res: res as u32,
                mode: Mode::Read,
            });
        }
    }

    /// Declare that `task` writes `res`: orders it after the last writer
    /// (WAW) and after every reader since (WAR), then becomes the new
    /// version. A writer may also read the same resource — exclusive access
    /// subsumes shared.
    pub fn note_write(&mut self, res: usize, task: TaskId) {
        if let Some(w) = self.last_writer[res] {
            self.add_edge(w, task);
        }
        for r in std::mem::take(&mut self.readers[res]) {
            self.add_edge(r, task);
        }
        self.last_writer[res] = Some(task);
        if audit::COMPILED {
            self.decl[task as usize].push(Access {
                res: res as u32,
                mode: Mode::Write,
            });
        }
    }

    /// Freeze into an executable graph. When the audit layer is compiled
    /// in, this also flattens the edge relation into per-task ancestor
    /// bitsets (ids are topological, so one forward pass suffices) — the
    /// happens-before oracle the post-execution race check queries.
    pub fn build(self) -> TaskGraph {
        let n = self.kinds.len();
        let roots = (0..n as TaskId)
            .filter(|&t| self.deps[t as usize] == 0)
            .collect();
        let anc_words = if audit::COMPILED { n.div_ceil(64) } else { 0 };
        let mut anc = vec![0u64; n * anc_words];
        if audit::COMPILED {
            for t in 0..n {
                for &dep in &self.dependents[t] {
                    let d = dep as usize;
                    // add_edge guarantees t < d, so row t is final and
                    // disjoint from row d.
                    let (lo, hi) = anc.split_at_mut(d * anc_words);
                    let src = &lo[t * anc_words..(t + 1) * anc_words];
                    let dst = &mut hi[..anc_words];
                    for (dw, sw) in dst.iter_mut().zip(src) {
                        *dw |= sw;
                    }
                    dst[t / 64] |= 1u64 << (t % 64);
                }
            }
        }
        TaskGraph {
            kinds: self.kinds,
            owners: self.owners,
            deps: self.deps,
            dependents: self.dependents,
            roots,
            decl: self.decl,
            anc,
            anc_words,
            audit_label: None,
            audit_res: None,
        }
    }
}

/// An immutable task graph, executable any number of times.
pub struct TaskGraph {
    kinds: Vec<u8>,
    owners: Vec<u32>,
    deps: Vec<u32>,
    dependents: Vec<Vec<TaskId>>,
    roots: Vec<TaskId>,
    /// Declared accesses per task (audit builds only).
    decl: Vec<Vec<Access>>,
    /// Flattened ancestor bitsets: task `p` happens-before task `t` iff bit
    /// `p` of row `t` is set (audit builds only).
    anc: Vec<u64>,
    anc_words: usize,
    /// Audit-failure pretty-printers, supplied by the plan owner.
    audit_label: Option<Box<dyn Fn(TaskId) -> String + Send + Sync>>,
    audit_res: Option<Box<dyn Fn(usize) -> String + Send + Sync>>,
}

/// Per-rank counters from one or more graph executions.
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphRankStats {
    /// Tasks this rank executed (its own and stolen ones).
    pub tasks: u64,
    /// Tasks this rank stole from another rank's deque.
    pub steals: u64,
    /// Nanoseconds inside task bodies.
    pub busy_ns: u64,
    /// Nanoseconds spent looking for runnable work (spin + steal misses).
    pub idle_ns: u64,
}

/// Aggregate statistics of one graph execution.
#[derive(Clone, Debug, Default)]
pub struct GraphStats {
    pub per_rank: Vec<GraphRankStats>,
    /// Busy nanoseconds per task kind (indexed by the builder's kind tags).
    pub kind_busy_ns: Vec<u64>,
    /// Compute-class nanoseconds spent while ≥1 exchange task was in flight.
    pub overlap_ns: u64,
    /// Total compute-class nanoseconds (the overlap denominator).
    pub compute_ns: u64,
}

/// Per-rank scratch local to one execution.
struct LocalStats {
    stats: GraphRankStats,
    kind_busy_ns: Vec<u64>,
    overlap_ns: u64,
    compute_ns: u64,
    /// Recorded (task, accesses) pairs, audit builds only.
    ledger: Vec<(TaskId, Vec<Access>)>,
}

impl TaskGraph {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` iff the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Prerequisite count of `task` (for tests and diagnostics).
    pub fn dep_count(&self, task: TaskId) -> u32 {
        self.deps[task as usize]
    }

    /// The zero-indegree tasks, in declaration order.
    pub fn roots(&self) -> &[TaskId] {
        &self.roots
    }

    /// Direct successors of `task`, in edge-insertion order.
    pub fn successors(&self, task: TaskId) -> &[TaskId] {
        &self.dependents[task as usize]
    }

    /// Install pretty-printers for audit-failure messages: `label` renders
    /// a task (kind, block, direction), `res` renders a resource id. Purely
    /// diagnostic — the check itself is independent of them.
    pub fn set_audit_context(
        &mut self,
        label: impl Fn(TaskId) -> String + Send + Sync + 'static,
        res: impl Fn(usize) -> String + Send + Sync + 'static,
    ) {
        self.audit_label = Some(Box::new(label));
        self.audit_res = Some(Box::new(res));
    }

    /// Does `from` happen-before `to` under the declared edges? (Audit
    /// builds only; `false` otherwise.)
    #[inline]
    fn reachable(&self, from: TaskId, to: TaskId) -> bool {
        let (f, t) = (from as usize, to as usize);
        self.anc_words > 0 && self.anc[t * self.anc_words + f / 64] & (1u64 << (f % 64)) != 0
    }

    fn describe_task(&self, t: TaskId) -> String {
        match &self.audit_label {
            Some(f) => f(t),
            None => format!("task {t} (kind {})", self.kinds[t as usize]),
        }
    }

    fn describe_res(&self, r: usize) -> String {
        match &self.audit_res {
            Some(f) => f(r),
            None => format!("resource {r}"),
        }
    }

    /// Cross-check one execution's recorded accesses against the declared
    /// happens-before relation. Two independent gates:
    ///
    /// 1. **Coverage** — every access a task body recorded must have been
    ///    declared by that task (a read is covered by a declared read or
    ///    write; a write needs a declared write). This is what catches a
    ///    dropped `note_read`/`note_write` even when other declarations
    ///    happen to keep the schedule transitively safe.
    /// 2. **Ordering** — a FastTrack-style replay of the recorded accesses
    ///    in task-id order (a topological order by construction): per
    ///    resource, track the last actual writer and the readers since;
    ///    every conflicting pair must be ordered by the declared edges.
    ///    This catches accesses that are declared somewhere but by the
    ///    wrong task.
    ///
    /// Panics with a `race-audit:` message naming the task and resource on
    /// any violation.
    fn audit_check(&self, actual: &[Vec<Access>]) {
        if !audit::COMPILED {
            return;
        }
        let mut violations: Vec<String> = Vec::new();
        for (ti, accs) in actual.iter().enumerate() {
            let decl = &self.decl[ti];
            for a in accs {
                let covered = match a.mode {
                    Mode::Read => decl.iter().any(|d| d.res == a.res),
                    Mode::Write => decl.iter().any(|d| d.res == a.res && d.mode == Mode::Write),
                };
                if !covered {
                    violations.push(format!(
                        "undeclared {:?} of {} by {}",
                        a.mode,
                        self.describe_res(a.res as usize),
                        self.describe_task(ti as TaskId)
                    ));
                }
            }
        }
        // (last actual writer, actual readers since) per resource.
        let mut state: HashMap<u32, (Option<TaskId>, Vec<TaskId>)> = HashMap::new();
        for (ti, accs) in actual.iter().enumerate() {
            let t = ti as TaskId;
            for a in accs {
                let entry = state.entry(a.res).or_default();
                let mut require = |prev: TaskId, what: &str| {
                    if !self.reachable(prev, t) {
                        violations.push(format!(
                            "unordered {what} of {}: {} does not happen-before {}",
                            self.describe_res(a.res as usize),
                            self.describe_task(prev),
                            self.describe_task(t)
                        ));
                    }
                };
                match a.mode {
                    Mode::Read => {
                        if let Some(w) = entry.0 {
                            require(w, "read-after-write");
                        }
                        entry.1.push(t);
                    }
                    Mode::Write => {
                        if let Some(w) = entry.0 {
                            require(w, "write-after-write");
                        }
                        for &r in &entry.1 {
                            require(r, "write-after-read");
                        }
                        entry.0 = Some(t);
                        entry.1.clear();
                    }
                }
            }
        }
        let total = violations.len();
        violations.truncate(8);
        assert!(
            total == 0,
            "race-audit: {total} declared-vs-actual violation(s):\n  {}",
            violations.join("\n  ")
        );
    }

    /// Execute the graph on `pool` in a single dispatch. `classes[kind]`
    /// assigns each kind tag its scheduling class (missing entries are
    /// `Other`); `body(rank, task)` runs one task on the calling rank's
    /// thread.
    ///
    /// Ready tasks go to their *owner's* deque (the Morton partition decides
    /// placement); a rank with an empty deque steals from the back of its
    /// neighbors' deques. Time spent failing to find work is measured per
    /// rank and reclassified from the pool's busy ledger to its idle ledger,
    /// so `idle_fraction` stays comparable with plain pool dispatches.
    pub fn execute(
        &self,
        pool: &mut RankPool,
        classes: &[TaskClass],
        body: &(dyn Fn(usize, TaskId) + Sync),
    ) -> GraphStats {
        let nranks = pool.nranks();
        let ntasks = self.kinds.len();
        let mut stats = GraphStats {
            per_rank: vec![GraphRankStats::default(); nranks],
            kind_busy_ns: vec![0; classes.len().max(1)],
            overlap_ns: 0,
            compute_ns: 0,
        };
        if ntasks == 0 {
            return stats;
        }

        let pending: Vec<AtomicU32> = self.deps.iter().map(|&d| AtomicU32::new(d)).collect();
        let remaining = AtomicUsize::new(ntasks);
        let exchange_inflight = AtomicU32::new(0);
        let panicked = AtomicBool::new(false);
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let deques: Vec<Mutex<std::collections::VecDeque<TaskId>>> = (0..nranks)
            .map(|_| Mutex::new(std::collections::VecDeque::new()))
            .collect();
        // Seed the roots, in declaration order, onto their owners' deques.
        for &t in &self.roots {
            let owner = (self.owners[t as usize] as usize).min(nranks - 1);
            // analyze::allow(panic): a poisoned deque mutex means a worker
            // already panicked while holding it; the payload is re-raised
            // below, this unwind is collateral on a dead execution.
            deques[owner].lock().expect("deque lock").push_back(t);
        }

        let audit_on = audit::enabled();
        let out: PerRank<LocalStats> = PerRank::new(nranks, || LocalStats {
            stats: GraphRankStats::default(),
            kind_busy_ns: vec![0; classes.len().max(1)],
            overlap_ns: 0,
            compute_ns: 0,
            ledger: Vec::new(),
        });

        pool.run(&|rank| {
            let t_loop = Instant::now();
            // SAFETY: each rank touches only its own stats slot.
            let local = unsafe { out.slot(rank) };
            let mut busy_ns = 0u64;
            let mut misses = 0u32;
            loop {
                if panicked.load(Ordering::Acquire) {
                    break;
                }
                // Own deque first (FIFO keeps the canonical order the
                // builder seeded), then steal from the back of others'.
                let mut grabbed: Option<(TaskId, bool)> = None;
                // analyze::allow(panic): see the seeding loop — poisoned
                // deque locks only follow a worker panic, which aborts the
                // execution anyway.
                //
                // The pop is bound to a `let` BEFORE the `if let` so the
                // own-deque guard drops here: under edition 2021 an
                // `if let` scrutinee temporary lives through the `else`
                // block, and holding our own deque while locking a
                // victim's deadlocks two ranks stealing from each other.
                let own = deques[rank].lock().expect("deque lock").pop_front();
                if let Some(t) = own {
                    grabbed = Some((t, false));
                } else {
                    for i in 1..nranks {
                        let victim = (rank + i) % nranks;
                        // analyze::allow(panic): as above.
                        let stolen = deques[victim].lock().expect("deque lock").pop_back();
                        if let Some(t) = stolen {
                            grabbed = Some((t, true));
                            break;
                        }
                    }
                }
                let Some((task, stolen)) = grabbed else {
                    if remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    misses += 1;
                    if misses < 64 {
                        std::thread::yield_now();
                    } else {
                        // Long dry spell (e.g. more ranks than hardware
                        // threads): back off exponentially so spinning
                        // ranks don't starve the ones holding real work —
                        // a thief waking every 20 µs on an oversubscribed
                        // core is itself the bottleneck.
                        let exp = (misses - 64).min(5);
                        std::thread::sleep(std::time::Duration::from_micros(20 << exp));
                    }
                    continue;
                };
                misses = 0;
                if stolen {
                    local.stats.steals += 1;
                }
                let kind = self.kinds[task as usize] as usize;
                let class = classes.get(kind).copied().unwrap_or(TaskClass::Other);
                if class == TaskClass::Exchange {
                    exchange_inflight.fetch_add(1, Ordering::AcqRel);
                }
                let overlapped_at_start =
                    class == TaskClass::Compute && exchange_inflight.load(Ordering::Acquire) > 0;
                let t0 = Instant::now();
                if audit_on {
                    audit::task_begin();
                }
                let result = catch_unwind(AssertUnwindSafe(|| body(rank, task)));
                if audit_on {
                    let accesses = audit::task_end();
                    if result.is_ok() {
                        local.ledger.push((task, accesses));
                    }
                }
                let dt = t0.elapsed().as_nanos() as u64;
                // An exchange in flight at either end of a compute task
                // means the two intervals intersected (only an exchange
                // strictly inside the task escapes both probes).
                let overlapped = overlapped_at_start
                    || (class == TaskClass::Compute
                        && exchange_inflight.load(Ordering::Acquire) > 0);
                if class == TaskClass::Exchange {
                    exchange_inflight.fetch_sub(1, Ordering::AcqRel);
                }
                busy_ns += dt;
                local.stats.tasks += 1;
                if let Some(slot) = local.kind_busy_ns.get_mut(kind) {
                    *slot += dt;
                }
                if class == TaskClass::Compute {
                    local.compute_ns += dt;
                    if overlapped {
                        local.overlap_ns += dt;
                    }
                }
                match result {
                    Ok(()) => {}
                    Err(payload) => {
                        // analyze::allow(panic): lock poisoning here is the
                        // same collateral-unwind case as above.
                        let mut slot = panic_payload.lock().expect("panic slot");
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        drop(slot);
                        panicked.store(true, Ordering::Release);
                        break;
                    }
                }
                // Release newly-ready dependents onto their owners' deques.
                // The AcqRel RMW chain on `pending` makes every predecessor's
                // writes visible to the task that observes the count hit 0.
                for &d in &self.dependents[task as usize] {
                    if pending[d as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                        let owner = (self.owners[d as usize] as usize).min(nranks - 1);
                        // analyze::allow(panic): as above.
                        deques[owner].lock().expect("deque lock").push_back(d);
                    }
                }
                remaining.fetch_sub(1, Ordering::AcqRel);
            }
            local.stats.busy_ns = busy_ns;
            let wall = t_loop.elapsed().as_nanos() as u64;
            local.stats.idle_ns = wall.saturating_sub(busy_ns);
        });

        // Scheduler-internal wait time was counted as busy by the pool
        // (the whole loop ran inside one dispatched closure); move it to
        // the idle ledger so idle_fraction means the same thing in both
        // scheduler modes.
        let locals = out.into_inner();
        let idle: Vec<u64> = locals.iter().map(|l| l.stats.idle_ns).collect();
        pool.reattribute_idle(&idle);
        let mut actual: Vec<Vec<Access>> = if audit_on {
            vec![Vec::new(); ntasks]
        } else {
            Vec::new()
        };
        for (rank, l) in locals.into_iter().enumerate() {
            stats.per_rank[rank] = l.stats;
            for (k, ns) in l.kind_busy_ns.into_iter().enumerate() {
                stats.kind_busy_ns[k] += ns;
            }
            stats.overlap_ns += l.overlap_ns;
            stats.compute_ns += l.compute_ns;
            for (task, accesses) in l.ledger {
                actual[task as usize] = accesses;
            }
        }
        if panicked.load(Ordering::Acquire) {
            // analyze::allow(panic): propagating the task's own panic.
            let slot = panic_payload.lock().expect("panic slot").take();
            // analyze::allow(panic): the flag is only set with a payload.
            let payload = slot.expect("panicked flag set without payload");
            resume_unwind(payload);
        }
        debug_assert_eq!(remaining.load(Ordering::Acquire), 0);
        if audit_on {
            self.audit_check(&actual);
        }
        stats
    }

    /// Execute the graph single-threaded on the calling thread, in a seeded
    /// random edge-consistent topological order — the adversarial
    /// deterministic scheduler. Same audit as [`TaskGraph::execute`]; the
    /// caller asserts bit-identity of the resulting state against the
    /// canonical order, which shakes out undeclared dependencies without
    /// needing a multi-core host (and without real data races while doing
    /// so). `body` always runs as rank 0.
    pub fn execute_adversarial(
        &self,
        classes: &[TaskClass],
        seed: u64,
        body: &(dyn Fn(usize, TaskId) + Sync),
    ) -> GraphStats {
        let ntasks = self.kinds.len();
        let mut stats = GraphStats {
            per_rank: vec![GraphRankStats::default(); 1],
            kind_busy_ns: vec![0; classes.len().max(1)],
            overlap_ns: 0,
            compute_ns: 0,
        };
        if ntasks == 0 {
            return stats;
        }
        let audit_on = audit::enabled();
        let mut actual: Vec<Vec<Access>> = if audit_on {
            vec![Vec::new(); ntasks]
        } else {
            Vec::new()
        };
        let mut pending: Vec<u32> = self.deps.clone();
        let mut ready: Vec<TaskId> = self.roots.clone();
        // xorshift64 over a non-zero state: deterministic for a given seed.
        let mut rng = seed | 1;
        let mut ran = 0usize;
        while !ready.is_empty() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let pick = (rng as usize) % ready.len();
            let task = ready.swap_remove(pick);
            if audit_on {
                audit::task_begin();
            }
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| body(0, task)));
            let dt = t0.elapsed().as_nanos() as u64;
            if audit_on {
                // Keep the panicked task's partial ledger too — the accesses
                // it recorded before unwinding are exactly the evidence.
                actual[task as usize] = audit::task_end();
            }
            if let Err(payload) = result {
                // A body panic here is often the *symptom* of an undeclared
                // dependency: the adversarial order legally ran the task
                // against stale or unwritten inputs. Audit the partial
                // execution first so the failure names the race, and only
                // re-raise the body's own panic if the ledger is clean.
                if audit_on {
                    self.audit_check(&actual);
                }
                resume_unwind(payload);
            }
            let kind = self.kinds[task as usize] as usize;
            stats.per_rank[0].tasks += 1;
            stats.per_rank[0].busy_ns += dt;
            if let Some(slot) = stats.kind_busy_ns.get_mut(kind) {
                *slot += dt;
            }
            if classes.get(kind).copied().unwrap_or(TaskClass::Other) == TaskClass::Compute {
                stats.compute_ns += dt;
            }
            for &d in &self.dependents[task as usize] {
                pending[d as usize] -= 1;
                if pending[d as usize] == 0 {
                    ready.push(d);
                }
            }
            ran += 1;
        }
        assert!(
            ran == ntasks,
            "adversarial schedule stalled after {ran}/{ntasks} tasks"
        );
        if audit_on {
            self.audit_check(&actual);
        }
        stats
    }
}

/// Maps a [`SyncSlots`] index to the graph resource it materializes, so
/// slot accesses land in the audit ledger: `Fixed` slots all alias one
/// resource (e.g. the dt cell), and `Unmapped` slots are ordered by
/// explicit edges only (per-leaf reduction inputs) and record nothing.
#[derive(Clone, Copy, Debug)]
pub enum SlotRes {
    Unmapped,
    Fixed(usize),
}

/// Fixed-size slot array written by graph tasks. Soundness is delegated to
/// the graph's edges: a slot is only touched by the task(s) the plan
/// assigns to it, with writers ordered around readers. Accesses through
/// [`SyncSlots::read_slot`]/[`SyncSlots::write_slot`] are recorded in the
/// audit ledger per the [`SlotRes`] mapping.
pub struct SyncSlots<T> {
    slots: Vec<UnsafeCell<T>>,
    res: SlotRes,
}

// SAFETY: access discipline (one task at a time per slot, ordered by graph
// edges) is documented on `read_slot`/`write_slot` and upheld by the plan
// builder.
unsafe impl<T: Send> Sync for SyncSlots<T> {}

impl<T> SyncSlots<T> {
    /// `n` slots initialized by `init`, audited under the `res` mapping.
    pub fn new(n: usize, res: SlotRes, mut init: impl FnMut() -> T) -> SyncSlots<T> {
        SyncSlots {
            slots: (0..n).map(|_| UnsafeCell::new(init())).collect(),
            res,
        }
    }

    #[inline]
    fn record(&self, write: bool) {
        let r = match self.res {
            SlotRes::Unmapped => return,
            SlotRes::Fixed(r) => r,
        };
        if write {
            audit::rec_write(r);
        } else {
            audit::rec_read(r);
        }
    }

    /// Shared view of slot `i`.
    ///
    /// # Safety
    /// No concurrently running task may write slot `i`: the caller's task
    /// must be ordered (by graph edges) after every writer of the slot and
    /// before the next one.
    #[inline]
    pub unsafe fn read_slot(&self, i: usize) -> &T {
        self.record(false);
        &*self.slots[i].get()
    }

    /// Exclusive view of slot `i`, aliasing `&mut`.
    ///
    /// # Safety
    /// The caller must be the only task touching slot `i` right now —
    /// i.e. graph edges order every other accessor before or after it.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn write_slot(&self, i: usize) -> &mut T {
        self.record(true);
        &mut *self.slots[i].get()
    }

    /// Unwrap into the slot values.
    pub fn into_inner(self) -> Vec<T> {
        self.slots.into_iter().map(UnsafeCell::into_inner).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn record_order(graph: &TaskGraph, nranks: usize) -> Vec<TaskId> {
        let mut pool = RankPool::new(nranks);
        let order = Mutex::new(Vec::new());
        graph.execute(&mut pool, &[], &|_, t| {
            order.lock().unwrap().push(t);
        });
        order.into_inner().unwrap()
    }

    #[test]
    fn resource_versioning_generates_raw_war_waw_edges() {
        let mut b = GraphBuilder::new(1);
        let w0 = b.add_task(0, 0);
        let r1 = b.add_task(0, 0);
        let r2 = b.add_task(0, 0);
        let w1 = b.add_task(0, 0);
        b.note_write(0, w0);
        b.note_read(0, r1); // RAW: w0 → r1
        b.note_read(0, r2); // RAW: w0 → r2
        b.note_write(0, w1); // WAW: w0 → w1, WAR: r1 → w1, r2 → w1
        let g = b.build();
        assert_eq!(g.dep_count(w0), 0);
        assert_eq!(g.dep_count(r1), 1);
        assert_eq!(g.dep_count(r2), 1);
        assert_eq!(g.dep_count(w1), 3);
        // Any schedule must run w0 first and w1 last.
        for nranks in [1, 3] {
            let order = record_order(&g, nranks);
            assert_eq!(order.len(), 4);
            assert_eq!(order[0], w0);
            assert_eq!(order[3], w1);
        }
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let mut b = GraphBuilder::new(2);
        let w = b.add_task(0, 0);
        let r = b.add_task(0, 0);
        // One task writing two resources read by the same successor must
        // produce a single dependency, or the count double-decrements.
        b.note_write(0, w);
        b.note_write(1, w);
        b.note_read(0, r);
        b.note_read(1, r);
        b.add_edge(w, r);
        let g = b.build();
        assert_eq!(g.dep_count(r), 1);
        assert_eq!(record_order(&g, 2), vec![w, r]);
    }

    #[test]
    fn diamond_runs_every_task_once_in_topological_order() {
        let mut b = GraphBuilder::new(0);
        let top = b.add_task(0, 0);
        let left = b.add_task(0, 0);
        let right = b.add_task(0, 1);
        let bottom = b.add_task(0, 1);
        b.add_edge(top, left);
        b.add_edge(top, right);
        b.add_edge(left, bottom);
        b.add_edge(right, bottom);
        let g = b.build();
        for nranks in [1, 2, 4] {
            let order = record_order(&g, nranks);
            assert_eq!(order.len(), 4);
            assert_eq!(order[0], top);
            assert_eq!(order[3], bottom);
        }
    }

    #[test]
    fn work_stealing_rebalances_a_skewed_partition() {
        // Every task owned by rank 0, long enough bodies that rank 1 cannot
        // miss every steal window.
        let mut b = GraphBuilder::new(0);
        for _ in 0..32 {
            b.add_task(0, 0);
        }
        let g = b.build();
        let mut pool = RankPool::new(2);
        let ran = AtomicU64::new(0);
        let stats = g.execute(&mut pool, &[], &|_, _| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 32);
        assert!(
            stats.per_rank[1].steals > 0,
            "an idle rank next to a 64 ms backlog must steal: {stats:?}"
        );
        let total_tasks: u64 = stats.per_rank.iter().map(|r| r.tasks).sum();
        assert_eq!(total_tasks, 32);
    }

    #[test]
    fn overlap_ledger_counts_compute_during_exchange() {
        // Kind 0 = exchange, kind 1 = compute; a barrier inside both bodies
        // forces the two intervals to intersect even on one hardware
        // thread, and the exchange outlives the compute task so the
        // task-end probe must see it in flight.
        let mut b = GraphBuilder::new(0);
        b.add_task(0, 0);
        b.add_task(1, 1);
        let g = b.build();
        let mut pool = RankPool::new(2);
        let gate = std::sync::Barrier::new(2);
        let stats = g.execute(
            &mut pool,
            &[TaskClass::Exchange, TaskClass::Compute],
            &|_, t| {
                gate.wait();
                if t == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            },
        );
        assert!(stats.kind_busy_ns[0] >= 15_000_000);
        assert!(stats.compute_ns > 0);
        // The compute task overlapped the in-flight exchange.
        assert!(stats.overlap_ns > 0, "{stats:?}");
        assert_eq!(stats.overlap_ns, stats.compute_ns);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let mut b = GraphBuilder::new(0);
        let a = b.add_task(0, 0);
        let bad = b.add_task(0, 0);
        b.add_edge(a, bad);
        let g = b.build();
        let mut pool = RankPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            g.execute(&mut pool, &[], &|_, t| {
                if t == bad {
                    panic!("task died");
                }
            });
        }));
        assert!(caught.is_err());
        let ran = AtomicU64::new(0);
        pool.run(&|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn graph_idle_is_reattributed_to_the_pool_ledger() {
        let mut b = GraphBuilder::new(0);
        // A serial chain: one rank runs both tasks (either may steal), the
        // other spins/sleeps in the scheduler loop the whole time.
        let t0 = b.add_task(0, 0);
        let t1 = b.add_task(0, 0);
        b.add_edge(t0, t1);
        let g = b.build();
        let mut pool = RankPool::new(2);
        let before = pool.counters();
        let stats = g.execute(&mut pool, &[], &|_, _| {
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let after = pool.counters();
        // After reattribution, each rank's pool busy delta matches the
        // task-body time the graph measured for it (scheduler wait was
        // moved to idle), and pool idle covers the graph-measured idle.
        for r in 0..2 {
            let busy_delta = after[r].busy_ns.saturating_sub(before[r].busy_ns);
            let idle_delta = after[r].idle_ns.saturating_sub(before[r].idle_ns);
            let graph_busy = stats.per_rank[r].busy_ns;
            let diff = busy_delta.abs_diff(graph_busy);
            assert!(
                diff < 2_000_000,
                "rank {r}: pool busy delta {busy_delta} vs graph busy {graph_busy}: {stats:?}"
            );
            assert!(
                idle_delta + 2_000_000 >= stats.per_rank[r].idle_ns,
                "rank {r}: pool idle delta {idle_delta} < graph idle {}",
                stats.per_rank[r].idle_ns
            );
        }
        // The whole 20 ms chain ran on exactly one rank.
        let total_busy: u64 = (0..2).map(|r| after[r].busy_ns - before[r].busy_ns).sum();
        assert!(total_busy >= 18_000_000, "{after:?}");
    }

    #[test]
    fn backward_edges_are_rejected_in_every_build() {
        let mut b = GraphBuilder::new(0);
        let t0 = b.add_task(0, 0);
        let t1 = b.add_task(0, 0);
        let caught = catch_unwind(AssertUnwindSafe(move || b.add_edge(t1, t0)));
        assert!(caught.is_err(), "backward edge must be a hard error");
    }

    #[allow(dead_code)] // only reached in audit-compiled (debug) test builds
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    }

    #[test]
    fn audit_flags_an_undeclared_write() {
        if !audit::COMPILED {
            return;
        }
        let _g = audit::test_guard();
        let mut b = GraphBuilder::new(2);
        let w = b.add_task(0, 0);
        let r = b.add_task(1, 0);
        b.note_write(0, w);
        b.note_read(0, r);
        let g = b.build();
        let mut pool = RankPool::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            g.execute(&mut pool, &[], &|_, t| {
                if t == w {
                    audit::rec_write(0);
                } else {
                    // Declared a read of 0; actually also writes resource 1.
                    audit::rec_read(0);
                    audit::rec_write(1);
                }
            });
        }));
        let msg = panic_message(caught.expect_err("undeclared write must fail the audit"));
        assert!(msg.contains("race-audit"), "{msg}");
        assert!(msg.contains("undeclared Write"), "{msg}");
    }

    #[test]
    fn audit_flags_a_read_declared_only_as_weaker_than_actual() {
        if !audit::COMPILED {
            return;
        }
        let _g = audit::test_guard();
        let mut b = GraphBuilder::new(1);
        let r = b.add_task(0, 0);
        b.note_read(0, r);
        let g = b.build();
        let mut pool = RankPool::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            g.execute(&mut pool, &[], &|_, _| {
                // Declared read, actual write: must be flagged.
                audit::rec_write(0);
            });
        }));
        let msg = panic_message(caught.expect_err("read-declared write must fail"));
        assert!(msg.contains("race-audit"), "{msg}");
    }

    #[test]
    fn audit_accepts_a_fully_declared_execution() {
        if !audit::COMPILED {
            return;
        }
        let _g = audit::test_guard();
        let mut b = GraphBuilder::new(2);
        let w = b.add_task(0, 0);
        let r1 = b.add_task(1, 0);
        let r2 = b.add_task(1, 1);
        let w2 = b.add_task(2, 1);
        b.note_write(0, w);
        b.note_read(0, r1);
        b.note_read(0, r2);
        b.note_write(0, w2);
        b.note_write(1, w2);
        let g = b.build();
        let mut pool = RankPool::new(2);
        g.execute(&mut pool, &[], &|_, t| {
            if t == w {
                audit::rec_write(0);
            } else if t == w2 {
                audit::rec_write(0);
                audit::rec_write(1);
            } else {
                audit::rec_read(0);
            }
        });
    }

    #[test]
    fn adversarial_runs_every_task_once_respecting_edges() {
        let mut b = GraphBuilder::new(1);
        // A fan of independent pairs hanging off one root: plenty of
        // schedule freedom, but each pair is ordered.
        let root = b.add_task(0, 0);
        b.note_write(0, root);
        let mut pairs = Vec::new();
        for _ in 0..6 {
            let a = b.add_task(0, 0);
            let c = b.add_task(0, 0);
            b.add_edge(root, a);
            b.add_edge(a, c);
            pairs.push((a, c));
        }
        let g = b.build();
        let mut orders = Vec::new();
        for seed in [1u64, 2, 99] {
            let order = Mutex::new(Vec::new());
            let stats = g.execute_adversarial(&[], seed, &|rank, t| {
                assert_eq!(rank, 0);
                order.lock().unwrap().push(t);
            });
            let order = order.into_inner().unwrap();
            assert_eq!(order.len(), g.len());
            assert_eq!(stats.per_rank[0].tasks as usize, g.len());
            let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
            assert_eq!(order[0], root);
            for &(a, c) in &pairs {
                assert!(pos(a) < pos(c), "edge {a}->{c} violated: {order:?}");
            }
            // Same seed replays the same order.
            let again = Mutex::new(Vec::new());
            g.execute_adversarial(&[], seed, &|_, t| {
                again.lock().unwrap().push(t);
            });
            assert_eq!(*again.into_inner().unwrap(), order);
            orders.push(order);
        }
        // Different seeds explore different orders (13 tasks, 6 free pairs:
        // collision odds are negligible).
        assert!(
            orders[0] != orders[1] || orders[1] != orders[2],
            "{orders:?}"
        );
    }

    #[test]
    fn sync_slots_record_against_their_resource_mapping() {
        if !audit::COMPILED {
            return;
        }
        let _g = audit::test_guard();
        let fixed: SyncSlots<f64> = SyncSlots::new(2, SlotRes::Fixed(7), || 0.0);
        let unmapped: SyncSlots<u8> = SyncSlots::new(1, SlotRes::Unmapped, || 0);
        audit::task_begin();
        // SAFETY: single-threaded test, no concurrent slot access.
        unsafe {
            *fixed.write_slot(1) = 2.5;
            let _ = *fixed.read_slot(0);
            *unmapped.write_slot(0) = 1;
        }
        let accs = audit::task_end();
        assert_eq!(
            accs,
            vec![Access {
                res: 7,
                mode: Mode::Write
            }],
            "both fixed slots alias one resource; the unmapped slot records nothing"
        );
        assert_eq!(fixed.into_inner(), vec![0.0, 2.5]);
    }
}

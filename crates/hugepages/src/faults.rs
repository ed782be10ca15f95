//! Deterministic fault injection for the allocation and checkpoint chains.
//!
//! The paper's central caveat (§II/§IV) — and the whole point of the
//! follow-up A64FX study — is that huge pages engage *conditionally*: the
//! hugetlb pool can be exhausted, THP can be compiled out or disabled, and
//! the wrong allocation path silently measures the wrong thing. Those
//! degraded modes are unreachable on a developer laptop with a healthy
//! kernel, so this module makes them reachable: a seeded, site-addressable
//! [`FaultPlan`] that fails `mmap`/`madvise`/hugetlbfs reservation at
//! chosen call sites, simulates transient pool exhaustion, and injects
//! short writes / rename failures into checkpoint I/O.
//!
//! Activation is scoped and deterministic:
//!
//! * **Thread-local** — [`FaultPlan::activate`] returns a guard; faults
//!   apply only to the current thread until the guard drops. This is what
//!   tests use, so parallel test threads never interfere.
//! * **Process-global** — the [`FAULTS_ENV_VAR`] environment variable
//!   (`RFLASH_FAULTS`) is parsed once, lazily, and applies to every thread
//!   with no active thread-local plan. This is how CI drives whole
//!   binaries through the degraded paths.
//!
//! Spec grammar (entries separated by `;` or `,`):
//!
//! ```text
//! RFLASH_FAULTS = entry (';' entry)*
//! entry  = 'seed' '=' u64
//!        | site '=' kind
//! site   = 'hugetlb-mmap' | 'anon-mmap' | 'madvise'
//!        | 'ckpt-write'   | 'ckpt-rename'
//!        | 'step-nan'     | 'flux-corrupt' | 'dt-zero'
//!        | 'worker-kill'  | 'heartbeat-drop' | 'msg-truncate' | 'spawn-fail'
//! kind   = 'always'            [':' errno]     -- every call fails
//!        | 'first' [':' N]    [':' errno]     -- calls 1..=N fail (N defaults
//!                                                to 1; transient exhaustion:
//!                                                later calls succeed, so a
//!                                                retry recovers)
//!        | 'nth'   ':' N      [':' errno]     -- exactly call N fails
//!        | 'prob'  ':' PERMILLE [':' errno]   -- seeded coin per call
//!        | 'short' ':' BYTES                  -- I/O sites: write BYTES then
//!                                                fail (a kill mid-write;
//!                                                ckpt-write / msg-truncate)
//! errno  = 'ENOMEM' | 'EAGAIN' | 'EINVAL' | 'EACCES' | 'EPERM'
//!        | 'EIO' | 'ENOSPC' | decimal
//! ```
//!
//! The `step-nan` / `flux-corrupt` / `dt-zero` sites are *state-corruption*
//! sites consumed by the step guardian (`rflash-core::guardian`): `step-nan`
//! poisons one evolved zone with a NaN after the sweeps, `flux-corrupt`
//! drives one density negative inside a directional sweep (a stand-in for a
//! bad HLLC flux), and `dt-zero` zeroes the computed CFL step. They carry no
//! errno — the hook only asks *whether* the rule fires ([`fires`]) — and
//! make the whole validate → rollback → retry → degrade chain testable
//! bit-exactly without real corruption.
//!
//! The last four are *process-level* sites consumed by the fleet layer
//! (`rflash-core::dist`, DESIGN.md §17). The first three are consulted by a
//! worker process once per step boundary: `worker-kill` makes the worker
//! exit abruptly (SIGKILL-shaped: no farewell frame), `heartbeat-drop`
//! makes it go fully silent — heartbeats stop and liveness probes go
//! unanswered, simulating a hang or network partition — and `msg-truncate`
//! makes the worker's next protocol frame arrive cut short (a crash
//! mid-send; `short:BYTES` bounds the bytes that get out). `spawn-fail` is
//! consulted by the *supervisor* each time it spawns or respawns a worker,
//! so the respawn budget and the abort past it are drillable
//! without exhausting real PIDs.
//!
//! Example: `RFLASH_FAULTS="hugetlb-mmap=always:ENOMEM;madvise=first:2"`.
//!
//! Determinism: `always`/`first`/`nth` depend only on the per-site call
//! counter; `prob` hashes (seed, site, call#) with SplitMix64, so the same
//! plan over the same call sequence always fires at the same calls.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use crate::error::{Error, Result};
use crate::metrics;

/// Environment variable holding a process-global fault spec.
pub const FAULTS_ENV_VAR: &str = "RFLASH_FAULTS";

/// Injectable call sites, addressed by name in the spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The `MAP_HUGETLB` reservation inside `sys::mmap_anon`.
    HugeTlbMmap,
    /// The plain anonymous `mmap` (THP and base-page stages).
    AnonMmap,
    /// Any `madvise(2)` call (`MADV_HUGEPAGE` / `MADV_NOHUGEPAGE`).
    Madvise,
    /// Checkpoint data writes (supports `short:BYTES`).
    CkptWrite,
    /// The atomic rename publishing a finished checkpoint.
    CkptRename,
    /// Step guardian: poison one evolved zone with a NaN after the sweeps.
    StepNan,
    /// Step guardian: drive one density negative inside a directional
    /// sweep — a deterministic stand-in for a bad HLLC flux.
    FluxCorrupt,
    /// Step guardian: zero the computed CFL time step.
    DtZero,
    /// Fleet: a worker process exits abruptly at a step boundary (no
    /// farewell frame — the shape of a SIGKILL or OOM kill).
    WorkerKill,
    /// Fleet: a worker goes fully silent at a step boundary — heartbeats
    /// stop and liveness probes go unanswered (a hang / partition).
    HeartbeatDrop,
    /// Fleet: the worker's next protocol frame is cut short mid-send
    /// (supports `short:BYTES`), then the worker dies.
    MsgTruncate,
    /// Fleet: the supervisor's attempt to spawn/respawn a worker fails.
    SpawnFail,
}

/// Number of distinct sites (sizes the per-site call counters).
const NSITES: usize = 12;

impl FaultSite {
    /// All sites, in counter-index order.
    pub const ALL: [FaultSite; NSITES] = [
        FaultSite::HugeTlbMmap,
        FaultSite::AnonMmap,
        FaultSite::Madvise,
        FaultSite::CkptWrite,
        FaultSite::CkptRename,
        FaultSite::StepNan,
        FaultSite::FluxCorrupt,
        FaultSite::DtZero,
        FaultSite::WorkerKill,
        FaultSite::HeartbeatDrop,
        FaultSite::MsgTruncate,
        FaultSite::SpawnFail,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::HugeTlbMmap => 0,
            FaultSite::AnonMmap => 1,
            FaultSite::Madvise => 2,
            FaultSite::CkptWrite => 3,
            FaultSite::CkptRename => 4,
            FaultSite::StepNan => 5,
            FaultSite::FluxCorrupt => 6,
            FaultSite::DtZero => 7,
            FaultSite::WorkerKill => 8,
            FaultSite::HeartbeatDrop => 9,
            FaultSite::MsgTruncate => 10,
            FaultSite::SpawnFail => 11,
        }
    }

    /// The spec-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::HugeTlbMmap => "hugetlb-mmap",
            FaultSite::AnonMmap => "anon-mmap",
            FaultSite::Madvise => "madvise",
            FaultSite::CkptWrite => "ckpt-write",
            FaultSite::CkptRename => "ckpt-rename",
            FaultSite::StepNan => "step-nan",
            FaultSite::FluxCorrupt => "flux-corrupt",
            FaultSite::DtZero => "dt-zero",
            FaultSite::WorkerKill => "worker-kill",
            FaultSite::HeartbeatDrop => "heartbeat-drop",
            FaultSite::MsgTruncate => "msg-truncate",
            FaultSite::SpawnFail => "spawn-fail",
        }
    }

    fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.name() == s)
    }

    /// Default errno when the spec names none: allocation sites report
    /// pool exhaustion, I/O sites report an I/O error. State-corruption
    /// sites never surface an errno ([`fires`] discards it) but get EINVAL
    /// so a misaddressed rule still produces a defined failure.
    fn default_errno(self) -> i32 {
        match self {
            FaultSite::HugeTlbMmap | FaultSite::AnonMmap => libc::ENOMEM,
            FaultSite::Madvise => libc::EINVAL,
            FaultSite::CkptWrite | FaultSite::CkptRename => libc::EIO,
            FaultSite::StepNan | FaultSite::FluxCorrupt | FaultSite::DtZero => libc::EINVAL,
            // Process-level sites: the kill/drop hooks only ask whether the
            // rule fires; a truncated frame reads as a broken pipe, a
            // failed spawn as transient resource exhaustion.
            FaultSite::WorkerKill | FaultSite::HeartbeatDrop => libc::EINVAL,
            FaultSite::MsgTruncate => libc::EPIPE,
            FaultSite::SpawnFail => libc::EAGAIN,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// When a rule fires at its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Every call fails.
    Always { errno: i32 },
    /// Calls `1..=n` fail, later ones succeed — transient exhaustion that
    /// a bounded retry loop recovers from.
    FirstN { n: u32, errno: i32 },
    /// Exactly call `n` (1-based) fails.
    Nth { n: u32, errno: i32 },
    /// A seeded coin: fires with probability `permille`/1000 per call,
    /// deterministically derived from (seed, site, call#).
    Prob { permille: u16, errno: i32 },
    /// I/O sites only: accept `bytes` bytes, then fail — simulating a kill
    /// mid-write.
    ShortWrite { bytes: usize },
}

/// One site-addressed rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRule {
    pub site: FaultSite,
    pub kind: FaultKind,
}

/// What an I/O site should do, as decided by the active plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// Fail outright with this errno.
    Errno(i32),
    /// Accept this many bytes, then fail (kill mid-write).
    ShortWrite(usize),
}

impl IoFault {
    /// Render as the `std::io::Error` the faulted call should return
    /// (short writes read as plain I/O errors at non-streaming sites).
    pub fn into_io_error(self) -> std::io::Error {
        match self {
            IoFault::Errno(errno) => std::io::Error::from_raw_os_error(errno),
            IoFault::ShortWrite(_) => std::io::Error::from_raw_os_error(libc::EIO),
        }
    }
}

/// A seeded, site-addressable set of fault rules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed (only `prob` rules consume it).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Builder: add a rule.
    pub fn with(mut self, site: FaultSite, kind: FaultKind) -> FaultPlan {
        self.rules.push(FaultRule { site, kind });
        self
    }

    /// `true` when no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The plan's seed (consumed by `prob` rules).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The registered rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Parse a spec string (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan> {
        let mut plan = FaultPlan::new(0);
        for entry in spec.split([';', ',']) {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((lhs, rhs)) = entry.split_once('=') else {
                return Err(bad(spec, format!("entry {entry:?} has no '='")));
            };
            let (lhs, rhs) = (lhs.trim(), rhs.trim());
            if lhs == "seed" {
                plan.seed = rhs
                    .parse()
                    .map_err(|_| bad(spec, format!("seed {rhs:?} is not a u64")))?;
                continue;
            }
            let Some(site) = FaultSite::parse(lhs) else {
                return Err(bad(spec, format!("unknown site {lhs:?}")));
            };
            let kind = parse_kind(site, rhs).map_err(|detail| bad(spec, detail))?;
            plan.rules.push(FaultRule { site, kind });
        }
        Ok(plan)
    }

    /// Read [`FAULTS_ENV_VAR`]. `Ok(None)` when unset or empty.
    pub fn from_env() -> Result<Option<FaultPlan>> {
        match std::env::var(FAULTS_ENV_VAR) {
            Ok(v) if v.trim().is_empty() => Ok(None),
            Ok(v) => FaultPlan::parse(&v).map(Some),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(v)) => Err(Error::BadFaultSpec {
                value: v.to_string_lossy().into_owned(),
                detail: "not unicode".into(),
            }),
        }
    }

    /// Activate this plan for the current thread until the guard drops.
    /// Nested activations stack: the innermost plan wins.
    pub fn activate(self) -> FaultGuard {
        TLS_STACK.with(|stack| {
            stack.borrow_mut().push(Arc::new(ActivePlan::new(self)));
        });
        FaultGuard { _private: () }
    }
}

fn bad(spec: &str, detail: String) -> Error {
    Error::BadFaultSpec {
        value: spec.to_string(),
        detail,
    }
}

fn parse_errno(s: &str) -> std::result::Result<i32, String> {
    match s {
        "ENOMEM" => Ok(libc::ENOMEM),
        "EAGAIN" => Ok(libc::EAGAIN),
        "EINVAL" => Ok(libc::EINVAL),
        "EACCES" => Ok(libc::EACCES),
        "EPERM" => Ok(libc::EPERM),
        "EIO" => Ok(libc::EIO),
        "ENOSPC" => Ok(libc::ENOSPC),
        "EPIPE" => Ok(libc::EPIPE),
        other => other
            .parse()
            .map_err(|_| format!("unknown errno {other:?}")),
    }
}

fn parse_kind(site: FaultSite, s: &str) -> std::result::Result<FaultKind, String> {
    let mut parts = s.split(':');
    let head = parts.next().unwrap_or_default().trim();
    let args: Vec<&str> = parts.map(str::trim).collect();
    let errno_arg = |idx: usize| -> std::result::Result<i32, String> {
        match args.get(idx) {
            Some(e) => parse_errno(e),
            None => Ok(site.default_errno()),
        }
    };
    let num_arg = |idx: usize, what: &str| -> std::result::Result<u64, String> {
        args.get(idx)
            .ok_or_else(|| format!("'{head}' needs a {what} argument"))?
            .parse()
            .map_err(|_| format!("'{head}' {what} argument is not a number"))
    };
    match head {
        "always" => Ok(FaultKind::Always {
            errno: errno_arg(0)?,
        }),
        // `first` alone means `first:1` — one transient failure, the shape
        // every retry loop must survive.
        "first" if args.is_empty() => Ok(FaultKind::FirstN {
            n: 1,
            errno: site.default_errno(),
        }),
        "first" => Ok(FaultKind::FirstN {
            n: num_arg(0, "count")? as u32,
            errno: errno_arg(1)?,
        }),
        "nth" => Ok(FaultKind::Nth {
            n: num_arg(0, "index")? as u32,
            errno: errno_arg(1)?,
        }),
        "prob" => {
            let permille = num_arg(0, "permille")?;
            if permille > 1000 {
                return Err(format!("prob permille {permille} exceeds 1000"));
            }
            Ok(FaultKind::Prob {
                permille: permille as u16,
                errno: errno_arg(1)?,
            })
        }
        "short" => {
            if !matches!(site, FaultSite::CkptWrite | FaultSite::MsgTruncate) {
                return Err(format!(
                    "'short' only applies to ckpt-write or msg-truncate, not {site}"
                ));
            }
            Ok(FaultKind::ShortWrite {
                bytes: num_arg(0, "byte count")? as usize,
            })
        }
        other => Err(format!("unknown fault kind {other:?}")),
    }
}

/// Scope guard returned by [`FaultPlan::activate`].
pub struct FaultGuard {
    _private: (),
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        TLS_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// A plan plus its per-site call counters.
struct ActivePlan {
    plan: FaultPlan,
    counts: [AtomicU32; NSITES],
}

impl ActivePlan {
    fn new(plan: FaultPlan) -> ActivePlan {
        ActivePlan {
            plan,
            counts: Default::default(),
        }
    }

    /// Count the call and decide whether a rule fires. The first matching
    /// rule for the site wins.
    fn decide(&self, site: FaultSite) -> Option<IoFault> {
        let call = self.counts[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        for rule in &self.plan.rules {
            if rule.site != site {
                continue;
            }
            let fired = match rule.kind {
                FaultKind::Always { errno } => Some(IoFault::Errno(errno)),
                FaultKind::FirstN { n, errno } => (call <= n).then_some(IoFault::Errno(errno)),
                FaultKind::Nth { n, errno } => (call == n).then_some(IoFault::Errno(errno)),
                FaultKind::Prob { permille, errno } => {
                    let h = splitmix64(
                        self.plan
                            .seed
                            .wrapping_mul(0x9E3779B97F4A7C15)
                            .wrapping_add(((site.index() as u64) << 32) | call as u64),
                    );
                    (h % 1000 < permille as u64).then_some(IoFault::Errno(errno))
                }
                FaultKind::ShortWrite { bytes } => Some(IoFault::ShortWrite(bytes)),
            };
            if let Some(f) = fired {
                hit();
                return Some(f);
            }
        }
        None
    }
}

fn hit() {
    metrics::count_injected();
}

/// SplitMix64 — the standard 64-bit finalizer, giving a well-mixed
/// deterministic hash for the seeded-probability rules.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

thread_local! {
    static TLS_STACK: RefCell<Vec<Arc<ActivePlan>>> = const { RefCell::new(Vec::new()) };
}

/// The process-global plan from [`FAULTS_ENV_VAR`], parsed once. A malformed
/// spec is reported to stderr (once) and treated as "no plan" — a library
/// must not abort the host process, and the explicit [`FaultPlan::from_env`]
/// path is available to binaries that want the typed error.
static GLOBAL: OnceLock<Option<Arc<ActivePlan>>> = OnceLock::new();

fn global_plan() -> Option<Arc<ActivePlan>> {
    GLOBAL
        .get_or_init(|| match FaultPlan::from_env() {
            Ok(Some(plan)) if !plan.is_empty() => Some(Arc::new(ActivePlan::new(plan))),
            Ok(_) => None,
            Err(e) => {
                eprintln!("rflash-hugepages: ignoring malformed {FAULTS_ENV_VAR}: {e}");
                None
            }
        })
        .clone()
}

fn current() -> Option<Arc<ActivePlan>> {
    let local = TLS_STACK.with(|stack| stack.borrow().last().cloned());
    local.or_else(global_plan)
}

/// Consult the active plan at an allocation/madvise site. Returns the errno
/// to fail with, or `None` to proceed with the real call.
pub(crate) fn check_errno(site: FaultSite) -> Option<i32> {
    match current()?.decide(site)? {
        IoFault::Errno(errno) => Some(errno),
        // ShortWrite on a non-I/O site is meaningless; treat as a plain
        // failure so a misaddressed rule is still loud.
        IoFault::ShortWrite(_) => Some(site.default_errno()),
    }
}

/// Consult the active plan at an I/O site (checkpoint writer/rename).
/// Public: `rflash-core` threads its checkpoint I/O through this.
pub fn check_io(site: FaultSite) -> Option<IoFault> {
    current()?.decide(site)
}

/// Consult the active plan at a state-corruption site (`step-nan`,
/// `flux-corrupt`, `dt-zero`): `true` when the rule fires and the hook
/// should corrupt its value. The errno a rule may carry is irrelevant
/// here — nothing fails, a value silently goes bad, and the step
/// guardian's validation scan is what must catch it.
pub fn fires(site: FaultSite) -> bool {
    match current() {
        Some(plan) => plan.decide(site).is_some(),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=42; hugetlb-mmap=always:ENOMEM; anon-mmap=nth:3:EAGAIN; \
             madvise=first:2; ckpt-write=short:4096, ckpt-rename=prob:500:EIO",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules().len(), 5);
        assert_eq!(
            plan.rules()[0],
            FaultRule {
                site: FaultSite::HugeTlbMmap,
                kind: FaultKind::Always {
                    errno: libc::ENOMEM
                },
            }
        );
        assert_eq!(
            plan.rules()[2].kind,
            FaultKind::FirstN {
                n: 2,
                errno: libc::EINVAL, // madvise default
            }
        );
        assert_eq!(plan.rules()[3].kind, FaultKind::ShortWrite { bytes: 4096 });
    }

    #[test]
    fn parse_rejects_garbage_with_detail() {
        for (spec, needle) in [
            ("hugetlb-mmap", "no '='"),
            ("warp-drive=always", "unknown site"),
            ("madvise=sometimes", "unknown fault kind"),
            ("anon-mmap=nth", "needs a index"),
            ("anon-mmap=always:EWHAT", "unknown errno"),
            ("seed=banana", "not a u64"),
            ("madvise=prob:2000", "exceeds 1000"),
            ("hugetlb-mmap=short:8", "only applies to ckpt-write"),
        ] {
            match FaultPlan::parse(spec) {
                Err(Error::BadFaultSpec { detail, .. }) => {
                    assert!(detail.contains(needle), "{spec}: {detail}");
                }
                other => panic!("{spec}: expected BadFaultSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn first_n_is_transient() {
        let plan = FaultPlan::new(0).with(
            FaultSite::HugeTlbMmap,
            FaultKind::FirstN {
                n: 2,
                errno: libc::ENOMEM,
            },
        );
        let _guard = plan.activate();
        assert_eq!(check_errno(FaultSite::HugeTlbMmap), Some(libc::ENOMEM));
        assert_eq!(check_errno(FaultSite::HugeTlbMmap), Some(libc::ENOMEM));
        assert_eq!(check_errno(FaultSite::HugeTlbMmap), None);
        // Other sites are untouched.
        assert_eq!(check_errno(FaultSite::AnonMmap), None);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let plan = FaultPlan::new(0).with(
            FaultSite::AnonMmap,
            FaultKind::Nth {
                n: 3,
                errno: libc::EAGAIN,
            },
        );
        let _guard = plan.activate();
        let fires: Vec<bool> = (0..5)
            .map(|_| check_errno(FaultSite::AnonMmap).is_some())
            .collect();
        assert_eq!(fires, [false, false, true, false, false]);
    }

    #[test]
    fn guard_scopes_and_nests() {
        assert_eq!(check_errno(FaultSite::Madvise), None);
        {
            let _outer = FaultPlan::new(0)
                .with(
                    FaultSite::Madvise,
                    FaultKind::Always {
                        errno: libc::EINVAL,
                    },
                )
                .activate();
            assert_eq!(check_errno(FaultSite::Madvise), Some(libc::EINVAL));
            {
                let _inner = FaultPlan::new(0).activate(); // empty plan masks outer
                assert_eq!(check_errno(FaultSite::Madvise), None);
            }
            assert_eq!(check_errno(FaultSite::Madvise), Some(libc::EINVAL));
        }
        assert_eq!(check_errno(FaultSite::Madvise), None);
    }

    #[test]
    fn prob_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let _g = FaultPlan::new(seed)
                .with(
                    FaultSite::CkptRename,
                    FaultKind::Prob {
                        permille: 500,
                        errno: libc::EIO,
                    },
                )
                .activate();
            (0..64)
                .map(|_| check_io(FaultSite::CkptRename).is_some())
                .collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same firing pattern");
        assert_ne!(a, c, "different seed, different pattern");
        let fires = a.iter().filter(|&&x| x).count();
        assert!((10..=54).contains(&fires), "~half should fire, got {fires}");
    }

    #[test]
    fn short_write_reaches_io_sites() {
        let _g = FaultPlan::new(0)
            .with(FaultSite::CkptWrite, FaultKind::ShortWrite { bytes: 100 })
            .activate();
        assert_eq!(
            check_io(FaultSite::CkptWrite),
            Some(IoFault::ShortWrite(100))
        );
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
        }
        assert_eq!(FaultSite::parse("nope"), None);
    }

    #[test]
    fn guardian_sites_parse_and_first_defaults_to_one() {
        let plan = FaultPlan::parse("step-nan=first; flux-corrupt=nth:5; dt-zero=always").unwrap();
        assert_eq!(
            plan.rules()[0],
            FaultRule {
                site: FaultSite::StepNan,
                kind: FaultKind::FirstN {
                    n: 1,
                    errno: libc::EINVAL,
                },
            }
        );
        assert_eq!(plan.rules()[1].site, FaultSite::FluxCorrupt);
        assert_eq!(plan.rules()[2].site, FaultSite::DtZero);
        // An explicit count still parses.
        let plan = FaultPlan::parse("flux-corrupt=first:3").unwrap();
        assert_eq!(
            plan.rules()[0].kind,
            FaultKind::FirstN {
                n: 3,
                errno: libc::EINVAL,
            }
        );
    }

    #[test]
    fn process_sites_parse_with_fleet_semantics() {
        // The drill grammar the fleet CI matrix uses: a kill at the Nth
        // step boundary, a silent hang at the first, a frame truncated
        // after 64 bytes, and every respawn attempt failing.
        let plan = FaultPlan::parse(
            "worker-kill=nth:2; heartbeat-drop=first; msg-truncate=short:64; spawn-fail=always",
        )
        .unwrap();
        assert_eq!(
            plan.rules()[0],
            FaultRule {
                site: FaultSite::WorkerKill,
                kind: FaultKind::Nth {
                    n: 2,
                    errno: libc::EINVAL,
                },
            }
        );
        assert_eq!(plan.rules()[1].site, FaultSite::HeartbeatDrop);
        assert_eq!(
            plan.rules()[2],
            FaultRule {
                site: FaultSite::MsgTruncate,
                kind: FaultKind::ShortWrite { bytes: 64 },
            }
        );
        assert_eq!(
            plan.rules()[3].kind,
            FaultKind::Always {
                errno: libc::EAGAIN
            },
        );
        // `short` stays confined to the two streaming I/O sites.
        assert!(FaultPlan::parse("spawn-fail=short:8").is_err());
    }

    #[test]
    fn worker_kill_counts_step_boundaries_deterministically() {
        let _g = FaultPlan::new(0)
            .with(
                FaultSite::WorkerKill,
                FaultKind::Nth {
                    n: 3,
                    errno: libc::EINVAL,
                },
            )
            .activate();
        let boundaries: Vec<bool> = (0..5).map(|_| fires(FaultSite::WorkerKill)).collect();
        assert_eq!(boundaries, [false, false, true, false, false]);
    }

    #[test]
    fn fires_is_transient_and_scoped() {
        assert!(!fires(FaultSite::FluxCorrupt), "no plan, no fire");
        let _g = FaultPlan::new(0)
            .with(
                FaultSite::FluxCorrupt,
                FaultKind::FirstN {
                    n: 1,
                    errno: libc::EINVAL,
                },
            )
            .activate();
        assert!(fires(FaultSite::FluxCorrupt), "first call fires");
        assert!(!fires(FaultSite::FluxCorrupt), "transient: second is clean");
        assert!(!fires(FaultSite::StepNan), "other sites untouched");
    }
}

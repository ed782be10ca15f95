//! The tabulated electron/positron EOS.
//!
//! FLASH's Helmholtz EOS interpolates a pre-computed table instead of
//! solving the Fermi–Dirac system per zone — that table (a few MB, accessed
//! by data-dependent indices from every zone of every block) is the main
//! DTLB-pressure source of the paper's "EOS" experiment. We compute the
//! table from the exact [`crate::electron`] physics and store it in a
//! [`PageBuffer`] so its memory backing follows the huge-page policy.
//!
//! The table mirrors FLASH's `helm_table.dat` structure: separate planes per
//! quantity and derivative (value, ∂/∂x, ∂/∂y, ∂²/∂x∂y for each of log P,
//! log E, log S), so one full interpolation gathers 48 doubles scattered
//! over 12 planes. The batched EOS asks for fewer (`Quantities`): 16 per
//! quantity it actually reads. Those loads are the access signature the
//! TLB model replays.
//!
//! A run reads a fraction of the temperature rows, so the table is computed
//! where it is read: a lookup that lands on a row nobody has computed yet
//! computes it, and one background thread started with the table computes
//! the rest ([`HelmTable::lazy`]). Every value a lookup returns is the same
//! bits as from a table computed up front ([`HelmTable::build`]).

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

use rflash_hugepages::{PageBuffer, Policy};
use rflash_simd::{Lane, Resolved, WithLanes};

use crate::electron::electron_state_with_guess;
use crate::EosError;

/// Quantities stored in the table (log10 of each).
const N_QUANT: usize = 3;
/// Plane-block index of each quantity.
const PRES: usize = 0;
const ENER: usize = 1;
const ENTR: usize = 2;
/// Derivative planes per quantity: value, d/dx, d/dy, d²/dxdy.
const N_DERIV: usize = 4;

/// Publication states of a row, value and coefficient rows alike: nobody
/// has claimed it, its claimant is writing it, its elements are final.
const EMPTY: u8 = 0;
const BUILDING: u8 = 1;
const READY: u8 = 2;

/// Table geometry and domain.
#[derive(Clone, Copy, Debug)]
pub struct TableConfig {
    /// Grid points along log10(ρYₑ).
    pub n_rho: usize,
    /// Grid points along log10(T).
    pub n_temp: usize,
    /// log10(ρYₑ) domain, g/cm³.
    pub log_rho_ye: (f64, f64),
    /// log10(T) domain, K.
    pub log_temp: (f64, f64),
}

impl Default for TableConfig {
    /// Production default: spans white-dwarf conditions with FLASH-like
    /// resolution (≈ 0.05 dex in density, 0.08 dex in temperature).
    fn default() -> Self {
        TableConfig {
            n_rho: 241,
            n_temp: 101,
            log_rho_ye: (-4.0, 10.0),
            log_temp: (3.5, 11.5),
        }
    }
}

impl TableConfig {
    /// A coarse table for fast construction in tests/examples.
    pub fn coarse() -> TableConfig {
        TableConfig {
            n_rho: 41,
            n_temp: 33,
            ..TableConfig::default()
        }
    }
}

/// Interpolated electron-gas quantities at one (ρYₑ, T) point.
///
/// Derivative slopes are logarithmic: `dlnp_dlnr` = ∂lnP/∂ln(ρYₑ) at fixed
/// T, `dlnp_dlnt` = ∂lnP/∂lnT at fixed ρYₑ; likewise for energy.
#[derive(Clone, Copy, Debug, Default)]
pub struct ElecPoint {
    /// Pressure, erg/cm³.
    pub pres: f64,
    /// Energy density, erg/cm³.
    pub ener: f64,
    /// Entropy density, erg/(cm³·K).
    pub entr: f64,
    pub dlnp_dlnr: f64,
    pub dlnp_dlnt: f64,
    pub dlne_dlnt: f64,
}

/// A set of tabulated quantities one interpolation evaluates. Each comes
/// with exactly the slopes some caller reads: pressure with both, energy
/// with its temperature slope, entropy with none. Every quantity costs its
/// own 16 coefficient loads and one `10^x`; the others' fields of the
/// [`ElecPoint`] are left as they were.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quantities(u8);

impl Quantities {
    pub const PRES: Quantities = Quantities(1 << PRES);
    pub const ENER: Quantities = Quantities(1 << ENER);
    pub const ALL: Quantities = Quantities(1 << PRES | 1 << ENER | 1 << ENTR);

    pub const fn with(self, other: Quantities) -> Quantities {
        Quantities(self.0 | other.0)
    }

    pub(crate) const fn without(self, other: Quantities) -> Quantities {
        Quantities(self.0 & !other.0)
    }

    pub(crate) const fn is_empty(self) -> bool {
        self.0 == 0
    }

    const fn has(self, q: usize) -> bool {
        self.0 & (1 << q) != 0
    }
}

/// One point's density coordinate, located once and reused at every
/// temperature a Newton solve tries: log10(ρYₑ) and its cell column and
/// fraction. It carries no verdict on the domain — every interpolation
/// through it checks log10(ρYₑ) first and log10(T) second, as
/// [`HelmTable::interp`] does, so errors keep their order.
#[derive(Clone, Copy, Debug)]
pub struct RhoCell {
    x: f64,
    ir: usize,
    tx: f64,
}

/// How a table's temperature rows came to be: what a run paid for at
/// set-up, in its step loop, and off its critical path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowsBuilt {
    /// Rows solved by the thread whose lookup needed them (every row of a
    /// table from [`HelmTable::build`] counts here).
    pub on_demand: usize,
    /// Rows solved by the background thread.
    pub background: usize,
}

/// Who solves a value row, for [`RowsBuilt`].
#[derive(Clone, Copy)]
enum Builder {
    Demand,
    Background,
}

/// The tabulated electron/positron EOS.
pub struct HelmTable {
    planes: Arc<Planes>,
    /// The thread computing the rows nobody has asked for yet; stopped
    /// and joined on drop.
    background: Option<JoinHandle<()>>,
}

/// The table's storage and the publication state of its rows, shared by
/// the lookups and the background thread.
///
/// Temperature row `it` is published in two layers. Its *value row* is the
/// three value planes and the three d/dx planes at `it`: one left-to-right
/// warm-started η sweep that never crosses rows, plus a difference along
/// it. Its *coefficient row* is the d/dy and d²/dxdy planes at `it`,
/// derived from value rows `it-1..=it+1`. A lookup in the cell above row
/// `it` reads all twelve planes at rows `it` and `it+1`, so it needs those
/// two coefficient rows; everything a coefficient row reads was published
/// before it.
struct Planes {
    config: TableConfig,
    dx: f64, // log10 rho_ye spacing
    dy: f64, // log10 T spacing
    /// Element 0 of `data`: every read and write of the planes goes through
    /// it, under the row-publication protocol of the `Sync` impl below.
    base: *mut f64,
    /// 12 planes of n_temp × n_rho doubles, plane-major:
    /// `data[((q*N_DERIV + d) * n_temp + it) * n_rho + ir]`. Owns the
    /// mapping `base` points into; never viewed as a slice.
    data: PageBuffer<f64>,
    /// State of each value row.
    value: Box<[AtomicU8]>,
    /// Each value row's solve outcome, set by its claimant before READY.
    solved: Box<[OnceLock<Result<(), EosError>>]>,
    /// State of each coefficient row.
    coeff: Box<[AtomicU8]>,
    /// Held to check a row's state before waiting, and to publish.
    lock: Mutex<()>,
    /// Notified whenever a row leaves BUILDING.
    published: Condvar,
    /// Lowest and highest value row a lookup has needed (lo > hi: none yet).
    demand_lo: AtomicUsize,
    demand_hi: AtomicUsize,
    /// Set by [`HelmTable`]'s drop: the background thread stops after its
    /// current row.
    stop: AtomicBool,
    on_demand: AtomicUsize,
    background: AtomicUsize,
}

// SAFETY: row publication. An element of the planes belongs to one row
// (value row for d = 0, 1; coefficient row for d = 2, 3). It is written
// only by the thread that moved that row EMPTY → BUILDING by
// compare-exchange (so by one thread at a time; a claimant that panics
// hands the row back unpublished), and only before that thread's
// `Release` store of READY. It is read only by a thread that saw
// the row READY with an `Acquire` load (directly, or through a coefficient
// row that needed it), or by the claimant itself. So no read overlaps a
// write and every read happens after the write it sees. No reference to
// the planes spans a row that is not READY: lookups read single elements
// through `base`, and the test-only `Planes::complete_slice` exists only
// once every row is READY. `base` points into the mapping `data` owns, so
// moving the owner between threads moves neither the mapping nor this
// protocol.
unsafe impl Sync for Planes {}
unsafe impl Send for Planes {}

/// A won EMPTY → BUILDING claim on one row. Dropped unpublished — its
/// claimant panicked — it hands the row back, so waiters retry instead of
/// hanging.
struct Claim<'a> {
    planes: &'a Planes,
    state: &'a AtomicU8,
}

impl<'a> Claim<'a> {
    fn take(planes: &'a Planes, state: &'a AtomicU8) -> Option<Claim<'a>> {
        state
            .compare_exchange(EMPTY, BUILDING, Acquire, Relaxed)
            .ok()
            .map(|_| Claim { planes, state })
    }

    fn publish(self) {
        self.planes.set_state(self.state, READY);
        std::mem::forget(self);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.planes.set_state(self.state, EMPTY);
    }
}

/// A node slope from its two neighbouring secants: their mean, one-sided
/// at an edge, then Fritsch–Carlson limited. log P, log E, log S are
/// physically non-decreasing in both log ρYₑ and log T, and a cubic Hermite
/// stays monotone when each node slope is within [0, 3·min(adjacent
/// secants)]. Unlimited central differences overshoot at the sharp
/// pair-creation/degeneracy transitions, producing non-monotone
/// interpolants that break the Newton inversions.
fn limited_slope(sec_lo: Option<f64>, sec_hi: Option<f64>) -> f64 {
    let d = match (sec_lo, sec_hi) {
        (Some(a), Some(b)) => 0.5 * (a + b),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => 0.0,
    };
    let cap = 3.0
        * sec_lo
            .unwrap_or(f64::INFINITY)
            .min(sec_hi.unwrap_or(f64::INFINITY))
            .max(0.0);
    d.clamp(0.0, cap)
}

impl Planes {
    /// An all-EMPTY table of `config` on a fresh `policy` buffer.
    fn empty(config: TableConfig, policy: Policy) -> Result<Planes, EosError> {
        assert!(config.n_rho >= 4 && config.n_temp >= 4, "table too small");
        let (x0, x1) = config.log_rho_ye;
        let (y0, y1) = config.log_temp;
        assert!(x1 > x0 && y1 > y0, "degenerate table domain");
        let nt = config.n_temp;
        let mut data = PageBuffer::<f64>::zeroed(config.n_rho * nt * N_QUANT * N_DERIV, policy)
            .map_err(|e| EosError::Allocation {
                what: "helm table",
                detail: e.to_string(),
            })?;
        let rows = || (0..nt).map(|_| AtomicU8::new(EMPTY)).collect();
        Ok(Planes {
            config,
            dx: (x1 - x0) / (config.n_rho - 1) as f64,
            dy: (y1 - y0) / (nt - 1) as f64,
            base: data.as_mut_slice().as_mut_ptr(),
            data,
            value: rows(),
            solved: (0..nt).map(|_| OnceLock::new()).collect(),
            coeff: rows(),
            lock: Mutex::new(()),
            published: Condvar::new(),
            demand_lo: AtomicUsize::new(usize::MAX),
            demand_hi: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            on_demand: AtomicUsize::new(0),
            background: AtomicUsize::new(0),
        })
    }

    /// Buffer index of plane (q, d) at table node `node` (= it·n_rho + ir).
    #[inline(always)]
    fn index(&self, q: usize, d: usize, node: usize) -> usize {
        ((q * N_DERIV + d) * self.config.n_temp * self.config.n_rho) + node
    }

    /// Read element `i`.
    ///
    /// # Safety
    ///
    /// `i` is in bounds and belongs to a row this thread has seen READY,
    /// or has claimed and already written.
    #[inline(always)]
    unsafe fn load(&self, i: usize) -> f64 {
        debug_assert!(i < self.data.len());
        self.base.add(i).read()
    }

    /// Write element `i`.
    ///
    /// # Safety
    ///
    /// `i` is in bounds and belongs to a row this thread holds a [`Claim`]
    /// on.
    #[inline(always)]
    unsafe fn store(&self, i: usize, v: f64) {
        debug_assert!(i < self.data.len());
        self.base.add(i).write(v)
    }

    /// The planes as one slice, once every row is READY.
    #[cfg(test)]
    fn complete_slice(&self) -> Option<&[f64]> {
        let ready = self.coeff.iter().all(|row| row.load(Acquire) == READY);
        ready.then(|| {
            // SAFETY: every coefficient row was seen READY with an
            // `Acquire` load, and each was published after its elements
            // and the value rows it read were final. A READY row is never
            // written again, so nothing writes under this shared view
            // while it lives.
            unsafe { std::slice::from_raw_parts(self.base, self.data.len()) }
        })
    }

    fn rows_built(&self) -> RowsBuilt {
        RowsBuilt {
            on_demand: self.on_demand.load(Relaxed),
            background: self.background.load(Relaxed),
        }
    }

    /// Move a claimed row to `to` and wake every waiter.
    fn set_state(&self, state: &AtomicU8, to: u8) {
        state.store(to, Release);
        // Taking the lock orders this store against a waiter that checked
        // the state under it and is about to wait.
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        self.published.notify_all();
    }

    /// Block while another thread builds the row behind `state`.
    fn wait_while_building(&self, state: &AtomicU8) {
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while state.load(Acquire) == BUILDING {
            guard = self
                .published
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Solve value row `it` if nobody has claimed it: log10 of p, e, s at
    /// every density node, warm-starting the η solve along the row, and
    /// their limited d/dx. Returns whether this call solved it.
    fn build_value(&self, it: usize, who: Builder) -> bool {
        let Some(claim) = Claim::take(self, &self.value[it]) else {
            return false;
        };
        let outcome = self.solve_value_row(it);
        if outcome.is_ok() {
            match who {
                Builder::Demand => &self.on_demand,
                Builder::Background => &self.background,
            }
            .fetch_add(1, Relaxed);
        }
        let _ = self.solved[it].set(outcome);
        claim.publish();
        true
    }

    fn solve_value_row(&self, it: usize) -> Result<(), EosError> {
        let c = self.config;
        let nr = c.n_rho;
        let temp = 10f64.powf(c.log_temp.0 + it as f64 * self.dy);
        let mut vals = vec![0.0; N_QUANT * nr];
        let mut eta_guess = None;
        for ir in 0..nr {
            let rho_ye = 10f64.powf(c.log_rho_ye.0 + ir as f64 * self.dx);
            let st = electron_state_with_guess(rho_ye, temp, eta_guess)?;
            eta_guess = Some(st.eta);
            vals[PRES * nr + ir] = st.pres.log10();
            vals[ENER * nr + ir] = st.ener.log10();
            vals[ENTR * nr + ir] = st.entr.max(1e-300).log10();
        }
        for (q, v) in vals.chunks_exact(nr).enumerate() {
            for ir in 0..nr {
                let sec_lo = (ir > 0).then(|| (v[ir] - v[ir - 1]) / self.dx);
                let sec_hi = (ir + 1 < nr).then(|| (v[ir + 1] - v[ir]) / self.dx);
                let node = it * nr + ir;
                // SAFETY: planes d = 0, 1 at row `it` are value row `it`,
                // which the caller has claimed.
                unsafe {
                    self.store(self.index(q, 0, node), v[ir]);
                    self.store(self.index(q, 1, node), limited_slope(sec_lo, sec_hi));
                }
            }
        }
        Ok(())
    }

    /// Wait until value row `it` is solved (solving it here if nobody has
    /// claimed it) and return its outcome.
    fn ensure_value(&self, it: usize, who: Builder) -> Result<(), EosError> {
        loop {
            if let Some(outcome) = self.solved[it].get() {
                return outcome.clone();
            }
            if !self.build_value(it, who) {
                self.wait_while_building(&self.value[it]);
            }
        }
    }

    /// Publish coefficient row `it` — the limited d/dy and the d²/dxdy of
    /// every quantity — after its value rows `it-1..=it+1`. Fails with the
    /// error of the lowest of those rows whose solve failed.
    fn ensure_coeff(&self, it: usize, who: Builder) -> Result<(), EosError> {
        let (nr, nt) = (self.config.n_rho, self.config.n_temp);
        loop {
            match self.coeff[it].load(Acquire) {
                READY => return Ok(()),
                BUILDING => self.wait_while_building(&self.coeff[it]),
                _ => {
                    for r in it.saturating_sub(1)..=(it + 1).min(nt - 1) {
                        self.ensure_value(r, who)?;
                    }
                    let Some(claim) = Claim::take(self, &self.coeff[it]) else {
                        continue;
                    };
                    let dy = self.dy;
                    for q in 0..N_QUANT {
                        for ir in 0..nr {
                            // SAFETY: value rows it-1..=it+1 (planes d = 0,
                            // 1) were seen solved above; planes d = 2, 3 at
                            // row `it` are this claim's.
                            unsafe {
                                let val = |row: usize| self.load(self.index(q, 0, row * nr + ir));
                                let sec_lo = (it > 0).then(|| (val(it) - val(it - 1)) / dy);
                                let sec_hi = (it + 1 < nt).then(|| (val(it + 1) - val(it)) / dy);
                                self.store(
                                    self.index(q, 2, it * nr + ir),
                                    limited_slope(sec_lo, sec_hi),
                                );
                                // d²/dxdy: the d/dx plane differentiated in y.
                                let dvx = |row: usize| self.load(self.index(q, 1, row * nr + ir));
                                let d = if it == 0 {
                                    (dvx(1) - dvx(0)) / dy
                                } else if it == nt - 1 {
                                    (dvx(nt - 1) - dvx(nt - 2)) / dy
                                } else {
                                    (dvx(it + 1) - dvx(it - 1)) / (2.0 * dy)
                                };
                                self.store(self.index(q, 3, it * nr + ir), d);
                            }
                        }
                    }
                    claim.publish();
                    return Ok(());
                }
            }
        }
    }

    /// A lookup's slow path: coefficient rows `it` and `it+1` are not both
    /// READY yet. Records the value rows the cell needs for the background
    /// order, then publishes both rows (solving what is missing here).
    #[cold]
    #[inline(never)]
    fn demand(&self, it: usize) -> Result<(), EosError> {
        let nt = self.config.n_temp;
        self.demand_lo.fetch_min(it.saturating_sub(1), Relaxed);
        self.demand_hi.fetch_max((it + 2).min(nt - 1), Relaxed);
        self.ensure_coeff(it, Builder::Demand)?;
        self.ensure_coeff(it + 1, Builder::Demand)
    }

    /// The unclaimed value row the background thread solves next: the
    /// lowest one inside the span of rows lookups have needed so far, then
    /// the nearest one outside it (the middle row before any lookup).
    fn next_unclaimed(&self) -> Option<usize> {
        let nt = self.config.n_temp;
        let (lo, hi) = (self.demand_lo.load(Relaxed), self.demand_hi.load(Relaxed));
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (nt / 2, nt / 2) };
        (0..nt)
            .filter(|&r| self.value[r].load(Relaxed) == EMPTY)
            .min_by_key(|&r| (lo.saturating_sub(r) + r.saturating_sub(hi), r))
    }

    /// The background thread: every value row nobody has claimed, in
    /// [`Self::next_unclaimed`] order, then every coefficient row no lookup
    /// has published. Stops between rows once `stop` is set.
    fn fill_in_background(&self) {
        while !self.stop.load(Relaxed) {
            let Some(it) = self.next_unclaimed() else {
                break;
            };
            self.build_value(it, Builder::Background);
        }
        for it in 0..self.config.n_temp {
            if self.stop.load(Relaxed) {
                return;
            }
            // A failed row's error belongs to the lookups that need it.
            let _ = self.ensure_coeff(it, Builder::Background);
        }
    }

    /// Solve every value row between the lowest and highest one lookups
    /// have needed so far, on this thread beside the background thread
    /// (this thread claims from the top, the background thread from the
    /// bottom), and wait for the background thread's share. A failed row
    /// keeps its error for the lookups that need it.
    fn solve_demanded_span(&self) {
        let (lo, hi) = (self.demand_lo.load(Relaxed), self.demand_hi.load(Relaxed));
        if lo > hi {
            return;
        }
        for it in (lo..=hi).rev() {
            self.build_value(it, Builder::Demand);
        }
        for it in lo..=hi {
            let _ = self.ensure_value(it, Builder::Demand);
        }
    }

    /// Locate a density coordinate: one `log10` and the cell column, reused
    /// by every interpolation at that ρYₑ.
    #[inline]
    fn locate_rho(&self, rho_ye: f64) -> RhoCell {
        let x = rho_ye.log10();
        let fx = (x - self.config.log_rho_ye.0) / self.dx;
        let ir = (fx as usize).min(self.config.n_rho - 2);
        RhoCell {
            x,
            ir,
            tx: fx - ir as f64,
        }
    }

    /// Domain check (ρYₑ first, then T) + cell/fraction location for a
    /// located density and a temperature, with the cell's two coefficient
    /// rows READY: one `Acquire` load each when they are, the slow path
    /// [`Self::demand`] when not.
    #[inline]
    fn locate(&self, rho: &RhoCell, temp: f64) -> Result<(usize, usize, f64, f64), EosError> {
        let (x0, x1) = self.config.log_rho_ye;
        if !(rho.x >= x0 && rho.x <= x1) {
            return Err(EosError::OutOfRange {
                what: "log10(rho*Ye)",
                value: rho.x,
                lo: x0,
                hi: x1,
            });
        }
        let y = temp.log10();
        let (y0, y1) = self.config.log_temp;
        if !(y >= y0 && y <= y1) {
            return Err(EosError::OutOfRange {
                what: "log10(T)",
                value: y,
                lo: y0,
                hi: y1,
            });
        }
        let fy = (y - y0) / self.dy;
        let it = (fy as usize).min(self.config.n_temp - 2);
        if !(self.coeff[it].load(Acquire) == READY && self.coeff[it + 1].load(Acquire) == READY) {
            self.demand(it)?;
        }
        Ok((rho.ir, it, rho.tx, fy - it as f64))
    }

    /// The bicubic Hermite kernel at an already-located cell, for the
    /// quantities `sel`; shared by the scalar and batched interpolation paths
    /// so both are bit-identical.
    #[inline]
    fn interp_located(
        &self,
        sel: Quantities,
        ir: usize,
        it: usize,
        tx: f64,
        ty: f64,
        out: &mut ElecPoint,
    ) {
        let nr = self.config.n_rho;
        let corners = [
            it * nr + ir,
            it * nr + ir + 1,
            (it + 1) * nr + ir,
            (it + 1) * nr + ir + 1,
        ];
        // Hermite basis in each direction, and its derivative.
        let basis = [
            hermite_basis(tx),
            hermite_basis(ty),
            hermite_basis_deriv(tx),
            hermite_basis_deriv(ty),
        ];
        // Slopes come back per log10(ρYₑ) and log10(T): d(log10 P)/d(log10 r)
        // equals dlnP/dlnr.
        if sel.has(PRES) {
            let [v, sx, sy] = self.cell_sums(PRES, &corners, &basis, true, true);
            out.pres = 10f64.powf(v);
            out.dlnp_dlnr = sx / self.dx;
            out.dlnp_dlnt = sy / self.dy;
        }
        if sel.has(ENER) {
            let [v, _, sy] = self.cell_sums(ENER, &corners, &basis, false, true);
            out.ener = 10f64.powf(v);
            out.dlne_dlnt = sy / self.dy;
        }
        if sel.has(ENTR) {
            let [v, _, _] = self.cell_sums(ENTR, &corners, &basis, false, false);
            out.entr = 10f64.powf(v);
        }
    }

    /// One quantity's bicubic sums over a cell from its 16 Hermite
    /// coefficients (v, vx, vy, vxy at 4 corners): the log10 value and, when
    /// asked, the x- and y-slope sums (0 when not). `corners` are nodes of a
    /// cell [`Self::locate`] returned.
    #[inline(always)]
    fn cell_sums(
        &self,
        q: usize,
        corners: &[usize; 4],
        [hx, hy, dhx, dhy]: &[[f64; 4]; 4],
        with_dx: bool,
        with_dy: bool,
    ) -> [f64; 3] {
        let mut acc = 0.0;
        let mut acc_dx = 0.0;
        let mut acc_dy = 0.0;
        for (c, &node) in corners.iter().enumerate() {
            let cx = c % 2; // 0: left corner in x, 1: right
            let cy = c / 2;
            // SAFETY: `locate` saw the cell's two coefficient rows READY,
            // and with them the value rows they were derived from: every
            // plane at both corner rows is final.
            let coeffs = unsafe { [0, 1, 2, 3].map(|d| self.load(self.index(q, d, node))) };
            let [v, vx, vy, vxy] = coeffs;
            let vx = vx * self.dx;
            let vy = vy * self.dy;
            let vxy = vxy * self.dx * self.dy;
            let (bx_v, bx_d) = (hx[cx * 2], hx[cx * 2 + 1]);
            let (by_v, by_d) = (hy[cy * 2], hy[cy * 2 + 1]);
            acc += v * bx_v * by_v + vx * bx_d * by_v + vy * bx_v * by_d + vxy * bx_d * by_d;
            if with_dx {
                let (dbx_v, dbx_d) = (dhx[cx * 2], dhx[cx * 2 + 1]);
                acc_dx +=
                    v * dbx_v * by_v + vx * dbx_d * by_v + vy * dbx_v * by_d + vxy * dbx_d * by_d;
            }
            if with_dy {
                let (dby_v, dby_d) = (dhy[cy * 2], dhy[cy * 2 + 1]);
                acc_dy +=
                    v * bx_v * dby_v + vx * bx_d * dby_v + vy * bx_v * dby_d + vxy * bx_d * dby_d;
            }
        }
        [acc, acc_dx, acc_dy]
    }
}

impl HelmTable {
    /// A table that computes its rows where they are read: a lookup solves
    /// the temperature rows its cell needs the first time it lands there,
    /// and one background thread, started here, solves the rest — first
    /// the rows between the lowest and highest ones lookups have needed,
    /// then outward. Dropping the table stops that thread after its
    /// current row. Lookups return exactly what [`HelmTable::build`]'s
    /// table returns; a lookup that needs a row whose solve failed returns
    /// that row's error.
    pub fn lazy(config: TableConfig, policy: Policy) -> Result<HelmTable, EosError> {
        let planes = Arc::new(Planes::empty(config, policy)?);
        let worker = Arc::clone(&planes);
        // Without the thread every row is still solved on demand.
        let background = std::thread::Builder::new()
            .name("helm-table".into())
            .spawn(move || worker.fill_in_background())
            .ok();
        Ok(HelmTable { planes, background })
    }

    /// Build the table by solving the exact electron gas at every node,
    /// temperature rows spread over the host's cores.
    pub fn build(config: TableConfig, policy: Policy) -> Result<HelmTable, EosError> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::build_on(config, policy, threads)
    }

    /// [`HelmTable::build`] on `threads` threads (capped at `n_temp`): an
    /// empty lazy table whose rows these threads claim in turn. The result
    /// does not depend on the thread count — every row is the same sweep
    /// written to its own plane rows — and a failure is the lowest failing
    /// row's.
    pub fn build_on(
        config: TableConfig,
        policy: Policy,
        threads: usize,
    ) -> Result<HelmTable, EosError> {
        let planes = Planes::empty(config, policy)?;
        let nt = config.n_temp;
        let next = AtomicUsize::new(0);
        let solve_rows = || loop {
            let it = next.fetch_add(1, Relaxed);
            if it >= nt {
                break;
            }
            planes.build_value(it, Builder::Demand);
        };
        std::thread::scope(|scope| {
            for _ in 1..threads.clamp(1, nt) {
                scope.spawn(solve_rows);
            }
            solve_rows();
        });
        for it in 0..nt {
            planes.ensure_coeff(it, Builder::Demand)?;
        }
        Ok(HelmTable {
            planes: Arc::new(planes),
            background: None,
        })
    }

    /// Publish every row still missing, solving on this thread whatever
    /// nobody else is: a complete table, byte-equal to [`HelmTable::build`]'s.
    /// Fails with the lowest failing row's error.
    #[cfg(test)]
    fn complete(&self) -> Result<(), EosError> {
        (0..self.planes.config.n_temp)
            .try_for_each(|it| self.planes.ensure_coeff(it, Builder::Demand))
    }

    /// Solve every temperature row between the lowest and highest one
    /// lookups have needed so far, on the calling thread and the background
    /// thread together. Set-up calls this last: a run's step loop reads the
    /// temperatures its initial condition spans before any other.
    pub fn solve_demanded_span(&self) {
        self.planes.solve_demanded_span();
    }

    /// How many temperature rows were solved on demand and solved in the
    /// background so far.
    pub fn rows_built(&self) -> RowsBuilt {
        self.planes.rows_built()
    }

    /// Table configuration.
    pub fn config(&self) -> &TableConfig {
        &self.planes.config
    }

    /// Base address of the underlying buffer (for TLB-model registration).
    pub fn base_addr(&self) -> usize {
        self.planes.data.base_addr()
    }

    /// Size of the underlying buffer in bytes.
    pub fn bytes(&self) -> usize {
        self.planes.data.len() * std::mem::size_of::<f64>()
    }

    /// How the kernel actually backs the table.
    pub fn backing_report(&self) -> rflash_hugepages::BackingReport {
        self.planes.data.backing_report()
    }

    /// Locate a density coordinate: one `log10` and the cell column, reused
    /// by every interpolation at that ρYₑ.
    #[inline]
    pub fn locate_rho(&self, rho_ye: f64) -> RhoCell {
        self.planes.locate_rho(rho_ye)
    }

    /// Interpolate the electron gas at (ρYₑ [g/cm³], T \[K\]).
    pub fn interp(&self, rho_ye: f64, temp: f64) -> Result<ElecPoint, EosError> {
        let p = &*self.planes;
        let (ir, it, tx, ty) = p.locate(&p.locate_rho(rho_ye), temp)?;
        let mut out = ElecPoint::default();
        p.interp_located(Quantities::ALL, ir, it, tx, ty, &mut out);
        Ok(out)
    }

    /// Interpolate the quantities `sel` over a batch of (ρYₑ, T) lanes under
    /// the given SIMD backend, writing only their fields of `out`: cells are
    /// located per lane (scalar, data-dependent, in lane order), then the
    /// Hermite basis and 16 coefficient gathers per quantity run as explicit
    /// `W`-wide lane ops — the table path of the batched Helmholtz EOS.
    /// Every backend is bit-identical to [`Self::interp`] on the fields it
    /// writes (same op order, no contractions; each `10^x` runs per lane
    /// through the identical scalar `powf`). The first out-of-domain lane
    /// aborts the batch. Entropy is not a lane quantity.
    pub fn interp_lanes(
        &self,
        simd: Resolved,
        sel: Quantities,
        rho: &[RhoCell],
        temp: &[f64],
        out: &mut [ElecPoint],
    ) -> Result<(), EosError> {
        debug_assert!(rho.len() == temp.len() && rho.len() == out.len());
        debug_assert!(!sel.has(ENTR), "the batched EOS never reads entropy");
        rflash_simd::dispatch(
            simd,
            InterpLanes {
                table: &self.planes,
                sel,
                rho,
                temp,
                out,
            },
        )
    }

    /// Append the element indices (into the underlying buffer) that one
    /// interpolation of `sel` at (ρYₑ, T) gathers — 16 scattered loads over
    /// each selected quantity's 4 planes. Drives the TLB model with the real
    /// access signature.
    pub(crate) fn gather_indices(
        &self,
        rho_ye: f64,
        temp: f64,
        sel: Quantities,
        out: &mut Vec<usize>,
    ) -> Result<(), EosError> {
        let p = &*self.planes;
        let (ir, it, _, _) = p.locate(&p.locate_rho(rho_ye), temp)?;
        let nr = p.config.n_rho;
        for q in (0..N_QUANT).filter(|&q| sel.has(q)) {
            for d in 0..N_DERIV {
                for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    out.push(p.index(q, d, (it + di) * nr + ir + dj));
                }
            }
        }
        Ok(())
    }
}

impl Drop for HelmTable {
    fn drop(&mut self) {
        self.planes.stop.store(true, Relaxed);
        if let Some(worker) = self.background.take() {
            // A panic on the worker has already handed its row back.
            let _ = worker.join();
        }
    }
}

/// Widest lane any compiled backend uses; sizes the per-chunk scratch
/// arrays of the vectorized interpolation.
const MAX_W: usize = 8;

/// The lane-dispatch visitor behind [`HelmTable::interp_lanes`].
struct InterpLanes<'a> {
    table: &'a Planes,
    sel: Quantities,
    rho: &'a [RhoCell],
    temp: &'a [f64],
    out: &'a mut [ElecPoint],
}

impl WithLanes for InterpLanes<'_> {
    type Output = Result<(), EosError>;

    #[inline(always)]
    fn with_lanes<L: Lane>(self) -> Result<(), EosError> {
        debug_assert!(L::W <= MAX_W);
        let t = self.table;
        let n = self.rho.len();
        let (dx, dy) = (L::splat(t.dx), L::splat(t.dy));
        let mut i = 0;
        while i + L::W <= n {
            // Locate each lane (scalar: data-dependent index math and the
            // domain check, in lane order so the first bad lane errors).
            let mut txs = [0.0; MAX_W];
            let mut tys = [0.0; MAX_W];
            let mut corner = [[0usize; MAX_W]; 4];
            let nr = t.config.n_rho;
            for k in 0..L::W {
                let (ir, it, tx, ty) = t.locate(&self.rho[i + k], self.temp[i + k])?;
                txs[k] = tx;
                tys[k] = ty;
                corner[0][k] = it * nr + ir;
                corner[1][k] = it * nr + ir + 1;
                corner[2][k] = (it + 1) * nr + ir;
                corner[3][k] = (it + 1) * nr + ir + 1;
            }
            let (tx, ty) = (L::load(&txs), L::load(&tys));
            let basis = [
                hermite_basis_lanes::<L>(tx),
                hermite_basis_lanes::<L>(ty),
                hermite_basis_deriv_lanes::<L>(tx),
                hermite_basis_deriv_lanes::<L>(ty),
            ];
            let out = &mut self.out[i..i + L::W];
            if self.sel.has(PRES) {
                let [v, sx, sy] = cell_sums::<L>(t, PRES, &corner, &basis, true, true);
                let (sx, sy) = (sx.div(dx), sy.div(dy));
                for (k, o) in out.iter_mut().enumerate() {
                    o.pres = 10f64.powf(v.extract(k));
                    o.dlnp_dlnr = sx.extract(k);
                    o.dlnp_dlnt = sy.extract(k);
                }
            }
            if self.sel.has(ENER) {
                let [v, _, sy] = cell_sums::<L>(t, ENER, &corner, &basis, false, true);
                let sy = sy.div(dy);
                for (k, o) in out.iter_mut().enumerate() {
                    o.ener = 10f64.powf(v.extract(k));
                    o.dlne_dlnt = sy.extract(k);
                }
            }
            i += L::W;
        }
        // Tail through the scalar reference kernel (bit-identical to the
        // lane kernel by the crate's contract, enforced by the tests here).
        while i < n {
            let (ir, it, tx, ty) = t.locate(&self.rho[i], self.temp[i])?;
            t.interp_located(self.sel, ir, it, tx, ty, &mut self.out[i]);
            i += 1;
        }
        Ok(())
    }
}

/// One quantity's bicubic cell sums, `W` points at once: a lane-for-lane
/// replica of [`Planes::cell_sums`]'s arithmetic (same order, no
/// contractions) with the 16 scattered coefficient loads expressed as
/// per-plane gathers. Returns the (value, x-slope, y-slope) sums, still in
/// log10 space; a slope not asked for is 0.
#[inline(always)]
fn cell_sums<L: Lane>(
    t: &Planes,
    q: usize,
    corner: &[[usize; MAX_W]; 4],
    [hx, hy, dhx, dhy]: &[[L; 4]; 4],
    with_dx: bool,
    with_dy: bool,
) -> [L; 3] {
    let dx = L::splat(t.dx);
    let dy = L::splat(t.dy);
    let mut acc = L::splat(0.0);
    let mut acc_dx = L::splat(0.0);
    let mut acc_dy = L::splat(0.0);
    for (c, nodes) in corner.iter().enumerate() {
        let cx = c % 2;
        let cy = c / 2;
        let v = gather_plane::<L>(t, q, 0, nodes);
        let vx = gather_plane::<L>(t, q, 1, nodes).mul(dx);
        let vy = gather_plane::<L>(t, q, 2, nodes).mul(dy);
        let vxy = gather_plane::<L>(t, q, 3, nodes).mul(dx).mul(dy);
        let (bx_v, bx_d) = (hx[cx * 2], hx[cx * 2 + 1]);
        let (by_v, by_d) = (hy[cy * 2], hy[cy * 2 + 1]);
        acc = acc.add(
            v.mul(bx_v)
                .mul(by_v)
                .add(vx.mul(bx_d).mul(by_v))
                .add(vy.mul(bx_v).mul(by_d))
                .add(vxy.mul(bx_d).mul(by_d)),
        );
        if with_dx {
            let (dbx_v, dbx_d) = (dhx[cx * 2], dhx[cx * 2 + 1]);
            acc_dx = acc_dx.add(
                v.mul(dbx_v)
                    .mul(by_v)
                    .add(vx.mul(dbx_d).mul(by_v))
                    .add(vy.mul(dbx_v).mul(by_d))
                    .add(vxy.mul(dbx_d).mul(by_d)),
            );
        }
        if with_dy {
            let (dby_v, dby_d) = (dhy[cy * 2], dhy[cy * 2 + 1]);
            acc_dy = acc_dy.add(
                v.mul(bx_v)
                    .mul(dby_v)
                    .add(vx.mul(bx_d).mul(dby_v))
                    .add(vy.mul(bx_v).mul(dby_d))
                    .add(vxy.mul(bx_d).mul(dby_d)),
            );
        }
    }
    [acc, acc_dx, acc_dy]
}

/// Gather one coefficient plane's value at each lane's corner node (nodes
/// of cells [`Planes::locate`] returned).
#[inline(always)]
fn gather_plane<L: Lane>(t: &Planes, q: usize, d: usize, nodes: &[usize; MAX_W]) -> L {
    let base = t.index(q, d, 0);
    // SAFETY: every lane's cell was located, so its two coefficient rows
    // (and the value rows behind them) were seen READY: the node is final.
    L::from_fn(|k| unsafe { t.load(base + nodes[k]) })
}

/// Lane twin of [`hermite_basis`], term order preserved.
#[inline(always)]
fn hermite_basis_lanes<L: Lane>(t: L) -> [L; 4] {
    let t2 = t.mul(t);
    let t3 = t2.mul(t);
    [
        L::splat(2.0)
            .mul(t3)
            .sub(L::splat(3.0).mul(t2))
            .add(L::splat(1.0)),
        t3.sub(L::splat(2.0).mul(t2)).add(t),
        L::splat(-2.0).mul(t3).add(L::splat(3.0).mul(t2)),
        t3.sub(t2),
    ]
}

/// Lane twin of [`hermite_basis_deriv`], term order preserved.
#[inline(always)]
fn hermite_basis_deriv_lanes<L: Lane>(t: L) -> [L; 4] {
    let t2 = t.mul(t);
    [
        L::splat(6.0).mul(t2).sub(L::splat(6.0).mul(t)),
        L::splat(3.0)
            .mul(t2)
            .sub(L::splat(4.0).mul(t))
            .add(L::splat(1.0)),
        L::splat(-6.0).mul(t2).add(L::splat(6.0).mul(t)),
        L::splat(3.0).mul(t2).sub(L::splat(2.0).mul(t)),
    ]
}

/// Cubic Hermite basis at parameter t: [h00, h10, h01, h11] arranged as
/// (value@0, slope@0, value@1, slope@1).
#[inline]
fn hermite_basis(t: f64) -> [f64; 4] {
    let t2 = t * t;
    let t3 = t2 * t;
    [
        2.0 * t3 - 3.0 * t2 + 1.0, // h00: value at left corner
        t3 - 2.0 * t2 + t,         // h10: slope at left corner
        -2.0 * t3 + 3.0 * t2,      // h01: value at right corner
        t3 - t2,                   // h11: slope at right corner
    ]
}

#[inline]
fn hermite_basis_deriv(t: f64) -> [f64; 4] {
    let t2 = t * t;
    [
        6.0 * t2 - 6.0 * t,
        3.0 * t2 - 4.0 * t + 1.0,
        -6.0 * t2 + 6.0 * t,
        3.0 * t2 - 2.0 * t,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::electron::electron_state;

    fn test_table() -> HelmTable {
        HelmTable::build(TableConfig::coarse(), Policy::None).unwrap()
    }

    #[test]
    fn hermite_basis_partitions_unity() {
        for t in [0.0, 0.3, 0.7, 1.0] {
            let h = hermite_basis(t);
            assert!((h[0] + h[2] - 1.0).abs() < 1e-14);
        }
        // Interpolation conditions at the endpoints.
        let h0 = hermite_basis(0.0);
        assert_eq!(h0, [1.0, 0.0, 0.0, 0.0]);
        let h1 = hermite_basis(1.0);
        assert_eq!(h1, [0.0, 0.0, 1.0, 0.0]);
        let d0 = hermite_basis_deriv(0.0);
        assert_eq!(d0[1], 1.0);
        let d1 = hermite_basis_deriv(1.0);
        assert_eq!(d1[3], 1.0);
    }

    #[test]
    fn interp_matches_exact_physics_off_grid() {
        let table = test_table();
        // Off-grid points across the domain, compared with the exact solver.
        // The last point sits at pair-creation onset, the most strongly
        // curved region of the surface; the coarse test grid (0.35 dex
        // cells) resolves it to ~1%, the production grid to much better.
        for (rho_ye, temp, tol) in [
            (3.3e2, 2.7e7, 2e-3),
            (7.7e5, 6.1e8, 2e-3),
            (2.2e8, 4.4e7, 2e-3),
            (5.0, 3.0e9, 1.5e-2),
        ] {
            let exact = electron_state(rho_ye, temp).unwrap();
            let got = table.interp(rho_ye, temp).unwrap();
            let perr = (got.pres - exact.pres).abs() / exact.pres;
            let eerr = (got.ener - exact.ener).abs() / exact.ener;
            assert!(perr < tol, "P rel err {perr:e} at ({rho_ye:e},{temp:e})");
            assert!(eerr < tol, "E rel err {eerr:e} at ({rho_ye:e},{temp:e})");
        }
    }

    #[test]
    fn interp_is_exact_on_grid_nodes() {
        let table = test_table();
        let cfg = *table.config();
        let (x0, _) = cfg.log_rho_ye;
        let (y0, _) = cfg.log_temp;
        let rho_ye = 10f64.powf(x0 + 5.0 * table.planes.dx);
        let temp = 10f64.powf(y0 + 7.0 * table.planes.dy);
        let exact = electron_state(rho_ye, temp).unwrap();
        let got = table.interp(rho_ye, temp).unwrap();
        assert!((got.pres - exact.pres).abs() / exact.pres < 1e-9);
    }

    #[test]
    fn slopes_match_polytropic_limits() {
        let table = test_table();
        // Non-relativistic degenerate: dlnP/dlnρ → 5/3.
        let p = table.interp(1e2, 1e5).unwrap();
        assert!((p.dlnp_dlnr - 5.0 / 3.0).abs() < 0.05, "{}", p.dlnp_dlnr);
        // Relativistic degenerate: → 4/3.
        let p = table.interp(1e9, 1e6).unwrap();
        assert!((p.dlnp_dlnr - 4.0 / 3.0).abs() < 0.05, "{}", p.dlnp_dlnr);
        // Non-degenerate ideal (cool enough that e± pairs are absent —
        // at 1e9 K pair creation makes dlnP/dlnT ≫ 1): dlnP/dlnT → 1.
        let p = table.interp(1e-2, 1e7).unwrap();
        assert!((p.dlnp_dlnt - 1.0).abs() < 0.1, "{}", p.dlnp_dlnt);
    }

    #[test]
    fn out_of_domain_is_typed() {
        let table = test_table();
        assert!(matches!(
            table.interp(1e20, 1e7),
            Err(EosError::OutOfRange { .. })
        ));
        assert!(matches!(
            table.interp(1.0, 1.0),
            Err(EosError::OutOfRange { .. })
        ));
    }

    #[test]
    fn gather_indices_shape() {
        let table = test_table();
        let plane_size = table.config().n_rho * table.config().n_temp;
        // 4 corners × 4 planes per selected quantity.
        for (sel, planes) in [
            (Quantities::ALL, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]),
            (
                Quantities::PRES.with(Quantities::ENER),
                vec![0, 1, 2, 3, 4, 5, 6, 7],
            ),
            (Quantities::ENER, vec![4, 5, 6, 7]),
        ] {
            let mut idx = Vec::new();
            table.gather_indices(1e5, 1e8, sel, &mut idx).unwrap();
            assert_eq!(idx.len(), 4 * planes.len(), "{sel:?}");
            assert!(idx.iter().all(|&i| i < table.planes.data.len()));
            let mut seen: Vec<usize> = idx.iter().map(|&i| i / plane_size).collect();
            seen.dedup();
            assert_eq!(seen, planes, "{sel:?}");
        }
    }

    #[test]
    fn table_bytes_and_addr() {
        let table = test_table();
        assert_eq!(
            table.bytes(),
            41 * 33 * 12 * 8,
            "coarse table is 41×33×12 doubles"
        );
        assert!(table.base_addr() != 0);
    }

    #[test]
    fn interp_lanes_is_bit_exact_vs_scalar_on_every_backend() {
        let table = test_table();
        let n = 37;
        let (x0, x1) = table.config().log_rho_ye;
        let (y0, y1) = table.config().log_temp;
        // Seeded quasi-random lattice across the whole domain (including
        // both edges via the first/last lanes). n = 37 is prime, so every
        // backend width exercises a non-empty tail.
        let rho_ye: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(x0 + (x1 - x0) * (i as f64 / (n - 1) as f64)))
            .collect();
        let temp: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(y0 + (y1 - y0) * (((i * 17) % n) as f64 / (n - 1) as f64)))
            .collect();
        let rho: Vec<RhoCell> = rho_ye.iter().map(|&r| table.locate_rho(r)).collect();
        // Every selection the batched solve asks for: energy alone (DensEi
        // iterations), pressure alone (DensPres iterations, the DensEi
        // tail), both (DensTemp, Coulomb DensEi iterations).
        let (p, e) = (Quantities::PRES, Quantities::ENER);
        for sel in [e, p, p.with(e)] {
            for &backend in Resolved::all() {
                let mut lanes = vec![ElecPoint::default(); n];
                table
                    .interp_lanes(backend, sel, &rho, &temp, &mut lanes)
                    .unwrap();
                for (i, got) in lanes.iter().enumerate() {
                    let want = table.interp(rho_ye[i], temp[i]).unwrap();
                    let fields = [
                        ("pres", p, got.pres, want.pres),
                        ("dlnp_dlnr", p, got.dlnp_dlnr, want.dlnp_dlnr),
                        ("dlnp_dlnt", p, got.dlnp_dlnt, want.dlnp_dlnt),
                        ("ener", e, got.ener, want.ener),
                        ("dlne_dlnt", e, got.dlne_dlnt, want.dlne_dlnt),
                    ];
                    let what = format!("{sel:?} {backend} lane {i}");
                    for (name, owner, got, want) in fields {
                        // Unselected fields are left untouched (0 here).
                        let want = if sel.with(owner) == sel { want } else { 0.0 };
                        assert_eq!(got.to_bits(), want.to_bits(), "{what} {name}");
                    }
                    assert_eq!(got.entr, 0.0, "{what}: entropy is never a lane quantity");
                }
                // Out-of-domain lane aborts the batch.
                assert!(table
                    .interp_lanes(
                        backend,
                        sel,
                        &[table.locate_rho(1e20)],
                        &[1e7],
                        &mut lanes[..1]
                    )
                    .is_err());
            }
        }
    }

    #[test]
    fn a_failed_row_keeps_its_error_for_every_lookup_that_needs_it() {
        // Above ~1e16 K the η solve gives up, so the top rows fail.
        let cfg = TableConfig {
            n_rho: 6,
            n_temp: 8,
            log_rho_ye: (-4.0, 10.0),
            log_temp: (6.0, 20.0),
        };
        let probe = Planes::empty(cfg, Policy::None).unwrap();
        let rows: Vec<_> = (0..cfg.n_temp)
            .map(|it| probe.ensure_value(it, Builder::Demand))
            .collect();
        let first_failure = rows
            .iter()
            .find_map(|r| r.clone().err())
            .expect("a row fails");
        assert!(
            rows[..3].iter().all(Result::is_ok),
            "the bottom cell solves"
        );
        assert_eq!(
            HelmTable::build_on(cfg, Policy::None, 2).err(),
            Some(first_failure.clone()),
            "the eager build fails with the lowest failing row"
        );
        let table = HelmTable::lazy(cfg, Policy::None).unwrap();
        assert_eq!(table.complete().err(), Some(first_failure));
        for it in 0..cfg.n_temp - 1 {
            let want = (it.saturating_sub(1)..=(it + 2).min(cfg.n_temp - 1))
                .find_map(|r| rows[r].clone().err());
            let temp = 10f64.powf(cfg.log_temp.0 + (it as f64 + 0.5) * table.planes.dy);
            for _ in 0..2 {
                assert_eq!(table.interp(1e3, temp).err(), want, "cell {it}");
            }
        }
    }

    #[test]
    fn domain_edges_are_inclusive() {
        let table = test_table();
        let cfg = *table.config();
        let lo = table
            .interp(10f64.powf(cfg.log_rho_ye.0), 10f64.powf(cfg.log_temp.0))
            .unwrap();
        assert!(lo.pres > 0.0);
        let hi = table
            .interp(10f64.powf(cfg.log_rho_ye.1), 10f64.powf(cfg.log_temp.1))
            .unwrap();
        assert!(hi.pres > lo.pres);
    }

    /// Every plane element's bits, the table completed first.
    fn plane_bits(table: &HelmTable) -> Vec<u64> {
        table.complete().unwrap();
        let planes = table.planes.complete_slice().unwrap();
        planes.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn parallel_build_is_bit_identical_to_single_threaded() {
        let cfg = TableConfig::coarse();
        let serial = plane_bits(&HelmTable::build_on(cfg, Policy::None, 1).unwrap());
        // More threads than this host has cores, and more than rows / 8.
        for threads in [2, 5, cfg.n_temp + 3] {
            let parallel = HelmTable::build_on(cfg, Policy::None, threads).unwrap();
            assert!(serial == plane_bits(&parallel), "{threads} threads");
        }
        let default = HelmTable::build(cfg, Policy::None).unwrap();
        assert!(serial == plane_bits(&default));
    }

    /// xorshift64*: seeded, so a failure names a reproducible lookup sequence.
    struct Rng(u64);

    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn concurrent_lookups_match_the_eager_table_and_complete_to_its_planes() {
        let cfg = TableConfig::coarse();
        let (x0, x1) = cfg.log_rho_ye;
        let (y0, y1) = cfg.log_temp;
        let eager = HelmTable::build_on(cfg, Policy::None, 1).unwrap();
        let eager_planes = plane_bits(&eager);
        let bits = |p: ElecPoint| {
            [
                p.pres,
                p.ener,
                p.entr,
                p.dlnp_dlnr,
                p.dlnp_dlnt,
                p.dlne_dlnt,
            ]
            .map(f64::to_bits)
        };
        for threads in [1, 2, 4] {
            let lazy = HelmTable::lazy(cfg, Policy::None).unwrap();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (lazy, eager) = (&lazy, &eager);
                    scope.spawn(move || {
                        let mut rng = Rng(0x5eed_0000 + 97 * threads as u64 + t as u64);
                        for i in 0..200 {
                            // Anywhere in the domain, edges included.
                            let rho_ye = 10f64.powf(x0 + (x1 - x0) * rng.unit());
                            let temp = 10f64.powf(y0 + (y1 - y0) * rng.unit());
                            let got = lazy.interp(rho_ye, temp).unwrap();
                            let want = eager.interp(rho_ye, temp).unwrap();
                            assert_eq!(
                                bits(got),
                                bits(want),
                                "{threads} threads, thread {t}, lookup {i} at ({rho_ye:e}, {temp:e})"
                            );
                        }
                    });
                }
            });
            assert!(
                plane_bits(&lazy) == eager_planes,
                "{threads} threads: forced complete, the planes differ"
            );
        }
    }
}

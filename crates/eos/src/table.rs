//! The tabulated electron/positron EOS.
//!
//! FLASH's Helmholtz EOS interpolates a pre-computed table instead of
//! solving the Fermi–Dirac system per zone — that table (a few MB, accessed
//! by data-dependent indices from every zone of every block) is the main
//! DTLB-pressure source of the paper's "EOS" experiment. We build the table
//! from the exact [`crate::electron`] physics at startup and store it in a
//! [`PageBuffer`] so its memory backing follows the huge-page policy.
//!
//! Layout mirrors FLASH's `helm_table.dat` structure: separate planes per
//! quantity and derivative (value, ∂/∂x, ∂/∂y, ∂²/∂x∂y for each of log P,
//! log E, log S), so one full interpolation gathers 48 doubles scattered
//! over 12 planes. The batched EOS asks for fewer (`Quantities`): 16 per
//! quantity it actually reads. Those loads are the access signature the
//! TLB model replays.

use rflash_hugepages::crc32::crc32;
use rflash_hugepages::{fill_from_le, with_le_bytes, PageBuffer, Policy};
use rflash_simd::{Lane, Resolved, WithLanes};
use serde::{Deserialize, Serialize};

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

/// Table geometry and domain.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
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
pub(crate) struct Quantities(u8);

impl Quantities {
    pub(crate) const PRES: Quantities = Quantities(1 << PRES);
    pub(crate) const ENER: Quantities = Quantities(1 << ENER);
    pub(crate) const ALL: Quantities = Quantities(1 << PRES | 1 << ENER | 1 << ENTR);

    pub(crate) const fn with(self, other: Quantities) -> Quantities {
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
pub(crate) struct RhoCell {
    x: f64,
    ir: usize,
    tx: f64,
}

/// The tabulated electron/positron EOS.
pub struct HelmTable {
    config: TableConfig,
    /// 12 planes of n_temp × n_rho doubles, plane-major:
    /// `data[((q*N_DERIV + d) * n_temp + it) * n_rho + ir]`.
    data: PageBuffer<f64>,
    dx: f64, // log10 rho_ye spacing
    dy: f64, // log10 T spacing
}

impl HelmTable {
    /// Build the table by solving the exact electron gas at every node,
    /// temperature rows spread over the host's cores.
    pub fn build(config: TableConfig, policy: Policy) -> Result<HelmTable, EosError> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::build_on(config, policy, threads)
    }

    /// [`HelmTable::build`] on `threads` threads (capped at `n_temp`). The
    /// result does not depend on the thread count: every row is the same
    /// left-to-right warm-started sweep written to its own plane rows.
    fn build_on(
        config: TableConfig,
        policy: Policy,
        threads: usize,
    ) -> Result<HelmTable, EosError> {
        assert!(config.n_rho >= 4 && config.n_temp >= 4, "table too small");
        let (x0, x1) = config.log_rho_ye;
        let (y0, y1) = config.log_temp;
        assert!(x1 > x0 && y1 > y0, "degenerate table domain");
        let dx = (x1 - x0) / (config.n_rho - 1) as f64;
        let dy = (y1 - y0) / (config.n_temp - 1) as f64;

        let plane = config.n_rho * config.n_temp;
        let mut data = PageBuffer::<f64>::zeroed(plane * N_QUANT * N_DERIV, policy)
            .map_err(|e| EosError::Allocation {
                what: "helm table",
                detail: e.to_string(),
            })?;

        // Pass 1: values (log10 of p, e, s) at every node, warm-starting the
        // η solve along each density sweep. The warm start never crosses
        // rows, so rows are independent: deal them round-robin to the
        // threads, each row a disjoint `n_rho` run of the three value planes.
        let solve_row = |it: usize, [p, e, s]: [&mut [f64]; N_QUANT]| -> Result<(), EosError> {
            let temp = 10f64.powf(y0 + it as f64 * dy);
            let mut eta_guess = None;
            for ir in 0..config.n_rho {
                let rho_ye = 10f64.powf(x0 + ir as f64 * dx);
                let st = electron_state_with_guess(rho_ye, temp, eta_guess)?;
                eta_guess = Some(st.eta);
                p[ir] = st.pres.log10();
                e[ir] = st.ener.log10();
                s[ir] = st.entr.max(1e-300).log10();
            }
            Ok(())
        };
        let threads = threads.clamp(1, config.n_temp);
        let mut shares: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
        let (p_planes, rest) = data.as_mut_slice().split_at_mut(N_DERIV * plane);
        let (e_planes, s_planes) = rest.split_at_mut(N_DERIV * plane);
        let rows = (p_planes[..plane].chunks_mut(config.n_rho))
            .zip(e_planes[..plane].chunks_mut(config.n_rho))
            .zip(s_planes[..plane].chunks_mut(config.n_rho));
        for (it, ((p, e), s)) in rows.enumerate() {
            shares[it % threads].push((it, [p, e, s]));
        }
        // The serial loop stopped at the first failing row; report that one.
        let first_error = std::thread::scope(|scope| {
            let workers: Vec<_> = shares
                .into_iter()
                .map(|share| {
                    scope.spawn(|| {
                        share
                            .into_iter()
                            .find_map(|(it, row)| solve_row(it, row).err().map(|e| (it, e)))
                    })
                })
                .collect();
            workers
                .into_iter()
                .filter_map(|w| {
                    w.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .min_by_key(|(it, _)| *it)
        });
        if let Some((_, err)) = first_error {
            return Err(err);
        }

        // Pass 2: finite-difference derivative planes from the value planes.
        for q in 0..N_QUANT {
            Self::fill_derivatives(config, &mut data, q, dx, dy);
        }

        Ok(HelmTable {
            config,
            data,
            dx,
            dy,
        })
    }

    #[inline]
    fn index_of(config: TableConfig, q: usize, d: usize, node: usize) -> usize {
        ((q * N_DERIV + d) * config.n_temp * config.n_rho) + node
    }

    fn fill_derivatives(config: TableConfig, data: &mut PageBuffer<f64>, q: usize, dx: f64, dy: f64) {
        let nr = config.n_rho;
        let nt = config.n_temp;
        let val = |data: &PageBuffer<f64>, it: usize, ir: usize| {
            data[Self::index_of(config, q, 0, it * nr + ir)]
        };
        // Fritsch–Carlson limiting: log P, log E, log S are physically
        // non-decreasing in both log ρYₑ and log T, and a cubic Hermite
        // stays monotone when each node slope is within [0, 3·min(adjacent
        // secants)]. Unlimited central differences overshoot at the sharp
        // pair-creation/degeneracy transitions, producing non-monotone
        // interpolants that break the Newton inversions.
        let limit = |d: f64, sec_lo: Option<f64>, sec_hi: Option<f64>| -> f64 {
            let cap = 3.0
                * sec_lo
                    .unwrap_or(f64::INFINITY)
                    .min(sec_hi.unwrap_or(f64::INFINITY))
                    .max(0.0);
            d.clamp(0.0, cap)
        };
        // d/dx (density direction), one-sided at edges.
        for it in 0..nt {
            for ir in 0..nr {
                let sec_lo = (ir > 0).then(|| (val(data, it, ir) - val(data, it, ir - 1)) / dx);
                let sec_hi =
                    (ir + 1 < nr).then(|| (val(data, it, ir + 1) - val(data, it, ir)) / dx);
                let d = match (sec_lo, sec_hi) {
                    (Some(a), Some(b)) => 0.5 * (a + b),
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => 0.0,
                };
                data[Self::index_of(config, q, 1, it * nr + ir)] = limit(d, sec_lo, sec_hi);
            }
        }
        // d/dy (temperature direction).
        for it in 0..nt {
            for ir in 0..nr {
                let sec_lo = (it > 0).then(|| (val(data, it, ir) - val(data, it - 1, ir)) / dy);
                let sec_hi =
                    (it + 1 < nt).then(|| (val(data, it + 1, ir) - val(data, it, ir)) / dy);
                let d = match (sec_lo, sec_hi) {
                    (Some(a), Some(b)) => 0.5 * (a + b),
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => 0.0,
                };
                data[Self::index_of(config, q, 2, it * nr + ir)] = limit(d, sec_lo, sec_hi);
            }
        }
        // d²/dxdy from the d/dx plane differentiated in y.
        let dvx = |data: &PageBuffer<f64>, it: usize, ir: usize| {
            data[Self::index_of(config, q, 1, it * nr + ir)]
        };
        for it in 0..nt {
            for ir in 0..nr {
                let d = if it == 0 {
                    (dvx(data, 1, ir) - dvx(data, 0, ir)) / dy
                } else if it == nt - 1 {
                    (dvx(data, nt - 1, ir) - dvx(data, nt - 2, ir)) / dy
                } else {
                    (dvx(data, it + 1, ir) - dvx(data, it - 1, ir)) / (2.0 * dy)
                };
                data[Self::index_of(config, q, 3, it * nr + ir)] = d;
            }
        }
    }

    /// Table configuration.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// Base address of the underlying buffer (for TLB-model registration).
    pub fn base_addr(&self) -> usize {
        self.data.base_addr()
    }

    /// Size of the underlying buffer in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// How the kernel actually backs the table.
    pub fn backing_report(&self) -> rflash_hugepages::BackingReport {
        self.data.backing_report()
    }

    /// Locate a density coordinate: one `log10` and the cell column, reused
    /// by every interpolation at that ρYₑ.
    #[inline]
    pub(crate) fn locate_rho(&self, rho_ye: f64) -> RhoCell {
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
    /// located density and a temperature.
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
        Ok((rho.ir, it, rho.tx, fy - it as f64))
    }

    /// Interpolate the electron gas at (ρYₑ [g/cm³], T \[K\]).
    pub fn interp(&self, rho_ye: f64, temp: f64) -> Result<ElecPoint, EosError> {
        let (ir, it, tx, ty) = self.locate(&self.locate_rho(rho_ye), temp)?;
        let mut out = ElecPoint::default();
        self.interp_located(Quantities::ALL, ir, it, tx, ty, &mut out);
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
    pub(crate) fn interp_lanes(
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
                table: self,
                sel,
                rho,
                temp,
                out,
            },
        )
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
    /// asked, the x- and y-slope sums (0 when not).
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
            let v = self.data[Self::index_of(self.config, q, 0, node)];
            let vx = self.data[Self::index_of(self.config, q, 1, node)] * self.dx;
            let vy = self.data[Self::index_of(self.config, q, 2, node)] * self.dy;
            let vxy = self.data[Self::index_of(self.config, q, 3, node)] * self.dx * self.dy;
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
        let (ir, it, _, _) = self.locate(&self.locate_rho(rho_ye), temp)?;
        let nr = self.config.n_rho;
        for q in (0..N_QUANT).filter(|&q| sel.has(q)) {
            for d in 0..N_DERIV {
                for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    out.push(Self::index_of(
                        self.config,
                        q,
                        d,
                        (it + di) * nr + ir + dj,
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Widest lane any compiled backend uses; sizes the per-chunk scratch
/// arrays of the vectorized interpolation.
const MAX_W: usize = 8;

/// The lane-dispatch visitor behind [`HelmTable::interp_lanes`].
struct InterpLanes<'a> {
    table: &'a HelmTable,
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
        let data = t.data.as_slice();
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
                let [v, sx, sy] = cell_sums::<L>(t, data, PRES, &corner, &basis, true, true);
                let (sx, sy) = (sx.div(dx), sy.div(dy));
                for (k, o) in out.iter_mut().enumerate() {
                    o.pres = 10f64.powf(v.extract(k));
                    o.dlnp_dlnr = sx.extract(k);
                    o.dlnp_dlnt = sy.extract(k);
                }
            }
            if self.sel.has(ENER) {
                let [v, _, sy] = cell_sums::<L>(t, data, ENER, &corner, &basis, false, true);
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
/// replica of [`HelmTable::cell_sums`]'s arithmetic (same order, no
/// contractions) with the 16 scattered coefficient loads expressed as
/// per-plane gathers. Returns the (value, x-slope, y-slope) sums, still in
/// log10 space; a slope not asked for is 0.
#[inline(always)]
fn cell_sums<L: Lane>(
    t: &HelmTable,
    data: &[f64],
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
        let v = gather_plane::<L>(t, data, q, 0, nodes);
        let vx = gather_plane::<L>(t, data, q, 1, nodes).mul(dx);
        let vy = gather_plane::<L>(t, data, q, 2, nodes).mul(dy);
        let vxy = gather_plane::<L>(t, data, q, 3, nodes).mul(dx).mul(dy);
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

/// Gather one coefficient plane's value at each lane's corner node.
#[inline(always)]
fn gather_plane<L: Lane>(t: &HelmTable, data: &[f64], q: usize, d: usize, nodes: &[usize; MAX_W]) -> L {
    let base = (q * N_DERIV + d) * t.config.n_temp * t.config.n_rho;
    L::from_fn(|k| data[base + nodes[k]])
}

/// Lane twin of [`hermite_basis`], term order preserved.
#[inline(always)]
fn hermite_basis_lanes<L: Lane>(t: L) -> [L; 4] {
    let t2 = t.mul(t);
    let t3 = t2.mul(t);
    [
        L::splat(2.0).mul(t3).sub(L::splat(3.0).mul(t2)).add(L::splat(1.0)),
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
        L::splat(3.0).mul(t2).sub(L::splat(4.0).mul(t)).add(L::splat(1.0)),
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
        let rho_ye = 10f64.powf(x0 + 5.0 * table.dx);
        let temp = 10f64.powf(y0 + 7.0 * table.dy);
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
        let plane_size = table.config.n_rho * table.config.n_temp;
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
            assert!(idx.iter().all(|&i| i < table.data.len()));
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
        let (x0, x1) = table.config.log_rho_ye;
        let (y0, y1) = table.config.log_temp;
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
}

// ---- disk persistence (FLASH's `helm_table.dat` analog) -----------------

/// Format magic of the cache file. v1 had no checksum and was written in
/// place; its files fail the magic check and are rebuilt.
const TABLE_FORMAT: &str = "rflash-helm-table-v2";

#[derive(Serialize, Deserialize)]
struct TableFileHeader {
    format: String,
    config: TableConfig,
}

impl HelmTable {
    /// Write the table to disk: a length-prefixed JSON header (format +
    /// config), the raw little-endian f64 planes, and a CRC-32 of the
    /// planes. FLASH ships its Helmholtz table as a data file
    /// (`helm_table.dat`) for exactly this reason — rebuilding from the
    /// Fermi–Dirac integrals at every startup is wasteful.
    ///
    /// The file is written to a per-writer sibling temp and renamed into
    /// place, so concurrent writers of one cache path (fleet workers,
    /// parallel tests) each publish a whole file and a reader never sees a
    /// half-written one.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(format!(".{}.{n}.tmp", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);

        let header = serde_json::to_string(&TableFileHeader {
            format: TABLE_FORMAT.into(),
            config: self.config,
        })
        .map_err(std::io::Error::other)?;
        let written = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&(header.len() as u64).to_le_bytes())?;
            file.write_all(header.as_bytes())?;
            let crc = with_le_bytes(&self.data, |planes| {
                file.write_all(planes).map(|()| crc32(planes))
            })?;
            file.write_all(&crc.to_le_bytes())?;
            std::fs::rename(&tmp, path)
        })();
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    /// Load a table previously written by [`HelmTable::save`], reading the
    /// planes straight into a buffer backed by `policy`. Any file that is
    /// not a whole, checksum-clean table of the current format is an error.
    pub fn load(path: &std::path::Path, policy: Policy) -> std::io::Result<HelmTable> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)?;
        let mut len_bytes = [0u8; 8];
        file.read_exact(&mut len_bytes)?;
        let header_len = u64::from_le_bytes(len_bytes) as usize;
        if header_len > 1 << 20 {
            return Err(std::io::Error::other("unreasonable header length"));
        }
        let mut header_json = vec![0u8; header_len];
        file.read_exact(&mut header_json)?;
        let header: TableFileHeader =
            serde_json::from_slice(&header_json).map_err(std::io::Error::other)?;
        if header.format != TABLE_FORMAT {
            return Err(std::io::Error::other(format!(
                "unknown table format {:?}",
                header.format
            )));
        }
        let config = header.config;
        // The config is outside input: hold it to `build`'s own minimum
        // and to what the file can actually hold before reserving for it.
        let file_doubles = file.metadata()?.len() / 8;
        let n = config
            .n_rho
            .checked_mul(config.n_temp)
            .and_then(|plane| plane.checked_mul(N_QUANT * N_DERIV))
            .filter(|&n| config.n_rho >= 4 && config.n_temp >= 4 && n as u64 <= file_doubles)
            .ok_or_else(|| std::io::Error::other("table geometry does not fit the file"))?;
        let mut data =
            PageBuffer::<f64>::zeroed(n, policy).map_err(|e| std::io::Error::other(e.to_string()))?;
        let mut computed = 0;
        fill_from_le(&mut data, |planes| {
            file.read_exact(planes).map(|()| computed = crc32(planes))
        })?;
        let mut crc_bytes = [0u8; 4];
        file.read_exact(&mut crc_bytes)?;
        let stored = u32::from_le_bytes(crc_bytes);
        if stored != computed {
            return Err(std::io::Error::other(format!(
                "table CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        let (x0, x1) = config.log_rho_ye;
        let (y0, y1) = config.log_temp;
        Ok(HelmTable {
            config,
            data,
            dx: (x1 - x0) / (config.n_rho - 1) as f64,
            dy: (y1 - y0) / (config.n_temp - 1) as f64,
        })
    }

    /// Load a matching cached table from `path`, or build one and cache it.
    /// A stale (different geometry/domain), old-format, truncated or
    /// corrupt cache is rebuilt and overwritten.
    pub fn build_or_load(
        config: TableConfig,
        policy: Policy,
        path: &std::path::Path,
    ) -> Result<HelmTable, EosError> {
        if let Ok(table) = Self::load(path, policy) {
            let c = table.config;
            let same = c.n_rho == config.n_rho
                && c.n_temp == config.n_temp
                && c.log_rho_ye == config.log_rho_ye
                && c.log_temp == config.log_temp;
            if same {
                return Ok(table);
            }
        }
        let table = Self::build(config, policy)?;
        let _ = table.save(path); // cache write failure is not fatal
        Ok(table)
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use rflash_hugepages::as_bytes;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rflash-helm-{}-{name}.dat", std::process::id()))
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let table = HelmTable::build(
            TableConfig {
                n_rho: 12,
                n_temp: 9,
                ..TableConfig::coarse()
            },
            Policy::None,
        )
        .unwrap();
        let path = scratch("roundtrip");
        table.save(&path).unwrap();
        let loaded = HelmTable::load(&path, Policy::None).unwrap();
        assert_eq!(table.data.as_slice(), loaded.data.as_slice());
        assert_eq!(table.dx, loaded.dx);
        // Interpolation agrees exactly.
        let a = table.interp(1e5, 1e8).unwrap();
        let b = loaded.interp(1e5, 1e8).unwrap();
        assert_eq!(a.pres, b.pres);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn build_or_load_uses_and_refreshes_the_cache() {
        let cfg = TableConfig {
            n_rho: 10,
            n_temp: 8,
            ..TableConfig::coarse()
        };
        let path = scratch("cache");
        let _ = std::fs::remove_file(&path);
        let t1 = HelmTable::build_or_load(cfg, Policy::None, &path).unwrap();
        assert!(path.exists(), "cache written");
        let t2 = HelmTable::build_or_load(cfg, Policy::None, &path).unwrap();
        assert_eq!(t1.data.as_slice(), t2.data.as_slice());
        // A different geometry invalidates the cache.
        let other = TableConfig {
            n_rho: 14,
            n_temp: 8,
            ..TableConfig::coarse()
        };
        let t3 = HelmTable::build_or_load(other, Policy::None, &path).unwrap();
        assert_eq!(t3.config.n_rho, 14);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parallel_build_is_bit_identical_to_single_threaded() {
        let cfg = TableConfig::coarse();
        let serial = HelmTable::build_on(cfg, Policy::None, 1).unwrap();
        // More threads than this host has cores, and more than rows / 8.
        for threads in [2, 5, cfg.n_temp + 3] {
            let parallel = HelmTable::build_on(cfg, Policy::None, threads).unwrap();
            assert!(
                as_bytes(serial.data.as_slice()) == as_bytes(parallel.data.as_slice()),
                "{threads} threads"
            );
        }
        let default = HelmTable::build(cfg, Policy::None).unwrap();
        assert!(as_bytes(serial.data.as_slice()) == as_bytes(default.data.as_slice()));
    }

    #[test]
    fn damaged_or_old_caches_are_rebuilt_and_overwritten() {
        let cfg = TableConfig {
            n_rho: 11,
            n_temp: 7,
            ..TableConfig::coarse()
        };
        let path = scratch("damaged");
        let fresh = HelmTable::build(cfg, Policy::None).unwrap();
        fresh.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let header_len = u64::from_le_bytes(good[..8].try_into().unwrap()) as usize;

        let truncated = good[..good.len() - 9].to_vec();
        let mut flipped = good.clone();
        flipped[8 + header_len + 100] ^= 0x10;
        let mut bad_crc = good.clone();
        *bad_crc.last_mut().unwrap() ^= 0xFF;
        // A v1 file: same layout, old magic, no trailing CRC.
        let v1_header = String::from_utf8(good[8..8 + header_len].to_vec())
            .unwrap()
            .replace(TABLE_FORMAT, "rflash-helm-table-v1");
        let mut v1 = (v1_header.len() as u64).to_le_bytes().to_vec();
        v1.extend_from_slice(v1_header.as_bytes());
        v1.extend_from_slice(&good[8 + header_len..good.len() - 4]);
        // A header promising far more planes than the file holds.
        let huge_header = String::from_utf8(good[8..8 + header_len].to_vec())
            .unwrap()
            .replace("\"n_rho\":11", "\"n_rho\":1100000000");
        let mut huge = (huge_header.len() as u64).to_le_bytes().to_vec();
        huge.extend_from_slice(huge_header.as_bytes());
        huge.extend_from_slice(&good[8 + header_len..]);

        for (what, bytes) in [
            ("truncated", truncated),
            ("bit-flipped", flipped),
            ("bad CRC", bad_crc),
            ("v1", v1),
            ("oversized geometry", huge),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                HelmTable::load(&path, Policy::None).is_err(),
                "{what} must not load"
            );
            let rebuilt = HelmTable::build_or_load(cfg, Policy::None, &path).unwrap();
            assert_eq!(rebuilt.data.as_slice(), fresh.data.as_slice(), "{what}");
            assert!(
                std::fs::read(&path).unwrap() == good,
                "{what} cache must be overwritten"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_writers_and_readers_only_ever_see_whole_files() {
        let cfg = TableConfig {
            n_rho: 16,
            n_temp: 12,
            ..TableConfig::coarse()
        };
        let path = scratch("race");
        let _ = std::fs::remove_file(&path);
        let table = HelmTable::build(cfg, Policy::None).unwrap();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for who in 0..8 {
                let (table, path, start) = (&table, &path, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..25 {
                        if who % 2 == 0 {
                            table.save(path).unwrap();
                            continue;
                        }
                        match HelmTable::load(path, Policy::None) {
                            Ok(seen) => assert_eq!(seen.data.as_slice(), table.data.as_slice()),
                            // Not there yet is fine; half-written is not.
                            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{e}"),
                        }
                    }
                });
            }
        });
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| {
                name.starts_with(path.file_name().unwrap().to_str().unwrap())
                    && name.ends_with(".tmp")
            })
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_garbage() {
        let path = scratch("garbage");
        std::fs::write(&path, b"\x08\x00\x00\x00\x00\x00\x00\x00garbage!").unwrap();
        assert!(HelmTable::load(&path, Policy::None).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}

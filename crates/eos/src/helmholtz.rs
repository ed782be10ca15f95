//! The full Helmholtz-style EOS: tabulated electrons/positrons + ideal ions
//! + radiation, with the FLASH call modes.

use crate::consts::{A_RAD, H_PLANCK, K_B, N_A};
use crate::table::{ElecPoint, HelmTable, Quantities, RhoCell, TableConfig};
use crate::{BatchReport, Eos, EosBatch, EosError, EosMode, EosState};

use crate::batch::NEWTON_HIST_BINS;
use rflash_hugepages::Policy;
use rflash_simd::Resolved;
use std::cell::RefCell;

/// The white-dwarf-matter EOS of the paper's supernova simulations.
pub struct Helmholtz {
    table: HelmTable,
    /// SIMD backend the batched table path dispatches on; set from
    /// `RuntimeParams::simd_backend` via [`Self::set_simd`], defaults to
    /// the resolved native backend.
    simd: Resolved,
    /// Include the photon gas (on in FLASH; switchable for tests).
    pub include_radiation: bool,
    /// Include the ideal ion gas.
    pub include_ions: bool,
    /// Include ion Coulomb corrections (FLASH's `coulomb_mult`):
    /// Debye–Hückel in the weak-coupling limit, the Slattery–Doolen–DeWitt
    /// one-component-plasma fit beyond. **Off by default**: the liquid OCP
    /// fit is only valid below crystallization (Γ ≲ 175); enabling it is
    /// appropriate for runs confined to the fluid regime (the supernova
    /// interior), where it is a ~1–3 % negative correction. Over the full
    /// table domain — which reaches solid carbon — no fluid correction is
    /// thermodynamically consistent, which is also why FLASH ships
    /// bomb-proofing cutoffs for it.
    pub include_coulomb: bool,
}

/// Intermediate evaluation at (ρ, T).
#[derive(Clone, Copy, Debug, Default)]
struct Eval {
    pres: f64,
    eint: f64, // specific, erg/g
    entr: f64, // specific, erg/(g K); only the scalar `evaluate` fills it
    cv: f64,   // specific
    dpdt: f64,
    dpdr: f64,
}

/// The table quantities every batched output row reads at its accepted
/// temperature: P with both slopes (pres, Γ₁) and E with its T-slope (eint,
/// c_v). `EosBatch` has no entropy output.
const BATCH_OUTPUT: Quantities = Quantities::PRES.with(Quantities::ENER);

impl Helmholtz {
    /// Over a table computed up front ([`HelmTable::build`]) under the
    /// given huge-page policy: the test oracle and the benches' EOS.
    pub fn build(config: TableConfig, policy: Policy) -> Result<Helmholtz, EosError> {
        Ok(Self::over(HelmTable::build(config, policy)?))
    }

    /// Over a table computed where it is read ([`HelmTable::lazy`]): rows on
    /// first lookup, the rest on a background thread. Every lookup returns
    /// the same bits as [`Helmholtz::build`]'s. The EOS every run uses.
    pub fn lazy(config: TableConfig, policy: Policy) -> Result<Helmholtz, EosError> {
        Ok(Self::over(HelmTable::lazy(config, policy)?))
    }

    fn over(table: HelmTable) -> Helmholtz {
        Helmholtz {
            table,
            simd: rflash_simd::resolve(rflash_simd::Backend::default()),
            include_radiation: true,
            include_ions: true,
            include_coulomb: false,
        }
    }

    /// Access the underlying table (harness: TLB registration, backing audit).
    pub fn table(&self) -> &HelmTable {
        &self.table
    }

    /// Select the SIMD backend the batched table path dispatches on.
    pub fn set_simd(&mut self, simd: Resolved) {
        self.simd = simd;
    }

    /// Append the table elements the batched EOS reads at one zone's
    /// accepted temperature — the pressure and energy planes, 32 loads; the
    /// TLB model replays them for a sampled zone.
    pub fn gather_indices(
        &self,
        rho_ye: f64,
        temp: f64,
        out: &mut Vec<usize>,
    ) -> Result<(), EosError> {
        self.table.gather_indices(rho_ye, temp, BATCH_OUTPUT, out)
    }

    /// Full evaluation at (ρ, T), entropy included: the scalar path.
    fn evaluate(&self, dens: f64, temp: f64, abar: f64, zbar: f64) -> Result<Eval, EosError> {
        let rho_ye = dens * zbar / abar;
        let ele: ElecPoint = self.table.interp(rho_ye, temp)?;
        let mut ev = self.assemble(ele, dens, temp, abar, zbar);
        ev.entr = self.entropy(&ele, dens, temp, abar);
        Ok(ev)
    }

    /// Combine an interpolated electron point with radiation/ions/Coulomb,
    /// entropy aside. Shared by the scalar and batched paths so both produce
    /// bit-identical `Eval`s for the same (ρ, T) point. Each field reads
    /// only some of `ele`'s: `pres`, `dpdt`, `dpdr` the pressure fields,
    /// `eint` and `cv` the energy fields — and, under Coulomb corrections,
    /// whose taper scales with the pressure, `ele.pres` as well. A
    /// partially filled point gives those fields exactly.
    fn assemble(&self, ele: ElecPoint, dens: f64, temp: f64, abar: f64, zbar: f64) -> Eval {
        let mut ev = Eval {
            pres: ele.pres,
            eint: ele.ener / dens,
            entr: 0.0,
            cv: ele.ener / dens / temp * ele.dlne_dlnt,
            dpdt: ele.pres / temp * ele.dlnp_dlnt,
            // ρYₑ ∝ ρ at fixed composition, so ∂lnP/∂lnρ = dlnp_dlnr.
            dpdr: ele.pres / dens * ele.dlnp_dlnr,
        };
        if self.include_radiation {
            let prad = A_RAD * temp.powi(4) / 3.0;
            ev.pres += prad;
            ev.eint += 3.0 * prad / dens;
            ev.cv += 12.0 * prad / (dens * temp); // d(3aT⁴/ρ)/dT = 12aT³/ρ
            ev.dpdt += 4.0 * prad / temp;
        }
        if self.include_ions {
            let nkt = dens * N_A * K_B * temp / abar; // ion ideal pressure
            ev.pres += nkt;
            ev.eint += 1.5 * nkt / dens;
            ev.cv += 1.5 * N_A * K_B / abar;
            ev.dpdt += nkt / temp;
            ev.dpdr += nkt / dens;
            if self.include_coulomb {
                add_coulomb(&mut ev, dens, temp, abar, zbar);
            }
        }
        ev
    }

    /// Specific entropy at a fully interpolated point (only `call` reports
    /// it).
    fn entropy(&self, ele: &ElecPoint, dens: f64, temp: f64, abar: f64) -> f64 {
        let mut entr = ele.entr / dens;
        if self.include_radiation {
            let prad = A_RAD * temp.powi(4) / 3.0;
            entr += 4.0 * prad / (dens * temp); // s_rad = 4aT³/(3ρ) = 4P_rad/(ρT)
        }
        if self.include_ions {
            entr += sackur_tetrode(dens, temp, abar);
        }
        entr
    }

    fn apply(&self, s: &mut EosState, ev: Eval) {
        s.pres = ev.pres;
        s.eint = ev.eint;
        s.entr = ev.entr;
        s.cv = ev.cv;
        // Γ₁ = ρ/P · (∂P/∂ρ|T + T (∂P/∂T|ρ)² / (ρ² c_v)).
        let chi = ev.dpdr + s.temp * ev.dpdt * ev.dpdt / (s.dens * s.dens * ev.cv);
        s.gamc = (chi * s.dens / ev.pres).max(1.01);
        s.finish_derived();
    }

    /// Temperature bounds of the table domain.
    fn temp_bounds(&self) -> (f64, f64) {
        let (lo, hi) = self.table.config().log_temp;
        (10f64.powf(lo), 10f64.powf(hi))
    }

    /// Invert `target(T) = goal` by safeguarded Newton in ln T.
    ///
    /// Iterates start inside the edge clamp `[tmin·1.0001, tmax·0.9999]`.
    /// A rejected Newton step bisects the bracket in log space, except
    /// while the bracket's far end is still the table bound (`lo == tmin`
    /// going down, `hi == tmax` going up): then it steps to the clamp. An
    /// iterate at the clamp that is still on the far side of the goal ends
    /// the loop, because the goal lies past what the table represents and
    /// the plateau rule below accepts the clamp (edge-pinned). A zone
    /// cooled or heated past the table thus settles in two evaluations,
    /// and re-solving it from its own T returns the same bits.
    fn invert<F>(
        &self,
        s: &EosState,
        goal: f64,
        mode: &'static str,
        f: F,
    ) -> Result<(f64, Eval), EosError>
    where
        F: Fn(&Eval) -> (f64, f64), // (value, d(value)/dT)
    {
        let (tmin, tmax) = self.temp_bounds();
        let (t_floor, t_ceil) = (tmin * 1.0001, tmax * 0.9999);
        let mut t = s.temp.clamp(t_floor, t_ceil);
        if !t.is_finite() || t <= 0.0 {
            t = (tmin * tmax).sqrt();
        }
        let (mut lo, mut hi) = (tmin, tmax);
        let mut best: Option<(f64, f64, Eval)> = None; // (|resid|, t, eval)
        let mut prev_resid = f64::INFINITY;
        for iter in 0..160 {
            let ev = self.evaluate(s.dens, t, s.abar, s.zbar)?;
            let (value, dvdt) = f(&ev);
            let resid = (value - goal) / goal.abs().max(f64::MIN_POSITIVE);
            if best.as_ref().is_none_or(|(r, _, _)| resid.abs() < *r) {
                best = Some((resid.abs(), t, ev));
            }
            if resid.abs() < 1e-10 {
                return Ok((t, ev));
            }
            if value > goal {
                hi = hi.min(t);
            } else {
                lo = lo.max(t);
            }
            // At the clamp and still past the goal: the goal is outside the
            // table.
            if (t <= t_floor && value > goal) || (t >= t_ceil && value < goal) {
                break;
            }
            // The bicubic interpolant can be locally non-monotone (pair
            // region, patch boundaries); once the bracket has collapsed the
            // best point is as converged as the table permits.
            if hi / lo < 1.0 + 1e-14 {
                break;
            }
            // Newton only while it actually improves; otherwise guarantee
            // progress: to the clamp while the bracket still reaches the
            // table bound, else by log-space bisection (the bracket always
            // shrinks because t is strictly inside (lo, hi)).
            let newton = t - (value - goal) / dvdt;
            let newton_ok = newton.is_finite()
                && newton > lo
                && newton < hi
                && (iter < 8 || resid.abs() < 0.5 * prev_resid);
            t = if newton_ok {
                newton
            } else if value > goal && lo == tmin {
                t_floor
            } else if value < goal && hi == tmax {
                t_ceil
            } else {
                (lo * hi).sqrt()
            };
            prev_resid = resid.abs();
        }
        // Accept the bracket-collapse plateau: when the (bicubic) e(T) or
        // P(T) interpolant is locally non-monotone, the bisection limit IS
        // the table's accuracy — a coarse table can leave ~1e-3-level
        // residuals at the jump. FLASH's helmholtz accepts comparable
        // Newton plateaus with a warning counter.
        let Some((best_resid, best_t, best_ev)) = best else {
            // Unreachable in practice (the loop body runs at least once and
            // either records a best point or propagates an evaluate error),
            // but a typed error beats an abort mid-simulation.
            return Err(EosError::NoConvergence {
                mode,
                residual: f64::INFINITY,
            });
        };
        // Goal below/above the physically representable range (e.g. a
        // rarefaction cooled matter below the table's temperature floor):
        // pin to the table edge, FLASH-style.
        let edge_pinned = best_t < tmin * 1.01 || best_t > tmax * 0.99;
        if best_resid < 1e-2 || (edge_pinned && best_resid < 0.5) {
            Ok((best_t, best_ev))
        } else {
            Err(EosError::NoConvergence {
                mode,
                residual: best_resid,
            })
        }
    }

    /// Lane-parallel replica of [`Self::invert`], plateau acceptance
    /// included.
    ///
    /// Every lane follows *exactly* the scalar iteration (same clamp, same
    /// bracket updates, same edge rule, same best-point tracking, same
    /// Newton-vs-bisection decision), but the table interpolation — the
    /// hot part — runs batched over the still-active lanes each round via
    /// [`HelmTable::interp_lanes`], so non-converged lanes stay in the
    /// compacted active set as a masked re-iteration instead of dropping to
    /// a scalar re-solve.
    ///
    /// An iteration interpolates only the `iterated` quantities — what
    /// `f`'s (value, slope) pair reads through [`Self::assemble`] — at the
    /// densities `sc.rho` located once per batch, so `f` sees the scalar
    /// solve's bits. A lane that hits the clean `|resid| < 1e-10` exit
    /// keeps that T ([`LANE_VECTOR`]); a lane that leaves any other way
    /// (at the clamp past its goal, bracket collapse, 160 iterations) is
    /// resolved by the scalar path's residual-plateau criterion on its
    /// bit-identical best point ([`LANE_PLATEAU`] or the same
    /// `NoConvergence` error). Each lane's accepted T then gets the rest of
    /// [`BATCH_OUTPUT`] interpolated once, so `sc.ele_sol` holds the point
    /// the scalar solve returns, entropy aside. Returns the active-lane
    /// histogram per iteration (occupancy decay).
    #[allow(clippy::too_many_arguments)] // one borrowed SoA lane per input
    fn invert_lanes<F>(
        &self,
        sc: &mut BatchScratch,
        mode: &'static str,
        iterated: Quantities,
        dens: &[f64],
        abar: &[f64],
        zbar: &[f64],
        temp_guess: &[f64],
        f: F,
    ) -> Result<[u64; NEWTON_HIST_BINS], EosError>
    where
        F: Fn(&Eval) -> (f64, f64), // (value, d(value)/dT)
    {
        let n = dens.len();
        let (tmin, tmax) = self.temp_bounds();
        let (t_floor, t_ceil) = (tmin * 1.0001, tmax * 0.9999);
        sc.t.resize(n, 0.0);
        sc.lo.resize(n, 0.0);
        sc.hi.resize(n, 0.0);
        sc.prev.resize(n, 0.0);
        sc.status.resize(n, LANE_ACTIVE);
        sc.t_sol.resize(n, 0.0);
        sc.ele_sol.resize(n, ElecPoint::default());
        sc.best_r.resize(n, 0.0);
        sc.best_t.resize(n, 0.0);
        sc.best_ele.resize(n, ElecPoint::default());
        sc.best_set.resize(n, false);
        for (l, &guess) in temp_guess.iter().enumerate() {
            let mut t = guess.clamp(t_floor, t_ceil);
            if !t.is_finite() || t <= 0.0 {
                t = (tmin * tmax).sqrt();
            }
            sc.t[l] = t;
            sc.lo[l] = tmin;
            sc.hi[l] = tmax;
            sc.prev[l] = f64::INFINITY;
            sc.status[l] = LANE_ACTIVE;
            sc.best_set[l] = false;
        }
        sc.active.clear();
        sc.active.extend(0..n);

        let mut hist = [0u64; NEWTON_HIST_BINS];
        for iter in 0..160 {
            let n_active = sc.active.len();
            if n_active == 0 {
                break;
            }
            hist[iter.min(NEWTON_HIST_BINS - 1)] += n_active as u64;
            // Compact the active lanes so the interpolation runs over
            // contiguous inputs.
            sc.c_rho.clear();
            sc.c_temp.clear();
            for &l in &sc.active {
                sc.c_rho.push(sc.rho[l]);
                sc.c_temp.push(sc.t[l]);
            }
            sc.c_ele.clear();
            sc.c_ele.resize(n_active, ElecPoint::default());
            self.table
                .interp_lanes(self.simd, iterated, &sc.c_rho, &sc.c_temp, &mut sc.c_ele)?;

            let mut w = 0;
            for i in 0..n_active {
                let l = sc.active[i];
                let ev = self.assemble(sc.c_ele[i], dens[l], sc.t[l], abar[l], zbar[l]);
                let (value, dvdt) = f(&ev);
                let goal = sc.goal[l];
                let resid = (value - goal) / goal.abs().max(f64::MIN_POSITIVE);
                // Best-point tracking BEFORE the clean exit, exactly like
                // the scalar `is_none_or` (a NaN residual is recorded when
                // nothing was recorded yet, never displaces a finite one).
                if !sc.best_set[l] || resid.abs() < sc.best_r[l] {
                    sc.best_set[l] = true;
                    sc.best_r[l] = resid.abs();
                    sc.best_t[l] = sc.t[l];
                    sc.best_ele[l] = sc.c_ele[i];
                }
                if resid.abs() < 1e-10 {
                    sc.status[l] = LANE_VECTOR;
                    sc.t_sol[l] = sc.t[l];
                    sc.ele_sol[l] = sc.c_ele[i];
                    continue;
                }
                let t = sc.t[l];
                if value > goal {
                    sc.hi[l] = sc.hi[l].min(t);
                } else {
                    sc.lo[l] = sc.lo[l].max(t);
                }
                // At the clamp past the goal, or bracket collapse: leave the
                // masked set, plateau-check below.
                if (t <= t_floor && value > goal) || (t >= t_ceil && value < goal) {
                    continue;
                }
                if sc.hi[l] / sc.lo[l] < 1.0 + 1e-14 {
                    continue;
                }
                let newton = t - (value - goal) / dvdt;
                let newton_ok = newton.is_finite()
                    && newton > sc.lo[l]
                    && newton < sc.hi[l]
                    && (iter < 8 || resid.abs() < 0.5 * sc.prev[l]);
                sc.t[l] = if newton_ok {
                    newton
                } else if value > goal && sc.lo[l] == tmin {
                    t_floor
                } else if value < goal && sc.hi[l] == tmax {
                    t_ceil
                } else {
                    (sc.lo[l] * sc.hi[l]).sqrt()
                };
                sc.prev[l] = resid.abs();
                sc.active[w] = l;
                w += 1;
            }
            sc.active.truncate(w);
        }

        // Post-loop plateau resolution, in lane order so the first failing
        // lane yields the same error the scalar path's per-zone abort
        // would. The criterion and the accepted T are bit-identical to
        // `invert`'s tail because the tracked best point is.
        for l in 0..n {
            if sc.status[l] == LANE_VECTOR {
                continue;
            }
            if !sc.best_set[l] {
                return Err(EosError::NoConvergence {
                    mode,
                    residual: f64::INFINITY,
                });
            }
            let edge_pinned = sc.best_t[l] < tmin * 1.01 || sc.best_t[l] > tmax * 0.99;
            if sc.best_r[l] < 1e-2 || (edge_pinned && sc.best_r[l] < 0.5) {
                sc.status[l] = LANE_PLATEAU;
                sc.t_sol[l] = sc.best_t[l];
                sc.ele_sol[l] = sc.best_ele[l];
            } else {
                return Err(EosError::NoConvergence {
                    mode,
                    residual: sc.best_r[l],
                });
            }
        }

        // Once per lane, at the accepted T (already located cleanly there),
        // interpolate what the iterations did not.
        let rest = BATCH_OUTPUT.without(iterated);
        if !rest.is_empty() {
            self.table
                .interp_lanes(self.simd, rest, &sc.rho, &sc.t_sol, &mut sc.ele_sol)?;
        }
        Ok(hist)
    }
}

/// Lane states of the batched inversion.
const LANE_ACTIVE: u8 = 0;
/// Clean `|resid| < 1e-10` exit — the vector path's solution is used as-is.
const LANE_VECTOR: u8 = 1;
/// At the clamp past the goal, bracket collapse or iteration exhaustion,
/// accepted on the scalar path's residual-plateau criterion at the lane's
/// best-tracked point.
const LANE_PLATEAU: u8 = 2;

/// Reusable per-thread scratch for the batched solve: grown once to the
/// widest batch seen on this thread, then reused allocation-free.
#[derive(Default)]
struct BatchScratch {
    /// Per lane: located ρYₑ, Newton goal, iterate, bracket, previous
    /// residual, exit state, and the accepted (T, point) and best (|resid|,
    /// T, point) so far.
    rho: Vec<RhoCell>,
    goal: Vec<f64>,
    t: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    prev: Vec<f64>,
    status: Vec<u8>,
    t_sol: Vec<f64>,
    ele_sol: Vec<ElecPoint>,
    best_r: Vec<f64>,
    best_t: Vec<f64>,
    best_ele: Vec<ElecPoint>,
    best_set: Vec<bool>,
    /// The still-active lanes and their compacted interpolation inputs and
    /// outputs.
    active: Vec<usize>,
    c_rho: Vec<RhoCell>,
    c_temp: Vec<f64>,
    c_ele: Vec<ElecPoint>,
}

thread_local! {
    static SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// Ion Coulomb corrections for a one-component plasma.
///
/// Coupling parameter Γ = Z²e²/(a·kT) with the ion-sphere radius
/// a = (3/4πn_i)^{1/3}. Internal energy per ion in kT units:
/// * weak coupling: Debye–Hückel, u = −(√3/2)·Γ^{3/2};
/// * liquid OCP: Slattery, Doolen & DeWitt (1982) fit
///   u = AΓ + BΓ^{1/4} + CΓ^{−1/4} + D.
///
/// The two expressions cross at Γ ≈ 0.1821, which is where we switch —
/// u(Γ) is then continuous by construction.
///
/// The virial theorem gives P_C = n_i kT·u/3. Derivatives follow from
/// Γ ∝ n_i^{1/3}/T analytically.
fn add_coulomb(ev: &mut Eval, dens: f64, temp: f64, abar: f64, zbar: f64) {
    const E2: f64 = 2.3070775e-19; // e² in CGS (esu²)
    const A: f64 = -0.897744;
    const B: f64 = 0.95043;
    const C: f64 = 0.18956;
    const D: f64 = -0.81487;

    let n_ion = dens * N_A / abar;
    let a_ion = (3.0 / (4.0 * std::f64::consts::PI * n_ion)).cbrt();
    let kt = K_B * temp;
    let gamma = zbar * zbar * E2 / (a_ion * kt);
    if !(gamma.is_finite() && gamma > 0.0) {
        return;
    }

    // u = U/(N kT) and Γ·du/dΓ. Branches cross at Γ ≈ 0.1821.
    const GAMMA_SWITCH: f64 = 0.18214891338532474;
    let (u, gdudg) = if gamma < GAMMA_SWITCH {
        let u = -0.75f64.sqrt() * gamma.powf(1.5);
        (u, 1.5 * u)
    } else {
        let u = A * gamma + B * gamma.powf(0.25) + C * gamma.powf(-0.25) + D;
        let g = A * gamma + 0.25 * B * gamma.powf(0.25) - 0.25 * C * gamma.powf(-0.25);
        (u, g)
    };

    let nkt = n_ion * kt;
    let p_c = nkt * u / 3.0;
    // FLASH-style "bomb-proofing", smoothed: when the Coulomb term grows
    // toward ~10% of the total pressure the fluid OCP fit is leaving its
    // regime (solid carbon at low T, Γ ≫ Γ_melt), so the correction is
    // tapered off. A *smooth* taper (rather than FLASH's hard cutoff)
    // keeps e(T) and P(T) continuous so the Newton inversions stay well
    // posed. In the regimes the supernova application visits the taper is
    // ≈1 and the correction is a small negative term.
    let ratio = p_c.abs() / (0.1 * ev.pres).max(f64::MIN_POSITIVE);
    let taper = 1.0 / (1.0 + ratio * ratio * ratio * ratio);
    let p_c = p_c * taper;
    let u = u * taper;
    let gdudg = gdudg * taper;
    ev.pres += p_c;
    ev.eint += nkt * u / dens;
    // Γ ∝ T⁻¹ at fixed ρ: d(nkT·u)/dT = n k (u + T du/dT) = n k (u − Γu').
    ev.cv += n_ion * K_B * (u - gdudg) / dens;
    ev.dpdt += n_ion * K_B * (u - gdudg) / 3.0;
    // Γ ∝ ρ^{1/3} at fixed T: dP_C/dρ = (P_C/ρ)(1 + (1/3)Γu'/u) — expand:
    // P_C = (kT/3)(N_A/abar)ρ·u(Γ(ρ)), dP_C/dρ = (P_C/ρ) + (kT N_A/3abar)·(Γu')/3.
    ev.dpdr += p_c / dens + kt * N_A / (3.0 * abar) * gdudg / 3.0;
}

/// Sackur–Tetrode specific entropy for the ideal ion gas, erg/(g·K).
fn sackur_tetrode(dens: f64, temp: f64, abar: f64) -> f64 {
    let m_ion = abar / N_A; // grams per ion
    let n_ion = dens * N_A / abar; // cm⁻³
    let n_q = (2.0 * std::f64::consts::PI * m_ion * K_B * temp / (H_PLANCK * H_PLANCK)).powf(1.5);
    (N_A * K_B / abar) * ((n_q / n_ion).max(f64::MIN_POSITIVE).ln() + 2.5)
}

impl Eos for Helmholtz {
    fn call(&self, mode: EosMode, s: &mut EosState) -> Result<(), EosError> {
        if !(s.dens.is_finite() && s.dens > 0.0) {
            return Err(EosError::BadInput {
                what: "dens",
                value: s.dens,
            });
        }
        if !(s.abar > 0.0 && s.zbar > 0.0) {
            return Err(EosError::BadInput {
                what: "abar/zbar",
                value: s.abar,
            });
        }
        match mode {
            EosMode::DensTemp => {
                let ev = self.evaluate(s.dens, s.temp, s.abar, s.zbar)?;
                self.apply(s, ev);
            }
            EosMode::DensEi => {
                let goal = s.eint;
                if goal.is_nan() || goal <= 0.0 {
                    return Err(EosError::BadInput {
                        what: "eint",
                        value: goal,
                    });
                }
                let (t, ev) = self.invert(s, goal, "DensEi", |ev| (ev.eint, ev.cv))?;
                s.temp = t;
                self.apply(s, ev);
                s.eint = goal; // preserve the conserved quantity exactly
                s.finish_derived();
            }
            EosMode::DensPres => {
                let goal = s.pres;
                if goal.is_nan() || goal <= 0.0 {
                    return Err(EosError::BadInput {
                        what: "pres",
                        value: goal,
                    });
                }
                let (t, ev) = self.invert(s, goal, "DensPres", |ev| (ev.pres, ev.dpdt))?;
                s.temp = t;
                self.apply(s, ev);
                s.pres = goal;
                s.finish_derived();
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "helmholtz"
    }

    /// Vectorized batch path: table gather + bicubic evaluation run as
    /// explicit lane loops over the whole batch; `DensEi`/`DensPres` lanes
    /// that do not hit the clean convergence exit stay in the compacted
    /// masked re-iteration and are resolved by the scalar path's
    /// residual-plateau criterion. A Newton iteration interpolates only the
    /// goal quantity (plus P for Coulomb `DensEi`); the rest is evaluated
    /// once at the accepted T, and entropy never. Outputs are bit-identical
    /// to per-zone [`Eos::call`] on every lane (see [`crate::batch`] for the
    /// contract, `invert_lanes` for why).
    fn eos_batch(&self, mode: EosMode, b: &mut EosBatch<'_>) -> Result<BatchReport, EosError> {
        let lanes = b.lanes();
        if lanes == 0 {
            return Ok(BatchReport::default());
        }
        // Per-lane validation in the scalar path's order, so the first bad
        // lane produces the same error `call` would.
        for l in 0..lanes {
            if !(b.dens[l].is_finite() && b.dens[l] > 0.0) {
                return Err(EosError::BadInput {
                    what: "dens",
                    value: b.dens[l],
                });
            }
            if !(b.abar[l] > 0.0 && b.zbar[l] > 0.0) {
                return Err(EosError::BadInput {
                    what: "abar/zbar",
                    value: b.abar[l],
                });
            }
            match mode {
                EosMode::DensTemp => {}
                EosMode::DensEi => {
                    if b.eint[l].is_nan() || b.eint[l] <= 0.0 {
                        return Err(EosError::BadInput {
                            what: "eint",
                            value: b.eint[l],
                        });
                    }
                }
                EosMode::DensPres => {
                    if b.pres[l].is_nan() || b.pres[l] <= 0.0 {
                        return Err(EosError::BadInput {
                            what: "pres",
                            value: b.pres[l],
                        });
                    }
                }
            }
        }

        SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            // ρYₑ is fixed per lane: one `log10` and cell lookup per batch.
            sc.rho.clear();
            sc.rho.extend(
                (0..lanes).map(|l| self.table.locate_rho(b.dens[l] * b.zbar[l] / b.abar[l])),
            );
            if let EosMode::DensTemp = mode {
                // Direct evaluation: batch the interpolation, then the
                // additive components, exactly as `call` + `apply` would.
                sc.c_ele.clear();
                sc.c_ele.resize(lanes, ElecPoint::default());
                self.table.interp_lanes(
                    self.simd,
                    BATCH_OUTPUT,
                    &sc.rho,
                    &*b.temp,
                    &mut sc.c_ele,
                )?;
                for l in 0..lanes {
                    let ev = self.assemble(sc.c_ele[l], b.dens[l], b.temp[l], b.abar[l], b.zbar[l]);
                    b.pres[l] = ev.pres;
                    b.eint[l] = ev.eint;
                    let chi =
                        ev.dpdr + b.temp[l] * ev.dpdt * ev.dpdt / (b.dens[l] * b.dens[l] * ev.cv);
                    b.gamc[l] = (chi * b.dens[l] / ev.pres).max(1.01);
                    b.game[l] = 1.0 + ev.pres / (b.dens[l] * ev.eint).max(f64::MIN_POSITIVE);
                }
                return Ok(BatchReport {
                    lanes: lanes as u64,
                    vector_lanes: lanes as u64,
                    ..Default::default()
                });
            }

            sc.goal.clear();
            match mode {
                EosMode::DensEi => sc.goal.extend_from_slice(b.eint),
                EosMode::DensPres => sc.goal.extend_from_slice(b.pres),
                // DensTemp returned above — this arm is statically unreachable.
                EosMode::DensTemp => unreachable!(),
            }
            let iter_hist = {
                // Split the borrow: invert_lanes mutates the solver fields
                // while reading the batch's input lanes.
                let (dens, abar, zbar, temp) = (&*b.dens, &*b.abar, &*b.zbar, &*b.temp);
                match mode {
                    EosMode::DensEi => {
                        // e(T) alone, unless the Coulomb taper (which scales
                        // with P) makes e read P too.
                        let iterated = if self.include_ions && self.include_coulomb {
                            BATCH_OUTPUT
                        } else {
                            Quantities::ENER
                        };
                        self.invert_lanes(sc, "DensEi", iterated, dens, abar, zbar, temp, |ev| {
                            (ev.eint, ev.cv)
                        })?
                    }
                    _ => {
                        let iterated = Quantities::PRES;
                        self.invert_lanes(sc, "DensPres", iterated, dens, abar, zbar, temp, |ev| {
                            (ev.pres, ev.dpdt)
                        })?
                    }
                }
            };

            // Every lane is now LANE_VECTOR or LANE_PLATEAU (a failed
            // plateau check returned the scalar path's error above); both
            // share the output tail because the scalar `invert` returns its
            // plateau best point through the identical `Ok` path.
            let mut vector_lanes = 0u64;
            let mut plateau_lanes = 0u64;
            for l in 0..lanes {
                if sc.status[l] == LANE_VECTOR {
                    vector_lanes += 1;
                } else {
                    plateau_lanes += 1;
                }
                let t = sc.t_sol[l];
                let ev = self.assemble(sc.ele_sol[l], b.dens[l], t, b.abar[l], b.zbar[l]);
                // Replicates `call`'s tail: temp = t, apply(), goal
                // restored, finish_derived() — same expressions in the
                // same order, so each output is bit-identical.
                let chi = ev.dpdr + t * ev.dpdt * ev.dpdt / (b.dens[l] * b.dens[l] * ev.cv);
                b.temp[l] = t;
                b.gamc[l] = (chi * b.dens[l] / ev.pres).max(1.01);
                match mode {
                    EosMode::DensEi => {
                        b.pres[l] = ev.pres;
                        // eint stays the conserved goal.
                        b.game[l] = 1.0 + ev.pres / (b.dens[l] * sc.goal[l]).max(f64::MIN_POSITIVE);
                    }
                    _ => {
                        b.eint[l] = ev.eint;
                        // pres stays the goal.
                        b.game[l] = 1.0 + sc.goal[l] / (b.dens[l] * ev.eint).max(f64::MIN_POSITIVE);
                    }
                }
            }
            Ok(BatchReport {
                lanes: lanes as u64,
                vector_lanes,
                plateau_lanes,
                iter_hist,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::electron::cold_pressure;
    use rflash_hugepages::Policy;
    use std::sync::OnceLock;

    /// Build the (coarse) test table once for the whole module.
    fn eos() -> &'static Helmholtz {
        static EOS: OnceLock<Helmholtz> = OnceLock::new();
        EOS.get_or_init(|| Helmholtz::build(TableConfig::coarse(), Policy::None).unwrap())
    }

    #[test]
    fn ideal_regime_matches_two_ideal_gases() {
        // Warm, dilute hydrogen-like matter: ions + electrons, each n k T.
        let mut s = EosState {
            abar: 1.0,
            zbar: 1.0,
            ..EosState::co_wd(1e-3, 1e6)
        };
        eos().call(EosMode::DensTemp, &mut s).unwrap();
        let nkt = s.dens * N_A * K_B * s.temp / s.abar;
        assert!(
            (s.pres - 2.0 * nkt).abs() / (2.0 * nkt) < 0.05,
            "P={:e} 2nkT={:e}",
            s.pres,
            2.0 * nkt
        );
    }

    #[test]
    fn wd_core_is_degeneracy_dominated() {
        let mut s = EosState::co_wd(2e9, 5e7);
        eos().call(EosMode::DensTemp, &mut s).unwrap();
        let cold = cold_pressure(s.dens * s.ye() * N_A);
        assert!(
            (s.pres - cold).abs() / cold < 0.05,
            "P={:e} cold={cold:e}",
            s.pres
        );
        // Γ₁ between 4/3 (relativistic) and 5/3.
        assert!(s.gamc > 1.3 && s.gamc < 1.7, "gamc={}", s.gamc);
        // Sound speed below c.
        assert!(s.cs < 3e10);
    }

    #[test]
    fn radiation_dominated_gamma_is_four_thirds() {
        // 1e8 K: hot enough for radiation to dwarf the dilute matter,
        // cool enough that e± pair creation (which physically drives
        // gamma_1 below 4/3, the pair-instability effect) is absent.
        let mut s = EosState::co_wd(2e-4, 1e8);
        eos().call(EosMode::DensTemp, &mut s).unwrap();
        let prad = A_RAD * s.temp.powi(4) / 3.0;
        assert!(prad / s.pres > 0.9, "radiation fraction {}", prad / s.pres);
        assert!((s.gamc - 4.0 / 3.0).abs() < 0.05, "gamc={}", s.gamc);
    }

    #[test]
    fn pair_creation_region_softens_gamma() {
        // The physical counterpart of the case above: at 1e9 K and low
        // density, pair creation acts like an ionization zone and drives
        // gamma_1 below 4/3 (pair instability).
        let mut s = EosState::co_wd(2e-4, 1e9);
        eos().call(EosMode::DensTemp, &mut s).unwrap();
        assert!(s.gamc < 4.0 / 3.0, "gamc={}", s.gamc);
        assert!(s.gamc > 1.0);
    }

    #[test]
    fn dens_ei_round_trip() {
        for (dens, temp) in [(1e7, 1e8), (2e9, 5e7), (1e5, 3e9), (1e2, 1e7)] {
            let mut s = EosState::co_wd(dens, temp);
            eos().call(EosMode::DensTemp, &mut s).unwrap();
            let t_true = s.temp;
            s.temp = 1e6; // bad guess
            eos().call(EosMode::DensEi, &mut s).unwrap();
            assert!(
                (s.temp - t_true).abs() / t_true < 1e-6,
                "dens={dens:e}: T={:e} vs {t_true:e}",
                s.temp
            );
        }
    }

    #[test]
    fn dens_pres_round_trip() {
        for (dens, temp) in [(1e7, 1e8), (1e3, 1e8)] {
            let mut s = EosState::co_wd(dens, temp);
            eos().call(EosMode::DensTemp, &mut s).unwrap();
            let t_true = s.temp;
            s.temp = 1e9;
            eos().call(EosMode::DensPres, &mut s).unwrap();
            assert!(
                (s.temp - t_true).abs() / t_true < 1e-5,
                "dens={dens:e}: T={:e} vs {t_true:e}",
                s.temp
            );
        }
    }

    #[test]
    fn degenerate_pressure_insensitive_to_temperature() {
        // The WD-core property that makes thermonuclear runaways possible:
        // heating barely changes pressure.
        let mut cold = EosState::co_wd(2e9, 1e7);
        eos().call(EosMode::DensTemp, &mut cold).unwrap();
        let mut hot = EosState::co_wd(2e9, 1e9);
        eos().call(EosMode::DensTemp, &mut hot).unwrap();
        assert!(
            (hot.pres - cold.pres) / cold.pres < 0.05,
            "ΔP/P = {}",
            (hot.pres - cold.pres) / cold.pres
        );
    }

    #[test]
    fn cv_positive_and_entropy_rises_with_t() {
        let mut a = EosState::co_wd(1e6, 1e7);
        eos().call(EosMode::DensTemp, &mut a).unwrap();
        let mut b = EosState::co_wd(1e6, 1e9);
        eos().call(EosMode::DensTemp, &mut b).unwrap();
        assert!(a.cv > 0.0 && b.cv > 0.0);
        assert!(b.entr > a.entr);
        assert!(b.eint > a.eint);
    }

    #[test]
    fn bad_inputs_and_domain() {
        let mut s = EosState::co_wd(-1.0, 1e7);
        assert!(matches!(
            eos().call(EosMode::DensTemp, &mut s),
            Err(EosError::BadInput { .. })
        ));
        let mut s = EosState::co_wd(1e20, 1e7); // above table domain
        assert!(matches!(
            eos().call(EosMode::DensTemp, &mut s),
            Err(EosError::OutOfRange { .. })
        ));
    }

    #[test]
    fn name_is_helmholtz() {
        assert_eq!(eos().name(), "helmholtz");
    }

    /// Seeded lanes for the batch oracle: inputs plus the Newton goal of
    /// one mode (unused by `DensTemp`).
    struct Lanes {
        dens: Vec<f64>,
        temp: Vec<f64>,
        abar: Vec<f64>,
        zbar: Vec<f64>,
        goal: Vec<f64>,
    }

    /// The quantity `mode` inverts for, read off a solved state.
    fn goal_of(mode: EosMode, s: &EosState) -> f64 {
        match mode {
            EosMode::DensEi => s.eint,
            EosMode::DensPres => s.pres,
            EosMode::DensTemp => 0.0,
        }
    }

    /// A seeded (dens, temp) grid spanning degenerate, ideal, radiation- and
    /// pair-dominated corners, abar/zbar alternating between CO and
    /// helium-like compositions, with goals of five kinds: perturbed (clean
    /// Newton exits), 0.7× and 3× the true value (long walks), and just past
    /// the value at the table's lowest and highest temperature (edge-pinned
    /// plateau acceptance). Temperatures start at a common bad guess except
    /// for `DensTemp`, where they are the inputs. With `solvable`, lanes
    /// the scalar solve rejects are left out.
    fn seeded_lanes(h: &Helmholtz, mode: EosMode, solvable: bool) -> Lanes {
        let (lo, hi) = h.table().config().log_temp;
        let (t_floor, t_ceil) = (10f64.powf(lo) * 1.0001, 10f64.powf(hi) * 0.9999);
        let mut lanes = Lanes {
            dens: Vec::new(),
            temp: Vec::new(),
            abar: Vec::new(),
            zbar: Vec::new(),
            goal: Vec::new(),
        };
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let state = |d: f64, t: f64, a: f64, z: f64| {
            let mut s = EosState {
                abar: a,
                zbar: z,
                ..EosState::co_wd(d, t)
            };
            h.call(EosMode::DensTemp, &mut s).map(|()| s)
        };
        for i in 0..60 {
            let d = 10f64.powf(-3.0 + 12.0 * next());
            let t = 10f64.powf(4.0 + 5.5 * next());
            let (a, z) = if i % 3 == 0 {
                (4.0, 2.0)
            } else {
                (13.714285714285715, 6.857142857142857)
            };
            let Ok(s) = state(d, t, a, z) else { continue };
            let goal = match i % 5 {
                0 => goal_of(mode, &s) * (1.0 + 0.3 * next()),
                1 => goal_of(mode, &s) * 0.7,
                2 => goal_of(mode, &state(d, t_floor, a, z).unwrap()) * 0.8,
                3 => goal_of(mode, &s) * 3.0,
                _ => goal_of(mode, &state(d, t_ceil, a, z).unwrap()) * 1.25,
            };
            let t = if mode == EosMode::DensTemp { t } else { 3e7 };
            if solvable && scalar_lane(h, mode, d, t, a, z, goal).is_err() {
                continue;
            }
            lanes.dens.push(d);
            lanes.temp.push(t);
            lanes.abar.push(a);
            lanes.zbar.push(z);
            lanes.goal.push(goal);
        }
        lanes
    }

    /// One lane through the scalar oracle, `call`.
    fn scalar_lane(
        h: &Helmholtz,
        mode: EosMode,
        dens: f64,
        temp: f64,
        abar: f64,
        zbar: f64,
        goal: f64,
    ) -> Result<EosState, EosError> {
        let mut s = EosState {
            abar,
            zbar,
            ..EosState::co_wd(dens, temp)
        };
        match mode {
            EosMode::DensEi => s.eint = goal,
            EosMode::DensPres => s.pres = goal,
            EosMode::DensTemp => {}
        }
        h.call(mode, &mut s).map(|()| s)
    }

    /// Run `lanes` through `eos_batch` and each lane through per-zone
    /// `call`. On success every output lane must equal the scalar one bit
    /// for bit; on failure the batch error must be the first failing lane's.
    fn batch_vs_scalar(
        h: &Helmholtz,
        mode: EosMode,
        lanes: &Lanes,
    ) -> Result<BatchReport, EosError> {
        let n = lanes.dens.len();
        let scalar: Vec<Result<EosState, EosError>> = (0..n)
            .map(|l| {
                let (d, t, a, z) = (lanes.dens[l], lanes.temp[l], lanes.abar[l], lanes.zbar[l]);
                scalar_lane(h, mode, d, t, a, z, lanes.goal[l])
            })
            .collect();
        let mut temp = lanes.temp.clone();
        let mut eint = vec![0.0; n];
        let mut pres = vec![0.0; n];
        match mode {
            EosMode::DensEi => eint.copy_from_slice(&lanes.goal),
            EosMode::DensPres => pres.copy_from_slice(&lanes.goal),
            EosMode::DensTemp => {}
        }
        let mut gamc = vec![0.0; n];
        let mut game = vec![0.0; n];
        let got = h.eos_batch(
            mode,
            &mut EosBatch {
                dens: &lanes.dens,
                eint: &mut eint,
                temp: &mut temp,
                abar: &lanes.abar,
                zbar: &lanes.zbar,
                pres: &mut pres,
                gamc: &mut gamc,
                game: &mut game,
            },
        );
        match &got {
            Ok(_) => {
                for (l, s) in scalar.iter().enumerate() {
                    let s = s.as_ref().unwrap_or_else(|e| {
                        panic!("scalar lane {l} failed ({e}) but the batch succeeded")
                    });
                    for (name, b, s) in [
                        ("temp", temp[l], s.temp),
                        ("pres", pres[l], s.pres),
                        ("eint", eint[l], s.eint),
                        ("gamc", gamc[l], s.gamc),
                        ("game", game[l], s.game),
                    ] {
                        assert_eq!(b.to_bits(), s.to_bits(), "lane {l} {name}: {b:e} vs {s:e}");
                    }
                }
            }
            Err(e) => {
                let first = scalar.iter().find_map(|r| r.as_ref().err());
                assert_eq!(
                    Some(e),
                    first,
                    "batch error vs the first failing scalar lane"
                );
            }
        }
        got
    }

    /// The physics switches each change what one lane-iteration reads
    /// (Coulomb adds P to a `DensEi` iteration): (name, radiation, ions,
    /// Coulomb).
    const PHYSICS: [(&str, bool, bool, bool); 4] = [
        ("default", true, true, false),
        ("coulomb", true, true, true),
        ("no radiation", false, true, false),
        ("no ions", true, false, false),
    ];

    /// The batched solve against the scalar oracle: every physics
    /// configuration × mode × SIMD backend, bit for bit on every output of
    /// every lane, with identical Newton histograms across backends; and
    /// batches that fail report the first failing lane's error.
    #[test]
    fn batched_lanes_are_bit_exact_vs_scalar() {
        let mut h = Helmholtz::build(TableConfig::coarse(), Policy::None).unwrap();
        for (physics, radiation, ions, coulomb) in PHYSICS {
            h.include_radiation = radiation;
            h.include_ions = ions;
            h.include_coulomb = coulomb;
            for mode in [EosMode::DensTemp, EosMode::DensEi, EosMode::DensPres] {
                let lanes = seeded_lanes(&h, mode, true);
                let n = lanes.dens.len() as u64;
                assert!(
                    n > 40,
                    "{physics} {mode:?}: grid should mostly be solvable, got {n}"
                );
                let mut hist = None;
                for &backend in Resolved::all() {
                    h.set_simd(backend);
                    let what = format!("{physics} {mode:?} {backend}");
                    // The whole grid, unsolvable lanes included: the batch
                    // succeeds or fails exactly as the lanes do one by one.
                    let _ = batch_vs_scalar(&h, mode, &seeded_lanes(&h, mode, false));
                    let report = batch_vs_scalar(&h, mode, &lanes)
                        .unwrap_or_else(|e| panic!("{what}: the seeded batch failed: {e}"));
                    assert_eq!(report.lanes, n, "{what}");
                    assert_eq!(report.vector_lanes + report.plateau_lanes, n, "{what}");
                    if mode == EosMode::DensTemp {
                        assert_eq!(report.vector_lanes, n, "{what}: DensTemp is all-vector");
                    } else {
                        // Both exits, and occupancy decaying from a full
                        // first iteration.
                        assert!(report.vector_lanes > 0, "{what}: no clean Newton exit");
                        assert!(report.plateau_lanes > 0, "{what}: no plateau acceptance");
                        assert_eq!(report.iter_hist[0], n, "{what}");
                        assert!(report.iter_hist[1] > 0, "{what}: no lane iterated twice");
                        assert!(report.iter_hist[1] <= report.iter_hist[0], "{what}");
                    }
                    let first = *hist.get_or_insert(report.iter_hist);
                    assert_eq!(report.iter_hist, first, "{what}: Newton histogram diverged");
                }

                // A later lane out of range in ρYₑ must not pre-empt an
                // earlier lane's error: the hoisted log10(ρYₑ) checks its
                // domain lane by lane, ρYₑ before T. Only `DensTemp` can put
                // T out of range (the inversions clamp and bracket T inside
                // the table), so there the first bad lane is a bad T.
                let (d_bad, t_bad) = (1e20, 1.0);
                let (dens, temp) = match mode {
                    EosMode::DensTemp => {
                        (vec![1e6, 1e6, d_bad, d_bad], vec![1e7, t_bad, 1e7, t_bad])
                    }
                    _ => (vec![1e6, d_bad, 1e25], vec![1e7; 3]),
                };
                let mut good = EosState::co_wd(1e6, 1e7);
                h.call(EosMode::DensTemp, &mut good).unwrap();
                let m = dens.len();
                let bad = Lanes {
                    dens,
                    temp,
                    abar: vec![good.abar; m],
                    zbar: vec![good.zbar; m],
                    goal: vec![goal_of(mode, &good); m],
                };
                for &backend in Resolved::all() {
                    h.set_simd(backend);
                    let err = batch_vs_scalar(&h, mode, &bad).expect_err("out-of-range lanes");
                    let want = if mode == EosMode::DensTemp {
                        "log10(T)"
                    } else {
                        "log10(rho*Ye)"
                    };
                    assert!(
                        matches!(err, EosError::OutOfRange { what, .. } if what == want),
                        "{physics} {mode:?} {backend}: {err}"
                    );
                }
            }
        }
    }

    /// Goals just past the table's temperature range — a degenerate zone
    /// a rarefaction cooled below e(T_floor), a zone heated past e(T_ceil)
    /// — settle at the edge clamp within three rounds of a far guess, on
    /// every backend, batched and scalar alike.
    #[test]
    fn goals_past_the_table_settle_at_the_clamp_in_three_rounds() {
        let mut h = Helmholtz::build(TableConfig::coarse(), Policy::None).unwrap();
        let (lo, hi) = h.table().config().log_temp;
        let (t_floor, t_ceil) = (10f64.powf(lo) * 1.0001, 10f64.powf(hi) * 0.9999);
        // (density, clamp, goal ÷ its value at the clamp). Below the floor
        // only from 1e6 g/cm³ up: in thinner matter a 3e7 K guess is
        // radiation-dominated and Newton walks e ∝ T⁴ down by accepted
        // steps before the edge rule can apply.
        let mut pinned = Vec::new();
        for dens in [1e-2, 1e2, 1e5, 1e6, 1e7, 4e7, 1e8, 1e9, 2e9] {
            if dens >= 1e6 {
                pinned.extend([(dens, t_floor, 0.9985), (dens, t_floor, 0.8)]);
            }
            pinned.extend([(dens, t_ceil, 1.0015), (dens, t_ceil, 1.25)]);
        }
        for mode in [EosMode::DensEi, EosMode::DensPres] {
            let mut lanes = Lanes {
                dens: Vec::new(),
                temp: Vec::new(),
                abar: Vec::new(),
                zbar: Vec::new(),
                goal: Vec::new(),
            };
            for &(dens, edge, past) in &pinned {
                let mut s = EosState::co_wd(dens, edge);
                h.call(EosMode::DensTemp, &mut s).unwrap();
                let goal = goal_of(mode, &s) * past;
                let solved = scalar_lane(&h, mode, dens, 3e7, s.abar, s.zbar, goal).unwrap();
                assert_eq!(
                    solved.temp.to_bits(),
                    edge.to_bits(),
                    "{mode:?} ρ={dens:e} goal×{past}: T={:e}",
                    solved.temp
                );
                lanes.dens.push(dens);
                lanes.temp.push(3e7);
                lanes.abar.push(s.abar);
                lanes.zbar.push(s.zbar);
                lanes.goal.push(goal);
            }
            let n = pinned.len() as u64;
            for &backend in Resolved::all() {
                h.set_simd(backend);
                let what = format!("{mode:?} {backend}");
                let report = batch_vs_scalar(&h, mode, &lanes)
                    .unwrap_or_else(|e| panic!("{what}: pinned lanes were rejected: {e}"));
                assert_eq!(report.plateau_lanes, n, "{what}");
                assert_eq!(report.iter_hist[0], n, "{what}");
                assert!(
                    report.iter_hist[3..].iter().all(|&active| active == 0),
                    "{what}: a lane took more than three rounds: {:?}",
                    report.iter_hist
                );
            }
        }
    }

    #[test]
    fn batched_dens_pres_round_trips() {
        let h = eos();
        let dens = [1e7, 1e3];
        let mut s0 = EosState::co_wd(dens[0], 1e8);
        h.call(EosMode::DensTemp, &mut s0).unwrap();
        let mut s1 = EosState::co_wd(dens[1], 1e8);
        h.call(EosMode::DensTemp, &mut s1).unwrap();
        let mut pres = [s0.pres, s1.pres];
        let mut temp = [1e9, 1e9];
        let mut eint = [0.0, 0.0];
        let abar = [13.714285714285715; 2];
        let zbar = [6.857142857142857; 2];
        let mut gamc = [0.0; 2];
        let mut game = [0.0; 2];
        let mut b = EosBatch {
            dens: &dens,
            eint: &mut eint,
            temp: &mut temp,
            abar: &abar,
            zbar: &zbar,
            pres: &mut pres,
            gamc: &mut gamc,
            game: &mut game,
        };
        h.eos_batch(EosMode::DensPres, &mut b).unwrap();
        for (l, want) in [(0usize, 1e8f64), (1, 1e8)] {
            assert!(
                (temp[l] - want).abs() / want < 1e-5,
                "lane {l}: T={:e}",
                temp[l]
            );
        }
    }
}

#[cfg(test)]
mod coulomb_tests {
    use super::*;
    use rflash_hugepages::Policy;
    use std::sync::OnceLock;

    fn pair() -> &'static (Helmholtz, Helmholtz) {
        static EOS: OnceLock<(Helmholtz, Helmholtz)> = OnceLock::new();
        EOS.get_or_init(|| {
            let mut with = Helmholtz::build(TableConfig::coarse(), Policy::None).unwrap();
            with.include_coulomb = true;
            let without = Helmholtz::build(TableConfig::coarse(), Policy::None).unwrap();
            (with, without)
        })
    }

    #[test]
    fn coulomb_correction_is_negative_and_small_at_wd_core() {
        let (with, without) = pair();
        let mut a = EosState::co_wd(2e9, 5e7);
        with.call(EosMode::DensTemp, &mut a).unwrap();
        let mut b = EosState::co_wd(2e9, 5e7);
        without.call(EosMode::DensTemp, &mut b).unwrap();
        // Binding lowers both pressure and energy…
        assert!(a.pres < b.pres);
        assert!(a.eint < b.eint);
        // …by a small fraction of the (degeneracy-dominated) total.
        let dp = (b.pres - a.pres) / b.pres;
        assert!(dp > 1e-5 && dp < 0.05, "ΔP/P = {dp}");
    }

    #[test]
    fn coulomb_negligible_when_weakly_coupled() {
        // Hot and dilute: Γ ≪ 1, the correction must all but vanish.
        let (with, without) = pair();
        let mut a = EosState::co_wd(1.0, 1e9);
        with.call(EosMode::DensTemp, &mut a).unwrap();
        let mut b = EosState::co_wd(1.0, 1e9);
        without.call(EosMode::DensTemp, &mut b).unwrap();
        assert!(((b.pres - a.pres) / b.pres).abs() < 1e-4);
    }

    #[test]
    fn coulomb_branch_is_continuous_at_the_switch() {
        // The switch point is the crossing of the two fits, so u(Γ) is
        // continuous there to rounding.
        let g = 0.18214891338532474f64;
        let dh = -0.75f64.sqrt() * g.powf(1.5);
        let ocp = -0.897744 * g + 0.95043 * g.powf(0.25) + 0.18956 * g.powf(-0.25) - 0.81487;
        assert!((dh - ocp).abs() < 1e-12, "branch mismatch: {dh} vs {ocp}");
    }

    #[test]
    fn coulomb_pressure_is_continuous_across_the_switch() {
        // Vary density through the Γ-switch at fixed T and check P(ρ) has
        // no visible jump (successive relative steps stay smooth).
        let (with, _) = pair();
        let mut prev: Option<f64> = None;
        for i in 0..40 {
            let dens = 10f64.powf(-2.0 + i as f64 * 0.1);
            let mut s = EosState::co_wd(dens, 1e7);
            with.call(EosMode::DensTemp, &mut s).unwrap();
            if let Some(p_prev) = prev {
                let step = s.pres / p_prev;
                assert!(step > 1.0 && step < 4.0, "P jump at dens={dens:e}: ×{step}");
            }
            prev = Some(s.pres);
        }
    }

    #[test]
    fn inversions_still_round_trip_with_coulomb() {
        let (with, _) = pair();
        let mut s = EosState::co_wd(2e9, 5e7);
        with.call(EosMode::DensTemp, &mut s).unwrap();
        let t_true = s.temp;
        s.temp = 1e9;
        with.call(EosMode::DensEi, &mut s).unwrap();
        assert!((s.temp - t_true).abs() / t_true < 1e-5, "{:e}", s.temp);
    }
}

//! Property-based backend parity: the explicit AVX2 backend (run on the
//! scalar lane where the CPU lacks AVX2) must produce **bit-identical**
//! results to the 1-wide scalar lane on
//! randomized states — the contract DESIGN.md §16 pins (no FMA, scalar
//! operation order, select-semantics min/max, W-chunks + scalar tail
//! through one generic kernel).
//!
//! Three surfaces are exercised: full pencil-engine sweeps over randomized
//! smooth domains (PPM + HLLC + conservative update, then a batched gamma
//! EOS pass after each sweep, as the driver runs it); the slab engine on
//! every backend against the slab engine on the scalar lane, the oracle,
//! on randomized discontinuities (every interior and every stored boundary
//! flux, 2-d / r–z / 3-d, block sizes that do and do not divide the lane
//! widths); and the batched Helmholtz DensEi inversion (bicubic table
//! evaluation + masked-re-iteration Newton) on randomized thermodynamic
//! states.

use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use rflash_eos::{Eos, EosBatch, EosMode, EosState, GammaLaw, Helmholtz, TableConfig};
use rflash_hugepages::Policy;
use rflash_hydro::{compute_dt_parallel_raw, sweep_direction, SweepConfig, SweepEos, NFLUX};
use rflash_mesh::flux::{Face, FluxRegister};
use rflash_mesh::tree::MeshConfig;
use rflash_mesh::{vars, BoundaryCondition, Domain, Geometry};
use rflash_simd::Resolved;

/// Randomized smooth initial condition: sinusoidal density/pressure/velocity
/// perturbations, thermodynamically consistent through the gamma law.
#[derive(Clone, Debug)]
struct InitParams {
    dens_amp: f64,
    pres_amp: f64,
    vel_amp: f64,
    kx: f64,
    ky: f64,
    phase: f64,
}

fn arb_init() -> impl Strategy<Value = InitParams> {
    (
        0.0f64..0.45,
        0.0f64..0.45,
        0.0f64..0.3,
        1.0f64..3.0,
        1.0f64..3.0,
        0.0f64..std::f64::consts::TAU,
    )
        .prop_map(|(dens_amp, pres_amp, vel_amp, kx, ky, phase)| InitParams {
            dens_amp,
            pres_amp,
            vel_amp,
            kx: kx.round(),
            ky: ky.round(),
            phase,
        })
}

fn build_domain(p: &InitParams) -> Domain {
    let mut cfg = MeshConfig::test_2d();
    cfg.bc = BoundaryCondition::Periodic;
    let mut d = Domain::new(cfg, Policy::None);
    let eos = GammaLaw::new(1.4);
    let tau = std::f64::consts::TAU;
    for id in d.tree.leaves() {
        for j in d.unk.interior() {
            for i in d.unk.interior() {
                let x = d.tree.cell_center(id, i, j, 0);
                let dens = 1.0 + p.dens_amp * (tau * p.kx * x[0] + p.phase).sin();
                let pres = 1.0 + p.pres_amp * (tau * p.ky * x[1]).cos();
                let u = p.vel_amp * (tau * p.kx * x[1]).sin();
                let v = p.vel_amp * (tau * p.ky * x[0] + p.phase).cos();
                let mut s = EosState::co_wd(dens, 0.0);
                s.abar = 1.0;
                s.zbar = 1.0;
                s.pres = pres;
                eos.call(EosMode::DensPres, &mut s).unwrap();
                d.unk.set(vars::DENS, i, j, 0, id.idx(), dens);
                d.unk.set(vars::VELX, i, j, 0, id.idx(), u);
                d.unk.set(vars::VELY, i, j, 0, id.idx(), v);
                d.unk.set(vars::PRES, i, j, 0, id.idx(), pres);
                d.unk.set(vars::TEMP, i, j, 0, id.idx(), s.temp);
                d.unk.set(vars::EINT, i, j, 0, id.idx(), s.eint);
                d.unk.set(
                    vars::ENER,
                    i,
                    j,
                    0,
                    id.idx(),
                    s.eint + 0.5 * (u * u + v * v),
                );
                d.unk.set(vars::GAMC, i, j, 0, id.idx(), s.gamc);
                d.unk.set(vars::GAME, i, j, 0, id.idx(), s.game);
            }
        }
    }
    d
}

/// The driver's EOS pass in miniature: one batched gamma-law `DensEi`
/// call per leaf over its interior zones, refreshing the thermodynamic
/// cache the sweep leaves stale.
fn gamma_eos_pass(d: &mut Domain, eos: &GammaLaw) {
    for id in d.tree.leaves() {
        let b = id.idx();
        let mut zones = Vec::new();
        for k in d.unk.interior_k() {
            for j in d.unk.interior() {
                zones.extend(d.unk.interior().map(|i| (i, j, k)));
            }
        }
        let at = |var: usize| -> Vec<f64> {
            zones
                .iter()
                .map(|&(i, j, k)| d.unk.get(var, i, j, k, b))
                .collect()
        };
        let dens = at(vars::DENS);
        let mut eint = at(vars::EINT);
        let mut temp = at(vars::TEMP);
        let ones = vec![1.0; zones.len()];
        let (mut pres, mut gamc, mut game) = (ones.clone(), ones.clone(), ones.clone());
        let mut batch = EosBatch {
            dens: &dens,
            eint: &mut eint,
            temp: &mut temp,
            abar: &ones,
            zbar: &ones,
            pres: &mut pres,
            gamc: &mut gamc,
            game: &mut game,
        };
        eos.eos_batch(EosMode::DensEi, &mut batch)
            .expect("gamma-law DensEi");
        for (z, &(i, j, k)) in zones.iter().enumerate() {
            d.unk.set(vars::PRES, i, j, k, b, pres[z]);
            d.unk.set(vars::TEMP, i, j, k, b, temp[z]);
            d.unk.set(vars::GAMC, i, j, k, b, gamc[z]);
            d.unk.set(vars::GAME, i, j, k, b, game[z]);
        }
    }
}

/// Run two steps of full (x, y) sweeps, each followed by the batched gamma
/// EOS pass, on one backend.
fn run_backend(p: &InitParams, simd: Resolved) -> Domain {
    let mut d = build_domain(p);
    let eos = GammaLaw::new(1.4);
    let cfg = SweepConfig {
        simd,
        ..SweepConfig::default()
    };
    let mut reg = FluxRegister::new(2, 8, NFLUX, d.tree.config().max_blocks);
    for _ in 0..2 {
        let dt = compute_dt_parallel_raw(&mut d, 0.3, 1);
        for dir in 0..2 {
            sweep_direction(&mut d, &SweepEos::Defer, dir, dt, &mut reg, &cfg);
            gamma_eos_pass(&mut d, &eos);
        }
    }
    d
}

/// Bit-compare every solution variable over the interiors of two domains.
fn assert_unk_identical(a: &Domain, b: &Domain, what: &str) -> Result<(), TestCaseError> {
    for id in a.tree.leaves() {
        for var in 0..vars::NVAR {
            for k in a.unk.interior_k() {
                for j in a.unk.interior() {
                    for i in a.unk.interior() {
                        let va = a.unk.get(var, i, j, k, id.idx());
                        let vb = b.unk.get(var, i, j, k, id.idx());
                        prop_assert!(
                            va.to_bits() == vb.to_bits(),
                            "{what}: var {var} at ({i},{j},{k}) block {}: {va:e} != {vb:e}",
                            id.idx()
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// The meshes the slab engine must match the scalar oracle on.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Cartesian2d,
    /// 2-d r–z: the r-sweep carries the face-radius weights and the p/r
    /// source.
    CylindricalRz,
    Cartesian3d,
}

const SHAPES: [Shape; 3] = [Shape::Cartesian2d, Shape::CylindricalRz, Shape::Cartesian3d];

/// `nxb = 8` divides every lane width; `nxb = 6` does not divide 4, so
/// 4-wide chunks straddle two pencil positions and the HLLC span
/// (`7 × 6` lanes) ends in a scalar tail.
const NXBS: [usize; 2] = [8, 6];

/// A plane discontinuity between two gamma-law states, plus the eint
/// floor the sweeps run with.
#[derive(Clone, Debug)]
struct Discontinuity {
    /// Plane normal (need not be unit length).
    normal: [f64; 3],
    /// Plane offset from the domain centre along `normal`.
    at: f64,
    /// `[dens, pres, u, v, w]` below and above the plane.
    sides: [[f64; 5]; 2],
    eint_floor: f64,
}

fn arb_state() -> impl Strategy<Value = [f64; 5]> {
    (
        -1.0f64..1.0,
        -3.0f64..1.0,
        -1.5f64..1.5,
        -1.5f64..1.5,
        -1.5f64..1.5,
    )
        .prop_map(|(ld, lp, u, v, w)| [10f64.powf(ld), 10f64.powf(lp), u, v, w])
}

/// Strong random jumps — density and pressure over orders of magnitude,
/// colliding or separating flows up to Mach ~50 in the cold state — so the
/// flattening, monotonization and predictor-fallback branches fire, and an
/// eint floor above the coldest states so the floor fires too.
fn arb_discontinuity() -> impl Strategy<Value = Discontinuity> {
    (
        (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
        -0.2f64..0.2,
        arb_state(),
        arb_state(),
        -4.0f64..-1.5,
    )
        .prop_map(|((nx, ny, nz), at, lo, hi, floor)| Discontinuity {
            normal: [nx, ny, nz],
            at,
            sides: [lo, hi],
            eint_floor: 10f64.powf(floor),
        })
}

/// A refined mesh of `shape` with `nxb`-zone blocks holding `disc`: the
/// root is refined, then its first child, so the sweep crosses a level
/// jump and the flux correction reads the stored boundary fluxes.
fn discontinuous_domain(shape: Shape, nxb: usize, disc: &Discontinuity) -> Domain {
    let mut cfg = MeshConfig::test_2d();
    cfg.nxb = nxb;
    match shape {
        Shape::Cartesian2d => {}
        Shape::CylindricalRz => {
            cfg.geometry = Geometry::CylindricalRZ;
            cfg.bc = BoundaryCondition::Reflecting;
        }
        Shape::Cartesian3d => {
            cfg.ndim = 3;
            cfg.max_blocks = 32;
        }
    }
    let mut d = Domain::new(cfg, Policy::None);
    let root = d.tree.leaves()[0];
    let children = d.tree.refine_block(root, &mut d.unk);
    d.tree.refine_block(children[0], &mut d.unk);
    let eos = GammaLaw::new(1.4);
    for id in d.tree.leaves() {
        for k in d.unk.interior_k() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    let x = d.tree.cell_center(id, i, j, k);
                    let along: f64 = (0..cfg.ndim).map(|a| (x[a] - 0.5) * disc.normal[a]).sum();
                    let [dens, pres, u, v, w] = disc.sides[usize::from(along > disc.at)];
                    let mut s = EosState::co_wd(dens, 0.0);
                    s.abar = 1.0;
                    s.zbar = 1.0;
                    s.pres = pres;
                    eos.call(EosMode::DensPres, &mut s).unwrap();
                    let idx = id.idx();
                    d.unk.set(vars::DENS, i, j, k, idx, dens);
                    d.unk.set(vars::VELX, i, j, k, idx, u);
                    d.unk.set(vars::VELY, i, j, k, idx, v);
                    d.unk.set(vars::VELZ, i, j, k, idx, w);
                    d.unk.set(vars::PRES, i, j, k, idx, pres);
                    d.unk.set(vars::TEMP, i, j, k, idx, s.temp);
                    d.unk.set(vars::EINT, i, j, k, idx, s.eint);
                    d.unk.set(
                        vars::ENER,
                        i,
                        j,
                        k,
                        idx,
                        s.eint + 0.5 * (u * u + v * v + w * w),
                    );
                    d.unk.set(vars::GAMC, i, j, k, idx, s.gamc);
                    d.unk.set(vars::GAME, i, j, k, idx, s.game);
                }
            }
        }
    }
    d
}

/// Bits of every boundary flux the last sweep along `dir` stored, leaf by
/// leaf.
fn register_bits(d: &Domain, reg: &FluxRegister, dir: usize) -> Vec<u64> {
    let cfg = d.tree.config();
    let t2_cells = if cfg.ndim == 3 { cfg.nxb } else { 1 };
    let mut out = Vec::new();
    for id in d.tree.leaves() {
        for side in 0..2 {
            for t2 in 0..t2_cells {
                for t1 in 0..cfg.nxb {
                    for ch in 0..NFLUX {
                        let f = reg.get(id.idx(), Face { axis: dir, side }, [t1, t2], ch);
                        out.push(f.to_bits());
                    }
                }
            }
        }
    }
    out
}

/// Two steps of split sweeps on `simd`: the final domain and the
/// boundary-flux bits of every sweep.
fn run_engine(
    shape: Shape,
    nxb: usize,
    disc: &Discontinuity,
    simd: Resolved,
) -> (Domain, Vec<Vec<u64>>) {
    let mut d = discontinuous_domain(shape, nxb, disc);
    let cfg = SweepConfig {
        simd,
        eint_floor: disc.eint_floor,
        ..SweepConfig::default()
    };
    let ndim = d.tree.config().ndim;
    let mut reg = FluxRegister::new(ndim, nxb, NFLUX, d.tree.config().max_blocks);
    let mut fluxes = Vec::new();
    for _ in 0..2 {
        let dt = compute_dt_parallel_raw(&mut d, 0.3, 1);
        for dir in 0..ndim {
            sweep_direction(&mut d, &SweepEos::Defer, dir, dt, &mut reg, &cfg);
            fluxes.push(register_bits(&d, &reg, dir));
        }
    }
    (d, fluxes)
}

/// The slab engine on every backend against the slab engine on the scalar
/// lane: every interior variable and every stored boundary flux, bit for
/// bit. Returns the oracle domain.
fn check_against_oracle(
    shape: Shape,
    nxb: usize,
    disc: &Discontinuity,
) -> Result<Domain, TestCaseError> {
    let (oracle, oracle_fluxes) = run_engine(shape, nxb, disc, Resolved::Scalar);
    for &simd in Resolved::all() {
        let (d, fluxes) = run_engine(shape, nxb, disc, simd);
        let what = format!("{shape:?} nxb {nxb} on {simd}");
        assert_unk_identical(&oracle, &d, &what)?;
        for (sweep, (got, want)) in fluxes.iter().zip(&oracle_fluxes).enumerate() {
            prop_assert!(
                got == want,
                "{what}: boundary fluxes of sweep {sweep} differ"
            );
        }
    }
    Ok(oracle)
}

/// Every shape × block size once, on a fixed colliding shock into a cold
/// medium; the eint floor must fire on it (a weaker jump would leave that
/// branch untested).
#[test]
fn slab_engine_matches_the_scalar_oracle_on_every_shape_and_block_size() {
    let disc = Discontinuity {
        normal: [1.0, 0.6, 0.3],
        at: 0.02,
        sides: [[4.0, 10.0, 1.2, -0.3, 0.2], [0.5, 1e-3, -1.2, 0.4, -0.1]],
        eint_floor: 1e-2,
    };
    let mut floored = 0;
    for shape in SHAPES {
        for nxb in NXBS {
            let oracle = check_against_oracle(shape, nxb, &disc).unwrap();
            for id in oracle.tree.leaves() {
                for k in oracle.unk.interior_k() {
                    for j in oracle.unk.interior() {
                        for i in oracle.unk.interior() {
                            let eint = oracle.unk.get(vars::EINT, i, j, k, id.idx());
                            floored += usize::from(eint == disc.eint_floor);
                        }
                    }
                }
            }
        }
    }
    assert!(floored > 0, "the eint floor never fired");
}

/// Every slab kernel span is a multiple of `nxb` lanes, so when the lane
/// width divides `nxb` every lane-kernel zone runs in a full-width chunk:
/// the scalar-tail count is exactly zero on a 3-d block of 8³ or 16³.
#[test]
fn slab_kernels_leave_no_scalar_tail_when_the_width_divides_nxb() {
    for nxb in [8, 16] {
        let mut cfg = MeshConfig::test_2d();
        cfg.ndim = 3;
        cfg.nxb = nxb;
        cfg.max_blocks = 1;
        let mut d = Domain::new(cfg, Policy::None);
        let id = d.tree.leaves()[0].idx();
        for k in d.unk.interior_k() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    for (var, x) in [
                        (vars::DENS, 1.0),
                        (vars::PRES, 1.0),
                        (vars::ENER, 2.5),
                        (vars::EINT, 2.5),
                        (vars::GAMC, 1.4),
                        (vars::GAME, 1.4),
                    ] {
                        d.unk.set(var, i, j, k, id, x);
                    }
                }
            }
        }
        // Per slab: flattening, five reconstructions and the predictor
        // over nxb + 2 positions, HLLC over nxb + 1 faces, the update over
        // nxb zones; nxb slabs per sweep.
        let per_slab = 7 * (nxb + 2) * nxb + (nxb + 1) * nxb + nxb * nxb;
        let mut reg = FluxRegister::new(3, nxb, NFLUX, 1);
        for &simd in Resolved::all() {
            let cfg = SweepConfig {
                simd,
                ..SweepConfig::default()
            };
            let (mut chunk, mut tail) = (0, 0);
            for dir in 0..3 {
                for p in sweep_direction(&mut d, &SweepEos::Defer, dir, 1e-6, &mut reg, &cfg) {
                    chunk += p.stats.simd_chunk_lanes;
                    tail += p.stats.simd_tail_lanes;
                }
            }
            assert_eq!(tail, 0, "nxb {nxb} on {simd}");
            assert_eq!(chunk, (3 * nxb * per_slab) as u64, "nxb {nxb} on {simd}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The slab engine reproduces the scalar oracle on random
    /// discontinuities, on every backend.
    #[test]
    fn slab_engine_matches_the_scalar_oracle(
        disc in arb_discontinuity(),
        shape in 0..SHAPES.len(),
        nxb in 0..NXBS.len(),
    ) {
        check_against_oracle(SHAPES[shape], NXBS[nxb], &disc)?;
    }
}

/// The coarse Helmholtz table is expensive to build; share one instance
/// across proptest cases (`set_simd` retargets it per backend).
fn helmholtz() -> &'static Mutex<Helmholtz> {
    static TABLE: OnceLock<Mutex<Helmholtz>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(
            Helmholtz::build(TableConfig::coarse(), Policy::None).expect("coarse Helmholtz table"),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full pencil sweeps: every wider backend reproduces the 1-wide lane
    /// bit-for-bit on randomized smooth flows.
    #[test]
    fn pencil_sweeps_are_bit_identical_across_backends(p in arb_init()) {
        let reference = run_backend(&p, Resolved::Scalar);
        for &b in Resolved::all() {
            if b == Resolved::Scalar {
                continue;
            }
            let d = run_backend(&p, b);
            assert_unk_identical(&reference, &d, b.name())?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched Helmholtz DensEi inversion: randomized (ρ, T) states and a
    /// randomized (bad) temperature guess produce bit-identical
    /// temp/pres/gamc/game on every backend, and identical per-iteration
    /// occupancy histograms (the masked re-iteration walks the same
    /// trajectory regardless of lane width).
    #[test]
    fn helmholtz_batch_is_bit_identical_across_backends(
        states in proptest::collection::vec((-0.5f64..6.5, 6.1f64..8.9), 3..37),
        guess_scale in 0.4f64..2.5,
    ) {
        let n = states.len();
        let abar = vec![13.714285714285715; n];
        let zbar = vec![6.857142857142857; n];
        let dens: Vec<f64> = states.iter().map(|&(d, _)| 10f64.powf(d)).collect();
        let temp0: Vec<f64> = states.iter().map(|&(_, t)| 10f64.powf(t)).collect();
        let mut h = helmholtz().lock().unwrap();

        type Captured = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, [u64; 16]);
        let mut reference: Option<Captured> = None;
        for &b in Resolved::all() {
            // Forward pass fixes consistent energies for this backend run.
            let mut temp = temp0.clone();
            let mut eint = vec![0.0; n];
            let mut pres = vec![0.0; n];
            let mut gamc = vec![0.0; n];
            let mut game = vec![0.0; n];
            let mut fwd = EosBatch {
                dens: &dens,
                eint: &mut eint,
                temp: &mut temp,
                abar: &abar,
                zbar: &zbar,
                pres: &mut pres,
                gamc: &mut gamc,
                game: &mut game,
            };
            h.set_simd(b);
            h.eos_batch(EosMode::DensTemp, &mut fwd).expect("forward pass");
            for t in temp.iter_mut() {
                *t *= guess_scale;
            }
            let mut inv = EosBatch {
                dens: &dens,
                eint: &mut eint,
                temp: &mut temp,
                abar: &abar,
                zbar: &zbar,
                pres: &mut pres,
                gamc: &mut gamc,
                game: &mut game,
            };
            let report = h.eos_batch(EosMode::DensEi, &mut inv).expect("inversion");
            match &reference {
                None => reference = Some((temp, pres, gamc, game, report.iter_hist)),
                Some((rt, rp, rc, rg, rh)) => {
                    for k in 0..n {
                        prop_assert!(rt[k].to_bits() == temp[k].to_bits(),
                            "{}: temp lane {k}: {:e} != {:e}", b.name(), rt[k], temp[k]);
                        prop_assert!(rp[k].to_bits() == pres[k].to_bits(),
                            "{}: pres lane {k}", b.name());
                        prop_assert!(rc[k].to_bits() == gamc[k].to_bits(),
                            "{}: gamc lane {k}", b.name());
                        prop_assert!(rg[k].to_bits() == game[k].to_bits(),
                            "{}: game lane {k}", b.name());
                    }
                    prop_assert!(rh == &report.iter_hist,
                        "{}: newton histogram diverged", b.name());
                }
            }
        }
    }
}

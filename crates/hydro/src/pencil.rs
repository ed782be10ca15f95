//! Slab-batched SoA sweep engine, vectorized through `rflash-simd` — the
//! one sweep body behind [`crate::sweep::sweep_leaf_block`].
//!
//! Walking zones through `UnkGeom::slab_idx` per cell would make every
//! read a strided index computation plus a bounds check. Instead the engine
//! sweeps a block one *slab* at a time: the `nxb` adjacent interior pencils at one transverse index
//! `t2`, gathered **once** into contiguous f64 lanes (one lane per
//! variable, guard cells included) laid out position-major and
//! pencil-minor — `lane[p * B + b]` is pencil `b` at position `p`, with
//! `B = nxb`. A ±1 stencil step along the pencil is ±`B` in the lane, so
//! each PPM/flattening/HLLC/update kernel runs as one explicit-SIMD loop
//! over the flat range `lo·B..hi·B` (80–128 lanes on an 8³ block instead
//! of 10–16, and no scalar tail when the lane width divides `nxb`). The
//! slab's zones are whole contiguous `unk` rows in every direction, so the
//! gather reads each zone's variables in one touch and the scatter writes
//! them back the same way. Real FLASH works the same way — `hy_ppm_sweep`
//! copies blocks into sweep arrays before touching physics.
//!
//! The kernels are generic over [`rflash_simd::Lane`] and the whole block
//! body is entered through [`rflash_simd::dispatch`] exactly once per
//! block — the backend (`SweepConfig::simd`) is a single branch out here,
//! not a branch per loop iteration, and the AVX2 instantiation inlines
//! into the `#[target_feature]` wrapper. Lane arithmetic keeps exactly the
//! operation order of the scalar kernels per zone (`ppm::reconstruct_into`,
//! `ppm::flattening_into`, `riemann::hllc`, `state::cons_to_vel_ener`,
//! `sweep::write_zone`; branches become bitwise masked selects, see the
//! per-kernel notes in `ppm.rs`/`riemann.rs`/`state.rs`) and lanes never
//! mix, so every backend produces bit-identical `unk` contents, and the
//! scalar kernels are the oracles the lane twins are tested against.
//!
//! Scratch comes from a per-rank [`HugeArena`] created on first use (the
//! rank pool's threads persist across epochs, so a `thread_local` is
//! per-rank persistent storage), sized for the largest slab seen, and
//! `recycle()`d per block — steady state performs no allocations and the
//! lanes sit in one huge-page-backed VMA under the same policy/degradation
//! chain as `unk` itself. When no policy can map the arena, the block runs
//! on a heap `Vec` of the same length, counted in `AllocStats`.
//!
//! This module is under the `pencil_confinement` static-analysis rule: no
//! per-cell `unk` access (`slab_idx`/`get`/`set`) may appear here — all
//! `unk` traffic must flow through the `UnkGeom` slab helpers
//! (`gather_slab`/`scatter_slab`).

use std::cell::RefCell;

use rflash_hugepages::{HugeArena, Policy};
use rflash_mesh::unk::UnkGeom;
use rflash_mesh::vars;
use rflash_perfmon::Probe;
use rflash_simd::{chunk_split, Lane, LaneMask, ScalarLane, WithLanes};

use crate::ppm::{flattening_lanes, reconstruct_lanes};
use crate::riemann::hllc_lanes;
use crate::state::{cons_to_vel_ener_lanes, PrimL};
use crate::sweep::{BlockFluxes, SweepConfig};
use crate::NFLUX;

/// Everything about the block being swept that the engine needs and that is
/// constant across the block's slabs.
pub(crate) struct BlockCtx<'a> {
    pub geom: &'a UnkGeom,
    pub dir: usize,
    pub dt: f64,
    pub dx: f64,
    pub r_lo: f64,
    pub cylindrical_r: bool,
    pub block_idx: usize,
    pub cfg: &'a SweepConfig,
    pub nxb: usize,
    pub ng: usize,
    pub ndim: usize,
    pub vm: &'a [usize; 3],
}

/// Per-rank scratch: one arena reused for every block the rank sweeps.
struct Scratch {
    arena: HugeArena,
    /// The policy the arena was *requested* under (the region itself may
    /// have degraded along the chain); a config change rebuilds the arena.
    requested: Policy,
}

thread_local! {
    static SCRATCH: RefCell<Option<Scratch>> = const { RefCell::new(None) };
}

/// Split `len` elements off the front of `rest`.
fn carve<'s>(rest: &mut &'s mut [f64], len: usize) -> &'s mut [f64] {
    let whole = std::mem::take(rest);
    let (head, tail) = whole.split_at_mut(len);
    *rest = tail;
    head
}

/// Work lanes: 8 gathered, flat/snap, 5×2 faces, 5 interface.
const CORE_LANES: usize = 25;
/// Update-output lanes: dens, the 3 velocities, ener, eint.
const OUT_LANES: usize = 6;

/// Doubles the slab body carves for slab lanes `len` long.
fn scratch_len(len: usize) -> usize {
    (CORE_LANES + OUT_LANES) * len
}

/// Floor `lane` in place: `x = max(x, floor)` with the same bits as the
/// scalar `f64::max` (the floor is a positive constant, so the lane
/// select-`max` agrees — NaN or −0 in the data yields the floor either
/// way, and an exact tie is the same positive bit pattern).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn floor_lane<L: Lane>(lane: &mut [f64], floor: f64) {
    let fl = L::splat(floor);
    let n = lane.len();
    let mut i = 0;
    while i + L::W <= n {
        L::load(&lane[i..]).max(fl).store(&mut lane[i..]);
        i += L::W;
    }
    let f1 = ScalarLane::splat(floor);
    while i < n {
        ScalarLane::load(&lane[i..]).max(f1).store(&mut lane[i..]);
        i += 1;
    }
}

/// Primitive face states of `W` zones starting at `z` from one side's face
/// lanes: the floored face values and the gamma-law energy of the zone's
/// `game`.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn face_prim_lanes<L: Lane>(
    face: &[&mut [f64]; 5],
    z: usize,
    game: L,
    gamc: L,
    dens_floor: f64,
) -> PrimL<L> {
    let dens = L::load(&face[0][z..]).max(L::splat(dens_floor));
    let pres = L::load(&face[4][z..]).max(L::splat(f64::MIN_POSITIVE));
    let vel = [
        L::load(&face[1][z..]),
        L::load(&face[2][z..]),
        L::load(&face[3][z..]),
    ];
    let eint = pres.div(game.sub(L::splat(1.0)).mul(dens));
    let ener = eint.add(
        L::splat(0.5).mul(
            vel[0]
                .mul(vel[0])
                .add(vel[1].mul(vel[1]))
                .add(vel[2].mul(vel[2])),
        ),
    );
    PrimL {
        dens,
        vel,
        pres,
        ener,
        gamc,
    }
}

/// Predictor-state recovery: unphysical lanes (`eint <= 0` or
/// `dens <= 0`, NaN included — the comparisons are false on NaN) fall back
/// to the unpredicted face state via masked select.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn to_prim_lanes<L: Lane>(u: &[L; NFLUX], fallback: &PrimL<L>, game: L, dens_floor: f64) -> [L; 5] {
    let (dens, vel, ener) = cons_to_vel_ener_lanes(u, L::splat(dens_floor));
    let eint = ener.sub(
        L::splat(0.5).mul(
            vel[0]
                .mul(vel[0])
                .add(vel[1].mul(vel[1]))
                .add(vel[2].mul(vel[2])),
        ),
    );
    let ok = eint.gt(L::splat(0.0)).and(dens.gt(L::splat(0.0)));
    let pres = game.sub(L::splat(1.0)).mul(dens).mul(eint);
    [
        L::select(ok, dens, fallback.dens),
        L::select(ok, vel[0], fallback.vel[0]),
        L::select(ok, vel[1], fallback.vel[1]),
        L::select(ok, vel[2], fallback.vel[2]),
        L::select(ok, pres, fallback.pres),
    ]
}

/// MUSCL–Hancock predictor on `W` zones starting at `z`: evolve each
/// zone's pair of face states by a half step using the flux difference of
/// its own faces — second order in time without characteristic tracing (a
/// documented simplification of full PPM).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn muscl_at<L: Lane>(
    fm: &mut [&mut [f64]; 5],
    fp: &mut [&mut [f64]; 5],
    w_game: &[f64],
    w_gamc: &[f64],
    z: usize,
    half_dtdx: f64,
    dens_floor: f64,
) {
    let game = L::load(&w_game[z..]);
    let gamc = L::load(&w_gamc[z..]);
    let minus = face_prim_lanes::<L>(&*fm, z, game, gamc, dens_floor);
    let plus = face_prim_lanes::<L>(&*fp, z, game, gamc, dens_floor);
    let f_minus = minus.flux();
    let f_plus = plus.flux();
    let half = L::splat(half_dtdx);
    let mut um = minus.to_cons();
    let mut up = plus.to_cons();
    for ch in 0..NFLUX {
        let d = half.mul(f_plus[ch].sub(f_minus[ch]));
        um[ch] = um[ch].sub(d);
        up[ch] = up[ch].sub(d);
    }
    let pm = to_prim_lanes(&um, &minus, game, dens_floor);
    let pp = to_prim_lanes(&up, &plus, game, dens_floor);
    for v in 0..5 {
        pm[v].store(&mut fm[v][z..]);
        pp[v].store(&mut fp[v][z..]);
    }
}

/// HLLC interface fluxes for `W` faces starting at lane `f` into the
/// interface lanes (face `f` sees the plus side of the zone one position
/// down, lane `f - s`, and the minus side of zone `f`).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
#[allow(clippy::too_many_arguments)] // flat lane-slice plumbing, no natural struct
fn hllc_at<L: Lane>(
    fm: &[&mut [f64]; 5],
    fp: &[&mut [f64]; 5],
    w_game: &[f64],
    w_gamc: &[f64],
    ifl: &mut [&mut [f64]; NFLUX],
    f: usize,
    s: usize,
    dens_floor: f64,
) {
    let l = face_prim_lanes::<L>(
        fp,
        f - s,
        L::load(&w_game[f - s..]),
        L::load(&w_gamc[f - s..]),
        dens_floor,
    );
    let r = face_prim_lanes::<L>(
        fm,
        f,
        L::load(&w_game[f..]),
        L::load(&w_gamc[f..]),
        dens_floor,
    );
    let fx = hllc_lanes(&l, &r);
    for (ch, lane) in ifl.iter_mut().enumerate() {
        fx[ch].store(&mut lane[f..]);
    }
}

/// Conservative update + eint floor on `W` zones starting at lane `p`,
/// writing the out lanes (twin of `sweep::write_zone`'s conversion; the
/// energy is re-derived from the floored eint only on floored lanes,
/// exactly like the scalar write-back). A zone's high face is one position
/// up, lane `p + s`.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn update_at<L: Lane>(
    ctx: &BlockCtx<'_>,
    lanes: &SlabLanes<'_>,
    ifl: &[&mut [f64]; NFLUX],
    out: &mut OutLanes<'_>,
    p: usize,
    s: usize,
    dtdx: f64,
) {
    let prim = PrimL {
        dens: L::load(&lanes.w_dens[p..]),
        vel: [
            L::load(&lanes.w_u[p..]),
            L::load(&lanes.w_v[p..]),
            L::load(&lanes.w_w[p..]),
        ],
        pres: L::load(&lanes.w_pres[p..]),
        ener: L::load(&lanes.w_ener[p..]),
        gamc: L::load(&lanes.w_gamc[p..]),
    };
    let mut u5 = prim.to_cons();
    if ctx.cylindrical_r {
        // Lane `p + k` is zone position `(p + k) / s`.
        let ng = ctx.ng;
        let r_m = L::from_fn(|k| ctx.r_lo + ((p + k) / s - ng) as f64 * ctx.dx);
        let r_p = r_m.add(L::splat(ctx.dx));
        let r_c = r_m.add(L::splat(0.5 * ctx.dx));
        for (ch, lane) in ifl.iter().enumerate() {
            let lo = L::load(&lane[p..]);
            let hi = L::load(&lane[p + s..]);
            u5[ch] = u5[ch].sub(
                L::splat(ctx.dt)
                    .div(r_c.mul(L::splat(ctx.dx)))
                    .mul(r_p.mul(hi).sub(r_m.mul(lo))),
            );
        }
        u5[1] = u5[1].add(L::splat(ctx.dt).mul(prim.pres).div(r_c));
    } else {
        for (ch, lane) in ifl.iter().enumerate() {
            let lo = L::load(&lane[p..]);
            let hi = L::load(&lane[p + s..]);
            u5[ch] = u5[ch].sub(L::splat(dtdx).mul(hi.sub(lo)));
        }
    }
    let (dens, vel, ener) = cons_to_vel_ener_lanes(&u5, L::splat(ctx.cfg.dens_floor));
    let ekin = L::splat(0.5).mul(
        vel[0]
            .mul(vel[0])
            .add(vel[1].mul(vel[1]))
            .add(vel[2].mul(vel[2])),
    );
    let eint = ener.sub(ekin);
    let fl = L::splat(ctx.cfg.eint_floor);
    let m = eint.lt(fl);
    let eint_o = L::select(m, fl, eint);
    let ener_o = L::select(m, fl.add(ekin), ener);
    dens.store(&mut out.dens[p..]);
    vel[0].store(&mut out.u[p..]);
    vel[1].store(&mut out.v[p..]);
    vel[2].store(&mut out.w[p..]);
    ener_o.store(&mut out.ener[p..]);
    eint_o.store(&mut out.eint[p..]);
}

/// The gathered (read-side) slab lanes.
struct SlabLanes<'a> {
    w_dens: &'a [f64],
    w_u: &'a [f64],
    w_v: &'a [f64],
    w_w: &'a [f64],
    w_pres: &'a [f64],
    w_ener: &'a [f64],
    w_gamc: &'a [f64],
}

/// The update-output slab lanes.
struct OutLanes<'a> {
    dens: &'a mut [f64],
    u: &'a mut [f64],
    v: &'a mut [f64],
    w: &'a mut [f64],
    ener: &'a mut [f64],
    eint: &'a mut [f64],
}

/// The whole per-block sweep body, monomorphized per lane backend and
/// entered once through [`rflash_simd::dispatch`].
struct SlabBody<'a, 'b> {
    ctx: &'a BlockCtx<'a>,
    slab: &'a mut [f64],
    fluxes_out: &'a mut BlockFluxes,
    probe: &'a mut Probe,
    all: &'b mut [f64],
}

impl WithLanes for SlabBody<'_, '_> {
    type Output = ();
    #[cfg_attr(debug_assertions, inline)]
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn with_lanes<L: Lane>(self) {
        run_slab::<L>(self.ctx, self.slab, self.fluxes_out, self.probe, self.all)
    }
}

/// Sweep every slab of one block: gather, flatten and reconstruct,
/// predict, solve, update, scatter, and store the boundary fluxes.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn run_slab<L: Lane>(
    ctx: &BlockCtx<'_>,
    slab: &mut [f64],
    fluxes_out: &mut BlockFluxes,
    probe: &mut Probe,
    all: &mut [f64],
) {
    let (geom, dir, ng, nxb) = (ctx.geom, ctx.dir, ctx.ng, ctx.nxb);
    let n = geom.pencil_len(dir);
    // The slab's pencil count is the lane stride.
    let s = nxb;
    let len = n * s;
    let dtdx = ctx.dt / ctx.dx;
    let dens_floor = ctx.cfg.dens_floor;

    let mut rest = all;
    let w_dens = carve(&mut rest, len);
    let w_u = carve(&mut rest, len);
    let w_v = carve(&mut rest, len);
    let w_w = carve(&mut rest, len);
    let w_pres = carve(&mut rest, len);
    let w_game = carve(&mut rest, len);
    let w_gamc = carve(&mut rest, len);
    let w_ener = carve(&mut rest, len);
    let flat = carve(&mut rest, len);
    let snap = carve(&mut rest, len);
    let mut fm: [&mut [f64]; 5] = std::array::from_fn(|_| carve(&mut rest, len));
    let mut fp: [&mut [f64]; 5] = std::array::from_fn(|_| carve(&mut rest, len));
    let mut ifl: [&mut [f64]; NFLUX] = std::array::from_fn(|_| carve(&mut rest, len));
    let [out_dens, out_u, out_v, out_w, out_ener, out_eint]: [&mut [f64]; OUT_LANES] =
        std::array::from_fn(|_| carve(&mut rest, len));
    debug_assert!(rest.is_empty(), "scratch_len and the carve disagree");

    // Each variable set is spelled once: the gather, the scatter and the
    // access-pattern recording all read these.
    let read_vars = [
        vars::DENS,
        ctx.vm[0],
        ctx.vm[1],
        ctx.vm[2],
        vars::PRES,
        vars::GAME,
        vars::GAMC,
        vars::ENER,
    ];
    // The update's six conserved-state outputs; the thermodynamic cache
    // is the driver's EOS pass's to write.
    let write_vars: [usize; OUT_LANES] = [
        vars::DENS,
        ctx.vm[0],
        ctx.vm[1],
        ctx.vm[2],
        vars::ENER,
        vars::EINT,
    ];

    // Kernel spans in lanes: zones ng-1..ng+nxb+1 are reconstructed and
    // predicted, faces ng..=ng+nxb solved, zones ng..ng+nxb updated.
    let (wide_lo, wide_hi) = ((ng - 1) * s, (ng + nxb + 1) * s);
    let (face_lo, face_hi) = (ng * s, (ng + nxb + 1) * s);
    let (zone_lo, zone_hi) = (ng * s, (ng + nxb) * s);
    let interior = ng..ng + nxb;

    let t2_range = if ctx.ndim == 3 { ng..ng + nxb } else { 0..1 };
    let mut pattern_counter = 0usize;

    for t2 in t2_range {
        // Gather all read variables into SoA lanes in one row walk, then
        // apply the density, pressure and gamma floors.
        geom.gather_slab(
            slab,
            read_vars,
            dir,
            t2,
            0..n,
            [
                &mut *w_dens,
                &mut *w_u,
                &mut *w_v,
                &mut *w_w,
                &mut *w_pres,
                &mut *w_game,
                &mut *w_gamc,
                &mut *w_ener,
            ],
        );
        probe.stats.gather_cells += (8 * len) as u64;
        floor_lane::<L>(w_dens, dens_floor);
        floor_lane::<L>(w_pres, f64::MIN_POSITIVE);
        floor_lane::<L>(w_gamc, 1.01);
        floor_lane::<L>(w_game, 1.01);

        // Flattening and reconstruction directly on the lanes; the
        // flattening's snapshot lane is the reconstruction's interface
        // scratch.
        let (lo, hi) = (ng - 1, ng + nxb + 1);
        flattening_lanes::<L>(w_pres, w_u, lo, hi, s, flat, snap);
        for (v, lane) in [&*w_dens, &*w_u, &*w_v, &*w_w, &*w_pres]
            .into_iter()
            .enumerate()
        {
            reconstruct_lanes::<L>(lane, lo, hi, s, flat, snap, fm[v], fp[v]);
        }

        // MUSCL–Hancock predictor (see `muscl_at`).
        let half_dtdx = 0.5 * dtdx;
        let mut z = wide_lo;
        while z + L::W <= wide_hi {
            muscl_at::<L>(&mut fm, &mut fp, w_game, w_gamc, z, half_dtdx, dens_floor);
            z += L::W;
        }
        while z < wide_hi {
            muscl_at::<ScalarLane>(&mut fm, &mut fp, w_game, w_gamc, z, half_dtdx, dens_floor);
            z += 1;
        }
        probe.stats.add_vec(60 * (wide_hi - wide_lo) as u64);

        // Interface fluxes into the SoA interface lanes.
        let mut f = face_lo;
        while f + L::W <= face_hi {
            hllc_at::<L>(&fm, &fp, w_game, w_gamc, &mut ifl, f, s, dens_floor);
            f += L::W;
        }
        while f < face_hi {
            hllc_at::<ScalarLane>(&fm, &fp, w_game, w_gamc, &mut ifl, f, s, dens_floor);
            f += 1;
        }
        probe.stats.add_vec(240 * (face_hi - face_lo) as u64);

        // Conservative update on interior zones.
        let lanes = SlabLanes {
            w_dens: &*w_dens,
            w_u: &*w_u,
            w_v: &*w_v,
            w_w: &*w_w,
            w_pres: &*w_pres,
            w_ener: &*w_ener,
            w_gamc: &*w_gamc,
        };
        let mut out = OutLanes {
            dens: &mut *out_dens,
            u: &mut *out_u,
            v: &mut *out_v,
            w: &mut *out_w,
            ener: &mut *out_ener,
            eint: &mut *out_eint,
        };
        let mut p = zone_lo;
        while p + L::W <= zone_hi {
            update_at::<L>(ctx, &lanes, &ifl, &mut out, p, s, dtdx);
            p += L::W;
        }
        while p < zone_hi {
            update_at::<ScalarLane>(ctx, &lanes, &ifl, &mut out, p, s, dtdx);
            p += 1;
        }
        probe.stats.zones += (zone_hi - zone_lo) as u64;
        probe.stats.add_fp(40 * (zone_hi - zone_lo) as u64);

        // SIMD occupancy accounting over the lane-kernel spans of this
        // slab: flattening + 5 reconstructions + MUSCL over the wide span,
        // HLLC over the faces, the update over the zones.
        let (c_wide, t_wide) = chunk_split(wide_hi - wide_lo, L::W);
        let (c_face, t_face) = chunk_split(face_hi - face_lo, L::W);
        let (c_upd, t_upd) = chunk_split(zone_hi - zone_lo, L::W);
        probe.stats.simd_chunk_lanes += (7 * c_wide + c_face + c_upd) as u64;
        probe.stats.simd_tail_lanes += (7 * t_wide + t_face + t_upd) as u64;

        // Scatter the write set back in one row walk.
        geom.scatter_slab(
            slab,
            write_vars,
            dir,
            t2,
            interior.clone(),
            [
                &*out_dens, &*out_u, &*out_v, &*out_w, &*out_ener, &*out_eint,
            ],
        );
        probe.stats.scatter_cells += (OUT_LANES * (zone_hi - zone_lo)) as u64;

        // Boundary fluxes for the conservation fix-up: pencil `b`'s low
        // face is lane `face_lo + b`, its high face `zone_hi + b`.
        let c2 = if ctx.ndim == 3 { t2 - ng } else { 0 };
        for b in 0..s {
            let lo_face: [f64; NFLUX] = std::array::from_fn(|ch| ifl[ch][face_lo + b]);
            let hi_face: [f64; NFLUX] = std::array::from_fn(|ch| ifl[ch][zone_hi + b]);
            fluxes_out.store(0, b, c2, &lo_face);
            fluxes_out.store(1, b, c2, &hi_face);
        }

        // Access-pattern recording (sampled): the rows the gather reads
        // and the scatter writes, one dense run each.
        if ctx.cfg.pattern_every > 0 {
            let every = ctx.cfg.pattern_every;
            for pat in geom.slab_patterns(dir, t2, 0..n, ctx.block_idx) {
                if pattern_counter.is_multiple_of(every) {
                    probe.record(pat);
                }
                pattern_counter += 1;
            }
            for pat in geom.slab_patterns(dir, t2, interior.clone(), ctx.block_idx) {
                if pattern_counter.is_multiple_of(every) {
                    probe.record_write(pat);
                }
                pattern_counter += 1;
            }
        }
    }
}

/// Sweep one block with the slab engine. Scratch comes from the rank's
/// arena; when no policy can map one, this block runs on a heap `Vec` of the
/// same length instead, counted in `AllocStats::heap_fallbacks` — a
/// degradation, never a failure, and never a silent one. The lane backend
/// (`SweepConfig::simd`) is dispatched exactly once here, covering the
/// whole block body.
pub(crate) fn sweep_block(
    ctx: &BlockCtx<'_>,
    slab: &mut [f64],
    fluxes_out: &mut BlockFluxes,
    probe: &mut Probe,
) {
    // Every carved lane holds one slab: `pencil_len × nxb` doubles.
    let total = scratch_len(ctx.geom.pencil_len(ctx.dir) * ctx.nxb);
    SCRATCH.with(|cell| {
        let mut slot = cell.borrow_mut();
        let mut heap = Vec::new();
        let all = match arena_scratch(&mut slot, total, ctx.cfg.scratch_policy) {
            Some(all) => all,
            None => {
                rflash_hugepages::count_heap_fallback();
                heap.resize(total, 0.0);
                &mut heap[..]
            }
        };
        rflash_simd::dispatch(
            ctx.cfg.simd,
            SlabBody {
                ctx,
                slab,
                fluxes_out,
                probe,
                all,
            },
        )
    })
}

/// The rank's arena scratch, `total` doubles long, rebuilt when it is too
/// small or was requested under another policy. `None` when no policy can
/// map it (the old arena, if any, is kept).
fn arena_scratch(slot: &mut Option<Scratch>, total: usize, policy: Policy) -> Option<&mut [f64]> {
    let need = total * std::mem::size_of::<f64>();
    let fits = slot
        .as_ref()
        .is_some_and(|s| s.arena.capacity() >= need && s.requested == policy);
    if !fits {
        let arena = HugeArena::new(need, policy).ok()?;
        *slot = Some(Scratch {
            arena,
            requested: policy,
        });
    }
    let scratch = slot.as_mut()?;
    scratch.arena.recycle();
    scratch.arena.alloc_slice::<f64>(total).ok()
}

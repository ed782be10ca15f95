//! HLLC approximate Riemann solver (Toro), general-EOS via per-side Γ₁.
//!
//! [`hllc`] is the scalar reference; [`hllc_lanes`] is the lane-generic
//! twin used by the pencil engine's SIMD path. The twin computes every
//! branch of the wave fan for all lanes and blends with masks, which is
//! bit-identical to the scalar early returns because the blend is bitwise
//! (inf/NaN garbage from a masked-out branch's divisions is discarded, and
//! on selected lanes the op order matches the scalar solver exactly).

use crate::state::{Prim, PrimL};
use crate::NFLUX;
use rflash_simd::Lane;

/// Solve the Riemann problem between `l` and `r` (sweep-normal components
/// in `vel[0]`) and return the interface flux.
pub fn hllc(l: &Prim, r: &Prim) -> [f64; NFLUX] {
    let cl = l.sound_speed();
    let cr = r.sound_speed();

    // Davis wave-speed estimates, robust for strong shocks.
    let s_l = (l.vel[0] - cl).min(r.vel[0] - cr);
    let s_r = (l.vel[0] + cl).max(r.vel[0] + cr);

    if s_l >= 0.0 {
        return l.flux();
    }
    if s_r <= 0.0 {
        return r.flux();
    }

    // Contact speed (Toro eq. 10.37).
    let dl = l.dens * (s_l - l.vel[0]);
    let dr = r.dens * (s_r - r.vel[0]);
    let s_star = (r.pres - l.pres + l.vel[0] * dl - r.vel[0] * dr) / (dl - dr);

    let star_flux = |s: &Prim, s_k: f64| -> [f64; NFLUX] {
        let u = s.to_cons();
        let f = s.flux();
        let coef = s.dens * (s_k - s.vel[0]) / (s_k - s_star);
        let e_star = s.ener + (s_star - s.vel[0]) * (s_star + s.pres / (s.dens * (s_k - s.vel[0])));
        let u_star = [
            coef,
            coef * s_star,
            coef * s.vel[1],
            coef * s.vel[2],
            coef * e_star,
        ];
        let mut out = [0.0; NFLUX];
        for n in 0..NFLUX {
            out[n] = f[n] + s_k * (u_star[n] - u[n]);
        }
        out
    };

    if s_star >= 0.0 {
        star_flux(l, s_l)
    } else {
        star_flux(r, s_r)
    }
}

/// Star-region flux for one side (twin of the scalar `star_flux` closure).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
fn star_flux_lanes<L: Lane>(s: &PrimL<L>, s_k: L, s_star: L) -> [L; NFLUX] {
    let u = s.to_cons();
    let f = s.flux();
    let coef = s.dens.mul(s_k.sub(s.vel[0])).div(s_k.sub(s_star));
    let e_star = s.ener.add(
        s_star
            .sub(s.vel[0])
            .mul(s_star.add(s.pres.div(s.dens.mul(s_k.sub(s.vel[0]))))),
    );
    let u_star = [
        coef,
        coef.mul(s_star),
        coef.mul(s.vel[1]),
        coef.mul(s.vel[2]),
        coef.mul(e_star),
    ];
    let mut out = [L::splat(0.0); NFLUX];
    for n in 0..NFLUX {
        out[n] = f[n].add(s_k.mul(u_star[n].sub(u[n])));
    }
    out
}

/// Lane-generic twin of [`hllc`].
///
/// The wave-speed `min`/`max` use lane select semantics; they agree with
/// the scalar `f64::min`/`f64::max` because the estimates are non-NaN and
/// an exact ±0 tie would need `u = c = 0`, impossible with floored
/// pressure (`c > 0`). The scalar early returns (`s_l >= 0`, `s_r <= 0`)
/// and the contact-side pick (`s_star >= 0`) become a nested bitwise
/// select; divisions by `dl - dr` or `s_k - s_star` can only degenerate on
/// lanes a mask discards.
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
pub fn hllc_lanes<L: Lane>(l: &PrimL<L>, r: &PrimL<L>) -> [L; NFLUX] {
    let cl = l.sound_speed();
    let cr = r.sound_speed();

    let s_l = l.vel[0].sub(cl).min(r.vel[0].sub(cr));
    let s_r = l.vel[0].add(cl).max(r.vel[0].add(cr));

    let fl = l.flux();
    let fr = r.flux();

    let dl = l.dens.mul(s_l.sub(l.vel[0]));
    let dr = r.dens.mul(s_r.sub(r.vel[0]));
    let s_star = r
        .pres
        .sub(l.pres)
        .add(l.vel[0].mul(dl))
        .sub(r.vel[0].mul(dr))
        .div(dl.sub(dr));

    let fsl = star_flux_lanes(l, s_l, s_star);
    let fsr = star_flux_lanes(r, s_r, s_star);

    let zero = L::splat(0.0);
    let m_l = s_l.ge(zero);
    let m_r = s_r.le(zero);
    let m_star = s_star.ge(zero);
    let mut out = [zero; NFLUX];
    for n in 0..NFLUX {
        out[n] = L::select(
            m_l,
            fl[n],
            L::select(m_r, fr[n], L::select(m_star, fsl[n], fsr[n])),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prim(dens: f64, u: f64, pres: f64, gamma: f64) -> Prim {
        let eint = pres / ((gamma - 1.0) * dens);
        Prim {
            dens,
            vel: [u, 0.0, 0.0],
            pres,
            ener: eint + 0.5 * u * u,
            gamc: gamma,
        }
    }

    #[test]
    fn uniform_state_gives_exact_advection_flux() {
        let p = prim(1.0, 2.0, 1.0, 1.4);
        let f = hllc(&p, &p);
        let exact = p.flux();
        for n in 0..NFLUX {
            assert!((f[n] - exact[n]).abs() < 1e-13, "channel {n}");
        }
    }

    #[test]
    fn symmetry_of_mirrored_states() {
        // Mirroring left/right with negated velocities must negate the mass
        // flux and preserve the momentum flux.
        let l = prim(1.0, 0.3, 1.0, 1.4);
        let r = prim(0.5, -0.1, 0.4, 1.4);
        let f = hllc(&l, &r);
        let mut lm = l;
        let mut rm = r;
        lm.vel[0] = -l.vel[0];
        rm.vel[0] = -r.vel[0];
        let fm = hllc(&rm, &lm);
        assert!((f[0] + fm[0]).abs() < 1e-12, "mass flux antisymmetry");
        assert!((f[1] - fm[1]).abs() < 1e-12, "momentum flux symmetry");
        assert!((f[4] + fm[4]).abs() < 1e-12, "energy flux antisymmetry");
    }

    #[test]
    fn supersonic_flows_upwind_fully() {
        let l = prim(1.0, 10.0, 1.0, 1.4); // far supersonic to the right
        let r = prim(0.125, 10.0, 0.1, 1.4);
        let f = hllc(&l, &r);
        let exact = l.flux();
        for n in 0..NFLUX {
            assert!((f[n] - exact[n]).abs() < 1e-12);
        }
        let f = hllc(&prim(1.0, -10.0, 1.0, 1.4), &prim(0.125, -10.0, 0.1, 1.4));
        let exact = prim(0.125, -10.0, 0.1, 1.4).flux();
        for n in 0..NFLUX {
            assert!((f[n] - exact[n]).abs() < 1e-12);
        }
    }

    #[test]
    fn sod_interface_flux_is_sane() {
        // Sod shock tube: interface flux must transport mass rightward with
        // positive momentum flux bounded by the left pressure.
        let l = prim(1.0, 0.0, 1.0, 1.4);
        let r = prim(0.125, 0.0, 0.1, 1.4);
        let f = hllc(&l, &r);
        assert!(f[0] > 0.0, "mass flows right");
        assert!(f[1] > 0.1 && f[1] < 1.0, "momentum flux between pressures");
        assert!(f[4] > 0.0, "energy flows right");
        // The exact Sod solution has p* ≈ 0.30313 and u* ≈ 0.92745;
        // HLLC resolves the contact, so the mass flux should be close to
        // ρ*L u* ≈ 0.426·0.927.
        assert!((f[0] - 0.39).abs() < 0.06, "mass flux {}", f[0]);
    }

    #[test]
    fn transverse_momentum_is_passively_advected() {
        let mut l = prim(1.0, 0.5, 1.0, 1.4);
        let mut r = prim(1.0, 0.5, 1.0, 1.4);
        l.vel[1] = 3.0;
        r.vel[1] = -2.0;
        l.ener += 0.5 * 9.0;
        r.ener += 0.5 * 4.0;
        let f = hllc(&l, &r);
        // Positive contact speed: transverse momentum comes from the left.
        assert!((f[2] - f[0] * 3.0).abs() < 1e-12);
    }

    #[test]
    fn strong_shock_does_not_nan() {
        let l = prim(1.0, 0.0, 1e10, 5.0 / 3.0);
        let r = prim(1e-4, 0.0, 1e-4, 5.0 / 3.0);
        let f = hllc(&l, &r);
        assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
    }

    struct HllcLanes<'a> {
        l: &'a [Prim],
        r: &'a [Prim],
        out: &'a mut [[f64; NFLUX]],
    }

    impl rflash_simd::WithLanes for HllcLanes<'_> {
        type Output = ();
        #[cfg_attr(debug_assertions, inline)]
        #[cfg_attr(not(debug_assertions), inline(always))]
        fn with_lanes<L: Lane>(self) {
            #[cfg_attr(debug_assertions, inline)]
            #[cfg_attr(not(debug_assertions), inline(always))]
            fn pack<L: Lane>(p: &[Prim], i: usize) -> PrimL<L> {
                PrimL {
                    dens: L::from_fn(|k| p[i + k].dens),
                    vel: [
                        L::from_fn(|k| p[i + k].vel[0]),
                        L::from_fn(|k| p[i + k].vel[1]),
                        L::from_fn(|k| p[i + k].vel[2]),
                    ],
                    pres: L::from_fn(|k| p[i + k].pres),
                    ener: L::from_fn(|k| p[i + k].ener),
                    gamc: L::from_fn(|k| p[i + k].gamc),
                }
            }
            let n = self.l.len();
            let mut i = 0;
            while i + L::W <= n {
                let f = hllc_lanes(&pack::<L>(self.l, i), &pack::<L>(self.r, i));
                for k in 0..L::W {
                    for (ch, lane) in f.iter().enumerate() {
                        self.out[i + k][ch] = lane.extract(k);
                    }
                }
                i += L::W;
            }
            while i < n {
                let f = hllc_lanes(
                    &pack::<rflash_simd::ScalarLane>(self.l, i),
                    &pack::<rflash_simd::ScalarLane>(self.r, i),
                );
                for (ch, lane) in f.iter().enumerate() {
                    self.out[i][ch] = lane.extract(0);
                }
                i += 1;
            }
        }
    }

    #[test]
    fn lane_twin_matches_scalar_hllc_bit_exactly_on_every_backend() {
        // A spread of face states covering all four wave-fan branches:
        // supersonic left/right, subsonic with contact on either side.
        let mut ls = Vec::new();
        let mut rs = Vec::new();
        for i in 0..21 {
            let g = if i % 2 == 0 { 1.4 } else { 5.0 / 3.0 };
            let u = (i as f64 - 10.0) * 1.3;
            let mut l = prim(1.0 + 0.07 * i as f64, u, 1.0 + 0.3 * i as f64, g);
            let mut r = prim(0.125 + 0.02 * i as f64, -u * 0.7, 0.1 + 0.05 * i as f64, g);
            l.vel[1] = 0.2 * i as f64;
            r.vel[2] = -0.1 * i as f64;
            ls.push(l);
            rs.push(r);
        }
        let reference: Vec<[f64; NFLUX]> = ls.iter().zip(&rs).map(|(l, r)| hllc(l, r)).collect();
        for &backend in rflash_simd::Resolved::all() {
            let mut out = vec![[0.0; NFLUX]; ls.len()];
            rflash_simd::dispatch(
                backend,
                HllcLanes {
                    l: &ls,
                    r: &rs,
                    out: &mut out,
                },
            );
            for (i, (got, want)) in out.iter().zip(&reference).enumerate() {
                for ch in 0..NFLUX {
                    assert_eq!(
                        got[ch].to_bits(),
                        want[ch].to_bits(),
                        "{backend} face {i} channel {ch}: {} vs {}",
                        got[ch],
                        want[ch]
                    );
                }
            }
        }
    }
}

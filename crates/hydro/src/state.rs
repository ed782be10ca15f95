//! Primitive and conserved state vectors for one zone, plus the
//! lane-generic twin [`PrimL`] holding `W` zones' states in packed lanes
//! for the pencil engine's SIMD path. The twin replicates [`Prim`]'s
//! operation order exactly so both are bit-identical per lane.

use crate::NFLUX;
use rflash_simd::Lane;

/// Primitive state in the sweep frame: `vel[0]` is the sweep-normal
/// velocity, `vel[1..]` are transverse.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Prim {
    pub dens: f64,
    pub vel: [f64; 3],
    pub pres: f64,
    /// Specific total energy (internal + kinetic).
    pub ener: f64,
    /// First adiabatic index Γ₁ at this zone (from the EOS).
    pub gamc: f64,
}

impl Prim {
    /// Adiabatic sound speed.
    #[cfg_attr(debug_assertions, inline)]
    #[cfg_attr(not(debug_assertions), inline(always))]
    pub fn sound_speed(&self) -> f64 {
        (self.gamc * self.pres / self.dens).max(0.0).sqrt()
    }

    /// Conserved vector (ρ, ρu, ρv, ρw, ρE).
    #[cfg_attr(debug_assertions, inline)]
    #[cfg_attr(not(debug_assertions), inline(always))]
    pub fn to_cons(&self) -> [f64; NFLUX] {
        [
            self.dens,
            self.dens * self.vel[0],
            self.dens * self.vel[1],
            self.dens * self.vel[2],
            self.dens * self.ener,
        ]
    }

    /// Physical flux through a face normal to the sweep direction.
    #[cfg_attr(debug_assertions, inline)]
    #[cfg_attr(not(debug_assertions), inline(always))]
    pub fn flux(&self) -> [f64; NFLUX] {
        let u = self.vel[0];
        let m = self.to_cons();
        [
            m[0] * u,
            m[1] * u + self.pres,
            m[2] * u,
            m[3] * u,
            (m[4] + self.pres) * u,
        ]
    }
}

/// Recover velocity and specific total energy from a conserved vector;
/// density floors protect against vacuum states created by strong
/// rarefactions (FLASH's `smlrho`).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
pub fn cons_to_vel_ener(u: &[f64; NFLUX], dens_floor: f64) -> (f64, [f64; 3], f64) {
    let dens = u[0].max(dens_floor);
    let inv = 1.0 / dens;
    let vel = [u[1] * inv, u[2] * inv, u[3] * inv];
    let ener = u[4] * inv;
    (dens, vel, ener)
}

/// [`Prim`] over `W` packed zones — the lane-generic twin used by the
/// pencil engine under dispatch. Each method mirrors the scalar method's
/// operation order; `sound_speed`'s `max(0.0)` uses the lane select-`max`,
/// which agrees bitwise with `f64::max` here because the argument is a
/// product/quotient of positive floored quantities (never NaN, and a zero
/// from underflow is positive).
#[derive(Clone, Copy, Debug)]
pub struct PrimL<L: Lane> {
    pub dens: L,
    pub vel: [L; 3],
    pub pres: L,
    pub ener: L,
    pub gamc: L,
}

impl<L: Lane> PrimL<L> {
    /// Adiabatic sound speed (twin of [`Prim::sound_speed`]).
    #[cfg_attr(debug_assertions, inline)]
    #[cfg_attr(not(debug_assertions), inline(always))]
    pub fn sound_speed(&self) -> L {
        self.gamc
            .mul(self.pres)
            .div(self.dens)
            .max(L::splat(0.0))
            .sqrt()
    }

    /// Conserved vector (twin of [`Prim::to_cons`]).
    #[cfg_attr(debug_assertions, inline)]
    #[cfg_attr(not(debug_assertions), inline(always))]
    pub fn to_cons(&self) -> [L; NFLUX] {
        [
            self.dens,
            self.dens.mul(self.vel[0]),
            self.dens.mul(self.vel[1]),
            self.dens.mul(self.vel[2]),
            self.dens.mul(self.ener),
        ]
    }

    /// Physical flux (twin of [`Prim::flux`]).
    #[cfg_attr(debug_assertions, inline)]
    #[cfg_attr(not(debug_assertions), inline(always))]
    pub fn flux(&self) -> [L; NFLUX] {
        let u = self.vel[0];
        let m = self.to_cons();
        [
            m[0].mul(u),
            m[1].mul(u).add(self.pres),
            m[2].mul(u),
            m[3].mul(u),
            m[4].add(self.pres).mul(u),
        ]
    }
}

/// Twin of [`cons_to_vel_ener`]. The density floor's `max` sees a positive
/// floor constant, where the lane select-`max` equals `f64::max` bitwise
/// (NaN/−0 in the first operand both yield the floor in either form).
#[cfg_attr(debug_assertions, inline)]
#[cfg_attr(not(debug_assertions), inline(always))]
pub fn cons_to_vel_ener_lanes<L: Lane>(u: &[L; NFLUX], dens_floor: L) -> (L, [L; 3], L) {
    let dens = u[0].max(dens_floor);
    let inv = L::splat(1.0).div(dens);
    let vel = [u[1].mul(inv), u[2].mul(inv), u[3].mul(inv)];
    let ener = u[4].mul(inv);
    (dens, vel, ener)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prim() -> Prim {
        Prim {
            dens: 2.0,
            vel: [3.0, -1.0, 0.5],
            pres: 10.0,
            ener: 20.0,
            gamc: 5.0 / 3.0,
        }
    }

    #[test]
    fn cons_round_trip() {
        let p = prim();
        let u = p.to_cons();
        let (dens, vel, ener) = cons_to_vel_ener(&u, 1e-30);
        assert_eq!(dens, p.dens);
        assert_eq!(vel, p.vel);
        assert_eq!(ener, p.ener);
    }

    #[test]
    fn flux_is_consistent_with_rankine_hugoniot_trivial_case() {
        // At rest: only the pressure terms survive.
        let p = Prim {
            dens: 1.0,
            vel: [0.0; 3],
            pres: 7.0,
            ener: 10.0,
            gamc: 1.4,
        };
        let f = p.flux();
        assert_eq!(f, [0.0, 7.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn sound_speed_matches_formula() {
        let p = prim();
        assert!((p.sound_speed() - (5.0 / 3.0 * 10.0 / 2.0f64).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn density_floor_applies() {
        let u = [0.0, 0.0, 0.0, 0.0, 0.0];
        let (dens, _, _) = cons_to_vel_ener(&u, 1e-10);
        assert_eq!(dens, 1e-10);
    }
}

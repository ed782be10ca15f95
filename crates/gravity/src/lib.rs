//! Self-gravity for the supernova application.
//!
//! FLASH's whole-star deflagration models use the multipole Poisson solver;
//! for a nearly spherical white dwarf the monopole term dominates, so this
//! crate implements the standard monopole approximation: bin cell masses
//! into radial shells about a center, integrate the enclosed mass, and
//! apply `g(r) = −G M(<r) / r²` as a radial acceleration. Constant and
//! point-mass fields are provided for tests and toy problems.

use rflash_eos::consts::G_NEWTON;
use rflash_mesh::{vars, Domain};
use serde::{Deserialize, Serialize};

/// A gravitational field the driver can evaluate per zone.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum GravityField {
    /// No gravity.
    None,
    /// Uniform acceleration vector.
    Constant([f64; 3]),
    /// Point mass `m` at `center` (softened).
    PointMass { m: f64, center: [f64; 3], soft: f64 },
    /// Monopole field from a radial mass profile (see [`MonopoleSolver`]).
    Monopole(MonopoleField),
}

impl GravityField {
    /// Acceleration at position `x`.
    pub fn accel(&self, x: [f64; 3]) -> [f64; 3] {
        match self {
            GravityField::None => [0.0; 3],
            GravityField::Constant(g) => *g,
            GravityField::PointMass { m, center, soft } => {
                let d = [x[0] - center[0], x[1] - center[1], x[2] - center[2]];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + soft * soft;
                let r = r2.sqrt();
                let a = -G_NEWTON * m / (r2 * r);
                [a * d[0], a * d[1], a * d[2]]
            }
            GravityField::Monopole(f) => f.accel(x),
        }
    }
}

/// Radial enclosed-mass profile → monopole acceleration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MonopoleField {
    pub center: [f64; 3],
    /// Shell outer radii (uniform spacing `dr`).
    dr: f64,
    /// Enclosed mass at each shell's outer radius.
    m_enclosed: Vec<f64>,
}

impl MonopoleField {
    /// Build from a 1-d enclosed-mass profile `(r[i], m[i])` (e.g. a
    /// hydrostatic stellar model), resampled onto a uniform radial grid.
    ///
    /// This is how the 2-d *Cartesian* supernova substitute gets a
    /// physically consistent field: the grid star is a cut through the
    /// spherical 1-d model, so the 1-d model's M(<r) — not a mass binning
    /// of the 2-d plane, which has per-unit-length units — is the right
    /// source for g = −GM/r².
    pub fn from_profile(center: [f64; 3], r: &[f64], m: &[f64], n_shells: usize) -> MonopoleField {
        assert_eq!(r.len(), m.len());
        assert!(!r.is_empty() && n_shells >= 2);
        let r_max = *r.last().unwrap();
        let dr = r_max / n_shells as f64;
        let interp = |x: f64| -> f64 {
            if x <= r[0] {
                return m[0];
            }
            if x >= r_max {
                return *m.last().unwrap();
            }
            let i = r.partition_point(|&v| v < x).max(1);
            let f = (x - r[i - 1]) / (r[i] - r[i - 1]);
            m[i - 1] + f * (m[i] - m[i - 1])
        };
        let m_enclosed = (1..=n_shells).map(|i| interp(i as f64 * dr)).collect();
        MonopoleField {
            center,
            dr,
            m_enclosed,
        }
    }

    /// Enclosed mass at radius r (linear interpolation, flat extrapolation).
    pub fn mass_within(&self, r: f64) -> f64 {
        if self.m_enclosed.is_empty() || r <= 0.0 {
            return 0.0;
        }
        let f = r / self.dr;
        let i = f as usize;
        if i >= self.m_enclosed.len() {
            return *self.m_enclosed.last().unwrap();
        }
        let lo = if i == 0 { 0.0 } else { self.m_enclosed[i - 1] };
        let hi = self.m_enclosed[i];
        lo + (hi - lo) * (f - i as f64)
    }

    /// Total mass in the profile.
    pub fn total_mass(&self) -> f64 {
        self.m_enclosed.last().copied().unwrap_or(0.0)
    }

    /// Monopole acceleration at position `x` (zero inside the first shell).
    pub fn accel(&self, x: [f64; 3]) -> [f64; 3] {
        let d = [
            x[0] - self.center[0],
            x[1] - self.center[1],
            x[2] - self.center[2],
        ];
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        let r = r2.sqrt();
        if r < 0.5 * self.dr {
            return [0.0; 3];
        }
        let a = -G_NEWTON * self.mass_within(r) / (r2 * r);
        [a * d[0], a * d[1], a * d[2]]
    }
}

/// Builds a [`MonopoleField`] from the mesh by mass-binning leaf zones.
pub struct MonopoleSolver {
    pub center: [f64; 3],
    pub n_shells: usize,
    pub r_max: f64,
}

impl MonopoleSolver {
    /// Compute the field from the current density on the mesh. In 2-d the
    /// domain is interpreted as (r?, no —) Cartesian x–y with unit z extent;
    /// the supernova setup uses it with the star centered in the domain.
    /// Cylindrical-geometry volumes are honored via the mesh geometry.
    pub fn solve(&self, domain: &Domain) -> MonopoleField {
        let dr = self.r_max / self.n_shells as f64;
        let mut shell_mass = vec![0.0f64; self.n_shells];
        let cfg = domain.tree.config();
        for id in domain.tree.leaves() {
            let dx = domain.tree.cell_size(id);
            for k in domain.unk.interior_k() {
                for j in domain.unk.interior() {
                    for i in domain.unk.interior() {
                        let x = domain.tree.cell_center(id, i, j, k);
                        let lo = [x[0] - 0.5 * dx[0], x[1] - 0.5 * dx[1], x[2] - 0.5 * dx[2]];
                        let hi = [x[0] + 0.5 * dx[0], x[1] + 0.5 * dx[1], x[2] + 0.5 * dx[2]];
                        let dv = cfg.geometry.cell_volume(lo, hi, cfg.ndim);
                        let dens = domain.unk.get(vars::DENS, i, j, k, id.idx());
                        let d = [
                            x[0] - self.center[0],
                            x[1] - self.center[1],
                            x[2] - self.center[2],
                        ];
                        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                        let bin = ((r / dr) as usize).min(self.n_shells - 1);
                        shell_mass[bin] += dens * dv;
                    }
                }
            }
        }
        let mut m_enclosed = shell_mass;
        for i in 1..m_enclosed.len() {
            m_enclosed[i] += m_enclosed[i - 1];
        }
        MonopoleField {
            center: self.center,
            dr,
            m_enclosed,
        }
    }
}

/// Apply gravity as an operator-split source term over `dt`: kick the
/// velocities and adjust total energy to stay consistent.
pub fn apply_gravity(domain: &mut Domain, field: &GravityField, dt: f64, nranks: usize) {
    if matches!(field, GravityField::None) {
        return;
    }
    let ndim = domain.tree.config().ndim;
    let vel = [vars::VELX, vars::VELY, vars::VELZ];
    let geom = domain.unk.geom();
    let (ri, rk) = (domain.unk.interior(), domain.unk.interior_k());
    domain.par_leaf_update(nranks, |tree, id, slab, _probe| {
        for k in rk.clone() {
            for j in ri.clone() {
                for i in ri.clone() {
                    let x = tree.cell_center(id, i, j, k);
                    let g = field.accel(x);
                    let mut ekin_old = 0.0;
                    let mut ekin_new = 0.0;
                    for (&vd, &gd) in vel.iter().zip(&g).take(ndim) {
                        let vi = geom.slab_idx(vd, i, j, k);
                        let v = slab[vi];
                        ekin_old += 0.5 * v * v;
                        let vn = v + dt * gd;
                        ekin_new += 0.5 * vn * vn;
                        slab[vi] = vn;
                    }
                    let ei = geom.slab_idx(vars::ENER, i, j, k);
                    slab[ei] = slab[ei] + ekin_new - ekin_old;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_hugepages::Policy;
    use rflash_mesh::tree::MeshConfig;

    #[test]
    fn point_mass_inverse_square() {
        let f = GravityField::PointMass {
            m: 1e33,
            center: [0.0; 3],
            soft: 0.0,
        };
        let a1 = f.accel([1e9, 0.0, 0.0]);
        let a2 = f.accel([2e9, 0.0, 0.0]);
        assert!(a1[0] < 0.0, "attractive");
        assert!((a1[0] / a2[0] - 4.0).abs() < 1e-12);
        assert_eq!(a1[1], 0.0);
    }

    #[test]
    fn constant_field() {
        let f = GravityField::Constant([0.0, -980.0, 0.0]);
        assert_eq!(f.accel([5.0, 5.0, 0.0]), [0.0, -980.0, 0.0]);
    }

    fn uniform_disk_domain(dens: f64) -> Domain {
        let mut cfg = MeshConfig::test_2d();
        cfg.domain_lo = [-1.0, -1.0, 0.0];
        cfg.domain_hi = [1.0, 1.0, 1.0];
        cfg.nroot = [2, 2, 1];
        let mut d = Domain::new(cfg, Policy::None);
        for id in d.tree.leaves() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    let x = d.tree.cell_center(id, i, j, 0);
                    let r = (x[0] * x[0] + x[1] * x[1]).sqrt();
                    let v = if r < 0.5 { dens } else { 0.0 };
                    d.unk.set(vars::DENS, i, j, 0, id.idx(), v);
                }
            }
        }
        d
    }

    #[test]
    fn monopole_total_mass_matches_binning() {
        let d = uniform_disk_domain(3.0);
        let solver = MonopoleSolver {
            center: [0.0; 3],
            n_shells: 64,
            r_max: 1.5,
        };
        let field = solver.solve(&d);
        // Disk of radius 0.5, unit z extent: m = ρπr² = 3π/4 (zone-stepped
        // edge → a few % tolerance).
        let expect = 3.0 * std::f64::consts::PI * 0.25;
        assert!(
            (field.total_mass() - expect).abs() / expect < 0.05,
            "{} vs {expect}",
            field.total_mass()
        );
    }

    #[test]
    fn monopole_enclosed_mass_monotone_and_exterior_inverse_square() {
        let d = uniform_disk_domain(3.0);
        let solver = MonopoleSolver {
            center: [0.0; 3],
            n_shells: 64,
            r_max: 1.5,
        };
        let field = solver.solve(&d);
        let mut prev = 0.0;
        for i in 1..=10 {
            let m = field.mass_within(i as f64 * 0.1);
            assert!(m >= prev);
            prev = m;
        }
        // Outside the disk the field decays as 1/r².
        let a1 = field.accel([0.8, 0.0, 0.0])[0];
        let a2 = field.accel([1.6, 0.0, 0.0])[0];
        assert!((a1 / a2 - 4.0).abs() < 0.02, "{}", a1 / a2);
    }

    #[test]
    fn apply_gravity_kicks_velocity_and_energy() {
        let mut d = uniform_disk_domain(1.0);
        for id in d.tree.leaves() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    d.unk.set(vars::ENER, i, j, 0, id.idx(), 10.0);
                }
            }
        }
        let g = GravityField::Constant([2.0, 0.0, 0.0]);
        apply_gravity(&mut d, &g, 0.5, 2);
        let id = d.tree.leaves()[0];
        let (i, j) = (5, 5);
        assert_eq!(d.unk.get(vars::VELX, i, j, 0, id.idx()), 1.0);
        // ΔE = ½(1² − 0²) = 0.5.
        assert_eq!(d.unk.get(vars::ENER, i, j, 0, id.idx()), 10.5);
        // None field is a no-op.
        apply_gravity(&mut d, &GravityField::None, 0.5, 1);
        assert_eq!(d.unk.get(vars::VELX, i, j, 0, id.idx()), 1.0);
    }

    #[test]
    fn center_is_force_free() {
        let d = uniform_disk_domain(3.0);
        let field = MonopoleSolver {
            center: [0.0; 3],
            n_shells: 64,
            r_max: 1.5,
        }
        .solve(&d);
        assert_eq!(field.accel([0.0, 0.0, 0.0]), [0.0; 3]);
    }
}

//! The ADR front propagator on the AMR mesh.
//!
//! Bistable ("sharpened KPP") reaction with exact traveling-wave speed: for
//!
//! ```text
//! ∂φ/∂t + u·∇φ = κ ∇²φ + φ(1−φ)(φ−ε)/τ
//! ```
//!
//! the 1-d front is φ = 1/(1+exp(x/δ)) with δ = √(2κτ) and speed
//! s = √(κ/2τ)(1−2ε). Inverting for a prescribed front speed `s` and width
//! δ gives κ = sδ/(1−2ε) and τ = δ(1−2ε)/(2s); FLASH's ADR unit does the
//! same calibration so the front is always a few zones wide regardless of
//! resolution.

use rflash_mesh::{vars, BlockId, Domain};
use rflash_perfmon::Probe;

use crate::speed::{turbulent_enhancement, SpeedTable};
use crate::Q_BURN;

/// Flame-model parameters.
#[derive(Clone, Copy, Debug)]
pub struct FlameParams {
    /// Front width δ in units of the local zone size (FLASH uses ~1–2;
    /// the resolved front then spans ~4δ zones).
    pub width_cells: f64,
    /// sKPP sharpening ε ∈ (0, 0.5): suppresses the pulled-front pathology.
    pub eps: f64,
    /// No burning below this density (quench; deflagrations die out).
    pub quench_dens: f64,
    /// Carbon mass fraction of the fuel.
    pub x_c: f64,
    /// Effective buoyancy scale A·g·L (Atwood number × gravity ×
    /// unresolved length), cm²/s²; the turbulent floor is 0.5·√(A·g·L).
    /// 0 disables the floor (laminar only).
    pub atwood_g: f64,
    /// Override the tabulated speed (tests / constant-speed studies).
    pub fixed_speed: Option<f64>,
    /// Simulated ranks for the parallel update.
    pub nranks: usize,
}

impl Default for FlameParams {
    fn default() -> Self {
        FlameParams {
            width_cells: 1.5,
            eps: 1e-3,
            quench_dens: 1e6,
            x_c: 0.5,
            atwood_g: 0.0,
            fixed_speed: None,
            nranks: 1,
        }
    }
}

/// The model flame: speed table + parameters.
pub struct AdrFlame {
    pub params: FlameParams,
    speeds: SpeedTable,
}

impl AdrFlame {
    /// Build the model flame with the default C/O laminar-speed table.
    pub fn new(params: FlameParams) -> AdrFlame {
        AdrFlame {
            params,
            speeds: SpeedTable::default_co(),
        }
    }

    /// Front speed at the given density.
    pub fn front_speed(&self, dens: f64) -> f64 {
        if dens < self.params.quench_dens {
            return 0.0;
        }
        let s_lam = self
            .params
            .fixed_speed
            .unwrap_or_else(|| self.speeds.speed(dens, self.params.x_c));
        // atwood_g already carries the A·g·L product (see FlameParams).
        turbulent_enhancement(s_lam, self.params.atwood_g, 1.0)
    }

    /// Advance φ (and the released energy) by `dt`. Guard cells must be
    /// filled by the caller (the driver fills them right before). Explicit
    /// subcycling keeps the diffusion number ≤ 0.25.
    ///
    /// Returns (probes, total energy released in erg·cm^ndim per unit
    /// transverse extent — i.e. Σ ρ·Δq·dV with unit z-extent in 2-d, the
    /// leaves it deposited energy in, in Morton order). Only those leaves'
    /// thermodynamics went stale.
    pub fn advance(&self, domain: &mut Domain, dt: f64) -> (Vec<Probe>, f64, Vec<BlockId>) {
        let ndim = domain.tree.config().ndim;
        let geom = domain.unk.geom();
        let ng = domain.tree.config().nguard;
        let nxb = domain.tree.config().nxb;
        let p = self.params;
        let this = self;

        let (probes, released) = domain.par_leaf_map(p.nranks, |tree, id, slab, probe| {
            let dx = tree.cell_size(id)[0];
            // Calibrate κ, τ for this block's resolution from the *peak*
            // front speed present (speed varies zone to zone; the front
            // width is tied to the zone size).
            let delta = p.width_cells * dx;
            let kr = if ndim == 3 { ng..ng + nxb } else { 0..1 };

            // Stability: explicit diffusion needs κ dt_sub / dx² ≤ 0.25/ndim.
            // κ depends on the local speed; bound it with the maximum
            // possible front speed in the block.
            let mut s_max = 0.0f64;
            for k in kr.clone() {
                for j in ng..ng + nxb {
                    for i in ng..ng + nxb {
                        let dens = slab[geom.slab_idx(vars::DENS, i, j, k)];
                        s_max = s_max.max(this.front_speed(dens));
                    }
                }
            }
            if s_max == 0.0 {
                return (0.0, false); // nothing can burn in this block
            }
            let kappa_max = s_max * delta / (1.0 - 2.0 * p.eps);
            let dt_stable = 0.25 / ndim as f64 * dx * dx / kappa_max;
            let nsub = (dt / dt_stable).ceil().max(1.0) as usize;
            let dts = dt / nsub as f64;

            let mut phi_new = vec![0.0f64; geom.ni * geom.nj * geom.nk];
            let cell = |i: usize, j: usize, k: usize| i + geom.ni * (j + geom.nj * k);
            let mut e_released = 0.0;
            let mut deposited = false;

            for _sub in 0..nsub {
                for k in kr.clone() {
                    for j in ng..ng + nxb {
                        for i in ng..ng + nxb {
                            let at = |v: usize, ii: usize, jj: usize, kk: usize| {
                                slab[geom.slab_idx(v, ii, jj, kk)]
                            };
                            let phi = at(vars::FLAM, i, j, k);
                            let dens = at(vars::DENS, i, j, k);
                            let s = this.front_speed(dens);
                            if s == 0.0 {
                                phi_new[cell(i, j, k)] = phi;
                                continue;
                            }
                            let kappa = s * delta / (1.0 - 2.0 * p.eps);
                            let tau = delta * (1.0 - 2.0 * p.eps) / (2.0 * s);

                            // Upwind advection + centered diffusion.
                            let mut rhs = 0.0;
                            let vel_vars = [vars::VELX, vars::VELY, vars::VELZ];
                            for (axis, &vv) in vel_vars.iter().enumerate().take(ndim) {
                                let (ip, im, jp, jm, kp, km) = match axis {
                                    0 => (i + 1, i - 1, j, j, k, k),
                                    1 => (i, i, j + 1, j - 1, k, k),
                                    _ => (i, i, j, j, k + 1, k - 1),
                                };
                                let php = at(vars::FLAM, ip, jp, kp);
                                let phm = at(vars::FLAM, im, jm, km);
                                let u = at(vv, i, j, k);
                                let grad_up = if u > 0.0 {
                                    (phi - phm) / dx
                                } else {
                                    (php - phi) / dx
                                };
                                rhs -= u * grad_up;
                                rhs += kappa * (php - 2.0 * phi + phm) / (dx * dx);
                            }
                            rhs += phi * (1.0 - phi) * (phi - p.eps) / tau;
                            let phi_next = (phi + dts * rhs).clamp(0.0, 1.0);
                            phi_new[cell(i, j, k)] = phi_next;
                            probe.stats.add_vec(16 * ndim as u64);
                        }
                    }
                }
                // Commit + energy release.
                for k in kr.clone() {
                    for j in ng..ng + nxb {
                        for i in ng..ng + nxb {
                            let idx_phi = geom.slab_idx(vars::FLAM, i, j, k);
                            let dphi = phi_new[cell(i, j, k)] - slab[idx_phi];
                            slab[idx_phi] = phi_new[cell(i, j, k)];
                            if dphi > 0.0 {
                                deposited = true;
                                let dq = Q_BURN * p.x_c * dphi;
                                let ei = geom.slab_idx(vars::EINT, i, j, k);
                                let en = geom.slab_idx(vars::ENER, i, j, k);
                                slab[ei] += dq;
                                slab[en] += dq;
                                let dens = slab[geom.slab_idx(vars::DENS, i, j, k)];
                                // Geometry-aware cell volume (true erg in
                                // cylindrical r–z; erg per cm of z-extent in
                                // 2-d Cartesian).
                                let dxs = tree.cell_size(id);
                                let x = tree.cell_center(id, i, j, k);
                                let lo = [
                                    x[0] - 0.5 * dxs[0],
                                    x[1] - 0.5 * dxs[1],
                                    x[2] - 0.5 * dxs[2],
                                ];
                                let hi = [
                                    x[0] + 0.5 * dxs[0],
                                    x[1] + 0.5 * dxs[1],
                                    x[2] + 0.5 * dxs[2],
                                ];
                                let dv =
                                    tree.config().geometry.cell_volume(lo, hi, ndim);
                                e_released += dens * dq * dv;
                            }
                            probe.stats.zones += 1;
                        }
                    }
                }
            }
            (e_released, deposited)
        });
        let total: f64 = released.iter().map(|(_, (e, _))| e).sum();
        let burned = released
            .iter()
            .filter(|(_, (_, deposited))| *deposited)
            .map(|&(id, _)| id)
            .collect();
        (probes, total, burned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_hugepages::Policy;
    use rflash_mesh::guardcell::fill_guardcells;
    use rflash_mesh::tree::MeshConfig;
    use rflash_mesh::BoundaryCondition;

    /// A quiescent 2-d domain with a planar φ front at x = x0.
    fn front_domain(x0: f64, dens: f64) -> Domain {
        let mut cfg = MeshConfig::test_2d();
        cfg.bc = BoundaryCondition::Outflow;
        cfg.nroot = [4, 1, 1];
        cfg.domain_hi = [4.0e7, 1.0e7, 1.0];
        cfg.max_blocks = 8;
        let mut d = Domain::new(cfg, Policy::None);
        for id in d.tree.leaves() {
            for j in 0..d.unk.padded().1 {
                for i in 0..d.unk.padded().0 {
                    let x = d.tree.cell_center(id, i, j, 0)[0];
                    d.unk.set(vars::DENS, i, j, 0, id.idx(), dens);
                    d.unk
                        .set(vars::FLAM, i, j, 0, id.idx(), if x < x0 { 1.0 } else { 0.0 });
                    d.unk.set(vars::EINT, i, j, 0, id.idx(), 1e15);
                    d.unk.set(vars::ENER, i, j, 0, id.idx(), 1e15);
                }
            }
        }
        d
    }

    /// Mean front position: ∫φ dx per unit y.
    fn front_position(d: &Domain) -> f64 {
        let mut integral = 0.0;
        let mut rows = 0.0;
        for id in d.tree.leaves() {
            let dx = d.tree.cell_size(id)[0];
            for j in d.unk.interior() {
                rows += 1.0;
                for i in d.unk.interior() {
                    integral += d.unk.get(vars::FLAM, i, j, 0, id.idx()) * dx;
                }
            }
        }
        integral / (rows / 4.0) // 4 blocks across x, rows counts each row 4×
    }

    /// One leaf's interior internal energies, row by row.
    fn interior_eint(d: &Domain, id: BlockId) -> Vec<f64> {
        let rows = d.unk.interior();
        rows.clone()
            .flat_map(|j| rows.clone().map(move |i| (i, j)))
            .map(|(i, j)| d.unk.get(vars::EINT, i, j, 0, id.idx()))
            .collect()
    }

    #[test]
    fn front_propagates_at_prescribed_speed() {
        let mut d = front_domain(1.0e7, 2e9);
        let s_target = 5.0e6; // cm/s
        let flame = AdrFlame::new(FlameParams {
            fixed_speed: Some(s_target),
            width_cells: 2.0, // resolve the front well for this speed test
            ..FlameParams::default()
        });
        let dx = d.tree.cell_size(d.tree.leaves()[0])[0];
        let dt = 0.2 * dx / s_target;
        // Let the sharp step relax into the traveling-wave profile first.
        for _ in 0..40 {
            fill_guardcells(&d.tree, &mut d.unk);
            flame.advance(&mut d, dt);
        }
        fill_guardcells(&d.tree, &mut d.unk);
        let x_start = front_position(&d);
        let steps = 80;
        for _ in 0..steps {
            fill_guardcells(&d.tree, &mut d.unk);
            flame.advance(&mut d, dt);
        }
        let x_end = front_position(&d);
        let s_measured = (x_end - x_start) / (steps as f64 * dt);
        assert!(
            (s_measured - s_target).abs() / s_target < 0.12,
            "front speed {s_measured:e} vs target {s_target:e}"
        );
    }

    #[test]
    fn quenched_below_density_threshold() {
        let mut d = front_domain(1.0e7, 1e5); // below quench_dens = 1e6
        let flame = AdrFlame::new(FlameParams {
            fixed_speed: Some(1e6),
            ..FlameParams::default()
        });
        fill_guardcells(&d.tree, &mut d.unk);
        let before = front_position(&d);
        let (_, released, burned) = flame.advance(&mut d, 1.0);
        assert_eq!(released, 0.0);
        assert!(burned.is_empty());
        let after = front_position(&d);
        assert!((after - before).abs() < 1e-9);
    }

    #[test]
    fn burning_releases_energy_and_raises_eint() {
        let mut d = front_domain(1.0e7, 2e9);
        let flame = AdrFlame::new(FlameParams {
            fixed_speed: Some(5e6),
            ..FlameParams::default()
        });
        let e0 = d.unk.get(vars::EINT, 6, 6, 0, d.tree.leaves()[0].idx());
        let mut total = 0.0;
        for _ in 0..20 {
            fill_guardcells(&d.tree, &mut d.unk);
            let leaves = d.tree.leaves();
            let before: Vec<Vec<f64>> = leaves.iter().map(|&id| interior_eint(&d, id)).collect();
            let (_, e, burned) = flame.advance(&mut d, 1e-2);
            total += e;
            // Every leaf whose energy moved is reported burned (a deposit
            // below EINT's last bit may add a leaf that did not move).
            for (&id, old) in leaves.iter().zip(&before) {
                if interior_eint(&d, id) != *old {
                    assert!(burned.contains(&id), "{id:?} heated but not reported");
                }
            }
        }
        assert!(total > 0.0, "energy must be released");
        // Some zone near the initial front has gained internal energy.
        let mut gained = false;
        for id in d.tree.leaves() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    if d.unk.get(vars::EINT, i, j, 0, id.idx()) > e0 * 1.001 {
                        gained = true;
                    }
                }
            }
        }
        assert!(gained);
    }

    #[test]
    fn phi_stays_in_unit_interval() {
        let mut d = front_domain(2.0e7, 2e9);
        let flame = AdrFlame::new(FlameParams {
            fixed_speed: Some(1e7),
            ..FlameParams::default()
        });
        for _ in 0..30 {
            fill_guardcells(&d.tree, &mut d.unk);
            flame.advance(&mut d, 1e-2);
        }
        for id in d.tree.leaves() {
            for j in d.unk.interior() {
                for i in d.unk.interior() {
                    let phi = d.unk.get(vars::FLAM, i, j, 0, id.idx());
                    assert!((0.0..=1.0).contains(&phi), "phi = {phi}");
                }
            }
        }
    }
}

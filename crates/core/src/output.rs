//! Run output: radial and midline profiles and JSON plot records.

use rflash_mesh::{vars, Domain};
use serde::{Deserialize, Serialize};

/// A spherically (2-d: circularly) averaged radial profile.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RadialProfile {
    pub center: [f64; 3],
    /// Bin outer radii.
    pub r: Vec<f64>,
    pub dens: Vec<f64>,
    pub pres: Vec<f64>,
    /// Radial velocity (positive = outward).
    pub velr: Vec<f64>,
    /// Zones contributing to each bin.
    pub count: Vec<u64>,
}

impl RadialProfile {
    /// Bin every interior leaf zone by radius about `center`.
    pub fn extract(domain: &Domain, center: [f64; 3], r_max: f64, nbins: usize) -> RadialProfile {
        let dr = r_max / nbins as f64;
        let mut dens = vec![0.0; nbins];
        let mut pres = vec![0.0; nbins];
        let mut velr = vec![0.0; nbins];
        let mut count = vec![0u64; nbins];
        let ndim = domain.tree.config().ndim;
        for id in domain.tree.leaves() {
            for k in domain.unk.interior_k() {
                for j in domain.unk.interior() {
                    for i in domain.unk.interior() {
                        let x = domain.tree.cell_center(id, i, j, k);
                        let d = [x[0] - center[0], x[1] - center[1], x[2] - center[2]];
                        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                        let bin = (r / dr) as usize;
                        if bin >= nbins {
                            continue;
                        }
                        dens[bin] += domain.unk.get(vars::DENS, i, j, k, id.idx());
                        pres[bin] += domain.unk.get(vars::PRES, i, j, k, id.idx());
                        let vel = [
                            domain.unk.get(vars::VELX, i, j, k, id.idx()),
                            domain.unk.get(vars::VELY, i, j, k, id.idx()),
                            domain.unk.get(vars::VELZ, i, j, k, id.idx()),
                        ];
                        let vr = if r > 0.0 {
                            (0..ndim).map(|a| vel[a] * d[a] / r).sum()
                        } else {
                            0.0
                        };
                        velr[bin] += vr;
                        count[bin] += 1;
                    }
                }
            }
        }
        for b in 0..nbins {
            let n = count[b].max(1) as f64;
            dens[b] /= n;
            pres[b] /= n;
            velr[b] /= n;
        }
        RadialProfile {
            center,
            r: (1..=nbins).map(|i| i as f64 * dr).collect(),
            dens,
            pres,
            velr,
            count,
        }
    }

    /// Radius of the strongest outward density jump — a cheap shock finder
    /// (maximum of ρ over bins with data, biased outward).
    pub fn shock_radius(&self) -> Option<f64> {
        let mut best: Option<(usize, f64)> = None;
        for b in 0..self.r.len() {
            if self.count[b] == 0 {
                continue;
            }
            let d = self.dens[b];
            // ≥ favors the outermost bin achieving the max (the shock
            // front), not the first.
            if best.is_none_or(|(_, v)| d >= v) {
                best = Some((b, d));
            }
        }
        best.map(|(b, _)| self.r[b])
    }
}

/// The x-profile of a planar (shock-tube) problem: the first interior row
/// of every leaf, sorted by x. Returns `(x, dens, velx, pres)`.
pub fn midline_profile(domain: &Domain) -> Vec<(f64, f64, f64, f64)> {
    let j = domain.unk.interior().start; // the problem is uniform in y
    let mut samples = Vec::new();
    for id in domain.tree.leaves() {
        for i in domain.unk.interior() {
            samples.push((
                domain.tree.cell_center(id, i, j, 0)[0],
                domain.unk.get(vars::DENS, i, j, 0, id.idx()),
                domain.unk.get(vars::VELX, i, j, 0, id.idx()),
                domain.unk.get(vars::PRES, i, j, 0, id.idx()),
            ));
        }
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_hugepages::Policy;
    use rflash_mesh::tree::MeshConfig;

    #[test]
    fn profile_of_radial_field() {
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
                    d.unk.set(vars::DENS, i, j, 0, id.idx(), 1.0 + r);
                    // Purely radial velocity of magnitude 2.
                    if r > 0.0 {
                        d.unk.set(vars::VELX, i, j, 0, id.idx(), 2.0 * x[0] / r);
                        d.unk.set(vars::VELY, i, j, 0, id.idx(), 2.0 * x[1] / r);
                    }
                }
            }
        }
        let prof = RadialProfile::extract(&d, [0.0; 3], 1.0, 16);
        for b in 2..14 {
            if prof.count[b] == 0 {
                continue;
            }
            let r_mid = prof.r[b] - 0.5 * (prof.r[1] - prof.r[0]);
            assert!(
                (prof.dens[b] - (1.0 + r_mid)).abs() < 0.08,
                "bin {b}: {} vs {}",
                prof.dens[b],
                1.0 + r_mid
            );
            assert!((prof.velr[b] - 2.0).abs() < 1e-10, "radial speed");
        }
    }

    #[test]
    fn shock_finder_picks_density_peak() {
        let prof = RadialProfile {
            center: [0.0; 3],
            r: vec![0.25, 0.5, 0.75, 1.0],
            dens: vec![0.1, 0.2, 4.0, 1.0],
            pres: vec![0.0; 4],
            velr: vec![0.0; 4],
            count: vec![5; 4],
        };
        assert_eq!(prof.shock_radius(), Some(0.75));
    }

    #[test]
    fn serde_round_trip() {
        let prof = RadialProfile {
            center: [0.0; 3],
            r: vec![1.0],
            dens: vec![2.0],
            pres: vec![3.0],
            velr: vec![4.0],
            count: vec![1],
        };
        let json = serde_json::to_string(&prof).unwrap();
        let back: RadialProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dens, prof.dens);
    }
}

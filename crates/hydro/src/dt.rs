//! CFL time-step control (FLASH's `Driver_computeDt` / `Hydro_computeDt`).

use rflash_mesh::{vars, BlockId, Domain, Tree, UnkStorage};

/// Smallest `dx_d / (|u_d| + c_s)` over the interior zones of one leaf —
/// the per-block piece shared by the serial scan and the pooled reduction.
fn block_min_wavetime(tree: &Tree, unk: &UnkStorage, id: BlockId) -> f64 {
    let geom = unk.geom();
    let slab = unk.block_slab(id.idx());
    let ndim = tree.config().ndim;
    let ng = geom.nguard;
    let nxb = geom.nxb;
    let krange = if ndim == 3 { ng..ng + nxb } else { 0..1 };
    let vel = [vars::VELX, vars::VELY, vars::VELZ];
    let dx = tree.cell_size(id);
    let mut dt = f64::INFINITY;
    for k in krange {
        for j in ng..ng + nxb {
            for i in ng..ng + nxb {
                let dens = slab[geom.slab_idx(vars::DENS, i, j, k)];
                let pres = slab[geom.slab_idx(vars::PRES, i, j, k)];
                let gamc = slab[geom.slab_idx(vars::GAMC, i, j, k)];
                let cs = (gamc * pres / dens).max(0.0).sqrt();
                for d in 0..ndim {
                    let u = slab[geom.slab_idx(vel[d], i, j, k)].abs();
                    let speed = u + cs;
                    if speed > 0.0 {
                        dt = dt.min(dx[d] / speed);
                    }
                }
            }
        }
    }
    dt
}

/// Largest stable time step: `cfl · min(dx_d / (|u_d| + c_s))` over every
/// interior zone of every leaf and every direction. Serial reference scan.
pub fn compute_dt(domain: &Domain, cfl: f64) -> f64 {
    assert!(cfl > 0.0 && cfl < 1.0, "CFL must be in (0, 1)");
    let mut dt = f64::INFINITY;
    for id in domain.tree.leaves() {
        dt = dt.min(block_min_wavetime(&domain.tree, &domain.unk, id));
    }
    assert!(
        dt.is_finite(),
        "no finite time step: mesh uninitialized or all-zero state"
    );
    cfl * dt
}

/// [`compute_dt`] as a reduction over the persistent rank pool: each rank
/// scans its Morton segment and the minima are folded in rank order. `min`
/// is exact (associative and commutative), so the result is bit-identical
/// to the serial scan for any `nranks`. Unlike [`compute_dt`] it does not
/// assert usability: the raw `cfl · min(wavetime)` is `inf` on an
/// uninitialized mesh, so callers that cannot panic (the step guardian)
/// inspect the value themselves.
pub fn compute_dt_parallel_raw(domain: &mut Domain, cfl: f64, nranks: usize) -> f64 {
    assert!(cfl > 0.0 && cfl < 1.0, "CFL must be in (0, 1)");
    cfl * domain.par_leaf_min(nranks, block_min_wavetime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rflash_hugepages::Policy;
    use rflash_mesh::tree::MeshConfig;

    fn domain_with(dens: f64, pres: f64, gamc: f64, velx: f64) -> Domain {
        let mut d = Domain::new(MeshConfig::test_2d(), Policy::None);
        for id in d.tree.leaves() {
            for j in 0..d.unk.padded().1 {
                for i in 0..d.unk.padded().0 {
                    d.unk.set(vars::DENS, i, j, 0, id.idx(), dens);
                    d.unk.set(vars::PRES, i, j, 0, id.idx(), pres);
                    d.unk.set(vars::GAMC, i, j, 0, id.idx(), gamc);
                    d.unk.set(vars::VELX, i, j, 0, id.idx(), velx);
                }
            }
        }
        d
    }

    #[test]
    fn matches_hand_computation() {
        // dx = 1/8, cs = sqrt(1.6·1/1) ≈ 1.2649, u = 0.
        let d = domain_with(1.0, 1.0, 1.6, 0.0);
        let dt = compute_dt(&d, 0.8);
        let expect = 0.8 * (1.0 / 8.0) / 1.6f64.sqrt();
        assert!((dt - expect).abs() < 1e-14, "{dt} vs {expect}");
    }

    #[test]
    fn velocity_shrinks_dt() {
        let still = compute_dt(&domain_with(1.0, 1.0, 1.6, 0.0), 0.5);
        let moving = compute_dt(&domain_with(1.0, 1.0, 1.6, 10.0), 0.5);
        assert!(moving < still / 5.0);
    }

    #[test]
    fn refined_zones_dominate() {
        let mut d = domain_with(1.0, 1.0, 1.6, 0.0);
        let before = compute_dt(&d, 0.5);
        let root = d.tree.leaves()[0];
        d.tree.refine_block(root, &mut d.unk);
        // Children inherit the state via prolongation; dx halves.
        let after = compute_dt(&d, 0.5);
        assert!((after - before / 2.0).abs() < 1e-13);
    }

    #[test]
    fn parallel_dt_is_bit_identical_to_serial() {
        let mut d = domain_with(1.3, 0.9, 1.6, 2.5);
        let root = d.tree.leaves()[0];
        let children = d.tree.refine_block(root, &mut d.unk);
        d.tree.refine_block(children[0], &mut d.unk);
        let serial = compute_dt(&d, 0.7);
        for nranks in [1, 2, 4, 7] {
            let par = compute_dt_parallel_raw(&mut d, 0.7, nranks);
            assert_eq!(par.to_bits(), serial.to_bits(), "nranks={nranks}");
        }
    }

    #[test]
    #[should_panic(expected = "CFL must be in")]
    fn cfl_validated() {
        let d = domain_with(1.0, 1.0, 1.6, 0.0);
        let _ = compute_dt(&d, 1.5);
    }

    #[test]
    #[should_panic(expected = "CFL must be in")]
    fn parallel_cfl_validated() {
        let mut d = domain_with(1.0, 1.0, 1.6, 0.0);
        let _ = compute_dt_parallel_raw(&mut d, 1.5, 2);
    }
}

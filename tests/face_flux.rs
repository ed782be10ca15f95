//! Face-flux uniqueness: two leaf blocks that share a face must compute the
//! same flux through it, bit for bit. If they do not, the mass one block
//! loses through the face is not the mass the other gains, and the update
//! stops being conservative.
//!
//! Each case puts two blocks side by side along the sweep axis, fills them
//! with random states plus a strong compressive pressure jump placed
//! `k = 0..=3` zones from the shared face on either side (where the
//! reconstruction's shock flattening fires near the block edge), fills the
//! guard cells, and sweeps each block with the public per-block body
//! [`sweep_leaf_block`]. Both sides of the shared face are then compared.

use rflash::hugepages::Policy;
use rflash::hydro::{sweep_leaf_block, SweepConfig, NFLUX};
use rflash::mesh::tree::MeshConfig;
use rflash::mesh::{vars, BoundaryCondition, Domain};

const GAMMA: f64 = 1.4;

/// xorshift64*: deterministic, dependency-free random states.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Two root blocks along `dir`, square zones, outflow elsewhere.
fn two_block_domain(ndim: usize, dir: usize) -> Domain {
    let mut cfg = MeshConfig::test_2d();
    cfg.ndim = ndim;
    cfg.max_blocks = 8;
    cfg.min_refine = 0;
    cfg.max_refine = 0;
    cfg.bc = BoundaryCondition::Outflow;
    cfg.nroot[dir] = 2;
    cfg.domain_hi[dir] = 2.0;
    Domain::new(cfg, Policy::None)
}

/// Random gamma-law states with a compressive pressure jump at global zone
/// face `jump` along `dir` (zones below it are hot and move up the axis,
/// zones above are cold and move down).
fn fill_states(d: &mut Domain, dir: usize, jump: usize, rng: &mut Rng) {
    let nxb = d.tree.config().nxb;
    let ng = d.tree.config().nguard;
    let ndim = d.tree.config().ndim;
    let leaves = d.tree.leaves();
    for id in leaves {
        // Global zone offset of this block along `dir` (0 or nxb).
        let offset = if d.tree.bounds(id).0[dir] > 0.5 {
            nxb
        } else {
            0
        };
        let kr = if ndim == 3 { ng..ng + nxb } else { 0..1 };
        for k in kr {
            for j in ng..ng + nxb {
                for i in ng..ng + nxb {
                    let g = [i, j, k][dir] - ng + offset;
                    let hot = g < jump;
                    let dens = 0.5 + rng.unit();
                    let pres = if hot {
                        20.0 + 10.0 * rng.unit()
                    } else {
                        0.1 + 0.1 * rng.unit()
                    };
                    let mut vel = [0.2 * (rng.unit() - 0.5), 0.2 * (rng.unit() - 0.5), 0.0];
                    if ndim == 3 {
                        vel[2] = 0.2 * (rng.unit() - 0.5);
                    }
                    vel[dir] += if hot { 1.0 } else { -1.0 };
                    let eint = pres / ((GAMMA - 1.0) * dens);
                    let ekin = 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
                    let blk = id.idx();
                    d.unk.set(vars::DENS, i, j, k, blk, dens);
                    d.unk.set(vars::VELX, i, j, k, blk, vel[0]);
                    d.unk.set(vars::VELY, i, j, k, blk, vel[1]);
                    d.unk.set(vars::VELZ, i, j, k, blk, vel[2]);
                    d.unk.set(vars::PRES, i, j, k, blk, pres);
                    d.unk.set(vars::EINT, i, j, k, blk, eint);
                    d.unk.set(vars::ENER, i, j, k, blk, eint + ekin);
                    d.unk.set(vars::TEMP, i, j, k, blk, 1.0);
                    d.unk.set(vars::GAMC, i, j, k, blk, GAMMA);
                    d.unk.set(vars::GAME, i, j, k, blk, GAMMA);
                }
            }
        }
    }
}

/// Sweep both blocks along `dir`; panics on the first channel whose two
/// fluxes through the shared face differ.
fn check_shared_face(ndim: usize, dir: usize, jump: usize, seed: u64) {
    let mut d = two_block_domain(ndim, dir);
    let mut rng = Rng(seed);
    fill_states(&mut d, dir, jump, &mut rng);
    d.fill_guardcells(1);

    let geom = d.unk.geom();
    let cfg = SweepConfig::default();
    let (_, fluxes) = d.par_leaf_map(1, |tree, id, slab, probe| {
        sweep_leaf_block(tree, &geom, id, slab, dir, 1e-3, &cfg, probe)
    });
    assert_eq!(fluxes.len(), 2, "two leaves");
    let lower = |i: usize| d.tree.bounds(fluxes[i].0).0[dir] < 0.5;
    let (lo, hi) = if lower(0) {
        (&fluxes[0].1, &fluxes[1].1)
    } else {
        (&fluxes[1].1, &fluxes[0].1)
    };

    let nxb = d.tree.config().nxb;
    for t1 in 0..nxb {
        for t2 in 0..lo.t2_cells() {
            for ch in 0..NFLUX {
                let a = lo.at(1, t1, t2, ch);
                let b = hi.at(0, t1, t2, ch);
                assert!(
                    a.to_bits() == b.to_bits(),
                    "{ndim}-d dir {dir}, jump at zone face {jump} (shared face at {nxb}), \
                     face cell ({t1},{t2}) channel {ch}: lower block {a:e} != upper block {b:e}"
                );
            }
        }
    }
}

fn check_all(ndim: usize) {
    let nxb = MeshConfig::test_2d().nxb;
    for dir in 0..ndim {
        for k in 0..=3usize {
            for jump in [nxb - k, nxb + k] {
                let seed = 0x9e37_79b9_7f4a_7c15 ^ ((ndim * 100 + dir * 10 + jump) as u64);
                check_shared_face(ndim, dir, jump, seed);
            }
        }
    }
}

#[test]
fn shared_face_flux_is_unique_near_a_shock_2d() {
    check_all(2);
}

#[test]
fn shared_face_flux_is_unique_near_a_shock_3d() {
    check_all(3);
}

//! The Helmholtz table computed where it is read.
//!
//! `HelmTable::lazy` solves a temperature row the first time a lookup needs
//! it and lets one background thread solve the rest. These tests hold it to
//! the table `HelmTable::build_on` computes up front: every lookup path, on
//! every backend, returns the same bits; and dropping a half-built table
//! stops the background thread after its current row. The crate's own
//! unit tests compare whole planes, forced complete, from several threads.

use std::time::Instant;

use rflash::eos::table::{ElecPoint, Quantities};
use rflash::eos::{HelmTable, TableConfig};
use rflash::hugepages::Policy;
use rflash::simd::Resolved;

/// xorshift64*: seeded, so a failure names a reproducible lookup sequence.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A (ρYₑ, T) point anywhere in the table's domain, edges included.
fn point(cfg: &TableConfig, rng: &mut Rng) -> (f64, f64) {
    let (x0, x1) = cfg.log_rho_ye;
    let (y0, y1) = cfg.log_temp;
    (
        10f64.powf(x0 + (x1 - x0) * rng.unit()),
        10f64.powf(y0 + (y1 - y0) * rng.unit()),
    )
}

fn same_point(got: &ElecPoint, want: &ElecPoint) -> bool {
    [
        (got.pres, want.pres),
        (got.ener, want.ener),
        (got.entr, want.entr),
        (got.dlnp_dlnr, want.dlnp_dlnr),
        (got.dlnp_dlnt, want.dlnp_dlnt),
        (got.dlne_dlnt, want.dlne_dlnt),
    ]
    .iter()
    .all(|(a, b)| a.to_bits() == b.to_bits())
}

#[test]
fn every_lookup_path_is_bit_equal_to_the_eager_table_on_every_backend() {
    let cfg = TableConfig::coarse();
    let eager = HelmTable::build_on(cfg, Policy::None, 1).unwrap();
    let mut rng = Rng(20220906);
    // 37 lanes: every backend width leaves a scalar tail.
    let points: Vec<(f64, f64)> = (0..37).map(|_| point(&cfg, &mut rng)).collect();
    let (rho_ye, temp): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
    let (p, e) = (Quantities::PRES, Quantities::ENER);
    for &backend in Resolved::all() {
        for sel in [e, p, p.with(e)] {
            // A fresh table per batch, so the batch itself demands rows.
            let lazy = HelmTable::lazy(cfg, Policy::None).unwrap();
            let run = |table: &HelmTable| {
                let rho: Vec<_> = rho_ye.iter().map(|&r| table.locate_rho(r)).collect();
                let mut out = vec![ElecPoint::default(); rho.len()];
                table
                    .interp_lanes(backend, sel, &rho, &temp, &mut out)
                    .unwrap();
                out
            };
            let (got, want) = (run(&lazy), run(&eager));
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(same_point(g, w), "{backend} {sel:?} lane {i}");
            }
        }
        let lazy = HelmTable::lazy(cfg, Policy::None).unwrap();
        for (i, &(rho_ye, temp)) in points.iter().enumerate() {
            let got = lazy.interp(rho_ye, temp).unwrap();
            assert!(
                same_point(&got, &eager.interp(rho_ye, temp).unwrap()),
                "interp {i}"
            );
        }
    }
}

#[test]
fn dropping_a_half_built_table_stops_within_a_row() {
    // Full-width rows, few of them: each row is a full density sweep.
    let cfg = TableConfig {
        n_temp: 8,
        ..TableConfig::default()
    };
    let t = Instant::now();
    HelmTable::build_on(cfg, Policy::None, 1).unwrap();
    let per_row = t.elapsed().as_secs_f64() / cfg.n_temp as f64;

    let table = HelmTable::lazy(cfg, Policy::None).unwrap();
    table.interp(1e6, 1e8).unwrap();
    let rows = table.rows_built();
    assert!(
        rows.on_demand + rows.background < cfg.n_temp,
        "the table must still be half-built: {rows:?}"
    );
    let t = Instant::now();
    drop(table);
    let dropped = t.elapsed().as_secs_f64();
    // One row, with room for the slowest row of the table and a loaded host.
    assert!(
        dropped < 4.0 * per_row + 0.05,
        "drop took {dropped:.3} s against {per_row:.3} s per row"
    );
}

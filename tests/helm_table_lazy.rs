//! The Helmholtz table computed where it is read.
//!
//! `HelmTable::lazy` solves a temperature row the first time a lookup needs
//! it and lets one background thread solve the rest. These tests hold it to
//! the table `HelmTable::build_on` computes up front: every lookup, from
//! any number of threads while the background thread runs, returns the
//! same bits; a table forced complete saves the same bytes; dropping a
//! half-built table stops the background thread after its current row and
//! writes no cache; and a cache miss writes exactly one complete file.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rflash::eos::table::{ElecPoint, Quantities};
use rflash::eos::{HelmTable, TableConfig};
use rflash::hugepages::Policy;
use rflash::simd::Resolved;

/// A fresh, empty scratch directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rflash-helm-lazy-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The bytes `table.save` writes.
fn saved(table: &HelmTable, path: &Path) -> Vec<u8> {
    table.save(path).unwrap();
    std::fs::read(path).unwrap()
}

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
fn concurrent_lookups_match_the_eager_table_and_complete_to_its_bytes() {
    let cfg = TableConfig::coarse();
    let dir = scratch_dir("concurrent");
    let eager = HelmTable::build_on(cfg, Policy::None, 1).unwrap();
    let want = saved(&eager, &dir.join("eager.dat"));
    for threads in [1, 2, 4] {
        let lazy = HelmTable::lazy(cfg, Policy::None).unwrap();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (lazy, eager) = (&lazy, &eager);
                scope.spawn(move || {
                    let mut rng = Rng(0x5eed_0000 + 97 * threads as u64 + t as u64);
                    for i in 0..200 {
                        let (rho_ye, temp) = point(&cfg, &mut rng);
                        let got = lazy.interp(rho_ye, temp).unwrap();
                        let expect = eager.interp(rho_ye, temp).unwrap();
                        assert!(
                            same_point(&got, &expect),
                            "{threads} threads, thread {t}, lookup {i} at ({rho_ye:e}, {temp:e})"
                        );
                    }
                });
            }
        });
        let got = saved(&lazy, &dir.join(format!("lazy{threads}.dat")));
        assert!(
            got == want,
            "{threads} threads: forced complete, the bytes differ"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
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
fn dropping_a_half_built_table_stops_within_a_row_and_writes_no_cache() {
    // Full-width rows, few of them: each row is a full density sweep.
    let cfg = TableConfig {
        n_temp: 8,
        ..TableConfig::default()
    };
    let dir = scratch_dir("drop");
    let t = Instant::now();
    HelmTable::build_on(cfg, Policy::None, 1).unwrap();
    let per_row = t.elapsed().as_secs_f64() / cfg.n_temp as f64;

    let cache = dir.join("table.dat");
    let table = HelmTable::build_or_load(cfg, Policy::None, &cache).unwrap();
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
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "a half-built table wrote {left:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_cache_miss_writes_exactly_one_complete_file() {
    let cfg = TableConfig::coarse();
    let dir = scratch_dir("miss");
    let cache = dir.join("table.dat");
    let table = HelmTable::build_or_load(cfg, Policy::None, &cache).unwrap();
    assert_eq!(table.rows_built().loaded, 0, "nothing to load yet");
    table.interp(1e6, 1e8).unwrap();
    table.complete().unwrap();
    // Joins the background thread: whichever thread published the last
    // row has finished writing.
    drop(table);
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(
        files,
        [cache.file_name().unwrap()],
        "one file, no temporaries"
    );

    let loaded = HelmTable::build_or_load(cfg, Policy::None, &cache).unwrap();
    assert_eq!(
        loaded.rows_built().loaded,
        cfg.n_temp,
        "the cache hit is a complete table"
    );
    let eager = HelmTable::build_on(cfg, Policy::None, 1).unwrap();
    let mut rng = Rng(31415);
    for _ in 0..200 {
        let (rho_ye, temp) = point(&cfg, &mut rng);
        let got = loaded.interp(rho_ye, temp).unwrap();
        assert!(same_point(&got, &eager.interp(rho_ye, temp).unwrap()));
    }
    assert!(saved(&loaded, &dir.join("again.dat")) == saved(&eager, &dir.join("eager.dat")));
    std::fs::remove_dir_all(&dir).unwrap();
}

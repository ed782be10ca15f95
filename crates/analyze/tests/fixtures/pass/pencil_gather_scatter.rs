//@ path: crates/hydro/src/pencil.rs
// Fixture: a pencil-confined module staying inside the contract — lane
// loops over gathered slices, slab gather/scatter at the edges, no per-cell
// accessors. Longer identifiers containing the forbidden words (base_addr,
// settle, getter-free `at`) must not trip the token matcher.
// Expected: clean.

fn advance_slab(geom: &UnkGeom, slab: &mut [f64], dens: &mut [f64], lo: usize, hi: usize) {
    let n = geom.pencil_len(0);
    geom.gather_slab(slab, [0], 0, 0, 0..n, [&mut *dens]);
    for x in dens[lo * geom.nxb..hi * geom.nxb].iter_mut() {
        *x = (*x).max(1e-30);
    }
    geom.scatter_slab(slab, [0], 0, 0, lo..hi, [&*dens]);
}

fn table_span(t: &Table) -> usize {
    // base_addr contains "addr" as a substring but is its own identifier.
    t.base_addr() + t.bytes()
}

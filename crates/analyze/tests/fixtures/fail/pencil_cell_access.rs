//@ path: crates/hydro/src/pencil.rs
// Fixture: per-cell unk accessors inside a pencil-confined module. The SoA
// engine must move cells through the UnkGeom slab/pencil helpers; a stray
// `get`/`set`/`addr`/`slab_idx` reintroduces the per-cell index arithmetic.
// Expected: pencil_confinement (four sites).

fn leak_per_cell(u: &mut Unk, v: usize, i: usize, j: usize, k: usize, b: usize) -> f64 {
    let x = u.get(v, i, j, k, b);
    u.set(v, i, j, k, b, x * 2.0);
    let base = u.geom().addr(v, i, j, k, b);
    let off = u.geom().slab_idx(v, i, j, k);
    (base + off) as f64
}

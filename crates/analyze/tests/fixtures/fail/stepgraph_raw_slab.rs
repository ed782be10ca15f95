//@ path: crates/core/src/stepgraph.rs
// Fixture: raw slab/slot accessors inside a step-graph task body. Every
// access in a graph task must flow through the claiming accessors
// (read_slab/write_slab) so it lands in
// the race-audit ledger — a raw `.slab()`/`.slab_mut()`/`.get()` is an
// access the declared-vs-actual audit cannot see.
// Expected: graph_confinement (three sites).

fn leak_raw_access(cells: &UnkCells, stage: &Slots, blk: usize) -> f64 {
    // SAFETY: fixture stand-in; the real contract lives in the graph edges.
    let src = unsafe { cells.slab(blk) };
    // SAFETY: as above.
    let dst = unsafe { cells.slab_mut(blk + 1) };
    dst[0] = src[0];
    // SAFETY: as above.
    let st = unsafe { stage.get(blk) };
    st[0]
}

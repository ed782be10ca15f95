//@ path: crates/core/src/stepgraph.rs
// Fixture: step-graph task bodies staying inside the contract — slab
// traffic through the claiming accessors and flux rows through
// `FluxCells::save` only, with locals that happen to be named `slab` (an
// identifier, not a call) and prose mentioning the raw names. Mirrors the
// sweep task and the restrict it is ordered after. Expected: clean.

fn restrict_task(cells: &UnkCells, child: usize, parent: usize) {
    // the old body called cells.slab(child) and cells.slab_mut(parent)
    // SAFETY: child interiors are ordered shared reads, per the edges.
    let src = unsafe { cells.read_slab(child, Region::Interior) };
    // SAFETY: the parent interior is exclusive, per the edges.
    let dst = unsafe { cells.write_slab(parent, Region::Interior, None) };
    dst[0] = src[0];
}

fn sweep_task(cells: &UnkCells, fcells: &FluxCells, blk: usize, face: Face) -> f64 {
    // SAFETY: exclusive interior access with ordered shared guard reads,
    // per the declared resources.
    let slab = unsafe { cells.write_slab(blk, Region::Interior, Some(Region::Guards)) };
    let v = slab[0];
    // SAFETY: exclusive flux-row access via the fluxrow resource.
    unsafe { fcells.save(blk, face, [0, 0], 0, v) };
    v
}

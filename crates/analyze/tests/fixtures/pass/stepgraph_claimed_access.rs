//@ path: crates/core/src/stepgraph.rs
// Fixture: a step-graph task body staying inside the contract — slab and
// slot traffic through the claiming accessors only, with locals that happen
// to be named `slab` (an identifier, not a call) and prose mentioning the
// raw names. Expected: clean.

fn claimed_access(cells: &UnkCells, stage: &Slots, blk: usize) -> f64 {
    // the old body called cells.slab(blk) and stage.get(blk) directly
    // SAFETY: shared interior access per the declared graph edges.
    let slab = unsafe { cells.read_slab(blk, Region::Interior) };
    let v = slab[0];
    // SAFETY: exclusive stage-slot access via the stage-buffer resource.
    let st = unsafe { stage.write_slot(blk) };
    st.push(v);
    // SAFETY: exclusive interior write with ordered shared guard reads.
    let out = unsafe { cells.write_slab(blk, Region::Interior, Some(Region::Guards)) };
    out[0] = v;
    v
}

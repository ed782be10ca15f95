//! E6 companion: one-shot modeled DTLB miss counts for the §I.C access —
//! one variable swept along i over 128 3-d blocks, twice. `flash` replays
//! FLASH's `unk` order through [`UnkGeom::pencil_pattern`]; `soa` is the
//! structure-of-arrays what-if over the same mapping: the same rows at an
//! 8-byte stride. (See `benches/layout_ablation.rs` for the timed version.)
//!
//! [`UnkGeom::pencil_pattern`]: rflash_mesh::unk::UnkGeom::pencil_pattern

use rflash_hugepages::Policy;
use rflash_mesh::unk::UnkGeom;
use rflash_mesh::UnkStorage;
use rflash_tlbsim::{AccessPattern, FrameSizing, Tlb, TlbConfig};

/// Row `(j, k)` of variable 0 in block `blk`: FLASH order, or the SoA
/// what-if (the variable's zones contiguous from the slab's start).
fn row(geom: &UnkGeom, soa: bool, j: usize, k: usize, blk: usize) -> AccessPattern {
    if soa {
        AccessPattern::Strided {
            base: geom.base_addr + 8 * (blk * geom.per_block + geom.cell(0, j, k)),
            stride: 8,
            count: geom.ni,
            elem: 8,
        }
    } else {
        geom.pencil_pattern(0, 0, j, k, blk)
    }
}

fn main() {
    let unk = UnkStorage::new(3, 16, 4, 11, 128, Policy::None);
    let geom = unk.geom();
    for (order, soa) in [("flash", false), ("soa", true)] {
        for (name, sizing) in [
            ("base", FrameSizing::Base),
            ("huge", FrameSizing::huge(2 << 20)),
        ] {
            let mut tlb = Tlb::new(TlbConfig::a64fx_like());
            tlb.map_region(unk.base_addr(), unk.bytes(), sizing);
            for _rep in 0..2 {
                for blk in 0..128 {
                    for k in unk.interior_k() {
                        for j in unk.interior() {
                            row(&geom, soa, j, k, blk).replay(&mut tlb);
                        }
                    }
                }
            }
            println!(
                "{order}/{name}: walks={} accesses={}",
                tlb.stats().walks,
                tlb.stats().accesses
            );
        }
    }
}

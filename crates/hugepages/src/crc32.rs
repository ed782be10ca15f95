//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
//! guarding checkpoint headers and slabs and fleet wire frames, and the
//! golden state digest.
//!
//! Hand-rolled slice-by-8 implementation so the workspace stays free of
//! new dependencies; the variant matches zlib's `crc32()` and Python's
//! `zlib.crc32`, making checkpoint files verifiable with stock tooling.
//! It lives in this crate, which `core` already sits on, next to the I/O
//! fault sites the checksums guard.

/// `TABLES[0]` is the classic one-byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which lets [`Crc32::update`] fold
/// eight input bytes per step with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Streaming CRC-32 state. `Crc32::new()` → [`update`](Crc32::update) over
/// chunks → [`finish`](Crc32::finish).
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Fold `data` into the checksum, eight bytes per step (slice-by-8);
    /// the sub-8-byte tail goes through the one-byte table.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table loop `update` replaced, kept as the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn ieee_check_value() {
        // The canonical CRC-32/IEEE check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_and_zero_inputs() {
        assert_eq!(crc32(b""), 0);
        // zlib.crc32(b"\x00" * 32) == 0x190A55AD
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 4096];
        let clean = crc32(&data);
        data[2048] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }

    proptest! {
        /// Slice-by-8 ≡ the bytewise loop: every length 0..4096, every
        /// start alignment within a word, any split into `update` calls.
        #[test]
        fn slice_by_8_matches_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..4104),
            start in 0usize..8,
            cuts in proptest::collection::vec(0usize..4096, 0..6),
        ) {
            let data = &data[start.min(data.len())..];
            let want = crc32_bytewise(data);
            prop_assert_eq!(crc32(data), want);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut at = 0;
            for cut in cuts {
                c.update(&data[at..cut]);
                at = cut;
            }
            c.update(&data[at..]);
            prop_assert_eq!(c.finish(), want);
        }
    }
}

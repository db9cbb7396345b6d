//! CRC-32 (IEEE 802.3 polynomial) implemented in-repo, slice-by-8.
//!
//! The storage engine checksums every page it writes ([`crate::page::Page::seal`]),
//! every page a cold read faults in ([`crate::page::Page::verify`]) and every
//! WAL record, so this function sits on both paths the benchmark times:
//! commit and buffer miss. The classic table-driven form consumes one byte
//! per dependent table lookup (≈ 20 µs per 8 KiB page — more than the
//! `pread` that fetched it). *Slicing-by-8* (Kounavis & Berry, 2008) folds
//! eight input bytes per step through eight 256-entry tables whose lookups
//! are independent of each other, which is 4–6× faster on the same
//! polynomial and produces bit-identical values, so nothing on disk changes.
//!
//! `TABLES[0]` is the ordinary byte-at-a-time table; `TABLES[k][b]` is the
//! CRC state after byte `b` followed by `k` zero bytes. Safe Rust, 8 KiB of
//! tables built at compile time, no dependency.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry lookup tables, built at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
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

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed successive chunks, starting from
/// `0xFFFF_FFFF`, and XOR with `0xFFFF_FFFF` at the end.
pub fn update(mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Incremental CRC-32 hasher for multi-part records (e.g. WAL records whose
/// header and payload are written separately).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh computation.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed a chunk.
    pub fn write(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finish and return the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time form the sliced `update` replaced, kept as the
    /// reference the sliced one is checked against.
    fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // One on each side of the 8-byte step, from an independent
        // implementation (zlib).
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abcdefgh"), 0xAEEF_2A50);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn tails_of_one_to_fifteen_bytes_match_the_reference() {
        let data: Vec<u8> = (0u8..15).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        for len in 0..=15 {
            assert_eq!(
                update(0xFFFF_FFFF, &data[..len]),
                update_bytewise(0xFFFF_FFFF, &data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #[test]
        fn sliced_update_equals_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            start in 0usize..9,
            split in 0usize..600,
            state in any::<u32>(),
        ) {
            // `start` shifts the slice's alignment, `split` feeds it in
            // two pieces.
            let data = &data[start.min(data.len())..];
            let split = split.min(data.len());
            let whole = update(state, data);
            prop_assert_eq!(whole, update_bytewise(state, data));
            prop_assert_eq!(update(update(state, &data[..split]), &data[split..]), whole);
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"hello world, this is a longer buffer for chunked hashing";
        let mut h = Crc32::new();
        h.write(&data[..10]);
        h.write(&data[10..30]);
        h.write(&data[30..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"aaaaaaaa");
        let mut flipped = *b"aaaaaaaa";
        flipped[3] ^= 0x40;
        assert_ne!(a, crc32(&flipped));
    }

    #[test]
    fn empty_then_data_equals_data() {
        let mut h = Crc32::new();
        h.write(b"");
        h.write(b"xyz");
        assert_eq!(h.finish(), crc32(b"xyz"));
    }
}

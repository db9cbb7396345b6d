//! CRC-32 (IEEE 802.3 polynomial) implemented in-repo, braided.
//!
//! The storage engine checksums every page it writes ([`crate::page::Page::seal`]),
//! every page a cold read faults in ([`crate::page::Page::verify`]) and every
//! WAL record, so this function sits on both paths the benchmark times:
//! commit and buffer miss.
//!
//! *Slicing-by-8* (Kounavis & Berry, 2008) folds eight input bytes per step
//! through eight 256-entry tables whose lookups are independent of each
//! other, but each step still waits for the state the step before it
//! produced: one chain of dependent loads, about 1.3 GB/s, or 6 µs per
//! 8 KiB page — twice the `pread` that fetched it. *Braiding* (the scheme of
//! zlib 1.2.12's `crc32.c`) runs `BRAIDS` such chains side by side: the
//! input is cut into blocks of `BRAIDS` 8-byte words, word *i* of every
//! block feeds braid *i*, and each braid keeps its own state, which one
//! table lookup per byte advances past its own word *and* the other braids'
//! words of the block (they are zeros as far as that braid is concerned;
//! CRC is linear, so the braids' states XOR into the CRC of the whole).
//! The last block folds the braids' states into one, serially, through the
//! slice-by-8 step. The values are the same bit for bit, so nothing on disk
//! changes. On a quiet two-vCPU Intel Xeon VM (rustc 1.95, release build,
//! a hot loop) a page's 8 188 checksummed bytes take about 1.9 µs
//! (4.3 GB/s) with four braids against 6.0 µs (1.36 GB/s) slice-by-8; two
//! braids take 3.1 µs, three 2.3 µs, and five to eight 1.95–2.0 µs. Four
//! was also the fastest with the other vCPU busy (4.2–4.3 µs against
//! 7.0–7.3 µs), so four it is.
//!
//! `TABLES[0]` is the ordinary byte-at-a-time table; `TABLES[k][b]` is the
//! CRC state after byte `b` followed by `k` zero bytes, and `BRAID[k][b]`
//! the state after byte `b` at position `k` of a word followed by the rest
//! of the block. Safe Rust, 16 KiB of tables built at compile time, no
//! dependency.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry lookup tables, built at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

/// Independent CRC chains the input is braided into.
const BRAIDS: usize = 4;

/// Bytes of one block: one 8-byte word per braid.
const BLOCK: usize = 8 * BRAIDS;

/// `BRAID[k][b]`: byte `b` at position `k` of a braid's word, advanced past
/// the rest of the block.
static BRAID: [[u32; 256]; 8] = build_braid();

/// The state after `n` zero bytes, starting from `crc`.
const fn zeros(mut crc: u32, n: usize) -> u32 {
    let mut i = 0;
    while i < n {
        crc = (crc >> 8) ^ TABLES[0][(crc & 0xFF) as usize];
        i += 1;
    }
    crc
}

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

const fn build_braid() -> [[u32; 256]; 8] {
    let mut braid = [[0u32; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            braid[k][b] = zeros(TABLES[0][b], BLOCK - 1 - k);
            b += 1;
        }
        k += 1;
    }
    braid
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Advance the (pre-inverted) CRC state `state` past `data`.
fn update(state: u32, data: &[u8]) -> u32 {
    if data.len() < 2 * BLOCK {
        return sliced(state, data);
    }
    let (body, tail) = data.split_at(data.len() / BLOCK * BLOCK);
    let (body, last) = body.split_at(body.len() - BLOCK);
    let mut braids = [0u32; BRAIDS];
    braids[0] = state;
    for block in body.chunks_exact(BLOCK) {
        for (crc, w) in braids.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ u64::from(*crc);
            *crc = BRAID[0][w as u8 as usize]
                ^ BRAID[1][(w >> 8) as u8 as usize]
                ^ BRAID[2][(w >> 16) as u8 as usize]
                ^ BRAID[3][(w >> 24) as u8 as usize]
                ^ BRAID[4][(w >> 32) as u8 as usize]
                ^ BRAID[5][(w >> 40) as u8 as usize]
                ^ BRAID[6][(w >> 48) as u8 as usize]
                ^ BRAID[7][(w >> 56) as usize];
        }
    }
    let mut state = 0;
    for (crc, w) in braids.iter().zip(last.chunks_exact(8)) {
        state = sliced(state ^ crc, w);
    }
    sliced(state, tail)
}

/// The slice-by-8 step: eight bytes per table round, then the tail a byte
/// at a time.
fn sliced(mut state: u32, data: &[u8]) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time form, kept as the reference `update` is checked
    /// against.
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

    /// Every length up to three blocks and a tail, and a page's checksummed
    /// span, at every alignment: the slice-by-8 path, the first braided
    /// lengths and every tail length on each side of the switch.
    #[test]
    fn every_length_to_three_blocks_and_a_page_match_the_reference() {
        let data: Vec<u8> = (0u32..8200)
            .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8)
            .collect();
        let lengths = (0..=3 * BLOCK + 15).chain([8188]);
        for len in lengths {
            for off in 0..8 {
                let span = &data[off..off + len];
                assert_eq!(
                    update(0x1234_5678, span),
                    update_bytewise(0x1234_5678, span),
                    "len {len} offset {off}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn sliced_update_equals_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..9000),
            start in 0usize..9,
            split in 0usize..9000,
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
    fn sensitive_to_single_bit() {
        let a = crc32(b"aaaaaaaa");
        let mut flipped = *b"aaaaaaaa";
        flipped[3] ^= 0x40;
        assert_ne!(a, crc32(&flipped));
    }
}

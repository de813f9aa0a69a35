//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! The frame checksum for WAL records and snapshot payloads. Table
//! driven, computed at compile time — no external crates, matching the
//! workspace's from-scratch crypto policy.
//!
//! Slicing-by-16: `TABLES[k][b]` is the CRC state after byte `b` and
//! then `k` zero bytes, so sixteen input bytes fold into the state with
//! sixteen independent lookups instead of a sixteen-deep dependency
//! chain. Polynomial, init and final xor are the bytewise definition's,
//! so every checksum is bit-for-bit what the one-table loop produced.

/// Bytes folded per step of the main loop.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic 256-entry table for the reflected IEEE
/// polynomial; `TABLES[k]` advances it over `k` further zero bytes.
const TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
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
    while k < SLICES {
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

/// Folds one byte into the running (pre-xor) state.
#[inline]
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// Folds word `lane` (0..4) of a block: its byte `j` has
/// `SLICES - 1 - (4 * lane + j)` block bytes after it, hence that table.
#[inline]
fn fold(word: u32, lane: usize) -> u32 {
    let hi = SLICES - 4 * lane;
    TABLES[hi - 1][(word & 0xFF) as usize]
        ^ TABLES[hi - 2][((word >> 8) & 0xFF) as usize]
        ^ TABLES[hi - 3][((word >> 16) & 0xFF) as usize]
        ^ TABLES[hi - 4][(word >> 24) as usize]
}

/// CRC-32 of `data` (init all-ones, final xor all-ones — the zlib/PNG
/// convention).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(SLICES);
    for block in &mut blocks {
        let word = |lane: usize| {
            let at = 4 * lane;
            u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
        };
        crc = fold(word(0) ^ crc, 0) ^ fold(word(1), 1) ^ fold(word(2), 2) ^ fold(word(3), 3);
    }
    for &byte in blocks.remainder() {
        crc = step(crc, byte);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table, byte-at-a-time definition the sliced loop must
    /// reproduce.
    fn bytewise(data: &[u8]) -> u32 {
        data.iter().fold(0xFFFF_FFFF, |crc, &b| step(crc, b)) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Longer than one block, so the sliced loop and the tail both run.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        // A non-repeating pattern: a lane or table mix-up cannot cancel.
        let data: Vec<u8> = (0..400u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"the committed prefix invariant".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}.{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}

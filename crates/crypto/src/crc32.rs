//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! The frame checksum for `hpop-durability`'s WAL records and snapshot
//! payloads. It lives beside SHA-256 because it has the same shape: a
//! portable kernel every target runs, and an accelerated one the CPU
//! alone selects, held to the portable one by the tests.
//!
//! - **portable** — slicing-by-16 over `const fn` tables: `TABLES[k][b]`
//!   is the CRC state after byte `b` and then `k` zero bytes, so sixteen
//!   input bytes fold into the state with sixteen independent lookups
//!   instead of a sixteen-deep dependency chain.
//! - **pclmul** — carry-less multiply folding on x86-64 (`clmul`), for
//!   inputs of 64 bytes or more; its sub-16-byte tail goes through the
//!   portable kernel.
//!
//! Polynomial, init and final xor are the bytewise definition's, so
//! every checksum is bit-for-bit what the one-table loop produced.

/// Bytes folded per step of the portable main loop.
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
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// The kernel this CPU gets for inputs of 64 bytes or more: `"pclmul"`
/// where the x86-64 carry-less multiply was detected, `"portable"`
/// everywhere else. Shorter inputs always take the portable kernel.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul::detected() {
        return "pclmul";
    }
    "portable"
}

/// Folds `data` into the running (pre-xor) state with the fastest
/// kernel this CPU has. Like `Sha256::compress_blocks`, the one place
/// the module steps outside safe Rust: calling a `#[target_feature]`
/// function from code compiled without those features.
#[allow(unsafe_code)]
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::detected() {
        // SAFETY: `detected()` on the line above has just seen, on the
        // CPU running this, every feature `clmul::update` is compiled
        // with. Executing it on a CPU without them is all that its
        // otherwise safe signature leaves to a caller.
        return unsafe { clmul::update(crc, data) };
    }
    sliced(crc, data)
}

/// The portable kernel: the only one off x86-64, on a CPU without
/// carry-less multiply and for short inputs and tails, and the
/// reference the tests hold the accelerated kernel to.
fn sliced(mut crc: u32, data: &[u8]) -> u32 {
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
    crc
}

/// The accelerated kernel: CRC-32 by carry-less multiplication (Intel,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"). Four
/// 128-bit lanes fold 64 bytes per step, the lanes fold into one, whole
/// 16-byte blocks fold into that, and 128 → 64 → 32 bits finish with a
/// Barrett reduction.
///
/// Only value intrinsics are used — registers are built from
/// `from_le_bytes` integers and taken apart with `_mm_extract_epi32`, no
/// pointer is formed — so with the features enabled on the function the
/// body is ordinary safe Rust. What is left to check by hand is that a
/// caller has seen those features on the running CPU: `detected` is that
/// check, and `crc32::update` the one caller.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input worth the set-up: one load per lane.
    pub(super) const MIN_LEN: usize = 64;

    // Each fold constant is x^n mod P (P = 0x104C11DB7) bit-reflected
    // and shifted left one, for the n named; P' and μ = ⌊x^64 / P⌋ are
    // bit-reflected over 33 bits.
    /// Folding one lane across 512 bits: n = 512 + 32 and 512 − 32.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Folding across 128 bits: n = 128 + 32 and 128 − 32.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// The 64 → 32-bit fold: n = 64.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: the polynomial P' and μ.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU has every feature [`update`] enables. `std`
    /// caches the `cpuid` answer; a call is a load and a mask.
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Folds `data` (at least [`MIN_LEN`] bytes) into the running
    /// (pre-xor) state and returns the new state.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_LEN);
        let load = |block: &[u8; 16]| {
            let half =
                |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("8-byte half"));
            _mm_set_epi64x(half(8), half(0))
        };
        // `x` times the low and high constant, both products folded into
        // `next`: `x` moved forward by the distance the constants encode.
        let fold = |x: __m128i, next: __m128i, k: __m128i| {
            _mm_xor_si128(
                next,
                _mm_xor_si128(
                    _mm_clmulepi64_si128::<0x00>(x, k),
                    _mm_clmulepi64_si128::<0x11>(x, k),
                ),
            )
        };
        let low32 = _mm_set_epi32(0, 0, 0, -1);

        let (blocks, tail) = data.as_chunks::<16>();
        let (head, rest) = blocks.split_at(4);
        let mut lanes = [
            load(&head[0]),
            load(&head[1]),
            load(&head[2]),
            load(&head[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut groups = rest.chunks_exact(4);
        for group in &mut groups {
            for (lane, block) in lanes.iter_mut().zip(group) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [l0, l1, l2, l3] = lanes;
        let mut x = fold(fold(fold(l0, l1, k3k4), l2, k3k4), l3, k3k4);
        for block in groups.remainder() {
            x = fold(x, load(block), k3k4);
        }

        // 128 → 64 bits: the low half times x^(128-32) into the high half,
        // then the low 32 bits times x^64 into the remaining 64.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett, bit-reflected: T1 = (R mod x^32)·μ, T2 = (T1 mod
        // x^32)·P, and the remainder is the upper word of R ^ T2.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::sliced(crc, tail)
    }
}

/// Every differential test calls this first: where the CPU has no
/// carry-less multiply `crc32` *is* the portable kernel and the
/// comparison proves nothing, which the run must say (once). Written to
/// the process's stderr directly because the harness swallows
/// `eprintln!` from a passing test.
#[cfg(test)]
pub(crate) fn note_if_not_accelerated() {
    use std::io::Write;
    static ONCE: std::sync::Once = std::sync::Once::new();
    if kernel() == "portable" {
        ONCE.call_once(|| {
            let _ = writeln!(
                std::io::stderr(),
                "\nnote: no carry-less multiply on this CPU: the crc32 differential tests \
                 compared the portable kernel with itself; the accelerated kernel did not run"
            );
        });
    }
}

/// CRC-32 by the portable kernel alone, with no dispatch.
#[cfg(test)]
pub(crate) fn portable_crc32(data: &[u8]) -> u32 {
    sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table, byte-at-a-time definition both kernels must
    /// reproduce.
    fn bytewise(data: &[u8]) -> u32 {
        data.iter().fold(0xFFFF_FFFF, |crc, &b| step(crc, b)) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        note_if_not_accelerated();
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Longer than one block, so the sliced loop and the tail both run.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Long enough for the accelerated kernel (zlib's values).
        let ramp: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&ramp), 0x2905_8C73, "{}", kernel());
        assert_eq!(crc32(&[0; 1 << 16]), 0xD797_8EEB, "{}", kernel());
    }

    /// A non-repeating pattern: a lane or table mix-up cannot cancel.
    /// Long enough for every length through 1,100 at every start within
    /// a 16-byte lane: the portable loop, the tail, and the accelerated
    /// kernel's four-lane loop, lane merge and single-block loop.
    fn pattern() -> Vec<u8> {
        (0..1_116u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        let data = pattern();
        for start in 0..16 {
            for len in 0..=1_100 {
                let slice = &data[start..start + len];
                assert_eq!(
                    portable_crc32(slice),
                    bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn accelerated_equals_sliced_and_bytewise_at_every_length_and_alignment() {
        note_if_not_accelerated();
        let data = pattern();
        for start in 0..16 {
            for len in 0..=1_100 {
                let slice = &data[start..start + len];
                let got = crc32(slice);
                assert_eq!(
                    got,
                    portable_crc32(slice),
                    "{}, start {start} len {len}",
                    kernel()
                );
                assert_eq!(
                    got,
                    bytewise(slice),
                    "{}, start {start} len {len}",
                    kernel()
                );
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        // Past 64 bytes, so the accelerated kernel checks it where there
        // is one.
        let mut data = b"the committed prefix invariant".repeat(3);
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

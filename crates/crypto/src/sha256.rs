//! SHA-256 (FIPS 180-4).
//!
//! NoCDN wrapper pages carry a SHA-256 digest of every page object so the
//! loader can verify content fetched from untrusted peers (§IV-B,
//! "Content Integrity").

use std::fmt;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lower-case hexadecimal rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        self.push_hex_prefix(&mut s, 32);
        s
    }

    /// Appends the lower-case hex of the digest's first `bytes` bytes
    /// (at most 32) to `out`: `2 * bytes` characters.
    pub fn push_hex_prefix(&self, out: &mut String, bytes: usize) {
        const NIBBLES: &[u8; 16] = b"0123456789abcdef";
        out.extend(self.0[..bytes].iter().flat_map(|&b| {
            [
                NIBBLES[usize::from(b >> 4)] as char,
                NIBBLES[usize::from(b & 0xF)] as char,
            ]
        }));
    }

    /// Parses a 64-character hex string.
    pub fn from_hex(hex: &str) -> Option<Digest> {
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = (hi * 16 + lo) as u8;
        }
        Some(Digest(out))
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Timing-safe equality check.
    pub fn ct_eq(&self, other: &Digest) -> bool {
        crate::constant_time_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use hpop_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("bytes_hashed", &self.total_len)
            .finish()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// The compression kernel this CPU gets: `"sha-ni"` where the x86-64
    /// SHA extensions were detected, `"portable"` everywhere else.
    pub fn kernel() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::detected() {
            return "sha-ni";
        }
        "portable"
    }

    /// Feeds more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress_blocks(&block);
                self.buf_len = 0;
            }
        }
        // Fast path: the buffer is empty here, so every whole block of
        // the call goes to the kernel in place and in one piece — no
        // copy through `self.buf`, and the state stays in registers
        // across the lot.
        let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            self.compress_blocks(blocks);
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length. `buf_len` is
        // under 64 between calls, so the marker always fits; the length
        // gets a block of its own when fewer than 8 bytes are left.
        let mut end = self.buf_len;
        self.buf[end] = 0x80;
        end += 1;
        if end > 56 {
            self.buf[end..].fill(0);
            let block = self.buf;
            self.compress_blocks(&block);
            end = 0;
        }
        self.buf[end..56].fill(0);
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress_blocks(&block);
        self.state_digest()
    }

    /// The state words, big-endian: the digest once padding is in.
    fn state_digest(&self) -> Digest {
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }

    /// Folds `blocks` (a whole number of 64-byte blocks) into the state
    /// with the fastest kernel this CPU has. The one place the crate
    /// steps outside safe Rust: calling a `#[target_feature]` function
    /// from code compiled without those features.
    #[allow(unsafe_code)]
    fn compress_blocks(&mut self, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        #[cfg(target_arch = "x86_64")]
        if sha_ni::detected() {
            // SAFETY: `detected()` on the line above has just seen, on the
            // CPU running this, every feature `sha_ni::compress_blocks`
            // is compiled with. Executing it on a CPU without them is
            // all that its otherwise safe signature leaves to a caller.
            self.state = unsafe { sha_ni::compress_blocks(self.state, blocks) };
            return;
        }
        for block in blocks.chunks_exact(64) {
            self.compress(block);
        }
    }

    /// The portable kernel: the only one off x86-64 or on a CPU without
    /// the SHA extensions, and the reference the tests hold the
    /// accelerated kernel to.
    fn compress(&mut self, block: &[u8]) {
        debug_assert_eq!(block.len(), 64);
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// The accelerated kernel: SHA-256 on the x86-64 SHA extensions, two
/// rounds per `sha256rnds2` and the message schedule in `sha256msg1` /
/// `sha256msg2`.
///
/// Only value intrinsics are used — registers are built from and taken
/// apart into integers, no pointer is formed — so with the features
/// enabled on the function the body is ordinary safe Rust. What is left
/// to check by hand is that a caller has seen those features on the
/// running CPU: `detected` is that check, and `Sha256::compress_blocks`
/// the one caller.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    /// Whether this CPU has every feature [`compress_blocks`] enables.
    /// `std` caches the `cpuid` answer; a call is a load and a mask.
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Folds `blocks` (a whole number of 64-byte blocks) into `state`
    /// and returns the new state.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: [u32; 8], blocks: &[u8]) -> [u32; 8] {
        let lane = |word: u32| word as i32;
        // `sha256rnds2` wants the state as {A,B,E,F} and {C,D,G,H},
        // first-named word in the highest lane.
        let [a, b, c, d, e, f, g, h] = state.map(lane);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Byte order within each 32-bit lane: message words are
        // big-endian.
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let half =
                |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("8-byte half"));
            let quad =
                |i: usize| _mm_shuffle_epi8(_mm_set_epi64x(half(16 * i + 8), half(16 * i)), swap);
            // The four newest quads of the message schedule, oldest
            // first; quad `i` is words `4i..4i + 4`, lowest lane first.
            let mut w = [quad(0), quad(1), quad(2), quad(3)];
            for i in 0..16 {
                if i >= 4 {
                    // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]:
                    // `msg1` adds the s0 term to quad i-4, the `alignr`
                    // picks W[t-7] out of quads i-2 and i-1, `msg2`
                    // adds the s1 term from quad i-1.
                    let [q4, q3, q2, q1] = w;
                    let partial =
                        _mm_add_epi32(_mm_sha256msg1_epu32(q4, q3), _mm_alignr_epi8::<4>(q1, q2));
                    w = [q3, q2, q1, _mm_sha256msg2_epu32(partial, q1)];
                }
                let k = _mm_set_epi32(
                    lane(K[4 * i + 3]),
                    lane(K[4 * i + 2]),
                    lane(K[4 * i + 1]),
                    lane(K[4 * i]),
                );
                // Quad `i` is still in its own slot while the loaded four
                // are consumed, and the newest one after.
                let wk = _mm_add_epi32(w[i.min(3)], k);
                // Two rounds from the low half of W + K, two from the
                // high half; each call turns {C,D,G,H} into the next
                // {A,B,E,F}, so the registers swap roles.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|word| word as u32)
    }
}

/// SHA-256 by the portable kernel alone, padded the long way: shares
/// neither `update`'s buffering, `finalize`'s padding nor the dispatch
/// with the hasher it is compared against.
#[cfg(test)]
pub(crate) fn portable_digest(data: &[u8]) -> Digest {
    let mut padded = data.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut h = Sha256::new();
    for block in padded.chunks_exact(64) {
        h.compress(block);
    }
    h.state_digest()
}

/// Every differential test calls this first: where the CPU has no SHA
/// extensions `Sha256` *is* the portable kernel and the comparison
/// proves nothing, which the run must say (once). Written to the
/// process's stderr directly because the harness swallows `eprintln!`
/// from a passing test.
#[cfg(test)]
pub(crate) fn note_if_not_accelerated() {
    use std::io::Write;
    static ONCE: std::sync::Once = std::sync::Once::new();
    if Sha256::kernel() == "portable" {
        ONCE.call_once(|| {
            let _ = writeln!(
                std::io::stderr(),
                "\nnote: no SHA extensions on this CPU: the sha256 differential tests \
                 compared the portable kernel with itself; the accelerated kernel did not run"
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A published vector, asserted against each kernel by name:
    /// `Sha256` runs the accelerated one wherever there is one.
    fn assert_vector(data: &[u8], hex: &str) {
        assert_eq!(Sha256::digest(data).to_hex(), hex, "{}", Sha256::kernel());
        assert_eq!(portable_digest(data).to_hex(), hex, "portable");
    }

    // FIPS 180-4 / NIST CAVP vectors.
    #[test]
    fn empty_string() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        note_if_not_accelerated();
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// Seeded noise (xorshift64): no period a lane or byte-order mix-up
    /// could hide in.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn accelerated_equals_portable_at_every_length_and_alignment() {
        note_if_not_accelerated();
        // Every length through four blocks and every padding case, at
        // every start within a 16-byte lane.
        let data = noise(316, 0x9e37_79b9_7f4a_7c15);
        for start in 0..16 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                assert_eq!(
                    Sha256::digest(slice),
                    portable_digest(slice),
                    "start {start} len {len}"
                );
            }
        }
        // An object-sized input: 16,384 blocks through one kernel call,
        // then the same bytes in uneven pieces through the buffer.
        let data = noise(1 << 20, 11);
        let want = portable_digest(&data);
        assert_eq!(Sha256::digest(&data), want);
        let mut h = Sha256::new();
        let mut rest = &data[..];
        let mut step = 1;
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(step.min(rest.len()));
            h.update(piece);
            rest = tail;
            step = step * 3 % 4099 + 1;
        }
        assert_eq!(h.finalize(), want);
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..200u8).collect();
        let want = Sha256::digest(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 199, 200] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn hex_roundtrip() {
        let d = Sha256::digest(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
    }

    #[test]
    fn ct_eq_detects_difference() {
        let a = Sha256::digest(b"a");
        let b = Sha256::digest(b"b");
        assert!(a.ct_eq(&a));
        assert!(!a.ct_eq(&b));
    }
}

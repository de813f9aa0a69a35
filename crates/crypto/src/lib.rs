//! # hpop-crypto — cryptographic primitives for HPoP services
//!
//! NoCDN (§IV-B) needs content hashes and HMAC-signed usage records; the
//! data attic (§IV-A) needs encryption-at-rest for peer backup. The
//! sanctioned offline dependency set contains no crypto crate, so the
//! primitives are implemented here from their specifications:
//!
//! - [`sha256`] — SHA-256 (FIPS 180-4), with incremental hashing.
//! - [`crc32`](mod@crc32) — CRC-32 (IEEE 802.3), the checksum of every
//!   WAL frame and snapshot `hpop-durability` writes.
//! - [`hmac`] — HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//! - [`chacha20`] — the ChaCha20 stream cipher (RFC 8439).
//! - [`nonce`] — a replay-protection registry for signed usage records.
//! - [`puzzle`] — the CAPnet-style cache accountability puzzle: a
//!   data-dependent proof of serving that bounds what fabricated usage
//!   records can earn per unit of attacker work.
//! - [`constant_time_eq`] — timing-safe comparison for MAC verification.
//!
//! Every primitive is validated against official test vectors in its
//! module tests. They are *not* hardened against side channels beyond
//! constant-time comparison and are intended for the simulation/research
//! context of this crate.
//!
//! SHA-256 is what NoCDN spends its per-served-byte budget on, and
//! CRC-32 what every journaled byte passes through, so each has two
//! kernels — a portable one and, where the CPU has the x86-64 SHA
//! extensions or carry-less multiply respectively, an accelerated one —
//! chosen at run time by the hardware alone; [`Sha256::kernel`] and
//! [`crc32::kernel`] name the one in use. Both kernels of a pair produce
//! the same bytes and the tests hold them to each other.
//!
//! **`unsafe_code` policy.** The crate is `deny(unsafe_code)` with
//! exactly two `#[allow]`s: the dispatch in `sha256` and the one in
//! `crc32`, each of whose single block calls its accelerated kernel
//! directly under the feature detection that makes the call sound. The
//! kernels themselves are safe `#[target_feature]` functions over value
//! intrinsics — no pointers, no transmutes. CI counts the blocks; a
//! third one fails the build.
//!
//! ```
//! use hpop_crypto::{sha256, hmac};
//!
//! let digest = sha256::Sha256::digest(b"hello world");
//! assert_eq!(digest.to_hex().len(), 64);
//!
//! let tag = hmac::hmac_sha256(b"secret key", b"usage record");
//! assert!(hmac::verify_hmac_sha256(b"secret key", b"usage record", &tag));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod proptests;

pub mod chacha20;
pub mod crc32;
pub mod hmac;
pub mod nonce;
pub mod puzzle;
pub mod sha256;

pub use chacha20::ChaCha20;
pub use crc32::crc32;
pub use hmac::{hmac_sha256, verify_hmac_sha256, HmacTag};
pub use nonce::{Nonce, NonceRegistry};
pub use puzzle::{PuzzleChallenge, PuzzleParams, PuzzleProof, PuzzleWork};
pub use sha256::{Digest, Sha256};

/// Compares two byte slices in time independent of their contents
/// (assuming equal lengths); unequal lengths return `false` immediately,
/// which leaks only the length — public for MACs and digests.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_time_eq_basic() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"abcd"));
        assert!(constant_time_eq(b"", b""));
    }
}

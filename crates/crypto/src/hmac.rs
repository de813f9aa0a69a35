//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! NoCDN usage records are "secured via a cryptographic signature using
//! the secret key furnished by the content provider" (§IV-B). That
//! signature is HMAC-SHA-256 here: the provider issues a short-term
//! secret per peer; the loader signs usage records with it.

use crate::sha256::Sha256;

/// A 256-bit HMAC tag.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HmacTag(pub [u8; 32]);

impl HmacTag {
    /// The raw tag bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

const BLOCK: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte block are hashed first, per RFC 2104.
///
/// ```
/// use hpop_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tag.as_bytes()[..4],
///     [0xf7, 0xbc, 0x83, 0xf4],
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> HmacTag {
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..32].copy_from_slice(Sha256::digest(key).as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(inner_digest.as_bytes());
    HmacTag(*outer.finalize().as_bytes())
}

/// Verifies a tag in constant time.
pub fn verify_hmac_sha256(key: &[u8], message: &[u8], tag: &HmacTag) -> bool {
    let expect = hmac_sha256(key, message);
    crate::constant_time_eq(&expect.0, &tag.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(tag: &HmacTag) -> String {
        tag.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test cases for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_binary_data() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify_hmac_sha256(b"k", b"m", &tag));
        assert!(!verify_hmac_sha256(b"k", b"m2", &tag));
        assert!(!verify_hmac_sha256(b"k2", b"m", &tag));
        let mut forged = tag;
        forged.0[31] ^= 1;
        assert!(!verify_hmac_sha256(b"k", b"m", &forged));
    }

    /// Beside the RFC vectors: a long key (hashed first) over a
    /// multi-block message. Hex captured from the scalar kernel at
    /// commit 2b35946.
    #[test]
    fn tag_bytes_are_frozen() {
        let key: Vec<u8> = (0..100u8).collect();
        let msg: Vec<u8> = (0..1_000u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(
            hex(&hmac_sha256(&key, &msg)),
            "92995d1870727e0d7a25da418de88f3c6d8ad82f52b6d48678c66cd0f5ee034e"
        );
    }
}

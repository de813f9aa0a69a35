//! Property-based tests of the cryptographic primitives.

use crate::chacha20::ChaCha20;
use crate::crc32;
use crate::hmac::{hmac_sha256, verify_hmac_sha256};
use crate::puzzle::{self, PuzzleChallenge, PuzzleParams, PuzzleProof};
use crate::sha256::{note_if_not_accelerated, portable_digest, Digest, Sha256};
use proptest::prelude::*;

proptest! {
    /// Incremental hashing equals one-shot for any split of any input,
    /// and both equal the portable kernel's digest whichever kernel
    /// `Sha256` dispatched to.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        splits in proptest::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        note_if_not_accelerated();
        let want = Sha256::digest(&data);
        let mut points: Vec<usize> = splits.iter().map(|i| i.index(data.len() + 1)).collect();
        points.sort_unstable();
        let mut h = Sha256::new();
        let mut at = 0;
        for p in points {
            h.update(&data[at..p]);
            at = p;
        }
        h.update(&data[at..]);
        prop_assert_eq!(h.finalize(), want);
        prop_assert_eq!(want, portable_digest(&data));
    }

    /// CRC-32 of any buffer up to 64 KiB, at any start within a 16-byte
    /// lane, equals the portable kernel's whichever kernel `crc32`
    /// dispatched to.
    #[test]
    fn crc32_equals_portable(
        data in proptest::collection::vec(any::<u8>(), 0..=65_536),
        start in 0usize..16,
    ) {
        crc32::note_if_not_accelerated();
        let slice = &data[start.min(data.len())..];
        prop_assert_eq!(crc32::crc32(slice), crc32::portable_crc32(slice));
    }

    /// Hex rendering round-trips.
    #[test]
    fn digest_hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..100)) {
        let d = Sha256::digest(&data);
        prop_assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    /// ChaCha20 decryption inverts encryption for any key/nonce/input.
    #[test]
    fn chacha20_roundtrip(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::collection::vec(any::<u8>(), 12),
        data in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let nonce: [u8; 12] = nonce.try_into().expect("12 bytes");
        let ct = ChaCha20::encrypt(&key, &nonce, &data);
        prop_assert_eq!(ChaCha20::decrypt(&key, &nonce, &ct), data);
    }

    /// HMAC verifies with the right key and rejects any single-bit key
    /// or message flip.
    #[test]
    fn hmac_rejects_bit_flips(
        key in proptest::collection::vec(any::<u8>(), 1..80),
        msg in proptest::collection::vec(any::<u8>(), 1..200),
        flip_key in any::<bool>(),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let tag = hmac_sha256(&key, &msg);
        prop_assert!(verify_hmac_sha256(&key, &msg, &tag));
        let (mut k2, mut m2) = (key.clone(), msg.clone());
        if flip_key {
            let i = byte.index(k2.len());
            k2[i] ^= 1 << bit;
        } else {
            let i = byte.index(m2.len());
            m2[i] ^= 1 << bit;
        }
        prop_assert!(!verify_hmac_sha256(&k2, &m2, &tag));
    }

    /// Accountability puzzle **completeness**: an honest solve over the
    /// authentic bytes verifies for every data size, challenge, and
    /// parameterization.
    #[test]
    fn puzzle_honest_solves_always_verify(
        challenge in proptest::array::uniform32(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
        block_shift in 6u32..13,
        checkpoint_rounds in 1u32..10,
        verify_segments in 1u32..6,
    ) {
        let params = PuzzleParams {
            block_bytes: 1usize << block_shift,
            passes: 1,
            checkpoint_rounds,
            verify_segments,
        };
        let chal = PuzzleChallenge(challenge);
        let (proof, work) = puzzle::solve(&chal, &data, &params);
        prop_assert_eq!(work.rounds, params.rounds_for(data.len()) as u64);
        let (ok, vwork) = puzzle::verify(&chal, &data, &proof, &params);
        prop_assert!(ok, "honest solve rejected");
        prop_assert!(vwork.rounds <= work.rounds);
    }

    /// Accountability puzzle **soundness**: a proof fabricated without
    /// the data — a random tag, a proof for different bytes, or a proof
    /// for a different record binding — never verifies.
    #[test]
    fn puzzle_fabricated_proofs_never_verify(
        challenge in proptest::array::uniform32(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 1..8_000),
        fake_tag in proptest::array::uniform32(any::<u8>()),
        flip in any::<prop::sample::Index>(),
    ) {
        // Full (unsampled) verification: every segment replayed, so the
        // per-pass coverage guarantee applies to the whole claim.
        let params = PuzzleParams {
            block_bytes: 512,
            passes: 1,
            checkpoint_rounds: 3,
            verify_segments: 32,
        };
        let chal = PuzzleChallenge(challenge);
        let (real, _) = puzzle::solve(&chal, &data, &params);

        // A data-less forgery: right checkpoint shape, made-up states.
        let segments = (params.rounds_for(data.len()).div_ceil(3)).max(1) as usize;
        let forged = PuzzleProof {
            tag: fake_tag,
            checkpoints: vec![fake_tag; segments - 1],
        };
        // (The astronomically unlikely collision fake_tag == real.tag
        // would still fail: the final segment replay pins the chain.)
        prop_assert!(!puzzle::verify(&chal, &data, &forged, &params).0);

        // A real proof over *different* bytes (peer claims data it
        // never held).
        let mut other = data.clone();
        let at = flip.index(other.len());
        other[at] ^= 0x01;
        let (stolen, _) = puzzle::solve(&chal, &other, &params);
        prop_assert!(!puzzle::verify(&chal, &data, &stolen, &params).0);

        // A real proof bound to a different record identity.
        let mut chal2 = challenge;
        chal2[0] ^= 0x01;
        prop_assert!(!puzzle::verify(&PuzzleChallenge(chal2), &data, &real, &params).0);
    }
}

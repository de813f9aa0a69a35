//! The cache accountability puzzle (CAPnet-style).
//!
//! NoCDN's signature + nonce + work-cross-check accounting stops a peer
//! from *forging* usage records, but it cannot stop a peer and a client
//! who **collude**: the client holds a real provider-issued key and can
//! sign a record for a retrieval that never happened. CAPnet's insight
//! is economic, not cryptographic — make every *payable* record cost
//! the serving side at least one data-dependent pass over the bytes it
//! claims to have served, so fabricating a retrieval is as expensive as
//! honestly performing it, and the attacker's payable bytes per unit of
//! work are bounded by a constant regardless of how many Sybil clients
//! they mint.
//!
//! The puzzle is a sequential random walk over the served bytes:
//!
//! 1. The state is seeded from a **challenge** the provider's per-epoch
//!    seed binds to `(client, peer, nonce)` — so a solution cannot be
//!    replayed across records (the nonce is single-use) nor precomputed
//!    before the epoch seed is published.
//! 2. Each round hashes two data blocks into the state: the
//!    round-indexed block (so every pass provably covers every byte of
//!    the claim — a proof over even one wrong block cannot survive a
//!    full replay) and a state-selected block (so rounds are strictly
//!    sequential and cannot be answered without holding the data). The
//!    number of rounds scales with the data length.
//! 3. The proof carries periodic **checkpoints** of the walk. The
//!    verifier — who has the authentic bytes — replays only a sampled
//!    subset of checkpoint-to-checkpoint segments (always including the
//!    final, tag-binding one), chosen pseudo-randomly from the proof
//!    tag itself. Verification therefore costs a small constant number
//!    of segments while a solver must still compute the whole chain:
//!    every sampled segment is a full re-derivation, and a fabricated
//!    proof fails the first sampled segment with overwhelming
//!    probability.
//!
//! The walk reads the claim where it lies ([`Parts`]): a claim over
//! several objects is their cached copies in order, never a
//! concatenated copy, and the proof is the one over the concatenation.
//!
//! Both sides report the bytes of data they touched, which is the work
//! currency experiment E25 budgets attacker profit against.

use crate::sha256::Sha256;

/// Tuning for puzzle difficulty and verification sampling.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PuzzleParams {
    /// Bytes of data hashed per round.
    pub block_bytes: usize,
    /// Full passes over the data the walk must make (difficulty ≥ 1).
    pub passes: u32,
    /// Rounds between proof checkpoints.
    pub checkpoint_rounds: u32,
    /// Checkpoint segments the verifier replays (the final segment is
    /// always among them).
    pub verify_segments: u32,
}

impl Default for PuzzleParams {
    fn default() -> PuzzleParams {
        PuzzleParams {
            block_bytes: 4096,
            passes: 1,
            checkpoint_rounds: 8,
            verify_segments: 3,
        }
    }
}

impl PuzzleParams {
    /// Rounds the walk runs for `len` bytes of data: at least one block
    /// visit per pass per block, never zero.
    pub fn rounds_for(&self, len: usize) -> u32 {
        let blocks = len.div_ceil(self.block_bytes.max(1)).max(1);
        (blocks as u32).saturating_mul(self.passes.max(1))
    }
}

/// A 32-byte challenge binding a puzzle instance to one usage record.
/// Callers derive it from the provider's epoch seed and the record's
/// `(client, peer, nonce)` identity (see `hpop-nocdn`'s puzzle module).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PuzzleChallenge(pub [u8; 32]);

/// A solved puzzle: the final walk state plus periodic checkpoints for
/// sampled verification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PuzzleProof {
    /// The final walk state (binds the whole chain).
    pub tag: [u8; 32],
    /// Walk state after every `checkpoint_rounds` rounds (the final
    /// state is `tag`, not repeated here).
    pub checkpoints: Vec<[u8; 32]>,
}

/// Outcome of [`solve`] or [`verify`]: the verdict plus the bytes of
/// data the walk touched (the work currency of E25).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PuzzleWork {
    /// Bytes of data hashed.
    pub data_bytes: u64,
    /// Rounds executed.
    pub rounds: u64,
}

/// The bytes a puzzle walks, read in place from the consecutive parts
/// they are stored in: one slice, or the objects of a claim as each was
/// cached. However the bytes are split, the walk hashes the same
/// stream, so the proof is the same.
pub trait Parts {
    /// The parts, in order.
    fn parts(&self) -> impl Iterator<Item = &[u8]>;

    /// The non-empty pieces of the parts that bytes `from..to` span, in
    /// order, each cut to the range.
    fn parts_in(&self, from: usize, to: usize) -> impl Iterator<Item = &[u8]> {
        let mut at = 0;
        self.parts()
            .map_while(move |part| {
                let start = at;
                at += part.len();
                (start < to).then(|| &part[from.clamp(start, at) - start..to.min(at) - start])
            })
            .filter(|piece| !piece.is_empty())
    }
}

impl Parts for [u8] {
    fn parts(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(self)
    }
}

impl Parts for Vec<u8> {
    fn parts(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(&self[..])
    }
}

impl Parts for [&[u8]] {
    fn parts(&self) -> impl Iterator<Item = &[u8]> {
        self.iter().copied()
    }
}

/// Feeds block `idx` of the `len` bytes of `data` to `h`, a piece at a
/// time (a block that straddles two parts is two updates), and returns
/// the block's length.
fn absorb_block<D: Parts + ?Sized>(
    h: &mut Sha256,
    data: &D,
    len: usize,
    idx: usize,
    block: usize,
) -> u64 {
    let from = idx * block;
    let to = (from + block).min(len);
    for piece in data.parts_in(from, to) {
        h.update(piece);
    }
    (to - from) as u64
}

/// One walk step: absorb the round counter, the round-indexed block
/// (coverage), and the state-selected block (sequentiality). Returns
/// the touched byte count.
fn step<D: Parts + ?Sized>(
    state: &mut [u8; 32],
    round: u32,
    data: &D,
    len: usize,
    block: usize,
) -> u64 {
    let nblocks = len.div_ceil(block).max(1);
    let jump =
        (u64::from_le_bytes(state[..8].try_into().expect("8 bytes")) % nblocks as u64) as usize;
    let mut h = Sha256::new();
    h.update(&state[..]);
    h.update(&round.to_le_bytes());
    let touched = absorb_block(&mut h, data, len, round as usize % nblocks, block)
        + absorb_block(&mut h, data, len, jump, block);
    *state = h.finalize().0;
    touched
}

fn byte_len<D: Parts + ?Sized>(data: &D) -> usize {
    data.parts().map(<[u8]>::len).sum()
}

fn initial_state(challenge: &PuzzleChallenge) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"hpop-cap-v1");
    h.update(&challenge.0);
    h.finalize().0
}

/// Solves the puzzle over `data` for `challenge`. Deterministic; the
/// returned work is what an honest solver necessarily spends.
pub fn solve<D: Parts + ?Sized>(
    challenge: &PuzzleChallenge,
    data: &D,
    params: &PuzzleParams,
) -> (PuzzleProof, PuzzleWork) {
    let len = byte_len(data);
    let rounds = params.rounds_for(len);
    let mut state = initial_state(challenge);
    let mut checkpoints = Vec::new();
    let mut touched = 0u64;
    for r in 0..rounds {
        touched += step(&mut state, r, data, len, params.block_bytes.max(1));
        let done = r + 1;
        if done % params.checkpoint_rounds.max(1) == 0 && done < rounds {
            checkpoints.push(state);
        }
    }
    (
        PuzzleProof {
            tag: state,
            checkpoints,
        },
        PuzzleWork {
            data_bytes: touched,
            rounds: rounds as u64,
        },
    )
}

/// The checkpoint segments a proof for `len` bytes must have: segment
/// `i` spans rounds `[i*cp, min((i+1)*cp, rounds))`.
fn segment_count(rounds: u32, cp: u32) -> u32 {
    rounds.div_ceil(cp.max(1)).max(1)
}

/// Verifies a proof by replaying sampled checkpoint segments against
/// the authentic `data`. Returns the verdict and the verifier's work.
///
/// The sample is drawn deterministically from the proof tag and the
/// challenge, so the prover cannot know in advance which segments will
/// be checked (the tag commits to the whole chain), and two verifiers
/// of the same record agree. The final segment is always replayed: it
/// is the one that pins `tag`.
pub fn verify<D: Parts + ?Sized>(
    challenge: &PuzzleChallenge,
    data: &D,
    proof: &PuzzleProof,
    params: &PuzzleParams,
) -> (bool, PuzzleWork) {
    let cp = params.checkpoint_rounds.max(1);
    let len = byte_len(data);
    let rounds = params.rounds_for(len);
    let segments = segment_count(rounds, cp);
    let mut work = PuzzleWork {
        data_bytes: 0,
        rounds: 0,
    };
    if proof.checkpoints.len() != segments as usize - 1 {
        return (false, work);
    }
    // Sample selection: final segment plus verify_segments-1 others
    // drawn from H(tag || challenge).
    let mut chosen: Vec<u32> = vec![segments - 1];
    if segments > 1 && params.verify_segments > 1 {
        let mut h = Sha256::new();
        h.update(b"hpop-cap-sample");
        h.update(&proof.tag);
        h.update(&challenge.0);
        let mut pick_state = h.finalize().0;
        let wanted = (params.verify_segments - 1).min(segments - 1);
        let mut guard = 0u32;
        while (chosen.len() as u32) < wanted + 1 && guard < 8 * segments {
            let v = u64::from_le_bytes(pick_state[..8].try_into().expect("8 bytes"));
            let seg = (v % segments as u64) as u32;
            if !chosen.contains(&seg) {
                chosen.push(seg);
            }
            pick_state = Sha256::digest(&pick_state).0;
            guard += 1;
        }
    }
    for &seg in &chosen {
        // Replay rounds [seg*cp, end) from the recorded entry state.
        let from = seg * cp;
        let to = ((seg + 1) * cp).min(rounds);
        let mut state = if seg == 0 {
            initial_state(challenge)
        } else {
            proof.checkpoints[seg as usize - 1]
        };
        for r in from..to {
            work.data_bytes += step(&mut state, r, data, len, params.block_bytes.max(1));
            work.rounds += 1;
        }
        let expected = if seg == segments - 1 {
            &proof.tag
        } else {
            &proof.checkpoints[seg as usize]
        };
        if !crate::constant_time_eq(&state, expected) {
            return (false, work);
        }
    }
    (true, work)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chal(b: u8) -> PuzzleChallenge {
        PuzzleChallenge([b; 32])
    }

    #[test]
    fn honest_solve_verifies() {
        let data = vec![7u8; 40_000];
        let p = PuzzleParams::default();
        let (proof, work) = solve(&chal(1), &data, &p);
        assert_eq!(work.rounds, 10); // ceil(40000/4096) = 10 blocks
        assert!(work.data_bytes >= data.len() as u64 / 2, "walk covers data");
        let (ok, vwork) = verify(&chal(1), &data, &proof, &p);
        assert!(ok);
        assert!(vwork.rounds <= work.rounds);
    }

    #[test]
    fn verification_is_sampled_and_cheaper_on_long_walks() {
        let data = vec![3u8; 64 * 4096];
        let p = PuzzleParams {
            checkpoint_rounds: 4,
            verify_segments: 2,
            ..PuzzleParams::default()
        };
        let (proof, work) = solve(&chal(2), &data, &p);
        assert_eq!(work.rounds, 64);
        assert_eq!(proof.checkpoints.len(), 15);
        let (ok, vwork) = verify(&chal(2), &data, &proof, &p);
        assert!(ok);
        assert_eq!(vwork.rounds, 8, "2 segments x 4 rounds");
    }

    #[test]
    fn wrong_data_fails() {
        let data = vec![9u8; 20_000];
        let p = PuzzleParams::default();
        let (proof, _) = solve(&chal(3), &data, &p);
        let mut other = data.clone();
        other[12_345] ^= 1;
        assert!(!verify(&chal(3), &other, &proof, &p).0);
    }

    #[test]
    fn wrong_challenge_fails() {
        let data = vec![9u8; 20_000];
        let p = PuzzleParams::default();
        let (proof, _) = solve(&chal(4), &data, &p);
        assert!(!verify(&chal(5), &data, &proof, &p).0);
    }

    #[test]
    fn fabricated_proof_fails() {
        let data = vec![1u8; 9_000];
        let p = PuzzleParams::default();
        let fake = PuzzleProof {
            tag: [0xAB; 32],
            checkpoints: Vec::new(),
        };
        assert!(!verify(&chal(6), &data, &fake, &p).0);
    }

    #[test]
    fn checkpoint_count_mismatch_fails_cheaply() {
        let data = vec![1u8; 64 * 4096];
        let p = PuzzleParams {
            checkpoint_rounds: 4,
            ..PuzzleParams::default()
        };
        let (mut proof, _) = solve(&chal(7), &data, &p);
        proof.checkpoints.pop();
        let (ok, work) = verify(&chal(7), &data, &proof, &p);
        assert!(!ok);
        assert_eq!(work.rounds, 0, "rejected before any replay");
    }

    #[test]
    fn tampered_checkpoint_fails() {
        let data = vec![5u8; 64 * 4096];
        let p = PuzzleParams {
            checkpoint_rounds: 4,
            verify_segments: 16, // check everything
            ..PuzzleParams::default()
        };
        let (mut proof, _) = solve(&chal(8), &data, &p);
        proof.checkpoints[3][0] ^= 1;
        assert!(!verify(&chal(8), &data, &proof, &p).0);
    }

    #[test]
    fn empty_and_tiny_data_are_well_defined() {
        let p = PuzzleParams::default();
        for data in [vec![], vec![1u8], vec![2u8; 4096]] {
            let (proof, work) = solve(&chal(9), &data, &p);
            assert_eq!(work.rounds, 1);
            assert!(verify(&chal(9), &data, &proof, &p).0);
        }
    }

    #[test]
    fn difficulty_scales_with_passes() {
        let data = vec![1u8; 10 * 4096];
        let one = PuzzleParams::default();
        let three = PuzzleParams {
            passes: 3,
            ..PuzzleParams::default()
        };
        let (_, w1) = solve(&chal(10), &data, &one);
        let (_, w3) = solve(&chal(10), &data, &three);
        assert_eq!(w3.rounds, 3 * w1.rounds);
        assert!(w3.data_bytes > 2 * w1.data_bytes);
    }

    /// The proof is wire format: a peer's proof must verify at a
    /// provider running any build. Hex captured from the scalar kernel
    /// at commit 2b35946.
    #[test]
    fn proof_bytes_are_frozen() {
        let data: Vec<u8> = (0..40_000u32).map(|i| (i * 31 + (i >> 8)) as u8).collect();
        let (proof, work) = solve(&chal(0x5a), &data, &PuzzleParams::default());
        assert_eq!((work.rounds, proof.checkpoints.len()), (10, 1));
        let hex = |b: &[u8; 32]| crate::sha256::Digest(*b).to_hex();
        assert_eq!(
            hex(&proof.tag),
            "65a3b3be53fa08d655860ed3cf611d6e17930f726a0dbb1847cb203bc1b095b9"
        );
        assert_eq!(
            hex(&proof.checkpoints[0]),
            "b8fb9217c2436282530692c173f2ff2bc2b5d7ba3e72e8a154c8b5340fc3cebf"
        );
        assert_eq!(work.data_bytes, 80_960);
    }

    /// Seven objects of 4,095, 1, 4,097, 0, 12,000, 7,000 and 12,807
    /// bytes: 40,000 in all, with object edges on both sides of the
    /// 4 KiB block edges and one empty object.
    fn straddling_objects() -> Vec<Vec<u8>> {
        let mut n = 0u32;
        [4095, 1, 4097, 0, 12_000, 7_000, 12_807]
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|_| {
                        n += 1;
                        (n.wrapping_mul(131) ^ (n >> 7)) as u8
                    })
                    .collect()
            })
            .collect()
    }

    /// The walk reads a claim in place, part by part. Tags, checkpoints
    /// and work for an empty claim, a claim shorter than one block and
    /// a multi-object claim, whole and in its parts, captured from the
    /// walk over one contiguous copy at commit e4a4aff.
    #[test]
    fn proofs_frozen() {
        let objects = straddling_objects();
        let parts: Vec<&[u8]> = objects.iter().map(Vec::as_slice).collect();
        let whole = objects.concat();
        let short: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let every_third = PuzzleParams {
            checkpoint_rounds: 3,
            ..PuzzleParams::default()
        };
        let hex = |b: &[u8; 32]| crate::sha256::Digest(*b).to_hex();
        let pinned = |proof: &PuzzleProof, work: PuzzleWork| {
            let mut states = vec![hex(&proof.tag)];
            states.extend(proof.checkpoints.iter().map(hex));
            (states, work.rounds, work.data_bytes)
        };
        let empty: [&[u8]; 0] = [];
        for (proof, work) in [
            solve(&chal(0x11), &b""[..], &PuzzleParams::default()),
            solve(&chal(0x11), &empty[..], &PuzzleParams::default()),
        ] {
            assert_eq!(
                pinned(&proof, work),
                (
                    vec!["f61246314a373d3e55af6cf6569e3649211702e133ce597b12da3df931357b36".into()],
                    1,
                    0
                )
            );
        }
        for (proof, work) in [
            solve(&chal(0x22), &short, &PuzzleParams::default()),
            solve(
                &chal(0x22),
                &[&short[..400], &[], &short[400..]][..],
                &PuzzleParams::default(),
            ),
        ] {
            assert_eq!(
                pinned(&proof, work),
                (
                    vec!["0d2b39dc2745af789c40e304eb05813492bbcfb20e04aa92ace7778a6323e1a2".into()],
                    1,
                    2_000
                )
            );
        }
        let want: Vec<String> = [
            "855ae0896402c71bc258db3ed3e57a323e1b56c21d96e8b5ba85e1e8d4bbbdba",
            "29b1b512fd880eaded97ac3b71eb7134a931da3e196921509717e7cbcb664b12",
            "ddd85e83ae3af30b7bb270c68faf124a0ca9567bb6230c3efd899cf656c7852b",
            "4ee76eff7a9ae37dcda765b8b421905478c29770d8450743a839a08bd6aa04f7",
        ]
        .map(String::from)
        .into();
        for (proof, work) in [
            solve(&chal(0x33), &whole, &every_third),
            solve(&chal(0x33), &parts[..], &every_third),
        ] {
            assert_eq!(pinned(&proof, work), (want.clone(), 10, 80_960));
            let verdict = verify(&chal(0x33), &parts[..], &proof, &every_third);
            assert_eq!(
                verdict,
                (
                    true,
                    PuzzleWork {
                        data_bytes: 56_384,
                        rounds: 7
                    }
                )
            );
        }
    }
}

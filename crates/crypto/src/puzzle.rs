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

fn block_of(data: &[u8], idx: usize, block: usize) -> &[u8] {
    let from = idx * block;
    let to = (from + block).min(data.len());
    &data[from..to]
}

/// One walk step: absorb the round counter, the round-indexed block
/// (coverage), and the state-selected block (sequentiality). Returns
/// the touched byte count.
fn step(state: &mut [u8; 32], round: u32, data: &[u8], block: usize) -> u64 {
    let nblocks = data.len().div_ceil(block).max(1);
    let cover = if data.is_empty() {
        &[][..]
    } else {
        block_of(data, round as usize % nblocks, block)
    };
    let idx =
        (u64::from_le_bytes(state[..8].try_into().expect("8 bytes")) % nblocks as u64) as usize;
    let jump = if data.is_empty() {
        &[][..]
    } else {
        block_of(data, idx, block)
    };
    let mut h = Sha256::new();
    h.update(&state[..]);
    h.update(&round.to_le_bytes());
    h.update(cover);
    h.update(jump);
    *state = h.finalize().0;
    (cover.len() + jump.len()) as u64
}

fn initial_state(challenge: &PuzzleChallenge) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"hpop-cap-v1");
    h.update(&challenge.0);
    h.finalize().0
}

/// Solves the puzzle over `data` for `challenge`. Deterministic; the
/// returned work is what an honest solver necessarily spends.
pub fn solve(
    challenge: &PuzzleChallenge,
    data: &[u8],
    params: &PuzzleParams,
) -> (PuzzleProof, PuzzleWork) {
    let rounds = params.rounds_for(data.len());
    let mut state = initial_state(challenge);
    let mut checkpoints = Vec::new();
    let mut touched = 0u64;
    for r in 0..rounds {
        touched += step(&mut state, r, data, params.block_bytes.max(1));
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
pub fn verify(
    challenge: &PuzzleChallenge,
    data: &[u8],
    proof: &PuzzleProof,
    params: &PuzzleParams,
) -> (bool, PuzzleWork) {
    let cp = params.checkpoint_rounds.max(1);
    let rounds = params.rounds_for(data.len());
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
            work.data_bytes += step(&mut state, r, data, params.block_bytes.max(1));
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
}

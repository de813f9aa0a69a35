//! Usage records and provider-side accounting.
//!
//! §IV-B: "the script transfers a usage record to each peer. The usage
//! report is secured via a cryptographic signature using the secret key
//! furnished by the content provider and includes a nonce to prevent
//! replay. The NoCDN peers accumulate usage records and periodically
//! upload them to the content provider for payment." And: "an
//! unscrupulous peer has an incentive to inflate the contribution they
//! report … NoCDN must be able to protect content providers from such
//! behavior."
//!
//! Protection layers implemented here:
//! 1. **HMAC signatures** under per-(client, peer) short-term keys — a
//!    peer cannot forge or alter a record without detection.
//! 2. **Nonce registry** — replayed records are rejected.
//! 3. **Work cross-check** — the provider knows what it mapped to each
//!    peer, so a record claiming more bytes than the issued work is
//!    rejected.
//! 4. **Anomaly scoring** — collusion (peer + client inventing traffic)
//!    is surfaced by comparing per-peer payment rates against a robust
//!    trimmed baseline (the paper's "anomalous behavior detection").
//! 5. **Accountability puzzles** (optional, CAPnet-style; see
//!    [`crate::puzzle`]) — when a [`PuzzleSpec`] policy is set, a
//!    record is payable only with a verified data-dependent proof of
//!    serving, so colluders who *fabricate* retrievals are rejected
//!    ([`RejectReason::UnbackedServe`]) and colluders who do the work
//!    gain at most a constant payable-bytes-per-work ratio.
//!
//! Layers 1–3 defeat a lone dishonest peer; layer 4 surfaces colluding
//! cliques; layer 5 bounds what even a Sybil swarm with full protocol
//! compliance can extract (experiment E25).

use crate::body::Body;
use crate::peer::PeerId;
use crate::puzzle::PuzzleSpec;
use bytes::Bytes;
use hpop_crypto::hmac::{hmac_sha256, verify_hmac_sha256, HmacTag};
use hpop_crypto::nonce::{Nonce, NonceRegistry};
use hpop_crypto::puzzle::{self, PuzzleProof};
use hpop_durability::codec::{self, ByteReader, ByteWriter};
use hpop_durability::wire;
use std::cell::Cell;
use std::collections::BTreeMap;

/// A client-signed record of bytes served by one peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageRecord {
    /// The serving peer.
    pub peer: PeerId,
    /// The client the bytes were served to.
    pub client: u64,
    /// Goodput bytes the client verified from this peer.
    pub bytes: u64,
    /// Objects delivered.
    pub objects: u32,
    /// Anti-replay nonce.
    pub nonce: Nonce,
    /// Accountability-puzzle proof of serving, when the provider's
    /// policy demands one. The proof tag is covered by the signature,
    /// so it cannot be stripped or swapped without tripping
    /// [`RejectReason::BadSignature`].
    pub proof: Option<PuzzleProof>,
    tag: HmacTag,
}

fn tag_hex(proof: Option<&PuzzleProof>) -> String {
    match proof {
        None => "-".to_owned(),
        Some(p) => p.tag.iter().map(|b| format!("{b:02x}")).collect(),
    }
}

impl UsageRecord {
    fn message(
        peer: PeerId,
        client: u64,
        bytes: u64,
        objects: u32,
        nonce: Nonce,
        proof: Option<&PuzzleProof>,
    ) -> Vec<u8> {
        format!(
            "usage|{}|{client}|{bytes}|{objects}|{}|{}",
            peer.0,
            nonce.0,
            tag_hex(proof)
        )
        .into_bytes()
    }

    /// Signs a record with the provider-issued short-term key.
    pub fn sign(
        key: &[u8; 32],
        peer: PeerId,
        client: u64,
        bytes: u64,
        objects: u32,
        nonce: Nonce,
    ) -> UsageRecord {
        Self::sign_with_proof(key, peer, client, bytes, objects, nonce, None)
    }

    /// Signs a record carrying an accountability-puzzle proof. The
    /// proof tag is part of the signed message.
    #[allow(clippy::too_many_arguments)]
    pub fn sign_with_proof(
        key: &[u8; 32],
        peer: PeerId,
        client: u64,
        bytes: u64,
        objects: u32,
        nonce: Nonce,
        proof: Option<PuzzleProof>,
    ) -> UsageRecord {
        let tag = hmac_sha256(
            key,
            &Self::message(peer, client, bytes, objects, nonce, proof.as_ref()),
        );
        UsageRecord {
            peer,
            client,
            bytes,
            objects,
            nonce,
            proof,
            tag,
        }
    }

    /// Verifies the record against a key.
    pub fn verify(&self, key: &[u8; 32]) -> bool {
        verify_hmac_sha256(
            key,
            &Self::message(
                self.peer,
                self.client,
                self.bytes,
                self.objects,
                self.nonce,
                self.proof.as_ref(),
            ),
            &self.tag,
        )
    }

    /// An unsigned record for unit tests of non-crypto paths. Gated out
    /// of production builds: real records always carry a signature.
    #[cfg(any(test, feature = "testutil"))]
    #[doc(hidden)]
    pub fn unsigned_for_tests(peer: PeerId, bytes: u64) -> UsageRecord {
        UsageRecord {
            peer,
            client: 0,
            bytes,
            objects: 1,
            nonce: Nonce(0),
            proof: None,
            tag: HmacTag([0u8; 32]),
        }
    }
}

/// Why a record was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// HMAC verification failed (forged or altered).
    BadSignature,
    /// Nonce already seen (replay).
    Replay,
    /// Claims more bytes than the work the provider issued.
    ExceedsIssuedWork,
    /// No issuance is outstanding for this (client, peer).
    UnknownIssuance,
    /// The accountability-puzzle policy is on and the record's proof is
    /// missing or does not verify against the authentic bytes — a
    /// fabricated retrieval (confirmed misbehavior, fed to the fabric
    /// reputation ledger).
    UnbackedServe,
}

/// The accountability-puzzle verdict attached to a settlement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PuzzleCheck {
    /// No puzzle policy applies (defense off).
    NotRequired,
    /// The proof verified against the authentic bytes.
    Verified,
    /// The proof is missing or wrong: the serve is unbacked.
    Unbacked,
}

#[derive(Clone, Debug)]
struct Issuance {
    key: [u8; 32],
    max_bytes: u64,
    /// The object paths mapped to the peer (sorted), so a puzzle proof
    /// can be verified against the authentic bytes at settle time.
    objects: Vec<String>,
}

wire! { enum RejectReason { BadSignature = 0, Replay = 1, ExceedsIssuedWork = 2, UnknownIssuance = 3, UnbackedServe = 4 } }
wire! { enum PuzzleCheck { NotRequired = 0, Verified = 1, Unbacked = 2 } }
wire! { struct Issuance { max_bytes, objects, key } }

/// Derives the short-term `(client, peer)` key from the provider's
/// master secret. Factored out so the durability adapter can derive the
/// key *before* logging — the WAL records the derived key, and the
/// master secret never touches stable storage.
pub fn derive_issue_key(master: &[u8; 32], client: u64, peer: PeerId, max_bytes: u64) -> [u8; 32] {
    hmac_sha256(
        master,
        format!("issue|{client}|{}|{max_bytes}", peer.0).as_bytes(),
    )
    .0
}

/// Provider-side accounting state.
#[derive(Debug, Default)]
pub struct Accounting {
    /// (client, peer) → outstanding issuance.
    issuances: BTreeMap<(u64, u32), Issuance>,
    nonces: NonceRegistry,
    /// Accepted bytes per peer (the payment basis).
    accepted: BTreeMap<PeerId, u64>,
    /// Issuances granted per peer (for anomaly normalization).
    issued_count: BTreeMap<PeerId, u64>,
    /// Rejections per peer with reasons.
    rejections: Vec<(PeerId, RejectReason)>,
    /// The accountability-puzzle policy, when the defense is on.
    /// Provider configuration, not payment state — it is not part of
    /// the durable snapshot and is re-set after recovery.
    puzzle: Option<PuzzleSpec>,
    /// Data bytes the provider touched verifying puzzle proofs (the
    /// honest-path overhead E25c budgets). Transient measurement, kept
    /// by [`Accounting::check_puzzle`] itself so that a check made
    /// through a read-only view (the durability adapter's) counts too.
    verify_work_bytes: Cell<u64>,
}

/// One settlement as the journal carries it: the uploaded record — tag
/// verbatim, never re-signed — and the puzzle verdict reached *before*
/// logging, so replay needs no object store.
#[derive(Clone, Debug)]
pub struct Settlement {
    /// The record as the peer uploaded it.
    pub record: UsageRecord,
    /// What the provider's puzzle check made of its proof.
    pub verdict: PuzzleCheck,
}

impl codec::Wire for Settlement {
    fn put(&self, w: &mut ByteWriter) {
        let rec = &self.record;
        w.put(&rec.peer)
            .u64(rec.client)
            .u64(rec.bytes)
            .u32(rec.objects)
            .u128(rec.nonce.0)
            .put(&self.verdict);
        match &rec.proof {
            None => w.u8(0),
            Some(p) => w.u8(1).put(&p.tag).put(&p.checkpoints),
        };
        w.put(&rec.tag.0);
    }

    fn take(r: &mut ByteReader<'_>) -> Option<Settlement> {
        let (peer, client, bytes, objects) = (r.get()?, r.get()?, r.get()?, r.get()?);
        let nonce = Nonce(r.get()?);
        let verdict = r.get()?;
        let proof = r
            .get::<Option<([u8; 32], Vec<[u8; 32]>)>>()?
            .map(|(tag, checkpoints)| PuzzleProof { tag, checkpoints });
        let tag = HmacTag(r.get()?);
        let record = UsageRecord {
            peer,
            client,
            bytes,
            objects,
            nonce,
            proof,
            tag,
        };
        Some(Settlement { record, verdict })
    }
}

/// The durable snapshot: issuances; the nonce registry as capacity
/// sentinel (`u64::MAX` = unbounded), rejected count and entries in its
/// deterministic order; then accepted bytes, issue counts and
/// rejections. The puzzle policy and the verify-work counter are not
/// payment state and come back at their defaults.
impl codec::Wire for Accounting {
    fn put(&self, w: &mut ByteWriter) {
        let nonces: Vec<(String, u128)> = self
            .nonces
            .entries()
            .into_iter()
            .map(|(s, n)| (s, n.0))
            .collect();
        w.put(&self.issuances)
            .u64(self.nonces.capacity().map_or(u64::MAX, |c| c as u64))
            .u64(self.nonces.rejected())
            .put(&nonces)
            .put(&self.accepted)
            .put(&self.issued_count)
            .put(&self.rejections);
    }

    fn take(r: &mut ByteReader<'_>) -> Option<Accounting> {
        let issuances = r.get()?;
        let capacity = match r.u64()? {
            u64::MAX => None,
            // `NonceRegistry::with_capacity` asserts a non-empty window.
            0 => return None,
            c => Some(usize::try_from(c).ok()?),
        };
        let rejected = r.u64()?;
        let nonces: Vec<(String, Nonce)> = r
            .get::<Vec<(String, u128)>>()?
            .into_iter()
            .map(|(s, n)| (s, Nonce(n)))
            .collect();
        Some(Accounting {
            issuances,
            nonces: NonceRegistry::restore(capacity, rejected, &nonces),
            accepted: r.get()?,
            issued_count: r.get()?,
            rejections: r.get()?,
            ..Accounting::default()
        })
    }
}

impl Accounting {
    /// Fresh accounting state.
    pub fn new() -> Accounting {
        Accounting::default()
    }

    /// Turns the accountability-puzzle defense on: every subsequent
    /// settlement must carry a proof verifiable against the authentic
    /// bytes of its issuance's objects.
    pub fn set_puzzle(&mut self, spec: PuzzleSpec) {
        self.puzzle = Some(spec);
    }

    /// The active puzzle policy, if any (wrapper pages publish it).
    pub fn puzzle_spec(&self) -> Option<&PuzzleSpec> {
        self.puzzle.as_ref()
    }

    /// Issues a short-term key for `(client, peer)` covering at most
    /// `max_bytes` of work (the bytes the wrapper mapped to that peer).
    /// Returns the key to embed in the wrapper page.
    pub fn issue(
        &mut self,
        client: u64,
        peer: PeerId,
        max_bytes: u64,
        master: &[u8; 32],
    ) -> [u8; 32] {
        self.issue_with_objects(client, peer, max_bytes, &[], master)
    }

    /// [`Accounting::issue`] recording the object paths mapped to the
    /// peer, so the puzzle defense can verify proofs at settle time.
    pub fn issue_with_objects(
        &mut self,
        client: u64,
        peer: PeerId,
        max_bytes: u64,
        objects: &[String],
        master: &[u8; 32],
    ) -> [u8; 32] {
        let key = derive_issue_key(master, client, peer, max_bytes);
        self.apply_issue(client, peer, max_bytes, objects.to_vec(), key);
        key
    }

    /// Records an issuance whose key was already derived — the replay
    /// path of the durability adapter.
    pub(crate) fn apply_issue(
        &mut self,
        client: u64,
        peer: PeerId,
        max_bytes: u64,
        mut objects: Vec<String>,
        key: [u8; 32],
    ) {
        objects.sort();
        self.issuances.insert(
            (client, peer.0),
            Issuance {
                key,
                max_bytes,
                objects,
            },
        );
        *self.issued_count.entry(peer).or_default() += 1;
    }

    /// Checks a record's accountability-puzzle proof under `spec`,
    /// resolving each issued object path to its authentic bytes. A
    /// record is [`PuzzleCheck::Unbacked`] when the proof is absent,
    /// when any issued object cannot be resolved (the provider cannot
    /// confirm backing), or when the sampled replay disagrees.
    ///
    /// Takes `&self` so the durability adapter can compute the verdict
    /// *before* logging the settlement — replay then re-applies the
    /// logged verdict instead of needing the object bytes again. The
    /// data bytes the verification walked (the provider's overhead
    /// currency) are added to [`Accounting::puzzle_verify_bytes`].
    pub fn check_puzzle<F>(
        &self,
        record: &UsageRecord,
        spec: &PuzzleSpec,
        mut resolve: F,
    ) -> PuzzleCheck
    where
        F: FnMut(&str) -> Option<Bytes>,
    {
        let Some(iss) = self.issuances.get(&(record.client, record.peer.0)) else {
            // No issuance: the settle path rejects as UnknownIssuance
            // before the puzzle is consulted.
            return PuzzleCheck::NotRequired;
        };
        let Some(proof) = record.proof.as_ref() else {
            return PuzzleCheck::Unbacked;
        };
        let claim: Option<Body> = iss.objects.iter().map(|path| resolve(path)).collect();
        let Some(claim) = claim else {
            return PuzzleCheck::Unbacked;
        };
        let challenge = spec.challenge(record.client, record.peer, record.nonce);
        let (ok, work) = puzzle::verify(&challenge, &claim, proof, &spec.params);
        hpop_obs::metrics()
            .counter("nocdn.acct.puzzle.verify_bytes")
            .add(work.data_bytes);
        self.verify_work_bytes
            .set(self.verify_work_bytes.get() + work.data_bytes);
        if ok {
            PuzzleCheck::Verified
        } else {
            PuzzleCheck::Unbacked
        }
    }

    /// Settles one uploaded record: verify, replay-check, work-check.
    /// With the puzzle policy on, this no-resolver form cannot confirm
    /// backing and therefore rejects every record as
    /// [`RejectReason::UnbackedServe`] — use [`Accounting::settle_with`]
    /// and hand it the provider's object store.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`] and records it against the peer.
    pub fn settle(&mut self, record: &UsageRecord) -> Result<(), RejectReason> {
        self.settle_with(record, |_| None)
    }

    /// [`Accounting::settle`] with access to the authentic object
    /// bytes, so the accountability-puzzle policy (when set) can verify
    /// the record's proof of serving.
    pub fn settle_with<F>(&mut self, record: &UsageRecord, resolve: F) -> Result<(), RejectReason>
    where
        F: FnMut(&str) -> Option<Bytes>,
    {
        let check = match self.puzzle {
            None => PuzzleCheck::NotRequired,
            Some(spec) => self.check_puzzle(record, &spec, resolve),
        };
        self.settle_checked(record, check)
    }

    /// The settlement core, taking a precomputed puzzle verdict (the
    /// durability adapter logs the verdict with the record and replays
    /// it deterministically).
    pub(crate) fn settle_checked(
        &mut self,
        record: &UsageRecord,
        check: PuzzleCheck,
    ) -> Result<(), RejectReason> {
        let Some(iss) = self.issuances.get(&(record.client, record.peer.0)) else {
            self.rejections
                .push((record.peer, RejectReason::UnknownIssuance));
            return Err(RejectReason::UnknownIssuance);
        };
        if !record.verify(&iss.key) {
            self.rejections
                .push((record.peer, RejectReason::BadSignature));
            return Err(RejectReason::BadSignature);
        }
        if record.bytes > iss.max_bytes {
            self.rejections
                .push((record.peer, RejectReason::ExceedsIssuedWork));
            return Err(RejectReason::ExceedsIssuedWork);
        }
        if check == PuzzleCheck::Unbacked {
            self.rejections
                .push((record.peer, RejectReason::UnbackedServe));
            hpop_obs::metrics()
                .counter("nocdn.acct.puzzle.unbacked_rejected")
                .incr();
            return Err(RejectReason::UnbackedServe);
        }
        if !self.nonces.accept(&record.peer.0.to_string(), record.nonce) {
            self.rejections.push((record.peer, RejectReason::Replay));
            return Err(RejectReason::Replay);
        }
        *self.accepted.entry(record.peer).or_default() += record.bytes;
        Ok(())
    }

    /// Accepted (payable) bytes for a peer.
    pub fn payable_bytes(&self, peer: PeerId) -> u64 {
        self.accepted.get(&peer).copied().unwrap_or(0)
    }

    /// All rejections so far.
    pub fn rejections(&self) -> &[(PeerId, RejectReason)] {
        &self.rejections
    }

    /// Rejections charged to one peer.
    pub fn rejection_count(&self, peer: PeerId) -> usize {
        self.rejections.iter().filter(|(p, _)| *p == peer).count()
    }

    /// Peers with confirmed fabricated serves (puzzle rejections),
    /// worst first — the feed into the fabric reputation ledger: a
    /// [`RejectReason::UnbackedServe`] is cryptographic evidence of
    /// fabrication, not an anomaly-score suspicion.
    pub fn confirmed_offenders(&self) -> Vec<(PeerId, u32)> {
        let mut counts: BTreeMap<PeerId, u32> = BTreeMap::new();
        for &(peer, reason) in &self.rejections {
            if reason == RejectReason::UnbackedServe {
                *counts.entry(peer).or_default() += 1;
            }
        }
        let mut out: Vec<(PeerId, u32)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Data bytes spent verifying puzzle proofs so far (the provider's
    /// honest-path overhead, budgeted by E25c).
    pub fn puzzle_verify_bytes(&self) -> u64 {
        self.verify_work_bytes.get()
    }

    /// Per-issuance payment rates (accepted bytes / issuances), the
    /// anomaly-score raw material.
    fn payment_rates(&self) -> Vec<(PeerId, f64)> {
        self.issued_count
            .iter()
            .map(|(&p, &n)| {
                let bytes = self.accepted.get(&p).copied().unwrap_or(0);
                (p, bytes as f64 / n.max(1) as f64)
            })
            .collect()
    }

    /// Payment-rate anomaly scores: a peer's accepted bytes per
    /// issuance divided by a **trimmed baseline** — the lower-quartile
    /// rate of the population — rather than the raw median. Inflation
    /// attacks can only push rates *up*, so the low end of the
    /// distribution stays honest until more than three quarters of the
    /// population colludes; the raw median is attacker-controlled as
    /// soon as colluders reach 50% (the E25 laundering campaign), which
    /// would make every honest peer look cheap instead of the
    /// colluders looking expensive.
    pub fn anomaly_scores(&self) -> BTreeMap<PeerId, f64> {
        let rates = self.payment_rates();
        if rates.is_empty() {
            return BTreeMap::new();
        }
        let mut sorted: Vec<f64> = rates.iter().map(|&(_, r)| r).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        let baseline = sorted[sorted.len() / 4].max(1.0);
        rates.into_iter().map(|(p, r)| (p, r / baseline)).collect()
    }

    /// Median absolute deviation of the trimmed (lower-half) rates: the
    /// robust spread estimate [`Accounting::flag_anomalies`] uses to
    /// avoid ratio-flagging tight honest populations.
    fn trimmed_mad(&self) -> (f64, f64) {
        let mut sorted: Vec<f64> = self.payment_rates().iter().map(|&(_, r)| r).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        if sorted.is_empty() {
            return (0.0, 0.0);
        }
        let baseline = sorted[sorted.len() / 4];
        let lower = &sorted[..(sorted.len() / 2).max(1)];
        let mut dev: Vec<f64> = lower.iter().map(|r| (r - baseline).abs()).collect();
        dev.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        (baseline, dev[dev.len() / 2])
    }

    /// Peers whose trimmed-baseline score exceeds `threshold` (e.g.
    /// 3.0) **and** whose rate sits more than three MADs above the
    /// trimmed population — a peer must be both relatively and robustly
    /// anomalous to be flagged.
    pub fn flag_anomalies(&self, threshold: f64) -> Vec<PeerId> {
        let (baseline, mad) = self.trimmed_mad();
        self.anomaly_scores()
            .into_iter()
            .filter(|&(p, s)| {
                let rate = self
                    .payment_rates()
                    .iter()
                    .find(|&&(q, _)| q == p)
                    .map(|&(_, r)| r)
                    .unwrap_or(0.0);
                s > threshold && (rate - baseline) > 3.0 * mad
            })
            .map(|(p, _)| p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_crypto::puzzle::PuzzleParams;

    const MASTER: [u8; 32] = [42u8; 32];

    fn issue_and_sign(
        acct: &mut Accounting,
        client: u64,
        peer: PeerId,
        max: u64,
        claim: u64,
        nonce: u64,
    ) -> UsageRecord {
        let key = acct.issue(client, peer, max, &MASTER);
        UsageRecord::sign(&key, peer, client, claim, 3, Nonce(nonce as u128))
    }

    #[test]
    fn honest_record_settles() {
        let mut acct = Accounting::new();
        let r = issue_and_sign(&mut acct, 1, PeerId(1), 1000, 900, 1);
        assert_eq!(acct.settle(&r), Ok(()));
        assert_eq!(acct.payable_bytes(PeerId(1)), 900);
    }

    #[test]
    fn altered_bytes_fail_signature() {
        let mut acct = Accounting::new();
        let mut r = issue_and_sign(&mut acct, 1, PeerId(1), 1000, 500, 1);
        r.bytes = 5000; // peer inflates after signing
        assert_eq!(acct.settle(&r), Err(RejectReason::BadSignature));
        assert_eq!(acct.payable_bytes(PeerId(1)), 0);
        assert_eq!(acct.rejection_count(PeerId(1)), 1);
    }

    #[test]
    fn replays_rejected() {
        let mut acct = Accounting::new();
        let r = issue_and_sign(&mut acct, 1, PeerId(1), 1000, 500, 7);
        assert!(acct.settle(&r).is_ok());
        assert_eq!(acct.settle(&r), Err(RejectReason::Replay));
        assert_eq!(acct.payable_bytes(PeerId(1)), 500);
    }

    #[test]
    fn work_crosscheck_caps_claims() {
        let mut acct = Accounting::new();
        // Client colludes: signs an inflated record with the real key.
        let r = issue_and_sign(&mut acct, 1, PeerId(1), 1000, 999_999, 1);
        assert_eq!(acct.settle(&r), Err(RejectReason::ExceedsIssuedWork));
    }

    #[test]
    fn unknown_issuance_rejected() {
        let mut acct = Accounting::new();
        let r = UsageRecord::sign(&[0u8; 32], PeerId(9), 5, 10, 1, Nonce(1));
        assert_eq!(acct.settle(&r), Err(RejectReason::UnknownIssuance));
    }

    #[test]
    fn anomaly_scores_flag_colluders() {
        let mut acct = Accounting::new();
        // Nine honest peers: ~500 bytes per issuance.
        for p in 0..9u32 {
            for c in 0..5u64 {
                let client = c * 100 + p as u64;
                let r = issue_and_sign(&mut acct, client, PeerId(p), 1000, 500, client);
                acct.settle(&r).unwrap();
            }
        }
        // One colluding peer cycles maximal fake downloads.
        for c in 0..50u64 {
            let r = issue_and_sign(&mut acct, 10_000 + c, PeerId(9), 1000, 1000, 90_000 + c);
            acct.settle(&r).unwrap();
        }
        // Per-issuance rate: honest 500, colluder 1000 → score ~2.
        let scores = acct.anomaly_scores();
        assert!(scores[&PeerId(9)] > 1.8, "score {}", scores[&PeerId(9)]);
        let flagged = acct.flag_anomalies(1.8);
        assert_eq!(flagged, vec![PeerId(9)]);
    }

    /// Satellite regression: when colluders are the *majority*, the raw
    /// median is attacker-controlled — the old median-based score gave
    /// every colluder 1.0 (invisible) and every honest peer 0.5. The
    /// trimmed baseline anchors on the honest low end instead.
    #[test]
    fn majority_collusion_still_flagged() {
        let mut acct = Accounting::new();
        let mut nonce = 0u64;
        // Four honest peers at ~500/issuance.
        for p in 0..4u32 {
            for c in 0..10u64 {
                nonce += 1;
                let r = issue_and_sign(&mut acct, c * 100 + p as u64, PeerId(p), 1000, 500, nonce);
                acct.settle(&r).unwrap();
            }
        }
        // SIX colluders (60% of the population) at the full 1000.
        for p in 4..10u32 {
            for c in 0..10u64 {
                nonce += 1;
                let r = issue_and_sign(
                    &mut acct,
                    5000 + c * 100 + p as u64,
                    PeerId(p),
                    1000,
                    1000,
                    nonce,
                );
                acct.settle(&r).unwrap();
            }
        }
        let scores = acct.anomaly_scores();
        for p in 0..4u32 {
            assert!(
                (scores[&PeerId(p)] - 1.0).abs() < 0.01,
                "honest peer {p} score {}",
                scores[&PeerId(p)]
            );
        }
        let flagged = acct.flag_anomalies(1.8);
        assert_eq!(
            flagged,
            (4..10).map(PeerId).collect::<Vec<_>>(),
            "all six majority colluders flagged, no honest peer"
        );
    }

    #[test]
    fn empty_accounting_edge_cases() {
        let acct = Accounting::new();
        assert!(acct.anomaly_scores().is_empty());
        assert!(acct.flag_anomalies(1.0).is_empty());
        assert_eq!(acct.payable_bytes(PeerId(0)), 0);
    }

    fn puzzle_setup() -> (Accounting, PuzzleSpec, Bytes) {
        let mut acct = Accounting::new();
        let spec = PuzzleSpec::for_epoch(&MASTER, 1, PuzzleParams::default());
        acct.set_puzzle(spec);
        (acct, spec, Bytes::from(vec![7u8; 20_000]))
    }

    #[test]
    fn backed_record_settles_under_puzzle_policy() {
        let (mut acct, spec, body) = puzzle_setup();
        let key = acct.issue_with_objects(1, PeerId(2), 20_000, &["/a.bin".to_owned()], &MASTER);
        let nonce = Nonce(5);
        let challenge = spec.challenge(1, PeerId(2), nonce);
        let (proof, _) = puzzle::solve(&challenge, &body[..], &spec.params);
        let r = UsageRecord::sign_with_proof(&key, PeerId(2), 1, 20_000, 1, nonce, Some(proof));
        let body2 = body.clone();
        assert_eq!(acct.settle_with(&r, |_| Some(body2.clone())), Ok(()));
        assert_eq!(acct.payable_bytes(PeerId(2)), 20_000);
        assert!(acct.puzzle_verify_bytes() > 0);
    }

    #[test]
    fn unbacked_record_rejected_and_confirmed() {
        let (mut acct, _spec, body) = puzzle_setup();
        let key = acct.issue_with_objects(1, PeerId(2), 20_000, &["/a.bin".to_owned()], &MASTER);
        // Fabricated retrieval: signed with the real key, but no proof.
        let r = UsageRecord::sign(&key, PeerId(2), 1, 20_000, 1, Nonce(5));
        assert_eq!(
            acct.settle_with(&r, |_| Some(body.clone())),
            Err(RejectReason::UnbackedServe)
        );
        assert_eq!(acct.payable_bytes(PeerId(2)), 0);
        assert_eq!(acct.confirmed_offenders(), vec![(PeerId(2), 1)]);
    }

    #[test]
    fn wrong_data_proof_rejected() {
        let (mut acct, spec, body) = puzzle_setup();
        let key = acct.issue_with_objects(1, PeerId(2), 20_000, &["/a.bin".to_owned()], &MASTER);
        let nonce = Nonce(5);
        let challenge = spec.challenge(1, PeerId(2), nonce);
        // Proof over garbage the peer invented instead of the content.
        let (proof, _) = puzzle::solve(&challenge, &vec![0u8; 20_000], &spec.params);
        let r = UsageRecord::sign_with_proof(&key, PeerId(2), 1, 20_000, 1, nonce, Some(proof));
        assert_eq!(
            acct.settle_with(&r, |_| Some(body.clone())),
            Err(RejectReason::UnbackedServe)
        );
    }

    #[test]
    fn stripped_proof_fails_signature() {
        let (mut acct, spec, body) = puzzle_setup();
        let key = acct.issue_with_objects(1, PeerId(2), 20_000, &["/a.bin".to_owned()], &MASTER);
        let nonce = Nonce(5);
        let challenge = spec.challenge(1, PeerId(2), nonce);
        let (proof, _) = puzzle::solve(&challenge, &body[..], &spec.params);
        let mut r = UsageRecord::sign_with_proof(&key, PeerId(2), 1, 20_000, 1, nonce, Some(proof));
        r.proof = None; // stripping the proof breaks the signature
        assert_eq!(
            acct.settle_with(&r, |_| Some(body.clone())),
            Err(RejectReason::BadSignature)
        );
    }

    #[test]
    fn no_resolver_settle_fails_closed_under_policy() {
        let (mut acct, spec, body) = puzzle_setup();
        let key = acct.issue_with_objects(1, PeerId(2), 20_000, &["/a.bin".to_owned()], &MASTER);
        let nonce = Nonce(5);
        let challenge = spec.challenge(1, PeerId(2), nonce);
        let (proof, _) = puzzle::solve(&challenge, &body[..], &spec.params);
        let r = UsageRecord::sign_with_proof(&key, PeerId(2), 1, 20_000, 1, nonce, Some(proof));
        // Even a valid proof cannot be confirmed without the bytes.
        assert_eq!(acct.settle(&r), Err(RejectReason::UnbackedServe));
    }
}

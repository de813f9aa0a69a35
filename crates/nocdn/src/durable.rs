//! Crash-consistent provider accounting.
//!
//! The accounting state is the payment basis — issuances, the nonce
//! replay registry, and accepted byte counts. If a provider restart
//! forgot the nonce registry, every already-settled record could be
//! replayed for double payment; if it forgot issuances, honest peers'
//! uploads would bounce. [`DurableAccounting`] WAL-logs both mutating
//! paths ([`Accounting::issue`] and [`Accounting::settle`]) so the full
//! anti-fraud state survives power loss.
//!
//! Three properties this module is careful about:
//!
//! - **The master secret never touches stable storage.** `issue` logs
//!   the *derived* short-term key (see
//!   [`crate::accounting::derive_issue_key`]), so the WAL compromise
//!   blast radius is the outstanding short-term keys, not the master.
//! - **Settlement is idempotent across crashes.** An acked settle is
//!   committed, so a client/peer retrying the same record after the
//!   provider recovers gets [`RejectReason::Replay`] and the bytes are
//!   *not* double-credited. A settle that was in flight (never acked)
//!   when power failed is absent after recovery, and the retry then
//!   settles normally — exactly the at-most-once contract the paper's
//!   nonce scheme promises.
//! - **Puzzle verdicts replay without the object store.** The
//!   accountability-puzzle proof is verified *before* the settle is
//!   logged, and the verdict byte is part of the logged op — recovery
//!   re-applies the verdict deterministically instead of needing the
//!   authentic object bytes (which live outside the WAL) again.

use crate::accounting::{Accounting, PuzzleCheck, RejectReason, Settlement, UsageRecord};
use crate::peer::PeerId;
use crate::puzzle::PuzzleSpec;
use bytes::Bytes;
use hpop_durability::{wire, DurabilityConfig, Journal, Machine};
use hpop_netsim::storage::{DiskError, SimDisk};
use std::ops::{Deref, DerefMut};

/// One logged accounting mutation.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are the arguments of `Accounting::issue_with_objects`
pub enum AcctOp {
    /// An issuance with its already-derived short-term key and the
    /// object paths mapped to the peer.
    Issue {
        client: u64,
        peer: PeerId,
        max_bytes: u64,
        objects: Vec<String>,
        key: [u8; 32],
    },
    /// One uploaded usage record with its pre-computed puzzle verdict.
    Settle { settlement: Settlement },
}

wire! { enum AcctOp {
    Issue { client, peer, max_bytes, objects, key } = 1,
    Settle { settlement } = 2,
} }

impl AcctOp {
    fn settle(record: UsageRecord, verdict: PuzzleCheck) -> AcctOp {
        let settlement = Settlement { record, verdict };
        AcctOp::Settle { settlement }
    }
}

/// The journaled half of [`Accounting`]: an issuance whose key is
/// already derived, a settlement whose puzzle verdict is already
/// reached. An issuance always answers `Ok`.
impl Machine for Accounting {
    type Op = AcctOp;
    type Outcome = Result<(), RejectReason>;

    fn run(&mut self, op: AcctOp) -> Result<(), RejectReason> {
        match op {
            AcctOp::Issue {
                client,
                peer,
                max_bytes,
                objects,
                key,
            } => {
                self.apply_issue(client, peer, max_bytes, objects, key);
                Ok(())
            }
            AcctOp::Settle { settlement } => {
                self.settle_checked(&settlement.record, settlement.verdict)
            }
        }
    }
}

/// Crash-consistent provider-side accounting: issuances and settlements
/// are durable before they are acknowledged, so the nonce registry —
/// the replay defense — survives restarts. Recovery report, committed
/// sequence number and the device are the [`Journal`]'s, reached by
/// deref.
#[derive(Debug)]
pub struct DurableAccounting {
    journal: Journal<Accounting>,
    /// The accountability-puzzle policy. Provider configuration, not
    /// payment state: re-set after every open, like the master secret.
    puzzle: Option<PuzzleSpec>,
}

impl Deref for DurableAccounting {
    type Target = Journal<Accounting>;
    fn deref(&self) -> &Journal<Accounting> {
        &self.journal
    }
}

/// For the device (`disk_mut`): an op run on the journal directly
/// bypasses the puzzle check [`DurableAccounting::settle_with`] makes.
impl DerefMut for DurableAccounting {
    fn deref_mut(&mut self) -> &mut Journal<Accounting> {
        &mut self.journal
    }
}

impl DurableAccounting {
    /// Opens (recovers or initializes) accounting state under `dir`.
    pub fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        Ok(DurableAccounting {
            journal: Journal::open(disk, dir, cfg)?,
            puzzle: None,
        })
    }

    /// Turns the accountability-puzzle defense on for subsequent
    /// settlements. Configuration, not logged state — call it again
    /// after each open (recovery replays logged *verdicts*, so past
    /// settlements do not depend on this being set).
    pub fn set_puzzle(&mut self, spec: PuzzleSpec) {
        self.puzzle = Some(spec);
    }

    /// Durable [`Accounting::issue`]: derives the short-term key, logs
    /// the issuance (key included, master excluded), applies it, and
    /// returns the key to embed in the wrapper page.
    pub fn issue(
        &mut self,
        client: u64,
        peer: PeerId,
        max_bytes: u64,
        master: &[u8; 32],
    ) -> Result<[u8; 32], DiskError> {
        self.issue_with_objects(client, peer, max_bytes, &[], master)
    }

    /// [`DurableAccounting::issue`] recording the object paths mapped
    /// to the peer, so puzzle proofs can be verified at settle time.
    pub fn issue_with_objects(
        &mut self,
        client: u64,
        peer: PeerId,
        max_bytes: u64,
        objects: &[String],
        master: &[u8; 32],
    ) -> Result<[u8; 32], DiskError> {
        let key = crate::accounting::derive_issue_key(master, client, peer, max_bytes);
        let objects = objects.to_vec();
        let op = AcctOp::Issue {
            client,
            peer,
            max_bytes,
            objects,
            key,
        };
        self.journal
            .run(op)?
            .expect("an issuance is never rejected");
        Ok(key)
    }

    /// Durable [`Accounting::settle`]. The inner result is the normal
    /// accept/reject verdict; it is recorded only after the record is
    /// committed, so a crash-retry of an accepted record is rejected as
    /// a [`RejectReason::Replay`] instead of double-crediting. With the
    /// puzzle policy on, this no-resolver form fails closed
    /// ([`RejectReason::UnbackedServe`]) — use
    /// [`DurableAccounting::settle_with`].
    pub fn settle(&mut self, record: &UsageRecord) -> Result<Result<(), RejectReason>, DiskError> {
        self.settle_with(record, |_| None)
    }

    /// Durable [`Accounting::settle_with`]: the puzzle proof is checked
    /// against the authentic bytes *before* the op is logged, and the
    /// verdict travels in the op — so recovery replays deterministically
    /// without the object store.
    pub fn settle_with<F>(
        &mut self,
        record: &UsageRecord,
        resolve: F,
    ) -> Result<Result<(), RejectReason>, DiskError>
    where
        F: FnMut(&str) -> Option<Bytes>,
    {
        let verdict = match self.puzzle {
            None => PuzzleCheck::NotRequired,
            Some(spec) => self.accounting().check_puzzle(record, &spec, resolve),
        };
        self.journal.run(AcctOp::settle(record.clone(), verdict))
    }

    /// Read-only view of the recovered/live accounting state.
    pub fn accounting(&self) -> &Accounting {
        self.journal.state()
    }

    /// Tears down the process, keeping the platters.
    pub fn into_disk(self) -> SimDisk {
        self.journal.into_disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_crypto::nonce::Nonce;
    use hpop_crypto::puzzle::{self, PuzzleParams, PuzzleProof};
    use hpop_durability::{codec, crash_matrix};

    const MASTER: [u8; 32] = [42u8; 32];

    fn cfg() -> DurabilityConfig {
        DurabilityConfig {
            max_segment_bytes: 512,
            snapshot_every_ops: 4,
        }
    }

    #[test]
    fn issue_and_settle_survive_restart() {
        let mut acct = DurableAccounting::open(SimDisk::new(7), "acct", cfg()).unwrap();
        let key = acct.issue(1, PeerId(5), 1000, &MASTER).unwrap();
        let r = UsageRecord::sign(&key, PeerId(5), 1, 800, 3, Nonce(77));
        assert_eq!(acct.settle(&r).unwrap(), Ok(()));

        let mut disk = acct.into_disk();
        disk.restart();
        let acct = DurableAccounting::open(disk, "acct", cfg()).unwrap();
        assert_eq!(acct.accounting().payable_bytes(PeerId(5)), 800);
        assert!(acct.accounting().rejections().is_empty());
    }

    /// Satellite regression: a record settled *and acked* before the
    /// crash must be rejected as a replay when re-uploaded after
    /// recovery — never double-credited.
    #[test]
    fn double_settle_across_crash_is_rejected() {
        let mut acct = DurableAccounting::open(SimDisk::new(8), "acct", cfg()).unwrap();
        let key = acct.issue(1, PeerId(5), 1000, &MASTER).unwrap();
        let r = UsageRecord::sign(&key, PeerId(5), 1, 800, 3, Nonce(77));
        assert_eq!(acct.settle(&r).unwrap(), Ok(()));

        let mut disk = acct.into_disk();
        disk.restart();
        let mut acct = DurableAccounting::open(disk, "acct", cfg()).unwrap();
        // The peer re-uploads the identical record after the outage.
        assert_eq!(acct.settle(&r).unwrap(), Err(RejectReason::Replay));
        assert_eq!(acct.accounting().payable_bytes(PeerId(5)), 800);
    }

    /// Satellite: a nonce issued before the crash and first settled
    /// *after* recovery settles normally — issuance durability means
    /// recovery doesn't orphan outstanding work.
    #[test]
    fn nonce_issued_pre_crash_settles_post_recovery() {
        let mut acct = DurableAccounting::open(SimDisk::new(9), "acct", cfg()).unwrap();
        let key = acct.issue(2, PeerId(6), 2000, &MASTER).unwrap();

        // Power fails during the settle's WAL append: the settle is not
        // acked and must be absent after recovery.
        let r = UsageRecord::sign(&key, PeerId(6), 2, 1500, 4, Nonce(99));
        let crash_at = acct.disk().steps();
        acct.disk_mut().arm_crash(crash_at);
        assert!(acct.settle(&r).is_err());

        let mut disk = acct.into_disk();
        disk.restart();
        let mut acct = DurableAccounting::open(disk, "acct", cfg()).unwrap();
        assert_eq!(acct.accounting().payable_bytes(PeerId(6)), 0);
        // The retry settles exactly once.
        assert_eq!(acct.settle(&r).unwrap(), Ok(()));
        assert_eq!(acct.settle(&r).unwrap(), Err(RejectReason::Replay));
        assert_eq!(acct.accounting().payable_bytes(PeerId(6)), 1500);
    }

    /// Puzzle-backed settlement survives restart, and its verdict
    /// replays deterministically *without* the resolver — the verdict
    /// travels in the WAL op.
    #[test]
    fn puzzle_verdict_replays_without_resolver() {
        let spec = PuzzleSpec::for_epoch(&MASTER, 1, PuzzleParams::default());
        let body = Bytes::from(vec![9u8; 10_000]);
        let paths = vec!["/a.bin".to_owned()];

        let mut acct = DurableAccounting::open(SimDisk::new(11), "acct", cfg()).unwrap();
        acct.set_puzzle(spec);
        let key = acct
            .issue_with_objects(1, PeerId(5), 10_000, &paths, &MASTER)
            .unwrap();
        let nonce = Nonce(42);
        let challenge = spec.challenge(1, PeerId(5), nonce);
        let (proof, _) = puzzle::solve(&challenge, &body[..], &spec.params);
        let backed =
            UsageRecord::sign_with_proof(&key, PeerId(5), 1, 10_000, 1, nonce, Some(proof));
        let body2 = body.clone();
        assert_eq!(
            acct.settle_with(&backed, |_| Some(body2.clone())).unwrap(),
            Ok(())
        );
        // A fabricated (proof-less) record from the same issuance.
        let fake = UsageRecord::sign(&key, PeerId(5), 1, 9_000, 1, Nonce(43));
        assert_eq!(
            acct.settle_with(&fake, |_| Some(body.clone())).unwrap(),
            Err(RejectReason::UnbackedServe)
        );

        // Restart WITHOUT re-supplying the resolver or the policy:
        // recovery replays logged verdicts, not live verification.
        let mut disk = acct.into_disk();
        disk.restart();
        let acct = DurableAccounting::open(disk, "acct", cfg()).unwrap();
        assert_eq!(acct.accounting().payable_bytes(PeerId(5)), 10_000);
        assert_eq!(
            acct.accounting().confirmed_offenders(),
            vec![(PeerId(5), 1)]
        );
    }

    /// The same issue/settle sequence through the bare [`Accounting`]
    /// and through the journal answers the same keys and verdicts and
    /// lands in the same payment state — with the puzzle policy on, so
    /// the verdict reached before logging matches the one the volatile
    /// path reaches inline.
    #[test]
    fn volatile_and_durable_accounting_agree() {
        let spec = PuzzleSpec::for_epoch(&MASTER, 1, PuzzleParams::default());
        let body = Bytes::from(vec![5u8; 4_000]);
        let paths = vec!["/a.bin".to_owned()];
        let mut vol = Accounting::new();
        vol.set_puzzle(spec);
        let mut dur = DurableAccounting::open(SimDisk::new(12), "acct", cfg()).unwrap();
        dur.set_puzzle(spec);

        let kv = vol.issue_with_objects(1, PeerId(5), 4_000, &paths, &MASTER);
        let kd = dur
            .issue_with_objects(1, PeerId(5), 4_000, &paths, &MASTER)
            .unwrap();
        assert_eq!(kv, kd, "derived keys agree");

        let challenge = spec.challenge(1, PeerId(5), Nonce(1));
        let (proof, _) = puzzle::solve(&challenge, &body[..], &spec.params);
        let records = [
            UsageRecord::sign_with_proof(&kv, PeerId(5), 1, 4_000, 1, Nonce(1), Some(proof)),
            // The same record again (a replay), a proof-less one, one
            // over the issued work, and one from a stranger.
            UsageRecord::sign(&kv, PeerId(5), 1, 3_000, 1, Nonce(2)),
            UsageRecord::sign(&kv, PeerId(5), 1, 9_000, 1, Nonce(3)),
            UsageRecord::sign(&kv, PeerId(6), 2, 10, 1, Nonce(4)),
        ];
        for record in [
            &records[0],
            &records[0],
            &records[1],
            &records[2],
            &records[3],
        ] {
            let v = vol.settle_with(record, |_| Some(body.clone()));
            let d = dur.settle_with(record, |_| Some(body.clone())).unwrap();
            assert_eq!(v, d, "verdicts agree for nonce {:?}", record.nonce);
        }
        assert_eq!(dur.accounting().payable_bytes(PeerId(5)), 4_000);
        assert_eq!(codec::encode(&vol), codec::encode(dur.accounting()));
        // Both providers count the bytes their one verified proof walked.
        assert!(vol.puzzle_verify_bytes() > 0);
        assert_eq!(
            dur.accounting().puzzle_verify_bytes(),
            vol.puzzle_verify_bytes()
        );
    }

    /// Exhaustive crash matrix over an issue/settle workload, including
    /// a rejected replay (failed ops replay deterministically too) and
    /// a puzzle-rejected record (verdict byte in the op).
    #[test]
    fn crash_matrix_over_accounting_workload() {
        let mut ops = Vec::new();
        for i in 0..5u64 {
            let peer = PeerId(i as u32);
            let key = crate::accounting::derive_issue_key(&MASTER, i, peer, 1000);
            ops.push(AcctOp::Issue {
                client: i,
                peer,
                max_bytes: 1000,
                objects: vec![format!("/obj-{i}.bin")],
                key,
            });
            let record = UsageRecord::sign(&key, peer, i, 400 + i * 100, 2, Nonce(i as u128));
            let verdict = if i == 2 {
                PuzzleCheck::Unbacked
            } else {
                PuzzleCheck::NotRequired
            };
            let settle = AcctOp::settle(record, verdict);
            ops.push(settle.clone());
            if i == 1 {
                // A replay attempt mid-workload.
                ops.push(settle);
            }
        }
        let outcome = crash_matrix::<Journal<Accounting>>(17, cfg(), &ops);
        assert!(outcome.baseline_steps > ops.len() as u64);
        assert!(outcome.torn_tails > 0);
        assert!(outcome.snapshots >= 2, "the matrix crosses a compaction");
    }

    /// Ops and snapshot as the hand-written encoders of commit 1fe8abc
    /// laid them out: an issuance, a proof-backed settle, a bare one
    /// judged unbacked, and the state after those three.
    const GOLDEN_OPS: [&[u8]; 3] = [
        b"\x01\x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\xe8\x03\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00/a.bin \x00\x00\x00\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07",
        b"\x02\x05\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00 \x03\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00M\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01 \x00\x00\x00\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x00\x00\x00\x00\x00\x00\x00 \x00\x00\x00\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02 \x00\x00\x00?T\xd9`\xcf+\x1ft\xb6\xe9\xc8z;\x90\xfe\xa5\xb1Yp\x81\x18X\xab\xc0a\xe2\xab\x81\x1a\xdeJ\xd5",
        b"\x02\x05\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x84\x03\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00N\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00 \x00\x00\x006*\x9e\xa8ES5Bd\xa7\xb5qu\x9aMI\x86\x99\xd7T(\x07\x81>\xb3>R\xac\'!\xc9\xa2",
    ];
    const GOLDEN_SNAPSHOT: &[u8] = b"\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\xe8\x03\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00/a.bin \x00\x00\x00\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x005M\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00 \x03\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x04";

    /// The format is frozen: today's codec writes and reads those bytes.
    #[test]
    fn byte_format_is_frozen() {
        let key = [7u8; 32];
        let proof = PuzzleProof {
            tag: [1u8; 32],
            checkpoints: vec![[2u8; 32]],
        };
        let ops = [
            AcctOp::Issue {
                client: 1,
                peer: PeerId(5),
                max_bytes: 1000,
                objects: vec!["/a.bin".to_owned()],
                key,
            },
            AcctOp::settle(
                UsageRecord::sign_with_proof(&key, PeerId(5), 1, 800, 3, Nonce(77), Some(proof)),
                PuzzleCheck::Verified,
            ),
            AcctOp::settle(
                UsageRecord::sign(&key, PeerId(5), 1, 900, 1, Nonce(78)),
                PuzzleCheck::Unbacked,
            ),
        ];
        hpop_durability::assert_format_frozen::<Accounting>(&ops, &GOLDEN_OPS, GOLDEN_SNAPSHOT);
        // A zero-capacity nonce window is refused, not asserted on.
        let mut empty_window = codec::encode(&Accounting::new());
        empty_window[8..16].fill(0);
        assert!(codec::decode::<Accounting>(&empty_window).is_none());
    }

    proptest::proptest! {
        #[test]
        fn decode_is_total(noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
            let [issue, settle, bare] = GOLDEN_OPS;
            hpop_durability::decode_is_total::<Accounting>(&[issue, settle, bare, GOLDEN_SNAPSHOT], &noise);
        }
    }
}

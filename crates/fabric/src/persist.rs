//! Durable fabric state: incarnation numbers and the reputation ledger.
//!
//! ## Why incarnations must survive a crash
//!
//! SWIM refutation is incarnation-based: a rejoining peer overrides the
//! death certificates circulating about it by re-announcing at a
//! *higher* incarnation than any record the membership holds. A cleanly
//! partitioned appliance remembers its incarnation and the scheme just
//! works — but a *crashed* appliance restarts with amnesia. If it
//! rejoins at incarnation 0 while the neighborhood holds `Dead@N`, its
//! announcements lose every merge until enough gossip about its own
//! death reaches it to trigger self-defense bumps past `N`. During that
//! window the peer is up yet believed dead — the "rejoin window" the
//! detector scoring used to special-case. [`IncarnationStore`] removes
//! the window at its source: every self-incarnation change is written
//! through to stable storage, and [`crate::Fabric::set_up`] resumes a
//! rejoining peer at `max(in-memory, persisted) + 1`, which is strictly
//! above anything the membership can hold.
//!
//! ## Why the ledger must survive a crash
//!
//! §IV-C: "a misbehaving peer can be expelled from the collective" —
//! but only if the evidence survives the collective's own restarts. A
//! reputation ledger that forgets on reboot gives every offender a
//! clean slate each power cut. [`DurableReputation`] WAL-logs each
//! violation; scores are replayed (same multiplicative order, same
//! floats) or restored from snapshots bit-for-bit.

use crate::member::PeerId;
use crate::reputation::{ReputationLedger, Violation};
use hpop_durability::codec;
use hpop_durability::{DurabilityConfig, Durable, Persistent, RecoveryReport};
use hpop_netsim::storage::{DiskError, SimDisk};
use std::collections::BTreeMap;

/// Peer id → highest self-incarnation ever announced.
#[derive(Clone, Debug, Default)]
pub struct IncMap {
    map: BTreeMap<PeerId, u64>,
}

impl Durable for IncMap {
    fn fresh() -> IncMap {
        IncMap::default()
    }

    fn encode_state(&self) -> Vec<u8> {
        codec::encode(&self.map)
    }

    fn decode_state(bytes: &[u8]) -> Option<IncMap> {
        codec::decode(bytes).map(|map| IncMap { map })
    }

    /// The op is `(id, incarnation)`.
    fn apply(&mut self, op: &[u8]) {
        if let Some((id, inc)) = codec::decode::<(PeerId, u64)>(op) {
            let cur = self.map.entry(id).or_insert(0);
            *cur = (*cur).max(inc);
        }
    }
}

/// Write-through store of each appliance's own incarnation number —
/// the NVRAM that survives power loss and lets a crashed peer rejoin
/// above every stale record about it.
#[derive(Clone, Debug)]
pub struct IncarnationStore {
    inner: Persistent<IncMap>,
}

impl IncarnationStore {
    /// Opens (recovers or initializes) the store under `dir`.
    pub fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        Ok(IncarnationStore {
            inner: Persistent::open(disk, dir, cfg)?,
        })
    }

    /// Durably records that `id` announced incarnation `inc`. Values
    /// only ever ratchet upward; recording a stale lower value is a
    /// committed no-op.
    pub fn record(&mut self, id: PeerId, inc: u64) -> Result<(), DiskError> {
        self.inner.execute(&codec::encode(&(id, inc)))
    }

    /// The highest incarnation ever recorded for `id` (0 if none).
    pub fn get(&self, id: PeerId) -> u64 {
        self.inner.state().map.get(&id).copied().unwrap_or(0)
    }

    /// How the last open recovered.
    pub fn last_recovery(&self) -> &RecoveryReport {
        self.inner.last_recovery()
    }

    /// Highest committed op sequence number.
    pub fn committed_seq(&self) -> u64 {
        self.inner.committed_seq()
    }

    /// The underlying device.
    pub fn disk(&self) -> &SimDisk {
        self.inner.disk()
    }

    /// Tears down the process, keeping the platters.
    pub fn into_disk(self) -> SimDisk {
        self.inner.into_disk()
    }
}

/// [`ReputationLedger`] as a [`Durable`] state. Scores are stored as
/// raw f64 bits, so a snapshot round-trip is exact; replay reproduces
/// them identically because violations apply in committed order.
#[derive(Clone, Debug, Default)]
pub struct RepState {
    ledger: ReputationLedger,
}

impl Durable for RepState {
    fn fresh() -> RepState {
        RepState::default()
    }

    fn encode_state(&self) -> Vec<u8> {
        codec::encode(&self.ledger)
    }

    fn decode_state(bytes: &[u8]) -> Option<RepState> {
        codec::decode(bytes).map(|ledger| RepState { ledger })
    }

    /// The op is `(id, violation)`.
    fn apply(&mut self, op: &[u8]) {
        if let Some((id, kind)) = codec::decode(op) {
            self.ledger.record_violation(id, kind);
        }
    }
}

/// Crash-consistent reputation: every recorded violation is durable
/// before it is acknowledged, so offenders do not get a clean slate
/// from a reboot.
#[derive(Clone, Debug)]
pub struct DurableReputation {
    inner: Persistent<RepState>,
}

impl DurableReputation {
    /// Opens (recovers or initializes) the ledger under `dir`.
    pub fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        Ok(DurableReputation {
            inner: Persistent::open(disk, dir, cfg)?,
        })
    }

    /// Durable [`ReputationLedger::record_violation`]; returns the new
    /// score.
    pub fn record_violation(&mut self, id: PeerId, kind: Violation) -> Result<f64, DiskError> {
        self.inner.execute(&codec::encode(&(id, kind)))?;
        Ok(self.inner.state().ledger.score(id))
    }

    /// Read-only view of the recovered/live ledger.
    pub fn ledger(&self) -> &ReputationLedger {
        &self.inner.state().ledger
    }

    /// How the last open recovered.
    pub fn last_recovery(&self) -> &RecoveryReport {
        self.inner.last_recovery()
    }

    /// The underlying device.
    pub fn disk(&self) -> &SimDisk {
        self.inner.disk()
    }

    /// Tears down the process, keeping the platters.
    pub fn into_disk(self) -> SimDisk {
        self.inner.into_disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_durability::{assert_format_frozen, crash_matrix};

    #[test]
    fn incarnations_ratchet_and_survive_restart() {
        let mut store =
            IncarnationStore::open(SimDisk::new(3), "inc", DurabilityConfig::default()).unwrap();
        store.record(PeerId(7), 3).unwrap();
        store.record(PeerId(7), 9).unwrap();
        store.record(PeerId(7), 5).unwrap(); // stale: committed no-op
        store.record(PeerId(8), 1).unwrap();
        assert_eq!(store.get(PeerId(7)), 9);

        let mut disk = store.into_disk();
        disk.restart();
        let store = IncarnationStore::open(disk, "inc", DurabilityConfig::default()).unwrap();
        assert_eq!(store.get(PeerId(7)), 9);
        assert_eq!(store.get(PeerId(8)), 1);
        assert_eq!(store.get(PeerId(9)), 0);
    }

    #[test]
    fn reputation_scores_survive_restart_bit_for_bit() {
        let mut rep =
            DurableReputation::open(SimDisk::new(4), "rep", DurabilityConfig::default()).unwrap();
        rep.record_violation(PeerId(1), Violation::Integrity)
            .unwrap();
        rep.record_violation(PeerId(1), Violation::Unresponsive)
            .unwrap();
        rep.record_violation(PeerId(2), Violation::ShardLoss)
            .unwrap();
        let s1 = rep.ledger().score(PeerId(1));
        let s2 = rep.ledger().score(PeerId(2));

        let mut disk = rep.into_disk();
        disk.restart();
        let rep = DurableReputation::open(disk, "rep", DurabilityConfig::default()).unwrap();
        assert_eq!(rep.ledger().score(PeerId(1)).to_bits(), s1.to_bits());
        assert_eq!(rep.ledger().score(PeerId(2)).to_bits(), s2.to_bits());
        assert_eq!(rep.ledger().violations(PeerId(1)), 2);
        assert_eq!(
            rep.ledger().violations_of(PeerId(1), Violation::Integrity),
            1
        );
    }

    #[test]
    fn crash_matrix_over_incarnation_and_reputation_ops() {
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            snapshot_every_ops: 4,
            keep_snapshots: 2,
        };
        let inc_ops: Vec<Vec<u8>> = (0..10u64)
            .map(|i| codec::encode(&(PeerId(i % 3), i + 1)))
            .collect();
        crash_matrix::<IncMap>(5, cfg, &inc_ops);

        let rep_ops: Vec<Vec<u8>> = (0..10u64)
            .map(|i| codec::encode(&(PeerId(i % 4), (i % 5) as u8)))
            .collect();
        crash_matrix::<RepState>(6, cfg, &rep_ops);
    }

    /// Op and snapshot pairs as the hand-written encoders of commit
    /// 1fe8abc laid them out: peer 7 at incarnation 9, and a shard-loss
    /// violation against peer 3.
    const GOLDEN_INC: [&[u8]; 2] = [
        b"\x07\x00\x00\x00\x00\x00\x00\x00\t\x00\x00\x00\x00\x00\x00\x00",
        b"\x01\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\t\x00\x00\x00\x00\x00\x00\x00",
    ];
    const GOLDEN_REP: [&[u8]; 2] = [
        b"\x03\x00\x00\x00\x00\x00\x00\x00\x03",
        b"\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\xcd\xcc\xcc\xcc\xcc\xcc\xe4?\x01\x00\x00\x00\x00\x00\x00\x00\x03\x01\x00\x00\x00",
    ];

    /// The format is frozen: today's codec writes and reads those bytes.
    #[test]
    fn byte_format_is_frozen() {
        let inc = codec::encode(&(PeerId(7), 9u64));
        assert_format_frozen::<IncMap>(&[inc], &GOLDEN_INC[..1], GOLDEN_INC[1]);
        let rep = codec::encode(&(PeerId(3), Violation::ShardLoss));
        assert_format_frozen::<RepState>(&[rep], &GOLDEN_REP[..1], GOLDEN_REP[1]);
    }

    proptest::proptest! {
        #[test]
        fn decode_is_total(noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
            hpop_durability::decode_is_total::<IncMap>(&GOLDEN_INC, &noise);
            hpop_durability::decode_is_total::<RepState>(&GOLDEN_REP, &noise);
        }
    }
}

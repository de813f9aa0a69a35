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
use hpop_durability::{wire, DurabilityConfig, Journal, Machine};
use hpop_netsim::storage::{DiskError, SimDisk};
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

/// Peer id → highest self-incarnation ever announced.
#[derive(Clone, Debug, Default)]
pub struct IncMap {
    map: BTreeMap<PeerId, u64>,
}

wire! { struct IncMap { map } }

impl Machine for IncMap {
    /// `(id, incarnation)`.
    type Op = (PeerId, u64);
    type Outcome = ();

    fn run(&mut self, (id, inc): (PeerId, u64)) {
        let cur = self.map.entry(id).or_insert(0);
        *cur = (*cur).max(inc);
    }
}

/// Write-through store of each appliance's own incarnation number —
/// the NVRAM that survives power loss and lets a crashed peer rejoin
/// above every stale record about it. Recovery report, committed
/// sequence number and the device are the [`Journal`]'s, reached by
/// deref.
#[derive(Clone, Debug)]
pub struct IncarnationStore {
    journal: Journal<IncMap>,
}

impl Deref for IncarnationStore {
    type Target = Journal<IncMap>;
    fn deref(&self) -> &Journal<IncMap> {
        &self.journal
    }
}

impl DerefMut for IncarnationStore {
    fn deref_mut(&mut self) -> &mut Journal<IncMap> {
        &mut self.journal
    }
}

impl IncarnationStore {
    /// Opens (recovers or initializes) the store under `dir`.
    pub fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        let journal = Journal::open(disk, dir, cfg)?;
        Ok(IncarnationStore { journal })
    }

    /// Durably records that `id` announced incarnation `inc`. Values
    /// only ever ratchet upward; recording a stale lower value is a
    /// committed no-op.
    pub fn record(&mut self, id: PeerId, inc: u64) -> Result<(), DiskError> {
        self.journal.run(&(id, inc))
    }

    /// The highest incarnation ever recorded for `id` (0 if none).
    pub fn get(&self, id: PeerId) -> u64 {
        self.journal.state().map.get(&id).copied().unwrap_or(0)
    }

    /// Tears down the process, keeping the platters.
    pub fn into_disk(self) -> SimDisk {
        self.journal.into_disk()
    }
}

/// Scores are stored as raw f64 bits, so a snapshot round-trip is
/// exact; replay reproduces them identically because violations apply
/// in committed order.
impl Machine for ReputationLedger {
    /// `(id, violation)`.
    type Op = (PeerId, Violation);
    /// The peer's new score.
    type Outcome = f64;

    fn run(&mut self, (id, kind): (PeerId, Violation)) -> f64 {
        self.record_violation(id, kind)
    }
}

/// Crash-consistent reputation: every recorded violation is durable
/// before it is acknowledged, so offenders do not get a clean slate
/// from a reboot. Recovery report, committed sequence number and the
/// device are the [`Journal`]'s, reached by deref.
#[derive(Clone, Debug)]
pub struct DurableReputation {
    journal: Journal<ReputationLedger>,
}

impl Deref for DurableReputation {
    type Target = Journal<ReputationLedger>;
    fn deref(&self) -> &Journal<ReputationLedger> {
        &self.journal
    }
}

impl DerefMut for DurableReputation {
    fn deref_mut(&mut self) -> &mut Journal<ReputationLedger> {
        &mut self.journal
    }
}

impl DurableReputation {
    /// Opens (recovers or initializes) the ledger under `dir`.
    pub fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        let journal = Journal::open(disk, dir, cfg)?;
        Ok(DurableReputation { journal })
    }

    /// Durable [`ReputationLedger::record_violation`]; returns the new
    /// score.
    pub fn record_violation(&mut self, id: PeerId, kind: Violation) -> Result<f64, DiskError> {
        self.journal.run(&(id, kind))
    }

    /// Read-only view of the recovered/live ledger.
    pub fn ledger(&self) -> &ReputationLedger {
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
        let inc_ops: Vec<_> = (0..10u64).map(|i| (PeerId(i % 3), i + 1)).collect();
        crash_matrix::<IncMap>(5, cfg, &inc_ops);

        let kinds = [
            Violation::Integrity,
            Violation::Accounting,
            Violation::Misrouting,
            Violation::ShardLoss,
            Violation::Unresponsive,
        ];
        let rep_ops: Vec<_> = (0..10u64)
            .map(|i| (PeerId(i % 4), kinds[i as usize % 5]))
            .collect();
        crash_matrix::<ReputationLedger>(6, cfg, &rep_ops);
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
        let inc = (PeerId(7), 9u64);
        assert_format_frozen::<IncMap>(&[inc], &GOLDEN_INC[..1], GOLDEN_INC[1]);
        let rep = (PeerId(3), Violation::ShardLoss);
        assert_format_frozen::<ReputationLedger>(&[rep], &GOLDEN_REP[..1], GOLDEN_REP[1]);
    }

    proptest::proptest! {
        #[test]
        fn decode_is_total(noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
            hpop_durability::decode_is_total::<IncMap>(&GOLDEN_INC, &noise);
            hpop_durability::decode_is_total::<ReputationLedger>(&GOLDEN_REP, &noise);
        }
    }
}

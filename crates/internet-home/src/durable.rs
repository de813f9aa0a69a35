//! Crash-consistent cooperative-cache index.
//!
//! §IV-D's whole premise is that the neighborhood *avoids duplicate
//! retrievals*: one uplink crossing per object, shared laterally
//! forever after. That bookkeeping — which member's HPoP holds which
//! object — is only worth anything if it survives a restart: the
//! cached bytes sit on HPoP disks and outlive a power cut, but an
//! in-memory index would forget where everything is and the
//! neighborhood would re-cross the scarce aggregation uplink for
//! content it already holds. [`DurableCoop`] write-through journals
//! every origin fill and membership change into a WAL+snapshot store,
//! so a reopened neighborhood resumes with its index intact.
//!
//! Liveness beliefs, breaker circuits and traffic statistics are
//! deliberately *not* persisted: they are runtime health state, stale
//! by definition after a crash, and restart fresh.

use crate::coop::{CoopCache, FetchTier};
use hpop_durability::codec::{ByteReader, ByteWriter, Wire};
use hpop_durability::{wire, DurabilityConfig, Journal, Machine};
use hpop_fabric::PeerView;
use hpop_http::url::Url;
use hpop_netsim::storage::{DiskError, SimDisk};
use hpop_netsim::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut};

/// A cached object's URL as the journal carries it: its string form.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WireUrl(Url);

impl Wire for WireUrl {
    fn put(&self, w: &mut ByteWriter) {
        w.str(&self.0.to_string());
    }
    fn take(r: &mut ByteReader<'_>) -> Option<WireUrl> {
        r.str()?.parse().ok().map(WireUrl)
    }
}

/// One journaled index mutation: `kind(1) member(4)`, and a fill
/// carries the URL after.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // every field is the member the op is about, or the URL it cached
pub enum IndexOp {
    /// `member` cached `url` after an origin fill.
    Fill { member: u32, url: WireUrl },
    /// `member` joined the neighborhood.
    AddMember { member: u32 },
    /// `member` left, taking its cached objects with it.
    RemoveMember { member: u32 },
}

wire! { enum IndexOp {
    Fill { member, url } = 1,
    AddMember { member } = 2,
    RemoveMember { member } = 3,
} }

/// The durable member → cached-object index.
#[derive(Clone, Debug, Default)]
pub struct IndexState {
    members: BTreeMap<u32, BTreeSet<WireUrl>>,
}

wire! { struct IndexState { members } }

impl IndexState {
    fn contents(&self) -> BTreeMap<u32, BTreeSet<Url>> {
        let urls = |objs: &BTreeSet<WireUrl>| objs.iter().map(|u| u.0.clone()).collect();
        self.members
            .iter()
            .map(|(m, objs)| (*m, urls(objs)))
            .collect()
    }
}

impl Machine for IndexState {
    type Op = IndexOp;
    type Outcome = ();

    fn run(&mut self, op: IndexOp) {
        match op {
            IndexOp::Fill { member, url } => {
                self.members.entry(member).or_default().insert(url);
            }
            IndexOp::AddMember { member } => {
                self.members.entry(member).or_default();
            }
            IndexOp::RemoveMember { member } => {
                self.members.remove(&member);
            }
        }
    }
}

/// A [`CoopCache`] whose member → cached-object index survives crashes:
/// origin fills and membership changes are journaled before they are
/// acknowledged, and a reopened neighborhood resumes serving laterally
/// instead of re-crossing the uplink for content it already holds.
/// Recovery report, committed sequence number and the device are the
/// index [`Journal`]'s, reached by deref.
#[derive(Clone, Debug)]
pub struct DurableCoop {
    coop: CoopCache,
    index: Journal<IndexState>,
}

impl Deref for DurableCoop {
    type Target = Journal<IndexState>;
    fn deref(&self) -> &Journal<IndexState> {
        &self.index
    }
}

/// For the device (`disk_mut`): an op run on the index directly
/// bypasses the in-memory [`CoopCache`].
impl DerefMut for DurableCoop {
    fn deref_mut(&mut self) -> &mut Journal<IndexState> {
        &mut self.index
    }
}

impl DurableCoop {
    /// Opens (recovers or initializes) a neighborhood of `n` HPoPs
    /// under `dir`. A recovered index overrides `n`: membership and
    /// cache contents resume exactly as last committed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero and nothing was recovered.
    pub fn open(
        n: u32,
        disk: SimDisk,
        dir: &str,
        cfg: DurabilityConfig,
    ) -> Result<DurableCoop, DiskError> {
        let mut index: Journal<IndexState> = Journal::open(disk, dir, cfg)?;
        if index.state().members.is_empty() {
            assert!(n > 0, "a neighborhood needs at least one HPoP");
            for member in 0..n {
                index.run(IndexOp::AddMember { member })?;
            }
        }
        let coop = CoopCache::from_contents(index.state().contents());
        Ok(DurableCoop { coop, index })
    }

    /// Durable [`CoopCache::request_at`]: the origin fill (if the
    /// request caused one) is journaled before the tier is returned.
    ///
    /// # Panics
    ///
    /// Panics for unknown members.
    pub fn request_at(
        &mut self,
        member: u32,
        url: &Url,
        bytes: u64,
        now: SimTime,
    ) -> Result<FetchTier, DiskError> {
        let tier = self.coop.request_at(member, url, bytes, now);
        if let Some((member, filled)) = self.coop.take_last_fill() {
            let url = WireUrl(filled);
            self.index.run(IndexOp::Fill { member, url })?;
        }
        Ok(tier)
    }

    /// Time-blind [`DurableCoop::request_at`] (evaluated at the epoch).
    ///
    /// # Panics
    ///
    /// Panics for unknown members.
    pub fn request(&mut self, member: u32, url: &Url, bytes: u64) -> Result<FetchTier, DiskError> {
        self.request_at(member, url, bytes, SimTime::ZERO)
    }

    /// Durable [`CoopCache::add_member`].
    pub fn add_member(&mut self) -> Result<u32, DiskError> {
        let member = self.coop.add_member();
        self.index.run(IndexOp::AddMember { member })?;
        Ok(member)
    }

    /// Durable [`CoopCache::remove_member`]. Returns how many cached
    /// objects were lost with the member.
    ///
    /// # Panics
    ///
    /// Panics when removing the last member.
    pub fn remove_member(&mut self, member: u32) -> Result<usize, DiskError> {
        let lost = self.coop.remove_member(member);
        self.index.run(IndexOp::RemoveMember { member })?;
        Ok(lost)
    }

    /// Runtime-only liveness flip (never journaled — health state is
    /// stale by definition after a crash).
    ///
    /// # Panics
    ///
    /// Panics for unknown members.
    pub fn set_member_up(&mut self, member: u32, up: bool) {
        self.coop.set_member_up(member, up);
    }

    /// Runtime-only view adoption (see [`CoopCache::apply_view`]).
    pub fn apply_view(&mut self, view: &PeerView) {
        self.coop.apply_view(view);
    }

    /// Runtime-only breaker feedback (see
    /// [`CoopCache::report_lateral_outcome`]).
    ///
    /// # Panics
    ///
    /// Panics for unknown members.
    pub fn report_lateral_outcome(&mut self, member: u32, now: SimTime, ok: bool) {
        self.coop.report_lateral_outcome(member, now, ok);
    }

    /// Read access to the in-memory neighborhood.
    pub fn coop(&self) -> &CoopCache {
        &self.coop
    }

    /// Tears down the process, keeping the platters.
    pub fn into_disk(self) -> SimDisk {
        self.index.into_disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_durability::crash_matrix;

    fn u(i: u32) -> Url {
        Url::https("web.example", &format!("/obj{i}"))
    }

    fn fill(member: u32, obj: u32) -> IndexOp {
        let url = WireUrl(u(obj));
        IndexOp::Fill { member, url }
    }

    fn cfg() -> DurabilityConfig {
        DurabilityConfig {
            max_segment_bytes: 512,
            snapshot_every_ops: 6,
        }
    }

    #[test]
    fn warm_index_survives_restart() {
        let mut hood = DurableCoop::open(4, SimDisk::new(11), "coop", cfg()).unwrap();
        for i in 0..6 {
            hood.request(0, &u(i), 10_000).unwrap();
        }
        assert_eq!(hood.coop().stats().origin_fetches, 6);
        let stored = hood.coop().stored_objects();

        let mut disk = hood.into_disk();
        disk.restart();
        let mut hood = DurableCoop::open(4, disk, "coop", cfg()).unwrap();
        assert_eq!(hood.coop().stored_objects(), stored);
        // The reopened neighborhood serves everything laterally or
        // locally: zero fresh uplink crossings for known content.
        for i in 0..6 {
            let m = 1 + (i % 3);
            assert_ne!(hood.request(m, &u(i), 10_000).unwrap(), FetchTier::Origin);
        }
        assert_eq!(hood.coop().stats().origin_fetches, 0);
    }

    #[test]
    fn membership_changes_survive_restart() {
        let mut hood = DurableCoop::open(3, SimDisk::new(12), "coop", cfg()).unwrap();
        let newbie = hood.add_member().unwrap();
        assert_eq!(newbie, 3);
        hood.remove_member(0).unwrap();
        hood.request(newbie, &u(1), 500).unwrap();

        let mut disk = hood.into_disk();
        disk.restart();
        let hood = DurableCoop::open(3, disk, "coop", cfg()).unwrap();
        assert_eq!(hood.coop().member_count(), 3); // {1, 2, 3}
        assert!(hood.coop().contents().contains_key(&newbie));
        assert!(!hood.coop().contents().contains_key(&0));
    }

    #[test]
    fn crash_during_fill_forgets_only_that_fill() {
        let mut hood = DurableCoop::open(4, SimDisk::new(13), "coop", cfg()).unwrap();
        hood.request(0, &u(0), 1000).unwrap();
        // Crash inside the next fill's WAL append: the op never
        // commits, so the index must not remember it.
        let crash_at = hood.disk().steps();
        hood.disk_mut().arm_crash(crash_at);
        let err = hood.request(0, &u(1), 1000);
        assert!(err.is_err(), "armed crash should surface as a disk error");

        let mut disk = hood.into_disk();
        disk.restart();
        let mut hood = DurableCoop::open(4, disk, "coop", cfg()).unwrap();
        // Object 0 survived; object 1's fill was torn away and costs
        // exactly one more uplink crossing.
        assert_eq!(hood.coop().stored_objects(), 1);
        assert_eq!(hood.request(1, &u(1), 1000).unwrap(), FetchTier::Origin);
        assert_ne!(hood.request(2, &u(1), 1000).unwrap(), FetchTier::Origin);
    }

    #[test]
    fn crash_matrix_over_index_workload() {
        let mut ops: Vec<IndexOp> = (0..8u32).map(|i| fill(i % 3, i)).collect();
        ops.push(IndexOp::AddMember { member: 3 });
        ops.push(fill(3, 100));
        ops.push(IndexOp::RemoveMember { member: 1 });
        ops.extend((8..16u32).map(|i| fill(i % 4, i)));
        let outcome = crash_matrix::<IndexState>(14, cfg(), &ops);
        assert!(outcome.snapshots >= 2, "the matrix crosses a compaction");
    }

    /// Ops and snapshot as the hand-written encoders of commit 1fe8abc
    /// laid them out: add members 1 and 2, fill `obj7` at 2, remove
    /// member 1, and the state after those four.
    const GOLDEN_OPS: [&[u8]; 4] = [
        b"\x02\x01\x00\x00\x00",
        b"\x02\x02\x00\x00\x00",
        b"\x01\x02\x00\x00\x00\x18\x00\x00\x00https://web.example/obj7",
        b"\x03\x01\x00\x00\x00",
    ];
    const GOLDEN_SNAPSHOT: &[u8] = b"\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x18\x00\x00\x00https://web.example/obj7";

    /// The format is frozen: today's codec writes and reads those bytes.
    #[test]
    fn byte_format_is_frozen() {
        let ops = [
            IndexOp::AddMember { member: 1 },
            IndexOp::AddMember { member: 2 },
            fill(2, 7),
            IndexOp::RemoveMember { member: 1 },
        ];
        hpop_durability::assert_format_frozen::<IndexState>(&ops, &GOLDEN_OPS, GOLDEN_SNAPSHOT);
    }

    proptest::proptest! {
        #[test]
        fn decode_is_total(noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
            let [_, add, fill, remove] = GOLDEN_OPS;
            hpop_durability::decode_is_total::<IndexState>(&[add, fill, remove, GOLDEN_SNAPSHOT], &noise);
        }
    }
}

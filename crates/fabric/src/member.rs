//! Peer records and the per-node membership table.
//!
//! Each appliance keeps its own `MembershipTable`: what it currently
//! believes about every peer it has heard of. Beliefs are reconciled
//! SWIM-style — a record carries an *incarnation* number owned by the
//! peer it describes, and `MembershipTable::merge_record` applies the
//! standard precedence rules so that two tables exchanging records
//! always converge on the freshest knowledge.
//!
//! The table also owns three secondary indices over its records — the
//! non-terminal ids, the suspect ids and a floor under the oldest
//! tombstone — so the gossip tick can pick a probe target, find the
//! suspects to assess and decide whether anything is evictable without
//! walking the records. `records` is private and only the five
//! mutators write it; each routes its state change through `reindex`,
//! the single place the indices change. The records themselves sit in
//! a `ById` slot table, so a lookup is a bounds check.

use crate::by_id::ById;
use hpop_netsim::time::SimTime;
use std::fmt;

/// Identifies a peer appliance on the fabric.
///
/// Service-local identifiers (NoCDN `PeerId(u32)`, DCol `MemberId`,
/// coop member numbers) widen into this space and nothing else: peer
/// `n` of a service is peer `n` of the fabric, the shared namespace
/// underneath all four services.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PeerId(pub u64);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer-{}", self.0)
    }
}

/// SWIM-style liveness state of a peer, as believed by one observer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PeerState {
    /// Responding to probes (or gossiped as such).
    #[default]
    Alive,
    /// Suspicion raised (a probe went unanswered) but not yet declared dead;
    /// the peer can refute by bumping its incarnation.
    Suspect,
    /// Declared failed; evicted from selection.
    Dead,
    /// Departed voluntarily (clean goodbye); evicted, never suspected.
    Left,
}

impl PeerState {
    /// Precedence among states carrying the *same* incarnation: a
    /// stronger claim overrides a weaker one (alive < suspect < dead;
    /// `Left` is terminal and outranks everything).
    pub(crate) fn rank(self) -> u8 {
        match self {
            PeerState::Alive => 0,
            PeerState::Suspect => 1,
            PeerState::Dead => 2,
            PeerState::Left => 3,
        }
    }

    /// Whether this state makes the peer selectable for service work.
    pub fn is_alive(self) -> bool {
        self == PeerState::Alive
    }

    /// Whether this state is a tombstone (`Dead` / `Left`): never
    /// probed, and evicted once old enough.
    pub(crate) fn is_terminal(self) -> bool {
        matches!(self, PeerState::Dead | PeerState::Left)
    }
}

/// What a peer advertises about itself when it joins (and refreshes as
/// it gossips): the raw material of capacity- and locality-aware
/// selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Advertisement {
    /// Spare attic storage offered to peers, in bytes.
    pub storage_bytes: u64,
    /// Uplink capacity the appliance will commit, in Mbit/s.
    pub uplink_mbps: f64,
    /// Object slots offered to the NoCDN / coop caches.
    pub cache_slots: u32,
    /// RTT from the neighborhood aggregation point, in milliseconds —
    /// the locality proxy used for proximity ranking.
    pub rtt_ms: f64,
}

impl Default for Advertisement {
    fn default() -> Self {
        Advertisement {
            storage_bytes: 50 * 1024 * 1024 * 1024,
            uplink_mbps: 1000.0,
            cache_slots: 1024,
            rtt_ms: 10.0,
        }
    }
}

impl Advertisement {
    /// A dimensionless capacity score used for ranking: committed
    /// uplink weighted by offered storage (log-scaled so one huge disk
    /// does not dominate).
    pub fn capacity_score(&self) -> f64 {
        let storage_gb = (self.storage_bytes as f64 / 1e9).max(1.0);
        self.uplink_mbps * (1.0 + storage_gb.log10())
    }
}

/// One observer's belief about one peer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeerRecord {
    /// Who this record describes.
    pub id: PeerId,
    /// Believed liveness state.
    pub state: PeerState,
    /// Incarnation number owned by the described peer; bumped by the
    /// peer itself to refute suspicion when it rejoins.
    pub incarnation: u64,
    /// The peer's capacity/locality advertisement.
    pub advert: Advertisement,
    /// When this belief last changed (sim clock).
    pub updated_at: SimTime,
}

impl PeerRecord {
    /// A fresh alive record at incarnation zero.
    pub fn alive(id: PeerId, advert: Advertisement, now: SimTime) -> PeerRecord {
        PeerRecord {
            id,
            state: PeerState::Alive,
            incarnation: 0,
            advert,
            updated_at: now,
        }
    }
}

/// One appliance's view of the membership: peer id → current belief.
#[derive(Clone, Debug, Default)]
pub(crate) struct MembershipTable {
    records: ById<PeerRecord>,
    /// Ids of the records in a non-terminal state, ascending.
    live: Vec<PeerId>,
    /// Ids of the `Suspect` records, ascending.
    suspects: Vec<PeerId>,
    /// No tombstone has an `updated_at` below this (`None`: there is
    /// no tombstone). A lower bound, not the minimum: a refuted
    /// tombstone leaves it where it was until the next eviction sweep
    /// recomputes it.
    terminal_floor: Option<SimTime>,
}

/// Adds `id` to, or removes it from, an ascending id list.
fn set_member(ids: &mut Vec<PeerId>, id: PeerId, member: bool) {
    match (ids.binary_search(&id), member) {
        (Err(pos), true) => ids.insert(pos, id),
        (Ok(pos), false) => {
            ids.remove(pos);
        }
        _ => {}
    }
}

impl MembershipTable {
    /// Number of peers this table knows about (any state).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// The record for `id`, if known.
    pub fn get(&self, id: PeerId) -> Option<&PeerRecord> {
        self.records.get(id)
    }

    /// Iterates over all records in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &PeerRecord> {
        self.records.values()
    }

    /// Ids currently believed alive.
    pub fn alive_ids(&self) -> Vec<PeerId> {
        self.records
            .values()
            .filter(|r| r.state.is_alive())
            .map(|r| r.id)
            .collect()
    }

    /// Ids in a non-terminal state (alive or suspect), ascending: the
    /// peers worth probing.
    pub fn live_ids(&self) -> &[PeerId] {
        &self.live
    }

    /// Ids currently held `Suspect`, ascending.
    pub fn suspect_ids(&self) -> &[PeerId] {
        &self.suspects
    }

    /// Brings the indices in line with `id`'s record having gone from
    /// state `was` (`None`: no record) to `state`, stamped `updated_at`.
    fn reindex(
        &mut self,
        id: PeerId,
        was: Option<PeerState>,
        state: PeerState,
        updated_at: SimTime,
    ) {
        let live = !state.is_terminal();
        if was.is_some_and(|s| !s.is_terminal()) != live {
            set_member(&mut self.live, id, live);
        }
        let suspect = state == PeerState::Suspect;
        if (was == Some(PeerState::Suspect)) != suspect {
            set_member(&mut self.suspects, id, suspect);
        }
        if !live {
            self.terminal_floor = Some(
                self.terminal_floor
                    .map_or(updated_at, |f| f.min(updated_at)),
            );
        }
    }

    /// Inserts or overwrites a record unconditionally (used by the
    /// record's owner — a node always trusts itself).
    pub fn upsert(&mut self, record: PeerRecord) {
        let was = self.records.insert(record.id, record).map(|r| r.state);
        self.reindex(record.id, was, record.state, record.updated_at);
    }

    /// Refreshes the owner's own record in place (alive, stamped
    /// `now`) without cloning — the per-tick self-heartbeat.
    pub fn touch_self(&mut self, id: PeerId, now: SimTime) {
        if let Some(r) = self.records.get_mut(id) {
            let was = std::mem::replace(&mut r.state, PeerState::Alive);
            r.updated_at = now;
            self.reindex(id, Some(was), PeerState::Alive, now);
        }
    }

    /// Merges a gossiped record under SWIM precedence: a higher
    /// incarnation always wins; at equal incarnations the stronger
    /// state claim wins. Returns `true` when the local belief changed
    /// (i.e. the update is worth re-gossiping).
    pub fn merge_record(&mut self, incoming: &PeerRecord) -> bool {
        let was = match self.records.get_mut(incoming.id) {
            None => {
                self.records.insert(incoming.id, *incoming);
                None
            }
            Some(current) => {
                let newer = incoming.incarnation > current.incarnation
                    || (incoming.incarnation == current.incarnation
                        && incoming.state.rank() > current.state.rank());
                if !newer {
                    return false;
                }
                Some(std::mem::replace(current, *incoming).state)
            }
        };
        self.reindex(incoming.id, was, incoming.state, incoming.updated_at);
        true
    }

    /// Changes the believed state of `id` (same incarnation), stamping
    /// the update time. Returns `false` if the peer is unknown or the
    /// transition is a downgrade (e.g. dead → suspect).
    pub fn set_state(&mut self, id: PeerId, state: PeerState, now: SimTime) -> bool {
        match self.records.get_mut(id) {
            Some(r) if state.rank() > r.state.rank() => {
                let was = std::mem::replace(&mut r.state, state);
                r.updated_at = now;
                self.reindex(id, Some(was), state, now);
                true
            }
            _ => false,
        }
    }

    /// Removes every record in a terminal state (`Dead` / `Left`) that
    /// has been terminal since before `cutoff`. Returns how many were
    /// evicted — dead peers do not linger in memory forever. Walks the
    /// records only when the tombstone floor says one can be that old.
    pub fn evict_terminal_before(&mut self, cutoff: SimTime) -> usize {
        if self.terminal_floor.is_none_or(|floor| floor >= cutoff) {
            return 0;
        }
        let before = self.records.len();
        let mut floor: Option<SimTime> = None;
        self.records.retain(|r| {
            if !r.state.is_terminal() {
                return true;
            }
            if r.updated_at < cutoff {
                return false;
            }
            floor = Some(floor.map_or(r.updated_at, |f| f.min(r.updated_at)));
            true
        });
        self.terminal_floor = floor;
        before - self.records.len()
    }
}

#[cfg(test)]
impl MembershipTable {
    /// How many id slots the record table spans.
    pub(crate) fn span(&self) -> usize {
        self.records.span()
    }

    /// Panics unless the indices are what a walk over the records
    /// derives: the same live and suspect ids, and a floor at or under
    /// the oldest tombstone (`exact_floor`: exactly at it, which holds
    /// right after an eviction sweep).
    pub(crate) fn assert_indices_match_records(&self, exact_floor: bool) {
        let ids_where = |keep: fn(PeerState) -> bool| -> Vec<PeerId> {
            self.iter()
                .filter(|r| keep(r.state))
                .map(|r| r.id)
                .collect()
        };
        assert_eq!(self.live, ids_where(|s| !s.is_terminal()));
        assert_eq!(self.suspects, ids_where(|s| s == PeerState::Suspect));
        let oldest = self
            .iter()
            .filter(|r| r.state.is_terminal())
            .map(|r| r.updated_at)
            .min();
        if exact_floor {
            assert_eq!(self.terminal_floor, oldest);
        } else if let Some(oldest) = oldest {
            assert!(self.terminal_floor.is_some_and(|floor| floor <= oldest));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn rec(id: u64, state: PeerState, inc: u64) -> PeerRecord {
        PeerRecord {
            id: PeerId(id),
            state,
            incarnation: inc,
            advert: Advertisement::default(),
            updated_at: t(0),
        }
    }

    #[test]
    fn merge_prefers_higher_incarnation() {
        let mut m = MembershipTable::default();
        assert!(m.merge_record(&rec(1, PeerState::Dead, 0)));
        // The peer rejoined with a bumped incarnation: alive@1 beats dead@0.
        assert!(m.merge_record(&rec(1, PeerState::Alive, 1)));
        assert_eq!(m.get(PeerId(1)).unwrap().state, PeerState::Alive);
        // Stale dead@0 no longer applies.
        assert!(!m.merge_record(&rec(1, PeerState::Dead, 0)));
        assert_eq!(m.get(PeerId(1)).unwrap().state, PeerState::Alive);
    }

    #[test]
    fn merge_prefers_stronger_state_at_equal_incarnation() {
        let mut m = MembershipTable::default();
        m.merge_record(&rec(1, PeerState::Alive, 3));
        assert!(m.merge_record(&rec(1, PeerState::Suspect, 3)));
        assert!(m.merge_record(&rec(1, PeerState::Dead, 3)));
        // Weaker claims at the same incarnation are ignored.
        assert!(!m.merge_record(&rec(1, PeerState::Alive, 3)));
        assert_eq!(m.get(PeerId(1)).unwrap().state, PeerState::Dead);
    }

    #[test]
    fn set_state_only_upgrades() {
        let mut m = MembershipTable::default();
        m.upsert(PeerRecord::alive(PeerId(1), Advertisement::default(), t(0)));
        assert!(m.set_state(PeerId(1), PeerState::Suspect, t(1)));
        assert!(!m.set_state(PeerId(1), PeerState::Alive, t(2)));
        assert!(m.set_state(PeerId(1), PeerState::Dead, t(3)));
        assert!(!m.set_state(PeerId(9), PeerState::Dead, t(3)));
    }

    #[test]
    fn eviction_reaps_old_terminal_records() {
        let mut m = MembershipTable::default();
        m.upsert(rec(1, PeerState::Dead, 0));
        m.upsert(rec(2, PeerState::Alive, 0));
        let mut dead_old = rec(3, PeerState::Left, 0);
        dead_old.updated_at = t(0);
        m.upsert(dead_old);
        assert_eq!(m.evict_terminal_before(t(5)), 2);
        assert_eq!(m.len(), 1);
        assert!(m.get(PeerId(2)).is_some());
    }

    #[test]
    fn capacity_score_orders_sensibly() {
        let small = Advertisement {
            storage_bytes: 1_000_000_000,
            uplink_mbps: 100.0,
            ..Advertisement::default()
        };
        let big = Advertisement {
            storage_bytes: 1_000_000_000_000,
            uplink_mbps: 1000.0,
            ..Advertisement::default()
        };
        assert!(big.capacity_score() > small.capacity_score());
    }
}

//! [`PeerView`]: the peer table services hold and select peers through.
//!
//! [`Fabric::view`](crate::Fabric::view) takes one as a snapshot of an
//! observer's membership table plus the shared reputation ledger and
//! uptime accounting. Services never walk membership tables directly;
//! they ask a view for *alive peers, filtered and ranked* by whichever
//! axis their workload cares about — storage capacity for attic shard
//! placement, locality for NoCDN edge selection, reputation everywhere.
//!
//! A service that enrols its own peers (NoCDN's directory, the detour
//! collective) keeps a `PeerView` of them as its table: it
//! [`insert`](PeerView::insert)s each peer it enrols under the peer's
//! fabric id, and [`adopt`](PeerView::adopt)s the liveness and uptime a
//! fresh fabric snapshot reports for those same ids.

use crate::member::{Advertisement, PeerId, PeerState};
use std::collections::BTreeSet;

/// One peer as seen through a view.
#[derive(Clone, Debug)]
pub struct PeerEntry {
    /// The peer's fabric id.
    pub id: PeerId,
    /// Believed liveness state.
    pub state: PeerState,
    /// Capacity/locality advertisement.
    pub advert: Advertisement,
    /// Observed fraction of time this peer has been up, in `[0, 1]`.
    pub uptime_fraction: f64,
    /// Reputation score from the shared ledger, in `[0, 1]`.
    pub reputation: f64,
}

impl PeerEntry {
    /// The composite desirability score used by [`RankBy::Composite`]:
    /// reputation-weighted uptime and capacity, discounted by distance.
    pub fn composite_score(&self) -> f64 {
        self.reputation * self.uptime_fraction * self.advert.capacity_score()
            / (1.0 + self.advert.rtt_ms)
    }
}

/// Ranking axes for [`PeerView::ranked`] and [`PeerView::select`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RankBy {
    /// Highest advertised capacity first (attic shard placement).
    Capacity,
    /// Lowest RTT first (NoCDN proximity, coop laterals).
    Locality,
    /// Highest reputation first, uptime as tie-break.
    Reputation,
    /// Highest observed uptime first (durability-sensitive placement).
    Uptime,
    /// The blended score of [`PeerEntry::composite_score`].
    Composite,
}

/// A queryable table of peers, one entry per id, ascending by id.
#[derive(Clone, Debug, Default)]
pub struct PeerView {
    entries: Vec<PeerEntry>,
}

impl PeerView {
    /// A view over the given entries (sorted by id for determinism).
    pub fn new(mut entries: Vec<PeerEntry>) -> PeerView {
        entries.sort_by_key(|e| e.id);
        PeerView { entries }
    }

    fn position(&self, id: PeerId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |e| e.id)
    }

    /// Adds `entry`, replacing the entry already held for its id.
    pub fn insert(&mut self, entry: PeerEntry) {
        match self.position(entry.id) {
            Ok(i) => self.entries[i] = entry,
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// Sets the believed state of `id`; an unknown id is ignored.
    pub fn set_state(&mut self, id: PeerId, state: PeerState) {
        if let Ok(i) = self.position(id) {
            self.entries[i].state = state;
        }
    }

    /// Takes, for every id this view holds that `from` also has,
    /// `from`'s state and uptime fraction. Ids only one side knows are
    /// untouched: nothing is added or removed, and advertisement and
    /// reputation stay this view's own.
    pub fn adopt(&mut self, from: &PeerView) {
        for entry in &mut self.entries {
            if let Some(theirs) = from.get(entry.id) {
                entry.state = theirs.state;
                entry.uptime_fraction = theirs.uptime_fraction;
            }
        }
    }

    /// Every entry, alive or not, in id order.
    pub fn entries(&self) -> &[PeerEntry] {
        &self.entries
    }

    /// Total peers known (any state).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the view knows no peers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for `id`, if known.
    pub fn get(&self, id: PeerId) -> Option<&PeerEntry> {
        self.position(id).ok().map(|i| &self.entries[i])
    }

    /// Whether `id` is believed alive.
    pub fn is_alive(&self, id: PeerId) -> bool {
        self.get(id).is_some_and(|e| e.state.is_alive())
    }

    /// The alive entries, in id order.
    pub fn alive(&self) -> impl Iterator<Item = &PeerEntry> {
        self.entries.iter().filter(|e| e.state.is_alive())
    }

    /// Ids of alive peers, in id order.
    pub fn alive_ids(&self) -> Vec<PeerId> {
        self.alive().map(|e| e.id).collect()
    }

    /// Number of alive peers.
    pub fn alive_count(&self) -> usize {
        self.alive().count()
    }

    /// Observed uptime fraction of `id`, if known.
    pub fn uptime(&self, id: PeerId) -> Option<f64> {
        self.get(id).map(|e| e.uptime_fraction)
    }

    /// Alive peers ranked by the given axis (deterministic: ties break
    /// by id), optionally dropping peers below `min_reputation`.
    pub fn ranked_filtered(&self, by: RankBy, min_reputation: f64) -> Vec<PeerId> {
        let mut alive: Vec<&PeerEntry> = self
            .alive()
            .filter(|e| e.reputation >= min_reputation)
            .collect();
        let key = |e: &PeerEntry| -> f64 {
            match by {
                RankBy::Capacity => e.advert.capacity_score(),
                // Negated so "higher is better" holds for every axis.
                RankBy::Locality => -e.advert.rtt_ms,
                RankBy::Reputation => e.reputation + e.uptime_fraction * 1e-6,
                RankBy::Uptime => e.uptime_fraction,
                RankBy::Composite => e.composite_score(),
            }
        };
        alive.sort_by(|a, b| {
            key(b)
                .partial_cmp(&key(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        alive.into_iter().map(|e| e.id).collect()
    }

    /// Alive peers ranked by the given axis.
    pub fn ranked(&self, by: RankBy) -> Vec<PeerId> {
        self.ranked_filtered(by, 0.0)
    }

    /// The best `n` alive peers by `by`, excluding `exclude` — the
    /// retry primitive: pass the peers that already failed and get the
    /// next-best survivors.
    pub fn select(&self, n: usize, by: RankBy, exclude: &BTreeSet<PeerId>) -> Vec<PeerId> {
        self.ranked(by)
            .into_iter()
            .filter(|id| !exclude.contains(id))
            .take(n)
            .collect()
    }

    /// Per-peer uptime fractions of the given peers (for churn-aware
    /// availability math); unknown peers count as never-up.
    pub fn uptimes_of(&self, ids: &[PeerId]) -> Vec<f64> {
        ids.iter()
            .map(|&id| self.uptime(id).unwrap_or(0.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, rtt: f64, uplink: f64, up: f64, rep: f64, state: PeerState) -> PeerEntry {
        PeerEntry {
            id: PeerId(id),
            state,
            advert: Advertisement {
                rtt_ms: rtt,
                uplink_mbps: uplink,
                ..Advertisement::default()
            },
            uptime_fraction: up,
            reputation: rep,
        }
    }

    fn sample_view() -> PeerView {
        PeerView::new(vec![
            entry(0, 5.0, 1000.0, 0.99, 1.0, PeerState::Alive),
            entry(1, 50.0, 1000.0, 0.90, 1.0, PeerState::Alive),
            entry(2, 10.0, 100.0, 0.50, 0.25, PeerState::Alive),
            entry(3, 1.0, 2000.0, 0.99, 1.0, PeerState::Dead),
        ])
    }

    #[test]
    fn alive_filtering_excludes_dead() {
        let v = sample_view();
        assert_eq!(v.len(), 4);
        assert_eq!(v.alive_count(), 3);
        assert!(!v.is_alive(PeerId(3)));
        assert!(v.is_alive(PeerId(0)));
        assert_eq!(v.alive_ids(), vec![PeerId(0), PeerId(1), PeerId(2)]);
    }

    #[test]
    fn locality_ranking_orders_by_rtt() {
        let v = sample_view();
        assert_eq!(
            v.ranked(RankBy::Locality),
            vec![PeerId(0), PeerId(2), PeerId(1)]
        );
    }

    #[test]
    fn reputation_filter_drops_offenders() {
        let v = sample_view();
        let ranked = v.ranked_filtered(RankBy::Composite, 0.5);
        assert!(!ranked.contains(&PeerId(2)));
        assert_eq!(ranked.len(), 2);
    }

    #[test]
    fn select_skips_exclusions() {
        let v = sample_view();
        let mut failed = BTreeSet::new();
        failed.insert(PeerId(0));
        let picks = v.select(2, RankBy::Locality, &failed);
        assert_eq!(picks, vec![PeerId(2), PeerId(1)]);
    }

    #[test]
    fn uptimes_of_defaults_unknown_to_zero() {
        let v = sample_view();
        let ups = v.uptimes_of(&[PeerId(0), PeerId(42)]);
        assert!((ups[0] - 0.99).abs() < 1e-12);
        assert_eq!(ups[1], 0.0);
    }
}

//! The reputation ledger.
//!
//! §IV-B: "there is also a trustworthiness element" to peer selection;
//! §IV-C: "a misbehaving peer can be expelled from the collective".
//! Each service observes its own violation kinds (NoCDN content
//! corruption and usage-record inflation, DCol packet
//! dropping/misrouting, attic shard loss) but they all feed one shared
//! ledger, so a peer that corrupts CDN objects is *also* demoted as a
//! backup target and a waypoint. The score reaches every selection
//! through [`crate::view::PeerView`].

use crate::member::PeerId;
use hpop_durability::wire;
use std::collections::BTreeMap;

/// What a peer was observed doing wrong.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Violation {
    /// Served content failing hash verification (NoCDN).
    Integrity,
    /// Uploaded inflated or forged usage records (NoCDN accounting).
    Accounting,
    /// Dropped or corrupted relayed traffic (DCol waypoint duty).
    Misrouting,
    /// Lost or refused to return a stored backup shard (attic).
    ShardLoss,
    /// Repeatedly unreachable while advertised alive.
    Unresponsive,
}

impl Violation {
    /// Severity weight: how hard one violation of this kind hits the
    /// peer's reputation score.
    fn weight(self) -> f64 {
        match self {
            // Active attacks cost more than flakiness.
            Violation::Integrity | Violation::Accounting => 0.5,
            Violation::Misrouting | Violation::ShardLoss => 0.35,
            Violation::Unresponsive => 0.2,
        }
    }
}

/// Per-peer violation history.
#[derive(Clone, Debug, Default)]
struct PeerLedgerEntry {
    counts: BTreeMap<Violation, u32>,
    total: u32,
    score: f64,
}

/// The shared violation ledger: peer → history and derived score.
#[derive(Clone, Debug, Default)]
pub struct ReputationLedger {
    entries: BTreeMap<PeerId, PeerLedgerEntry>,
}

// The durable snapshot layout (`crate::persist`).
wire! { struct ReputationLedger { entries } }
wire! { struct PeerLedgerEntry { total, score, counts } }
wire! { enum Violation { Integrity = 0, Accounting = 1, Misrouting = 2, ShardLoss = 3, Unresponsive = 4 } }

impl ReputationLedger {
    /// An empty ledger (every peer starts at score 1.0).
    pub fn new() -> ReputationLedger {
        ReputationLedger::default()
    }

    /// Records one violation against `id`; returns the peer's new
    /// score in `[0, 1]`.
    pub fn record_violation(&mut self, id: PeerId, kind: Violation) -> f64 {
        let entry = self.entries.entry(id).or_insert_with(|| PeerLedgerEntry {
            counts: BTreeMap::new(),
            total: 0,
            score: 1.0,
        });
        *entry.counts.entry(kind).or_insert(0) += 1;
        entry.total += 1;
        entry.score *= 1.0 - kind.weight();
        hpop_obs::metrics()
            .counter("fabric.reputation.violation")
            .incr();
        entry.score
    }

    /// The peer's reputation score in `[0, 1]`; 1.0 when spotless.
    pub fn score(&self, id: PeerId) -> f64 {
        self.entries.get(&id).map_or(1.0, |e| e.score)
    }

    /// Total violations recorded against `id`.
    pub fn violations(&self, id: PeerId) -> u32 {
        self.entries.get(&id).map_or(0, |e| e.total)
    }

    /// Violations of one specific kind.
    pub fn violations_of(&self, id: PeerId, kind: Violation) -> u32 {
        self.entries
            .get(&id)
            .and_then(|e| e.counts.get(&kind))
            .copied()
            .unwrap_or(0)
    }

    /// True when the peer has a clean record.
    pub fn is_clean(&self, id: PeerId) -> bool {
        self.violations(id) == 0
    }

    /// Peers with at least one violation, worst first.
    pub fn offenders(&self) -> Vec<(PeerId, u32)> {
        let mut out: Vec<(PeerId, u32)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.total > 0)
            .map(|(&id, e)| (id, e.total))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_peers_score_one() {
        let l = ReputationLedger::new();
        assert_eq!(l.score(PeerId(7)), 1.0);
        assert!(l.is_clean(PeerId(7)));
    }

    #[test]
    fn violations_compound_and_count() {
        let mut l = ReputationLedger::new();
        let s1 = l.record_violation(PeerId(1), Violation::Integrity);
        let s2 = l.record_violation(PeerId(1), Violation::Integrity);
        assert!((s1 - 0.5).abs() < 1e-12);
        assert!((s2 - 0.25).abs() < 1e-12);
        assert_eq!(l.violations(PeerId(1)), 2);
        assert_eq!(l.violations_of(PeerId(1), Violation::Integrity), 2);
        assert_eq!(l.violations_of(PeerId(1), Violation::Accounting), 0);
        assert!(!l.is_clean(PeerId(1)));
    }

    #[test]
    fn severity_orders_kinds() {
        let mut l = ReputationLedger::new();
        l.record_violation(PeerId(1), Violation::Integrity);
        l.record_violation(PeerId(2), Violation::Unresponsive);
        assert!(l.score(PeerId(1)) < l.score(PeerId(2)));
    }

    #[test]
    fn offenders_sorted_worst_first() {
        let mut l = ReputationLedger::new();
        l.record_violation(PeerId(3), Violation::Misrouting);
        l.record_violation(PeerId(5), Violation::Integrity);
        l.record_violation(PeerId(5), Violation::Accounting);
        assert_eq!(l.offenders(), vec![(PeerId(5), 2), (PeerId(3), 1)]);
    }
}

//! Peer-selection policies, backed by the fabric membership layer.
//!
//! §IV-B calls peer selection "an open problem" without a traditional
//! CDN's secret sauce: "the standard metrics … also apply in the NoCDN
//! context — e.g., reachability, bandwidth, packet loss and delay.
//! However, there is also a trustworthiness element." These policies are
//! the ablation axis of experiment E4:
//!
//! - [`SelectionPolicy::Random`] — also the collusion mitigation
//!   ("including some randomness in the client-to-peer mappings").
//! - [`SelectionPolicy::RoundRobin`] — load spreading.
//! - [`SelectionPolicy::Proximity`] — lowest client↔peer RTT.
//! - [`SelectionPolicy::TrustWeighted`] — demote peers with integrity or
//!   accounting violations.
//!
//! The directory holds its recruits in a fabric [`PeerView`], each under
//! its fabric id — a NoCDN peer number *is* that peer's fabric id —
//! violations land on a [`ReputationLedger`] keyed the same way, and
//! liveness flows in from a gossip view via
//! [`PeerDirectory::sync_from_view`] — dead peers are evicted from
//! assignment automatically, and [`PeerDirectory::reassign`] retries
//! in-flight objects against surviving peers.

use crate::peer::PeerId;
use hpop_fabric::{Advertisement, PeerEntry, PeerState, PeerView, ReputationLedger, Violation};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Information the provider tracks about each recruited peer.
#[derive(Clone, Debug, Default)]
pub struct PeerInfo {
    /// Estimated client→peer RTT in milliseconds (telemetry).
    pub rtt_ms: f64,
    /// Integrity/accounting violations observed.
    pub violations: u32,
}

/// How the provider maps page objects to peers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SelectionPolicy {
    /// Uniform random peer per object.
    Random,
    /// Cycle through peers object by object.
    RoundRobin,
    /// Prefer the lowest-RTT peers.
    Proximity,
    /// Like proximity, but peers with violations are skipped entirely.
    TrustWeighted,
}

impl From<PeerId> for hpop_fabric::PeerId {
    fn from(id: PeerId) -> hpop_fabric::PeerId {
        hpop_fabric::PeerId(u64::from(id.0))
    }
}

/// The provider's peer directory plus selection state.
#[derive(Debug, Default)]
pub struct PeerDirectory {
    /// The recruits; uptime fractions read 1.0 until a sync.
    view: PeerView,
    ledger: ReputationLedger,
    rr_cursor: usize,
}

impl PeerDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recruits a peer ("content providers recruit well-connected
    /// users"): the peer joins the provider's table alive, and any
    /// pre-known violations seed the reputation ledger.
    pub fn recruit(&mut self, id: PeerId, info: PeerInfo) {
        let fid = hpop_fabric::PeerId::from(id);
        self.view.insert(PeerEntry {
            id: fid,
            state: PeerState::Alive,
            advert: Advertisement {
                rtt_ms: info.rtt_ms,
                ..Advertisement::default()
            },
            uptime_fraction: self.view.uptime(fid).unwrap_or(1.0),
            reputation: 1.0,
        });
        for _ in 0..info.violations {
            self.ledger.record_violation(fid, Violation::Integrity);
        }
    }

    /// Records a violation against a peer (integrity or accounting) —
    /// it lands on the reputation ledger under the peer's fabric id.
    pub fn record_violation(&mut self, id: PeerId) {
        if self.view.get(id.into()).is_some() {
            self.ledger
                .record_violation(id.into(), Violation::Integrity);
        }
    }

    /// Records `count` confirmed accounting violations against a peer —
    /// the feed from [`crate::accounting::Accounting::confirmed_offenders`]:
    /// each puzzle-rejected (fabricated) usage record is cryptographic
    /// evidence, so it lands on the fabric ledger as
    /// [`Violation::Accounting`] and the trust-weighted selection policy
    /// stops routing traffic to the peer.
    pub fn record_accounting_violations(&mut self, id: PeerId, count: u32) {
        if self.view.get(id.into()).is_some() {
            for _ in 0..count {
                self.ledger
                    .record_violation(id.into(), Violation::Accounting);
            }
        }
    }

    /// Number of recruited peers (any liveness state).
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// True when no peers are recruited.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Peer info, if recruited (RTT from the advertisement, violations
    /// from the ledger).
    pub fn info(&self, id: PeerId) -> Option<PeerInfo> {
        self.view.get(id.into()).map(|e| PeerInfo {
            rtt_ms: e.advert.rtt_ms,
            violations: self.ledger.violations(e.id),
        })
    }

    /// The reputation ledger (read access for accounting layers).
    pub fn ledger(&self) -> &ReputationLedger {
        &self.ledger
    }

    /// Adopts liveness and uptime state from a gossip [`PeerView`]:
    /// recruited peers the fabric believes dead stop being assigned;
    /// peers it has refuted back to life return. Peers unknown to the
    /// view keep their current state.
    pub fn sync_from_view(&mut self, view: &PeerView) {
        self.view.adopt(view);
    }

    /// Marks one peer dead (e.g. the provider's own probe failed
    /// before the gossip round confirmed it).
    pub fn mark_dead(&mut self, id: PeerId) {
        self.view.set_state(id.into(), PeerState::Dead);
    }

    /// Peers currently believed alive.
    pub fn alive_count(&self) -> usize {
        self.view.alive_count()
    }

    /// Alive candidate ids under a policy's trust filter, in id order.
    fn candidates(&self, policy: SelectionPolicy) -> Vec<PeerId> {
        self.view
            .alive()
            .filter(|e| policy != SelectionPolicy::TrustWeighted || self.ledger.is_clean(e.id))
            .map(|e| PeerId(e.id.0 as u32))
            .collect()
    }

    fn rtt_of(&self, id: PeerId) -> f64 {
        self.view
            .get(id.into())
            .map_or(f64::INFINITY, |e| e.advert.rtt_ms)
    }

    /// Assigns a peer to each object per the policy. Only peers
    /// believed alive are candidates.
    ///
    /// # Panics
    ///
    /// Panics if no recruited peer is alive, or if `TrustWeighted`
    /// filters every live peer out (the provider must fall back to
    /// origin serving — callers check [`PeerDirectory::trusted_count`]
    /// first).
    pub fn assign(
        &mut self,
        objects: &[String],
        policy: SelectionPolicy,
        rng: &mut StdRng,
    ) -> BTreeMap<String, PeerId> {
        assert!(self.alive_count() > 0, "no peers recruited");
        let candidates = self.candidates(policy);
        assert!(!candidates.is_empty(), "no trusted peers remain");
        let mut sorted_by_rtt = candidates.clone();
        sorted_by_rtt.sort_by(|a, b| {
            let ra = self.rtt_of(*a);
            let rb = self.rtt_of(*b);
            ra.partial_cmp(&rb).expect("finite RTTs").then(a.cmp(b))
        });
        let mut out = BTreeMap::new();
        for (i, obj) in objects.iter().enumerate() {
            let peer = match policy {
                SelectionPolicy::Random => candidates[rng.gen_range(0..candidates.len())],
                SelectionPolicy::RoundRobin => {
                    let p = candidates[self.rr_cursor % candidates.len()];
                    self.rr_cursor += 1;
                    p
                }
                SelectionPolicy::Proximity | SelectionPolicy::TrustWeighted => {
                    // Spread objects over the closest few peers rather
                    // than hammering only the single closest.
                    let window = sorted_by_rtt.len().min(3);
                    sorted_by_rtt[i % window]
                }
            };
            out.insert(obj.clone(), peer);
        }
        out
    }

    /// Picks a replacement peer for one in-flight object after the
    /// peers in `failed` did not deliver: the nearest surviving
    /// candidate not yet tried. `None` means every live peer has been
    /// exhausted and the loader must fall back to the origin.
    pub fn reassign(&self, policy: SelectionPolicy, failed: &BTreeSet<PeerId>) -> Option<PeerId> {
        let mut survivors: Vec<PeerId> = self
            .candidates(policy)
            .into_iter()
            .filter(|p| !failed.contains(p))
            .collect();
        survivors.sort_by(|a, b| {
            self.rtt_of(*a)
                .partial_cmp(&self.rtt_of(*b))
                .expect("finite RTTs")
                .then(a.cmp(b))
        });
        survivors.first().copied()
    }

    /// Peers alive with no violations.
    pub fn trusted_count(&self) -> usize {
        self.view
            .alive()
            .filter(|e| self.ledger.is_clean(e.id))
            .count()
    }

    /// Fabric-observed uptime fraction of a recruited peer (1.0 until
    /// a view sync provides churn history).
    pub fn uptime(&self, id: PeerId) -> Option<f64> {
        self.view.uptime(id.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn directory(n: u32) -> PeerDirectory {
        let mut d = PeerDirectory::new();
        for i in 0..n {
            d.recruit(
                PeerId(i),
                PeerInfo {
                    rtt_ms: 10.0 + i as f64 * 5.0,
                    violations: 0,
                },
            );
        }
        d
    }

    fn objects(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("/obj{i}")).collect()
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let mut d = directory(4);
        let mut rng = StdRng::seed_from_u64(1);
        let a = d.assign(&objects(8), SelectionPolicy::RoundRobin, &mut rng);
        let mut counts = BTreeMap::new();
        for p in a.values() {
            *counts.entry(*p).or_insert(0u32) += 1;
        }
        assert!(counts.values().all(|&c| c == 2), "{counts:?}");
    }

    #[test]
    fn proximity_prefers_low_rtt() {
        let mut d = directory(5);
        let mut rng = StdRng::seed_from_u64(1);
        let a = d.assign(&objects(9), SelectionPolicy::Proximity, &mut rng);
        // Only the 3 closest peers (ids 0,1,2) are used.
        assert!(a.values().all(|p| p.0 < 3), "{a:?}");
    }

    #[test]
    fn trust_weighted_excludes_violators() {
        let mut d = directory(3);
        d.record_violation(PeerId(0));
        d.record_violation(PeerId(0));
        assert_eq!(d.trusted_count(), 2);
        let mut rng = StdRng::seed_from_u64(1);
        let a = d.assign(&objects(10), SelectionPolicy::TrustWeighted, &mut rng);
        assert!(a.values().all(|p| p.0 != 0));
        assert_eq!(d.info(PeerId(0)).unwrap().violations, 2);
        // The violation landed on the fabric ledger, not a private count.
        assert_eq!(d.ledger().violations(hpop_fabric::PeerId(0)), 2);
    }

    #[test]
    fn accounting_violations_demote_trust() {
        let mut d = directory(3);
        d.record_accounting_violations(PeerId(1), 3);
        assert_eq!(d.trusted_count(), 2);
        assert_eq!(d.info(PeerId(1)).unwrap().violations, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let a = d.assign(&objects(10), SelectionPolicy::TrustWeighted, &mut rng);
        assert!(a.values().all(|p| p.0 != 1));
        // Unrecruited peers are ignored, not phantom-recorded.
        d.record_accounting_violations(PeerId(99), 5);
        assert_eq!(d.ledger().violations(hpop_fabric::PeerId(99)), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_unpredictable_across() {
        let mut d1 = directory(10);
        let mut d2 = directory(10);
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        assert_eq!(
            d1.assign(&objects(20), SelectionPolicy::Random, &mut r1),
            d2.assign(&objects(20), SelectionPolicy::Random, &mut r2)
        );
        let mut r3 = StdRng::seed_from_u64(8);
        let mut d3 = directory(10);
        assert_ne!(
            d1.assign(&objects(20), SelectionPolicy::Random, &mut r1),
            d3.assign(&objects(20), SelectionPolicy::Random, &mut r3)
        );
    }

    #[test]
    fn dead_peers_are_not_assigned() {
        let mut d = directory(4);
        d.mark_dead(PeerId(0));
        d.mark_dead(PeerId(2));
        assert_eq!(d.alive_count(), 2);
        assert_eq!(d.len(), 4);
        let mut rng = StdRng::seed_from_u64(1);
        let a = d.assign(&objects(12), SelectionPolicy::Random, &mut rng);
        assert!(a.values().all(|p| p.0 == 1 || p.0 == 3), "{a:?}");
    }

    #[test]
    fn reassign_skips_failed_and_dead_peers() {
        let mut d = directory(4);
        d.mark_dead(PeerId(0));
        let mut failed = BTreeSet::new();
        failed.insert(PeerId(1));
        // Nearest surviving untried peer: id 2 (rtt 20 < rtt 25).
        assert_eq!(
            d.reassign(SelectionPolicy::Proximity, &failed),
            Some(PeerId(2))
        );
        failed.insert(PeerId(2));
        failed.insert(PeerId(3));
        assert_eq!(d.reassign(SelectionPolicy::Proximity, &failed), None);
    }

    #[test]
    fn uptime_defaults_to_one_until_synced() {
        let d = directory(2);
        assert_eq!(d.uptime(PeerId(0)), Some(1.0));
        assert_eq!(d.uptime(PeerId(9)), None);
    }

    #[test]
    fn a_real_fabric_view_withdraws_and_returns_a_recruit() {
        use hpop_fabric::{Fabric, FabricConfig};
        let mut fabric = Fabric::new(FabricConfig::default());
        let mut d = PeerDirectory::new();
        for i in 0..8 {
            let joined = fabric.join(Advertisement::default());
            assert_eq!(joined, PeerId(i).into(), "recruited in join order");
            d.recruit(PeerId(i), PeerInfo::default());
        }
        let (observer, victim) = (hpop_fabric::PeerId(0), PeerId(5));
        let mut rng = StdRng::seed_from_u64(1);
        let mut assigned = |d: &mut PeerDirectory| -> BTreeSet<PeerId> {
            d.assign(&objects(64), SelectionPolicy::Random, &mut rng)
                .into_values()
                .collect()
        };
        fabric.run_rounds(8);
        d.sync_from_view(&fabric.view(observer));
        assert_eq!(d.alive_count(), 8);
        assert!(assigned(&mut d).contains(&victim));

        fabric.set_up(victim.into(), false);
        fabric.run_rounds(40);
        d.sync_from_view(&fabric.view(observer));
        assert_eq!(d.alive_count(), 7);
        assert!(!assigned(&mut d).contains(&victim));
        assert!(d.uptime(victim).unwrap() < 1.0, "uptime is adopted too");

        fabric.set_up(victim.into(), true);
        fabric.run_rounds(12);
        d.sync_from_view(&fabric.view(observer));
        assert_eq!(d.alive_count(), 8);
        assert!(assigned(&mut d).contains(&victim));
    }

    #[test]
    #[should_panic(expected = "no trusted peers")]
    fn all_violators_panics_trust_policy() {
        let mut d = directory(1);
        d.record_violation(PeerId(0));
        let mut rng = StdRng::seed_from_u64(1);
        d.assign(&objects(1), SelectionPolicy::TrustWeighted, &mut rng);
    }

    #[test]
    #[should_panic(expected = "no peers recruited")]
    fn empty_directory_panics() {
        let mut d = PeerDirectory::new();
        let mut rng = StdRng::seed_from_u64(1);
        d.assign(&objects(1), SelectionPolicy::Random, &mut rng);
    }

    #[test]
    #[should_panic(expected = "no peers recruited")]
    fn all_dead_panics_like_empty() {
        let mut d = directory(2);
        d.mark_dead(PeerId(0));
        d.mark_dead(PeerId(1));
        let mut rng = StdRng::seed_from_u64(1);
        d.assign(&objects(1), SelectionPolicy::Random, &mut rng);
    }
}

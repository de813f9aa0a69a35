//! Cooperative membership.
//!
//! §IV-C: members "agree to serve as waypoints to each other"; a
//! "misbehaving peer can be expelled from the collective to avoid future
//! issues". The collective tracks who is in, which netsim node hosts
//! their HPoP, and a record of observed misbehavior.
//!
//! Members are entries in a fabric [`PeerView`], each under its fabric
//! id — a member number *is* that member's fabric id — and strikes are
//! [`Violation::Misrouting`] entries on a [`ReputationLedger`] keyed
//! the same way. Liveness flows in from gossip via
//! [`DetourCollective::sync_from_view`]: a waypoint the failure
//! detector declares dead stops being offered to clients even before it
//! earns a single strike.

use hpop_fabric::{Advertisement, PeerEntry, PeerState, PeerView, ReputationLedger, Violation};
use hpop_netsim::topology::NodeId;
use std::collections::BTreeMap;

/// Identifies a collective member.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MemberId(pub u32);

impl From<MemberId> for hpop_fabric::PeerId {
    fn from(id: MemberId) -> hpop_fabric::PeerId {
        hpop_fabric::PeerId(u64::from(id.0))
    }
}

/// The waypoint cooperative.
#[derive(Clone, Debug)]
pub struct DetourCollective {
    /// Everyone who ever joined; ids are handed out in join order.
    view: PeerView,
    ledger: ReputationLedger,
    /// Member → hosting netsim node (service-local; not gossiped).
    nodes: BTreeMap<MemberId, NodeId>,
    /// Strikes at which a member is expelled automatically.
    strike_limit: u32,
}

impl Default for DetourCollective {
    fn default() -> DetourCollective {
        DetourCollective {
            view: PeerView::default(),
            ledger: ReputationLedger::default(),
            nodes: BTreeMap::new(),
            strike_limit: 3,
        }
    }
}

impl DetourCollective {
    /// A collective expelling members at 3 strikes.
    pub fn new() -> DetourCollective {
        DetourCollective::default()
    }

    /// Overrides the expulsion threshold.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn with_strike_limit(mut self, limit: u32) -> DetourCollective {
        assert!(limit > 0, "strike limit must be positive");
        self.strike_limit = limit;
        self
    }

    /// Enrolls an HPoP (at netsim node `node`) as a member.
    pub fn join(&mut self, node: NodeId) -> MemberId {
        let id = MemberId(self.view.len() as u32);
        self.view.insert(PeerEntry {
            id: id.into(),
            state: PeerState::Alive,
            advert: Advertisement::default(),
            uptime_fraction: 1.0,
            reputation: 1.0,
        });
        self.nodes.insert(id, node);
        id
    }

    /// Voluntary departure. Returns whether the member existed.
    pub fn leave(&mut self, id: MemberId) -> bool {
        let existed = self.nodes.remove(&id).is_some();
        if existed {
            self.view.set_state(id.into(), PeerState::Left);
        }
        existed
    }

    /// Whether a member has hit the strike limit.
    fn expelled(&self, id: MemberId) -> bool {
        self.ledger.violations(id.into()) >= self.strike_limit
    }

    /// Records misbehavior on the reputation ledger; at the
    /// strike limit the member is expelled. Returns whether this strike
    /// caused expulsion.
    pub fn strike(&mut self, id: MemberId) -> bool {
        if !self.nodes.contains_key(&id) || self.expelled(id) {
            return false;
        }
        self.ledger
            .record_violation(id.into(), Violation::Misrouting);
        self.expelled(id)
    }

    /// A member's strike count.
    pub fn strikes(&self, id: MemberId) -> u32 {
        self.ledger.violations(id.into())
    }

    /// The reputation ledger (read access).
    pub fn ledger(&self) -> &ReputationLedger {
        &self.ledger
    }

    /// Whether a member is enrolled, unexpelled, and not known-dead.
    pub fn in_good_standing(&self, id: MemberId) -> bool {
        self.nodes.contains_key(&id) && !self.expelled(id) && self.view.is_alive(id.into())
    }

    /// A member's node, if in good standing.
    pub fn node_of(&self, id: MemberId) -> Option<NodeId> {
        if self.in_good_standing(id) {
            self.nodes.get(&id).copied()
        } else {
            None
        }
    }

    /// Adopts liveness beliefs from a gossip [`PeerView`]: members the
    /// fabric believes dead are withdrawn from the waypoint pool (and
    /// return if a later view refutes the death).
    pub fn sync_from_view(&mut self, view: &PeerView) {
        self.view.adopt(view);
    }

    /// Marks one member dead directly (a client's own probe failed
    /// before gossip confirmed it).
    pub fn mark_dead(&mut self, id: MemberId) {
        self.view.set_state(id.into(), PeerState::Dead);
    }

    /// Waypoints available to `client` (every other member in good
    /// standing and believed alive).
    pub fn waypoints_for(&self, client: MemberId) -> Vec<(MemberId, NodeId)> {
        self.nodes
            .iter()
            .filter(|(&id, _)| id != client && self.in_good_standing(id))
            .map(|(&id, &node)| (id, node))
            .collect()
    }

    /// Members in good standing.
    pub fn active_count(&self) -> usize {
        self.nodes
            .keys()
            .filter(|&&id| self.in_good_standing(id))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: u32) -> NodeId {
        // NodeIds are opaque; build them through a topology.
        use hpop_netsim::topology::TopologyBuilder;
        let mut b = TopologyBuilder::new();
        let mut last = b.add_node("n0");
        for k in 1..=i {
            last = b.add_node(format!("n{k}"));
        }
        last
    }

    #[test]
    fn join_and_waypoints() {
        let mut c = DetourCollective::new();
        let a = c.join(node(0));
        let b = c.join(node(1));
        let d = c.join(node(2));
        assert_eq!(c.active_count(), 3);
        let wps = c.waypoints_for(a);
        assert_eq!(wps.len(), 2);
        assert!(wps.iter().all(|(id, _)| *id == b || *id == d));
    }

    #[test]
    fn strikes_lead_to_expulsion() {
        let mut c = DetourCollective::new();
        let a = c.join(node(0));
        assert!(!c.strike(a));
        assert!(!c.strike(a));
        assert!(c.strike(a)); // third strike expels
        assert!(!c.in_good_standing(a));
        assert_eq!(c.node_of(a), None);
        assert_eq!(c.active_count(), 0);
        // Further strikes are no-ops.
        assert!(!c.strike(a));
        assert_eq!(c.strikes(a), 3);
    }

    #[test]
    fn expelled_members_are_not_waypoints() {
        let mut c = DetourCollective::new().with_strike_limit(1);
        let a = c.join(node(0));
        let b = c.join(node(1));
        assert!(c.strike(b));
        assert!(c.waypoints_for(a).is_empty());
    }

    #[test]
    fn leave_removes() {
        let mut c = DetourCollective::new();
        let a = c.join(node(0));
        assert!(c.leave(a));
        assert!(!c.leave(a));
        assert!(!c.in_good_standing(a));
    }

    #[test]
    fn dead_members_are_withdrawn_until_refuted() {
        use hpop_fabric::{Fabric, FabricConfig};
        let mut fabric = Fabric::new(FabricConfig::default());
        let mut c = DetourCollective::new();
        for i in 0..8 {
            let joined = fabric.join(Advertisement::default());
            assert_eq!(joined, c.join(node(i)).into(), "enrolled in join order");
        }
        let (a, b) = (MemberId(0), MemberId(5));
        fabric.run_rounds(8);
        // A client's own probe fails before gossip says anything…
        c.mark_dead(b);
        assert_eq!(c.waypoints_for(a).len(), 6);
        assert_eq!(c.active_count(), 7);
        // …and the fabric, which still hears b, refutes it.
        c.sync_from_view(&fabric.view(a.into()));
        assert_eq!(c.waypoints_for(a).len(), 7);

        // The failure detector declares b dead: withdrawn by the view.
        fabric.set_up(b.into(), false);
        fabric.run_rounds(40);
        c.sync_from_view(&fabric.view(a.into()));
        assert!(c.waypoints_for(a).iter().all(|&(id, _)| id != b));
        assert_eq!(c.node_of(b), None);
        assert_eq!(c.active_count(), 7);

        // b rejoins at a higher incarnation: the view says alive again.
        fabric.set_up(b.into(), true);
        fabric.run_rounds(12);
        c.sync_from_view(&fabric.view(a.into()));
        assert!(c.waypoints_for(a).iter().any(|&(id, _)| id == b));
        assert_eq!(c.active_count(), 8);
    }

    #[test]
    fn strikes_land_on_the_ledger_under_the_fabric_id() {
        let mut c = DetourCollective::new();
        let a = c.join(node(0));
        c.strike(a);
        assert_eq!(c.ledger().violations(a.into()), 1);
        assert!(c.ledger().score(a.into()) < 1.0);
    }

    #[test]
    #[should_panic(expected = "strike limit must be positive")]
    fn zero_strike_limit_rejected() {
        let _ = DetourCollective::new().with_strike_limit(0);
    }
}

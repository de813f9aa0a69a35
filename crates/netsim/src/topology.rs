//! Network topology: nodes joined by full-duplex links.
//!
//! Every link is full duplex with independently configurable capacity per
//! direction — the paper's FTTH links are symmetric 1 Gbps, but classic
//! broadband is asymmetric and several experiments contrast the two.

use crate::time::SimDuration;
use crate::units::Bandwidth;
use std::fmt;
use std::sync::Arc;

/// Identifies a node in a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

/// Identifies a (full-duplex) link in a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub(crate) u32);

/// Identifies one direction of a link: the unit of capacity allocation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DirLinkId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The raw index of this link.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The directed half of this link going from its `a` endpoint to `b`.
    pub fn forward(self) -> DirLinkId {
        DirLinkId(self.0 * 2)
    }

    /// The directed half of this link going from its `b` endpoint to `a`.
    pub fn reverse(self) -> DirLinkId {
        DirLinkId(self.0 * 2 + 1)
    }
}

impl DirLinkId {
    /// The raw index of this directed link (dense in `0..2*links`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The full-duplex link this direction belongs to.
    pub fn link(self) -> LinkId {
        LinkId(self.0 / 2)
    }

    /// The opposite direction of the same link.
    pub fn reversed(self) -> DirLinkId {
        DirLinkId(self.0 ^ 1)
    }
}

#[derive(Clone, Debug)]
struct Link {
    a: NodeId,
    b: NodeId,
    capacity_ab: Bandwidth,
    capacity_ba: Bandwidth,
    latency: SimDuration,
    loss: f64,
    /// Routing metric used by "native IP routing" (Dijkstra). Defaults
    /// to the latency, but can be set independently to model policy
    /// routing — the source of the triangle-inequality violations detour
    /// routing exploits (§IV-C).
    weight: u64,
}

/// The graph behind a [`Topology`] handle. Deliberately not `Clone`: the
/// only way to copy a city is to share it.
#[derive(Debug)]
struct Graph {
    /// Every node name, concatenated in node order.
    names: String,
    /// Per node: the end offset of its name in `names`.
    name_ends: Vec<u32>,
    links: Vec<Link>,
    /// CSR adjacency: node `i`'s (neighbor, outgoing directed link) pairs
    /// are `adj[adj_start[i]..adj_start[i + 1]]`, in link-creation order.
    adj_start: Vec<u32>,
    adj: Vec<(NodeId, DirLinkId)>,
}

/// An immutable network graph; build one with [`TopologyBuilder`].
///
/// A `Topology` is a shared handle: `clone` is a reference-count bump,
/// so a city's simulator, routing table and experiment all read one
/// graph.
#[derive(Clone, Debug)]
pub struct Topology(Arc<Graph>);

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.0.name_ends.len()
    }

    /// Number of full-duplex links.
    pub fn link_count(&self) -> usize {
        self.0.links.len()
    }

    /// Number of directed link halves (`2 * link_count`).
    pub fn dir_link_count(&self) -> usize {
        self.0.links.len() * 2
    }

    /// All node ids, in creation order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// The human-readable name a node was created with.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this topology.
    pub fn node_name(&self, node: NodeId) -> &str {
        let g = &self.0;
        let end = g.name_ends[node.index()] as usize;
        let start = match node.index() {
            0 => 0,
            i => g.name_ends[i - 1] as usize,
        };
        &g.names[start..end]
    }

    /// Looks a node up by name (linear scan; intended for tests/reports).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes().find(|&n| self.node_name(n) == name)
    }

    /// The node a directed link departs from.
    pub fn dir_from(&self, d: DirLinkId) -> NodeId {
        let l = &self.0.links[d.link().index()];
        if d.index().is_multiple_of(2) {
            l.a
        } else {
            l.b
        }
    }

    /// The node a directed link arrives at.
    pub fn dir_to(&self, d: DirLinkId) -> NodeId {
        let l = &self.0.links[d.link().index()];
        if d.index().is_multiple_of(2) {
            l.b
        } else {
            l.a
        }
    }

    /// Capacity of a directed link.
    pub fn dir_capacity(&self, d: DirLinkId) -> Bandwidth {
        let l = &self.0.links[d.link().index()];
        if d.index().is_multiple_of(2) {
            l.capacity_ab
        } else {
            l.capacity_ba
        }
    }

    /// One-way propagation delay of a link (same both directions).
    pub fn link_latency(&self, link: LinkId) -> SimDuration {
        self.0.links[link.index()].latency
    }

    /// Independent per-traversal loss probability of a link.
    pub fn link_loss(&self, link: LinkId) -> f64 {
        self.0.links[link.index()].loss
    }

    /// The routing metric of a link (defaults to its latency in
    /// nanoseconds unless overridden to model policy routing).
    pub fn link_weight(&self, link: LinkId) -> u64 {
        self.0.links[link.index()].weight
    }

    /// Outgoing (neighbor, directed link) pairs of a node, in the order
    /// its links were added.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, DirLinkId)] {
        let g = &self.0;
        let i = node.index();
        &g.adj[g.adj_start[i] as usize..g.adj_start[i + 1] as usize]
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology({} nodes, {} links)",
            self.node_count(),
            self.link_count()
        )
    }
}

/// Incrementally constructs a [`Topology`].
///
/// ```
/// use hpop_netsim::prelude::*;
///
/// let mut b = TopologyBuilder::new();
/// let home = b.add_node("home");
/// let agg = b.add_node("aggregation");
/// b.add_link(home, agg, Bandwidth::gbps(1.0), SimDuration::from_micros(500));
/// let topo = b.build();
/// assert_eq!(topo.node_count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TopologyBuilder {
    names: String,
    name_ends: Vec<u32>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with a human-readable name, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the names of all nodes together exceed 4 GiB.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.name_ends.len() as u32);
        self.names.push_str(&name.into());
        let end = u32::try_from(self.names.len()).expect("node names exceed 4 GiB");
        self.name_ends.push(end);
        id
    }

    /// Adds a symmetric, lossless full-duplex link.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: Bandwidth,
        latency: SimDuration,
    ) -> LinkId {
        self.add_link_full(a, b, capacity, capacity, latency, 0.0)
    }

    /// Adds a link with full control over per-direction capacity and loss.
    ///
    /// `capacity_ab` applies to traffic from `a` to `b`; `loss` is the
    /// independent per-traversal drop probability in either direction.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are unknown or equal, or if `loss` is
    /// outside `[0, 1)`.
    pub fn add_link_full(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_ab: Bandwidth,
        capacity_ba: Bandwidth,
        latency: SimDuration,
        loss: f64,
    ) -> LinkId {
        let weight = latency.as_nanos().max(1);
        self.add_link_weighted(a, b, capacity_ab, capacity_ba, latency, loss, weight)
    }

    /// Adds a link with an explicit routing metric decoupled from its
    /// latency — the tool for modeling policy routing that inflates
    /// native paths (triangle-inequality violations).
    ///
    /// # Panics
    ///
    /// As [`TopologyBuilder::add_link_full`], plus `weight` must be
    /// positive.
    #[allow(clippy::too_many_arguments)]
    pub fn add_link_weighted(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_ab: Bandwidth,
        capacity_ba: Bandwidth,
        latency: SimDuration,
        loss: f64,
        weight: u64,
    ) -> LinkId {
        assert!(a.index() < self.name_ends.len(), "unknown endpoint {a:?}");
        assert!(b.index() < self.name_ends.len(), "unknown endpoint {b:?}");
        assert_ne!(a, b, "self-loop links are not allowed");
        assert!((0.0..1.0).contains(&loss), "loss must be in [0,1): {loss}");
        assert!(weight > 0, "routing weight must be positive");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            capacity_ab,
            capacity_ba,
            latency,
            loss,
            weight,
        });
        id
    }

    /// Finalizes the graph.
    pub fn build(self) -> Topology {
        // Counting sort of the directed halves by origin, walking links
        // in creation order: each node's slice comes out in the order its
        // links were added, which fixes Dijkstra's tie-breaks.
        let n = self.name_ends.len();
        let mut adj_start = vec![0u32; n + 1];
        for l in &self.links {
            adj_start[l.a.index() + 1] += 1;
            adj_start[l.b.index() + 1] += 1;
        }
        for i in 0..n {
            adj_start[i + 1] += adj_start[i];
        }
        let mut next = adj_start[..n].to_vec();
        let placeholder = (NodeId(0), DirLinkId(0));
        let mut adj = vec![placeholder; self.links.len() * 2];
        for (i, l) in self.links.iter().enumerate() {
            let id = LinkId(i as u32);
            for (from, to, d) in [(l.a, l.b, id.forward()), (l.b, l.a, id.reverse())] {
                let slot = &mut next[from.index()];
                adj[*slot as usize] = (to, d);
                *slot += 1;
            }
        }
        Topology(Arc::new(Graph {
            names: self.names,
            name_ends: self.name_ends,
            links: self.links,
            adj_start,
            adj,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Topology, NodeId, NodeId, LinkId) {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        let l = b.add_link_full(
            x,
            y,
            Bandwidth::gbps(1.0),
            Bandwidth::mbps(100.0),
            SimDuration::from_millis(2),
            0.01,
        );
        (b.build(), x, y, l)
    }

    #[test]
    fn directed_halves_have_right_endpoints_and_capacities() {
        let (t, x, y, l) = pair();
        assert_eq!(t.dir_from(l.forward()), x);
        assert_eq!(t.dir_to(l.forward()), y);
        assert_eq!(t.dir_from(l.reverse()), y);
        assert_eq!(t.dir_to(l.reverse()), x);
        assert_eq!(t.dir_capacity(l.forward()), Bandwidth::gbps(1.0));
        assert_eq!(t.dir_capacity(l.reverse()), Bandwidth::mbps(100.0));
        assert_eq!(l.forward().reversed(), l.reverse());
        assert_eq!(l.forward().link(), l);
    }

    #[test]
    fn adjacency_lists_are_symmetric() {
        let (t, x, y, l) = pair();
        assert_eq!(t.neighbors(x), &[(y, l.forward())]);
        assert_eq!(t.neighbors(y), &[(x, l.reverse())]);
    }

    #[test]
    fn names_resolve() {
        let (t, x, _, _) = pair();
        assert_eq!(t.node_name(x), "x");
        assert_eq!(t.node_by_name("y").unwrap().index(), 1);
        assert!(t.node_by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        b.add_link(x, x, Bandwidth::gbps(1.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "loss must be in")]
    fn bad_loss_rejected() {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        b.add_link_full(
            x,
            y,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(1.0),
            SimDuration::ZERO,
            1.0,
        );
    }

    #[test]
    fn counts() {
        let (t, _, _, _) = pair();
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.link_count(), 1);
        assert_eq!(t.dir_link_count(), 2);
        assert_eq!(t.nodes().count(), 2);
    }
}

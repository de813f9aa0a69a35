//! Shortest-path routing and path metrics.
//!
//! "Native IP routing" in the experiments is latency-weighted Dijkstra over
//! the topology. Detour experiments (§IV-C) build composite paths through a
//! waypoint with [`RoutingTable::route_via`] and compare their metrics
//! against the native path — exactly the triangle-inequality-violation
//! setting the detour literature exploits.

use crate::time::SimDuration;
use crate::topology::{DirLinkId, NodeId, Topology};
use crate::units::Bandwidth;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A loop-free directed path through the topology.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Path {
    src: NodeId,
    dst: NodeId,
    hops: Vec<DirLinkId>,
}

impl Path {
    /// Builds a path from explicit directed hops.
    ///
    /// # Panics
    ///
    /// Panics if the hops are not contiguous from `src` or do not end at
    /// `dst`.
    pub fn new(topo: &Topology, src: NodeId, dst: NodeId, hops: Vec<DirLinkId>) -> Self {
        let mut at = src;
        for &h in &hops {
            assert_eq!(topo.dir_from(h), at, "discontiguous path hop {h:?}");
            at = topo.dir_to(h);
        }
        assert_eq!(at, dst, "path does not terminate at {dst:?}");
        Path { src, dst, hops }
    }

    /// Builds a path from hops already known to be contiguous (e.g. stored
    /// by the flow arena) without re-validating against the topology.
    pub(crate) fn from_raw(src: NodeId, dst: NodeId, hops: Vec<DirLinkId>) -> Self {
        Path { src, dst, hops }
    }

    /// An empty path from a node to itself (infinite capacity, zero delay).
    pub fn trivial(node: NodeId) -> Self {
        Path {
            src: node,
            dst: node,
            hops: Vec::new(),
        }
    }

    /// The origin node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The destination node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The directed links traversed, in order.
    pub fn hops(&self) -> &[DirLinkId] {
        &self.hops
    }

    /// Number of links traversed.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// One-way propagation delay: the sum of link latencies.
    pub fn latency(&self, topo: &Topology) -> SimDuration {
        self.hops.iter().fold(SimDuration::ZERO, |acc, h| {
            acc + topo.link_latency(h.link())
        })
    }

    /// Round-trip propagation delay (twice the one-way latency; the model
    /// assumes symmetric reverse routing for ACKs).
    pub fn rtt(&self, topo: &Topology) -> SimDuration {
        self.latency(topo) * 2
    }

    /// End-to-end loss probability: `1 - prod(1 - p_link)`.
    pub fn loss(&self, topo: &Topology) -> f64 {
        1.0 - self
            .hops
            .iter()
            .map(|h| 1.0 - topo.link_loss(h.link()))
            .product::<f64>()
    }

    /// The capacity of the tightest directed link on the path; `None` for
    /// the trivial path (unbounded).
    pub fn bottleneck(&self, topo: &Topology) -> Option<Bandwidth> {
        self.hops
            .iter()
            .map(|&h| topo.dir_capacity(h))
            .min_by(|a, b| a.partial_cmp(b).expect("capacities are finite"))
    }

    /// Concatenates `self` with `tail` (whose source must be this path's
    /// destination). Used to build detour paths through a waypoint.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints do not line up.
    pub fn join(&self, tail: &Path) -> Path {
        assert_eq!(self.dst, tail.src, "paths do not share a junction node");
        let mut hops = self.hops.clone();
        hops.extend_from_slice(&tail.hops);
        Path {
            src: self.src,
            dst: tail.dst,
            hops,
        }
    }
}

/// Shortest-path trees a [`RoutingTable`] keeps at once. A tree holds one
/// entry per node (826 KB at a 100k-home `presets::metro`), so the cache
/// is bounded: a 65th source evicts the oldest, and routing from it again
/// recomputes the same, deterministic tree.
const TREE_CACHE_CAP: usize = 64;

/// A predecessor tree: per node, the directed link arriving at it on the
/// shortest-path tree from one source (`None` for the source itself and
/// for unreachable nodes).
type Tree = Vec<Option<DirLinkId>>;

/// Computes and caches latency-shortest paths over a fixed topology.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    topo: Topology,
    /// Trees by source, computed lazily, oldest first; at most
    /// [`TREE_CACHE_CAP`] long.
    trees: VecDeque<(NodeId, Tree)>,
}

impl RoutingTable {
    /// Creates a routing table over `topo`, sharing its graph.
    pub fn new(topo: &Topology) -> Self {
        RoutingTable {
            topo: topo.clone(),
            trees: VecDeque::new(),
        }
    }

    /// The topology this table routes over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Where the tree from `src` sits in the cache, computing it (and
    /// evicting the oldest tree at the cap) on a miss.
    fn tree_index(&mut self, src: NodeId) -> usize {
        if let Some(i) = self.trees.iter().position(|(s, _)| *s == src) {
            return i;
        }
        if self.trees.len() == TREE_CACHE_CAP {
            self.trees.pop_front();
        }
        self.trees.push_back((src, dijkstra(&self.topo, src)));
        self.trees.len() - 1
    }

    /// The latency-shortest path from `src` to `dst`, or `None` if the
    /// nodes are disconnected. `src == dst` yields the trivial path.
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> Option<Path> {
        if src == dst {
            return Some(Path::trivial(src));
        }
        let i = self.tree_index(src);
        let (topo, tree) = (&self.topo, &self.trees[i].1);
        let mut hops = Vec::new();
        let mut at = dst;
        while at != src {
            let h = tree[at.index()]?;
            hops.push(h);
            at = topo.dir_from(h);
        }
        hops.reverse();
        Some(Path::new(topo, src, dst, hops))
    }

    /// A detour path `src → waypoint → dst`, each leg routed natively.
    /// Returns `None` if either leg is disconnected.
    pub fn route_via(&mut self, src: NodeId, waypoint: NodeId, dst: NodeId) -> Option<Path> {
        let first = self.route(src, waypoint)?;
        let second = self.route(waypoint, dst)?;
        Some(first.join(&second))
    }
}

/// Single-source shortest path by latency; returns the predecessor
/// directed-link of each node (None for unreachable / the source itself).
fn dijkstra(topo: &Topology, src: NodeId) -> Vec<Option<DirLinkId>> {
    let n = topo.node_count();
    let mut dist = vec![u64::MAX; n];
    let mut pred: Vec<Option<DirLinkId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0u64, src.index())));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, dl) in topo.neighbors(NodeId(u as u32)) {
            let w = topo.link_weight(dl.link());
            let nd = d.saturating_add(w);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                pred[v.index()] = Some(dl);
                heap.push(Reverse((nd, v.index())));
            }
        }
    }
    pred
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    /// A triangle where the direct a—c link is slow (high latency), and the
    /// detour a—b—c is faster: a triangle-inequality violation.
    fn tiv_triangle() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let w = b.add_node("waypoint");
        let c = b.add_node("c");
        b.add_link(a, c, Bandwidth::mbps(10.0), SimDuration::from_millis(100));
        b.add_link(a, w, Bandwidth::gbps(1.0), SimDuration::from_millis(10));
        b.add_link(w, c, Bandwidth::gbps(1.0), SimDuration::from_millis(10));
        (b.build(), a, w, c)
    }

    #[test]
    fn shortest_path_prefers_low_latency_detour() {
        let (t, a, w, c) = tiv_triangle();
        let mut rt = RoutingTable::new(&t);
        let p = rt.route(a, c).unwrap();
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.latency(&t), SimDuration::from_millis(20));
        assert_eq!(t.dir_to(p.hops()[0]), w);
    }

    #[test]
    fn route_via_builds_composite_path() {
        let (t, a, w, c) = tiv_triangle();
        let mut rt = RoutingTable::new(&t);
        let p = rt.route_via(a, w, c).unwrap();
        assert_eq!(p.src(), a);
        assert_eq!(p.dst(), c);
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.rtt(&t), SimDuration::from_millis(40));
    }

    #[test]
    fn trivial_route() {
        let (t, a, _, _) = tiv_triangle();
        let mut rt = RoutingTable::new(&t);
        let p = rt.route(a, a).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.latency(&t), SimDuration::ZERO);
        assert!(p.bottleneck(&t).is_none());
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        let _z = b.add_node("z-island");
        b.add_link(x, y, Bandwidth::gbps(1.0), SimDuration::from_millis(1));
        let t = b.build();
        let mut rt = RoutingTable::new(&t);
        assert!(rt.route(x, _z).is_none());
    }

    #[test]
    fn path_loss_composes() {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        let z = b.add_node("z");
        b.add_link_full(
            x,
            y,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(1),
            0.1,
        );
        b.add_link_full(
            y,
            z,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(1),
            0.2,
        );
        let t = b.build();
        let mut rt = RoutingTable::new(&t);
        let p = rt.route(x, z).unwrap();
        assert!((p.loss(&t) - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_is_tightest_directed_capacity() {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        let z = b.add_node("z");
        b.add_link(x, y, Bandwidth::gbps(1.0), SimDuration::from_millis(1));
        b.add_link_full(
            y,
            z,
            Bandwidth::mbps(50.0),
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(1),
            0.0,
        );
        let t = b.build();
        let mut rt = RoutingTable::new(&t);
        let p = rt.route(x, z).unwrap();
        assert_eq!(p.bottleneck(&t).unwrap(), Bandwidth::mbps(50.0));
        // Reverse direction sees the full gigabit.
        let q = rt.route(z, x).unwrap();
        assert_eq!(q.bottleneck(&t).unwrap(), Bandwidth::gbps(1.0));
    }

    #[test]
    fn tree_cache_stops_at_its_cap_and_evicted_sources_reroute_identically() {
        // A star: every leaf is a distinct source with its own tree.
        let mut b = TopologyBuilder::new();
        let hub = b.add_node("hub");
        let leaves: Vec<NodeId> = (0..TREE_CACHE_CAP + 8)
            .map(|i| {
                let n = b.add_node(format!("leaf{i}"));
                b.add_link(n, hub, Bandwidth::gbps(1.0), SimDuration::from_millis(1));
                n
            })
            .collect();
        let t = b.build();
        let mut rt = RoutingTable::new(&t);
        let first = rt.route(leaves[0], leaves[1]).unwrap();
        for &src in &leaves[1..] {
            rt.route(src, hub).unwrap();
            assert!(rt.trees.len() <= TREE_CACHE_CAP);
        }
        assert_eq!(rt.trees.len(), TREE_CACHE_CAP);
        assert!(
            rt.trees.iter().all(|(s, _)| *s != leaves[0]),
            "the oldest source was evicted"
        );
        assert_eq!(rt.route(leaves[0], leaves[1]).unwrap(), first);
        assert_eq!(rt.trees.len(), TREE_CACHE_CAP);
        assert_eq!(rt.trees.back().unwrap().0, leaves[0]);
    }

    #[test]
    #[should_panic(expected = "discontiguous")]
    fn discontiguous_paths_rejected() {
        let (t, a, _, c) = tiv_triangle();
        // hop 0 is the a—c direct link's reverse: starts at c, not a.
        let bad = t.neighbors(c)[0].1;
        let _ = Path::new(&t, a, c, vec![bad]);
    }

    #[test]
    #[should_panic(expected = "junction")]
    fn join_requires_shared_node() {
        let (t, a, w, c) = tiv_triangle();
        let mut rt = RoutingTable::new(&t);
        let p1 = rt.route(a, w).unwrap();
        let p2 = rt.route(a, c).unwrap();
        let _ = p1.join(&p2);
    }
}

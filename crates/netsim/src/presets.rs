//! Canonical topologies from the paper.
//!
//! - [`ccz`]: the Case Connection Zone — N homes on bi-directional 1 Gbps
//!   fiber, aggregated onto a shared uplink to the Internet core (§II).
//! - [`dumbbell`]: the classic shared-bottleneck shape used for the
//!   bottleneck-shift experiment.
//! - [`detour_triangle`]: a client/waypoint/server triangle whose direct
//!   path violates the triangle inequality — the §IV-C detour setting.
//! - [`metro`]: the hierarchical city (homes → aggregation → metro →
//!   backbone) for metro-scale experiments; tree paths are computed in
//!   O(1) without Dijkstra, which the incremental allocator exploits.

use crate::time::SimDuration;
use crate::topology::{DirLinkId, NodeId, Topology, TopologyBuilder};
use crate::units::Bandwidth;

/// A built CCZ-style neighborhood: node handles for experiments.
#[derive(Clone, Debug)]
pub struct CczNetwork {
    /// The topology itself.
    pub topology: Topology,
    /// One node per home (each hosts an HPoP).
    pub homes: Vec<NodeId>,
    /// The neighborhood aggregation switch.
    pub aggregation: NodeId,
    /// The wide-area Internet core.
    pub core: NodeId,
    /// A representative remote content server beyond the core.
    pub server: NodeId,
}

/// Parameters for [`ccz`]. Defaults follow the paper: 100 homes × 1 Gbps
/// onto a shared 10 Gbps aggregation link, 25 ms to a remote server.
#[derive(Clone, Debug)]
pub struct CczParams {
    /// Number of homes in the neighborhood.
    pub homes: usize,
    /// Per-home access capacity (symmetric FTTH).
    pub home_capacity: Bandwidth,
    /// Shared neighborhood uplink capacity.
    pub aggregation_capacity: Bandwidth,
    /// Core→server link capacity (the server farm's limit).
    pub server_capacity: Bandwidth,
    /// One-way home↔aggregation latency.
    pub access_latency: SimDuration,
    /// One-way aggregation↔core latency.
    pub metro_latency: SimDuration,
    /// One-way core↔server latency (the WAN distance).
    pub wan_latency: SimDuration,
}

impl Default for CczParams {
    fn default() -> Self {
        CczParams {
            homes: 100,
            home_capacity: Bandwidth::gbps(1.0),
            aggregation_capacity: Bandwidth::gbps(10.0),
            server_capacity: Bandwidth::gbps(40.0),
            access_latency: SimDuration::from_micros(500),
            metro_latency: SimDuration::from_millis(2),
            wan_latency: SimDuration::from_millis(22),
        }
    }
}

/// Builds a CCZ-style FTTH neighborhood.
///
/// ```
/// use hpop_netsim::presets::{ccz, CczParams};
/// let net = ccz(&CczParams::default());
/// assert_eq!(net.homes.len(), 100);
/// ```
pub fn ccz(params: &CczParams) -> CczNetwork {
    let mut b = TopologyBuilder::new();
    let aggregation = b.add_node("aggregation");
    let core = b.add_node("core");
    let server = b.add_node("server");
    b.add_link(
        aggregation,
        core,
        params.aggregation_capacity,
        params.metro_latency,
    );
    b.add_link(core, server, params.server_capacity, params.wan_latency);
    let homes = (0..params.homes)
        .map(|i| {
            let h = b.add_node(format!("home{i:03}"));
            b.add_link(h, aggregation, params.home_capacity, params.access_latency);
            h
        })
        .collect();
    CczNetwork {
        topology: b.build(),
        homes,
        aggregation,
        core,
        server,
    }
}

/// A built dumbbell: `pairs` source/sink pairs across one shared link.
#[derive(Clone, Debug)]
pub struct Dumbbell {
    /// The topology itself.
    pub topology: Topology,
    /// Source nodes (left side).
    pub sources: Vec<NodeId>,
    /// Sink nodes (right side).
    pub sinks: Vec<NodeId>,
}

/// Builds a dumbbell with `pairs` flows' worth of endpoints, `edge`
/// capacity per access link and `core` capacity on the shared link.
pub fn dumbbell(
    pairs: usize,
    edge: Bandwidth,
    core: Bandwidth,
    core_latency: SimDuration,
) -> Dumbbell {
    let mut b = TopologyBuilder::new();
    let left = b.add_node("left");
    let right = b.add_node("right");
    b.add_link(left, right, core, core_latency);
    let mut sources = Vec::with_capacity(pairs);
    let mut sinks = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let s = b.add_node(format!("src{i}"));
        let d = b.add_node(format!("dst{i}"));
        b.add_link(s, left, edge, SimDuration::from_micros(100));
        b.add_link(right, d, edge, SimDuration::from_micros(100));
        sources.push(s);
        sinks.push(d);
    }
    Dumbbell {
        topology: b.build(),
        sources,
        sinks,
    }
}

/// A detour triangle for §IV-C experiments.
#[derive(Clone, Debug)]
pub struct DetourTriangle {
    /// The topology itself.
    pub topology: Topology,
    /// The client (an MPTCP-capable host in an ultrabroadband home).
    pub client: NodeId,
    /// The cooperative waypoint (another member's HPoP).
    pub waypoint: NodeId,
    /// The remote content server.
    pub server: NodeId,
}

/// Parameters for [`detour_triangle`].
#[derive(Clone, Debug)]
pub struct DetourParams {
    /// Direct client↔server latency (the inflated native route).
    pub direct_latency: SimDuration,
    /// Direct path capacity.
    pub direct_capacity: Bandwidth,
    /// Direct path loss probability.
    pub direct_loss: f64,
    /// Client↔waypoint latency.
    pub leg1_latency: SimDuration,
    /// Waypoint↔server latency.
    pub leg2_latency: SimDuration,
    /// Detour leg capacity (both legs).
    pub leg_capacity: Bandwidth,
    /// Detour leg loss probability (both legs).
    pub leg_loss: f64,
}

impl Default for DetourParams {
    fn default() -> Self {
        // A triangle-inequality violation of the magnitude detour studies
        // report: the native route takes 80 ms with 2% loss; via the
        // waypoint it is 25+25 ms and clean.
        DetourParams {
            direct_latency: SimDuration::from_millis(80),
            direct_capacity: Bandwidth::mbps(200.0),
            direct_loss: 0.02,
            leg1_latency: SimDuration::from_millis(25),
            leg2_latency: SimDuration::from_millis(25),
            leg_capacity: Bandwidth::gbps(1.0),
            leg_loss: 0.0,
        }
    }
}

/// Builds a client/waypoint/server triangle.
pub fn detour_triangle(p: &DetourParams) -> DetourTriangle {
    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let waypoint = b.add_node("waypoint");
    let server = b.add_node("server");
    // The direct link is what native (policy) routing picks — weight 1 —
    // even though its latency/loss are worse than the detour. This is
    // the triangle-inequality violation detour routing exploits.
    b.add_link_weighted(
        client,
        server,
        p.direct_capacity,
        p.direct_capacity,
        p.direct_latency,
        p.direct_loss,
        1,
    );
    b.add_link_full(
        client,
        waypoint,
        p.leg_capacity,
        p.leg_capacity,
        p.leg1_latency,
        p.leg_loss,
    );
    b.add_link_full(
        waypoint,
        server,
        p.leg_capacity,
        p.leg_capacity,
        p.leg2_latency,
        p.leg_loss,
    );
    DetourTriangle {
        topology: b.build(),
        client,
        waypoint,
        server,
    }
}

/// Parameters for [`metro`]. Defaults model a CCZ-style city: 1 Gbps
/// homes, 32 per aggregation switch on oversubscribed 10 Gbps uplinks,
/// 16 aggregations per metro PoP on 100 Gbps, all metro PoPs on a
/// 1 Tbps backbone node.
#[derive(Clone, Debug)]
pub struct MetroParams {
    /// Total number of homes in the city.
    pub homes: usize,
    /// Homes per aggregation switch.
    pub homes_per_agg: usize,
    /// Aggregation switches per metro PoP.
    pub aggs_per_metro: usize,
    /// Per-home access capacity (symmetric FTTH).
    pub home_capacity: Bandwidth,
    /// Aggregation→metro uplink capacity (shared by its homes).
    pub agg_uplink: Bandwidth,
    /// Metro→backbone uplink capacity (shared by its aggregations).
    pub metro_uplink: Bandwidth,
    /// One-way home↔aggregation latency.
    pub access_latency: SimDuration,
    /// One-way aggregation↔metro latency.
    pub agg_latency: SimDuration,
    /// One-way metro↔backbone latency.
    pub metro_latency: SimDuration,
}

impl Default for MetroParams {
    fn default() -> Self {
        MetroParams {
            homes: 1024,
            homes_per_agg: 32,
            aggs_per_metro: 16,
            home_capacity: Bandwidth::gbps(1.0),
            agg_uplink: Bandwidth::gbps(10.0),
            metro_uplink: Bandwidth::gbps(100.0),
            access_latency: SimDuration::from_micros(500),
            agg_latency: SimDuration::from_millis(1),
            metro_latency: SimDuration::from_millis(2),
        }
    }
}

/// A built hierarchical city. Paths between any two homes (or a home and
/// the backbone) follow the unique tree route and are produced in O(1)
/// from precomputed uplink hops — no Dijkstra, which matters at a
/// million nodes where a single `RoutingTable::route` call is O(n).
#[derive(Clone, Debug)]
pub struct MetroNetwork {
    /// The topology itself.
    pub topology: Topology,
    /// One node per home.
    pub homes: Vec<NodeId>,
    /// The city backbone node (the root of the tree).
    pub backbone: NodeId,
    homes_per_agg: usize,
    aggs_per_metro: usize,
    /// Per home: `[home→agg, agg→metro, metro→backbone]` directed hops.
    up: Vec<[DirLinkId; 3]>,
}

impl MetroNetwork {
    /// Number of homes in the city.
    pub fn home_count(&self) -> usize {
        self.homes.len()
    }

    /// The three uplink hops from a home to the backbone, in order.
    pub fn up_hops(&self, home: usize) -> [DirLinkId; 3] {
        self.up[home]
    }

    /// Fills `buf` with the unique tree path between two distinct homes:
    /// up from `a` to the lowest common ancestor, then down to `b`.
    pub fn path_between(&self, a: usize, b: usize, buf: &mut Vec<DirLinkId>) {
        buf.clear();
        if a == b {
            return;
        }
        let (ua, ub) = (self.up[a], self.up[b]);
        let (agg_a, agg_b) = (a / self.homes_per_agg, b / self.homes_per_agg);
        let depth = if agg_a == agg_b {
            1
        } else if agg_a / self.aggs_per_metro == agg_b / self.aggs_per_metro {
            2
        } else {
            3
        };
        for hop in ua.iter().take(depth) {
            buf.push(*hop);
        }
        for hop in ub.iter().take(depth).rev() {
            buf.push(hop.reversed());
        }
    }
}

/// Builds a hierarchical city: homes → aggregation → metro → backbone.
///
/// ```
/// use hpop_netsim::presets::{metro, MetroParams};
/// let city = metro(&MetroParams { homes: 256, ..MetroParams::default() });
/// assert_eq!(city.home_count(), 256);
/// assert_eq!(city.up_hops(0).len(), 3);
/// ```
pub fn metro(params: &MetroParams) -> MetroNetwork {
    assert!(params.homes > 0, "a city needs homes");
    assert!(params.homes_per_agg > 0 && params.aggs_per_metro > 0);
    let n_aggs = params.homes.div_ceil(params.homes_per_agg);
    let n_metros = n_aggs.div_ceil(params.aggs_per_metro);

    let mut b = TopologyBuilder::new();
    let backbone = b.add_node("backbone");
    let mut metro_up = Vec::with_capacity(n_metros);
    for m in 0..n_metros {
        let pop = b.add_node(format!("metro{m}"));
        let l = b.add_link(pop, backbone, params.metro_uplink, params.metro_latency);
        metro_up.push((pop, l.forward()));
    }
    let mut agg_up = Vec::with_capacity(n_aggs);
    for a in 0..n_aggs {
        let (pop, pop_up) = metro_up[a / params.aggs_per_metro];
        let sw = b.add_node(format!("agg{a}"));
        let l = b.add_link(sw, pop, params.agg_uplink, params.agg_latency);
        agg_up.push((sw, l.forward(), pop_up));
    }
    let mut homes = Vec::with_capacity(params.homes);
    let mut up = Vec::with_capacity(params.homes);
    for h in 0..params.homes {
        let (sw, sw_up, pop_up) = agg_up[h / params.homes_per_agg];
        let home = b.add_node(format!("h{h}"));
        let l = b.add_link(home, sw, params.home_capacity, params.access_latency);
        homes.push(home);
        up.push([l.forward(), sw_up, pop_up]);
    }
    MetroNetwork {
        topology: b.build(),
        homes,
        backbone,
        homes_per_agg: params.homes_per_agg,
        aggs_per_metro: params.aggs_per_metro,
        up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingTable;

    #[test]
    fn ccz_shape() {
        let net = ccz(&CczParams::default());
        assert_eq!(net.homes.len(), 100);
        // homes + aggregation + core + server
        assert_eq!(net.topology.node_count(), 103);
        assert_eq!(net.topology.link_count(), 102);
    }

    #[test]
    fn ccz_home_to_server_route() {
        let net = ccz(&CczParams::default());
        let mut rt = RoutingTable::new(&net.topology);
        let p = rt.route(net.homes[0], net.server).unwrap();
        assert_eq!(p.hop_count(), 3);
        // 0.5ms + 2ms + 22ms one-way = 49ms RTT.
        assert_eq!(p.rtt(&net.topology), SimDuration::from_millis(49));
        assert_eq!(p.bottleneck(&net.topology).unwrap(), Bandwidth::gbps(1.0));
    }

    #[test]
    fn ccz_lateral_bandwidth() {
        // §II: neighbors have dedicated gigabit to each other via the
        // aggregation switch, bypassing the shared uplink.
        let net = ccz(&CczParams::default());
        let mut rt = RoutingTable::new(&net.topology);
        let p = rt.route(net.homes[0], net.homes[1]).unwrap();
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.bottleneck(&net.topology).unwrap(), Bandwidth::gbps(1.0));
        // The route does not touch the aggregation→core uplink.
        assert!(p.hops().iter().all(|h| net.topology.dir_to(*h) != net.core));
    }

    #[test]
    fn dumbbell_shape() {
        let d = dumbbell(
            5,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(10.0),
            SimDuration::from_millis(5),
        );
        assert_eq!(d.sources.len(), 5);
        assert_eq!(d.topology.link_count(), 11);
    }

    #[test]
    fn detour_triangle_violates_triangle_inequality() {
        let t = detour_triangle(&DetourParams::default());
        let mut rt = RoutingTable::new(&t.topology);
        // Native (policy) routing picks the direct link despite its
        // worse latency and loss…
        let native = rt.route(t.client, t.server).unwrap();
        assert_eq!(native.hop_count(), 1);
        assert_eq!(native.latency(&t.topology), SimDuration::from_millis(80));
        assert!(native.loss(&t.topology) > 0.0);
        // …while the waypoint detour is strictly better: the violation.
        let via = rt.route_via(t.client, t.waypoint, t.server).unwrap();
        assert!(via.latency(&t.topology) < native.latency(&t.topology));
        assert_eq!(via.loss(&t.topology), 0.0);
    }

    #[test]
    fn metro_shape() {
        let city = metro(&MetroParams {
            homes: 100,
            homes_per_agg: 10,
            aggs_per_metro: 4,
            ..MetroParams::default()
        });
        // 100 homes, 10 aggs, 3 metros, 1 backbone; one link per child.
        assert_eq!(city.home_count(), 100);
        assert_eq!(city.topology.node_count(), 114);
        assert_eq!(city.topology.link_count(), 113);
    }

    #[test]
    fn metro_tree_paths_match_dijkstra() {
        // An even city, and a ragged one whose last aggregation and last
        // metro are partly filled.
        for params in [
            MetroParams {
                homes: 48,
                homes_per_agg: 8,
                aggs_per_metro: 2,
                ..MetroParams::default()
            },
            MetroParams {
                homes: 45,
                homes_per_agg: 4,
                aggs_per_metro: 3,
                ..MetroParams::default()
            },
        ] {
            let city = metro(&params);
            let mut rt = RoutingTable::new(&city.topology);
            let mut buf = Vec::new();
            // Every ordered pair: same home (0 hops), same agg (1+1),
            // same metro (2+2), cross-metro (3+3).
            let mut kinds = [0usize; 7];
            for a in 0..city.home_count() {
                for b in 0..city.home_count() {
                    city.path_between(a, b, &mut buf);
                    let want = rt.route(city.homes[a], city.homes[b]).unwrap();
                    assert_eq!(buf.as_slice(), want.hops(), "{a}->{b}");
                    kinds[buf.len()] += 1;
                }
            }
            let n = city.home_count();
            assert_eq!(kinds[0], n);
            assert!(kinds[2] > 0 && kinds[4] > 0 && kinds[6] > 0, "{kinds:?}");
            // Up-hops reach the backbone contiguously.
            let up = city.up_hops(17);
            assert_eq!(city.topology.dir_from(up[0]), city.homes[17]);
            assert_eq!(city.topology.dir_to(up[2]), city.backbone);
            assert_eq!(city.topology.dir_to(up[0]), city.topology.dir_from(up[1]));
            assert_eq!(city.topology.dir_to(up[1]), city.topology.dir_from(up[2]));
        }
    }

    #[test]
    fn city_simulator_and_routing_share_one_graph() {
        use crate::netsim::NetSim;
        let city = metro(&MetroParams {
            homes: 64,
            ..MetroParams::default()
        });
        let mut sim = NetSim::with_topology(city.topology.clone());
        for node in [city.backbone, city.homes[0], city.homes[63]] {
            let ours = city.topology.neighbors(node);
            assert!(std::ptr::eq(ours, sim.state.net.topology().neighbors(node)));
            let routing = sim.state.net.routing().topology();
            assert!(std::ptr::eq(ours, routing.neighbors(node)));
        }
    }

    /// Native routing at city scale: eight sources, each one ≈12 ms
    /// Dijkstra over 100k homes optimised, then 125 routes walked from
    /// each cached tree; run with `--release -- --ignored`.
    #[test]
    #[ignore = "100k homes; run with --release"]
    fn metro_native_routes_match_tree_paths_at_city_scale() {
        let city = metro(&MetroParams {
            homes: 100_000,
            ..MetroParams::default()
        });
        let n = city.home_count();
        let mut rt = RoutingTable::new(&city.topology);
        let mut buf = Vec::new();
        for s in 0..8 {
            let a = s * n / 8 + 7 * s;
            for d in 0..125 {
                let b = (a + 1 + d * 797) % n;
                city.path_between(a, b, &mut buf);
                let want = rt.route(city.homes[a], city.homes[b]).unwrap();
                assert_eq!(buf.as_slice(), want.hops(), "{a}->{b}");
            }
        }
    }

    #[test]
    fn metro_flows_contend_on_agg_uplink() {
        // 64 homes under one agg, all pushing to the backbone: the
        // 10 Gbps agg uplink is the bottleneck, so each gets ~156 Mbps.
        use crate::flow::FlowNet;
        use crate::time::SimTime;
        let city = metro(&MetroParams {
            homes: 64,
            homes_per_agg: 64,
            ..MetroParams::default()
        });
        let mut net = FlowNet::new(city.topology.clone());
        let mut ids = Vec::new();
        for h in 0..64 {
            let id = net.start_on_hops(
                city.homes[h],
                city.backbone,
                &city.up_hops(h),
                1 << 30,
                None,
                SimTime::ZERO,
            );
            ids.push(id);
        }
        let want = 10e9 / 64.0;
        for id in ids {
            let got = net.rate(id).unwrap().bits_per_sec();
            assert!((got - want).abs() < want * 1e-6, "rate {got}");
        }
    }
}

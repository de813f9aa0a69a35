//! Property-based tests of the simulator's core invariants.

use crate::fairshare::{max_min_rates, Demand};
use crate::flow::{FlowId, FlowNet};
use crate::routing::RoutingTable;
use crate::time::{SimDuration, SimTime};
use crate::topology::{DirLinkId, Topology, TopologyBuilder};
use crate::units::Bandwidth;
use hpop_obs::TraceCtx;
use proptest::prelude::*;

/// Builds a dumbbell with the given per-pair edge capacities (Mbps) and
/// a shared core, returning per-flow demands crossing the core.
fn dumbbell(edges_mbps: &[u32], core_mbps: u32) -> (Topology, Vec<Demand>) {
    let mut b = TopologyBuilder::new();
    let left = b.add_node("l");
    let right = b.add_node("r");
    let core = b.add_link(
        left,
        right,
        Bandwidth::mbps(core_mbps as f64),
        SimDuration::from_millis(5),
    );
    let mut demands = Vec::new();
    for (i, &e) in edges_mbps.iter().enumerate() {
        let s = b.add_node(format!("s{i}"));
        let d = b.add_node(format!("d{i}"));
        let ls = b.add_link(
            s,
            left,
            Bandwidth::mbps(e as f64),
            SimDuration::from_millis(1),
        );
        let ld = b.add_link(
            right,
            d,
            Bandwidth::mbps(e as f64),
            SimDuration::from_millis(1),
        );
        demands.push(Demand {
            links: vec![ls.forward(), core.forward(), ld.forward()],
            cap: None,
        });
    }
    (b.build(), demands)
}

proptest! {
    /// Max-min fairness never oversubscribes any link, and every flow is
    /// bottlenecked somewhere (work conservation).
    #[test]
    fn fairshare_feasible_and_work_conserving(
        edges in proptest::collection::vec(1u32..2_000, 1..12),
        core in 1u32..20_000,
    ) {
        let (topo, demands) = dumbbell(&edges, core);
        let rates = max_min_rates(&topo, &demands);
        // Feasibility: per-directed-link usage within capacity.
        let mut usage = vec![0.0f64; topo.dir_link_count()];
        for (d, &r) in demands.iter().zip(&rates) {
            for &l in &d.links {
                usage[l.index()] += r;
            }
        }
        for (i, &u) in usage.iter().enumerate() {
            let cap = topo.dir_capacity(crate::topology::DirLinkId(i as u32)).bits_per_sec();
            prop_assert!(u <= cap * (1.0 + 1e-9) + 1.0, "link {i}: {u} > {cap}");
        }
        // Work conservation: every flow saturates at least one of its
        // links (otherwise it could grow — not max-min).
        for (d, &r) in demands.iter().zip(&rates) {
            let saturated = d.links.iter().any(|&l| {
                let cap = topo.dir_capacity(l).bits_per_sec();
                usage[l.index()] >= cap * (1.0 - 1e-6)
            });
            prop_assert!(saturated, "flow at {r} has slack on every link");
        }
    }

    /// Per-flow caps are hard limits, and capping one flow never reduces
    /// another flow's rate.
    #[test]
    fn caps_are_respected_and_never_hurt_others(
        edges in proptest::collection::vec(100u32..1_000, 2..8),
        cap_mbps in 1u32..500,
    ) {
        let (topo, mut demands) = dumbbell(&edges, 1_000);
        let before = max_min_rates(&topo, &demands);
        demands[0].cap = Some(Bandwidth::mbps(cap_mbps as f64));
        let after = max_min_rates(&topo, &demands);
        prop_assert!(after[0] <= cap_mbps as f64 * 1e6 * (1.0 + 1e-9));
        for i in 1..demands.len() {
            prop_assert!(
                after[i] >= before[i] * (1.0 - 1e-6),
                "flow {i} shrank: {} -> {}", before[i], after[i]
            );
        }
    }

    /// The incremental bottleneck-set allocator in [`FlowNet`] produces
    /// the same rates as the global progressive-filling oracle
    /// (`max_min_rates`) after every operation of a random add / cancel /
    /// re-cap sequence over a random topology, within 1e-6 relative.
    /// Some flows walk one chain link there and back (x→y→x→y, or once
    /// more), so they sit in that link's flow list more than once.
    #[test]
    fn incremental_allocator_matches_oracle(
        chain in proptest::collection::vec(1u32..10_000, 4..9),
        extra in proptest::collection::vec((0usize..16, 0usize..16, 1u32..10_000), 0..6),
        ops in proptest::collection::vec(
            (0usize..64, 0u8..6, 0usize..16, 0usize..16, 0u32..2_000),
            1..40,
        ),
    ) {
        // Random connected topology: a chain plus random extra links.
        let mut b = TopologyBuilder::new();
        let n = chain.len() + 1;
        let nodes: Vec<_> = (0..n).map(|i| b.add_node(format!("n{i}"))).collect();
        let mut chain_links = Vec::with_capacity(chain.len());
        for (i, &c) in chain.iter().enumerate() {
            let l = b.add_link(
                nodes[i],
                nodes[i + 1],
                Bandwidth::mbps(c as f64),
                SimDuration::from_millis(1),
            );
            chain_links.push(l.forward());
        }
        for &(x, y, c) in &extra {
            let (x, y) = (x % n, y % n);
            if x != y {
                b.add_link(
                    nodes[x],
                    nodes[y],
                    Bandwidth::mbps(c as f64),
                    SimDuration::from_millis(1),
                );
            }
        }
        let topo = b.build();
        let mut rt = RoutingTable::new(&topo);
        let mut net = FlowNet::new(topo.clone());
        // (id, hops, cap) of every flow we believe to be live.
        let mut live: Vec<(FlowId, Vec<DirLinkId>, Option<Bandwidth>)> = Vec::new();
        let mut t_ns = 0u64;
        for &(pick, kind, x, y, c) in &ops {
            t_ns += 1_000_000;
            let now = SimTime::from_nanos(t_ns);
            net.advance(now);
            for (id, _) in net.take_completed() {
                live.retain(|(l, _, _)| *l != id);
            }
            match kind {
                // Start (weighted 3/6; mixes short flows that complete
                // mid-sequence with long ones that persist).
                0..=2 => {
                    let (src, dst) = (nodes[x % n], nodes[y % n]);
                    if src != dst {
                        if let Some(path) = rt.route(src, dst) {
                            let cap = (c % 3 != 0).then(|| Bandwidth::mbps((c + 1) as f64));
                            let bytes = if c % 5 == 0 { 10_000 } else { 1 << 30 };
                            let hops = path.hops().to_vec();
                            let id = net.start(src, dst, bytes, cap, now).unwrap();
                            live.push((id, hops, cap));
                        }
                    }
                }
                // Start on a there-and-back walk over chain link `x`
                // (weighted 1/6).
                5 => {
                    let i = x % chain_links.len();
                    let f = chain_links[i];
                    let mut hops = vec![f, f.reversed(), f];
                    if y % 2 == 0 {
                        hops.extend([f.reversed(), f]);
                    }
                    let cap = (c % 3 != 0).then(|| Bandwidth::mbps((c + 1) as f64));
                    let bytes = if c % 5 == 0 { 10_000 } else { 1 << 30 };
                    let (src, dst) = (nodes[i], nodes[i + 1]);
                    let id = net.start_on_hops(src, dst, &hops, bytes, cap, now, TraceCtx::NONE);
                    live.push((id, hops, cap));
                }
                3 => {
                    if !live.is_empty() {
                        let (id, _, _) = live.remove(pick % live.len());
                        net.cancel(id, now);
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let k = pick % live.len();
                        let cap = (c % 2 == 0).then(|| Bandwidth::mbps((c + 1) as f64));
                        net.set_cap(live[k].0, cap, now);
                        live[k].2 = cap;
                    }
                }
            }
            for (id, _) in net.take_completed() {
                live.retain(|(l, _, _)| *l != id);
            }
            let demands: Vec<Demand> = live
                .iter()
                .map(|(_, hops, cap)| Demand { links: hops.clone(), cap: *cap })
                .collect();
            let oracle = max_min_rates(&topo, &demands);
            for ((id, _, _), &want) in live.iter().zip(&oracle) {
                let got = net.rate(*id).unwrap().bits_per_sec();
                prop_assert!(
                    (got - want).abs() <= want.abs() * 1e-6 + 1e-3,
                    "flow {id:?}: incremental {got} vs oracle {want}"
                );
            }
        }
    }

    /// Flows that cross one link up to three times (x→y, x→y→x→y,
    /// x→y→x→y→x→y) sit in its flow list once per crossing. Starting and
    /// cancelling them in random order keeps every rate equal to the
    /// oracle's. A flow's later entries can move while its earlier ones
    /// are removed, so this drives `remove_flow`'s position fallback.
    #[test]
    fn flows_repeating_a_link_match_oracle(
        ops in proptest::collection::vec((any::<bool>(), 0usize..64, 0usize..3), 1..160),
    ) {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        let f = b
            .add_link(x, y, Bandwidth::mbps(100.0), SimDuration::from_millis(1))
            .forward();
        let topo = b.build();
        let mut net = FlowNet::new(topo.clone());
        let mut live: Vec<(FlowId, Vec<DirLinkId>)> = Vec::new();
        for &(start, pick, returns) in &ops {
            if start || live.is_empty() {
                let mut hops = vec![f];
                for _ in 0..returns {
                    hops.extend([f.reversed(), f]);
                }
                let id = net.start_on_hops(x, y, &hops, 1 << 30, None, SimTime::ZERO, TraceCtx::NONE);
                live.push((id, hops));
            } else {
                let (id, _) = live.remove(pick % live.len());
                prop_assert!(net.cancel(id, SimTime::ZERO).is_some());
            }
            let demands: Vec<Demand> = live
                .iter()
                .map(|(_, hops)| Demand { links: hops.clone(), cap: None })
                .collect();
            let oracle = max_min_rates(&topo, &demands);
            for ((id, _), &want) in live.iter().zip(&oracle) {
                let got = net.rate(*id).unwrap().bits_per_sec();
                prop_assert!(
                    (got - want).abs() <= want.abs() * 1e-6 + 1e-3,
                    "flow {id:?}: incremental {got} vs oracle {want}"
                );
            }
        }
    }

    /// Shortest-path routing produces connected, loop-free paths whose
    /// latency is at most any single-link alternative.
    #[test]
    fn routing_paths_are_contiguous(seed_links in proptest::collection::vec((0usize..8, 0usize..8, 1u64..100), 4..20)) {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<_> = (0..8).map(|i| b.add_node(format!("n{i}"))).collect();
        let mut any = false;
        for (x, y, lat) in seed_links {
            if x != y {
                b.add_link(
                    nodes[x],
                    nodes[y],
                    Bandwidth::mbps(100.0),
                    SimDuration::from_millis(lat),
                );
                any = true;
            }
        }
        prop_assume!(any);
        let topo = b.build();
        let mut rt = RoutingTable::new(&topo);
        for &src in &nodes {
            for &dst in &nodes {
                if let Some(p) = rt.route(src, dst) {
                    // Path::new validates contiguity internally; check
                    // endpoints and loop-freedom via hop count bound.
                    prop_assert_eq!(p.src(), src);
                    prop_assert_eq!(p.dst(), dst);
                    prop_assert!(p.hop_count() < topo.node_count());
                }
            }
        }
    }

    /// The compact graph reads back exactly what was built: each node's
    /// neighbours are its links in creation order (isolated nodes and
    /// parallel links included), and every name, empty and multi-byte
    /// ones too, round-trips through the arena.
    #[test]
    fn topology_reads_back_what_was_built(
        names in proptest::collection::vec("[aé☃z]{0,3}", 1..12),
        pairs in proptest::collection::vec((0usize..12, 0usize..12), 0..24),
    ) {
        let n = names.len();
        let mut b = TopologyBuilder::new();
        let nodes: Vec<_> = names.iter().map(|name| b.add_node(name.as_str())).collect();
        let mut want = vec![Vec::new(); n];
        for (x, y) in pairs {
            let (x, y) = (x % n, y % n);
            if x != y {
                let l = b.add_link(nodes[x], nodes[y], Bandwidth::mbps(1.0), SimDuration::ZERO);
                want[x].push((nodes[y], l.forward()));
                want[y].push((nodes[x], l.reverse()));
            }
        }
        let topo = b.build();
        prop_assert_eq!(topo.node_count(), n);
        for (i, &node) in nodes.iter().enumerate() {
            prop_assert_eq!(topo.neighbors(node), want[i].as_slice());
            prop_assert_eq!(topo.node_name(node), names[i].as_str());
            let first = names.iter().position(|m| *m == names[i]).unwrap();
            prop_assert_eq!(topo.node_by_name(&names[i]), Some(nodes[first]));
        }
        prop_assert_eq!(topo.node_by_name("not a node"), None);
    }
}

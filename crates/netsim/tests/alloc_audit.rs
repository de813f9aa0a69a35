//! Steady-state allocation audit of the flow-engine tick path.
//!
//! A metro-scale run spends its life in a churn loop: flows complete,
//! replacements start, rates ripple. After warm-up every buffer involved
//! (arena slots, the pooled per-link list slab, the completion heap, the
//! ripple scratch vectors, the drain buffer) must have reached capacity —
//! the loop must run without touching the heap allocator at all. A
//! counting `#[global_allocator]` enforces exactly that. Because every
//! link's flow lists share one recycled slab, the same holds for a flow
//! over a link that has never carried one.
//!
//! The event loop is held to the same standard: a warm `NetSim` driven
//! the way the benchmark drives a metro city, tick by tick, runs every
//! completion event without allocating. A scheduled token and its wake,
//! and a tokened transfer and its completion, are plain data on a warm
//! engine too: neither boxes anything.
//!
//! The same counter holds the shared graph to its promise: copying a
//! city's topology, wrapping it in a simulator and routing from a
//! cached source cost a constant number of allocations, whatever the
//! city's size. The counter is per thread, so neither the other tests
//! nor the test harness's own threads count inside a measured interval.

use hpop_netsim::netsim::NetSim;
use hpop_netsim::prelude::*;
use hpop_netsim::presets::{metro, MetroNetwork, MetroParams};
use hpop_netsim::topology::DirLinkId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread. A thread that is
/// tearing down its locals goes uncounted.
fn count() {
    let _ = ALLOC_CALLS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

fn city(homes: usize) -> MetroNetwork {
    metro(&MetroParams {
        homes,
        ..MetroParams::default()
    })
}

/// A small CCZ-style tree: `n` homes on 1 Gbps access links into an
/// aggregation node whose oversubscribed 2 Gbps uplink feeds a core node.
/// Every home→core flow contends on the uplink, so churn genuinely
/// ripples rates across flows.
type Star = (Topology, NodeId, Vec<(NodeId, [DirLinkId; 2])>);

fn star(n: usize) -> Star {
    let mut b = TopologyBuilder::new();
    let agg = b.add_node("agg");
    let core = b.add_node("core");
    let uplink = b.add_link(agg, core, Bandwidth::gbps(2.0), SimDuration::from_millis(1));
    let mut homes = Vec::with_capacity(n);
    let mut links = Vec::with_capacity(n);
    for i in 0..n {
        let h = b.add_node(format!("home{i}"));
        let l = b.add_link(h, agg, Bandwidth::gbps(1.0), SimDuration::from_millis(1));
        homes.push(h);
        links.push(l);
    }
    let topo = b.build();
    let out = homes
        .iter()
        .zip(&links)
        .map(|(&h, &l)| (h, [l.forward(), uplink.forward()]))
        .collect();
    (topo, core, out)
}

#[test]
fn steady_state_churn_does_not_allocate() {
    let (topo, agg, homes) = star(16);
    let mut net = FlowNet::new(topo);
    let mut clock = SimTime::ZERO;

    // Churn loop body: drain whatever completed, start a replacement on
    // the same home, advance to the next completion.
    let cycle = |net: &mut FlowNet, clock: &mut SimTime, i: usize| {
        let (home, hops) = &homes[i % homes.len()];
        net.start_on_hops(
            *home,
            agg,
            hops,
            1_000_000 + (i as u64 % 7) * 100_000,
            Some(Bandwidth::mbps(200.0 + (i % 5) as f64 * 50.0)),
            *clock,
        );
        let (t, _) = net.next_completion().expect("flows in flight");
        *clock = t;
        net.advance(t);
        net.drain_completed_with(|_, _, _| {});
    };

    // Warm-up: grow every arena, list, heap and scratch buffer to its
    // steady-state capacity.
    for i in 0..4_096 {
        cycle(&mut net, &mut clock, i);
    }

    let before = allocs();
    for i in 0..4_096 {
        cycle(&mut net, &mut clock, i);
    }
    let after = allocs();

    assert_eq!(
        after - before,
        0,
        "steady-state churn performed {} heap allocations",
        after - before
    );
    let stats = net.alloc_stats();
    assert!(stats.reallocations > 8_000, "churn exercised the allocator");
    assert!(stats.heap_pushes > 8_000, "completions were heap-tracked");
}

#[test]
fn a_flow_over_a_never_used_link_does_not_allocate() {
    let (topo, core, homes) = star(16);
    let (used, never_used) = homes.split_at(8);
    let mut net = FlowNet::new(topo);
    let mut clock = SimTime::ZERO;

    // One flow from every home of `leaves`, then run until all complete.
    let wave = |net: &mut FlowNet, clock: &mut SimTime, leaves: &[(NodeId, [DirLinkId; 2])]| {
        for (i, (home, hops)) in leaves.iter().enumerate() {
            let bytes = 1_000_000 + i as u64 * 100_000;
            net.start_on_hops(*home, core, hops, bytes, None, *clock);
        }
        while let Some((t, _)) = net.next_completion() {
            *clock = t;
            net.advance(t);
            net.drain_completed_with(|_, _, _| {});
        }
        assert_eq!(net.active_count(), 0);
    };

    // Warm-up over half the homes: their access links' lists grow and
    // empty again; the other half's access links never carry a flow.
    for _ in 0..64 {
        wave(&mut net, &mut clock, used);
    }

    let before = allocs();
    wave(&mut net, &mut clock, never_used);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "flows over never-used links performed {} heap allocations",
        after - before
    );
}

/// One tick of the metro workload: top the pool of flows back up
/// to `target` (two thirds home→backbone, one third home→home, sizes
/// 100 KB…51 MB, every fourth capped at 200 Mbps), cancel 2 % of it,
/// then run the engine to the end of the 10 ms tick.
fn metro_tick(
    sim: &mut NetSim,
    city: &MetroNetwork,
    rng: &mut StdRng,
    ring: &mut Vec<FlowId>,
    hops: &mut Vec<DirLinkId>,
) {
    let homes = city.home_count();
    let target = homes / 20;
    while sim.state.net.active_count() < target {
        let a = rng.gen_range(0..homes);
        let bytes = (100 * KB) << rng.gen_range(0..10u32);
        let cap = (rng.gen_range(0..4u32) == 0).then(|| Bandwidth::mbps(200.0));
        let id = if rng.gen_range(0..3u32) == 0 {
            let b = (a + rng.gen_range(1..homes)) % homes;
            city.path_between(a, b, hops);
            sim.start_transfer_on_hops(city.homes[a], city.homes[b], hops, bytes, cap)
        } else {
            let up = city.up_hops(a);
            sim.start_transfer_on_hops(city.homes[a], city.backbone, &up, bytes, cap)
        };
        ring.push(id);
    }
    for _ in 0..target / 50 {
        let k = rng.gen_range(0..ring.len());
        sim.cancel_transfer(ring.swap_remove(k));
    }
    if ring.len() > 4 * target {
        ring.drain(..target);
    }
    let until = sim.now() + SimDuration::from_millis(10);
    sim.run_until(until);
}

#[test]
fn warm_engine_events_do_not_allocate() {
    let city = city(2_000);
    let mut sim = NetSim::with_topology(city.topology.clone());
    let mut rng = StdRng::seed_from_u64(11);
    let mut ring = Vec::with_capacity(city.home_count());
    let mut hops = Vec::with_capacity(8);
    // Ten simulated seconds of warm-up: every arena, list, heap and
    // ripple buffer reaches the size the pool's churn needs.
    for _ in 0..1_000 {
        metro_tick(&mut sim, &city, &mut rng, &mut ring, &mut hops);
    }

    let (before, events) = (allocs(), sim.events_run());
    for _ in 0..2_000 {
        metro_tick(&mut sim, &city, &mut rng, &mut ring, &mut hops);
    }
    let (n, events) = (allocs() - before, sim.events_run() - events);
    assert!(events > 1_000, "only {events} engine events ran");
    assert_eq!(n, 0, "{n} heap allocations over {events} engine events");
}

#[test]
fn a_warm_wake_does_not_allocate() {
    let (topo, _, _) = star(2);
    let mut sim = NetSim::with_topology(topo);
    // One wake per millisecond for a few laps of the calendar: every
    // bucket has held a token.
    let cycle = |sim: &mut NetSim, token: u64| {
        sim.schedule_in(SimDuration::from_millis(1), token);
        match sim.next(SimTime::MAX) {
            Some(Fired::Wake { token: t, .. }) => assert_eq!(t, token),
            other => panic!("expected wake {token}, got {other:?}"),
        }
    };
    for token in 0..1_024 {
        cycle(&mut sim, token);
    }
    let before = allocs();
    for token in 0..1_024 {
        cycle(&mut sim, token);
    }
    let n = allocs() - before;
    assert_eq!(n, 0, "1,024 warm wakes made {n} heap allocations");
}

#[test]
fn a_warm_tokened_transfer_does_not_allocate() {
    let (topo, core, homes) = star(4);
    let mut sim = NetSim::with_topology(topo);
    let paths: Vec<Path> = homes
        .iter()
        .map(|&(home, _)| {
            sim.state
                .net
                .routing()
                .route(home, core)
                .expect("connected")
        })
        .collect();
    let cycle = |sim: &mut NetSim, token: u64| {
        let path = &paths[token as usize % paths.len()];
        let cap = token.is_multiple_of(3).then(|| Bandwidth::mbps(300.0));
        sim.start_transfer_on_path(path, 1_000_000 + token % 7 * 1_000, cap, token);
        match sim.next(SimTime::MAX) {
            Some(Fired::Done { token: t, info }) => assert_eq!(t, token, "{info:?}"),
            other => panic!("expected transfer {token} done, got {other:?}"),
        }
    };
    for token in 0..1_024 {
        cycle(&mut sim, token);
    }
    let before = allocs();
    for token in 1_024..2_048 {
        cycle(&mut sim, token);
    }
    let n = allocs() - before;
    assert_eq!(
        n, 0,
        "1,024 warm tokened transfers made {n} heap allocations"
    );
}

#[test]
fn topology_clone_does_not_allocate() {
    let city = city(10_000);
    let before = allocs();
    let copy = city.topology.clone();
    let after = allocs();
    assert_eq!(after - before, 0, "Topology::clone allocated");
    assert_eq!(copy.node_count(), city.topology.node_count());
}

#[test]
fn simulator_setup_allocations_do_not_grow_with_the_city() {
    let setup = |homes: usize| {
        let city = city(homes);
        let before = allocs();
        let sim = NetSim::with_topology(city.topology.clone());
        let n = allocs() - before;
        drop(sim);
        n
    };
    let (small, large) = (setup(10_000), setup(20_000));
    assert_eq!(small, large, "10k homes: {small} allocations, 20k: {large}");
}

#[test]
fn cached_source_route_allocates_only_its_hops() {
    let city = city(10_000);
    let mut rt = RoutingTable::new(&city.topology);
    let (src, near, far) = (city.homes[0], city.homes[1], city.homes[9_999]);
    rt.route(src, near).expect("connected");
    let before = allocs();
    let path = rt.route(src, far).expect("connected");
    let n = allocs() - before;
    assert_eq!(path.hop_count(), 6);
    assert!(n <= 2, "a cached-source route made {n} allocations");
}

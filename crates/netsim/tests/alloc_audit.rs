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
//! The same counter holds the shared graph to its promise: copying a
//! city's topology, wrapping it in a simulator and routing from a
//! cached source cost a constant number of allocations, whatever the
//! city's size. The counter is per thread, so neither the other tests
//! nor the test harness's own threads count inside a measured interval.

use hpop_netsim::netsim::NetSim;
use hpop_netsim::prelude::*;
use hpop_netsim::presets::{metro, MetroNetwork, MetroParams};
use hpop_netsim::topology::DirLinkId;
use hpop_obs::TraceCtx;
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
            TraceCtx::NONE,
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
            net.start_on_hops(*home, core, hops, bytes, None, *clock, TraceCtx::NONE);
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

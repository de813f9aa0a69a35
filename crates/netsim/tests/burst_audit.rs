//! Flash-crowd allocator audit at metro scale.
//!
//! A flash crowd is the allocator's worst case: arrival rate jumps ~10×
//! in seconds and the new flows pile onto the *same* few uplinks (the
//! crowd is regionally skewed). The incremental max-min engine's two
//! guarantees must survive exactly this shape, not just smooth churn:
//!
//! 1. **Bounded work**: links touched per flow event stays under the
//!    E22 budget ceiling of 10 (the expected figure is ~2 — a flow's
//!    bottleneck link plus a ripple neighbor).
//! 2. **Zero steady-state allocation**: once one full burst episode has
//!    warmed every arena, list, heap and scratch buffer, an identical
//!    second episode must not touch the heap allocator at all.
//!
//! The schedule drives a 100k-home city through pre-burst → 10×
//! epicenter-skewed burst → drain, twice; the second episode runs under
//! the counting `#[global_allocator]`, which counts per thread so the
//! test harness's own threads never land inside the measured interval.

use hpop_netsim::prelude::*;
use hpop_netsim::presets::{metro, MetroNetwork, MetroParams};
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

/// Baseline cycles before the burst (and to warm the round-robin set).
const PRE: usize = 512;
/// Burst cycles: each starts `MAGNITUDE` epicenter flows + 1 baseline.
const BURST: usize = 256;
/// The flash-crowd rate multiplier.
const MAGNITUDE: usize = 10;
/// Homes in the epicenter region (10 aggregation switches' worth).
const EPICENTER_HOMES: usize = 320;
/// Round-robin working set of baseline requester homes.
const BASELINE_HOMES: usize = 4096;

fn start_home_flow(net: &mut FlowNet, city: &MetroNetwork, home: usize, i: usize, clock: SimTime) {
    let hops = city.up_hops(home);
    net.start_on_hops(
        city.homes[home],
        city.backbone,
        &hops,
        1_000_000 + (i as u64 % 7) * 300_000,
        Some(Bandwidth::mbps(200.0 + (i % 5) as f64 * 50.0)),
        clock,
    );
}

fn drain_one(net: &mut FlowNet, clock: &mut SimTime) -> usize {
    let Some((t, _)) = net.next_completion() else {
        return 0;
    };
    *clock = t;
    net.advance(t);
    let mut done = 0usize;
    net.drain_completed_with(|_, _, _| done += 1);
    done
}

/// Concurrency bound during the burst — the role the service-level
/// admission layer plays in E26. Without it the backlog on the shared
/// epicenter uplinks grows without bound and every arrival ripples
/// across hundreds of access links: that is the collapse the overload
/// controls exist to prevent, and the engine's ~2-links-per-event
/// guarantee is scoped to the admitted (bounded-concurrency) regime.
const MAX_INFLIGHT: usize = 64;

/// One full flash-crowd episode: pre-burst baseline, a 10× regionally
/// skewed burst of *arrival rate* under bounded concurrency, then
/// drain-to-empty. Deterministic — the second run replays the exact
/// same link set the first warmed.
fn episode(net: &mut FlowNet, city: &MetroNetwork, clock: &mut SimTime) {
    let mut inflight = 0usize;
    for i in 0..PRE {
        start_home_flow(net, city, (i * 9973) % BASELINE_HOMES, i, *clock);
        inflight += 1;
        inflight -= drain_one(net, clock);
    }
    for i in 0..BURST {
        // The crowd: MAGNITUDE flows from the epicenter region...
        for k in 0..MAGNITUDE {
            let home = (i * MAGNITUDE + k) % EPICENTER_HOMES;
            start_home_flow(net, city, home, i + k, *clock);
        }
        // ...on top of the unchanged baseline.
        start_home_flow(net, city, ((PRE + i) * 9973) % BASELINE_HOMES, i, *clock);
        inflight += MAGNITUDE + 1;
        while inflight > MAX_INFLIGHT {
            inflight -= drain_one(net, clock);
        }
    }
    // Decay: arrivals stop, the backlog drains to empty.
    while drain_one(net, clock) > 0 {}
}

#[test]
fn flash_crowd_burst_respects_allocator_ceilings() {
    let city = metro(&MetroParams {
        homes: 100_000,
        ..MetroParams::default()
    });
    let mut net = FlowNet::new(city.topology.clone());
    let mut clock = SimTime::ZERO;

    // Warm-up episode: grow every buffer to burst-peak capacity.
    episode(&mut net, &city, &mut clock);

    let allocs_before = allocs();
    let stats_before = net.alloc_stats();
    episode(&mut net, &city, &mut clock);
    let allocs_after = allocs();
    let stats = net.alloc_stats();

    assert_eq!(
        allocs_after - allocs_before,
        0,
        "flash-crowd episode performed {} heap allocations after warm-up",
        allocs_after - allocs_before
    );

    // Bounded allocator work even while the crowd piles onto the same
    // few uplinks: links touched per reallocation pass under the E22
    // budget ceiling of 10 (expected ~2).
    let events = stats.reallocations - stats_before.reallocations;
    let touched = stats.links_touched - stats_before.links_touched;
    assert!(events > 3_000, "burst exercised the allocator ({events})");
    let per_event = touched as f64 / events as f64;
    assert!(
        per_event <= 10.0,
        "links touched per flow event {per_event:.2} exceeds ceiling 10"
    );
    assert!(
        stats.heap_pushes > stats_before.heap_pushes,
        "completions were heap-tracked"
    );
}

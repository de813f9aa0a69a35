//! E24 — metro-scale engine: a 1k→1M-home scale sweep.
//!
//! The ROADMAP's north star is "millions of users". This experiment
//! drives the flow engine — incremental bottleneck-set allocation,
//! arena flow storage, calendar-queue scheduler, O(1)
//! hierarchical-city routing — with a churn + transfer workload over
//! [`metro`] cities of 1k, 10k, 100k and 1M homes, and reports:
//!
//! - **sim-seconds per wall-second** (the headline throughput), and
//! - **allocator work per flow event** (flows re-solved and links
//!   touched per start/completion/cancel).
//!
//! `BENCH_BUDGETS.txt` enforces sim-s/wall-s floors and an
//! allocator-work ceiling. The engine this one replaced (settle every
//! flow on every advance, re-solve every flow on every event, scan all
//! flows for the next completion) measured 2298× slower on the same
//! 100k-home workload; that row is frozen in EXPERIMENTS.md.
//!
//! Workload shape, per city: a standing pool of `homes/20` concurrent
//! flows (min 32). Every 10 ms of sim time the driver tops the pool
//! back up — two-thirds home→backbone, one-third home→home cross
//! traffic routed through the tree, sizes log-uniform 100 KB…51 MB,
//! every 4th flow rate-capped — and cancels ~2% of the pool (churn).
//! Flow completions drain through the calendar-queue engine.

use crate::rng::XorShift64;
use crate::table::{f2, Table};
use hpop_netsim::netsim::NetSim;
use hpop_netsim::presets::{metro, MetroNetwork, MetroParams};
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_netsim::topology::DirLinkId;
use hpop_netsim::units::{Bandwidth, KB};
use hpop_netsim::{AllocStats, FlowId};
use std::time::Instant;

/// Maintain-tick cadence of the workload driver.
const TICK: SimDuration = SimDuration::from_nanos(10_000_000);

/// One measured point of the sweep.
pub struct LegResult {
    /// City size (homes).
    pub homes: usize,
    /// Simulated seconds covered by the measurement window.
    pub sim_secs: f64,
    /// Wall-clock seconds the window took.
    pub wall_secs: f64,
    /// Flow events (starts + completions + cancels) in the window.
    pub flow_events: u64,
    /// Allocator work counters over the window.
    pub stats: AllocStats,
}

impl LegResult {
    /// Simulated seconds per wall-clock second.
    pub fn sims_per_wall(&self) -> f64 {
        self.sim_secs / self.wall_secs.max(1e-9)
    }
    /// Flows re-solved per flow event.
    pub fn flows_resolved_per_event(&self) -> f64 {
        self.stats.flows_reallocated as f64 / self.flow_events.max(1) as f64
    }
    /// Links touched by the allocator per flow event.
    pub fn links_per_event(&self) -> f64 {
        self.stats.links_touched as f64 / self.flow_events.max(1) as f64
    }
}

struct Driver<'a> {
    city: &'a MetroNetwork,
    rng: XorShift64,
    target: usize,
    ring: Vec<FlowId>,
    buf: Vec<DirLinkId>,
}

impl Driver<'_> {
    fn tick(&mut self, sim: &mut NetSim) {
        let homes = self.city.home_count() as u64;
        while sim.state.net.active_count() < self.target {
            let a = self.rng.below(homes) as usize;
            let bytes = (100 * KB) << self.rng.below(10);
            let cap = if self.rng.below(4) == 0 {
                Some(Bandwidth::mbps(200.0))
            } else {
                None
            };
            let id = if self.rng.below(3) == 0 {
                let mut b = self.rng.below(homes) as usize;
                if b == a {
                    b = (b + 1) % homes as usize;
                }
                self.city.path_between(a, b, &mut self.buf);
                sim.start_transfer_on_hops(
                    self.city.homes[a],
                    self.city.homes[b],
                    &self.buf,
                    bytes,
                    cap,
                )
            } else {
                sim.start_transfer_on_hops(
                    self.city.homes[a],
                    self.city.backbone,
                    &self.city.up_hops(a),
                    bytes,
                    cap,
                )
            };
            self.ring.push(id);
        }
        // Churn: cancel ~2% of the pool each tick. Stale ids (already
        // completed) are no-ops thanks to generational FlowIds.
        for _ in 0..(self.target / 50).max(1) {
            if self.ring.is_empty() {
                break;
            }
            let k = self.rng.below(self.ring.len() as u64) as usize;
            let id = self.ring.swap_remove(k);
            sim.cancel_transfer(id);
        }
        if self.ring.len() > 4 * self.target {
            self.ring.drain(..self.target); // drop oldest (mostly done)
        }
    }
}

/// Runs ticks until `until`, topping the pool up at every tick.
fn drive(sim: &mut NetSim, d: &mut Driver<'_>, until: SimTime) {
    loop {
        let now = sim.now();
        d.tick(sim);
        let next = now + TICK;
        if next > until {
            sim.run_until(until);
            return;
        }
        sim.run_until(next);
    }
}

/// Runs one sweep point: warm the city up to its standing pool (not
/// measured), then measure `run_sim_s` simulated seconds of the churn
/// workload.
pub fn run_leg(homes: usize, warm_sim_s: f64, run_sim_s: f64, seed: u64) -> LegResult {
    let city = metro(&MetroParams {
        homes,
        ..MetroParams::default()
    });
    let mut sim = NetSim::with_topology(city.topology.clone());
    let mut d = Driver {
        city: &city,
        rng: XorShift64::new(seed),
        target: (homes / 20).max(32),
        ring: Vec::new(),
        buf: Vec::new(),
    };
    let warm_end = SimTime::from_nanos((warm_sim_s * 1e9) as u64);
    drive(&mut sim, &mut d, warm_end);

    let m = sim.metrics();
    let events_before = m.counter("netsim.flows.started").get()
        + m.counter("netsim.flows.completed").get()
        + m.counter("netsim.flows.cancelled").get();
    let stats_before = sim.alloc_stats();

    let measure_end = warm_end + SimDuration::from_nanos((run_sim_s * 1e9) as u64);
    let started = Instant::now();
    drive(&mut sim, &mut d, measure_end);
    let wall_secs = started.elapsed().as_secs_f64();

    let m = sim.metrics();
    let events_after = m.counter("netsim.flows.started").get()
        + m.counter("netsim.flows.completed").get()
        + m.counter("netsim.flows.cancelled").get();
    let sa = sim.alloc_stats();
    let sb = stats_before;
    LegResult {
        homes,
        sim_secs: run_sim_s,
        wall_secs,
        flow_events: events_after - events_before,
        stats: AllocStats {
            reallocations: sa.reallocations - sb.reallocations,
            flows_reallocated: sa.flows_reallocated - sb.flows_reallocated,
            rate_changes: sa.rate_changes - sb.rate_changes,
            links_touched: sa.links_touched - sb.links_touched,
            fill_rounds: sa.fill_rounds - sb.fill_rounds,
            full_resolves: sa.full_resolves - sb.full_resolves,
            list_scans: sa.list_scans - sb.list_scans,
            heap_pushes: sa.heap_pushes - sb.heap_pushes,
        },
    }
}

/// Folds legs into the E24 table and the budget-checked counters.
fn report(legs: &[LegResult]) -> Vec<Table> {
    let metrics = hpop_obs::metrics();
    let mut t = Table::new(
        "E24",
        "Metro-scale sweep: sim-s/wall-s and allocator work per flow event",
        &[
            "homes",
            "sim_s",
            "wall_s",
            "sim_s/wall_s",
            "flow_events",
            "flows_resolved/event",
            "links_touched/event",
        ],
    );
    for leg in legs {
        t.push(vec![
            leg.homes.to_string(),
            f2(leg.sim_secs),
            f2(leg.wall_secs),
            f2(leg.sims_per_wall()),
            leg.flow_events.to_string(),
            f2(leg.flows_resolved_per_event()),
            f2(leg.links_per_event()),
        ]);
        let p = format!("scale.n{}.inc", leg.homes);
        metrics
            .counter(&format!("{p}.sims_per_wall_x1000"))
            .add((leg.sims_per_wall() * 1e3) as u64);
        metrics
            .counter(&format!("{p}.flow_events"))
            .add(leg.flow_events);
        metrics
            .counter(&format!("{p}.links_per_event_x1000"))
            .add((leg.links_per_event() * 1e3) as u64);
        metrics
            .counter(&format!("{p}.flows_resolved_per_event_x1000"))
            .add((leg.flows_resolved_per_event() * 1e3) as u64);
    }
    vec![t]
}

/// Full sweep: 1k, 10k, 100k and 1M homes. Never run `--stable`, at
/// either scale: every headline column is a wall-clock measurement.
pub fn run_default() -> Vec<Table> {
    let legs = vec![
        run_leg(1_000, 2.0, 5.0, 24),
        run_leg(10_000, 1.0, 3.0, 24),
        run_leg(100_000, 1.0, 2.0, 24),
        run_leg(1_000_000, 0.3, 1.0, 24),
    ];
    report(&legs)
}

/// CI smoke preset (≤10k homes, un-pinned), small windows. Its snapshot
/// is named `scale_smoke` so its budget floors stay separate from the
/// full sweep's.
pub fn run_smoke() -> Vec<Table> {
    let legs = vec![run_leg(1_000, 0.5, 1.0, 24), run_leg(10_000, 0.5, 1.0, 24)];
    report(&legs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_leg_runs_and_counts_work() {
        let leg = run_leg(640, 0.1, 0.2, 7);
        assert_eq!(leg.homes, 640);
        assert!(leg.flow_events > 0, "workload produced no flow events");
        assert!(leg.stats.reallocations > 0);
        assert!(leg.sim_secs > 0.0 && leg.wall_secs > 0.0);
    }
}

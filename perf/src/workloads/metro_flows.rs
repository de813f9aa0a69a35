//! `metro_flows` — the flow engine alone.
//!
//! One thread: `presets::metro` at 100k homes and the standing-pool
//! driver of E24, copied here so that a change to the experiments does
//! not silently change what is measured: `homes/20` concurrent flows,
//! a 10 ms top-up tick, two thirds home→backbone and one third
//! home→home, sizes log-uniform 100 KB…51 MB, every fourth flow
//! rate-capped, 2 % of the pool cancelled per tick. Default incremental
//! allocation. Two sim-seconds of warm-up, then the measured window.
//!
//! One op is one flow event (a start, a completion or a cancel). No
//! service code runs — this is the number the roadmap's
//! shard-per-subtree decision waits on.
//!
//! Batches are equal slices of simulated time; every count and both
//! simulated latencies are fixed by the seed, whatever the engine's
//! speed.

use crate::harness::{Batch, OpDigest, PassConfig, Report, Window, Workload, BATCHES, OP_SPAN};
use crate::micro;
use crate::stats;
use crate::steady::Profile;
use crate::trace::Recorder;
use hpop_netsim::netsim::NetSim;
use hpop_netsim::presets::{metro, MetroNetwork, MetroParams};
use hpop_netsim::time::SimDuration;
use hpop_netsim::topology::DirLinkId;
use hpop_netsim::units::{Bandwidth, KB};
use hpop_netsim::{AllocStats, FlowId};
use hpop_obs::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Simulated seconds per second of measured window on the reference
/// box (240 sim-s, some 16M flow events, in 10 s); sets the window for
/// a given `--seconds`.
const NOMINAL_SIM_S_PER_S: f64 = 24.0;

const HOMES: usize = 100_000;
const TICK: SimDuration = SimDuration::from_nanos(10_000_000);
const WARM_UP: SimDuration = SimDuration::from_secs(2);

#[derive(Clone, Copy, Debug, Default)]
struct Baseline {
    alloc: AllocStats,
    engine_events: u64,
    active: u64,
}

pub struct MetroFlows {
    city: MetroNetwork,
    sim: NetSim,
    rng: StdRng,
    target: usize,
    ring: Vec<FlowId>,
    hops: Vec<DirLinkId>,
    ticks_per_batch: u64,
    build_ms: f64,
    base: Baseline,
    rec: Recorder,
    digest: OpDigest,
}

fn flow_events(m: &MetricsRegistry) -> u64 {
    m.counter("netsim.flows.started").get()
        + m.counter("netsim.flows.completed").get()
        + m.counter("netsim.flows.cancelled").get()
}

impl MetroFlows {
    /// Tops the pool back up, then cancels ~2 % of it.
    fn tick(&mut self) {
        let homes = self.city.home_count();
        let starts = self.rec.enter("netsim.start_transfer");
        while self.sim.state.net.active_count() < self.target {
            let a = self.rng.gen_range(0..homes);
            let bytes = (100 * KB) << self.rng.gen_range(0..10u32);
            let cap = (self.rng.gen_range(0..4u32) == 0).then(|| Bandwidth::mbps(200.0));
            self.digest.feed(a as u64 ^ bytes << 20);
            let id = if self.rng.gen_range(0..3u32) == 0 {
                let mut b = self.rng.gen_range(0..homes);
                if b == a {
                    b = (b + 1) % homes;
                }
                self.city.path_between(a, b, &mut self.hops);
                self.sim.start_transfer_on_hops(
                    self.city.homes[a],
                    self.city.homes[b],
                    &self.hops,
                    bytes,
                    cap,
                )
            } else {
                self.sim.start_transfer_on_hops(
                    self.city.homes[a],
                    self.city.backbone,
                    &self.city.up_hops(a),
                    bytes,
                    cap,
                )
            };
            self.ring.push(id);
        }
        self.rec.exit(starts);

        // Stale ids (flows that already completed) are harmless no-ops
        // thanks to generational FlowIds.
        let cancels = self.rec.enter("netsim.cancel_transfer");
        for _ in 0..(self.target / 50).max(1) {
            if self.ring.is_empty() {
                break;
            }
            let k = self.rng.gen_range(0..self.ring.len());
            let id = self.ring.swap_remove(k);
            self.sim.cancel_transfer(id);
        }
        self.rec.exit(cancels);
        if self.ring.len() > 4 * self.target {
            self.ring.drain(..self.target); // oldest, mostly done
        }
    }

    /// Runs `ticks` driver ticks; one tick is one recorded operation
    /// (a flow event is too small to carry a span of its own).
    fn drive(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.rec.begin_op();
            let op = self.rec.enter(OP_SPAN);
            self.tick();
            let until = self.sim.now() + TICK;
            let sim = &mut self.sim;
            self.rec.span("netsim.run_until", || sim.run_until(until));
            self.rec.exit(op);
        }
    }

    fn baseline(&self) -> Baseline {
        Baseline {
            alloc: self.sim.alloc_stats(),
            engine_events: self.sim.events_run(),
            active: self.sim.state.net.active_count() as u64,
        }
    }
}

impl Workload for MetroFlows {
    const PROFILE: Profile = Profile {
        busy_cpus: 1.0,
        cache: 0.65,
        memory: 1.75,
    };

    fn setup(cfg: &PassConfig) -> Self {
        let sim_s = NOMINAL_SIM_S_PER_S * cfg.seconds;
        let ticks_per_batch = ((sim_s / BATCHES as f64 / TICK.as_secs_f64()) as u64).max(1);
        let built = Instant::now();
        let city = metro(&MetroParams {
            homes: HOMES,
            ..MetroParams::default()
        });
        let sim = NetSim::with_topology(city.topology.clone());
        let build_ms = built.elapsed().as_secs_f64() * 1e3;
        let ticks = ticks_per_batch * BATCHES as u64;
        let mut w = MetroFlows {
            city,
            sim,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x3e7_20f1),
            target: (HOMES / 20).max(32),
            ring: Vec::new(),
            hops: Vec::new(),
            ticks_per_batch,
            build_ms,
            base: Baseline::default(),
            // op + start + cancel + run_until per tick.
            rec: Recorder::new(cfg.traced, (ticks as usize + 256) * 4, Instant::now()),
            digest: OpDigest::default(),
        };
        w.drive((WARM_UP.as_secs_f64() / TICK.as_secs_f64()) as u64);
        w
    }

    fn begin_window(&mut self) {
        // A fresh registry, so the engine's counters and its duration
        // histogram cover the measured window and nothing else.
        self.sim.use_metrics(MetricsRegistry::new());
        self.base = self.baseline();
    }

    fn run_batch(&mut self, _index: usize) -> Batch {
        let before = flow_events(self.sim.metrics());
        self.drive(self.ticks_per_batch);
        Batch {
            ops: flow_events(self.sim.metrics()) - before,
            failed: 0,
        }
    }

    fn recorders(&mut self) -> Vec<&mut Recorder> {
        vec![&mut self.rec]
    }

    fn finish(self, window: &Window, report: &mut Report) {
        let m = self.sim.metrics();
        let started = m.counter("netsim.flows.started").get();
        let completed = m.counter("netsim.flows.completed").get();
        let cancelled = m.counter("netsim.flows.cancelled").get();
        let events = (started + completed + cancelled).max(1) as f64;
        let end = self.baseline();
        // Every flow is accounted for: it completed, was cancelled, or
        // is still in the pool. Anything else never completes.
        let accounted = completed + cancelled + end.active;
        report.failed += (self.base.active + started).abs_diff(accounted);

        report.set("bench.op_stream_digest", self.digest.value());
        let durations = m.histogram("netsim.flow.duration_us").load();
        let samples = durations.count();
        let tail_pct = stats::supported_tail_pct_x100(samples as usize).unwrap_or(0);
        report.set("sim_p50_ms", durations.value_at_quantile(0.5) as f64 / 1e3);
        report.set(
            "sim_p99_ms",
            durations.value_at_quantile(f64::from(tail_pct) / 10_000.0) as f64 / 1e3,
        );
        report.set("sim_tail_pct_x100", f64::from(tail_pct));
        report.set("sim_samples", samples as f64);

        let (a, b) = (end.alloc, self.base.alloc);
        let per_event = |n: u64| n as f64 * 1000.0 / events;
        report.set("netsim.flow_events", events);
        report.set(
            "netsim.engine_events",
            (end.engine_events - self.base.engine_events) as f64,
        );
        report.set(
            "netsim.flows_resolved_per_event_x1000",
            per_event(a.flows_reallocated - b.flows_reallocated),
        );
        report.set(
            "netsim.links_touched_per_event_x1000",
            per_event(a.links_touched - b.links_touched),
        );
        report.set(
            "netsim.fill_rounds_per_event_x1000",
            per_event(a.fill_rounds - b.fill_rounds),
        );
        report.set(
            "netsim.full_resolves",
            (a.full_resolves - b.full_resolves) as f64,
        );
        report.set(
            "netsim.heap_pushes_per_event_x1000",
            per_event(a.heap_pushes - b.heap_pushes),
        );
        report.set(
            "netsim.allocs_per_event_x1000",
            per_event(window.alloc_calls),
        );
        report.set("obs.trace.dropped", hpop_obs::tracer().dropped() as f64);
        report.set("netsim.presets.metro_build_ms", self.build_ms);
        let sim_s = (self.ticks_per_batch * BATCHES as u64) as f64 * TICK.as_secs_f64();
        report.set(
            "netsim.sim_s_per_wall_s_x1000",
            sim_s * 1000.0 / window.wall.as_secs_f64(),
        );

        if window.traced {
            let total = |span: &str| window.totals.get(span).map_or(0.0, |t| t.self_ns as f64);
            report.set(
                "netsim.start_transfer_ns",
                total("netsim.start_transfer") / started.max(1) as f64,
            );
            // Cancels attempted, live or stale: what the driver calls.
            let attempts = (self.target / 50).max(1) as f64
                * window.totals.get(OP_SPAN).map_or(1, |t| t.count) as f64;
            report.set(
                "netsim.cancel_transfer_ns",
                total("netsim.cancel_transfer") / attempts,
            );
            report.set(
                "netsim.run_until_ns_per_event",
                total("netsim.run_until") / completed.max(1) as f64,
            );
            let buckets: Vec<(u64, u64)> = durations
                .nonzero_buckets()
                .map(|(lo, _, n)| (lo, n))
                .collect();
            report.set(
                "netsim.calendar.push_pop_ns",
                micro::calendar_push_pop_ns(&buckets, self.target, window.seed),
            );
        }
    }
}

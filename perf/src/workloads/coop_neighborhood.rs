//! `coop_neighborhood` — Internet@home's shared path.
//!
//! One thread: a 64-member `CoopCache` with `enable_overload`, a
//! 20k-URL Zipf α = 0.9 catalogue, `DiurnalCurve::residential()` load
//! with one `FlashCrowd`. A 64-node `Fabric` under
//! `ChurnConfig::paper_preset` ticks once per simulated second; after
//! each tick a stable observer's `view` goes to `CoopCache::apply_view`.
//! One op is one `try_request_at`.
//!
//! What does the work: the per-request gate (`CoopOverload::note_request`
//! clones a `Url` into an unbounded `hot_counts` map), HRW owner lookup,
//! the gossip tick and view ranking. Deliberately bypassed: crypto, the
//! WAL, sockets, the flow engine.
//!
//! At the default `--seconds` every batch replays one compressed day —
//! 24 "hours" of [`CYCLE_S`]/24 simulated seconds with the crowd in
//! the late morning — so batches carry the same load shape and the
//! lower-quartile estimator compares like with like. Arrivals per
//! second are computed, not drawn, so the admission controller sees the
//! same saturation trajectory for every seed: the crowd is sized to
//! push the brownout ladder to its redirect rung and never to refuse
//! an interactive request.

use crate::harness::{Batch, OpDigest, PassConfig, Report, Window, Workload, BATCHES, OP_SPAN};
use crate::micro;
use crate::steady::Profile;
use crate::trace::Recorder;
use hpop_fabric::{Advertisement, Fabric, FabricConfig, PeerId};
use hpop_http::url::Url;
use hpop_internet_home::coop::{CoopCache, CoopOverloadConfig, CoopStats};
use hpop_netsim::churn::{ChurnConfig, ChurnEvent, ChurnSchedule};
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_resilience::AdmissionConfig;
use hpop_workloads::{DiurnalCurve, FlashCrowd, FlashCrowdParams, WebUniverse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Compressed days per second of measured window on the reference box:
/// 25 days, one per batch, at the default 10 s. Other `--seconds` give
/// batches that are not whole days; fine for a smoke run, not for
/// comparing commits.
const NOMINAL_DAYS_PER_S: f64 = 2.5;

const MEMBERS: usize = 64;
const CATALOGUE: usize = 20_000;
const MEDIAN_OBJECT_BYTES: u64 = 30_000;
const HEAD_OBJECT_BYTES: u64 = 500_000;
/// Simulated seconds in one compressed day.
const CYCLE_S: u64 = 720;
/// Requests per simulated second at diurnal weight 1.0.
const BASE_RATE: f64 = 15.0;
/// The crowd multiplies the daytime rate (weight 1.0) by this:
/// 75 requests/s against an admission rate of 60.
const CROWD_MAGNITUDE: f64 = 5.0;
const ADMISSION_RATE: f64 = 60.0;
/// Sized so the crowd's excess over the admission rate (≈ 975
/// requests) drains the bucket to ~0.9: past the redirect rung at 0.85,
/// short of the reject rung at 0.97.
const ADMISSION_BURST: f64 = 1_088.0;

#[derive(Clone, Copy, Debug, Default)]
struct Baseline {
    coop: CoopStats,
    gossip_bytes: u64,
    transitions: u64,
    rejected: u64,
}

pub struct CoopNeighborhood {
    coop: CoopCache,
    fabric: Fabric,
    churn: ChurnSchedule,
    observer: PeerId,
    universe: WebUniverse,
    /// One URL per rank, the crowd's head ranks last.
    urls: Vec<Url>,
    diurnal: DiurnalCurve,
    crowd: FlashCrowd,
    rng: StdRng,
    /// Simulated seconds elapsed.
    second: u64,
    seconds_per_batch: u64,
    events: Vec<ChurnEvent>,
    requested_bytes: u64,
    ticks: u64,
    base: Baseline,
    rec: Recorder,
    digest: OpDigest,
}

fn brownout_transitions() -> u64 {
    let m = hpop_obs::metrics();
    ["full", "stale", "redirect", "reject"]
        .iter()
        .map(|rung| {
            m.counter(&format!("resilience.brownout.enter_{rung}"))
                .get()
        })
        .sum()
}

impl CoopNeighborhood {
    /// Requests due in the second starting at `second`.
    fn arrivals(&self, second: u64) -> u64 {
        let in_day = second % CYCLE_S;
        let hour = (in_day * 24 / CYCLE_S) as usize;
        let multiplier = self.crowd.rate_multiplier(SimTime::from_secs(in_day));
        (BASE_RATE * self.diurnal.weight(hour) * multiplier).round() as u64
    }

    /// One simulated second: churn and gossip, then this second's
    /// requests spread evenly over it.
    fn run_second(&mut self) -> Batch {
        let from = SimTime::from_secs(self.second);
        let to = SimTime::from_secs(self.second + 1);
        self.churn.transitions_into(from, to, &mut self.events);
        for ev in &self.events {
            self.fabric.set_up(PeerId(ev.node as u64), ev.up);
        }
        self.rec.begin_op();
        let background = self.rec.enter("bench.background");
        let fabric = &mut self.fabric;
        self.rec.span("fabric.gossip.tick", || fabric.tick());
        let (fabric, observer) = (&self.fabric, self.observer);
        let view = self
            .rec
            .span("fabric.gossip.view", || fabric.view(observer));
        let coop = &mut self.coop;
        self.rec
            .span("internet-home.coop.apply_view", || coop.apply_view(&view));
        self.rec.exit(background);
        self.ticks += 1;

        let n = self.arrivals(self.second);
        let crowd_clock = SimTime::from_secs(self.second % CYCLE_S);
        let mut batch = Batch::default();
        for i in 0..n {
            let now = from + SimDuration::from_nanos(i * 1_000_000_000 / n);
            self.rec.begin_op();
            let op = self.rec.enter(OP_SPAN);
            // Only a home that is up has anybody browsing in it.
            let member = loop {
                let m = self.rng.gen_range(0..MEMBERS);
                if self.churn.is_up(m, now) {
                    break m as u32;
                }
            };
            let universe = &self.universe;
            let rank = self
                .crowd
                .sample_rank(crowd_clock, &mut self.rng, |rng| universe.sample_rank(rng));
            let bytes = if rank < CATALOGUE {
                universe.object(rank).bytes
            } else {
                HEAD_OBJECT_BYTES
            };
            self.digest.feed(u64::from(member) << 32 | rank as u64);
            let (coop, url) = (&mut self.coop, &self.urls[rank]);
            let served = self.rec.span("internet-home.coop.try_request", || {
                coop.try_request_at(member, url, bytes, now)
            });
            self.rec.exit(op);
            self.requested_bytes += bytes;
            batch.ops += 1;
            // An `Overloaded` refusal of an interactive request is a failure.
            batch.failed += u64::from(served.is_err());
        }
        self.second += 1;
        batch
    }

    fn run_seconds(&mut self, seconds: u64) -> Batch {
        let mut total = Batch::default();
        for _ in 0..seconds {
            let b = self.run_second();
            total.ops += b.ops;
            total.failed += b.failed;
        }
        total
    }

    fn baseline(&self) -> Baseline {
        Baseline {
            coop: self.coop.stats(),
            gossip_bytes: self.fabric.stats().gossip_bytes,
            transitions: brownout_transitions(),
            rejected: self.coop.overload_rejected(),
        }
    }
}

impl Workload for CoopNeighborhood {
    const PROFILE: Profile = Profile {
        busy_cpus: 1.0,
        cache: 0.0,
        memory: 1.0,
    };

    fn setup(cfg: &PassConfig) -> Self {
        let seconds_per_batch =
            ((NOMINAL_DAYS_PER_S * cfg.seconds / BATCHES as f64 * CYCLE_S as f64).round() as u64)
                .max(1);
        // The warm-up is always one whole day.
        let total_seconds = seconds_per_batch * BATCHES as u64 + CYCLE_S;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc0_0be5);

        let universe = WebUniverse::generate(CATALOGUE, 0.9, MEDIAN_OBJECT_BYTES, &mut rng);
        let crowd = FlashCrowd::new(
            FlashCrowdParams {
                // 10:00 of the compressed day; hours 9-16 all weigh 1.0
                // and are long enough to hold the crowd and its recovery.
                start: SimTime::from_secs(CYCLE_S * 10 / 24),
                ramp: SimDuration::from_secs(10),
                hold: SimDuration::from_secs(60),
                decay: SimDuration::from_secs(30),
                magnitude: CROWD_MAGNITUDE,
                ..FlashCrowdParams::default()
            },
            CATALOGUE,
        );
        let mut urls: Vec<Url> = universe
            .objects()
            .iter()
            .map(|o| Url::https("web.example", &o.path))
            .collect();
        urls.extend(
            (CATALOGUE..crowd.total_ranks())
                .map(|r| Url::https("web.example", &format!("/breaking/{r}"))),
        );

        let horizon = SimTime::from_secs(total_seconds + 1);
        let churn = ChurnSchedule::generate(MEMBERS, ChurnConfig::paper_preset(cfg.seed), horizon);
        let mut fabric = Fabric::new(FabricConfig {
            seed: cfg.seed ^ 0xfab,
            ..FabricConfig::default()
        });
        for i in 0..MEMBERS {
            fabric.join(Advertisement {
                rtt_ms: 2.0 + (i % 11) as f64 * 4.0,
                ..Advertisement::default()
            });
        }
        let observer = (0..MEMBERS)
            .find(|&i| churn.uptime_fraction(i, horizon) >= 1.0)
            .map(|i| PeerId(i as u64))
            .expect("the paper preset leaves 75 % of peers stable");

        let mut coop = CoopCache::new(MEMBERS as u32);
        coop.enable_overload(
            CoopOverloadConfig {
                admission: AdmissionConfig {
                    rate_per_sec: ADMISSION_RATE,
                    burst: ADMISSION_BURST,
                    ..AdmissionConfig::default()
                },
                ..CoopOverloadConfig::default()
            },
            SimTime::ZERO,
        );

        let ops_estimate = total_seconds as usize * 32;
        let mut w = CoopNeighborhood {
            coop,
            fabric,
            churn,
            observer,
            universe,
            urls,
            diurnal: DiurnalCurve::residential(),
            crowd,
            rng,
            second: 0,
            seconds_per_batch,
            events: Vec::new(),
            requested_bytes: 0,
            ticks: 0,
            base: Baseline::default(),
            // Two spans per request, five per tick.
            rec: Recorder::new(
                cfg.traced,
                ops_estimate * 2 + total_seconds as usize * 5,
                Instant::now(),
            ),
            digest: OpDigest::default(),
        };
        // Warm-up: one day, so the Zipf head is cached, membership has
        // converged and the crowd's head objects exist.
        let warm = w.run_seconds(CYCLE_S);
        assert_eq!(warm.failed, 0, "warm-up must be clean");
        w.requested_bytes = 0;
        w.ticks = 0;
        w
    }

    fn begin_window(&mut self) {
        self.base = self.baseline();
    }

    fn run_batch(&mut self, _index: usize) -> Batch {
        self.run_seconds(self.seconds_per_batch)
    }

    fn recorders(&mut self) -> Vec<&mut Recorder> {
        vec![&mut self.rec]
    }

    fn finish(self, window: &Window, report: &mut Report) {
        report.set("bench.op_stream_digest", self.digest.value());
        let end = self.baseline();
        let (a, b) = (end.coop, self.base.coop);
        let uplink = a.uplink_bytes - b.uplink_bytes;
        report.set(
            "offload_bp",
            (self.requested_bytes as f64 - uplink as f64) * 10_000.0
                / self.requested_bytes.max(1) as f64,
        );
        report.set(
            "internet-home.coop.local_hits",
            (a.local_hits - b.local_hits) as f64,
        );
        report.set(
            "internet-home.coop.neighbor_hits",
            (a.neighbor_hits - b.neighbor_hits) as f64,
        );
        report.set(
            "internet-home.coop.stale_hits",
            (a.stale_hits - b.stale_hits) as f64,
        );
        report.set(
            "internet-home.coop.origin_fetches",
            (a.origin_fetches - b.origin_fetches) as f64,
        );
        report.set(
            "internet-home.coop.overload_rejected",
            (end.rejected - self.base.rejected) as f64,
        );
        report.set(
            "resilience.brownout.transitions",
            (end.transitions - self.base.transitions) as f64,
        );
        report.set(
            "fabric.gossip.bytes_per_tick",
            (end.gossip_bytes - self.base.gossip_bytes) as f64 / self.ticks.max(1) as f64,
        );
        report.set(
            "internet-home.coop.allocs_per_op_x1000",
            window.alloc_calls as f64 * 1000.0 / window.ops.max(1) as f64,
        );
        // Every request is served by exactly one tier.
        let served = (a.local_hits + a.neighbor_hits + a.stale_hits + a.origin_fetches)
            - (b.local_hits + b.neighbor_hits + b.stale_hits + b.origin_fetches);
        report.failed += served.abs_diff(window.ops - (end.rejected - self.base.rejected));

        report.set_self_ns(
            "internet-home.coop.try_request_ns",
            "internet-home.coop.try_request",
            window,
        );
        report.set_self_ns(
            "internet-home.coop.apply_view_ns",
            "internet-home.coop.apply_view",
            window,
        );
        report.set_self_ns("fabric.gossip.tick_ns", "fabric.gossip.tick", window);
        report.set_self_ns("fabric.gossip.view_ns", "fabric.gossip.view", window);
        if window.traced {
            let (encode, decode) = micro::fabric_wire_ns();
            report.set("fabric.wire.encode_ns", encode);
            report.set("fabric.wire.decode_ns", decode);
        }
    }
}

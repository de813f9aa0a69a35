//! E20 — chaos: the fault-injection fabric crossed with the unified
//! resilience layer.
//!
//! A NoCDN client fetches chunked pages through
//! [`ResilientFetcher`](hpop_nocdn::chunked::ResilientFetcher) while a
//! seeded [`FaultPlan`] injects crashes, slow peers (1% service rate),
//! corrupt responders, access-link loss, delay spikes, blackholes and
//! named partitions — all on the same deterministic clock as the E18/E19
//! churn schedule. Alongside, a cooperative cache absorbs the same crash
//! schedule through its stale-then-origin ladder.
//!
//! Headline assertions (enforced by `check_snapshot --budget`):
//!
//! - `chaos.delivery.success_bp >= 9990` — at least 99.9% of pages under
//!   the combined chaos preset are delivered *verified* (basis points).
//! - `chaos.corrupt.accepted <= 0` — corruption is always detected and
//!   repaired before a byte reaches the caller, in every fault mix.

use crate::stats::percentile;
use crate::table::{f2, pct, Table};
use hpop_crypto::sha256::Sha256;
use hpop_internet_home::coop::{CoopCache, FetchTier};
use hpop_netsim::faults::{FaultConfig, FaultPlan, PeerMode};
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_nocdn::chunked::ResilientFetcher;
use hpop_nocdn::origin::ContentProvider;
use hpop_nocdn::peer::{NoCdnPeer, PeerBehavior, PeerId};
use hpop_obs::mix;
use hpop_resilience::Deadline;
use std::collections::BTreeMap;

/// One named fault mix driven through the chaos harness.
pub struct FaultMix {
    /// Row label ("baseline", "crashes", "chaos", …).
    pub name: &'static str,
    /// The materialized plan for this mix.
    pub plan: FaultPlan,
}

/// The three standard mixes: fault-free baseline, crash/restart only,
/// and the combined chaos preset (every fault class at once).
pub fn standard_mixes(nodes: usize, horizon: SimTime, seed: u64) -> Vec<FaultMix> {
    let quiet = FaultConfig {
        slow_fraction: 0.0,
        corrupt_fraction: 0.0,
        loss_episodes_per_node: 0.0,
        delay_episodes_per_node: 0.0,
        blackhole_episodes_per_node: 0.0,
        partitions: 0,
        ..FaultConfig::chaos_preset(seed)
    };
    vec![
        FaultMix {
            name: "baseline",
            plan: FaultPlan::empty(horizon),
        },
        FaultMix {
            name: "crashes",
            plan: FaultPlan::generate(nodes, quiet, horizon),
        },
        FaultMix {
            name: "chaos",
            plan: FaultPlan::generate(nodes, FaultConfig::chaos_preset(seed), horizon),
        },
    ]
}

/// Outcome of one chaos run (one fault mix).
pub struct ChaosRunResult {
    /// Pages requested.
    pub attempts: u64,
    /// Pages delivered with the whole-object hash verified.
    pub delivered: u64,
    /// Pages whose final bytes failed verification (must stay zero —
    /// the "corrupted bytes accepted" counter).
    pub corrupt_accepted: u64,
    /// Distinct corrupt-serve detections fed to breakers.
    pub corrupt_detected: u64,
    /// Chunks that fell back to the origin.
    pub fallback_chunks: u64,
    /// Chunks that fired a hedged second fetch.
    pub hedged_chunks: u64,
    /// Median page completion, milliseconds of sim time.
    pub p50_ms: f64,
    /// 99th-percentile page completion, milliseconds of sim time.
    pub p99_ms: f64,
}

impl ChaosRunResult {
    /// Verified-delivery rate in basis points (9990 = 99.9%).
    pub fn success_bp(&self) -> u64 {
        if self.attempts == 0 {
            return 0;
        }
        self.delivered * 10_000 / self.attempts
    }
}

/// Drives `pages` chunked page fetches, one per sim-second, through a
/// [`ResilientFetcher`] against `n` nodes under `plan`. Node 0 is the
/// requesting client; nodes `1..n` serve. At each request time the
/// plan's verdicts are projected onto the peer set: crashed or
/// unreachable peers become [`PeerBehavior::Unresponsive`], corrupt
/// responders corrupt, loss windows drop individual attempts (a
/// deterministic per-request coin), slow peers and delay spikes stretch
/// the latency oracle so hedging fires.
///
/// When `headline` is set the run also publishes the budget-enforced
/// counters `chaos.delivery.success_bp` (this mix's verified-delivery
/// rate) — only one mix per process may claim the headline.
pub fn run_chaos(
    n: usize,
    pages: u64,
    plan: &FaultPlan,
    seed: u64,
    headline: bool,
) -> ChaosRunResult {
    run_chaos_with(
        n,
        pages,
        plan,
        seed,
        headline,
        &mut ResilientFetcher::default(),
        |_, _, _| (),
    )
}

/// [`run_chaos`] with a caller-owned fetcher (so E22 can attach a
/// sampled span tracer and drain the trees afterwards) and a per-page
/// observer `(start, end, verified)` for burn-rate series.
pub fn run_chaos_with(
    n: usize,
    pages: u64,
    plan: &FaultPlan,
    seed: u64,
    headline: bool,
    fetcher: &mut ResilientFetcher,
    mut on_page: impl FnMut(SimTime, SimTime, bool),
) -> ChaosRunResult {
    assert!(n >= 2, "need a client and at least one serving peer");
    let mut origin = ContentProvider::new("cdn.example");
    let body: Vec<u8> = (0..65_536u32).map(|i| (i % 251) as u8).collect();
    let digest = Sha256::digest(&body);
    origin.put_object("/page.bin", body);

    let metrics = hpop_obs::metrics();
    let page_ms = metrics.histogram("chaos.page.ms");

    let client = 0usize;
    let order: Vec<PeerId> = (1..n as u32).map(PeerId).collect();
    let n_chunks = 8;
    // Kept strictly under the hedge min_trigger floor so an
    // all-healthy fleet never sits on the >= trigger boundary.
    let base_lat = SimDuration::from_millis(10);

    let mut result = ChaosRunResult {
        attempts: 0,
        delivered: 0,
        corrupt_accepted: 0,
        corrupt_detected: 0,
        fallback_chunks: 0,
        hedged_chunks: 0,
        p50_ms: 0.0,
        p99_ms: 0.0,
    };
    let mut latencies = Vec::with_capacity(pages as usize);

    for page in 0..pages {
        let start = SimTime::from_secs(page);
        // Project the plan onto this instant: behavior per serving peer.
        let mut peers: BTreeMap<PeerId, NoCdnPeer> = BTreeMap::new();
        for node in 1..n {
            let id = PeerId(node as u32);
            let lost = {
                let p = plan.loss(client, node, start);
                p > 0.0 && (mix(seed ^ mix(page) ^ node as u64) as f64 / u64::MAX as f64) < p
            };
            let behavior = if !plan.reachable(client, node, start) || lost {
                PeerBehavior::Unresponsive
            } else {
                match plan.peer_mode(node, start) {
                    PeerMode::Corrupt => PeerBehavior::CorruptsContent,
                    _ => PeerBehavior::Honest,
                }
            };
            peers.insert(id, NoCdnPeer::with_behavior(id, behavior));
        }
        let latency_of = |p: PeerId| {
            let node = p.0 as usize;
            let service = match plan.peer_mode(node, start) {
                // A 1%-rate peer takes 100x as long to serve.
                PeerMode::Slow(rate) => {
                    SimDuration::from_secs_f64(base_lat.as_secs_f64() / rate.max(1e-6))
                }
                _ => base_lat,
            };
            service + plan.extra_delay(client, node, start)
        };

        let mut now = start;
        let deadline = Deadline::after(start, SimDuration::from_secs(30));
        let (report, _body) = fetcher.fetch(
            "/page.bin",
            n_chunks,
            &digest,
            &order,
            &mut peers,
            &mut origin,
            deadline,
            &mut now,
            &latency_of,
        );

        result.attempts += 1;
        if report.verified {
            result.delivered += 1;
        } else {
            result.corrupt_accepted += 1;
        }
        on_page(start, now, report.verified);
        result.corrupt_detected += report.corrupt_peers.len() as u64;
        result.fallback_chunks += report.fallback_chunks as u64;
        result.hedged_chunks += report.hedged_chunks as u64;
        let elapsed_ms = now.saturating_since(start).as_secs_f64() * 1e3;
        latencies.push(elapsed_ms);
        page_ms.record(elapsed_ms as u64);
    }

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    result.p50_ms = percentile(&latencies, 0.50);
    result.p99_ms = percentile(&latencies, 0.99);

    metrics
        .counter("chaos.delivery.attempts")
        .add(result.attempts);
    metrics
        .counter("chaos.delivery.delivered")
        .add(result.delivered);
    metrics
        .counter("chaos.corrupt.accepted")
        .add(result.corrupt_accepted);
    metrics
        .counter("chaos.corrupt.detected")
        .add(result.corrupt_detected);
    metrics
        .counter("chaos.fallback.chunks")
        .add(result.fallback_chunks);
    if headline {
        metrics
            .counter("chaos.delivery.success_bp")
            .add(result.success_bp());
    }
    result
}

/// E20a — verified delivery / latency / waste across fault mixes.
pub fn delivery_table(n: usize, pages: u64, seed: u64) -> Table {
    let mut t = Table::new(
        "E20a",
        format!("NoCDN resilient delivery under fault injection ({n} nodes, {pages} pages)"),
        &[
            "fault mix",
            "pages",
            "delivered",
            "success (bp)",
            "corrupt detected",
            "corrupt accepted",
            "fallback chunks",
            "hedged chunks",
            "p50 ms",
            "p99 ms",
        ],
    );
    let horizon = SimTime::from_secs(pages);
    for m in standard_mixes(n, horizon, seed) {
        // Only the combined preset claims the budget-enforced headline.
        let r = run_chaos(n, pages, &m.plan, seed, m.name == "chaos");
        t.push(vec![
            m.name.to_string(),
            r.attempts.to_string(),
            r.delivered.to_string(),
            r.success_bp().to_string(),
            r.corrupt_detected.to_string(),
            r.corrupt_accepted.to_string(),
            r.fallback_chunks.to_string(),
            r.hedged_chunks.to_string(),
            f2(r.p50_ms),
            f2(r.p99_ms),
        ]);
    }
    t
}

/// Outcome of the coop-cache leg of the chaos run.
pub struct CoopChaosResult {
    /// Requests issued.
    pub requests: u64,
    /// Requests served from a stale lateral copy while degraded.
    pub stale: u64,
    /// Requests that crossed the uplink.
    pub origin: u64,
    /// Fraction of requests kept inside the neighborhood.
    pub containment: f64,
}

/// Drives a cooperative cache through the same crash schedule: members
/// the plan declares crashed go down (and recover on restart), and the
/// stale-then-origin ladder keeps requests off the uplink.
pub fn run_coop_chaos(n: usize, requests: u64, plan: &FaultPlan, seed: u64) -> CoopChaosResult {
    let mut coop = CoopCache::new(n as u32);
    let metrics = hpop_obs::metrics();
    let mut stale = 0u64;
    let mut origin = 0u64;
    for i in 0..requests {
        let now = SimTime::from_secs(i);
        for node in 0..n {
            let crashed = plan.peer_mode(node, now) == PeerMode::Crashed;
            coop.set_member_up(node as u32, !crashed);
        }
        // A sliding working set: new objects keep appearing through the
        // run, so first fills land while members are crashed and their
        // copies become stale-eligible when those members return.
        let member = (mix(seed ^ mix(i)) % n as u64) as u32;
        let obj = i / 8 + mix(seed ^ mix(i) ^ 0xc0) % 16;
        let url = hpop_http::url::Url::https("web.example", &format!("/obj{obj}"));
        if coop.up_count() == 0 {
            continue;
        }
        match coop.request_at(member, &url, 10_000, now) {
            FetchTier::Stale => stale += 1,
            FetchTier::Origin => origin += 1,
            _ => {}
        }
    }
    metrics.counter("chaos.coop.stale").add(stale);
    CoopChaosResult {
        requests,
        stale,
        origin,
        containment: coop.stats().containment(),
    }
}

/// E20b — cooperative-cache continuity under the crash schedule.
pub fn coop_table(n: usize, requests: u64, seed: u64) -> Table {
    let mut t = Table::new(
        "E20b",
        format!("coop cache degraded-mode continuity ({n} members, {requests} requests)"),
        &[
            "fault mix",
            "requests",
            "stale serves",
            "origin fetches",
            "containment",
        ],
    );
    let horizon = SimTime::from_secs(requests);
    for m in standard_mixes(n, horizon, seed ^ 0xc00b) {
        let r = run_coop_chaos(n, requests, &m.plan, seed);
        t.push(vec![
            m.name.to_string(),
            r.requests.to_string(),
            r.stale.to_string(),
            r.origin.to_string(),
            pct(r.containment),
        ]);
    }
    t
}

/// Default-scale run (the committed artifact).
pub fn run_default() -> Vec<Table> {
    vec![delivery_table(24, 900, 0xe21), coop_table(12, 900, 0xe21)]
}

/// Reduced scale for CI smoke runs.
pub fn run_smoke() -> Vec<Table> {
    vec![delivery_table(12, 180, 0xe21), coop_table(8, 180, 0xe21)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_plan(n: usize, pages: u64, seed: u64) -> FaultPlan {
        FaultPlan::generate(
            n,
            FaultConfig::chaos_preset(seed),
            SimTime::from_secs(pages),
        )
    }

    #[test]
    fn combined_chaos_meets_delivery_floor_and_accepts_no_corruption() {
        let plan = chaos_plan(16, 300, 0xe20);
        let r = run_chaos(16, 300, &plan, 0xe20, false);
        assert!(
            r.success_bp() >= 9990,
            "delivery {} bp (delivered {}/{})",
            r.success_bp(),
            r.delivered,
            r.attempts
        );
        assert_eq!(r.corrupt_accepted, 0, "corruption must never be accepted");
    }

    #[test]
    fn chaos_actually_exercises_the_resilience_machinery() {
        let plan = chaos_plan(16, 300, 0xe20);
        let r = run_chaos(16, 300, &plan, 0xe20, false);
        // The preset contains corrupt responders and slow peers; the
        // fetcher must have detected corruption and fallen back at
        // least once across 300 pages.
        assert!(r.fallback_chunks > 0, "faults should force origin fallback");
        assert!(r.p99_ms >= r.p50_ms);
    }

    /// The committed-artifact scale: corrupt responders exist in the
    /// plan, every corrupt serve is caught before acceptance, and slow
    /// peers / delay spikes make the hedge fire.
    #[test]
    fn default_scale_detects_corruption_and_hedges() {
        let plan = chaos_plan(24, 900, 0xe21);
        let r = run_chaos(24, 900, &plan, 0xe21, false);
        assert!(r.corrupt_detected > 0, "plan must contain corrupt serves");
        assert_eq!(r.corrupt_accepted, 0);
        assert!(r.hedged_chunks > 0, "slow peers must trigger hedging");
        assert!(r.success_bp() >= 9990, "delivery {} bp", r.success_bp());
    }

    #[test]
    fn baseline_is_fault_free() {
        let plan = FaultPlan::empty(SimTime::from_secs(100));
        let r = run_chaos(8, 100, &plan, 1, false);
        assert_eq!(r.success_bp(), 10_000);
        assert_eq!(r.corrupt_detected, 0);
        assert_eq!(r.fallback_chunks, 0);
    }

    #[test]
    fn two_runs_are_deterministic() {
        let plan = chaos_plan(12, 120, 7);
        let a = run_chaos(12, 120, &plan, 7, false);
        let b = run_chaos(12, 120, &plan, 7, false);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.fallback_chunks, b.fallback_chunks);
        assert_eq!(a.hedged_chunks, b.hedged_chunks);
        assert_eq!(a.p99_ms, b.p99_ms);
    }

    #[test]
    fn coop_serves_stale_under_crash_schedule() {
        // The committed-artifact configuration (coop_table's chaos row).
        let plan = FaultPlan::generate(
            12,
            FaultConfig::chaos_preset(0xe21 ^ 0xc00b),
            SimTime::from_secs(900),
        );
        let r = run_coop_chaos(12, 900, &plan, 0xe21);
        assert_eq!(r.requests, 900);
        assert!(r.stale > 0, "crash windows must force stale serves");
        assert!(r.containment > 0.0);
    }
}

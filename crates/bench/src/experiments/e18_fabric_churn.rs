//! E18 — fabric gossip membership under churn.
//!
//! The shared fabric layer (SWIM-style gossip + probe-failure
//! detection) is what lets every service survive peer churn: dead peers
//! are evicted from `PeerView`s and in-flight work retries against
//! survivors. This experiment drives a neighborhood fabric with the
//! paper-preset churn schedule (25% of peers cycling, mean session 10
//! sim-minutes, mean downtime 2 sim-minutes) and measures:
//!
//! - failure-detection latency (down-transition → first `Dead`
//!   declaration) and false positives;
//! - gossip anti-entropy cost in bytes;
//! - NoCDN delivery success when each request selects its serving peer
//!   through the observer's `PeerView` and retries failed attempts
//!   against the next-ranked survivor.

use crate::stats::percentile;
use crate::table::{f2, pct, Table};
use hpop_fabric::{Advertisement, Fabric, FabricConfig, PeerId, RankBy};
use hpop_netsim::churn::{ChurnConfig, ChurnSchedule};
use hpop_netsim::time::SimTime;
use std::collections::BTreeSet;

/// Outcome of one fabric-under-churn run.
pub struct ChurnRunResult {
    /// Peers in the neighborhood.
    pub nodes: usize,
    /// Peers the schedule cycles on/off.
    pub churners: usize,
    /// Delivery attempts made through the observer's view.
    pub deliveries: u64,
    /// Deliveries that succeeded on the first selected peer.
    pub first_try: u64,
    /// Deliveries that succeeded only after >= 1 retry.
    pub after_retry: u64,
    /// Deliveries that exhausted the retry budget.
    pub failed: u64,
    /// Retry attempts performed in total.
    pub retries: u64,
    /// True `Dead` declarations across all observers.
    pub detections: u64,
    /// Declarations against peers that were actually up. Scored with
    /// no rejoin-window exemption: a declaration landing after its
    /// subject rejoined counts here.
    pub false_positives: u64,
    /// Median detection latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile detection latency, milliseconds.
    pub p99_ms: f64,
    /// Anti-entropy bytes shipped.
    pub gossip_bytes: u64,
}

impl ChurnRunResult {
    /// Fraction of deliveries that reached an up peer.
    pub fn success_rate(&self) -> f64 {
        if self.deliveries == 0 {
            return 0.0;
        }
        (self.first_try + self.after_retry) as f64 / self.deliveries as f64
    }
}

/// Sim-time window for the detect-latency SLO series (one minute).
const DETECT_WINDOW_US: u64 = 60_000_000;

/// Ceiling on any single failure-detection latency: the committed run's
/// p99 sits at 6 s, so 10 s flags a real detector regression without
/// tripping on the preset's normal tail.
pub const DETECT_CEILING_MS: u64 = 10_000;

/// Drives `n` fabric nodes against the paper churn preset for
/// `horizon_secs` sim-seconds. Every `delivery_every` seconds a
/// never-churning observer serves one NoCDN request: it picks the
/// closest peer from its `PeerView` and, on failure (ground truth says
/// that peer is down), retries against the next-ranked survivor up to
/// `retry_budget` times.
///
/// With `observed` set, each detection latency is also recorded into
/// the global `fabric.detect.latency_ms` time series (keyed to the sim
/// second it was declared) and a [`hpop_obs::SloMonitor`] evaluates the
/// [`DETECT_CEILING_MS`] ceiling continuously; breach windows land in
/// the snapshot and in `slo.breach.windows`. Only one run per process
/// should observe — the series is global and the mixes share sim time.
pub fn run_churn(
    n: usize,
    horizon_secs: u64,
    delivery_every: u64,
    retry_budget: u32,
    seed: u64,
    observed: bool,
) -> ChurnRunResult {
    let horizon = SimTime::from_secs(horizon_secs);
    let churn = ChurnSchedule::generate(n, ChurnConfig::paper_preset(seed), horizon);
    let mut fabric = Fabric::new(FabricConfig {
        seed: seed ^ 0xfab,
        ..FabricConfig::default()
    });
    for i in 0..n {
        fabric.join(Advertisement {
            rtt_ms: 2.0 + (i % 11) as f64 * 4.0,
            ..Advertisement::default()
        });
    }
    // The provider-side observer: a peer the schedule never cycles.
    let observer = (0..n)
        .find(|&i| churn.uptime_fraction(i, horizon) >= 1.0)
        .map(|i| PeerId(i as u64))
        .expect("paper preset leaves 75% of peers stable");

    let metrics = hpop_obs::metrics();
    let detect_series = observed
        .then(|| hpop_obs::series_registry().series("fabric.detect.latency_ms", DETECT_WINDOW_US));
    let mut slo = observed.then(|| {
        let mut m = hpop_obs::SloMonitor::new(hpop_obs::series_registry().clone());
        m.add(hpop_obs::SloSpec {
            name: "fabric.detect-latency".into(),
            kind: hpop_obs::SloKind::MaxCeiling {
                series: "fabric.detect.latency_ms".into(),
                ceiling: DETECT_CEILING_MS,
            },
        });
        m
    });
    let mut seen_detections = 0usize;
    let mut deliveries = 0u64;
    let mut first_try = 0u64;
    let mut after_retry = 0u64;
    let mut failed = 0u64;
    let mut retries = 0u64;

    let mut events = Vec::new();
    for s in 0..horizon_secs {
        let from = SimTime::from_secs(s);
        let to = SimTime::from_secs(s + 1);
        churn.transitions_into(from, to, &mut events);
        for ev in &events {
            fabric.set_up(PeerId(ev.node as u64), ev.up);
        }
        fabric.tick();

        if let Some(series) = &detect_series {
            let lats = &fabric.stats().detection_latency_ms;
            for l in &lats[seen_detections..] {
                series.record(to.as_nanos() / 1_000, *l as u64);
            }
            seen_detections = lats.len();
            if let Some(m) = &mut slo {
                m.poll(to.as_nanos() / 1_000);
            }
        }

        if s % delivery_every != 0 {
            continue;
        }
        // One NoCDN page view routed through the observer's view: 8
        // objects spread over the 8 closest believed-alive peers (the
        // proximity window), each failed object retried against the
        // next-ranked survivor.
        let view = fabric.view(observer);
        let mut not_me = BTreeSet::new();
        not_me.insert(observer);
        let ranked = view.select(usize::MAX, RankBy::Locality, &not_me);
        let window = ranked.len().min(8);
        for obj in 0..8usize {
            deliveries += 1;
            if window == 0 {
                failed += 1;
                metrics.counter("nocdn.delivery.failure").incr();
                continue;
            }
            let mut tried: BTreeSet<PeerId> = BTreeSet::new();
            let mut peer = ranked[obj % window];
            let mut attempt = 0u32;
            loop {
                if fabric.is_up(peer) {
                    if attempt == 0 {
                        first_try += 1;
                    } else {
                        after_retry += 1;
                    }
                    metrics.counter("nocdn.delivery.success").incr();
                    break;
                }
                tried.insert(peer);
                if attempt >= retry_budget {
                    failed += 1;
                    metrics.counter("nocdn.delivery.failure").incr();
                    break;
                }
                // Next-ranked survivor the view still believes alive.
                let Some(&next) = ranked.iter().find(|p| !tried.contains(p)) else {
                    failed += 1;
                    metrics.counter("nocdn.delivery.failure").incr();
                    break;
                };
                peer = next;
                attempt += 1;
                retries += 1;
                metrics.counter("nocdn.delivery.retry").incr();
            }
        }
    }

    if let Some(mut m) = slo {
        m.finish(horizon.as_nanos() / 1_000);
        metrics
            .counter("slo.breach.windows")
            .add(m.breaches().len() as u64);
        metrics
            .counter("slo.windows.evaluated")
            .add(m.windows_evaluated());
        crate::harness::stash_slo_breaches(m.breaches().to_vec());
    }

    let stats = fabric.stats();
    let mut lat = stats.detection_latency_ms.clone();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ChurnRunResult {
        nodes: n,
        churners: churn.churner_count(),
        deliveries,
        first_try,
        after_retry,
        failed,
        retries,
        detections: stats.true_detections,
        false_positives: stats.false_positives,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        gossip_bytes: stats.gossip_bytes,
    }
}

/// Failure-detection quality under the paper churn preset.
pub fn detection_table(n: usize, horizon_secs: u64) -> Table {
    let mut t = Table::new(
        "E18a",
        format!("fabric failure detection under churn ({n} peers, {horizon_secs} sim-s)"),
        &[
            "churners",
            "dead declarations",
            "false positives",
            "p50 detect latency (ms)",
            "p99 detect latency (ms)",
            "gossip MB",
        ],
    );
    let r = run_churn(n, horizon_secs, 5, 3, 0xc2a, true);
    t.push(vec![
        format!("{}/{}", r.churners, r.nodes),
        r.detections.to_string(),
        r.false_positives.to_string(),
        f2(r.p50_ms),
        f2(r.p99_ms),
        f2(r.gossip_bytes as f64 / 1e6),
    ]);
    t
}

/// NoCDN delivery success vs retry budget: retries routed through the
/// observer's `PeerView` turn churn-induced failures into survivals.
pub fn delivery_table(n: usize, horizon_secs: u64) -> Table {
    let mut t = Table::new(
        "E18b",
        format!("NoCDN delivery under churn vs PeerView retry budget ({n} peers)"),
        &[
            "retry budget",
            "deliveries",
            "first-try",
            "after retry",
            "failed",
            "success rate",
        ],
    );
    for budget in [0u32, 1, 3] {
        let r = run_churn(n, horizon_secs, 5, budget, 0xc2a, false);
        t.push(vec![
            budget.to_string(),
            r.deliveries.to_string(),
            r.first_try.to_string(),
            r.after_retry.to_string(),
            r.failed.to_string(),
            pct(r.success_rate()),
        ]);
    }
    t
}

/// Default-scale run (the committed artifact).
pub fn run_default() -> Vec<Table> {
    vec![detection_table(40, 3600), delivery_table(40, 3600)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_success_exceeds_99_percent_with_retries() {
        let r = run_churn(24, 1200, 5, 3, 0xc2a, false);
        assert!(r.deliveries >= 200);
        assert!(
            r.success_rate() >= 0.99,
            "success {:.4} (first {}, retry {}, failed {})",
            r.success_rate(),
            r.first_try,
            r.after_retry,
            r.failed
        );
    }

    #[test]
    fn retries_recover_what_first_tries_lose() {
        let none = run_churn(24, 1200, 5, 0, 0xc2a, false);
        let some = run_churn(24, 1200, 5, 3, 0xc2a, false);
        assert!(some.success_rate() >= none.success_rate());
        // The schedule does churn, so the detector has work to do.
        assert!(some.detections > 0);
        assert!(some.p99_ms >= some.p50_ms);
        assert!(some.p50_ms > 0.0);
    }

    /// Regression: the detector used to need a "rejoin window"
    /// exemption for declarations landing just after their subject
    /// rejoined. The rejoin broadcast plus incarnation persistence
    /// removed the window at its source, so false positives must now
    /// be zero with *no* exemption in the scoring.
    #[test]
    fn false_positives_are_zero_without_rejoin_exemption() {
        let r = run_churn(40, 1800, 60, 0, 0xc2a, false);
        assert_eq!(r.false_positives, 0);
        assert!(r.detections > 0, "churn must exercise the detector");
    }

    #[test]
    fn gossip_cost_is_accounted() {
        let r = run_churn(12, 300, 10, 1, 7, false);
        assert!(r.gossip_bytes > 0);
        assert_eq!(r.churners, 3, "25% of 12 peers cycle");
    }
}

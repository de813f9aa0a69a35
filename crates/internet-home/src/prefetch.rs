//! The scope-vs-freshness prefetch planner.
//!
//! §IV-D ("Aggressiveness"): "we can decrease the number of requests
//! going to the Internet by either reducing the scope of the content
//! gathered (thus reducing the volume of requests necessary to keep the
//! content fresh) or by decreasing the frequency of content
//! pre-validation." [`PrefetchPlanner::plan`] makes that tradeoff
//! explicit: a plan's *expected hit rate* grows with scope, its
//! *upstream request/byte rate* grows with scope × refresh frequency.
//! Experiment E13 sweeps both knobs.

use crate::history::HistoryProfile;
use hpop_http::url::Url;
use hpop_netsim::time::SimDuration;
use std::collections::BTreeMap;

/// Metadata the planner knows about each prefetchable object.
#[derive(Clone, Debug)]
pub struct ObjectMeta {
    /// Object size in bytes.
    pub bytes: u64,
    /// How long a fetched copy stays fresh.
    pub ttl: SimDuration,
}

/// The planner's knobs.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchConfig {
    /// How many of the household's top sites to keep locally.
    pub scope: usize,
    /// Refresh period as a multiple of each object's TTL: `1.0` =
    /// re-fetch exactly at expiry (always fresh); `2.0` = allow copies
    /// to run stale half the time (half the upstream load).
    pub freshness_factor: f64,
}

/// A concrete prefetch plan and its predicted costs/benefits.
#[derive(Clone, Debug)]
pub struct PrefetchPlan {
    /// The chosen objects and their refresh periods.
    pub entries: Vec<(Url, SimDuration)>,
    /// Predicted probability a user request hits a *fresh* local copy.
    pub expected_hit_rate: f64,
    /// Long-run upstream refresh traffic, requests per hour.
    pub upstream_requests_per_hour: f64,
    /// Long-run upstream refresh traffic, bytes per hour.
    pub upstream_bytes_per_hour: f64,
    /// Local storage the plan occupies.
    pub storage_bytes: u64,
}

/// Plans what slice of the Internet this residence keeps.
///
/// ```
/// use hpop_internet_home::history::HistoryProfile;
/// use hpop_internet_home::prefetch::{ObjectMeta, PrefetchConfig, PrefetchPlanner};
/// use hpop_http::url::Url;
/// use hpop_netsim::time::{SimDuration, SimTime};
///
/// let url = Url::https("news.example", "/front");
/// let mut history = HistoryProfile::new();
/// history.record_visit(&url, SimTime::ZERO);
/// let mut planner = PrefetchPlanner::new();
/// planner.register(url, ObjectMeta { bytes: 100_000, ttl: SimDuration::from_secs(3600) });
/// let plan = planner.plan(&history, PrefetchConfig { scope: 10, freshness_factor: 1.0 });
/// assert_eq!(plan.entries.len(), 1);
/// assert!(plan.expected_hit_rate > 0.99);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PrefetchPlanner {
    catalog: BTreeMap<Url, ObjectMeta>,
}

impl PrefetchPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an object's metadata (discovered by crawling, or from
    /// previous on-demand fetches).
    pub fn register(&mut self, url: Url, meta: ObjectMeta) {
        self.catalog.insert(url, meta);
    }

    /// Builds a plan for the household profile under the given knobs.
    ///
    /// The expected hit rate counts a covered object as hit with
    /// probability `min(1, ttl / refresh_period)` — the long-run
    /// fraction of time the copy is fresh when refreshed every
    /// `freshness_factor × ttl`.
    ///
    /// # Panics
    ///
    /// Panics if `freshness_factor < 1.0` (refreshing faster than expiry
    /// only wastes upstream capacity) or `scope == 0`.
    pub fn plan(&self, history: &HistoryProfile, cfg: PrefetchConfig) -> PrefetchPlan {
        assert!(cfg.scope > 0, "scope must be positive");
        assert!(
            cfg.freshness_factor >= 1.0,
            "freshness factor below 1.0 refreshes content before it expires"
        );
        let mut entries = Vec::new();
        let mut hit_rate = 0.0;
        let mut req_per_hour = 0.0;
        let mut bytes_per_hour = 0.0;
        let mut storage = 0u64;
        for (url, _visits) in history.top_sites(cfg.scope) {
            let Some(meta) = self.catalog.get(&url) else {
                continue; // not prefetchable (unknown size/ttl)
            };
            let refresh_period =
                SimDuration::from_secs_f64(meta.ttl.as_secs_f64() * cfg.freshness_factor)
                    .max(SimDuration::from_secs(1));
            let fresh_fraction = (1.0 / cfg.freshness_factor).min(1.0);
            hit_rate += history.visit_probability(&url) * fresh_fraction;
            let per_hour = 3600.0 / refresh_period.as_secs_f64();
            req_per_hour += per_hour;
            bytes_per_hour += per_hour * meta.bytes as f64;
            storage += meta.bytes;
            entries.push((url, refresh_period));
        }
        PrefetchPlan {
            entries,
            expected_hit_rate: hit_rate,
            upstream_requests_per_hour: req_per_hour,
            upstream_bytes_per_hour: bytes_per_hour,
            storage_bytes: storage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_netsim::time::SimTime;

    fn u(p: &str) -> Url {
        Url::https("web.example", p)
    }

    /// History: Zipf-ish visits over 20 sites; catalog with 1-hour TTLs.
    fn setup() -> (HistoryProfile, PrefetchPlanner) {
        let mut h = HistoryProfile::new();
        let mut p = PrefetchPlanner::new();
        for rank in 1..=20u64 {
            let url = u(&format!("/site{rank:02}"));
            for v in 0..(40 / rank) {
                h.record_visit(&url, SimTime::from_secs(rank * 10_000 + v * 60));
            }
            p.register(
                url,
                ObjectMeta {
                    bytes: 100_000,
                    ttl: SimDuration::from_secs(3600),
                },
            );
        }
        (h, p)
    }

    #[test]
    fn wider_scope_raises_hit_rate_and_load() {
        let (h, p) = setup();
        let narrow = p.plan(
            &h,
            PrefetchConfig {
                scope: 3,
                freshness_factor: 1.0,
            },
        );
        let wide = p.plan(
            &h,
            PrefetchConfig {
                scope: 20,
                freshness_factor: 1.0,
            },
        );
        assert!(wide.expected_hit_rate > narrow.expected_hit_rate);
        assert!(wide.upstream_requests_per_hour > narrow.upstream_requests_per_hour);
        assert!(wide.storage_bytes > narrow.storage_bytes);
        // Full scope at refresh-on-expiry ⇒ hit rate ≈ 1.
        assert!((wide.expected_hit_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn relaxed_freshness_halves_load_and_hit_rate() {
        let (h, p) = setup();
        let tight = p.plan(
            &h,
            PrefetchConfig {
                scope: 10,
                freshness_factor: 1.0,
            },
        );
        let relaxed = p.plan(
            &h,
            PrefetchConfig {
                scope: 10,
                freshness_factor: 2.0,
            },
        );
        assert!(
            (relaxed.upstream_requests_per_hour - tight.upstream_requests_per_hour / 2.0).abs()
                < 1e-9
        );
        assert!((relaxed.expected_hit_rate - tight.expected_hit_rate / 2.0).abs() < 1e-9);
        // Storage is unchanged — freshness only affects traffic.
        assert_eq!(relaxed.storage_bytes, tight.storage_bytes);
    }

    #[test]
    fn hourly_request_arithmetic() {
        let (h, p) = setup();
        let plan = p.plan(
            &h,
            PrefetchConfig {
                scope: 5,
                freshness_factor: 1.0,
            },
        );
        // 5 objects × 1 refresh/hour.
        assert!((plan.upstream_requests_per_hour - 5.0).abs() < 1e-9);
        assert!((plan.upstream_bytes_per_hour - 500_000.0).abs() < 1e-6);
        assert_eq!(plan.entries.len(), 5);
    }

    #[test]
    fn unknown_objects_are_skipped() {
        let mut h = HistoryProfile::new();
        h.record_visit(&u("/uncatalogued"), SimTime::ZERO);
        let p = PrefetchPlanner::new();
        let plan = p.plan(
            &h,
            PrefetchConfig {
                scope: 5,
                freshness_factor: 1.0,
            },
        );
        assert!(plan.entries.is_empty());
        assert_eq!(plan.expected_hit_rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "freshness factor")]
    fn overeager_freshness_rejected() {
        let (h, p) = setup();
        p.plan(
            &h,
            PrefetchConfig {
                scope: 1,
                freshness_factor: 0.5,
            },
        );
    }
}

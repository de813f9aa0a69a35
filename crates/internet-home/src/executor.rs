//! Event-driven execution of a prefetch plan.
//!
//! The planner ([`crate::prefetch`]) predicts; the executor *runs*: it
//! keeps the planned slice of the web in an [`HttpCache`], refreshing
//! each object on its schedule with conditional requests (a `304 Not
//! Modified` re-arms freshness for a few hundred bytes; a `200` pays
//! full price only when the object actually changed). User requests are
//! then served from the cache when fresh — §IV-D's "local copy of the
//! Internet" as an operating loop, with the upstream-load ledger the
//! paper says the HPoP should keep "as part of the system's operation".

use crate::prefetch::PrefetchPlan;
use hpop_http::cache::{CacheDecision, CacheEntry, HttpCache};
use hpop_http::message::{Request, Response, StatusCode};
use hpop_http::url::Url;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_obs::event;
use std::collections::BTreeMap;

/// A deterministic origin for the executor to fetch from: objects with
/// content versions that change on a fixed period (so some
/// revalidations return `304`, others `200`).
#[derive(Clone, Debug)]
pub struct SimulatedOrigin {
    objects: BTreeMap<Url, OriginObject>,
    /// Requests served, by kind.
    pub full_responses: u64,
    /// `304 Not Modified` responses served.
    pub not_modified: u64,
    /// Total body bytes served.
    pub bytes_served: u64,
}

#[derive(Clone, Debug)]
struct OriginObject {
    bytes: u64,
    ttl: SimDuration,
    /// Content changes every `change_period` (never, if zero).
    change_period: SimDuration,
}

impl SimulatedOrigin {
    /// An empty origin.
    pub fn new() -> SimulatedOrigin {
        SimulatedOrigin {
            objects: BTreeMap::new(),
            full_responses: 0,
            not_modified: 0,
            bytes_served: 0,
        }
    }

    /// Publishes an object. `change_period` = how often its content (and
    /// hence ETag) changes; zero = immutable.
    pub fn publish(&mut self, url: Url, bytes: u64, ttl: SimDuration, change_period: SimDuration) {
        self.objects.insert(
            url,
            OriginObject {
                bytes,
                ttl,
                change_period,
            },
        );
    }

    fn version_at(&self, obj: &OriginObject, now: SimTime) -> u64 {
        if obj.change_period.is_zero() {
            0
        } else {
            now.as_nanos() / obj.change_period.as_nanos().max(1)
        }
    }

    /// Serves a (possibly conditional) GET.
    pub fn handle(&mut self, req: &Request, now: SimTime) -> Response {
        let Some(obj) = self.objects.get(&req.url).cloned() else {
            return Response::not_found();
        };
        let etag = format!("\"v{}\"", self.version_at(&obj, now));
        if req.headers.get("if-none-match") == Some(etag.as_str()) {
            self.not_modified += 1;
            return Response::new(StatusCode::NOT_MODIFIED).with_header("etag", etag);
        }
        self.full_responses += 1;
        self.bytes_served += obj.bytes;
        Response::ok(vec![0u8; obj.bytes as usize]).with_header("etag", etag)
    }

    /// The freshness lifetime the origin advertises for a URL.
    pub fn ttl_of(&self, url: &Url) -> Option<SimDuration> {
        self.objects.get(url).map(|o| o.ttl)
    }
}

impl Default for SimulatedOrigin {
    fn default() -> Self {
        Self::new()
    }
}

/// How a user request was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServedFrom {
    /// Fresh local copy: LAN latency, zero upstream traffic.
    LocalFresh,
    /// Local copy revalidated upstream (one conditional round trip).
    Revalidated,
    /// Full upstream fetch.
    Upstream,
}

/// Executor statistics (the HPoP's upstream-load ledger).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Scheduled refresh requests issued.
    pub refreshes: u64,
    /// Refreshes answered `304` (content unchanged).
    pub refresh_304: u64,
    /// User requests served from fresh local copies.
    pub user_fresh: u64,
    /// User requests needing revalidation.
    pub user_revalidated: u64,
    /// User requests needing a full upstream fetch.
    pub user_upstream: u64,
}

impl ExecStats {
    /// Fraction of user requests served locally without any upstream
    /// round trip.
    pub fn fresh_hit_rate(&self) -> f64 {
        let total = self.user_fresh + self.user_revalidated + self.user_upstream;
        if total == 0 {
            0.0
        } else {
            self.user_fresh as f64 / total as f64
        }
    }
}

/// Runs a prefetch plan against an origin over simulated time.
#[derive(Debug)]
pub struct PrefetchExecutor {
    cache: HttpCache,
    /// url → (refresh period, next refresh due).
    schedule: BTreeMap<Url, (SimDuration, SimTime)>,
    stats: ExecStats,
}

impl PrefetchExecutor {
    /// An executor with a cache of `cache_bytes` capacity.
    pub fn new(cache_bytes: u64) -> PrefetchExecutor {
        PrefetchExecutor {
            cache: HttpCache::new(cache_bytes),
            schedule: BTreeMap::new(),
            stats: ExecStats::default(),
        }
    }

    /// Installs (or replaces) the plan's refresh schedule; first
    /// refreshes are due immediately.
    pub fn install(&mut self, plan: &PrefetchPlan, now: SimTime) {
        self.schedule = plan
            .entries
            .iter()
            .map(|(u, period)| (u.clone(), (*period, now)))
            .collect();
    }

    /// Runs every refresh due at or before `now`.
    pub fn run_due_refreshes(&mut self, origin: &mut SimulatedOrigin, now: SimTime) {
        let due: Vec<Url> = self
            .schedule
            .iter()
            .filter(|(_, &(_, at))| at <= now)
            .map(|(u, _)| u.clone())
            .collect();
        for url in due {
            self.refresh_one(&url, origin, now);
            if let Some((period, next)) = self.schedule.get_mut(&url) {
                *next = now + *period;
            }
        }
    }

    fn refresh_one(&mut self, url: &Url, origin: &mut SimulatedOrigin, now: SimTime) {
        self.stats.refreshes += 1;
        hpop_obs::metrics().counter("ihome.refresh.issued").incr();
        let mut req = Request::get(url.clone());
        let prior = match self.cache.lookup(url, now) {
            CacheDecision::Fresh(e) | CacheDecision::Stale(e) => {
                if let Some(etag) = &e.etag {
                    req = req.with_header("if-none-match", etag.clone());
                }
                Some(e)
            }
            CacheDecision::Miss => None,
        };
        let resp = origin.handle(&req, now);
        let ttl = origin.ttl_of(url).unwrap_or(SimDuration::from_secs(60));
        match resp.status {
            StatusCode::NOT_MODIFIED => {
                self.stats.refresh_304 += 1;
                hpop_obs::metrics().counter("ihome.refresh.304").incr();
                self.cache.revalidate(url, now);
                let _ = prior;
            }
            StatusCode::OK => {
                let mut entry = CacheEntry::new(resp.body.clone(), ttl, now);
                if let Some(etag) = resp.headers.get("etag") {
                    entry = entry.with_etag(etag.to_owned());
                }
                self.cache.insert(url.clone(), entry);
            }
            _ => {}
        }
    }

    /// Serves one user request, fetching upstream only when necessary.
    pub fn user_request(
        &mut self,
        url: &Url,
        origin: &mut SimulatedOrigin,
        now: SimTime,
    ) -> ServedFrom {
        let served = match self.cache.lookup(url, now) {
            CacheDecision::Fresh(_) => {
                self.stats.user_fresh += 1;
                hpop_obs::metrics().counter("ihome.prefetch.hit").incr();
                ServedFrom::LocalFresh
            }
            CacheDecision::Stale(e) => {
                let mut req = Request::get(url.clone());
                if let Some(etag) = &e.etag {
                    req = req.with_header("if-none-match", etag.clone());
                }
                let resp = origin.handle(&req, now);
                let ttl = origin.ttl_of(url).unwrap_or(SimDuration::from_secs(60));
                if resp.status == StatusCode::NOT_MODIFIED {
                    self.cache.revalidate(url, now);
                } else if resp.status == StatusCode::OK {
                    let mut entry = CacheEntry::new(resp.body.clone(), ttl, now);
                    if let Some(etag) = resp.headers.get("etag") {
                        entry = entry.with_etag(etag.to_owned());
                    }
                    self.cache.insert(url.clone(), entry);
                }
                self.stats.user_revalidated += 1;
                hpop_obs::metrics()
                    .counter("ihome.prefetch.revalidated")
                    .incr();
                ServedFrom::Revalidated
            }
            CacheDecision::Miss => {
                let resp = origin.handle(&Request::get(url.clone()), now);
                if resp.status == StatusCode::OK {
                    let ttl = origin.ttl_of(url).unwrap_or(SimDuration::from_secs(60));
                    let mut entry = CacheEntry::new(resp.body.clone(), ttl, now);
                    if let Some(etag) = resp.headers.get("etag") {
                        entry = entry.with_etag(etag.to_owned());
                    }
                    self.cache.insert(url.clone(), entry);
                }
                self.stats.user_upstream += 1;
                hpop_obs::metrics().counter("ihome.prefetch.miss").incr();
                ServedFrom::Upstream
            }
        };
        event!(
            hpop_obs::spans(),
            now.as_nanos() / 1_000,
            "ihome",
            "prefetch.serve",
            url = url.to_string(),
            from = match served {
                ServedFrom::LocalFresh => "fresh",
                ServedFrom::Revalidated => "revalidated",
                ServedFrom::Upstream => "upstream",
            }
        );
        served
    }

    /// The ledger so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryProfile;
    use crate::prefetch::{ObjectMeta, PrefetchConfig, PrefetchPlanner};

    fn u(p: &str) -> Url {
        Url::https("web.example", p)
    }

    fn setup(change_period_s: u64) -> (PrefetchExecutor, SimulatedOrigin, PrefetchPlan) {
        let mut origin = SimulatedOrigin::new();
        let mut profile = HistoryProfile::new();
        let mut planner = PrefetchPlanner::new();
        for i in 0..10 {
            let url = u(&format!("/s{i}"));
            origin.publish(
                url.clone(),
                10_000,
                SimDuration::from_secs(600),
                SimDuration::from_secs(change_period_s),
            );
            planner.register(
                url.clone(),
                ObjectMeta {
                    bytes: 10_000,
                    ttl: SimDuration::from_secs(600),
                },
            );
            for v in 0..(10 - i) {
                profile.record_visit(&url, SimTime::from_secs(v as u64 * 10));
            }
        }
        let plan = planner.plan(
            &profile,
            PrefetchConfig {
                scope: 10,
                freshness_factor: 1.0,
            },
        );
        let mut exec = PrefetchExecutor::new(10_000_000);
        exec.install(&plan, SimTime::from_secs(100));
        (exec, origin, plan)
    }

    #[test]
    fn refreshes_keep_user_requests_local() {
        let (mut exec, mut origin, _) = setup(0); // immutable content
                                                  // Run the refresh loop over a simulated hour.
        for minute in 0..60u64 {
            let now = SimTime::from_secs(100 + minute * 60);
            exec.run_due_refreshes(&mut origin, now);
        }
        // All user requests inside freshness windows are local.
        let mut fresh = 0;
        for minute in 0..59u64 {
            let now = SimTime::from_secs(130 + minute * 60);
            if exec.user_request(&u("/s0"), &mut origin, now) == ServedFrom::LocalFresh {
                fresh += 1;
            }
        }
        assert_eq!(fresh, 59);
        assert!(exec.stats().fresh_hit_rate() > 0.99);
    }

    #[test]
    fn immutable_content_revalidates_with_304s() {
        let (mut exec, mut origin, _) = setup(0);
        for tick in 0..20u64 {
            exec.run_due_refreshes(&mut origin, SimTime::from_secs(100 + tick * 600));
        }
        let s = exec.stats();
        // First refresh of each object is a full fetch; all later ones
        // are 304s (content never changes).
        assert_eq!(s.refreshes, 10 * 20);
        assert_eq!(s.refresh_304, 10 * 19);
        assert_eq!(origin.full_responses, 10);
        // Upstream bytes: only the 10 initial bodies.
        assert_eq!(origin.bytes_served, 100_000);
    }

    #[test]
    fn churning_content_pays_full_price_sometimes() {
        // Content changes every 1200 s, refresh every 600 s: roughly
        // every other refresh is a 200.
        let (mut exec, mut origin, _) = setup(1200);
        for tick in 0..20u64 {
            exec.run_due_refreshes(&mut origin, SimTime::from_secs(100 + tick * 600));
        }
        let s = exec.stats();
        let ratio = s.refresh_304 as f64 / s.refreshes as f64;
        assert!(
            (0.3..0.7).contains(&ratio),
            "304 ratio {ratio} should be near one half"
        );
    }

    #[test]
    fn unplanned_urls_go_upstream() {
        let (mut exec, mut origin, _) = setup(0);
        origin.publish(
            u("/unplanned"),
            5_000,
            SimDuration::from_secs(600),
            SimDuration::ZERO,
        );
        let t = SimTime::from_secs(200);
        assert_eq!(
            exec.user_request(&u("/unplanned"), &mut origin, t),
            ServedFrom::Upstream
        );
        // On-demand fetches are cached too: the next request is local.
        assert_eq!(
            exec.user_request(&u("/unplanned"), &mut origin, t + SimDuration::from_secs(1)),
            ServedFrom::LocalFresh
        );
    }

    #[test]
    fn stale_user_request_revalidates() {
        let (mut exec, mut origin, _) = setup(0);
        exec.run_due_refreshes(&mut origin, SimTime::from_secs(100));
        // Long after the TTL: revalidation (304 path — content immutable).
        let late = SimTime::from_secs(100 + 3 * 600);
        assert_eq!(
            exec.user_request(&u("/s0"), &mut origin, late),
            ServedFrom::Revalidated
        );
        // Which re-arms freshness.
        assert_eq!(
            exec.user_request(&u("/s0"), &mut origin, late + SimDuration::from_secs(1)),
            ServedFrom::LocalFresh
        );
    }
}

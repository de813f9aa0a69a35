//! The cooperative cache as it was before the per-URL table: one
//! `BTreeSet<Url>` per member, a separate never-evicted `hot_counts`
//! map, and one `format!` + SHA-256 per member on every owner lookup.
//! The same decisions in the same order as that implementation (spans,
//! registry counters and the independent-caches mode left out), kept
//! as the oracle the table-based [`super::CoopCache`] is tested
//! against — test builds only.

use super::{CoopOverloadConfig, CoopStats, FetchTier};
use hpop_crypto::sha256::Sha256;
use hpop_http::url::Url;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_resilience::{
    Admission, BreakerBank, BreakerConfig, BreakerState, Brownout, BrownoutLevel, Overloaded,
};
use std::collections::{BTreeMap, BTreeSet};

/// The HRW weight exactly as the old code spelled it.
pub(crate) fn weight(member: u32, url: &Url) -> u64 {
    let key = url.to_string();
    let d = Sha256::digest(format!("{member}|{key}").as_bytes());
    u64::from_be_bytes(d.as_bytes()[..8].try_into().expect("8 bytes"))
}

struct Overload {
    admission: Admission,
    brownout: Brownout,
    hot_threshold: u32,
    hot_window: SimDuration,
    hot_counts: BTreeMap<Url, (SimTime, u32)>,
    reject_retry_after: SimDuration,
}

impl Overload {
    fn note_request(&mut self, url: &Url, now: SimTime) -> bool {
        let entry = self.hot_counts.entry(url.clone()).or_insert((now, 0));
        if now.saturating_since(entry.0) > self.hot_window {
            *entry = (now, 0);
        }
        entry.1 += 1;
        entry.1 >= self.hot_threshold
    }
}

pub(crate) struct ReferenceCoop {
    members: BTreeMap<u32, BTreeSet<Url>>,
    down: BTreeSet<u32>,
    breakers: BreakerBank<u32>,
    stats: CoopStats,
    last_fill: Option<(u32, Url)>,
    overload: Option<Overload>,
}

impl ReferenceCoop {
    pub(crate) fn new(n: u32) -> ReferenceCoop {
        ReferenceCoop {
            members: (0..n).map(|i| (i, BTreeSet::new())).collect(),
            down: BTreeSet::new(),
            breakers: BreakerBank::new(BreakerConfig::default()),
            stats: CoopStats::default(),
            last_fill: None,
            overload: None,
        }
    }

    pub(crate) fn contents(&self) -> &BTreeMap<u32, BTreeSet<Url>> {
        &self.members
    }

    pub(crate) fn take_last_fill(&mut self) -> Option<(u32, Url)> {
        self.last_fill.take()
    }

    pub(crate) fn stats(&self) -> CoopStats {
        self.stats
    }

    pub(crate) fn enable_overload(&mut self, cfg: CoopOverloadConfig, now: SimTime) {
        self.overload = Some(Overload {
            admission: Admission::new(cfg.admission, now),
            brownout: Brownout::new(cfg.brownout),
            hot_threshold: cfg.hot_threshold.max(1),
            hot_window: cfg.hot_window,
            hot_counts: BTreeMap::new(),
            reject_retry_after: cfg.brownout.min_dwell,
        });
    }

    pub(crate) fn set_queue_pressure(&mut self, pressure: f64) {
        if let Some(ov) = self.overload.as_mut() {
            ov.admission.set_queue_pressure(pressure);
        }
    }

    pub(crate) fn set_member_up(&mut self, member: u32, up: bool) {
        if up {
            self.down.remove(&member);
        } else {
            self.down.insert(member);
        }
    }

    pub(crate) fn report_lateral_outcome(&mut self, member: u32, now: SimTime, ok: bool) {
        self.breakers.record(member, now, ok);
    }

    fn usable(&self, member: u32, now: SimTime) -> bool {
        !self.down.contains(&member) && self.breakers.state(member, now) != BreakerState::Open
    }

    fn is_degraded(&self, now: SimTime) -> bool {
        !self.down.is_empty() || !self.breakers.tripped(now).is_empty()
    }

    pub(crate) fn owner_usable_at(&self, url: &Url, now: SimTime) -> Option<u32> {
        self.members
            .keys()
            .copied()
            .filter(|&m| self.usable(m, now))
            .max_by_key(|&m| weight(m, url))
    }

    pub(crate) fn request_at(
        &mut self,
        member: u32,
        url: &Url,
        bytes: u64,
        now: SimTime,
    ) -> FetchTier {
        self.resolve_with(member, url, bytes, now, BrownoutLevel::Full, false)
    }

    pub(crate) fn try_request_at(
        &mut self,
        member: u32,
        url: &Url,
        bytes: u64,
        now: SimTime,
    ) -> Result<FetchTier, Overloaded> {
        let Some(ov) = self.overload.as_mut() else {
            return Ok(self.request_at(member, url, bytes, now));
        };
        let sat = ov.admission.saturation(now);
        let level = ov.brownout.observe(sat, now);
        if level == BrownoutLevel::Reject {
            return Err(Overloaded {
                retry_after: ov.reject_retry_after,
            });
        }
        ov.admission.try_admit(now)?;
        let hot = ov.note_request(url, now);
        let tier = self.resolve_with(member, url, bytes, now, level, hot);
        self.overload
            .as_mut()
            .expect("checked above")
            .admission
            .complete(false);
        Ok(tier)
    }

    fn cache_at(&mut self, member: u32, url: &Url) {
        self.members
            .get_mut(&member)
            .expect("member exists")
            .insert(url.clone());
    }

    fn lateral_holder(&self, member: u32, url: &Url, now: SimTime) -> Option<u32> {
        self.members
            .iter()
            .find(|(&m, objs)| m != member && self.usable(m, now) && objs.contains(url))
            .map(|(&m, _)| m)
    }

    fn resolve_with(
        &mut self,
        member: u32,
        url: &Url,
        bytes: u64,
        now: SimTime,
        level: BrownoutLevel,
        hot: bool,
    ) -> FetchTier {
        assert!(
            self.members.contains_key(&member),
            "unknown member {member}"
        );
        self.last_fill = None;
        if self.members[&member].contains(url) {
            self.stats.local_hits += 1;
            return FetchTier::Local;
        }
        if level >= BrownoutLevel::RedirectOrigin {
            self.stats.origin_fetches += 1;
            self.stats.uplink_bytes += bytes;
            self.cache_at(member, url);
            self.last_fill = Some((member, url.clone()));
            return FetchTier::Origin;
        }
        let owner = self.owner_usable_at(url, now);
        if let Some(owner) = owner {
            if owner != member && self.members[&owner].contains(url) {
                self.stats.neighbor_hits += 1;
                self.stats.lateral_bytes += bytes;
                if hot {
                    self.cache_at(member, url);
                }
                return FetchTier::Neighbor;
            }
        }
        if hot && self.lateral_holder(member, url, now).is_some() {
            self.stats.neighbor_hits += 1;
            self.stats.lateral_bytes += bytes;
            self.cache_at(member, url);
            return FetchTier::Neighbor;
        }
        if (self.is_degraded(now) || level >= BrownoutLevel::StaleAllowed)
            && self.lateral_holder(member, url, now).is_some()
        {
            self.stats.stale_hits += 1;
            self.stats.lateral_bytes += bytes;
            return FetchTier::Stale;
        }
        self.stats.origin_fetches += 1;
        self.stats.uplink_bytes += bytes;
        let cache_at = owner.unwrap_or(member);
        self.cache_at(cache_at, url);
        self.last_fill = Some((cache_at, url.clone()));
        if cache_at != member {
            self.stats.lateral_bytes += bytes;
        }
        FetchTier::Origin
    }

    pub(crate) fn add_member(&mut self) -> u32 {
        let id = self.members.keys().next_back().map_or(0, |m| m + 1);
        self.members.insert(id, BTreeSet::new());
        id
    }

    pub(crate) fn remove_member(&mut self, member: u32) -> usize {
        self.down.remove(&member);
        self.members
            .remove(&member)
            .map(|objs| objs.len())
            .unwrap_or(0)
    }
}

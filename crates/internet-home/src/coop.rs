//! The cooperative neighborhood cache.
//!
//! §IV-D ("A Cooperative Cache"): "neighboring HPoPs can link together
//! to coordinate their content gathering activities and avoid duplicate
//! retrievals and storage of content in an effort to save aggregate
//! capacity to the neighborhood. Content can then be shared by all
//! hosts within the community in a peer-to-peer manner."
//!
//! Each object has one *owner* HPoP (highest-random-weight hashing, so
//! membership changes move a minimal share of objects). A request tries
//! the local cache, then the owner over the (cheap, lateral) gigabit
//! neighborhood links, and only then the origin over the (shared,
//! scarce) aggregation uplink. [`CoopStats`] splits traffic across
//! those three tiers — experiment E15's metric.

//! Membership churn is fed in from the fabric layer: a member whose
//! HPoP the failure detector declares dead is excluded from ownership
//! ([`CoopCache::apply_view`] / [`CoopCache::set_member_up`]), so
//! requests re-route to the highest-random-weight *alive* member and
//! re-warm its cache — no request ever waits on a dead owner.
//!
//! Everything the neighborhood knows about one object lives in one
//! table entry keyed by its URL: which members hold it (a bitset),
//! the head of its HRW ranking (hashed once, not once per request) and
//! its flash-crowd popularity counter. A request is one hash lookup,
//! and the table is bounded by the number of distinct cached objects.

use hpop_crypto::sha256::Sha256;
use hpop_fabric::{PeerId, PeerView};
use hpop_http::url::Url;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_obs::CounterHandle;
use hpop_resilience::{
    Admission, AdmissionConfig, BreakerBank, BreakerConfig, BreakerState, Brownout, BrownoutConfig,
    BrownoutLevel, LoadShedder, Overloaded, ShedThresholds, WorkClass,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Where a request was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FetchTier {
    /// The requesting HPoP's own cache.
    Local,
    /// Another HPoP in the neighborhood (lateral gigabit).
    Neighbor,
    /// A possibly-outdated lateral copy served while the neighborhood
    /// is degraded (the current owner unreachable) — stale beats a
    /// failed or uplink-bound fetch.
    Stale,
    /// The origin, over the shared aggregation uplink.
    Origin,
}

/// Aggregate traffic statistics across the neighborhood.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoopStats {
    /// Requests served from the requester's own cache.
    pub local_hits: u64,
    /// Requests served laterally by a neighbor.
    pub neighbor_hits: u64,
    /// Requests served from a stale lateral copy while degraded.
    pub stale_hits: u64,
    /// Requests that crossed the aggregation uplink to the origin.
    pub origin_fetches: u64,
    /// Bytes that crossed the aggregation uplink.
    pub uplink_bytes: u64,
    /// Bytes that moved laterally between HPoPs.
    pub lateral_bytes: u64,
}

impl CoopStats {
    /// Fraction of requests kept inside the neighborhood (stale serves
    /// count: they never crossed the uplink).
    pub fn containment(&self) -> f64 {
        let total = self.local_hits + self.neighbor_hits + self.stale_hits + self.origin_fetches;
        if total == 0 {
            0.0
        } else {
            (self.local_hits + self.neighbor_hits + self.stale_hits) as f64 / total as f64
        }
    }
}

/// Overload-control tuning for a neighborhood cache (see
/// [`CoopCache::enable_overload`]).
#[derive(Clone, Copy, Debug)]
pub struct CoopOverloadConfig {
    /// Admission controller (token-bucket rate + AIMD concurrency).
    pub admission: AdmissionConfig,
    /// The brownout degradation ladder.
    pub brownout: BrownoutConfig,
    /// Priority-shed thresholds for background work.
    pub shed: ShedThresholds,
    /// Requests within [`hot_window`](CoopOverloadConfig::hot_window)
    /// that make an object *hot* (rising Zipf head): hot objects get
    /// temporary extra replicas so the owner stops being a bottleneck.
    pub hot_threshold: u32,
    /// The popularity-counting window.
    pub hot_window: SimDuration,
}

impl Default for CoopOverloadConfig {
    fn default() -> CoopOverloadConfig {
        CoopOverloadConfig {
            admission: AdmissionConfig::default(),
            brownout: BrownoutConfig::default(),
            shed: ShedThresholds::default(),
            hot_threshold: 8,
            hot_window: SimDuration::from_secs(10),
        }
    }
}

/// The overload-control runtime attached to a [`CoopCache`] by
/// [`CoopCache::enable_overload`].
#[derive(Clone, Debug)]
struct CoopOverload {
    admission: Admission,
    brownout: Brownout,
    shedder: LoadShedder,
    hot_threshold: u32,
    hot_window: SimDuration,
    /// Interactive requests refused with `Overloaded`.
    rejected: u64,
    /// `retry_after` hint when the `Reject` rung refuses (the ladder's
    /// dwell time: the soonest the rung could possibly step down).
    reject_retry_after: SimDuration,
}

/// `n` in decimal, written into the tail of `buf`.
fn decimal(n: u32, buf: &mut [u8; 10]) -> &[u8] {
    let mut at = buf.len();
    let mut rest = n;
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            return &buf[at..];
        }
    }
}

/// Renders `"|{url}"` — what every member's HRW key for `url` ends
/// with — into `key`, replacing its contents.
fn hrw_key(url: &Url, key: &mut Vec<u8>) {
    key.clear();
    key.push(b'|');
    key.extend_from_slice(url.scheme().as_bytes());
    key.extend_from_slice(b"://");
    key.extend_from_slice(url.host().as_bytes());
    if let Some(port) = url.port() {
        key.push(b':');
        key.extend_from_slice(decimal(port.into(), &mut [0; 10]));
    }
    key.extend_from_slice(url.path().as_bytes());
}

/// The HRW weight of `member` for the URL whose [`hrw_key`] is `key`:
/// the first 8 bytes of SHA-256 over `"{member}|{url}"`. Every
/// ownership decision goes through this one function.
fn hrw_weight(member: u32, key: &[u8]) -> u64 {
    let mut h = Sha256::new();
    h.update(decimal(member, &mut [0; 10]));
    h.update(key);
    let d = h.finalize();
    u64::from_be_bytes(d.as_bytes()[..8].try_into().expect("8 bytes"))
}

/// The HRW owner among the members `admit` lets through: the full
/// argmax, one hash per member (ties to the larger id). The slow path
/// behind the per-URL memo, and what the memo is tested against.
fn hrw_argmax(members: &[u32], key: &[u8], admit: impl Fn(u32) -> bool) -> Option<usize> {
    members
        .iter()
        .enumerate()
        .filter(|&(_, &m)| admit(m))
        .max_by_key(|&(_, &m)| hrw_weight(m, key))
        .map(|(slot, _)| slot)
}

/// How much of a URL's HRW ranking its entry remembers. The owner is
/// the first *usable* member of the ranking, so a prefix answers
/// unless every member in it is down at once; four keeps that to
/// roughly one request in 10⁴ with a tenth of the neighborhood down.
const HRW_MEMO: usize = 4;

/// The best-first head of the HRW ranking over all of `members` of the
/// URL whose [`hrw_key`] is `key`, as slots, and its length
/// (`min(HRW_MEMO, members.len())`).
fn hrw_prefix(members: &[u32], key: &[u8]) -> ([u32; HRW_MEMO], u8) {
    let mut top = [(0u64, 0u32); HRW_MEMO];
    let mut len = 0;
    for (slot, &m) in members.iter().enumerate() {
        // Slots ascend with ids, so comparing (weight, slot) breaks
        // ties toward the larger id exactly as `hrw_argmax` does.
        let cand = (hrw_weight(m, key), slot as u32);
        let pos = top[..len].iter().position(|t| cand > *t).unwrap_or(len);
        if pos < HRW_MEMO {
            len = (len + 1).min(HRW_MEMO);
            top[pos..len].rotate_right(1);
            top[pos] = cand;
        }
    }
    (top.map(|(_, slot)| slot), len as u8)
}

/// A set of member *slots* — positions in [`CoopCache::members`],
/// which is sorted by id, so ascending slots are ascending members.
#[derive(Clone, Debug, Default)]
struct SlotSet(Vec<u64>);

impl SlotSet {
    fn contains(&self, slot: usize) -> bool {
        self.0
            .get(slot / 64)
            .is_some_and(|w| w >> (slot % 64) & 1 == 1)
    }

    fn insert(&mut self, slot: usize) {
        let word = slot / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (slot % 64);
    }

    /// Deletes position `slot` from the numbering — every higher slot
    /// moves down by one, as the member list does when a member
    /// leaves — and reports whether it was set.
    fn remove_slot(&mut self, slot: usize) -> bool {
        let (word, bit) = (slot / 64, slot % 64);
        let Some(&w) = self.0.get(word) else {
            return false;
        };
        let below = w & ((1 << bit) - 1);
        let above = w >> bit >> 1;
        self.0[word] = below | above << bit;
        for i in word + 1..self.0.len() {
            self.0[i - 1] |= self.0[i] << 63;
            self.0[i] >>= 1;
        }
        w >> bit & 1 == 1
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The slots in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * 64 + bit
                })
            })
        })
    }
}

/// What the neighborhood knows about one object.
#[derive(Clone, Debug, Default)]
struct Entry {
    /// Which members hold a copy.
    holders: SlotSet,
    /// The first `ranked_len` slots of the HRW ranking over *all*
    /// members, best first; zero length means not derived yet.
    /// Liveness is applied when the memo is read, never stored, so
    /// only a change to the member list invalidates it.
    ranked: [u32; HRW_MEMO],
    ranked_len: u8,
    /// Popularity window: its start and the requests seen in it. A
    /// zero count means no window has been opened.
    hot_since: SimTime,
    hot_count: u32,
}

impl Entry {
    /// Bumps the popularity counter and reports whether the object is
    /// hot (rising-head object under flash-crowd demand).
    fn note_request(&mut self, now: SimTime, threshold: u32, window: SimDuration) -> bool {
        if self.hot_count == 0 || now.saturating_since(self.hot_since) > window {
            self.hot_since = now;
            self.hot_count = 0;
        }
        self.hot_count += 1;
        self.hot_count >= threshold
    }

    /// The owner's slot: the first member of the HRW ranking that
    /// `usable` admits. Reads (and on first use fills) the memo; only
    /// when every memoised member is unusable does it pay for the full
    /// argmax. `key` is scratch for `url`'s [`hrw_key`].
    fn owner(
        &mut self,
        url: &Url,
        members: &[u32],
        usable: impl Fn(u32) -> bool,
        key: &mut Vec<u8>,
    ) -> Option<usize> {
        if self.ranked_len == 0 {
            hrw_key(url, key);
            (self.ranked, self.ranked_len) = hrw_prefix(members, key);
        }
        let memo = &self.ranked[..self.ranked_len as usize];
        match memo.iter().find(|&&s| usable(members[s as usize])) {
            Some(&slot) => Some(slot as usize),
            None if memo.len() == members.len() => None,
            None => {
                hrw_key(url, key);
                hrw_argmax(members, key, usable)
            }
        }
    }
}

/// A registry counter looked up on its first increment and held from
/// then on. Not at construction: a counter registered at zero would
/// show up in snapshots of runs that never hit the event.
#[derive(Clone, Debug)]
struct LazyCounter {
    name: &'static str,
    handle: Option<CounterHandle>,
}

impl LazyCounter {
    fn new(name: &'static str) -> LazyCounter {
        LazyCounter { name, handle: None }
    }

    fn incr(&mut self) {
        self.handle
            .get_or_insert_with(|| hpop_obs::metrics().counter(self.name))
            .incr();
    }
}

#[derive(Clone, Debug)]
struct CoopCounters {
    rejected: LazyCounter,
    redirects: LazyCounter,
    hot_replicas: LazyCounter,
    stale_serves: LazyCounter,
}

/// A neighborhood of cooperating HPoP caches.
///
/// ```
/// use hpop_internet_home::coop::{CoopCache, FetchTier};
/// use hpop_http::url::Url;
///
/// let mut hood = CoopCache::new(4);
/// let url = Url::https("web.example", "/news");
/// // First request in the neighborhood crosses the uplink once…
/// assert_eq!(hood.request(0, &url, 50_000), FetchTier::Origin);
/// // …after which any member gets it laterally or locally.
/// assert_ne!(hood.request(1, &url, 50_000), FetchTier::Origin);
/// ```
#[derive(Clone, Debug)]
pub struct CoopCache {
    /// Member ids, ascending; a member's position here is its *slot*
    /// in every [`SlotSet`] and HRW memo.
    members: Vec<u32>,
    /// Every object some member holds, by URL. An entry is created by
    /// the request that first caches the object and dropped when its
    /// last holder leaves, so the table never outgrows the cache.
    table: HashMap<Url, Entry>,
    /// Whether cooperation is enabled (off = independent caches, the
    /// baseline ablation).
    cooperative: bool,
    /// Members currently believed down (excluded from ownership).
    down: BTreeSet<u32>,
    /// Per-member circuit breakers over lateral fetches: a member whose
    /// circuit is open is treated like a down member (no ownership, no
    /// lateral serving) until it half-opens.
    breakers: BreakerBank<u32>,
    stats: CoopStats,
    /// Where the last origin fetch was cached (member, object) — the
    /// write-through hook [`crate::durable::DurableCoop`] journals.
    last_fill: Option<(u32, Url)>,
    /// Overload controls (admission, brownout, shedding, hot-object
    /// replication) — absent by default, enabled by
    /// [`CoopCache::enable_overload`].
    overload: Option<CoopOverload>,
    counters: CoopCounters,
    /// Scratch a URL's [`hrw_key`] is rendered into, kept so that
    /// ranking a new entry allocates nothing.
    hrw_key: Vec<u8>,
}

impl CoopCache {
    /// A neighborhood of `n` HPoPs with cooperation enabled.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32) -> CoopCache {
        CoopCache::from_contents((0..n).map(|i| (i, BTreeSet::new())).collect())
    }

    /// Rebuilds a neighborhood from a recovered member → cached-object
    /// index (the durable part of a coop cache: contents live on HPoP
    /// disks and survive restarts, while liveness beliefs, breaker
    /// circuits and traffic statistics are runtime state and start
    /// fresh).
    ///
    /// # Panics
    ///
    /// Panics if `contents` has no members.
    pub fn from_contents(contents: BTreeMap<u32, BTreeSet<Url>>) -> CoopCache {
        assert!(
            !contents.is_empty(),
            "a neighborhood needs at least one HPoP"
        );
        let members = contents.keys().copied().collect();
        let mut table: HashMap<Url, Entry> = HashMap::new();
        for (slot, objs) in contents.into_values().enumerate() {
            for url in objs {
                table.entry(url).or_default().holders.insert(slot);
            }
        }
        CoopCache {
            members,
            table,
            cooperative: true,
            down: BTreeSet::new(),
            breakers: BreakerBank::new(BreakerConfig::default()),
            stats: CoopStats::default(),
            last_fill: None,
            overload: None,
            counters: CoopCounters {
                rejected: LazyCounter::new("coop.overload.rejected"),
                redirects: LazyCounter::new("coop.overload.redirects"),
                hot_replicas: LazyCounter::new("coop.hot.replicas"),
                stale_serves: LazyCounter::new("coop.stale_serves"),
            },
            hrw_key: Vec::new(),
        }
    }

    /// The member → cached-object index (what `from_contents`
    /// restores), rendered from the per-URL table.
    pub fn contents(&self) -> BTreeMap<u32, BTreeSet<Url>> {
        let mut out: Vec<BTreeSet<Url>> = vec![BTreeSet::new(); self.members.len()];
        for (url, entry) in &self.table {
            for slot in entry.holders.iter() {
                out[slot].insert(url.clone());
            }
        }
        self.members.iter().copied().zip(out).collect()
    }

    /// Takes the (member, object) pair the last request cached from an
    /// origin fetch, if any — the durability adapter's write-through
    /// hook.
    pub fn take_last_fill(&mut self) -> Option<(u32, Url)> {
        self.last_fill.take()
    }

    /// Disables lateral sharing (independent-caches baseline).
    pub fn independent(mut self) -> CoopCache {
        self.cooperative = false;
        self
    }

    /// Attaches overload controls: admission (token-bucket + AIMD),
    /// the brownout ladder, priority shedding, and hot-object
    /// replication. Interactive requests then go through
    /// [`CoopCache::try_request_at`], background work through
    /// [`CoopCache::offer_background`].
    pub fn enable_overload(&mut self, cfg: CoopOverloadConfig, now: SimTime) {
        self.overload = Some(CoopOverload {
            admission: Admission::new(cfg.admission, now),
            brownout: Brownout::new(cfg.brownout),
            shedder: LoadShedder::new(cfg.shed),
            hot_threshold: cfg.hot_threshold.max(1),
            hot_window: cfg.hot_window,
            rejected: 0,
            reject_retry_after: cfg.brownout.min_dwell,
        });
        // A fresh controller starts with fresh popularity windows.
        for entry in self.table.values_mut() {
            entry.hot_count = 0;
        }
    }

    /// The brownout rung currently in force (`Full` when overload
    /// controls are off).
    pub fn brownout_level(&self) -> BrownoutLevel {
        self.overload
            .as_ref()
            .map_or(BrownoutLevel::Full, |ov| ov.brownout.level())
    }

    /// The overload controller's measured saturation at `now` (0.0
    /// when controls are off).
    pub fn saturation(&self, now: SimTime) -> f64 {
        self.overload
            .as_ref()
            .map_or(0.0, |ov| ov.admission.saturation(now))
    }

    /// Feeds the serving queue's fill fraction into the admission
    /// saturation signal — the backpressure input from a
    /// [`hpop_resilience::BoundedQueue`] in front of the cache.
    pub fn set_queue_pressure(&mut self, pressure: f64) {
        if let Some(ov) = self.overload.as_mut() {
            ov.admission.set_queue_pressure(pressure);
        }
    }

    /// Interactive requests refused with [`Overloaded`] so far.
    pub fn overload_rejected(&self) -> u64 {
        self.overload.as_ref().map_or(0, |ov| ov.rejected)
    }

    /// The priority shedder's accounting (None while controls are off).
    pub fn shedder(&self) -> Option<&LoadShedder> {
        self.overload.as_ref().map(|ov| &ov.shedder)
    }

    /// Offers one unit of *background* work (prefetch, shard repair,
    /// anti-entropy) to the overload controller. Returns `true` when
    /// the work may run now, `false` when it was shed — background
    /// classes shed strictly before interactive traffic is touched.
    /// Without overload controls everything runs.
    pub fn offer_background(&mut self, class: WorkClass, now: SimTime) -> bool {
        match self.overload.as_mut() {
            None => true,
            Some(ov) => {
                let sat = ov.admission.saturation(now);
                !ov.shedder.admit(class, sat)
            }
        }
    }

    /// Number of member HPoPs.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// `member`'s slot.
    ///
    /// # Panics
    ///
    /// Panics for unknown members.
    fn slot_of(&self, member: u32) -> usize {
        self.members
            .binary_search(&member)
            .unwrap_or_else(|_| panic!("unknown member {member}"))
    }

    /// The owner HPoP of a URL: highest-random-weight hash over the
    /// *alive* membership, so ownership (and only the dead member's
    /// share of it) re-routes around churn.
    ///
    /// # Panics
    ///
    /// Panics when every member is believed down.
    pub fn owner_of(&self, url: &Url) -> u32 {
        let mut key = Vec::new();
        hrw_key(url, &mut key);
        let slot = hrw_argmax(&self.members, &key, |m| !self.down.contains(&m))
            .expect("at least one member is up");
        self.members[slot]
    }

    /// Marks one member up or down directly (the fabric-free path used
    /// by tests and by a member's own lateral-probe failures).
    ///
    /// # Panics
    ///
    /// Panics for unknown members.
    pub fn set_member_up(&mut self, member: u32, up: bool) {
        self.slot_of(member); // panics for a stranger
        if up {
            self.down.remove(&member);
        } else {
            self.down.insert(member);
        }
    }

    /// Adopts liveness beliefs from a gossip [`PeerView`]: members the
    /// fabric believes dead stop owning objects until a later view
    /// refutes the death. A member number is that member's fabric id;
    /// members unknown to the view are untouched.
    pub fn apply_view(&mut self, view: &PeerView) {
        for &m in &self.members {
            let Some(entry) = view.get(PeerId(u64::from(m))) else {
                continue;
            };
            if entry.state.is_alive() {
                self.down.remove(&m);
            } else {
                self.down.insert(m);
            }
        }
    }

    /// Members currently believed up.
    pub fn up_count(&self) -> usize {
        self.members.len() - self.down.len()
    }

    /// Reports the outcome of one lateral fetch against `member`'s
    /// HPoP. Failures feed its circuit breaker; while the circuit is
    /// open the member is treated like a down member (no ownership, no
    /// lateral serving), then half-opens for a probe — the resilience
    /// path for flaky-but-not-dead neighbors the failure detector has
    /// not (yet) declared down.
    ///
    /// # Panics
    ///
    /// Panics for unknown members.
    pub fn report_lateral_outcome(&mut self, member: u32, now: SimTime, ok: bool) {
        self.slot_of(member); // panics for a stranger
        self.breakers.record(member, now, ok);
    }

    /// `member` requests `url` (`bytes` large). Resolution order: local
    /// cache → owner's cache (cooperative mode) → origin. Fetched
    /// content is cached at the owner (cooperative) or locally
    /// (independent); lateral copies are *not* duplicated — the paper's
    /// "avoid duplicate retrievals and storage".
    ///
    /// Time-blind wrapper over [`CoopCache::request_at`] (evaluated at
    /// the epoch, where an untouched breaker bank changes nothing).
    ///
    /// # Panics
    ///
    /// Panics for unknown members.
    pub fn request(&mut self, member: u32, url: &Url, bytes: u64) -> FetchTier {
        self.request_at(member, url, bytes, SimTime::ZERO)
    }

    /// [`CoopCache::request`] with the resilience ladder: local cache →
    /// usable owner → **stale lateral copy** (only while the
    /// neighborhood is degraded) → origin. A stale serve keeps the
    /// request off the scarce aggregation uplink when the rightful
    /// owner is unreachable; when the neighborhood is healthy the owner
    /// path guarantees freshness as before.
    ///
    /// # Panics
    ///
    /// Panics for unknown members.
    pub fn request_at(&mut self, member: u32, url: &Url, bytes: u64, now: SimTime) -> FetchTier {
        let tier = self.resolve_with(member, url, bytes, now, BrownoutLevel::Full, None);
        self.record_request_span(tier, now);
        tier
    }

    /// [`CoopCache::request_at`] under admission control: the overload
    /// path for flash crowds. The admission controller may refuse with
    /// a typed [`Overloaded`] (token bucket dry, concurrency limit
    /// full, or the brownout ladder at its `Reject` rung); admitted
    /// requests are resolved under the current brownout level —
    /// `StaleAllowed` serves stale lateral copies as a *load* rung
    /// (not only a failure fallback), `RedirectOrigin` skips lateral
    /// work entirely. Rising-head (hot) objects picked up by the
    /// popularity tracker get temporary extra replicas at their
    /// requesters so the HRW owner stops being a bottleneck.
    ///
    /// Without [`CoopCache::enable_overload`] this is exactly
    /// [`CoopCache::request_at`].
    ///
    /// # Panics
    ///
    /// Panics for unknown members.
    pub fn try_request_at(
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
        let admitted = if level == BrownoutLevel::Reject {
            Err(Overloaded {
                retry_after: ov.reject_retry_after,
            })
        } else {
            ov.admission.try_admit(now)
        };
        if let Err(over) = admitted {
            ov.rejected += 1;
            self.counters.rejected.incr();
            return Err(over);
        }
        let hot = Some((ov.hot_threshold, ov.hot_window));
        let tier = self.resolve_with(member, url, bytes, now, level, hot);
        self.record_request_span(tier, now);
        // Cache resolution is instantaneous in sim time: the permit is
        // returned immediately, and the AIMD window treats every
        // resolved request as a success (refusals never got a permit).
        self.overload
            .as_mut()
            .expect("checked above")
            .admission
            .complete(false);
        Ok(tier)
    }

    /// Cache resolution is instantaneous in sim time, so the ladder
    /// trace is zero-width: it records *which* tier served the
    /// request on the causal path, not invented latency.
    fn record_request_span(&self, tier: FetchTier, now: SimTime) {
        let spans = hpop_obs::spans();
        let root = spans.root();
        if root.is_sampled() {
            let t_us = now.as_nanos() / 1_000;
            let stage = match tier {
                FetchTier::Origin => "origin_fallback",
                FetchTier::Local | FetchTier::Neighbor | FetchTier::Stale => "transfer",
            };
            spans.record_child(&root, "coop", stage, t_us, t_us);
            spans.record(&root, "coop", "request", t_us, t_us);
        }
    }

    /// Resolves one admitted request against the table: one lookup of
    /// `url`'s entry, then bit tests. `hot` is the popularity
    /// tracker's `(threshold, window)` when overload controls are on.
    fn resolve_with(
        &mut self,
        member: u32,
        url: &Url,
        bytes: u64,
        now: SimTime,
        level: BrownoutLevel,
        hot: Option<(u32, SimDuration)>,
    ) -> FetchTier {
        let slot = self.slot_of(member);
        let CoopCache {
            members,
            table,
            cooperative,
            down,
            breakers,
            stats,
            last_fill,
            counters,
            hrw_key,
            ..
        } = self;
        let members = members.as_slice();
        *last_fill = None;
        let entry = match table.get_mut(url) {
            Some(entry) => entry,
            None => table.entry(url.clone()).or_default(),
        };
        let hot = hot.is_some_and(|(threshold, window)| entry.note_request(now, threshold, window));
        if entry.holders.contains(slot) {
            stats.local_hits += 1;
            return FetchTier::Local;
        }
        // Where an origin fetch gets stored; every lateral outcome
        // returns from inside the block.
        let cache_at = 'origin: {
            if !*cooperative {
                break 'origin slot;
            }
            // RedirectOrigin and above: the neighborhood is too
            // saturated for lateral work — a local miss goes straight
            // to the origin (the CDN is provisioned for crowds; the
            // neighbor links are not) and the fill lands locally,
            // costing no lateral bytes.
            if level >= BrownoutLevel::RedirectOrigin {
                counters.redirects.incr();
                break 'origin slot;
            }
            let usable = |m: u32| usable(down, breakers, m, now);
            let owner = entry.owner(url, members, usable, hrw_key);
            if let Some(owner) = owner {
                if owner != slot && entry.holders.contains(owner) {
                    stats.neighbor_hits += 1;
                    stats.lateral_bytes += bytes;
                    if hot {
                        // Rising-head object: replicate to the
                        // requester so the next wave finds it locally
                        // and the HRW owner stops being the single hot
                        // spot.
                        entry.holders.insert(slot);
                        counters.hot_replicas.incr();
                    }
                    return FetchTier::Neighbor;
                }
            }
            // Whether any other usable member holds a copy.
            let lateral_holder = |entry: &Entry| {
                entry
                    .holders
                    .iter()
                    .any(|s| s != slot && usable(members[s]))
            };
            // Hot objects may be served by *any* usable holder — the
            // temporary replicas made above form an ad-hoc serving set
            // wider than the single HRW owner.
            if hot && lateral_holder(entry) {
                stats.neighbor_hits += 1;
                stats.lateral_bytes += bytes;
                entry.holders.insert(slot);
                counters.hot_replicas.incr();
                return FetchTier::Neighbor;
            }
            // Stale-then-origin: while degraded — or while the
            // brownout ladder has opened the StaleAllowed rung under
            // load — any other usable member holding a (possibly
            // outdated) copy serves it laterally before the request is
            // allowed to cross the uplink.
            let degraded = !down.is_empty() || breakers.any_tripped(now);
            if (degraded || level >= BrownoutLevel::StaleAllowed) && lateral_holder(entry) {
                stats.stale_hits += 1;
                stats.lateral_bytes += bytes;
                counters.stale_serves.incr();
                return FetchTier::Stale;
            }
            // The owner, or the requester when no owner is usable.
            owner.unwrap_or(slot)
        };
        // Origin fetch, stored for the whole neighborhood; if the
        // cache point is not the requester the bytes also cross the
        // lateral network.
        stats.origin_fetches += 1;
        stats.uplink_bytes += bytes;
        entry.holders.insert(cache_at);
        *last_fill = Some((members[cache_at], url.clone()));
        if cache_at != slot {
            stats.lateral_bytes += bytes;
        }
        FetchTier::Origin
    }

    /// A new HPoP joins the neighborhood (a family moves in). Returns
    /// its member id. Ownership of a `1/(n+1)` share of the object space
    /// migrates to it — highest-random-weight hashing moves nothing
    /// else, so existing cached copies mostly stay useful.
    pub fn add_member(&mut self) -> u32 {
        let id = self.members.last().map_or(0, |m| m + 1);
        self.members.push(id);
        // The memoised rankings were taken over the old member list;
        // each is re-derived on its next miss.
        for entry in self.table.values_mut() {
            entry.ranked_len = 0;
        }
        id
    }

    /// An HPoP leaves (moves away, dies). Its cached objects are lost;
    /// ownership of its share redistributes across the survivors.
    /// Returns how many cached objects were lost with it.
    ///
    /// # Panics
    ///
    /// Panics when removing the last member (a neighborhood of zero
    /// cannot serve requests).
    pub fn remove_member(&mut self, member: u32) -> usize {
        assert!(
            self.members.len() > 1,
            "cannot remove the last HPoP in the neighborhood"
        );
        self.down.remove(&member);
        let Ok(slot) = self.members.binary_search(&member) else {
            return 0;
        };
        self.members.remove(slot);
        let mut lost = 0;
        self.table.retain(|_, entry| {
            lost += usize::from(entry.holders.remove_slot(slot));
            entry.ranked_len = 0;
            !entry.holders.is_empty()
        });
        lost
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> CoopStats {
        self.stats
    }

    /// Total objects stored across the neighborhood (duplicate-storage
    /// metric).
    pub fn stored_objects(&self) -> usize {
        self.table.values().map(|e| e.holders.len()).sum()
    }
}

/// Whether `member` can serve lateral traffic at `now`: believed up
/// and its breaker circuit is not hard-open.
fn usable(down: &BTreeSet<u32>, breakers: &BreakerBank<u32>, member: u32, now: SimTime) -> bool {
    !down.contains(&member) && breakers.state(member, now) != BreakerState::Open
}

#[cfg(test)]
impl CoopCache {
    /// The owner at `now` by the full per-member argmax, no memo.
    fn owner_usable_at(&self, url: &Url, now: SimTime) -> Option<u32> {
        let usable = |m| usable(&self.down, &self.breakers, m, now);
        let mut key = Vec::new();
        hrw_key(url, &mut key);
        hrw_argmax(&self.members, &key, usable).map(|slot| self.members[slot])
    }

    /// The owner at `now` the way a request finds it, through
    /// `url`'s memo; `None` when `url` has no entry.
    fn memoised_owner_at(&mut self, url: &Url, now: SimTime) -> Option<Option<u32>> {
        let usable = |m| usable(&self.down, &self.breakers, m, now);
        let entry = self.table.get_mut(url)?;
        let owner = entry.owner(url, &self.members, usable, &mut self.hrw_key);
        Some(owner.map(|slot| self.members[slot]))
    }
}

#[cfg(test)]
mod equivalence;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> Url {
        Url::https("web.example", &format!("/obj{i}"))
    }

    #[test]
    fn owner_is_stable_and_balanced() {
        let coop = CoopCache::new(8);
        let mut counts = BTreeMap::new();
        for i in 0..800 {
            let o = coop.owner_of(&u(i));
            assert_eq!(o, coop.owner_of(&u(i)), "stability");
            *counts.entry(o).or_insert(0u32) += 1;
        }
        // Each of 8 members owns roughly 100 of 800 objects.
        for (&m, &c) in &counts {
            assert!((60..=140).contains(&c), "member {m} owns {c}");
        }
    }

    #[test]
    fn second_requester_hits_neighbor_not_origin() {
        let mut coop = CoopCache::new(4);
        let url = u(1);
        assert_eq!(coop.request(0, &url, 1000), FetchTier::Origin);
        // A different member: lateral hit, no second uplink crossing.
        let owner = coop.owner_of(&url);
        let other = (0..4).find(|&m| m != owner).unwrap();
        assert_eq!(coop.request(other, &url, 1000), FetchTier::Neighbor);
        let s = coop.stats();
        assert_eq!(s.origin_fetches, 1);
        assert_eq!(s.uplink_bytes, 1000);
        assert_eq!(s.neighbor_hits, 1);
    }

    #[test]
    fn owner_requesting_again_is_local() {
        let mut coop = CoopCache::new(4);
        let url = u(2);
        let owner = coop.owner_of(&url);
        assert_eq!(coop.request(owner, &url, 500), FetchTier::Origin);
        assert_eq!(coop.request(owner, &url, 500), FetchTier::Local);
    }

    #[test]
    fn independent_caches_fetch_repeatedly() {
        let mut indep = CoopCache::new(4).independent();
        let url = u(3);
        for m in 0..4 {
            assert_eq!(indep.request(m, &url, 1000), FetchTier::Origin);
        }
        let s = indep.stats();
        assert_eq!(s.origin_fetches, 4);
        assert_eq!(s.uplink_bytes, 4000);
        assert_eq!(s.neighbor_hits, 0);
        // …and stores four duplicate copies.
        assert_eq!(indep.stored_objects(), 4);
    }

    #[test]
    fn cooperation_saves_uplink_bytes_and_storage() {
        let mut coop = CoopCache::new(10);
        let mut indep = CoopCache::new(10).independent();
        // Every member requests the same 20 objects.
        for obj in 0..20 {
            for m in 0..10 {
                coop.request(m, &u(obj), 10_000);
                indep.request(m, &u(obj), 10_000);
            }
        }
        assert_eq!(coop.stats().origin_fetches, 20);
        assert_eq!(indep.stats().origin_fetches, 200);
        assert!(coop.stats().uplink_bytes * 9 <= indep.stats().uplink_bytes);
        assert_eq!(coop.stored_objects(), 20);
        assert_eq!(indep.stored_objects(), 200);
        assert!(coop.stats().containment() > 0.85);
    }

    #[test]
    fn join_moves_minimal_ownership() {
        let mut coop = CoopCache::new(10);
        let before: Vec<u32> = (0..1000).map(|i| coop.owner_of(&u(i))).collect();
        let newbie = coop.add_member();
        assert_eq!(newbie, 10);
        let mut moved = 0;
        let mut moved_to_newbie = 0;
        for (i, &old) in before.iter().enumerate() {
            let now = coop.owner_of(&u(i as u32));
            if now != old {
                moved += 1;
                if now == newbie {
                    moved_to_newbie += 1;
                }
            }
        }
        // HRW: everything that moves, moves to the newcomer, and the
        // moved share is ~1/11 of the object space.
        assert_eq!(moved, moved_to_newbie);
        assert!((50..=140).contains(&moved), "moved {moved} of 1000");
    }

    #[test]
    fn leave_redistributes_only_the_departed_share() {
        let mut coop = CoopCache::new(10);
        let before: Vec<u32> = (0..1000).map(|i| coop.owner_of(&u(i))).collect();
        // Warm the departing member's cache.
        let victim = 3u32;
        let mut victim_owned = 0;
        for i in 0..1000u32 {
            if coop.owner_of(&u(i)) == victim {
                coop.request(victim, &u(i), 100);
                victim_owned += 1;
            }
        }
        let lost = coop.remove_member(victim);
        assert_eq!(lost, victim_owned);
        for (i, &old) in before.iter().enumerate() {
            let now = coop.owner_of(&u(i as u32));
            if old != victim {
                assert_eq!(now, old, "object {i} moved needlessly");
            } else {
                assert_ne!(now, victim);
            }
        }
    }

    #[test]
    fn dead_owner_reroutes_to_alive_member() {
        let mut coop = CoopCache::new(4);
        let url = u(5);
        let owner = coop.owner_of(&url);
        // Warm the owner's cache, then the owner dies.
        coop.request(owner, &url, 1000);
        coop.set_member_up(owner, false);
        assert_eq!(coop.up_count(), 3);
        let new_owner = coop.owner_of(&url);
        assert_ne!(new_owner, owner);
        // A survivor's request re-fetches from the origin (the cached
        // copy died with its holder) and re-warms the new owner.
        let requester = (0..4).find(|&m| m != owner && m != new_owner).unwrap();
        assert_eq!(coop.request(requester, &url, 1000), FetchTier::Origin);
        assert_eq!(coop.request(requester, &url, 1000), FetchTier::Neighbor);
        // The owner rejoins: its original share of the space returns.
        coop.set_member_up(owner, true);
        assert_eq!(coop.owner_of(&url), owner);
    }

    #[test]
    fn apply_view_tracks_fabric_liveness() {
        use hpop_fabric::{Advertisement, Fabric, FabricConfig};
        let mut fabric = Fabric::new(FabricConfig::default());
        for _ in 0..8 {
            fabric.join(Advertisement::default());
        }
        // Members 0..8 are the fabric's peers 0..8, in join order.
        let mut coop = CoopCache::new(8);
        let (observer, victim) = (PeerId(0), 5u32);
        let owned = |coop: &CoopCache| (0..200).filter(|&i| coop.owner_of(&u(i)) == victim).count();
        fabric.run_rounds(8);
        coop.apply_view(&fabric.view(observer));
        assert_eq!(coop.up_count(), 8);
        assert!(owned(&coop) > 0);

        fabric.set_up(PeerId(u64::from(victim)), false);
        fabric.run_rounds(40);
        coop.apply_view(&fabric.view(observer));
        assert_eq!(coop.up_count(), 7);
        assert_eq!(owned(&coop), 0);

        fabric.set_up(PeerId(u64::from(victim)), true);
        fabric.run_rounds(12);
        coop.apply_view(&fabric.view(observer));
        assert_eq!(coop.up_count(), 8);
        assert!(owned(&coop) > 0);

        // A view that has never heard of a member leaves it alone.
        coop.set_member_up(victim, false);
        coop.apply_view(&PeerView::default());
        assert_eq!(coop.up_count(), 7);
    }

    /// Seeds a copy of `url` at `holder` only, leaving every other
    /// member's cache cold: mark the others down so the origin fill
    /// lands locally, then restore liveness.
    fn seed_copy_at(coop: &mut CoopCache, holder: u32, url: &Url, bytes: u64) {
        let ids: Vec<u32> = (0..coop.member_count() as u32).collect();
        for &m in &ids {
            if m != holder {
                coop.set_member_up(m, false);
            }
        }
        assert_eq!(coop.request(holder, url, bytes), FetchTier::Origin);
        for &m in &ids {
            coop.set_member_up(m, true);
        }
    }

    #[test]
    fn tripped_owner_is_excluded_then_recovers_ownership() {
        use hpop_netsim::time::SimDuration;
        let mut coop = CoopCache::new(4);
        let url = u(9);
        let owner = coop.owner_of(&url);
        let t0 = SimTime::ZERO;
        for _ in 0..BreakerConfig::default().failure_threshold {
            coop.report_lateral_outcome(owner, t0, false);
        }
        assert_eq!(coop.breakers.state(owner, t0), BreakerState::Open);
        // While withdrawn, ownership re-routes; a request never waits
        // on the tripped member and its fill lands at a usable owner.
        let new_owner = coop.owner_usable_at(&url, t0).expect("someone usable");
        assert_ne!(new_owner, owner);
        let third = (0..4).find(|&m| m != owner && m != new_owner).unwrap();
        assert_eq!(coop.request_at(third, &url, 1000, t0), FetchTier::Origin);
        assert_ne!(
            coop.request_at(third, &url, 1000, t0),
            FetchTier::Origin,
            "copy now lives at a usable member"
        );
        // After the cooldown a probe success closes the circuit and the
        // original owner resumes its share of the space.
        let later = t0 + SimDuration::from_secs(3600);
        coop.report_lateral_outcome(owner, later, true);
        assert_eq!(coop.breakers.state(owner, later), BreakerState::Closed);
        assert_eq!(coop.owner_usable_at(&url, later), Some(owner));
    }

    #[test]
    fn healthy_neighborhood_never_serves_stale() {
        let mut coop = CoopCache::new(3);
        let url = u(11);
        let owner = coop.owner_of(&url);
        let holder = (0..3).find(|&m| m != owner).unwrap();
        seed_copy_at(&mut coop, holder, &url, 700);
        // All members up, no breaker tripped: the cold owner forces a
        // fresh origin fetch even though a lateral copy exists.
        let third = (0..3).find(|&m| m != owner && m != holder).unwrap();
        assert_eq!(coop.request(third, &url, 700), FetchTier::Origin);
        assert_eq!(coop.stats().stale_hits, 0);
    }

    #[test]
    fn degraded_neighborhood_serves_stale_off_the_uplink() {
        let mut coop = CoopCache::new(3);
        let url = u(11);
        let owner = coop.owner_of(&url);
        // The requester is the member that inherits ownership when the
        // true owner dies, so its miss cannot be a Neighbor hit; the
        // third member holds the only (now stale-eligible) copy.
        coop.set_member_up(owner, false);
        let heir = coop.owner_usable_at(&url, SimTime::ZERO).unwrap();
        coop.set_member_up(owner, true);
        let holder = (0..3).find(|&m| m != owner && m != heir).unwrap();
        seed_copy_at(&mut coop, holder, &url, 700);
        // The owner goes down: the neighborhood is degraded, so the
        // holder's possibly-outdated copy beats another uplink crossing.
        coop.set_member_up(owner, false);
        assert_eq!(coop.request(heir, &url, 700), FetchTier::Stale);
        let s = coop.stats();
        assert_eq!(s.stale_hits, 1);
        assert_eq!(s.uplink_bytes, 700, "stale serve stayed off the uplink");
        // One origin seed + one stale hit → exactly half contained.
        assert!(s.containment() >= 0.5, "stale counts as contained");
    }

    #[test]
    fn no_usable_member_falls_back_to_origin_without_panic() {
        let mut coop = CoopCache::new(2);
        let url = u(13);
        let t0 = SimTime::ZERO;
        // Trip both breakers: no usable owner anywhere.
        for m in 0..2 {
            for _ in 0..BreakerConfig::default().failure_threshold {
                coop.report_lateral_outcome(m, t0, false);
            }
        }
        // The request still succeeds — origin fill cached locally.
        assert_eq!(coop.request_at(0, &url, 500, t0), FetchTier::Origin);
        assert_eq!(coop.request_at(0, &url, 500, t0), FetchTier::Local);
    }

    #[test]
    fn overload_rejects_with_typed_retry_after() {
        use hpop_resilience::AdmissionConfig;
        let mut coop = CoopCache::new(4);
        coop.enable_overload(
            CoopOverloadConfig {
                admission: AdmissionConfig {
                    rate_per_sec: 1.0,
                    burst: 2.0,
                    ..AdmissionConfig::default()
                },
                ..CoopOverloadConfig::default()
            },
            SimTime::ZERO,
        );
        let t0 = SimTime::ZERO;
        // Burst of 2 admitted, third refused with a concrete hint.
        assert!(coop.try_request_at(0, &u(1), 100, t0).is_ok());
        assert!(coop.try_request_at(1, &u(1), 100, t0).is_ok());
        let err = coop.try_request_at(2, &u(1), 100, t0).unwrap_err();
        assert!(err.retry_after > SimDuration::ZERO);
        assert_eq!(coop.overload_rejected(), 1);
        // After the hinted wait the request is admitted again.
        let later = t0 + err.retry_after + SimDuration::from_millis(1);
        assert!(coop.try_request_at(2, &u(1), 100, later).is_ok());
    }

    #[test]
    fn stale_allowed_rung_serves_stale_without_failures() {
        let mut coop = CoopCache::new(3);
        let url = u(11);
        let owner = coop.owner_of(&url);
        // Same topology as the degraded-stale test, but nothing fails:
        // the brownout rung alone licenses the stale serve.
        coop.set_member_up(owner, false);
        let heir = coop.owner_usable_at(&url, SimTime::ZERO).unwrap();
        coop.set_member_up(owner, true);
        let holder = (0..3).find(|&m| m != owner && m != heir).unwrap();
        seed_copy_at(&mut coop, holder, &url, 700);
        coop.enable_overload(CoopOverloadConfig::default(), SimTime::ZERO);
        // Saturation from queue pressure pushes the ladder to
        // StaleAllowed (0.7 <= 0.75 < 0.85).
        coop.set_queue_pressure(0.75);
        let tier = coop.try_request_at(heir, &url, 700, SimTime::ZERO).unwrap();
        assert_eq!(coop.brownout_level(), BrownoutLevel::StaleAllowed);
        assert_eq!(tier, FetchTier::Stale, "stale as a load rung");
        assert_eq!(coop.stats().uplink_bytes, 700, "no extra uplink crossing");
    }

    #[test]
    fn redirect_rung_skips_lateral_work() {
        let mut coop = CoopCache::new(3);
        let url = u(21);
        let owner = coop.owner_of(&url);
        // Warm the owner: a healthy request would be a Neighbor hit.
        seed_copy_at(&mut coop, owner, &url, 500);
        coop.enable_overload(CoopOverloadConfig::default(), SimTime::ZERO);
        coop.set_queue_pressure(0.9);
        let requester = (0..3).find(|&m| m != owner).unwrap();
        let tier = coop
            .try_request_at(requester, &url, 500, SimTime::ZERO)
            .unwrap();
        assert_eq!(coop.brownout_level(), BrownoutLevel::RedirectOrigin);
        assert_eq!(tier, FetchTier::Origin, "lateral work skipped");
        // The fill landed locally: the next request is a Local hit
        // even while redirecting.
        let again = coop
            .try_request_at(requester, &url, 500, SimTime::ZERO)
            .unwrap();
        assert_eq!(again, FetchTier::Local);
    }

    #[test]
    fn hot_objects_get_extra_replicas() {
        let mut coop = CoopCache::new(4);
        coop.enable_overload(
            CoopOverloadConfig {
                hot_threshold: 3,
                ..CoopOverloadConfig::default()
            },
            SimTime::ZERO,
        );
        let url = u(30);
        let t0 = SimTime::from_secs(1);
        let owner = coop.owner_of(&url);
        // First request seeds the owner; the crowd then converges.
        let others: Vec<u32> = (0..4).filter(|&m| m != owner).collect();
        coop.try_request_at(others[0], &url, 900, t0).unwrap();
        // Requests 2 and 3 cross the hot threshold: replicas spread.
        coop.try_request_at(others[0], &url, 900, t0).unwrap();
        coop.try_request_at(others[1], &url, 900, t0).unwrap();
        coop.try_request_at(others[2], &url, 900, t0).unwrap();
        // The object now lives at more members than just the owner.
        let holders = coop
            .contents()
            .values()
            .filter(|objs| objs.contains(&url))
            .count();
        assert!(holders >= 3, "hot object replicated to {holders} members");
        // A fresh hot requester is served laterally, never the origin.
        assert_eq!(coop.stats().origin_fetches, 1);
    }

    #[test]
    fn background_sheds_before_interactive_in_coop() {
        let mut coop = CoopCache::new(3);
        coop.enable_overload(CoopOverloadConfig::default(), SimTime::ZERO);
        let t0 = SimTime::ZERO;
        // Moderate saturation: anti-entropy shed, interactive flows.
        coop.set_queue_pressure(0.65);
        assert!(!coop.offer_background(WorkClass::AntiEntropy, t0));
        assert!(coop.offer_background(WorkClass::Prefetch, t0));
        assert!(coop.try_request_at(0, &u(40), 100, t0).is_ok());
        // Heavy saturation: all background shed, interactive refused
        // only via typed admission (never silently shed).
        coop.set_queue_pressure(0.95);
        assert!(!coop.offer_background(WorkClass::Prefetch, t0));
        assert!(!coop.offer_background(WorkClass::Repair, t0));
        let s = coop.shedder().unwrap();
        assert!(s.background_shed() >= 3);
        assert_eq!(s.shed_count(WorkClass::Interactive), 0);
    }

    #[test]
    fn overload_disabled_is_transparent() {
        let mut coop = CoopCache::new(3);
        let url = u(50);
        let tier = coop.try_request_at(0, &url, 100, SimTime::ZERO).unwrap();
        assert_eq!(tier, FetchTier::Origin);
        assert_eq!(coop.brownout_level(), BrownoutLevel::Full);
        assert_eq!(coop.overload_rejected(), 0);
        assert!(coop.offer_background(WorkClass::AntiEntropy, SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "at least one member is up")]
    fn all_members_down_panics() {
        let mut coop = CoopCache::new(2);
        coop.set_member_up(0, false);
        coop.set_member_up(1, false);
        coop.owner_of(&u(0));
    }

    #[test]
    #[should_panic(expected = "last HPoP")]
    fn cannot_empty_the_neighborhood() {
        let mut coop = CoopCache::new(1);
        coop.remove_member(0);
    }

    #[test]
    #[should_panic(expected = "unknown member")]
    fn unknown_member_panics() {
        let mut coop = CoopCache::new(2);
        coop.request(7, &u(0), 1);
    }

    #[test]
    #[should_panic(expected = "at least one HPoP")]
    fn empty_neighborhood_rejected() {
        let _ = CoopCache::new(0);
    }
}

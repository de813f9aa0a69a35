//! Admission control: token buckets + AIMD concurrency limits.
//!
//! Every HPoP service used to accept unbounded work; a metro-scale
//! flash crowd (thousands of homes converging on the same rising-head
//! objects) would pile requests into queues until latency — and then
//! memory — blew up. Admission control turns that collapse into a
//! *typed refusal*: callers get [`Overloaded`] with a concrete
//! `retry_after` hint instead of a request that silently waits forever.
//!
//! Two mechanisms compose inside one [`Admission`] controller:
//!
//! - a **token bucket** bounds sustained *rate* (requests/s with a
//!   burst allowance) — the classic front door against flash crowds;
//! - an **AIMD concurrency limit** bounds *inflight work*, probing
//!   upward one permit per success window and multiplicatively backing
//!   off when completions report overload — so the limit converges on
//!   whatever the backend can actually sustain, without configuration.
//!
//! Queue-depth backpressure feeds in through
//! [`Admission::set_queue_pressure`]: a bounded work queue
//! ([`crate::queue::BoundedQueue`]) reports its fill fraction and the
//! controller's [saturation](Admission::saturation) — the scalar the
//! [`Brownout`](crate::brownout::Brownout) ladder and the
//! [`LoadShedder`](crate::shed::LoadShedder) act on — rises with it.
//!
//! All state advances on the simulated clock; nothing here allocates
//! after construction, so per-request admission is metro-tick cheap.

use hpop_netsim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Typed rejection: the service is saturated; come back later.
///
/// `retry_after` is a *hint* derived from the refusing mechanism — the
/// token refill time when the bucket is dry, a fixed backoff when the
/// concurrency limit is full. The attic daemon surfaces it as an HTTP
/// `Retry-After` header; in-process callers feed it to their
/// [`RetryPolicy`](crate::RetryPolicy) as a floor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Overloaded {
    /// Suggested wait before retrying.
    pub retry_after: SimDuration,
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "overloaded; retry after {:.0} ms",
            self.retry_after.as_millis_f64()
        )
    }
}

impl std::error::Error for Overloaded {}

/// Admission tuning.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Sustained request rate the bucket refills at (tokens/second).
    pub rate_per_sec: f64,
    /// Burst allowance: bucket capacity in tokens.
    pub burst: f64,
    /// Initial AIMD concurrency limit (permits).
    pub initial_limit: f64,
    /// Lower bound the multiplicative decrease can never cross.
    pub min_limit: f64,
    /// Upper bound the additive increase can never cross.
    pub max_limit: f64,
    /// Additive increase per fully-successful completion.
    pub add_per_success: f64,
    /// Multiplicative decrease factor applied on an overload signal.
    pub multiply_on_overload: f64,
    /// `retry_after` hint when the concurrency limit (not the bucket)
    /// is the refusing mechanism.
    pub inflight_retry_after: SimDuration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            rate_per_sec: 100.0,
            burst: 50.0,
            initial_limit: 16.0,
            min_limit: 1.0,
            max_limit: 1024.0,
            add_per_success: 1.0,
            multiply_on_overload: 0.5,
            inflight_retry_after: SimDuration::from_millis(100),
        }
    }
}

/// A classic token bucket on the simulated clock.
///
/// Tokens refill continuously at `refill_per_sec` up to `capacity`;
/// [`try_take`](TokenBucket::try_take) either deducts or refuses with
/// the exact time until enough tokens will exist.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    capacity: f64,
    refill_per_sec: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// A full bucket at `now`.
    pub fn new(capacity: f64, refill_per_sec: f64, now: SimTime) -> TokenBucket {
        TokenBucket {
            capacity: capacity.max(0.0),
            refill_per_sec: refill_per_sec.max(0.0),
            tokens: capacity.max(0.0),
            last_refill: now,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_refill).as_secs_f64();
        if dt > 0.0 {
            self.tokens = (self.tokens + dt * self.refill_per_sec).min(self.capacity);
            self.last_refill = now;
        }
    }

    /// Takes `n` tokens, or refuses with the wait until they exist.
    pub fn try_take(&mut self, now: SimTime, n: f64) -> Result<(), Overloaded> {
        self.refill(now);
        if self.tokens >= n {
            self.tokens -= n;
            Ok(())
        } else {
            Err(Overloaded {
                retry_after: self.eta(n),
            })
        }
    }

    /// Time until `n` tokens would be available if none are spent.
    fn eta(&self, n: f64) -> SimDuration {
        let missing = (n - self.tokens).max(0.0);
        if self.refill_per_sec <= 0.0 {
            SimDuration::MAX
        } else {
            SimDuration::from_secs_f64(missing / self.refill_per_sec)
        }
    }

    /// Tokens currently available (after a virtual refill to `now`).
    pub fn available(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.last_refill).as_secs_f64();
        (self.tokens + dt * self.refill_per_sec).min(self.capacity)
    }

    /// Bucket capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }
}

/// An AIMD (additive-increase / multiplicative-decrease) concurrency
/// limit, TCP-style: probe capacity upward gently, back off hard on a
/// loss signal. Converges on the backend's true service capacity
/// without knowing it in advance.
#[derive(Clone, Copy, Debug)]
pub struct AimdLimit {
    limit: f64,
    min_limit: f64,
    max_limit: f64,
    add_per_success: f64,
    multiply_on_overload: f64,
    inflight: u32,
}

impl AimdLimit {
    /// A limit starting at `initial`, clamped to `[min, max]`.
    pub fn new(initial: f64, min: f64, max: f64, add: f64, multiply: f64) -> AimdLimit {
        let min = min.max(1.0);
        let max = max.max(min);
        AimdLimit {
            limit: initial.clamp(min, max),
            min_limit: min,
            max_limit: max,
            add_per_success: add.max(0.0),
            multiply_on_overload: multiply.clamp(0.0, 1.0),
            inflight: 0,
        }
    }

    /// Acquires a permit if inflight work is below the current limit.
    pub fn try_acquire(&mut self) -> bool {
        if (self.inflight as f64) < self.limit.floor() {
            self.inflight += 1;
            true
        } else {
            false
        }
    }

    /// Releases a permit. `overloaded` is the completion's verdict on
    /// the backend: `true` shrinks the limit multiplicatively, `false`
    /// grows it additively (scaled down by the current limit so growth
    /// is one permit per round-trip *window*, not per completion).
    pub fn release(&mut self, overloaded: bool) {
        self.inflight = self.inflight.saturating_sub(1);
        if overloaded {
            self.limit = (self.limit * self.multiply_on_overload).max(self.min_limit);
        } else {
            self.limit =
                (self.limit + self.add_per_success / self.limit.max(1.0)).min(self.max_limit);
        }
    }

    /// The current (fractional) limit.
    pub fn limit(&self) -> f64 {
        self.limit
    }

    /// Permits currently held.
    pub fn inflight(&self) -> u32 {
        self.inflight
    }

    /// Fill fraction: inflight over limit, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        (self.inflight as f64 / self.limit.max(1.0)).clamp(0.0, 1.0)
    }
}

/// The composed admission controller for one service (or one peer of a
/// service): token-bucket rate gate in front of an AIMD concurrency
/// gate, with queue-depth pressure mixed into the saturation signal.
///
/// Protocol: call [`try_admit`](Admission::try_admit) before doing the
/// work; on `Ok(())` the permit is held and **must** be returned with
/// [`complete`](Admission::complete) (passing the overload verdict).
/// On `Err(Overloaded)` nothing is held.
#[derive(Clone, Debug)]
pub struct Admission {
    bucket: TokenBucket,
    aimd: AimdLimit,
    queue_pressure: f64,
    inflight_retry_after: SimDuration,
    admitted: u64,
    rejected: u64,
}

impl Admission {
    /// A controller at `now` from `cfg`.
    pub fn new(cfg: AdmissionConfig, now: SimTime) -> Admission {
        Admission {
            bucket: TokenBucket::new(cfg.burst, cfg.rate_per_sec, now),
            aimd: AimdLimit::new(
                cfg.initial_limit,
                cfg.min_limit,
                cfg.max_limit,
                cfg.add_per_success,
                cfg.multiply_on_overload,
            ),
            queue_pressure: 0.0,
            inflight_retry_after: cfg.inflight_retry_after,
            admitted: 0,
            rejected: 0,
        }
    }

    /// Tries to admit one request at `now`. `Ok` holds a concurrency
    /// permit that must be released via [`complete`](Admission::complete).
    pub fn try_admit(&mut self, now: SimTime) -> Result<(), Overloaded> {
        if let Err(over) = self.bucket.try_take(now, 1.0) {
            self.rejected += 1;
            hpop_obs::metrics()
                .counter("resilience.admission.reject_rate")
                .incr();
            return Err(over);
        }
        if !self.aimd.try_acquire() {
            // Refund the rate token: the request never ran.
            self.bucket.tokens = (self.bucket.tokens + 1.0).min(self.bucket.capacity);
            self.rejected += 1;
            hpop_obs::metrics()
                .counter("resilience.admission.reject_inflight")
                .incr();
            return Err(Overloaded {
                retry_after: self.inflight_retry_after,
            });
        }
        self.admitted += 1;
        Ok(())
    }

    /// Returns the permit taken by a successful
    /// [`try_admit`](Admission::try_admit). `overloaded` is the
    /// completion's verdict (timed out / shed / refused downstream)
    /// and drives the AIMD window.
    pub fn complete(&mut self, overloaded: bool) {
        self.aimd.release(overloaded);
    }

    /// Feeds the bounded-queue fill fraction (clamped to `[0, 1]`)
    /// into the saturation signal.
    pub fn set_queue_pressure(&mut self, pressure: f64) {
        self.queue_pressure = pressure.clamp(0.0, 1.0);
    }

    /// The scalar saturation signal in `[0, 1]`: the worst of
    /// concurrency utilization, rate-bucket depletion, and queue
    /// pressure. 0 = idle, 1 = refusing work.
    pub fn saturation(&self, now: SimTime) -> f64 {
        let bucket_depletion = if self.bucket.capacity() > 0.0 {
            1.0 - (self.bucket.available(now) / self.bucket.capacity())
        } else {
            0.0
        };
        self.aimd
            .utilization()
            .max(bucket_depletion)
            .max(self.queue_pressure)
    }

    /// The AIMD gate (for inspection / tests).
    pub fn aimd(&self) -> &AimdLimit {
        &self.aimd
    }

    /// Requests admitted since construction.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests rejected since construction.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

/// Keyed admission controllers — one per peer, created on first use.
/// The NoCDN fetcher uses this to cap concurrency *per serving peer*
/// so one hot peer saturating does not stall fetches from others.
#[derive(Clone, Debug)]
pub struct AdmissionBank<K: Ord + Copy> {
    cfg: AdmissionConfig,
    controllers: BTreeMap<K, Admission>,
}

impl<K: Ord + Copy> AdmissionBank<K> {
    /// An empty bank stamping new controllers from `cfg`.
    pub fn new(cfg: AdmissionConfig) -> AdmissionBank<K> {
        AdmissionBank {
            cfg,
            controllers: BTreeMap::new(),
        }
    }

    /// The controller for `key`, created fresh (at `now`) if new.
    pub fn controller(&mut self, key: K, now: SimTime) -> &mut Admission {
        let cfg = self.cfg;
        self.controllers
            .entry(key)
            .or_insert_with(|| Admission::new(cfg, now))
    }

    /// Tries to admit one request against `key`'s controller.
    pub fn try_admit(&mut self, key: K, now: SimTime) -> Result<(), Overloaded> {
        self.controller(key, now).try_admit(now)
    }

    /// Completes a request admitted against `key`.
    pub fn complete(&mut self, key: K, overloaded: bool) {
        if let Some(c) = self.controllers.get_mut(&key) {
            c.complete(overloaded);
        }
    }

    /// The worst saturation across all controllers (0.0 when empty).
    pub fn saturation(&self, now: SimTime) -> f64 {
        self.controllers
            .values()
            .map(|c| c.saturation(now))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t_ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            rate_per_sec: 10.0,
            burst: 5.0,
            initial_limit: 2.0,
            min_limit: 1.0,
            max_limit: 8.0,
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn bucket_enforces_rate_and_reports_eta() {
        let mut b = TokenBucket::new(2.0, 10.0, t_ms(0));
        assert!(b.try_take(t_ms(0), 1.0).is_ok());
        assert!(b.try_take(t_ms(0), 1.0).is_ok());
        let err = b.try_take(t_ms(0), 1.0).unwrap_err();
        // 1 token at 10/s = 100 ms away.
        assert!((err.retry_after.as_millis_f64() - 100.0).abs() < 1.0);
        // After the hinted wait the take succeeds.
        assert!(b.try_take(t_ms(100), 1.0).is_ok());
    }

    #[test]
    fn aimd_grows_on_success_shrinks_on_overload() {
        let mut a = AimdLimit::new(4.0, 1.0, 64.0, 1.0, 0.5);
        assert!(a.try_acquire());
        a.release(false);
        assert!(a.limit() > 4.0);
        assert!(a.try_acquire());
        a.release(true);
        assert!(a.limit() < 4.0, "halved from ~4.25");
        // Floor holds under repeated overload.
        for _ in 0..20 {
            assert!(a.try_acquire());
            a.release(true);
        }
        assert!((a.limit() - 1.0).abs() < f64::EPSILON);
        // With limit at the floor exactly one permit exists.
        assert!(a.try_acquire());
        assert!(!a.try_acquire());
    }

    #[test]
    fn admission_rejects_on_inflight_and_refunds_rate_token() {
        let mut adm = Admission::new(cfg(), t_ms(0));
        assert!(adm.try_admit(t_ms(0)).is_ok());
        assert!(adm.try_admit(t_ms(0)).is_ok());
        // limit=2: third admit refuses on concurrency, not the bucket.
        let err = adm.try_admit(t_ms(0)).unwrap_err();
        assert_eq!(err.retry_after, cfg().inflight_retry_after);
        // The refund means the bucket still holds 3 of its 5 tokens.
        assert!((adm.bucket.available(t_ms(0)) - 3.0).abs() < 1e-9);
        adm.complete(false);
        assert!(adm.try_admit(t_ms(0)).is_ok());
        assert_eq!(adm.admitted(), 3);
        assert_eq!(adm.rejected(), 1);
    }

    #[test]
    fn saturation_tracks_worst_signal() {
        let mut adm = Admission::new(cfg(), t_ms(0));
        assert!(adm.saturation(t_ms(0)) < 0.01);
        adm.try_admit(t_ms(0)).unwrap();
        adm.try_admit(t_ms(0)).unwrap();
        // Concurrency fully utilized.
        assert!(adm.saturation(t_ms(0)) >= 1.0 - 1e-9);
        adm.complete(false);
        adm.complete(false);
        adm.set_queue_pressure(0.7);
        let s = adm.saturation(t_ms(10_000));
        assert!((0.69..=0.71).contains(&s), "queue pressure dominates: {s}");
    }

    #[test]
    fn bank_is_per_key() {
        let mut bank: AdmissionBank<u32> = AdmissionBank::new(cfg());
        assert!(bank.try_admit(1, t_ms(0)).is_ok());
        assert!(bank.try_admit(1, t_ms(0)).is_ok());
        assert!(bank.try_admit(1, t_ms(0)).is_err());
        // Peer 2 is unaffected by peer 1's saturation.
        assert!(bank.try_admit(2, t_ms(0)).is_ok());
        assert!(bank.saturation(t_ms(0)) >= 1.0 - 1e-9);
        bank.complete(1, false);
        assert!(bank.try_admit(1, t_ms(0)).is_ok());
    }
}

//! Per-peer circuit breakers.
//!
//! A breaker stops a service from burning its deadline budget on a
//! peer that keeps failing: after enough consecutive failures the
//! circuit *opens* and the peer is skipped outright; after a cooldown
//! it *half-opens* and admits one probe; a probe success closes it
//! again. Unlike raw strike counters (which only ever go up), a
//! breaker always gives a recovered peer a way back in — the
//! [`proptests`](crate::proptests) pin that guarantee.

use hpop_netsim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Breaker tuning.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that open the circuit (0 acts as 1: only a
    /// recorded failure ever opens it).
    pub failure_threshold: u32,
    /// How long an open circuit rejects before half-opening.
    pub open_for: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_for: SimDuration::from_secs(30),
        }
    }
}

/// The breaker's gate state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakerState {
    /// Traffic flows; failures are counted.
    Closed,
    /// Traffic is rejected until the cooldown elapses.
    Open,
    /// One probe request is admitted to test recovery.
    HalfOpen,
}

/// One peer's circuit breaker.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    consecutive_failures: u32,
    /// When the circuit opened (None while closed).
    opened_at: Option<SimTime>,
    /// Whether the half-open probe slot has been handed out.
    probe_inflight: bool,
}

impl CircuitBreaker {
    /// A closed breaker with the given config.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            consecutive_failures: 0,
            opened_at: None,
            probe_inflight: false,
        }
    }

    /// The state at `now`.
    pub fn state(&self, now: SimTime) -> BreakerState {
        match self.opened_at {
            None => BreakerState::Closed,
            Some(at) if now.saturating_since(at) >= self.cfg.open_for => BreakerState::HalfOpen,
            Some(_) => BreakerState::Open,
        }
    }

    /// Whether a request may be sent at `now`. In half-open state only
    /// the first caller gets the probe slot; everyone else keeps being
    /// rejected until the probe reports back.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state(now) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probe_inflight {
                    false
                } else {
                    self.probe_inflight = true;
                    hpop_obs::metrics()
                        .counter("resilience.breaker.probe")
                        .incr();
                    true
                }
            }
        }
    }

    /// Records a successful request: closes the circuit and clears the
    /// failure run.
    pub fn record_success(&mut self, _now: SimTime) {
        if self.opened_at.is_some() {
            hpop_obs::metrics()
                .counter("resilience.breaker.close")
                .incr();
        }
        self.opened_at = None;
        self.probe_inflight = false;
        self.consecutive_failures = 0;
    }

    /// Records a failed request. A failed half-open probe re-opens the
    /// circuit (restarting the cooldown); in closed state the circuit
    /// opens once the failure threshold is hit.
    pub fn record_failure(&mut self, now: SimTime) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let reopen = self.probe_inflight && self.state(now) == BreakerState::HalfOpen;
        self.probe_inflight = false;
        if reopen || self.consecutive_failures >= self.cfg.failure_threshold {
            if self.opened_at.is_none() || reopen {
                hpop_obs::metrics()
                    .counter("resilience.breaker.open")
                    .incr();
            }
            self.opened_at = Some(now);
        }
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }
}

/// A keyed collection of breakers — one per peer, created on first use.
#[derive(Clone, Debug)]
pub struct BreakerBank<K: Ord + Copy> {
    cfg: BreakerConfig,
    breakers: BTreeMap<K, CircuitBreaker>,
}

impl<K: Ord + Copy> BreakerBank<K> {
    /// An empty bank stamping new breakers from `cfg`.
    pub fn new(cfg: BreakerConfig) -> BreakerBank<K> {
        BreakerBank {
            cfg,
            breakers: BTreeMap::new(),
        }
    }

    /// The breaker for `key`, created closed if new.
    pub fn breaker(&mut self, key: K) -> &mut CircuitBreaker {
        let cfg = self.cfg;
        self.breakers
            .entry(key)
            .or_insert_with(|| CircuitBreaker::new(cfg))
    }

    /// Whether `key` may be tried at `now` (unknown keys are allowed:
    /// a breaker materializes on the first recorded outcome).
    pub fn allow(&mut self, key: K, now: SimTime) -> bool {
        self.breaker(key).allow(now)
    }

    /// Records one outcome for `key`.
    pub fn record(&mut self, key: K, now: SimTime, ok: bool) {
        if ok {
            self.breaker(key).record_success(now);
        } else {
            self.breaker(key).record_failure(now);
        }
    }

    /// The state of `key`'s breaker at `now` (Closed when never seen).
    pub fn state(&self, key: K, now: SimTime) -> BreakerState {
        self.breakers
            .get(&key)
            .map_or(BreakerState::Closed, |b| b.state(now))
    }

    /// The fraction of known peers whose circuit is not closed, in
    /// `[0, 1]` — a cheap saturation proxy: when a third of the
    /// neighborhood's breakers are open, the neighborhood is in
    /// trouble and load amplifiers (hedging, retries) should stand
    /// down. 0.0 when no breakers exist yet.
    pub fn saturation(&self, now: SimTime) -> f64 {
        if self.breakers.is_empty() {
            return 0.0;
        }
        let tripped = self
            .breakers
            .values()
            .filter(|b| b.state(now) != BreakerState::Closed)
            .count();
        tripped as f64 / self.breakers.len() as f64
    }

    /// Whether any circuit is currently not closed — [`tripped`]
    /// without building the list.
    ///
    /// [`tripped`]: BreakerBank::tripped
    pub fn any_tripped(&self, now: SimTime) -> bool {
        self.breakers
            .values()
            .any(|b| b.state(now) != BreakerState::Closed)
    }

    /// Keys whose circuit is currently not closed (open or half-open).
    pub fn tripped(&self, now: SimTime) -> Vec<K> {
        self.breakers
            .iter()
            .filter(|(_, b)| b.state(now) != BreakerState::Closed)
            .map(|(&k, _)| k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_for: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn opens_after_threshold_and_half_opens_after_cooldown() {
        let mut b = CircuitBreaker::new(cfg());
        for i in 0..3 {
            assert!(b.allow(t(i)));
            b.record_failure(t(i));
        }
        assert_eq!(b.state(t(3)), BreakerState::Open);
        assert!(!b.allow(t(3)));
        // Cooldown elapses: half-open, exactly one probe admitted.
        assert_eq!(b.state(t(12)), BreakerState::HalfOpen);
        assert!(b.allow(t(12)));
        assert!(!b.allow(t(12)), "second probe must be rejected");
        // Probe succeeds: closed again, failures cleared.
        b.record_success(t(13));
        assert_eq!(b.state(t(13)), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let mut b = CircuitBreaker::new(cfg());
        for i in 0..3 {
            b.record_failure(t(i));
        }
        assert!(b.allow(t(12)));
        b.record_failure(t(12));
        assert_eq!(b.state(t(13)), BreakerState::Open);
        // The cooldown restarted from the failed probe.
        assert_eq!(b.state(t(21)), BreakerState::Open);
        assert_eq!(b.state(t(22)), BreakerState::HalfOpen);
    }

    #[test]
    fn success_resets_failure_run() {
        let mut b = CircuitBreaker::new(cfg());
        b.record_failure(t(0));
        b.record_failure(t(1));
        b.record_success(t(2));
        b.record_failure(t(3));
        b.record_failure(t(4));
        assert_eq!(b.state(t(5)), BreakerState::Closed);
    }

    #[test]
    fn zero_threshold_opens_on_the_first_failure_only() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 0,
            ..cfg()
        });
        // No failure, no trip: successes never open a zero threshold.
        b.record_success(t(0));
        assert!(b.allow(t(1)));
        assert_eq!(b.state(t(1)), BreakerState::Closed);
        b.record_failure(t(2));
        assert_eq!(b.state(t(3)), BreakerState::Open);
        // A floored threshold still half-opens after the cooldown.
        assert_eq!(b.state(t(12)), BreakerState::HalfOpen);
    }

    #[test]
    fn bank_tracks_independent_peers() {
        let mut bank: BreakerBank<u32> = BreakerBank::new(cfg());
        for i in 0..3 {
            bank.record(7, t(i), false);
        }
        assert!(!bank.allow(7, t(3)));
        assert!(bank.allow(8, t(3)));
        assert_eq!(bank.state(7, t(3)), BreakerState::Open);
        assert_eq!(bank.state(8, t(3)), BreakerState::Closed);
        assert_eq!(bank.tripped(t(3)), vec![7]);
        assert!(bank.any_tripped(t(3)));
        // Half-open still counts as tripped.
        assert!(bank.any_tripped(t(15)));
        bank.record(7, t(20), true);
        assert!(bank.tripped(t(20)).is_empty());
        assert!(!bank.any_tripped(t(20)));
    }

    #[test]
    fn bank_saturation_is_tripped_fraction() {
        let mut bank: BreakerBank<u32> = BreakerBank::new(cfg());
        assert_eq!(bank.saturation(t(0)), 0.0, "empty bank is idle");
        bank.record(1, t(0), true);
        bank.record(2, t(0), true);
        for i in 0..3 {
            bank.record(3, t(i), false);
            bank.record(4, t(i), false);
        }
        assert!((bank.saturation(t(3)) - 0.5).abs() < 1e-12);
        bank.record(3, t(20), true);
        assert!((bank.saturation(t(20)) - 0.25).abs() < 1e-12);
    }
}

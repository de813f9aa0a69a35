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

/// Consecutive failures that open the circuit.
pub const FAILURE_THRESHOLD: u32 = 3;
/// How long an open circuit rejects before half-opening.
pub(crate) const OPEN_FOR: SimDuration = SimDuration::from_secs(30);

/// What [`BreakerBank::new`] takes. Breakers have no tuning left: both
/// knobs above are constants. Kept, field-less, because the benchmark's
/// micro pass names it; [`BreakerBank::default`] is the constructor to
/// use.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct BreakerConfig;

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

/// One peer's circuit breaker, closed until a failure run opens it.
#[derive(Clone, Debug, Default)]
pub struct CircuitBreaker {
    consecutive_failures: u32,
    /// When the circuit opened (None while closed).
    opened_at: Option<SimTime>,
    /// Whether the half-open probe slot has been handed out.
    probe_inflight: bool,
}

impl CircuitBreaker {
    /// The state at `now`.
    pub fn state(&self, now: SimTime) -> BreakerState {
        match self.opened_at {
            None => BreakerState::Closed,
            Some(at) if now.saturating_since(at) >= OPEN_FOR => BreakerState::HalfOpen,
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
        if reopen || self.consecutive_failures >= FAILURE_THRESHOLD {
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
    breakers: BTreeMap<K, CircuitBreaker>,
}

impl<K: Ord + Copy> Default for BreakerBank<K> {
    fn default() -> BreakerBank<K> {
        BreakerBank {
            breakers: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Copy> BreakerBank<K> {
    /// [`BreakerBank::default`]: an empty bank.
    #[doc(hidden)]
    pub fn new(_: BreakerConfig) -> BreakerBank<K> {
        BreakerBank::default()
    }

    /// The breaker for `key`, created closed if new.
    pub fn breaker(&mut self, key: K) -> &mut CircuitBreaker {
        self.breakers.entry(key).or_default()
    }

    /// Whether `key` may be tried at `now`. An unknown key is allowed,
    /// and asking creates its breaker, closed: from then on the key
    /// counts among the known peers [`saturation`] divides by.
    ///
    /// [`saturation`]: BreakerBank::saturation
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

    #[test]
    fn opens_after_threshold_and_half_opens_after_cooldown() {
        let mut b = CircuitBreaker::default();
        for i in 0..u64::from(FAILURE_THRESHOLD) {
            assert!(b.allow(t(i)));
            b.record_failure(t(i));
        }
        let opened = t(u64::from(FAILURE_THRESHOLD) - 1);
        assert_eq!(
            b.state(opened + SimDuration::from_secs(1)),
            BreakerState::Open
        );
        assert!(!b.allow(opened + SimDuration::from_secs(1)));
        assert_eq!(
            b.state(opened + (OPEN_FOR - SimDuration::from_nanos(1))),
            BreakerState::Open
        );
        // Cooldown elapses: half-open, exactly one probe admitted.
        let probe = opened + OPEN_FOR;
        assert_eq!(b.state(probe), BreakerState::HalfOpen);
        assert!(b.allow(probe));
        assert!(!b.allow(probe), "second probe must be rejected");
        // Probe succeeds: closed again, failures cleared.
        b.record_success(probe);
        assert_eq!(b.state(probe), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let mut b = CircuitBreaker::default();
        for i in 0..u64::from(FAILURE_THRESHOLD) {
            b.record_failure(t(i));
        }
        let probe = t(u64::from(FAILURE_THRESHOLD) - 1) + OPEN_FOR;
        assert!(b.allow(probe));
        b.record_failure(probe);
        assert_eq!(
            b.state(probe + SimDuration::from_secs(1)),
            BreakerState::Open
        );
        // The cooldown restarted from the failed probe.
        assert_eq!(
            b.state(probe + (OPEN_FOR - SimDuration::from_nanos(1))),
            BreakerState::Open
        );
        assert_eq!(b.state(probe + OPEN_FOR), BreakerState::HalfOpen);
    }

    #[test]
    fn success_resets_failure_run() {
        let mut b = CircuitBreaker::default();
        b.record_failure(t(0));
        b.record_failure(t(1));
        b.record_success(t(2));
        b.record_failure(t(3));
        b.record_failure(t(4));
        assert_eq!(b.state(t(5)), BreakerState::Closed);
    }

    #[test]
    fn bank_tracks_independent_peers() {
        let mut bank: BreakerBank<u32> = BreakerBank::default();
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
        let half_open = t(2) + OPEN_FOR;
        assert_eq!(bank.state(7, half_open), BreakerState::HalfOpen);
        assert!(bank.any_tripped(half_open));
        bank.record(7, half_open, true);
        assert!(bank.tripped(half_open).is_empty());
        assert!(!bank.any_tripped(half_open));
    }

    #[test]
    fn bank_saturation_is_tripped_fraction() {
        let mut bank: BreakerBank<u32> = BreakerBank::default();
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

    #[test]
    fn allow_alone_makes_a_key_count_toward_saturation() {
        for k in 1..5u32 {
            let mut bank: BreakerBank<u32> = BreakerBank::default();
            for key in 0..k {
                assert!(bank.allow(key, t(0)));
            }
            for i in 0..u64::from(FAILURE_THRESHOLD) {
                bank.record(k, t(i), false);
            }
            let expect = 1.0 / f64::from(k + 1);
            assert!((bank.saturation(t(3)) - expect).abs() < 1e-12, "k = {k}");
        }
    }
}

//! Budget-aware retry with deterministic backoff.
//!
//! Every retry in the system goes through one policy so behavior under
//! failure is uniform and replayable: exponential backoff, jitter drawn
//! from a hash of `(operation key, attempt)` — two runs of the same
//! experiment produce the same retry schedule — and a hard rule that a
//! retry is never scheduled past the operation's [`Deadline`].

use crate::deadline::Deadline;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_obs::mix;

/// Delay before the first retry.
const BASE: SimDuration = SimDuration::from_millis(50);
/// Multiplier applied per attempt.
const FACTOR: f64 = 2.0;
/// Cap on any single delay.
pub(crate) const MAX_DELAY: SimDuration = SimDuration::from_secs(5);
/// Maximum retry attempts after the initial try.
pub(crate) const MAX_RETRIES: u32 = 3;
/// Jitter fraction: each delay is scaled by a deterministic factor in
/// `[1 - JITTER, 1]`.
pub(crate) const JITTER: f64 = 0.25;

/// Why a retried operation gave up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RetryError {
    /// Every allowed attempt failed.
    Exhausted,
    /// The next backoff would cross the deadline.
    DeadlineExceeded,
}

/// The pre-jitter backoff envelope before retry `attempt` (attempt 0 is
/// the first retry). Monotone non-decreasing in `attempt`, capped at
/// `MAX_DELAY`.
pub(crate) fn envelope(attempt: u32) -> SimDuration {
    let ns = BASE.as_nanos() as f64 * FACTOR.powi(attempt.min(63) as i32);
    let capped = ns.min(MAX_DELAY.as_nanos() as f64);
    SimDuration::from_nanos(capped as u64)
}

/// The jittered delay before retry `attempt` of the operation
/// identified by `key`. Deterministic in `(key, attempt)`; always within
/// `[envelope * (1 - JITTER), envelope]`, so it never exceeds the
/// monotone envelope.
pub fn delay(key: u64, attempt: u32) -> SimDuration {
    let env = envelope(attempt).as_nanos();
    let h = mix(mix(key) ^ (attempt as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    let scale = 1.0 - JITTER * unit;
    SimDuration::from_nanos((env as f64 * scale) as u64)
}

/// One operation's retry state: a pure step whose pauses its caller
/// sleeps. The first attempt is the caller's and always runs, even on a
/// dead budget, so callers can tell "slow" from "impossible"; only the
/// pauses [`Backoff::failed`] names are deadline-gated.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    key: u64,
    attempt: u32,
}

impl Backoff {
    /// The state before the first attempt of the operation `key`, whose
    /// pauses are [`delay`]`(key, 0)`, `delay(key, 1)`, ….
    pub fn new(key: u64) -> Backoff {
        Backoff { key, attempt: 0 }
    }

    /// The attempt under way succeeded.
    pub fn succeeded(self) {
        if self.attempt > 0 {
            hpop_obs::metrics()
                .counter("resilience.retry.recovered")
                .incr();
        }
    }

    /// The attempt under way failed at `now`: the pause to sleep before
    /// the next, or — *before* wasting a sleep — why to give up: after
    /// `MAX_RETRIES` retries, or when the pause would cross `deadline`.
    ///
    /// # Errors
    ///
    /// How the retry gave up.
    pub fn failed(&mut self, deadline: Deadline, now: SimTime) -> Result<SimDuration, RetryError> {
        let m = hpop_obs::metrics();
        m.counter("resilience.retry.failure").incr();
        if self.attempt >= MAX_RETRIES {
            m.counter("resilience.retry.exhausted").incr();
            return Err(RetryError::Exhausted);
        }
        let pause = delay(self.key, self.attempt);
        if !deadline.allows_wait(now, pause) {
            m.counter("resilience.retry.deadline").incr();
            return Err(RetryError::DeadlineExceeded);
        }
        m.counter("resilience.retry.attempts").incr();
        self.attempt += 1;
        Ok(pause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_is_monotone_and_capped() {
        let mut prev = SimDuration::ZERO;
        for a in 0..20 {
            let e = envelope(a);
            assert!(e >= prev, "attempt {a}");
            assert!(e <= MAX_DELAY);
            prev = e;
        }
        assert_eq!(envelope(0), BASE);
        assert_eq!(envelope(10), MAX_DELAY);
    }

    #[test]
    fn delay_is_deterministic_and_within_envelope() {
        for key in [0u64, 1, 99] {
            for a in 0..6 {
                let d1 = delay(key, a);
                let d2 = delay(key, a);
                assert_eq!(d1, d2);
                assert!(d1 <= envelope(a));
                let floor = envelope(a).as_nanos() as f64 * (1.0 - JITTER);
                assert!(d1.as_nanos() as f64 >= floor - 1.0);
            }
        }
        // Different keys give different jitter (decorrelated retries).
        assert_ne!(delay(1, 2), delay(2, 2));
    }

    /// Drives `b` through `fails` failed attempts from `*now`, sleeping
    /// each granted pause; returns how it gave up, if it did.
    fn fail(
        b: &mut Backoff,
        fails: u32,
        deadline: Deadline,
        now: &mut SimTime,
    ) -> Option<RetryError> {
        for _ in 0..fails {
            match b.failed(deadline, *now) {
                Ok(pause) => *now += pause,
                Err(e) => return Some(e),
            }
        }
        None
    }

    #[test]
    fn run_recovers_after_failures() {
        let mut now = SimTime::ZERO;
        let mut b = Backoff::new(1);
        assert_eq!(fail(&mut b, 2, Deadline::UNBOUNDED, &mut now), None);
        b.succeeded(); // the third attempt
                       // The clock advanced by exactly the two pauses taken.
        assert_eq!(now.since(SimTime::ZERO), delay(1, 0) + delay(1, 1));
    }

    #[test]
    fn run_exhausts_after_max_retries() {
        let mut now = SimTime::ZERO;
        let mut b = Backoff::new(1);
        // 1 try + the retries all fail; the last failure gives up.
        assert_eq!(
            fail(&mut b, MAX_RETRIES, Deadline::UNBOUNDED, &mut now),
            None
        );
        assert_eq!(
            b.failed(Deadline::UNBOUNDED, now),
            Err(RetryError::Exhausted)
        );
    }

    #[test]
    fn run_respects_deadline_without_sleeping_past_it() {
        let mut now = SimTime::ZERO;
        let deadline = Deadline::after(now, SimDuration::from_millis(150));
        let out = fail(&mut Backoff::new(1), MAX_RETRIES + 1, deadline, &mut now);
        assert_eq!(out, Some(RetryError::DeadlineExceeded));
        // The clock never crossed the deadline.
        assert!(now.as_nanos() <= deadline.expires_at().as_nanos());
    }
}

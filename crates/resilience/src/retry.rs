//! Budget-aware retry with deterministic backoff.
//!
//! Every retry in the system goes through one policy so behavior under
//! failure is uniform and replayable: exponential backoff, jitter drawn
//! from a *seeded* hash of `(seed, operation key, attempt)` — two runs
//! of the same experiment produce the same retry schedule — and a hard
//! rule that a retry is never scheduled past the operation's
//! [`Deadline`].

use crate::deadline::Deadline;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_obs::{mix, SpanScope};

/// Backoff and attempt limits for one class of operation.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Multiplier applied per attempt (>= 1).
    pub factor: f64,
    /// Cap on any single delay.
    pub max_delay: SimDuration,
    /// Maximum retry attempts after the initial try.
    pub max_retries: u32,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 - jitter, 1]`.
    pub jitter: f64,
    /// Seed diversifying the jitter stream per deployment.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: SimDuration::from_millis(50),
            factor: 2.0,
            max_delay: SimDuration::from_secs(5),
            max_retries: 3,
            jitter: 0.25,
            seed: 0,
        }
    }
}

/// Why a retried operation gave up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RetryError<E> {
    /// Every allowed attempt failed; the last error is attached.
    Exhausted(E),
    /// The deadline expired (or the next backoff would cross it).
    DeadlineExceeded(E),
}

impl<E> RetryError<E> {
    /// The underlying last error, whichever way the retry gave up.
    pub fn into_inner(self) -> E {
        match self {
            RetryError::Exhausted(e) | RetryError::DeadlineExceeded(e) => e,
        }
    }
}

impl RetryPolicy {
    /// The pre-jitter backoff envelope before retry `attempt`
    /// (attempt 0 is the first retry). Monotone non-decreasing in
    /// `attempt`, capped at `max_delay`.
    pub fn envelope(&self, attempt: u32) -> SimDuration {
        let factor = self.factor.max(1.0);
        let ns = self.base.as_nanos() as f64 * factor.powi(attempt.min(63) as i32);
        let capped = ns.min(self.max_delay.as_nanos() as f64);
        SimDuration::from_nanos(capped as u64)
    }

    /// The jittered delay before retry `attempt` of the operation
    /// identified by `key`. Deterministic in `(seed, key, attempt)`;
    /// always within `[envelope * (1 - jitter), envelope]`, so it never
    /// exceeds the monotone envelope.
    pub fn delay(&self, key: u64, attempt: u32) -> SimDuration {
        let env = self.envelope(attempt).as_nanos();
        let jitter = self.jitter.clamp(0.0, 1.0);
        if env == 0 || jitter == 0.0 {
            return SimDuration::from_nanos(env);
        }
        let h = mix(self.seed ^ mix(key) ^ (attempt as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let scale = 1.0 - jitter * unit;
        SimDuration::from_nanos((env as f64 * scale) as u64)
    }

    /// Runs `op` under this policy and `deadline`, advancing `*now` by
    /// each backoff pause (simulated sleep) and recording each pause as
    /// a `"retry"` child span under `scope` — the time a request spends
    /// *waiting to retry* is visible to critical-path attribution
    /// instead of vanishing into the gap between attempt spans (pass
    /// [`SpanScope::none`] for no trace; a null scope costs one branch
    /// per pause). `op` receives the attempt index (0 = first try) and
    /// the current simulated time.
    ///
    /// Gives up when the retry budget is exhausted, or — *before*
    /// wasting a sleep — when the next backoff would cross the
    /// deadline. The caller's clock is left where the operation ended,
    /// so nested calls naturally consume the same budget.
    ///
    /// # Errors
    ///
    /// The last error of `op`, wrapped by how the retry gave up.
    pub fn run<T, E>(
        &self,
        key: u64,
        deadline: Deadline,
        now: &mut SimTime,
        scope: &SpanScope,
        mut op: impl FnMut(u32, SimTime) -> Result<T, E>,
    ) -> Result<T, RetryError<E>> {
        let m = hpop_obs::metrics();
        // The first attempt always runs, even on a dead budget, so
        // callers can distinguish "slow" from "impossible"; only the
        // pauses between retries are deadline-gated.
        let mut attempt = 0;
        loop {
            let e = match op(attempt, *now) {
                Ok(v) => {
                    if attempt > 0 {
                        m.counter("resilience.retry.recovered").incr();
                    }
                    return Ok(v);
                }
                Err(e) => e,
            };
            m.counter("resilience.retry.failure").incr();
            if attempt >= self.max_retries {
                m.counter("resilience.retry.exhausted").incr();
                return Err(RetryError::Exhausted(e));
            }
            let pause = self.delay(key, attempt);
            if !deadline.allows_wait(*now, pause) {
                m.counter("resilience.retry.deadline").incr();
                return Err(RetryError::DeadlineExceeded(e));
            }
            let pause_start_us = now.as_nanos() / 1_000;
            *now += pause;
            scope.record(
                "resilience",
                "retry",
                pause_start_us,
                now.as_nanos() / 1_000,
            );
            m.counter("resilience.retry.attempts").incr();
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            base: SimDuration::from_millis(100),
            factor: 2.0,
            max_delay: SimDuration::from_secs(2),
            max_retries: 4,
            jitter: 0.5,
            seed: 7,
        }
    }

    #[test]
    fn envelope_is_monotone_and_capped() {
        let p = policy();
        let mut prev = SimDuration::ZERO;
        for a in 0..20 {
            let e = p.envelope(a);
            assert!(e >= prev, "attempt {a}");
            assert!(e <= p.max_delay);
            prev = e;
        }
        assert_eq!(p.envelope(0), SimDuration::from_millis(100));
        assert_eq!(p.envelope(10), p.max_delay);
    }

    #[test]
    fn delay_is_deterministic_and_within_envelope() {
        let p = policy();
        for key in [0u64, 1, 99] {
            for a in 0..6 {
                let d1 = p.delay(key, a);
                let d2 = p.delay(key, a);
                assert_eq!(d1, d2);
                assert!(d1 <= p.envelope(a));
                let floor = p.envelope(a).as_nanos() as f64 * 0.5;
                assert!(d1.as_nanos() as f64 >= floor - 1.0);
            }
        }
        // Different keys give different jitter (decorrelated retries).
        assert_ne!(p.delay(1, 2), p.delay(2, 2));
    }

    #[test]
    fn run_recovers_after_failures() {
        let p = policy();
        let mut now = SimTime::ZERO;
        let out = p.run(
            1,
            Deadline::UNBOUNDED,
            &mut now,
            &SpanScope::none(),
            |attempt, _| {
                if attempt < 2 {
                    Err("down")
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(out, Ok(2)); // the third attempt
                                // The clock advanced by exactly the two pauses taken.
        assert_eq!(now.since(SimTime::ZERO), p.delay(1, 0) + p.delay(1, 1));
    }

    #[test]
    fn run_exhausts_after_max_retries() {
        let mut now = SimTime::ZERO;
        let mut attempts = 0;
        let out: Result<(), _> = policy().run(
            1,
            Deadline::UNBOUNDED,
            &mut now,
            &SpanScope::none(),
            |_, _| {
                attempts += 1;
                Err("down")
            },
        );
        assert_eq!(out, Err(RetryError::Exhausted("down")));
        assert_eq!(attempts, 5); // 1 try + 4 retries
    }

    #[test]
    fn run_respects_deadline_without_sleeping_past_it() {
        let mut now = SimTime::ZERO;
        let deadline = Deadline::after(now, SimDuration::from_millis(150));
        let out: Result<(), _> = policy().run(1, deadline, &mut now, &SpanScope::none(), |_, _| {
            Err("down")
        });
        assert!(matches!(out, Err(RetryError::DeadlineExceeded(_))));
        // The clock never crossed the deadline.
        assert!(!deadline.expired(now) || deadline.remaining(now) == SimDuration::ZERO);
        assert!(now.as_nanos() <= deadline.expires_at().as_nanos());
    }

    #[test]
    fn run_spanned_records_each_backoff_pause() {
        let tracer = hpop_obs::SpanTracer::new(64);
        tracer.enable();
        let root = tracer.root();
        let scope = SpanScope::new(tracer.clone(), root);
        let mut now = SimTime::ZERO;
        let out = policy().run(9, Deadline::UNBOUNDED, &mut now, &scope, |attempt, _| {
            if attempt < 2 {
                Err("down")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(2));
        let spans = tracer.recent();
        assert_eq!(spans.len(), 2, "{spans:?}"); // two pauses before success
        let mut pause_total = 0u64;
        for s in &spans {
            assert_eq!(s.stage, "retry");
            assert_eq!(s.parent_span_id, root.span_id);
            pause_total += s.duration_us();
        }
        assert_eq!(pause_total, now.as_nanos() / 1_000);
        // The null scope records nothing.
        let mut now2 = SimTime::ZERO;
        let _ = policy().run(
            9,
            Deadline::UNBOUNDED,
            &mut now2,
            &SpanScope::none(),
            |a, _| {
                if a < 2 {
                    Err("down")
                } else {
                    Ok(a)
                }
            },
        );
        assert_eq!(tracer.recent().len(), 2);
    }

    #[test]
    fn first_attempt_always_runs_even_with_dead_budget() {
        let mut now = SimTime::from_secs(100);
        let deadline = Deadline::after(SimTime::ZERO, SimDuration::from_secs(1));
        let mut attempts = 0;
        let out = policy().run(1, deadline, &mut now, &SpanScope::none(), |_, _| {
            attempts += 1;
            Ok::<_, ()>(42)
        });
        assert_eq!(out, Ok(42));
        assert_eq!(attempts, 1);
    }
}

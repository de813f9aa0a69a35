//! Property-based tests of the resilience layer's guarantees.
//!
//! 1. **Backoff sanity**: for every key, each jittered delay up to
//!    `MAX_RETRIES` stays within `[envelope·(1−JITTER), envelope]`, the
//!    envelope itself never decreases nor exceeds `MAX_DELAY`, and a
//!    retried run never advances the clock past its deadline
//!    (budget-respecting).
//! 2. **Breaker liveness**: a circuit breaker never stays open
//!    forever when the peer recovers — whatever the failure history,
//!    exactly `OPEN_FOR` after its last recorded failure it half-opens,
//!    admits a probe, and a successful probe closes it.
//! 3. **Admission token conservation**: however requests and time are
//!    interleaved, a token bucket never admits more than
//!    `burst + rate * elapsed` requests, and its token count stays in
//!    `[0, capacity]`.
//! 4. **Admission liveness (no deadlock)**: after any sequence of
//!    admits/completes, draining the inflight permits and advancing
//!    the clock always re-admits — no state is reachable from which
//!    the controller refuses forever.
//! 5. **AIMD convergence**: under a step change in backend capacity,
//!    the limit converges into a band around the true capacity and
//!    stays there.
//! 6. **Shed-order monotonicity**: for every saturation, a saturation
//!    that sheds a protected class also sheds every less-protected
//!    class — background always sheds before interactive.

use crate::admission::{Admission, AdmissionConfig, AimdLimit, TokenBucket};
use crate::breaker::{BreakerState, CircuitBreaker, FAILURE_THRESHOLD, OPEN_FOR};
use crate::deadline::Deadline;
use crate::retry::{self, Backoff, RetryError, JITTER, MAX_DELAY, MAX_RETRIES};
use crate::shed::{LoadShedder, WorkClass};
use hpop_netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// The pre-jitter envelope is monotone non-decreasing and capped at
    /// `MAX_DELAY`; every delay a run can take lies within
    /// `[envelope·(1−JITTER), envelope]`, for every key.
    #[test]
    fn backoff_is_monotone_and_jitter_bounded(key in any::<u64>()) {
        let mut prev = SimDuration::ZERO;
        for attempt in 0..16u32 {
            let env = retry::envelope(attempt);
            prop_assert!(env >= prev, "envelope shrank at attempt {attempt}");
            prop_assert!(env <= MAX_DELAY);
            let jittered = retry::delay(key, attempt);
            prop_assert!(jittered <= env, "jitter exceeded envelope");
            if attempt < MAX_RETRIES {
                let floor = env.as_nanos() as f64 * (1.0 - JITTER);
                prop_assert!(jittered.as_nanos() as f64 >= floor - 1.0, "jitter under the floor");
            }
            // Jitter is deterministic: same inputs, same delay.
            prop_assert_eq!(jittered, retry::delay(key, attempt));
            prev = env;
        }
    }

    /// A failing retried operation never advances the clock past its
    /// deadline: every pause is checked before it is taken.
    #[test]
    fn retry_run_respects_budget(
        key in any::<u64>(),
        start_s in 0u64..1_000,
        budget_ms in 0u64..60_000,
    ) {
        let start = SimTime::from_secs(start_s);
        let mut now = start;
        let deadline = Deadline::after(start, SimDuration::from_millis(budget_ms));
        let mut backoff = Backoff::new(key);
        let mut attempts = 1u32;
        let out = loop {
            match backoff.failed(deadline, now) {
                Ok(pause) => now += pause,
                Err(e) => break e,
            }
            attempts += 1;
            prop_assert!(attempts <= MAX_RETRIES + 1, "attempt {attempts} past the retry cap");
        };
        prop_assert!(
            now.as_nanos() <= deadline.expires_at().as_nanos(),
            "clock {now:?} crossed deadline {:?}", deadline.expires_at()
        );
        // The clock advanced by exactly the pauses between attempts.
        let waited = (0..attempts - 1).fold(SimDuration::ZERO, |w, a| w + retry::delay(key, a));
        prop_assert_eq!(now.since(start), waited, "clock advance must equal the backoff taken");
        if out == RetryError::Exhausted {
            prop_assert_eq!(attempts, MAX_RETRIES + 1);
        }
    }

    /// However the breaker got opened (any failure pattern), once the
    /// peer recovers it half-opens exactly `OPEN_FOR` after the last
    /// failure it recorded, admits a probe, and closes on probe success
    /// — no peer is locked out forever.
    #[test]
    fn breaker_always_half_opens_after_recovery(
        failures in 1usize..=40,
        fail_gap_s in 1u64..=40,
    ) {
        let mut b = CircuitBreaker::default();
        let mut now = SimTime::ZERO;
        let mut last_failure = SimTime::ZERO;
        for _ in 0..failures {
            if b.allow(now) {
                b.record_failure(now);
                last_failure = now;
            }
            now += SimDuration::from_secs(fail_gap_s);
        }
        // The peer recovers. A circuit the failure run opened stays
        // hard-open until the cooldown from its last failure is over.
        let probe_at = last_failure + OPEN_FOR;
        if b.consecutive_failures() >= FAILURE_THRESHOLD {
            let just_before = last_failure + (OPEN_FOR - SimDuration::from_nanos(1));
            prop_assert_eq!(b.state(just_before), BreakerState::Open);
        }
        let state = b.state(probe_at);
        prop_assert!(
            state == BreakerState::Closed || state == BreakerState::HalfOpen,
            "breaker still hard-open after cooldown: {state:?}"
        );
        prop_assert!(b.allow(probe_at), "recovered peer denied its probe");
        b.record_success(probe_at);
        prop_assert_eq!(b.state(probe_at), BreakerState::Closed);
        prop_assert!(b.allow(probe_at), "closed breaker must admit traffic");
    }

    /// Token conservation: for any interleaving of takes and waits,
    /// total admits never exceed the burst allowance plus what the
    /// refill rate could have minted over the elapsed time, and the
    /// bucket's token count stays within `[0, capacity]`.
    #[test]
    fn token_bucket_conserves_tokens(
        capacity in 1u32..=50,
        rate_x10 in 1u32..=500, // 0.1 .. 50 tokens/s
        steps in proptest::collection::vec((0u64..=2_000, 1u8..=5), 1..60),
    ) {
        let capacity = capacity as f64;
        let rate = rate_x10 as f64 / 10.0;
        let start = SimTime::from_secs(5);
        let mut bucket = TokenBucket::new(capacity, rate, start);
        let mut now = start;
        let mut admitted = 0u64;
        for (advance_ms, takes) in steps {
            now += SimDuration::from_millis(advance_ms);
            for _ in 0..takes {
                let avail = bucket.available(now);
                prop_assert!((0.0..=capacity + 1e-9).contains(&avail));
                if bucket.try_take(now, 1.0).is_ok() {
                    admitted += 1;
                } else {
                    // A refusal carries a finite, honest ETA when the
                    // refill rate is nonzero.
                    let err = bucket.try_take(now, 1.0).unwrap_err();
                    prop_assert!(err.retry_after > SimDuration::ZERO);
                }
            }
            let elapsed = now.since(start).as_secs_f64();
            let ceiling = capacity + rate * elapsed;
            prop_assert!(
                (admitted as f64) <= ceiling + 1e-6,
                "admitted {admitted} > burst+minted {ceiling}"
            );
        }
    }

    /// No deadlock: from any reachable controller state, returning the
    /// held permits and waiting out the bucket always re-admits.
    #[test]
    fn admission_never_deadlocks(
        burst in 1u32..=20,
        rate_x10 in 1u32..=200,
        limit in 1u32..=16,
        ops in proptest::collection::vec((0u64..=500, any::<bool>(), any::<bool>()), 1..80),
    ) {
        let cfg = AdmissionConfig {
            rate_per_sec: rate_x10 as f64 / 10.0,
            burst: burst as f64,
            initial_limit: limit as f64,
            min_limit: 1.0,
            max_limit: 64.0,
        };
        let mut adm = Admission::new(cfg, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut held = 0u32;
        for (advance_ms, try_admit, overloaded) in ops {
            now += SimDuration::from_millis(advance_ms);
            if try_admit {
                if adm.try_admit(now).is_ok() {
                    held += 1;
                }
            } else if held > 0 {
                adm.complete(overloaded);
                held -= 1;
            }
            prop_assert_eq!(adm.aimd().inflight(), held);
        }
        // Drain every held permit (successfully, as a recovered
        // backend would report) and wait out the worst-case refill.
        for _ in 0..held {
            adm.complete(false);
        }
        now += SimDuration::from_secs_f64(cfg.burst / cfg.rate_per_sec + 1.0);
        prop_assert!(
            adm.try_admit(now).is_ok(),
            "drained + refilled controller refused: deadlock"
        );
    }

    /// AIMD convergence under a step change: the backend serves
    /// `cap_before` concurrent requests, then (step change) only
    /// `cap_after`. After enough windows the limit must sit in a band
    /// around the new capacity — above it (still probing) but no more
    /// than one multiplicative backoff plus probe headroom away.
    #[test]
    fn aimd_converges_to_stepped_capacity(
        cap_before in 2u32..=32,
        cap_after in 1u32..=16,
        windows in 50u32..=150,
    ) {
        let mut a = AimdLimit::new(cap_before as f64, 1.0, 256.0);
        // One "window": acquire as much as the limit grants, then
        // complete each permit — overloaded iff it exceeded capacity.
        let window = |a: &mut AimdLimit, capacity: u32| {
            let mut granted = 0u32;
            while a.try_acquire() {
                granted += 1;
            }
            for i in 0..granted {
                a.release(i >= capacity);
            }
        };
        for _ in 0..windows {
            window(&mut a, cap_before);
        }
        // Step change down (or up — the pair is unordered on purpose).
        for _ in 0..windows {
            window(&mut a, cap_after);
        }
        let cap = cap_after as f64;
        // Upper edge: a limit crossing capacity is halved within one
        // window, so it can never settle above 2*cap (+ the one probe
        // permit additive increase can add before the verdict lands).
        prop_assert!(
            a.limit() <= 2.0 * cap + 2.0,
            "limit {} runaway over capacity {cap}", a.limit()
        );
        // Lower edge: successes below capacity always grow the limit,
        // so it cannot settle below half of what the backend serves.
        prop_assert!(
            a.limit() >= (cap * 0.5).min(cap - 0.5).max(1.0) - 1e-9,
            "limit {} collapsed under capacity {cap}", a.limit()
        );
    }

    /// Shed-order monotonicity: whatever the measured saturation,
    /// shedding a more-protected class implies every less-protected
    /// class is shed too. In particular interactive work is never shed
    /// while any background class is kept.
    #[test]
    fn shed_order_is_monotone(saturation in 0.0f64..=1.5) {
        let s = LoadShedder::default();
        // ALL is ordered most-protected first; walk adjacent pairs.
        for pair in WorkClass::ALL.windows(2) {
            let (stronger, weaker) = (pair[0], pair[1]);
            if s.would_shed(stronger, saturation) {
                prop_assert!(
                    s.would_shed(weaker, saturation),
                    "{stronger} shed at {saturation} while {weaker} kept"
                );
            }
        }
        if s.would_shed(WorkClass::Interactive, saturation) {
            for bg in [WorkClass::Prefetch, WorkClass::Repair, WorkClass::AntiEntropy] {
                prop_assert!(s.would_shed(bg, saturation));
            }
        }
    }
}

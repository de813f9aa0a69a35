//! Tail-latency hedging.
//!
//! §IV-B's chunked multi-peer downloads put object delivery at the
//! mercy of the *slowest* peer touched. A [`Hedge`] watches observed
//! fetch latencies and, once a request has been outstanding longer
//! than the p99-informed [trigger](Hedge::trigger), tells the caller to
//! launch a second copy of the request against a different peer —
//! whichever answer arrives first wins and the loser's bytes are
//! accounted as waste (`resilience.hedge.wasted_bytes`), the metric E20
//! budgets.
//!
//! **Overload gate.** Hedging is a load *amplifier*: every fired hedge
//! is a second full request, and under a flash crowd slow responses
//! are caused by saturation — exactly when a doubled request makes
//! things worse. The caller therefore asks [`Hedge::allow_fire`] with
//! the saturation it measures itself (breaker trips, admission
//! pressure); at or above `SATURATION_GATE` the hedge stands down and
//! the suppression is counted under `resilience.hedge.suppressed`.

use hpop_netsim::time::SimDuration;
use std::collections::VecDeque;

/// Trigger quantile on the observed latency distribution: hedge once
/// a request outlives the p99.
const QUANTILE: f64 = 0.99;
/// Trigger floor: never hedge earlier than this.
const MIN_TRIGGER: SimDuration = SimDuration::from_millis(20);
/// Trigger used until enough samples exist.
const COLD_TRIGGER: SimDuration = SimDuration::from_millis(500);
/// Samples needed before the measured quantile is trusted.
const MIN_SAMPLES: usize = 32;
/// Saturation at or above which hedging is suppressed.
const SATURATION_GATE: f64 = 0.7;
/// Samples kept: the most recent, so a hedge that lives as long as its
/// daemon holds a bounded window. No committed run records this many.
const MAX_SAMPLES: usize = 16_384;

/// What [`Hedge::new`] takes. The hedge has no tuning left: every knob
/// above is a constant. Kept, field-less, because the benchmark's micro
/// pass names it; [`Hedge::default`] is the constructor to use.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct HedgeConfig;

/// Observed-latency tracker with a p99-informed hedge trigger.
#[derive(Clone, Debug, Default)]
pub struct Hedge {
    /// The retained completed-fetch latencies in nanoseconds, sorted.
    samples_ns: Vec<u64>,
    /// The same samples in the order recorded, oldest first.
    arrivals: VecDeque<u64>,
}

impl Hedge {
    /// [`Hedge::default`]: a cold hedge.
    #[doc(hidden)]
    pub fn new(_: HedgeConfig) -> Hedge {
        Hedge::default()
    }

    /// Gate check at fire time: may a hedge launch given the caller's
    /// locally measured `saturation` (e.g. its breaker-bank or
    /// admission saturation)? Suppressions are counted under
    /// `resilience.hedge.suppressed`.
    pub fn allow_fire(&self, saturation: f64) -> bool {
        if saturation >= SATURATION_GATE {
            hpop_obs::metrics()
                .counter("resilience.hedge.suppressed")
                .incr();
            false
        } else {
            true
        }
    }

    /// Records one completed fetch's latency, first evicting the oldest
    /// sample when `MAX_SAMPLES` are kept.
    pub fn record(&mut self, latency: SimDuration) {
        if self.arrivals.len() == MAX_SAMPLES {
            let oldest = self.arrivals.pop_front().expect("at the cap");
            let at = self.samples_ns.partition_point(|&s| s < oldest);
            self.samples_ns.remove(at);
        }
        let ns = latency.as_nanos();
        self.arrivals.push_back(ns);
        let at = self.samples_ns.partition_point(|&s| s <= ns);
        self.samples_ns.insert(at, ns);
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> usize {
        self.samples_ns.len()
    }

    /// The current hedge trigger: the p99 of observed latencies once
    /// `MIN_SAMPLES` exist, `COLD_TRIGGER` before that, never below
    /// `MIN_TRIGGER`.
    pub fn trigger(&self) -> SimDuration {
        if self.samples_ns.len() < MIN_SAMPLES {
            return COLD_TRIGGER;
        }
        let idx = ((self.samples_ns.len() - 1) as f64 * QUANTILE).round() as usize;
        SimDuration::from_nanos(self.samples_ns[idx]).max(MIN_TRIGGER)
    }

    /// Accounts a fired hedge whose loser transferred `wasted_bytes`.
    pub fn account_fired(&self, wasted_bytes: u64) {
        let m = hpop_obs::metrics();
        m.counter("resilience.hedge.fired").incr();
        m.counter("resilience.hedge.wasted_bytes").add(wasted_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn cold_hedge_uses_cold_trigger() {
        let mut h = Hedge::default();
        assert_eq!(h.trigger(), COLD_TRIGGER);
        // Still cold one sample short of `MIN_SAMPLES`.
        for _ in 1..MIN_SAMPLES {
            h.record(ms(30));
        }
        assert_eq!(h.trigger(), COLD_TRIGGER);
        h.record(ms(30));
        assert_eq!(h.trigger(), ms(30));
    }

    #[test]
    fn warm_trigger_tracks_p99() {
        let mut h = Hedge::default();
        // 99 fast fetches, one slow straggler.
        for _ in 0..99 {
            h.record(ms(30));
        }
        h.record(ms(400));
        // One straggler in a hundred sits above the p99 rank…
        assert_eq!(h.trigger(), ms(30));
        // …a second one lands on it.
        h.record(ms(400));
        assert_eq!(h.trigger(), ms(400));
    }

    #[test]
    fn min_trigger_floors_fast_distributions() {
        let mut h = Hedge::default();
        for _ in 0..50 {
            h.record(SimDuration::from_nanos(10));
        }
        assert_eq!(h.trigger(), MIN_TRIGGER);
    }

    #[test]
    fn saturation_gate_suppresses_hedging() {
        let h = Hedge::default();
        assert!(h.allow_fire(0.0), "idle system hedges");
        assert!(h.allow_fire(0.69));
        assert!(!h.allow_fire(0.7), "the gate is inclusive");
        assert!(!h.allow_fire(0.9), "saturated: gated");
        assert!(h.allow_fire(0.3), "recovered: hedges");
    }

    #[test]
    fn samples_stop_growing_at_the_cap() {
        let mut h = Hedge::default();
        for v in 0..MAX_SAMPLES as u64 + 10 {
            h.record(ms(v % 100));
        }
        assert_eq!(h.samples(), MAX_SAMPLES);
        assert_eq!(h.arrivals.len(), MAX_SAMPLES);
    }

    #[test]
    fn trigger_after_eviction_reads_only_retained_samples() {
        let mut h = Hedge::default();
        // A full window of slow fetches…
        for _ in 0..MAX_SAMPLES {
            h.record(ms(400));
        }
        assert_eq!(h.trigger(), ms(400));
        // …pushed out by fast ones: once fewer than 1 % of the retained
        // samples are slow, the p99 is fast.
        for _ in 0..MAX_SAMPLES - MAX_SAMPLES / 200 {
            h.record(ms(30));
        }
        assert_eq!(h.trigger(), ms(30));
        // With every slow sample evicted, only fast ones remain.
        for _ in 0..MAX_SAMPLES / 200 {
            h.record(ms(30));
        }
        assert!(h.samples_ns.iter().all(|&s| s == ms(30).as_nanos()));
    }

    #[test]
    fn samples_stay_sorted() {
        let mut h = Hedge::default();
        for v in [30u64, 10, 20, 40, 15] {
            h.record(ms(v));
        }
        assert_eq!(h.samples(), 5);
        let sorted: Vec<u64> = h.samples_ns.clone();
        let mut expect = sorted.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }
}

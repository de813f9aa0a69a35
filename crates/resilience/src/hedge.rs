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
//! pressure); at or above `saturation_gate` the hedge stands down and
//! the suppression is counted under `resilience.hedge.suppressed`.

use hpop_netsim::time::SimDuration;

/// Hedge tuning.
#[derive(Clone, Copy, Debug)]
pub struct HedgeConfig {
    /// Trigger quantile on the observed latency distribution (0.99 =
    /// fire when the request outlives the p99).
    pub quantile: f64,
    /// Trigger floor: never hedge earlier than this.
    pub min_trigger: SimDuration,
    /// Trigger used until enough samples exist.
    pub cold_trigger: SimDuration,
    /// Samples needed before the measured quantile is trusted.
    pub min_samples: usize,
    /// Saturation at or above which hedging is suppressed.
    pub saturation_gate: f64,
}

impl Default for HedgeConfig {
    fn default() -> HedgeConfig {
        HedgeConfig {
            quantile: 0.99,
            min_trigger: SimDuration::from_millis(20),
            cold_trigger: SimDuration::from_millis(500),
            min_samples: 32,
            saturation_gate: 0.7,
        }
    }
}

/// Observed-latency tracker with a p99-informed hedge trigger.
#[derive(Clone, Debug)]
pub struct Hedge {
    cfg: HedgeConfig,
    /// Completed-fetch latencies in nanoseconds (kept sorted).
    samples_ns: Vec<u64>,
}

impl Hedge {
    /// A cold hedge (uses `cold_trigger` until warmed up).
    pub fn new(cfg: HedgeConfig) -> Hedge {
        Hedge {
            cfg,
            samples_ns: Vec::new(),
        }
    }

    /// Gate check at fire time: may a hedge launch given the caller's
    /// locally measured `saturation` (e.g. its breaker-bank or
    /// admission saturation)? Suppressions are counted under
    /// `resilience.hedge.suppressed`.
    pub fn allow_fire(&self, saturation: f64) -> bool {
        if saturation >= self.cfg.saturation_gate {
            hpop_obs::metrics()
                .counter("resilience.hedge.suppressed")
                .incr();
            false
        } else {
            true
        }
    }

    /// Records one completed fetch's latency.
    pub fn record(&mut self, latency: SimDuration) {
        let ns = latency.as_nanos();
        let at = self.samples_ns.partition_point(|&s| s <= ns);
        self.samples_ns.insert(at, ns);
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> usize {
        self.samples_ns.len()
    }

    /// The current hedge trigger: the configured quantile of observed
    /// latencies once warm, `cold_trigger` before that, never below
    /// `min_trigger`.
    pub fn trigger(&self) -> SimDuration {
        if self.samples_ns.len() < self.cfg.min_samples.max(1) {
            return self.cfg.cold_trigger.max(self.cfg.min_trigger);
        }
        let q = self.cfg.quantile.clamp(0.0, 1.0);
        let idx = ((self.samples_ns.len() - 1) as f64 * q).round() as usize;
        SimDuration::from_nanos(self.samples_ns[idx]).max(self.cfg.min_trigger)
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

    fn cfg() -> HedgeConfig {
        HedgeConfig {
            quantile: 0.99,
            min_trigger: ms(5),
            cold_trigger: ms(200),
            min_samples: 10,
            saturation_gate: 0.7,
        }
    }

    #[test]
    fn cold_hedge_uses_cold_trigger() {
        let mut h = Hedge::new(cfg());
        assert_eq!(h.trigger(), ms(200));
        // Still cold one sample short of `min_samples`.
        for _ in 0..9 {
            h.record(ms(10));
        }
        assert_eq!(h.trigger(), ms(200));
        h.record(ms(10));
        assert_eq!(h.trigger(), ms(10));
    }

    #[test]
    fn warm_trigger_tracks_p99() {
        let mut h = Hedge::new(cfg());
        // 99 fast fetches, one slow straggler.
        for _ in 0..99 {
            h.record(ms(10));
        }
        h.record(ms(400));
        // One straggler in a hundred sits above the p99 rank…
        assert_eq!(h.trigger(), ms(10));
        // …a second one lands on it.
        h.record(ms(400));
        assert_eq!(h.trigger(), ms(400));
    }

    #[test]
    fn min_trigger_floors_fast_distributions() {
        let mut h = Hedge::new(cfg());
        for _ in 0..50 {
            h.record(SimDuration::from_nanos(10));
        }
        assert_eq!(h.trigger(), ms(5));
    }

    #[test]
    fn saturation_gate_suppresses_hedging() {
        let h = Hedge::new(HedgeConfig {
            saturation_gate: 0.7,
            ..cfg()
        });
        assert!(h.allow_fire(0.0), "idle system hedges");
        assert!(h.allow_fire(0.69));
        assert!(!h.allow_fire(0.7), "the gate is inclusive");
        assert!(!h.allow_fire(0.9), "saturated: gated");
        assert!(h.allow_fire(0.3), "recovered: hedges");
    }

    #[test]
    fn samples_stay_sorted() {
        let mut h = Hedge::new(cfg());
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

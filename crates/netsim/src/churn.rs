//! Deterministic peer-churn model.
//!
//! Home appliances are not data-center servers: they reboot, lose
//! power, get unplugged for a move. Every peer-assisted HPoP service
//! must survive that, so the simulator models churn as **seeded on/off
//! renewal processes per node**: a configurable fraction of nodes
//! (*churners*) alternate exponentially-distributed up-sessions and
//! down-times; the rest stay up. The whole schedule is materialized at
//! construction from one seed and a horizon, so a run is a pure
//! function of `(config, n, horizon)` — identical on every platform,
//! replayable from the `BENCH_*.json` seed.
//!
//! The canonical preset ([`ChurnConfig::paper_preset`]) cycles 25% of
//! the peers with a mean session of 10 simulated minutes — the regime
//! the `exp fabric_churn` acceptance numbers are quoted under.

use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the churn process.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Fraction of nodes that cycle on/off (the rest never fail).
    pub churn_fraction: f64,
    /// Mean length of a churner's up-session.
    pub mean_session: SimDuration,
    /// Mean length of a churner's downtime between sessions.
    pub mean_downtime: SimDuration,
    /// Seed for the schedule.
    pub seed: u64,
}

impl ChurnConfig {
    /// The canonical experiment preset: 25% of peers cycling with a
    /// mean session of 10 sim-minutes and mean downtime of 2.
    pub fn paper_preset(seed: u64) -> ChurnConfig {
        ChurnConfig {
            churn_fraction: 0.25,
            mean_session: SimDuration::from_secs(600),
            mean_downtime: SimDuration::from_secs(120),
            seed,
        }
    }
}

/// One liveness transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChurnEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// Which node flips.
    pub node: usize,
    /// The node's liveness after the transition.
    pub up: bool,
}

/// A fully materialized churn schedule over `n` nodes up to a horizon.
#[derive(Clone, Debug)]
pub struct ChurnSchedule {
    /// Per node: sorted toggle instants. Every node starts up; the
    /// k-th toggle flips it (odd count so far ⇒ down).
    toggles: Vec<Vec<SimTime>>,
    horizon: SimTime,
    churners: usize,
}

/// Draws an exponential duration with the given mean (inverse-CDF).
fn exponential(rng: &mut StdRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen();
    // 1 - u is in (0, 1]; ln of it is finite and non-positive.
    SimDuration::from_secs_f64(-mean.as_secs_f64() * (1.0 - u).ln())
}

impl ChurnSchedule {
    /// Generates the schedule for `n` nodes up to `horizon`.
    ///
    /// Which nodes churn is itself seeded: each node churns with
    /// probability `churn_fraction`, drawn from a node-indexed stream
    /// so that adding nodes never reshuffles earlier ones.
    ///
    /// # Panics
    ///
    /// Panics if `churn_fraction` is outside `[0, 1]` or a mean
    /// duration is zero while churners exist.
    pub fn generate(n: usize, cfg: ChurnConfig, horizon: SimTime) -> ChurnSchedule {
        assert!(
            (0.0..=1.0).contains(&cfg.churn_fraction),
            "churn fraction out of range: {}",
            cfg.churn_fraction
        );
        let mut toggles = Vec::with_capacity(n);
        let mut churners = 0;
        for node in 0..n {
            let mut rng =
                StdRng::seed_from_u64(cfg.seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let is_churner = rng.gen::<f64>() < cfg.churn_fraction;
            let mut t = Vec::new();
            if is_churner {
                assert!(
                    !cfg.mean_session.is_zero() && !cfg.mean_downtime.is_zero(),
                    "churners need positive mean durations"
                );
                churners += 1;
                let mut at = SimTime::ZERO;
                let mut up = true;
                loop {
                    let dur = if up {
                        exponential(&mut rng, cfg.mean_session)
                    } else {
                        exponential(&mut rng, cfg.mean_downtime)
                    };
                    at += dur;
                    if at >= horizon {
                        break;
                    }
                    t.push(at);
                    up = !up;
                }
            }
            toggles.push(t);
        }
        ChurnSchedule {
            toggles,
            horizon,
            churners,
        }
    }

    /// Number of nodes in the schedule.
    pub fn len(&self) -> usize {
        self.toggles.len()
    }

    /// True for a schedule over zero nodes.
    pub fn is_empty(&self) -> bool {
        self.toggles.is_empty()
    }

    /// How many nodes cycle (the rest are always up).
    pub fn churner_count(&self) -> usize {
        self.churners
    }

    /// The horizon the schedule was generated to.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Ground-truth liveness of `node` at `t` (every node starts up).
    pub fn is_up(&self, node: usize, t: SimTime) -> bool {
        let flips = self.toggles[node].partition_point(|&at| at <= t);
        flips % 2 == 0
    }

    /// All transitions in `(from, to]`, globally time-ordered (ties
    /// break by node index).
    pub fn transitions_in(&self, from: SimTime, to: SimTime) -> Vec<ChurnEvent> {
        let mut out = Vec::new();
        self.transitions_into(from, to, &mut out);
        out
    }

    /// Allocation-free variant of [`transitions_in`]: clears `out` and
    /// fills it with the transitions in `(from, to]`. Lets per-tick
    /// driver loops reuse one buffer instead of allocating a fresh
    /// `Vec` every simulated second.
    ///
    /// [`transitions_in`]: ChurnSchedule::transitions_in
    pub fn transitions_into(&self, from: SimTime, to: SimTime, out: &mut Vec<ChurnEvent>) {
        out.clear();
        for (node, t) in self.toggles.iter().enumerate() {
            let lo = t.partition_point(|&at| at <= from);
            let hi = t.partition_point(|&at| at <= to);
            for (k, &at) in t[lo..hi].iter().enumerate() {
                out.push(ChurnEvent {
                    at,
                    node,
                    up: (lo + k) % 2 == 1, // odd toggle index ⇒ back up
                });
            }
        }
        out.sort_by(|a, b| a.at.cmp(&b.at).then(a.node.cmp(&b.node)));
    }

    /// Fraction of `[0, until]` that `node` was up.
    pub fn uptime_fraction(&self, node: usize, until: SimTime) -> f64 {
        if until == SimTime::ZERO {
            return 1.0;
        }
        let mut up = true;
        let mut last = SimTime::ZERO;
        let mut up_total = SimDuration::ZERO;
        for &at in &self.toggles[node] {
            if at > until {
                break;
            }
            if up {
                up_total += at.saturating_since(last);
            }
            last = at;
            up = !up;
        }
        if up {
            up_total += until.saturating_since(last);
        }
        up_total.as_secs_f64() / until.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minutes(m: u64) -> SimTime {
        SimTime::from_secs(m * 60)
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = ChurnConfig::paper_preset(7);
        let a = ChurnSchedule::generate(40, cfg, minutes(60));
        let b = ChurnSchedule::generate(40, cfg, minutes(60));
        assert_eq!(a.churner_count(), b.churner_count());
        for node in 0..40 {
            for t in (0..3600).step_by(30) {
                let at = SimTime::from_secs(t);
                assert_eq!(a.is_up(node, at), b.is_up(node, at));
            }
        }
        let c = ChurnSchedule::generate(40, ChurnConfig::paper_preset(8), minutes(60));
        assert_ne!(
            a.transitions_in(SimTime::ZERO, minutes(60)),
            c.transitions_in(SimTime::ZERO, minutes(60))
        );
    }

    #[test]
    fn roughly_a_quarter_churn_under_paper_preset() {
        let s = ChurnSchedule::generate(200, ChurnConfig::paper_preset(3), minutes(60));
        let frac = s.churner_count() as f64 / 200.0;
        assert!((0.15..=0.35).contains(&frac), "churner fraction {frac}");
    }

    #[test]
    fn everyone_starts_up_and_non_churners_stay_up() {
        let s = ChurnSchedule::generate(50, ChurnConfig::paper_preset(5), minutes(60));
        for node in 0..50 {
            assert!(s.is_up(node, SimTime::ZERO));
        }
        let churn_free = ChurnSchedule::generate(
            10,
            ChurnConfig {
                churn_fraction: 0.0,
                ..ChurnConfig::paper_preset(5)
            },
            minutes(60),
        );
        assert_eq!(churn_free.churner_count(), 0);
        for node in 0..10 {
            assert!(churn_free.is_up(node, minutes(59)));
            assert_eq!(churn_free.uptime_fraction(node, minutes(60)), 1.0);
        }
    }

    #[test]
    fn transitions_match_is_up() {
        let s = ChurnSchedule::generate(30, ChurnConfig::paper_preset(11), minutes(30));
        let events = s.transitions_in(SimTime::ZERO, minutes(30));
        assert!(!events.is_empty(), "paper preset should produce churn");
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at, "events must be time-ordered");
        }
        for e in &events {
            assert_eq!(s.is_up(e.node, e.at), e.up, "event {e:?}");
            // Just before the transition the node was in the opposite state.
            let before = SimTime::from_nanos(e.at.as_nanos() - 1);
            assert_eq!(s.is_up(e.node, before), !e.up);
        }
    }

    #[test]
    fn transitions_into_reuses_buffer_and_matches_allocating_path() {
        let s = ChurnSchedule::generate(20, ChurnConfig::paper_preset(7), minutes(20));
        let mut buf = Vec::new();
        for m in 0..20 {
            let (from, to) = (minutes(m), minutes(m + 1));
            s.transitions_into(from, to, &mut buf);
            assert_eq!(buf, s.transitions_in(from, to), "window {m}");
        }
        // A dirty buffer is cleared, not appended to.
        s.transitions_into(SimTime::ZERO, minutes(20), &mut buf);
        let all = buf.len();
        s.transitions_into(SimTime::ZERO, minutes(20), &mut buf);
        assert_eq!(buf.len(), all);
    }

    #[test]
    fn uptime_fraction_matches_session_downtime_ratio() {
        // Mean session 600 s, mean downtime 120 s ⇒ long-run uptime of
        // a churner ≈ 600/720 ≈ 0.83. Averaged over many churners and
        // a long horizon the estimate should be close.
        let cfg = ChurnConfig {
            churn_fraction: 1.0,
            ..ChurnConfig::paper_preset(13)
        };
        let horizon = minutes(600);
        let s = ChurnSchedule::generate(60, cfg, horizon);
        let mean: f64 = (0..60).map(|n| s.uptime_fraction(n, horizon)).sum::<f64>() / 60.0;
        assert!((0.78..=0.88).contains(&mean), "mean uptime {mean}");
    }

    #[test]
    fn uptime_fraction_is_one_at_epoch() {
        let s = ChurnSchedule::generate(2, ChurnConfig::paper_preset(1), minutes(10));
        assert_eq!(s.uptime_fraction(0, SimTime::ZERO), 1.0);
    }

    #[test]
    #[should_panic(expected = "churn fraction out of range")]
    fn bad_fraction_rejected() {
        let _ = ChurnSchedule::generate(
            1,
            ChurnConfig {
                churn_fraction: 1.5,
                ..ChurnConfig::paper_preset(0)
            },
            minutes(1),
        );
    }
}

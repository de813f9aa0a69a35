//! Deterministic peer-churn model.
//!
//! Home appliances are not data-center servers: they reboot, lose
//! power, get unplugged for a move. Every peer-assisted HPoP service
//! must survive that, so the simulator models churn as **seeded on/off
//! renewal processes per node**: a configurable fraction of nodes
//! (*churners*) alternate exponentially-distributed up-sessions and
//! down-times; the rest stay up. [`ChurnConfig`] is a generator of the
//! one adversity plan, [`FaultPlan`]: each downtime becomes a down
//! window, materialized at construction from one seed and a horizon,
//! so a run is a pure function of `(config, n, horizon)` — identical
//! on every platform, replayable from the `BENCH_*.json` seed.
//!
//! The canonical preset ([`ChurnConfig::paper_preset`]) cycles 25% of
//! the peers with a mean session of 10 simulated minutes — the regime
//! the `exp fabric_churn` acceptance numbers are quoted under.

use crate::faults::sealed::Fill;
use crate::faults::{exponential, Episode, FaultPlan, Generator, Window};
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

/// The name `perf/` imports for a churn plan: since churn became a
/// generator of [`FaultPlan`] down windows there is one plan type.
pub type ChurnSchedule = FaultPlan;

impl Generator for ChurnConfig {}

/// Which nodes churn is itself seeded: each node churns with
/// probability `churn_fraction`, drawn from a node-indexed stream so
/// that adding nodes never reshuffles earlier ones. A churner's last
/// down window stays open past the horizon.
impl Fill for ChurnConfig {
    fn fill(&self, n: usize, horizon: SimTime, plan: &mut FaultPlan) {
        assert!(
            (0.0..=1.0).contains(&self.churn_fraction),
            "churn fraction out of range: {}",
            self.churn_fraction
        );
        for node in 0..n {
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            if rng.gen::<f64>() >= self.churn_fraction {
                continue;
            }
            assert!(
                !self.mean_session.is_zero() && !self.mean_downtime.is_zero(),
                "churners need positive mean durations"
            );
            plan.churners += 1;
            let mut at = SimTime::ZERO + exponential(&mut rng, self.mean_session);
            while at < horizon {
                let from = at;
                at += exponential(&mut rng, self.mean_downtime);
                let to = if at < horizon { at } else { SimTime::MAX };
                plan.push(node, Episode::Down, Window { from, to });
                at += exponential(&mut rng, self.mean_session);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;

    fn minutes(m: u64) -> SimTime {
        SimTime::from_secs(m * 60)
    }

    fn edges(s: &FaultPlan, from: SimTime, to: SimTime) -> Vec<ChurnEvent> {
        let mut out = Vec::new();
        s.transitions_into(from, to, &mut out);
        out
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = ChurnConfig::paper_preset(7);
        let a = FaultPlan::generate(40, cfg, minutes(60));
        let b = FaultPlan::generate(40, cfg, minutes(60));
        assert_eq!(a.churner_count(), b.churner_count());
        for node in 0..40 {
            for t in (0..3600).step_by(30) {
                let at = SimTime::from_secs(t);
                assert_eq!(a.is_up(node, at), b.is_up(node, at));
            }
        }
        let c = FaultPlan::generate(40, ChurnConfig::paper_preset(8), minutes(60));
        assert_ne!(
            edges(&a, SimTime::ZERO, minutes(60)),
            edges(&c, SimTime::ZERO, minutes(60))
        );
    }

    #[test]
    fn roughly_a_quarter_churn_under_paper_preset() {
        let s = FaultPlan::generate(200, ChurnConfig::paper_preset(3), minutes(60));
        let frac = s.churner_count() as f64 / 200.0;
        assert!((0.15..=0.35).contains(&frac), "churner fraction {frac}");
    }

    #[test]
    fn everyone_starts_up_and_non_churners_stay_up() {
        let s = FaultPlan::generate(50, ChurnConfig::paper_preset(5), minutes(60));
        for node in 0..50 {
            assert!(s.is_up(node, SimTime::ZERO));
        }
        let churn_free = FaultPlan::generate(
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

    /// Replaying the edges from time zero reproduces `is_up` at every
    /// instant, for a churn plan (whose last down windows run past the
    /// horizon) and for a chaos plan (whose crash windows overlap, and
    /// may end at the horizon).
    #[test]
    fn transitions_match_is_up() {
        let horizon = minutes(30);
        let past = horizon + SimDuration::from_secs(300);
        let crashy = FaultConfig {
            crashes_per_node: 3.0,
            ..FaultConfig::chaos_preset(11)
        };
        let churn = FaultPlan::generate(30, ChurnConfig::paper_preset(11), horizon);
        let chaos = FaultPlan::generate(30, crashy, horizon);
        assert!((0..30).any(|x| !churn.is_up(x, past)), "open down windows");
        for s in [&churn, &chaos] {
            let events = edges(s, SimTime::ZERO, past);
            assert!(!events.is_empty(), "the plan should produce edges");
            for w in events.windows(2) {
                assert!((w[0].at, w[0].node) < (w[1].at, w[1].node), "time-ordered");
            }
            let mut instants: Vec<SimTime> = (0..=past.as_nanos() / 1_000_000_000)
                .map(SimTime::from_secs)
                .collect();
            for e in &events {
                instants.extend([e.at, SimTime::from_nanos(e.at.as_nanos() - 1)]);
            }
            instants.sort();
            let mut up = [true; 30];
            let mut next = events.iter().peekable();
            for t in instants {
                while let Some(e) = next.next_if(|e| e.at <= t) {
                    assert_ne!(up[e.node], e.up, "edges alternate: {e:?}");
                    up[e.node] = e.up;
                }
                for (x, &u) in up.iter().enumerate() {
                    assert_eq!(s.is_up(x, t), u, "node {x} at {t:?}");
                }
            }
        }
        // Three crashes a node, yet some node goes down fewer times:
        // its crash windows overlapped and merged.
        let downs = edges(&chaos, SimTime::ZERO, past);
        assert!((0..30).any(|x| downs.iter().filter(|e| e.node == x && !e.up).count() < 3));
        assert!(downs.iter().any(|e| e.at == horizon && e.up));
    }

    #[test]
    fn transitions_into_reuses_buffer_and_matches_allocating_path() {
        let s = FaultPlan::generate(20, ChurnConfig::paper_preset(7), minutes(20));
        let all = edges(&s, SimTime::ZERO, minutes(20));
        let mut buf = Vec::new();
        let mut joined = Vec::new();
        for m in 0..20 {
            s.transitions_into(minutes(m), minutes(m + 1), &mut buf);
            joined.extend_from_slice(&buf);
        }
        assert_eq!(joined, all, "per-minute windows tile the whole range");
        // A dirty buffer is cleared, not appended to.
        s.transitions_into(SimTime::ZERO, minutes(20), &mut buf);
        s.transitions_into(SimTime::ZERO, minutes(20), &mut buf);
        assert_eq!(buf.len(), all.len());
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
        let s = FaultPlan::generate(60, cfg, horizon);
        let mean: f64 = (0..60).map(|n| s.uptime_fraction(n, horizon)).sum::<f64>() / 60.0;
        assert!((0.78..=0.88).contains(&mean), "mean uptime {mean}");
    }

    #[test]
    fn uptime_fraction_is_one_at_epoch() {
        let s = FaultPlan::generate(2, ChurnConfig::paper_preset(1), minutes(10));
        assert_eq!(s.uptime_fraction(0, SimTime::ZERO), 1.0);
    }

    #[test]
    #[should_panic(expected = "churn fraction out of range")]
    fn bad_fraction_rejected() {
        let _ = FaultPlan::generate(
            1,
            ChurnConfig {
                churn_fraction: 1.5,
                ..ChurnConfig::paper_preset(0)
            },
            minutes(1),
        );
    }
}

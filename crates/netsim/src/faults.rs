//! Deterministic fault injection.
//!
//! Churn ([`crate::churn`]) models the *clean* failure mode: a peer is
//! either up or down. Real residential peers fail uglier — they drop
//! packets, answer at dial-up speeds, serve corrupted bytes, crash and
//! come back with their caches gone, or sit on the wrong side of a
//! partitioned aggregation switch. A [`FaultPlan`] composes all of
//! those as *windows on the same simulated clock the churn schedule
//! uses*, fully materialized at construction from a seed, so a chaos
//! run is a pure function of `(config, n, horizon)` and replays
//! byte-identically.
//!
//! The plan is a passive oracle, like [`ChurnSchedule`]: drivers query
//! it each tick (`peer_mode`, `link_ok`, `loss`, `extra_delay`) and
//! apply the answers to whatever layer they drive — the gossip fabric,
//! a NoCDN fetch loop, an attic repair pass.
//!
//! [`ChurnSchedule`]: crate::churn::ChurnSchedule

use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A half-open window `[from, to)` on the simulation clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Window {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
}

impl Window {
    /// Builds a window; `from` must precede `to`.
    ///
    /// # Panics
    ///
    /// Panics when `from >= to`.
    pub fn new(from: SimTime, to: SimTime) -> Window {
        assert!(from < to, "empty fault window {from:?}..{to:?}");
        Window { from, to }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.to
    }
}

/// What a faulted link does to traffic during its window.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LinkFaultKind {
    /// Independent per-packet loss probability in `[0, 1]`.
    Loss(f64),
    /// Added one-way delay (a congested or flapping segment).
    DelaySpike(SimDuration),
    /// The link passes nothing at all.
    Blackhole,
}

/// One link-level fault episode between an unordered node pair.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LinkFault {
    /// One endpoint (node index).
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// What the link does while faulted.
    pub kind: LinkFaultKind,
    /// When the fault holds.
    pub window: Window,
}

impl LinkFault {
    fn touches(&self, x: usize, y: usize) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }
}

/// What a faulted peer does during its window.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PeerFaultKind {
    /// Crashed: serves nothing. At the window's end the peer restarts;
    /// with `amnesia` it comes back with all soft state (caches,
    /// piggyback queues, detector history) forgotten.
    Crash {
        /// Whether the restart loses all soft state.
        amnesia: bool,
    },
    /// Serves at `rate` of its normal speed (0.01 = the 1%-rate slow
    /// peer of the chaos preset). Responses arrive, eventually.
    Slow {
        /// Fraction of normal service rate, in `(0, 1]`.
        rate: f64,
    },
    /// Serves syntactically valid but corrupted bytes — only hash
    /// verification can catch it.
    Corrupt,
}

/// One peer-level fault episode.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PeerFault {
    /// The faulted node.
    pub node: usize,
    /// What the peer does while faulted.
    pub kind: PeerFaultKind,
    /// When the fault holds.
    pub window: Window,
}

/// A named partition episode: during the window, nodes in different
/// cells cannot reach each other. Nodes absent from every cell form an
/// implicit last cell (the "mainland").
#[derive(Clone, PartialEq, Debug)]
pub struct Partition {
    /// Human-readable episode name (shows up in traces and tables).
    pub name: String,
    /// When the partition holds.
    pub window: Window,
    /// Explicit cells of mutually reachable nodes.
    pub cells: Vec<Vec<usize>>,
}

/// The composite behavior of one peer at one instant, as a fetcher
/// experiences it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PeerMode {
    /// Healthy.
    Ok,
    /// Crashed — no response at all.
    Crashed,
    /// Responding at this fraction of normal rate.
    Slow(f64),
    /// Responding with corrupted bytes.
    Corrupt,
}

/// A peer restart event (end of a crash window).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RestartEvent {
    /// When the peer came back.
    pub at: SimTime,
    /// Which peer restarted.
    pub node: usize,
    /// Whether it lost all soft state.
    pub amnesia: bool,
}

/// Tuning for the seeded chaos generator.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Expected crash episodes per node over the horizon.
    pub crashes_per_node: f64,
    /// Fraction of crash restarts that lose soft state.
    pub amnesia_fraction: f64,
    /// Fraction of nodes that serve one slow episode.
    pub slow_fraction: f64,
    /// Service rate during a slow episode (0.01 = 1%).
    pub slow_rate: f64,
    /// Fraction of nodes that corrupt responses for one episode.
    pub corrupt_fraction: f64,
    /// Expected loss episodes per node (on the node's access link).
    pub loss_episodes_per_node: f64,
    /// Loss probability during a loss episode.
    pub loss_rate: f64,
    /// Expected delay-spike episodes per node.
    pub delay_episodes_per_node: f64,
    /// Added delay during a spike.
    pub delay_spike: SimDuration,
    /// Expected blackhole episodes per node.
    pub blackhole_episodes_per_node: f64,
    /// Number of named partition episodes over the horizon.
    pub partitions: usize,
    /// Mean fault-episode length.
    pub mean_episode: SimDuration,
    /// Seed for the whole plan.
    pub seed: u64,
}

impl FaultConfig {
    /// The combined chaos preset E20 quotes its acceptance numbers
    /// under: every fault class active at once.
    pub fn chaos_preset(seed: u64) -> FaultConfig {
        FaultConfig {
            crashes_per_node: 0.5,
            amnesia_fraction: 0.5,
            slow_fraction: 0.15,
            slow_rate: 0.01,
            corrupt_fraction: 0.10,
            loss_episodes_per_node: 0.5,
            loss_rate: 0.15,
            delay_episodes_per_node: 0.5,
            delay_spike: SimDuration::from_millis(250),
            blackhole_episodes_per_node: 0.25,
            partitions: 2,
            mean_episode: SimDuration::from_secs(120),
            seed,
        }
    }
}

/// A fully materialized fault schedule over `n` nodes up to a horizon.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    link_faults: Vec<LinkFault>,
    peer_faults: Vec<PeerFault>,
    partitions: Vec<Partition>,
    horizon: SimTime,
}

/// Draws an exponential duration with the given mean (inverse-CDF).
fn exponential(rng: &mut StdRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen();
    SimDuration::from_secs_f64(-mean.as_secs_f64() * (1.0 - u).ln())
}

/// Draws a window of mean length `mean` starting uniformly in the
/// horizon, clamped to it.
fn random_window(rng: &mut StdRng, mean: SimDuration, horizon: SimTime) -> Window {
    let start_ns = rng.gen_range(0..horizon.as_nanos().max(1));
    let len = exponential(rng, mean).as_nanos().max(1);
    let from = SimTime::from_nanos(start_ns);
    let to = SimTime::from_nanos(start_ns.saturating_add(len).min(horizon.as_nanos()));
    if from < to {
        Window { from, to }
    } else {
        // Degenerate draw at the horizon edge: take the last nanosecond.
        Window {
            from: SimTime::from_nanos(horizon.as_nanos().saturating_sub(1)),
            to: horizon,
        }
    }
}

impl FaultPlan {
    /// An empty plan (useful as a baseline and for manual composition).
    pub fn empty(horizon: SimTime) -> FaultPlan {
        FaultPlan {
            horizon,
            ..FaultPlan::default()
        }
    }

    /// Generates a chaos plan for `n` nodes up to `horizon`. Episode
    /// draws use node-indexed seed streams (like
    /// [`ChurnSchedule::generate`]), so adding nodes never reshuffles
    /// the faults of earlier ones.
    ///
    /// [`ChurnSchedule::generate`]: crate::churn::ChurnSchedule::generate
    pub fn generate(n: usize, cfg: FaultConfig, horizon: SimTime) -> FaultPlan {
        assert!(horizon > SimTime::ZERO, "fault plan needs a horizon");
        let mut plan = FaultPlan::empty(horizon);
        for node in 0..n {
            let mut rng = StdRng::seed_from_u64(
                cfg.seed ^ 0xfa17 ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            // Peer faults.
            let crashes = poissonish(&mut rng, cfg.crashes_per_node);
            for _ in 0..crashes {
                let window = random_window(&mut rng, cfg.mean_episode, horizon);
                let amnesia = rng.gen::<f64>() < cfg.amnesia_fraction;
                plan.peer_faults.push(PeerFault {
                    node,
                    kind: PeerFaultKind::Crash { amnesia },
                    window,
                });
            }
            if rng.gen::<f64>() < cfg.slow_fraction {
                let window = random_window(&mut rng, cfg.mean_episode, horizon);
                plan.peer_faults.push(PeerFault {
                    node,
                    kind: PeerFaultKind::Slow {
                        rate: cfg.slow_rate,
                    },
                    window,
                });
            }
            if rng.gen::<f64>() < cfg.corrupt_fraction {
                let window = random_window(&mut rng, cfg.mean_episode, horizon);
                plan.peer_faults.push(PeerFault {
                    node,
                    kind: PeerFaultKind::Corrupt,
                    window,
                });
            }
            // Link faults on the node's access link (peer ↔ rest of the
            // world, modeled as the pair (node, node) wildcard is not
            // used; we fault the pair (node, usize::MAX) meaning "any
            // traffic of this node").
            for (count, kind) in [
                (
                    poissonish(&mut rng, cfg.loss_episodes_per_node),
                    LinkFaultKind::Loss(cfg.loss_rate),
                ),
                (
                    poissonish(&mut rng, cfg.delay_episodes_per_node),
                    LinkFaultKind::DelaySpike(cfg.delay_spike),
                ),
                (
                    poissonish(&mut rng, cfg.blackhole_episodes_per_node),
                    LinkFaultKind::Blackhole,
                ),
            ] {
                for _ in 0..count {
                    let window = random_window(&mut rng, cfg.mean_episode, horizon);
                    plan.link_faults.push(LinkFault {
                        a: node,
                        b: ANY_NODE,
                        kind,
                        window,
                    });
                }
            }
        }
        // Named partition episodes: split the id space in two at a
        // seeded cut point.
        let mut prng = StdRng::seed_from_u64(cfg.seed ^ 0x009a_2717);
        for p in 0..cfg.partitions {
            if n < 2 {
                break;
            }
            let cut = prng.gen_range(1..n);
            let window = random_window(&mut prng, cfg.mean_episode * 2, horizon);
            plan.partitions.push(Partition {
                name: format!("partition-{p}@cut{cut}"),
                window,
                cells: vec![(0..cut).collect(), (cut..n).collect()],
            });
        }
        plan
    }

    /// Adds an explicit link fault (builder-style composition).
    pub fn with_link_fault(mut self, fault: LinkFault) -> FaultPlan {
        self.link_faults.push(fault);
        self
    }

    /// Adds an explicit peer fault.
    pub fn with_peer_fault(mut self, fault: PeerFault) -> FaultPlan {
        self.peer_faults.push(fault);
        self
    }

    /// Adds an explicit named partition episode.
    pub fn with_partition(mut self, partition: Partition) -> FaultPlan {
        self.partitions.push(partition);
        self
    }

    /// The horizon the plan was generated to.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Total fault episodes of every kind (table metric).
    pub fn episode_count(&self) -> usize {
        self.link_faults.len() + self.peer_faults.len() + self.partitions.len()
    }

    /// The composite behavior of `node` at `t`. Crash dominates
    /// corrupt, corrupt dominates slow (a crashed peer can't serve
    /// garbage; a corrupt peer's garbage arrives at whatever rate).
    pub fn peer_mode(&self, node: usize, t: SimTime) -> PeerMode {
        let mut mode = PeerMode::Ok;
        for f in self.peer_faults.iter().filter(|f| f.node == node) {
            if !f.window.contains(t) {
                continue;
            }
            match f.kind {
                PeerFaultKind::Crash { .. } => return PeerMode::Crashed,
                PeerFaultKind::Corrupt => mode = PeerMode::Corrupt,
                PeerFaultKind::Slow { rate } => {
                    if mode == PeerMode::Ok {
                        mode = PeerMode::Slow(rate);
                    }
                }
            }
        }
        mode
    }

    /// Restart events (crash-window ends) in `(from, to]`, time-ordered.
    pub fn restarts_in(&self, from: SimTime, to: SimTime) -> Vec<RestartEvent> {
        let mut out: Vec<RestartEvent> = self
            .peer_faults
            .iter()
            .filter_map(|f| match f.kind {
                PeerFaultKind::Crash { amnesia }
                    if f.window.to > from && f.window.to <= to && f.window.to < self.horizon =>
                {
                    Some(RestartEvent {
                        at: f.window.to,
                        node: f.node,
                        amnesia,
                    })
                }
                _ => None,
            })
            .collect();
        out.sort_by(|a, b| a.at.cmp(&b.at).then(a.node.cmp(&b.node)));
        out
    }

    /// Whether `a` and `b` are on the same side of every active
    /// partition at `t`.
    pub fn same_partition_side(&self, a: usize, b: usize, t: SimTime) -> bool {
        for p in &self.partitions {
            if !p.window.contains(t) {
                continue;
            }
            let cell_of = |x: usize| p.cells.iter().position(|c| c.contains(&x));
            if cell_of(a) != cell_of(b) {
                return false;
            }
        }
        true
    }

    /// The active partition names at `t` (trace labeling).
    pub fn active_partitions(&self, t: SimTime) -> Vec<&str> {
        self.partitions
            .iter()
            .filter(|p| p.window.contains(t))
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Whether traffic can flow between `a` and `b` at `t`: no
    /// blackhole on either access link, and no partition between them.
    pub fn link_ok(&self, a: usize, b: usize, t: SimTime) -> bool {
        if !self.same_partition_side(a, b, t) {
            return false;
        }
        !self
            .link_faults
            .iter()
            .any(|f| f.kind == LinkFaultKind::Blackhole && f.window.contains(t) && applies(f, a, b))
    }

    /// Packet-loss probability between `a` and `b` at `t`: loss
    /// windows compose as independent drops, `1 - Π(1 - pᵢ)`.
    pub fn loss(&self, a: usize, b: usize, t: SimTime) -> f64 {
        let mut pass = 1.0;
        for f in &self.link_faults {
            if let LinkFaultKind::Loss(p) = f.kind {
                if f.window.contains(t) && applies(f, a, b) {
                    pass *= 1.0 - p.clamp(0.0, 1.0);
                }
            }
        }
        1.0 - pass
    }

    /// Added one-way delay between `a` and `b` at `t` (spikes sum).
    pub fn extra_delay(&self, a: usize, b: usize, t: SimTime) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        for f in &self.link_faults {
            if let LinkFaultKind::DelaySpike(d) = f.kind {
                if f.window.contains(t) && applies(f, a, b) {
                    extra += d;
                }
            }
        }
        extra
    }

    /// The full composite reachability verdict a fetcher cares about:
    /// link up, no partition, target not crashed.
    pub fn reachable(&self, from: usize, target: usize, t: SimTime) -> bool {
        self.link_ok(from, target, t) && self.peer_mode(target, t) != PeerMode::Crashed
    }
}

/// Wildcard endpoint: a fault on `(node, ANY_NODE)` applies to all of
/// the node's traffic (its access link).
pub const ANY_NODE: usize = usize::MAX;

fn applies(f: &LinkFault, a: usize, b: usize) -> bool {
    if f.b == ANY_NODE {
        f.a == a || f.a == b
    } else {
        f.touches(a, b)
    }
}

/// A cheap Poisson-ish draw: `floor(mean)` events plus one more with
/// probability `frac(mean)`. Keeps expected counts right without a
/// full Poisson sampler; episode *placement* carries the randomness.
fn poissonish(rng: &mut StdRng, mean: f64) -> u32 {
    let base = mean.max(0.0).floor();
    let extra = if rng.gen::<f64>() < (mean - base) {
        1
    } else {
        0
    };
    base as u32 + extra
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn w(a: u64, b: u64) -> Window {
        Window::new(t(a), t(b))
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = FaultConfig::chaos_preset(42);
        let a = FaultPlan::generate(30, cfg, t(3600));
        let b = FaultPlan::generate(30, cfg, t(3600));
        assert_eq!(a.peer_faults, b.peer_faults);
        assert_eq!(a.link_faults, b.link_faults);
        assert_eq!(a.partitions, b.partitions);
        let c = FaultPlan::generate(30, FaultConfig::chaos_preset(43), t(3600));
        assert!(a.peer_faults != c.peer_faults || a.link_faults != c.link_faults);
    }

    #[test]
    fn node_indexed_streams_are_stable_under_growth() {
        let cfg = FaultConfig::chaos_preset(7);
        let small = FaultPlan::generate(10, cfg, t(1800));
        let large = FaultPlan::generate(20, cfg, t(1800));
        for node in 0..10 {
            let sf: Vec<_> = small
                .peer_faults
                .iter()
                .filter(|f| f.node == node)
                .collect();
            let lf: Vec<_> = large
                .peer_faults
                .iter()
                .filter(|f| f.node == node)
                .collect();
            assert_eq!(sf, lf, "node {node} faults reshuffled by growth");
        }
    }

    #[test]
    fn chaos_preset_produces_every_fault_class() {
        let plan = FaultPlan::generate(60, FaultConfig::chaos_preset(3), t(3600));
        let has = |pred: &dyn Fn(&PeerFault) -> bool| plan.peer_faults.iter().any(pred);
        assert!(has(&|f| matches!(f.kind, PeerFaultKind::Crash { .. })));
        assert!(has(&|f| matches!(f.kind, PeerFaultKind::Slow { .. })));
        assert!(has(&|f| matches!(f.kind, PeerFaultKind::Corrupt)));
        assert!(plan
            .link_faults
            .iter()
            .any(|f| matches!(f.kind, LinkFaultKind::Loss(_))));
        assert!(plan
            .link_faults
            .iter()
            .any(|f| matches!(f.kind, LinkFaultKind::DelaySpike(_))));
        assert!(plan
            .link_faults
            .iter()
            .any(|f| matches!(f.kind, LinkFaultKind::Blackhole)));
        assert_eq!(plan.partitions.len(), 2);
        assert!(plan.episode_count() > 60);
    }

    #[test]
    fn peer_mode_precedence_crash_over_corrupt_over_slow() {
        let plan = FaultPlan::empty(t(100))
            .with_peer_fault(PeerFault {
                node: 1,
                kind: PeerFaultKind::Slow { rate: 0.01 },
                window: w(0, 100),
            })
            .with_peer_fault(PeerFault {
                node: 1,
                kind: PeerFaultKind::Corrupt,
                window: w(10, 50),
            })
            .with_peer_fault(PeerFault {
                node: 1,
                kind: PeerFaultKind::Crash { amnesia: true },
                window: w(20, 30),
            });
        assert_eq!(plan.peer_mode(1, t(5)), PeerMode::Slow(0.01));
        assert_eq!(plan.peer_mode(1, t(15)), PeerMode::Corrupt);
        assert_eq!(plan.peer_mode(1, t(25)), PeerMode::Crashed);
        assert_eq!(plan.peer_mode(1, t(60)), PeerMode::Slow(0.01));
        assert_eq!(plan.peer_mode(0, t(25)), PeerMode::Ok);
    }

    #[test]
    fn restarts_report_amnesia() {
        let plan = FaultPlan::empty(t(100))
            .with_peer_fault(PeerFault {
                node: 2,
                kind: PeerFaultKind::Crash { amnesia: true },
                window: w(10, 20),
            })
            .with_peer_fault(PeerFault {
                node: 3,
                kind: PeerFaultKind::Crash { amnesia: false },
                window: w(15, 25),
            });
        let all = plan.restarts_in(SimTime::ZERO, t(100));
        assert_eq!(
            all,
            vec![
                RestartEvent {
                    at: t(20),
                    node: 2,
                    amnesia: true
                },
                RestartEvent {
                    at: t(25),
                    node: 3,
                    amnesia: false
                },
            ]
        );
        // Windowed query picks up only what ended inside the window.
        assert_eq!(plan.restarts_in(t(20), t(30)).len(), 1);
        // A crash running to the horizon never restarts.
        let open_ended = FaultPlan::empty(t(100)).with_peer_fault(PeerFault {
            node: 4,
            kind: PeerFaultKind::Crash { amnesia: true },
            window: w(90, 100),
        });
        assert!(open_ended.restarts_in(SimTime::ZERO, t(100)).is_empty());
    }

    #[test]
    fn partitions_sever_cross_cell_traffic_only() {
        let plan = FaultPlan::empty(t(100)).with_partition(Partition {
            name: "switch-outage".into(),
            window: w(10, 40),
            cells: vec![vec![0, 1], vec![2, 3]],
        });
        assert!(plan.link_ok(0, 2, t(5)), "before the window");
        assert!(!plan.link_ok(0, 2, t(10)));
        assert!(!plan.link_ok(3, 1, t(39)));
        assert!(plan.link_ok(0, 1, t(20)), "same cell stays connected");
        assert!(plan.link_ok(2, 3, t(20)));
        assert!(plan.link_ok(0, 2, t(40)), "window end is exclusive");
        assert_eq!(plan.active_partitions(t(20)), vec!["switch-outage"]);
        assert!(plan.active_partitions(t(50)).is_empty());
    }

    #[test]
    fn blackhole_and_wildcard_links() {
        let plan = FaultPlan::empty(t(100))
            .with_link_fault(LinkFault {
                a: 0,
                b: 1,
                kind: LinkFaultKind::Blackhole,
                window: w(0, 50),
            })
            .with_link_fault(LinkFault {
                a: 2,
                b: ANY_NODE,
                kind: LinkFaultKind::Blackhole,
                window: w(0, 50),
            });
        assert!(!plan.link_ok(0, 1, t(10)));
        assert!(!plan.link_ok(1, 0, t(10)), "undirected");
        assert!(plan.link_ok(0, 3, t(10)));
        // Wildcard: node 2 can reach nobody.
        assert!(!plan.link_ok(2, 0, t(10)));
        assert!(!plan.link_ok(4, 2, t(10)));
        assert!(plan.link_ok(2, 0, t(60)), "after the window");
    }

    #[test]
    fn loss_composes_and_delay_sums() {
        let plan = FaultPlan::empty(t(100))
            .with_link_fault(LinkFault {
                a: 0,
                b: 1,
                kind: LinkFaultKind::Loss(0.5),
                window: w(0, 50),
            })
            .with_link_fault(LinkFault {
                a: 0,
                b: ANY_NODE,
                kind: LinkFaultKind::Loss(0.5),
                window: w(0, 50),
            })
            .with_link_fault(LinkFault {
                a: 0,
                b: 1,
                kind: LinkFaultKind::DelaySpike(SimDuration::from_millis(100)),
                window: w(0, 50),
            })
            .with_link_fault(LinkFault {
                a: 1,
                b: ANY_NODE,
                kind: LinkFaultKind::DelaySpike(SimDuration::from_millis(50)),
                window: w(0, 50),
            });
        assert!((plan.loss(0, 1, t(10)) - 0.75).abs() < 1e-12);
        assert!((plan.loss(0, 2, t(10)) - 0.5).abs() < 1e-12);
        assert_eq!(plan.loss(2, 3, t(10)), 0.0);
        assert_eq!(plan.extra_delay(0, 1, t(10)), SimDuration::from_millis(150));
        assert_eq!(plan.extra_delay(0, 1, t(60)), SimDuration::ZERO);
    }

    #[test]
    fn reachable_folds_crash_partition_and_blackhole() {
        let plan = FaultPlan::empty(t(100))
            .with_peer_fault(PeerFault {
                node: 1,
                kind: PeerFaultKind::Crash { amnesia: false },
                window: w(10, 20),
            })
            .with_partition(Partition {
                name: "p".into(),
                window: w(30, 40),
                cells: vec![vec![0], vec![1]],
            });
        assert!(plan.reachable(0, 1, t(5)));
        assert!(!plan.reachable(0, 1, t(15)), "crashed");
        assert!(plan.reachable(0, 1, t(25)));
        assert!(!plan.reachable(0, 1, t(35)), "partitioned");
        // A crashed *requester* can still be modeled by callers; the
        // oracle only rules on the target and the path.
        assert!(plan.reachable(1, 0, t(15)));
    }

    #[test]
    #[should_panic(expected = "empty fault window")]
    fn empty_window_rejected() {
        let _ = Window::new(t(5), t(5));
    }
}

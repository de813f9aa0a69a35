//! Deterministic adversity: one seeded plan of per-node episodes.
//!
//! Residential peers fail in every way a data-center server does not:
//! they reboot, lose power, get unplugged, drop packets, answer at
//! dial-up speeds, serve corrupted bytes or sit on the wrong side of a
//! partitioned aggregation switch. A [`FaultPlan`] holds all of it on
//! one simulated clock, as windows in a per-node episode index:
//!
//! - **down** windows, sorted and merged, behind [`FaultPlan::is_up`]
//!   and [`FaultPlan::transitions_into`];
//! - **slow**, **corrupt**, **loss**, **delay** and **blackhole**
//!   windows, in the order the generator drew them;
//! - partition episodes, each a seeded cut of the id space.
//!
//! Two generators write the one plan, each from its own seed streams:
//! [`FaultConfig`] (chaos: crashes are down windows, plus every other
//! class) and [`ChurnConfig`](crate::churn::ChurnConfig) (on/off
//! renewal: down windows only). Either is fully materialized at
//! construction, so a run is a pure function of `(config, n, horizon)`
//! and replays byte-identically.
//!
//! The plan is a passive oracle: drivers query it each tick and apply
//! the answers to whatever layer they drive — the gossip fabric, a
//! NoCDN fetch loop, a cooperative cache. A query reads only the
//! episode lists of the nodes it names.

use crate::churn::ChurnEvent;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A half-open window `[from, to)` on the simulation clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Window {
    pub(crate) from: SimTime,
    pub(crate) to: SimTime,
}

impl Window {
    /// Builds a window; `from` must precede `to`.
    ///
    /// # Panics
    ///
    /// Panics when `from >= to`.
    fn new(from: SimTime, to: SimTime) -> Window {
        assert!(from < to, "empty fault window {from:?}..{to:?}");
        Window { from, to }
    }

    /// Whether `t` falls inside the window.
    fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.to
    }
}

/// What a node does during one episode. Link episodes act on the
/// node's access link, so they touch all of its traffic.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Episode {
    /// Crashed or churned away: serves nothing.
    Down,
    /// Serves at this fraction of its normal rate.
    Slow(f64),
    /// Serves syntactically valid but corrupted bytes — only hash
    /// verification can catch it.
    Corrupt,
    /// Independent per-packet loss probability in `[0, 1]`.
    Loss(f64),
    /// Added one-way delay (a congested or flapping segment).
    Delay(SimDuration),
    /// The link passes nothing at all.
    Blackhole,
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

/// Tuning for the seeded chaos generator.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Expected crash episodes per node over the horizon.
    pub crashes_per_node: f64,
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
    /// Number of partition episodes over the horizon.
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

/// A config [`FaultPlan::generate`] takes: [`FaultConfig`] or
/// [`ChurnConfig`](crate::churn::ChurnConfig).
pub trait Generator: sealed::Fill {}

pub(crate) mod sealed {
    use crate::time::SimTime;

    /// Writes one generator's episodes into a plan sized to its nodes.
    pub trait Fill {
        fn fill(&self, n: usize, horizon: SimTime, plan: &mut super::FaultPlan);
    }
}

impl Generator for FaultConfig {}

/// One node's episodes.
#[derive(Clone, Debug, Default, PartialEq)]
struct Episodes {
    /// Down windows, sorted, merged and disjoint once generated.
    down: Vec<Window>,
    /// Every other episode, in draw order.
    faults: Vec<(Episode, Window)>,
}

/// A fully materialized adversity schedule over `n` nodes up to a
/// horizon.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    nodes: Vec<Episodes>,
    /// Partition windows: nodes below the cut cannot reach the rest.
    cuts: Vec<(Window, usize)>,
    horizon: SimTime,
    /// Nodes the churn generator picked to cycle.
    pub(crate) churners: usize,
}

/// Draws an exponential duration with the given mean (inverse-CDF).
pub(crate) fn exponential(rng: &mut StdRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen();
    // 1 - u is in (0, 1]; ln of it is finite and non-positive.
    SimDuration::from_secs_f64(-mean.as_secs_f64() * (1.0 - u).ln())
}

/// Draws a window of mean length `mean` starting uniformly in the
/// horizon, clamped to it.
fn random_window(rng: &mut StdRng, mean: SimDuration, horizon: SimTime) -> Window {
    let from = rng.gen_range(0..horizon.as_nanos());
    let len = exponential(rng, mean).as_nanos().max(1);
    let to = from.saturating_add(len).min(horizon.as_nanos());
    Window::new(SimTime::from_nanos(from), SimTime::from_nanos(to))
}

impl sealed::Fill for FaultConfig {
    fn fill(&self, n: usize, horizon: SimTime, plan: &mut FaultPlan) {
        assert!(horizon > SimTime::ZERO, "fault plan needs a horizon");
        for node in 0..n {
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ 0xfa17 ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let mut draw = |rng: &mut StdRng, episode| {
                let window = random_window(rng, self.mean_episode, horizon);
                plan.push(node, episode, window);
            };
            for _ in 0..poissonish(&mut rng, self.crashes_per_node) {
                draw(&mut rng, Episode::Down);
                // Once the crash's amnesia coin; still drawn so that
                // every later draw of this node keeps its value.
                let _: f64 = rng.gen();
            }
            if rng.gen::<f64>() < self.slow_fraction {
                draw(&mut rng, Episode::Slow(self.slow_rate));
            }
            if rng.gen::<f64>() < self.corrupt_fraction {
                draw(&mut rng, Episode::Corrupt);
            }
            for (count, episode) in [
                (
                    poissonish(&mut rng, self.loss_episodes_per_node),
                    Episode::Loss(self.loss_rate),
                ),
                (
                    poissonish(&mut rng, self.delay_episodes_per_node),
                    Episode::Delay(self.delay_spike),
                ),
                (
                    poissonish(&mut rng, self.blackhole_episodes_per_node),
                    Episode::Blackhole,
                ),
            ] {
                for _ in 0..count {
                    draw(&mut rng, episode);
                }
            }
        }
        let mut prng = StdRng::seed_from_u64(self.seed ^ 0x009a_2717);
        for _ in 0..self.partitions {
            if n < 2 {
                break;
            }
            let cut = prng.gen_range(1..n);
            let window = random_window(&mut prng, self.mean_episode * 2, horizon);
            plan.cuts.push((window, cut));
        }
    }
}

impl FaultPlan {
    /// A plan with no nodes and no episodes (the fault-free baseline).
    pub fn empty(horizon: SimTime) -> FaultPlan {
        FaultPlan {
            horizon,
            ..FaultPlan::default()
        }
    }

    /// Generates the plan of `cfg` for `n` nodes up to `horizon`. Each
    /// node draws from its own seed stream, so adding nodes never
    /// reshuffles the episodes of earlier ones.
    ///
    /// # Panics
    ///
    /// Panics on a zero horizon for chaos, and on a churn fraction
    /// outside `[0, 1]` or a zero mean duration while churners exist.
    pub fn generate(n: usize, cfg: impl Generator, horizon: SimTime) -> FaultPlan {
        FaultPlan::build(n, horizon, |plan| cfg.fill(n, horizon, plan))
    }

    /// Sizes a plan, lets `fill` write its episodes, then sorts and
    /// merges every node's down windows.
    fn build(n: usize, horizon: SimTime, fill: impl FnOnce(&mut FaultPlan)) -> FaultPlan {
        let mut plan = FaultPlan {
            nodes: vec![Episodes::default(); n],
            ..FaultPlan::empty(horizon)
        };
        fill(&mut plan);
        for e in &mut plan.nodes {
            // A zero-length churn downtime is no window: it would report
            // a down and an up edge at one instant.
            e.down.retain(|w| w.from < w.to);
            e.down.sort_by_key(|w| w.from);
            e.down.dedup_by(|next, kept| {
                let overlaps = next.from <= kept.to;
                if overlaps {
                    kept.to = kept.to.max(next.to);
                }
                overlaps
            });
        }
        plan
    }

    /// Records one episode of `node`.
    pub(crate) fn push(&mut self, node: usize, episode: Episode, window: Window) {
        let e = &mut self.nodes[node];
        match episode {
            Episode::Down => e.down.push(window),
            _ => e.faults.push((episode, window)),
        }
    }

    /// The horizon the plan was generated to.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// How many nodes the churn generator cycles (the rest are always
    /// up as far as churn goes).
    pub fn churner_count(&self) -> usize {
        self.churners
    }

    fn down(&self, node: usize) -> &[Window] {
        self.nodes.get(node).map_or(&[], |e| &e.down)
    }

    /// Ground-truth liveness of `node` at `t`: every node starts up and
    /// is down inside its down windows. A down window that reaches the
    /// horizon in a churn plan stays open past it.
    pub fn is_up(&self, node: usize, t: SimTime) -> bool {
        let down = self.down(node);
        let i = down.partition_point(|w| w.to <= t);
        down.get(i).is_none_or(|w| t < w.from)
    }

    /// Clears `out` and fills it with every down and up edge in
    /// `(from, to]`, ordered by time, then node. Replaying the edges
    /// from time zero, every node starting up, reproduces
    /// [`is_up`](FaultPlan::is_up); per-tick driver loops reuse one
    /// buffer.
    pub fn transitions_into(&self, from: SimTime, to: SimTime, out: &mut Vec<ChurnEvent>) {
        out.clear();
        for (node, e) in self.nodes.iter().enumerate() {
            let first = e.down.partition_point(|w| w.to <= from);
            for w in e.down[first..].iter().take_while(|w| w.from <= to) {
                if w.from > from {
                    out.push(ChurnEvent {
                        at: w.from,
                        node,
                        up: false,
                    });
                }
                if w.to <= to {
                    out.push(ChurnEvent {
                        at: w.to,
                        node,
                        up: true,
                    });
                }
            }
        }
        out.sort_unstable_by_key(|e| (e.at, e.node));
    }

    /// Fraction of `[0, until]` that `node` was up.
    pub fn uptime_fraction(&self, node: usize, until: SimTime) -> f64 {
        if until == SimTime::ZERO {
            return 1.0;
        }
        let down: u64 = self
            .down(node)
            .iter()
            .take_while(|w| w.from < until)
            .map(|w| w.to.min(until).as_nanos() - w.from.as_nanos())
            .sum();
        SimDuration::from_nanos(until.as_nanos() - down).as_secs_f64() / until.as_secs_f64()
    }

    /// Calls `f` on each episode of `node` that holds at `t`, in draw
    /// order.
    fn each_active(&self, node: usize, t: SimTime, f: &mut impl FnMut(Episode)) {
        for &(episode, w) in self.nodes.get(node).map_or(&[][..], |e| &e.faults) {
            if w.contains(t) {
                f(episode);
            }
        }
    }

    /// Calls `f` on each episode that holds at `t` on the access links
    /// of `a` and `b`, the lower node's first.
    fn each_on_path(&self, a: usize, b: usize, t: SimTime, mut f: impl FnMut(Episode)) {
        self.each_active(a.min(b), t, &mut f);
        if a != b {
            self.each_active(a.max(b), t, &mut f);
        }
    }

    /// The composite behavior of `node` at `t`. Down dominates
    /// corrupt, corrupt dominates slow (a crashed peer can't serve
    /// garbage; a corrupt peer's garbage arrives at whatever rate).
    pub fn peer_mode(&self, node: usize, t: SimTime) -> PeerMode {
        if !self.is_up(node, t) {
            return PeerMode::Crashed;
        }
        let mut mode = PeerMode::Ok;
        self.each_active(node, t, &mut |episode| match episode {
            Episode::Corrupt => mode = PeerMode::Corrupt,
            Episode::Slow(rate) if mode == PeerMode::Ok => mode = PeerMode::Slow(rate),
            _ => {}
        });
        mode
    }

    /// Whether traffic can flow between `a` and `b` at `t`: no
    /// blackhole on either access link, and no partition between them.
    fn link_ok(&self, a: usize, b: usize, t: SimTime) -> bool {
        let n = self.nodes.len();
        let cut_apart =
            |&(w, cut): &(Window, usize)| w.contains(t) && (a < cut, a < n) != (b < cut, b < n);
        let mut hole = false;
        self.each_on_path(a, b, t, |episode| hole |= episode == Episode::Blackhole);
        !hole && !self.cuts.iter().any(cut_apart)
    }

    /// Packet-loss probability between `a` and `b` at `t`: loss
    /// windows compose as independent drops, `1 - Π(1 - pᵢ)`.
    pub fn loss(&self, a: usize, b: usize, t: SimTime) -> f64 {
        let mut pass = 1.0;
        self.each_on_path(a, b, t, |episode| {
            if let Episode::Loss(p) = episode {
                pass *= 1.0 - p.clamp(0.0, 1.0);
            }
        });
        1.0 - pass
    }

    /// Added one-way delay between `a` and `b` at `t` (spikes sum).
    pub fn extra_delay(&self, a: usize, b: usize, t: SimTime) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        self.each_on_path(a, b, t, |episode| {
            if let Episode::Delay(d) = episode {
                extra += d;
            }
        });
        extra
    }

    /// The full composite reachability verdict a fetcher cares about:
    /// link up, no partition, target up.
    pub fn reachable(&self, from: usize, target: usize, t: SimTime) -> bool {
        self.link_ok(from, target, t) && self.is_up(target, t)
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
    use crate::churn::ChurnConfig;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn w(a: u64, b: u64) -> Window {
        Window::new(t(a), t(b))
    }

    /// A plan over `n` nodes up to 100 s from one episode list.
    fn plan(
        n: usize,
        episodes: &[(usize, Episode, Window)],
        cuts: &[(Window, usize)],
    ) -> FaultPlan {
        FaultPlan::build(n, t(100), |p| {
            for &(node, episode, window) in episodes {
                p.push(node, episode, window);
            }
            p.cuts.extend_from_slice(cuts);
        })
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = FaultConfig::chaos_preset(42);
        let a = FaultPlan::generate(30, cfg, t(3600));
        let b = FaultPlan::generate(30, cfg, t(3600));
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.cuts, b.cuts);
        let c = FaultPlan::generate(30, FaultConfig::chaos_preset(43), t(3600));
        assert_ne!(a.nodes, c.nodes);
    }

    #[test]
    fn node_indexed_streams_are_stable_under_growth() {
        let cfg = FaultConfig::chaos_preset(7);
        let small = FaultPlan::generate(10, cfg, t(1800));
        let large = FaultPlan::generate(20, cfg, t(1800));
        for node in 0..10 {
            assert_eq!(
                small.nodes[node], large.nodes[node],
                "node {node} faults reshuffled by growth"
            );
        }
    }

    #[test]
    fn chaos_preset_produces_every_fault_class() {
        let plan = FaultPlan::generate(60, FaultConfig::chaos_preset(3), t(3600));
        let has = |pred: fn(&Episode) -> bool| {
            plan.nodes
                .iter()
                .any(|e| e.faults.iter().any(|(episode, _)| pred(episode)))
        };
        assert!(plan.nodes.iter().any(|e| !e.down.is_empty()));
        assert!(has(|e| matches!(e, Episode::Slow(_))));
        assert!(has(|e| matches!(e, Episode::Corrupt)));
        assert!(has(|e| matches!(e, Episode::Loss(_))));
        assert!(has(|e| matches!(e, Episode::Delay(_))));
        assert!(has(|e| matches!(e, Episode::Blackhole)));
        assert_eq!(plan.cuts.len(), 2);
        let episodes: usize = plan
            .nodes
            .iter()
            .map(|e| e.down.len() + e.faults.len())
            .sum();
        assert!(episodes > 60);
    }

    #[test]
    fn peer_mode_precedence_crash_over_corrupt_over_slow() {
        let plan = plan(
            2,
            &[
                (1, Episode::Slow(0.01), w(0, 100)),
                (1, Episode::Corrupt, w(10, 50)),
                (1, Episode::Down, w(20, 30)),
            ],
            &[],
        );
        assert_eq!(plan.peer_mode(1, t(5)), PeerMode::Slow(0.01));
        assert_eq!(plan.peer_mode(1, t(15)), PeerMode::Corrupt);
        assert_eq!(plan.peer_mode(1, t(25)), PeerMode::Crashed);
        assert!(!plan.is_up(1, t(25)));
        assert_eq!(plan.peer_mode(1, t(60)), PeerMode::Slow(0.01));
        assert_eq!(plan.peer_mode(0, t(25)), PeerMode::Ok);
    }

    /// Overlapping crash windows merge into one down window, and a
    /// crash that ends at the horizon comes back up there.
    #[test]
    fn crash_ends_are_up_edges() {
        let plan = plan(
            5,
            &[
                (2, Episode::Down, w(10, 20)),
                (3, Episode::Down, w(15, 25)),
                (3, Episode::Down, w(20, 35)),
                (4, Episode::Down, w(90, 100)),
            ],
            &[],
        );
        let edge = |at, node, up| ChurnEvent {
            at: t(at),
            node,
            up,
        };
        let mut out = Vec::new();
        plan.transitions_into(SimTime::ZERO, t(60), &mut out);
        assert_eq!(
            out,
            [
                edge(10, 2, false),
                edge(15, 3, false),
                edge(20, 2, true),
                edge(35, 3, true)
            ]
        );
        // A windowed query picks up only what happened inside it.
        plan.transitions_into(t(20), t(30), &mut out);
        assert!(out.is_empty());
        plan.transitions_into(t(60), t(105), &mut out);
        assert_eq!(out, [edge(90, 4, false), edge(100, 4, true)]);
        assert!(plan.is_up(4, t(100)));
    }

    #[test]
    fn partitions_sever_cross_cell_traffic_only() {
        let plan = plan(4, &[], &[(w(10, 40), 2)]);
        assert!(plan.link_ok(0, 2, t(5)), "before the window");
        assert!(!plan.link_ok(0, 2, t(10)));
        assert!(!plan.link_ok(3, 1, t(39)));
        assert!(plan.link_ok(0, 1, t(20)), "same cell stays connected");
        assert!(plan.link_ok(2, 3, t(20)));
        assert!(plan.link_ok(0, 2, t(40)), "window end is exclusive");
        assert!(!plan.link_ok(3, 4, t(20)), "a node past n is its own cell");
    }

    /// A blackhole on a node's access link cuts it off from everyone.
    #[test]
    fn blackhole_and_wildcard_links() {
        let plan = plan(5, &[(2, Episode::Blackhole, w(0, 50))], &[]);
        assert!(plan.link_ok(0, 1, t(10)));
        assert!(!plan.link_ok(2, 0, t(10)));
        assert!(!plan.link_ok(4, 2, t(10)), "undirected");
        assert!(!plan.reachable(0, 2, t(10)));
        assert!(plan.link_ok(2, 0, t(60)), "after the window");
    }

    #[test]
    fn loss_composes_and_delay_sums() {
        let plan = plan(
            4,
            &[
                (0, Episode::Loss(0.5), w(0, 50)),
                (1, Episode::Loss(0.5), w(0, 50)),
                (0, Episode::Delay(SimDuration::from_millis(100)), w(0, 50)),
                (1, Episode::Delay(SimDuration::from_millis(50)), w(0, 50)),
            ],
            &[],
        );
        assert!((plan.loss(0, 1, t(10)) - 0.75).abs() < 1e-12);
        assert!((plan.loss(0, 2, t(10)) - 0.5).abs() < 1e-12);
        assert!(
            (plan.loss(0, 0, t(10)) - 0.5).abs() < 1e-12,
            "one link, once"
        );
        assert_eq!(plan.loss(2, 3, t(10)), 0.0);
        assert_eq!(plan.extra_delay(0, 1, t(10)), SimDuration::from_millis(150));
        assert_eq!(plan.extra_delay(0, 1, t(60)), SimDuration::ZERO);
    }

    #[test]
    fn reachable_folds_crash_partition_and_blackhole() {
        let plan = plan(2, &[(1, Episode::Down, w(10, 20))], &[(w(30, 40), 1)]);
        assert!(plan.reachable(0, 1, t(5)));
        assert!(!plan.reachable(0, 1, t(15)), "crashed");
        assert!(plan.reachable(0, 1, t(25)));
        assert!(!plan.reachable(0, 1, t(35)), "partitioned");
        // A crashed *requester* can still be modeled by callers; the
        // oracle only rules on the target and the path.
        assert!(plan.reachable(1, 0, t(15)));
    }

    /// Hashes every answer `plan` gives over `n` nodes: on a grid of
    /// instants, at seeded random ones, at the horizon and 5 s past it.
    /// For churn plans, whose edges and uptimes the digest pinned
    /// before the plans were one, it also hashes each edge, the
    /// instants at and just before it, and the uptime fractions.
    fn digest_plan(plan: &FaultPlan, n: usize, churn: bool, h: &mut u64) {
        let mut eat = |v: u64| *h = hpop_obs::mix(*h ^ v);
        let horizon = plan.horizon();
        let past = horizon + SimDuration::from_secs(5);
        let mut at: Vec<SimTime> = (0..96)
            .map(|k| SimTime::from_nanos(horizon.as_nanos() / 96 * k))
            .chain([horizon, past])
            .collect();
        let mut rng = StdRng::seed_from_u64(n as u64 ^ horizon.as_nanos());
        at.extend((0..32).map(|_| SimTime::from_nanos(rng.gen_range(0..past.as_nanos()))));
        if churn {
            let mut edges = Vec::new();
            plan.transitions_into(SimTime::ZERO, past, &mut edges);
            for e in edges {
                eat(e.at.as_nanos());
                eat(e.node as u64);
                eat(u64::from(e.up));
                at.push(e.at);
                at.push(SimTime::from_nanos(e.at.as_nanos() - 1));
            }
        }
        for &t in &at {
            for x in 0..n {
                eat(u64::from(plan.is_up(x, t)));
                eat(match plan.peer_mode(x, t) {
                    PeerMode::Ok => 1,
                    PeerMode::Crashed => 2,
                    PeerMode::Corrupt => 3,
                    PeerMode::Slow(rate) => rate.to_bits(),
                });
                for (a, b) in [(0, x), (x, x), (x, (x + 1) % n), (n, x)] {
                    eat(u64::from(plan.reachable(a, b, t)));
                    eat(plan.loss(a, b, t).to_bits());
                    eat(plan.extra_delay(a, b, t).as_nanos());
                }
                if churn {
                    eat(plan.uptime_fraction(x, t).to_bits());
                }
            }
        }
    }

    /// Every answer of 32 seeds of four plan families at four sizes,
    /// pinned to the digest the churn schedule and the fault plan gave
    /// when they were two types.
    #[test]
    fn plan_frozen() {
        let crashes = |seed| FaultConfig {
            slow_fraction: 0.0,
            corrupt_fraction: 0.0,
            loss_episodes_per_node: 0.0,
            delay_episodes_per_node: 0.0,
            blackhole_episodes_per_node: 0.0,
            partitions: 0,
            ..FaultConfig::chaos_preset(seed)
        };
        let fabric_churn = |seed| ChurnConfig {
            churn_fraction: 0.4,
            mean_session: SimDuration::from_secs(45),
            mean_downtime: SimDuration::from_secs(15),
            seed,
        };
        let mut h = 0;
        for n in [2, 13, 33, 64] {
            for seed in 0..32u64 {
                for (plan, churn) in [
                    (
                        FaultPlan::generate(n, FaultConfig::chaos_preset(seed), t(600)),
                        false,
                    ),
                    (FaultPlan::generate(n, crashes(seed), t(600)), false),
                    (
                        FaultPlan::generate(n, ChurnConfig::paper_preset(seed), t(3600)),
                        true,
                    ),
                    (FaultPlan::generate(n, fabric_churn(seed), t(90)), true),
                ] {
                    digest_plan(&plan, n, churn, &mut h);
                }
            }
        }
        assert_eq!(h, 0x924e_ad4e_9947_1093);
    }

    #[test]
    #[should_panic(expected = "empty fault window")]
    fn empty_window_rejected() {
        let _ = Window::new(t(5), t(5));
    }
}

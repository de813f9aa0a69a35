//! E26 — overload robustness: flash-crowd collapse vs graceful
//! degradation.
//!
//! The question this experiment answers: when a metro-scale flash crowd
//! (10× arrival rate, regionally skewed onto one metro PoP, converging
//! on brand-new rising-head objects) hits the HPoP service layer, does
//! the city *collapse* or *degrade*? It drives the same service model
//! twice over a [`MetroParams`]-shaped city:
//!
//! - **controls off** — unbounded queues, every arrival accepted,
//!   background work never yields: the textbook congestion collapse.
//!   Queues convert overload into waiting time, so goodput (requests
//!   answered within the 1 s SLO) falls off a cliff even though the
//!   servers never stop working.
//! - **controls on** — the full `hpop-resilience` stack per
//!   neighborhood: token-bucket + AIMD [`Admission`] in front, a
//!   [`BoundedQueue`] whose fill fraction is the backpressure signal, a
//!   [`Brownout`] ladder (fresh → stale → redirect-to-origin → reject)
//!   driven by that signal, and a priority [`LoadShedder`] that drops
//!   anti-entropy, repair and prefetch work *before* any interactive
//!   request is touched.
//!
//! The crowd itself is [`FlashCrowd`] from `hpop-workloads`: a
//! trapezoidal rate envelope composed with a rising popularity head
//! whose objects start uncached everywhere (head warmth is learned by
//! serving misses), applied to the epicenter neighborhoods of one metro
//! PoP.
//!
//! Headline counters (epicenter-scoped, scale-free, enforced by
//! `BENCH_BUDGETS.txt` at both smoke and full scale):
//!
//! - `overload.on.epicenter.goodput_ratio_bp` — plateau goodput as
//!   basis points of pre-burst goodput; floor 9000 (≥ 90%). The
//!   controls-on city actually *gains* goodput under the crowd (more
//!   demand, bounded queues, background shed).
//! - `overload.off.epicenter.goodput_ratio_bp` — same ratio with
//!   controls off; ceiling 5000 (the collapse must be visible).
//! - `overload.{on,off}.epicenter.admitted_p99_ms` — p99 latency of
//!   requests served during the plateau: bounded near the SLO with
//!   controls on, seconds-to-minutes off.
//! - `overload.on.shed.interactive` — ceiling 0: the shed-order
//!   invariant, measured end to end.
//!
//! The network layer's own flash-crowd behavior (allocator-work
//! ceilings, zero steady-state allocation at 100k homes) is pinned
//! separately by `crates/netsim/tests/burst_audit.rs`; this experiment
//! models the *service* layer those flows feed, at one queueing tick
//! per 100 ms.

use crate::rng::XorShift64;
use crate::table::{f2, Table};
use hpop_netsim::presets::MetroParams;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_resilience::{
    Admission, AdmissionConfig, BoundedQueue, Brownout, BrownoutLevel, LoadShedder, WorkClass,
};
use hpop_workloads::{FlashCrowd, FlashCrowdParams};

/// One queueing tick of the service model.
const TICK_MS: u64 = 100;
/// Pre-burst baseline window, in ticks (30 s).
const PRE_TICKS: u64 = 300;
/// Burst window (ramp + hold + decay), in ticks (90 s).
const BURST_TICKS: u64 = 900;
/// Post-burst recovery window, in ticks (30 s).
const RECOVERY_TICKS: u64 = 300;
/// Service capacity of one neighborhood appliance pool, in work units
/// per tick (a cache hit costs 0.5, a miss/origin fetch 1.0).
const CAP_UNITS: f64 = 6.0;
/// Capacity one background class consumes per tick when not shed.
const BG_COST: f64 = 0.5;
/// Baseline interactive arrivals per neighborhood per tick.
const BASE_RATE: f64 = 1.2;
/// The interactive SLO: a request answered within this is "goodput".
const SLO_MS: u32 = 1_000;
/// Steady-state cache hit probability for non-head objects.
const HIT_BASE: f64 = 0.7;
/// Per-served-miss warmth gain for rising-head objects (cache fill).
const WARMTH_GAIN: f64 = 0.05;
/// Probability a miss can be served stale once the ladder allows it.
const STALE_AVAILABLE: f64 = 0.6;
/// Retry hint attached to brownout `Reject`-rung refusals.
const REJECT_RETRY_MS: u64 = 500;
/// First tick of the crowd's plateau (burst onset + 10 s ramp).
const PLATEAU_FIRST: u64 = PRE_TICKS + 100;
/// One-past-last tick of the plateau (60 s hold).
const PLATEAU_END: u64 = PLATEAU_FIRST + 600;
/// Bounded interactive queue depth (controls on).
const QUEUE_CAP: usize = 24;

/// The three measurement windows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Pre,
    Burst,
    Recovery,
}

impl Phase {
    fn of_tick(tick: u64) -> Phase {
        if tick < PRE_TICKS {
            Phase::Pre
        } else if tick < PRE_TICKS + BURST_TICKS {
            Phase::Burst
        } else {
            Phase::Recovery
        }
    }
    fn index(self) -> usize {
        match self {
            Phase::Pre => 0,
            Phase::Burst => 1,
            Phase::Recovery => 2,
        }
    }
    fn name(self) -> &'static str {
        match self {
            Phase::Pre => "pre",
            Phase::Burst => "burst",
            Phase::Recovery => "recovery",
        }
    }
    fn ticks(self) -> u64 {
        match self {
            Phase::Pre => PRE_TICKS,
            Phase::Burst => BURST_TICKS,
            Phase::Recovery => RECOVERY_TICKS,
        }
    }
}

/// Epicenter-scoped stats for one phase.
#[derive(Clone, Default)]
pub struct PhaseStats {
    /// Interactive arrivals offered (counted at arrival time).
    pub offered: u64,
    /// Requests served (counted at service time).
    pub served: u64,
    /// Served within the SLO.
    pub good: u64,
    /// End-to-end latencies (queue wait + service) of served requests,
    /// in milliseconds.
    latencies: Vec<u32>,
}

impl PhaseStats {
    /// Goodput per tick over the phase window.
    fn good_rate(&self, phase: Phase) -> f64 {
        self.good as f64 / phase.ticks().max(1) as f64
    }

    /// p99 latency of served requests, in ms (0 when none served).
    pub fn p99_ms(&mut self) -> u32 {
        if self.latencies.is_empty() {
            return 0;
        }
        let i = (self.latencies.len() - 1) * 99 / 100;
        *self.latencies.select_nth_unstable(i).1
    }
}

/// One controls-on or controls-off run of the city.
pub struct RunResult {
    /// Whether the overload controls were active.
    pub controls: bool,
    /// City size (homes).
    pub homes: usize,
    /// Neighborhoods (aggregation domains) in the city.
    pub hoods: usize,
    /// Neighborhoods inside the crowd's epicenter metro PoP.
    pub epicenter_hoods: usize,
    /// Epicenter-scoped stats, indexed by [`Phase::index`].
    pub phases: [PhaseStats; 3],
    /// Epicenter-scoped stats over the plateau (hold) window only —
    /// the headline collapse-vs-degradation measurement. The full
    /// burst phase includes the ramp, during which even the
    /// controls-off city briefly keeps up; the plateau is where the
    /// two regimes separate.
    pub plateau: PhaseStats,
    /// City-wide refusals (admission, backpressure, brownout reject).
    pub rejected: u64,
    /// Refusals carrying a positive `retry_after` hint.
    pub rejected_with_hint: u64,
    /// Interactive work shed by the priority shedder (must stay 0).
    pub shed_interactive: u64,
    /// Background work shed.
    pub shed_background: u64,
    /// Brownout rung transitions taken across all neighborhoods.
    pub brownout_transitions: u64,
    /// Deepest brownout rung any neighborhood reached.
    pub peak_level: BrownoutLevel,
}

impl RunResult {
    /// Plateau goodput as basis points of pre-burst goodput.
    pub fn goodput_ratio_bp(&self) -> u64 {
        let pre = self.phases[0].good_rate(Phase::Pre);
        let plateau = self.plateau.good as f64 / (PLATEAU_END - PLATEAU_FIRST) as f64;
        if pre <= 0.0 {
            return 0;
        }
        (plateau / pre * 10_000.0) as u64
    }
}

/// A queued interactive request.
#[derive(Clone, Copy)]
struct Req {
    /// Tick the request entered the queue.
    enqueued: u64,
    /// Originates in an epicenter neighborhood (scoped stats).
    epicenter: bool,
    /// Targets a rising-head object.
    head: bool,
    /// Holds an admission permit that must be completed.
    admitted: bool,
}

/// One neighborhood's service state.
struct Hood {
    queue: BoundedQueue<Req>,
    admission: Admission,
    brownout: Brownout,
    /// Cache warmth for the rising-head objects, `[0, 1]`.
    warmth: f64,
    /// Fractional-arrival accumulator.
    carry: f64,
}

fn admission_config() -> AdmissionConfig {
    AdmissionConfig {
        // 10 tokens per 100 ms tick: the rate gate that matters.
        rate_per_sec: 100.0,
        burst: 30.0,
        // Inflight = queued depth ≤ QUEUE_CAP, so AIMD is headroom
        // here; it still adapts if the queue-wait verdicts go bad.
        initial_limit: 64.0,
        min_limit: 8.0,
        max_limit: 256.0,
        add_per_success: 1.0,
        multiply_on_overload: 0.5,
        inflight_retry_after: SimDuration::from_millis(100),
    }
}

/// Drives one full pre → burst → recovery episode over a city of
/// `homes`, with the resilience stack active (`controls`) or bypassed.
pub fn run_city(homes: usize, controls: bool) -> RunResult {
    let params = MetroParams {
        homes,
        ..MetroParams::default()
    };
    let hoods_n = (params.homes / params.homes_per_agg).max(1);
    // The crowd's epicenter: the neighborhoods of one metro PoP.
    let epicenter_hoods = params.aggs_per_metro.min(hoods_n);

    let crowd = FlashCrowd::new(
        FlashCrowdParams {
            start: SimTime::from_nanos(PRE_TICKS * TICK_MS * 1_000_000),
            ramp: SimDuration::from_secs(10),
            hold: SimDuration::from_secs(60),
            decay: SimDuration::from_secs(20),
            magnitude: 10.0,
            regions: hoods_n as u32,
            epicenter: 0,
            ..FlashCrowdParams::default()
        },
        1_000,
    );
    let head_mass = crowd.params().head_mass;

    let t0 = SimTime::ZERO;
    let queue_cap = if controls { QUEUE_CAP } else { 1 << 20 };
    let mut hoods: Vec<Hood> = (0..hoods_n)
        .map(|_| Hood {
            queue: BoundedQueue::new(queue_cap),
            admission: Admission::new(admission_config(), t0),
            brownout: Brownout::default(),
            warmth: 0.0,
            carry: 0.0,
        })
        .collect();
    let mut shedder = LoadShedder::default();
    let mut rng = XorShift64::new(0xE26 + controls as u64);

    let mut result = RunResult {
        controls,
        homes,
        hoods: hoods_n,
        epicenter_hoods,
        phases: [
            PhaseStats::default(),
            PhaseStats::default(),
            PhaseStats::default(),
        ],
        plateau: PhaseStats::default(),
        rejected: 0,
        rejected_with_hint: 0,
        shed_interactive: 0,
        shed_background: 0,
        brownout_transitions: 0,
        peak_level: BrownoutLevel::Full,
    };

    let total_ticks = PRE_TICKS + BURST_TICKS + RECOVERY_TICKS;
    for tick in 0..total_ticks {
        let now = SimTime::from_nanos(tick * TICK_MS * 1_000_000);
        let phase = Phase::of_tick(tick);
        let intensity = crowd.intensity(now);
        let mult = crowd.rate_multiplier(now);

        for (h, hood) in hoods.iter_mut().enumerate() {
            let epicenter = h < epicenter_hoods;

            // Backpressure: the bounded queue's fill fraction is the
            // saturation signal. (The admission controller's composed
            // saturation also folds in token-bucket depletion, but
            // depletion says "the rate gate is busy", not "work is
            // backing up" — the ladder and shedder key off backlog.)
            let sat = hood.queue.pressure();
            hood.admission.set_queue_pressure(sat);
            let level = if controls {
                hood.brownout.observe(sat, now)
            } else {
                BrownoutLevel::Full
            };
            result.peak_level = result.peak_level.max(level);

            // Background work: sheds by priority when controls are on,
            // always burns capacity when they are off.
            let mut bg_cost = 0.0;
            for class in [
                WorkClass::AntiEntropy,
                WorkClass::Repair,
                WorkClass::Prefetch,
            ] {
                if !controls || !shedder.admit(class, sat) {
                    bg_cost += BG_COST;
                }
            }
            // The shedder also sees every interactive tick-slot; its
            // 1.0 threshold (strict) means this never sheds — the E26
            // budget `overload.on.shed.interactive == 0` pins that.
            if controls {
                let _ = shedder.admit(WorkClass::Interactive, sat);
            }

            // Arrivals: baseline everywhere, the flash-crowd multiplier
            // on the epicenter neighborhoods.
            let lambda = BASE_RATE * if epicenter { mult } else { 1.0 };
            hood.carry += lambda;
            let arrivals = hood.carry as u64;
            hood.carry -= arrivals as f64;
            let on_plateau = (PLATEAU_FIRST..PLATEAU_END).contains(&tick);
            for _ in 0..arrivals {
                if epicenter {
                    result.phases[phase.index()].offered += 1;
                    if on_plateau {
                        result.plateau.offered += 1;
                    }
                }
                let head = epicenter && rng.unit() < head_mass * intensity;
                let mut admitted = false;
                if controls {
                    // The reject rung refuses before spending tokens.
                    if level >= BrownoutLevel::Reject {
                        result.rejected += 1;
                        if REJECT_RETRY_MS > 0 {
                            result.rejected_with_hint += 1;
                        }
                        continue;
                    }
                    match hood.admission.try_admit(now) {
                        Ok(()) => admitted = true,
                        Err(over) => {
                            result.rejected += 1;
                            if over.retry_after > SimDuration::ZERO {
                                result.rejected_with_hint += 1;
                            }
                            continue;
                        }
                    }
                }
                let req = Req {
                    enqueued: tick,
                    epicenter,
                    head,
                    admitted,
                };
                if let Err(_refused) = hood.queue.push(req) {
                    // Backpressure: depth cap reached even though the
                    // rate gate admitted — typed refusal, permit back.
                    if admitted {
                        hood.admission.complete(true);
                    }
                    result.rejected += 1;
                    result.rejected_with_hint += 1;
                }
            }

            // Service: whatever capacity background work left over.
            let mut units = CAP_UNITS - bg_cost;
            while units > 0.0 {
                let Some(req) = hood.queue.pop() else { break };
                let hit_p = if req.head { hood.warmth } else { HIT_BASE };
                let hit = rng.unit() < hit_p;
                let (cost, svc_ms) = if hit {
                    (0.5, 50)
                } else if controls
                    && level >= BrownoutLevel::StaleAllowed
                    && level < BrownoutLevel::RedirectOrigin
                    && rng.unit() < STALE_AVAILABLE
                {
                    // The stale rung: a slightly old copy for half the
                    // work of a lateral / origin fetch.
                    (0.5, 80)
                } else {
                    // Lateral or origin fetch (the redirect rung sends
                    // all of these straight to the origin).
                    (1.0, 200)
                };
                if req.head && !hit {
                    // Serving a head miss fills the cache a little.
                    hood.warmth += (1.0 - hood.warmth) * WARMTH_GAIN;
                }
                units -= cost;
                let wait_ms = (tick - req.enqueued) * TICK_MS;
                let latency_ms = (wait_ms + svc_ms).min(u32::MAX as u64) as u32;
                if req.admitted {
                    hood.admission.complete(latency_ms > SLO_MS);
                }
                if req.epicenter {
                    let good = latency_ms <= SLO_MS;
                    let p = &mut result.phases[phase.index()];
                    p.served += 1;
                    p.good += good as u64;
                    p.latencies.push(latency_ms);
                    if on_plateau {
                        result.plateau.served += 1;
                        result.plateau.good += good as u64;
                        result.plateau.latencies.push(latency_ms);
                    }
                }
            }
        }
    }

    result.shed_interactive = shedder.shed_count(WorkClass::Interactive);
    result.shed_background = shedder.background_shed();
    result.brownout_transitions = hoods.iter().map(|h| h.brownout.transitions()).sum();
    result
}

/// Renders both runs into the E26 table and the budgeted counters.
fn report(mut runs: Vec<RunResult>) -> Vec<Table> {
    let mut t = Table::new(
        "E26",
        "Overload: flash-crowd collapse (off) vs graceful degradation (on)",
        &[
            "controls",
            "phase",
            "epi offered/tick",
            "epi good/tick",
            "epi p99 ms",
            "rejected",
            "shed bg",
            "shed int",
            "brownout steps",
            "peak rung",
        ],
    );
    let metrics = hpop_obs::metrics();
    for run in &mut runs {
        let tag = if run.controls { "on" } else { "off" };
        let ratio_bp = run.goodput_ratio_bp();
        for phase in [Phase::Pre, Phase::Burst, Phase::Recovery] {
            let ticks = phase.ticks().max(1) as f64;
            let p = &mut run.phases[phase.index()];
            let p99 = p.p99_ms();
            t.push(vec![
                tag.to_string(),
                phase.name().to_string(),
                f2(p.offered as f64 / ticks),
                f2(p.good as f64 / ticks),
                p99.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
        // The headline row: the plateau (hold) window, where the two
        // regimes separate — ramp keep-up no longer dilutes the ratio.
        let plateau_ticks = (PLATEAU_END - PLATEAU_FIRST) as f64;
        let plateau_p99 = run.plateau.p99_ms();
        t.push(vec![
            tag.to_string(),
            "plateau".to_string(),
            f2(run.plateau.offered as f64 / plateau_ticks),
            f2(run.plateau.good as f64 / plateau_ticks),
            plateau_p99.to_string(),
            run.rejected.to_string(),
            run.shed_background.to_string(),
            run.shed_interactive.to_string(),
            run.brownout_transitions.to_string(),
            run.peak_level.name().to_string(),
        ]);
        metrics
            .counter(&format!("overload.{tag}.epicenter.admitted_p99_ms"))
            .add(plateau_p99 as u64);
        metrics
            .counter(&format!("overload.{tag}.epicenter.goodput_ratio_bp"))
            .add(ratio_bp);
        metrics
            .counter(&format!("overload.{tag}.rejected"))
            .add(run.rejected);
        metrics
            .counter(&format!("overload.{tag}.rejected_with_hint"))
            .add(run.rejected_with_hint);
        metrics
            .counter(&format!("overload.{tag}.shed.interactive"))
            .add(run.shed_interactive);
        metrics
            .counter(&format!("overload.{tag}.shed.background"))
            .add(run.shed_background);
        metrics
            .counter(&format!("overload.{tag}.brownout.transitions"))
            .add(run.brownout_transitions);
    }
    vec![t]
}

/// Full scale: a 100k-home city, controls off then on. Deterministic
/// at both scales; the committed artifact is produced with `--stable`
/// only to pin the wall-clock gauge.
pub fn run_default() -> Vec<Table> {
    report(vec![run_city(100_000, false), run_city(100_000, true)])
}

/// CI smoke preset: a 10k-home city, named `overload_smoke`. Every
/// budgeted counter is a ratio, a p99 of simulated latencies or an
/// exact zero/floor, so its `BENCH_BUDGETS.txt` lines repeat the full
/// run's bounds.
pub fn run_smoke() -> Vec<Table> {
    report(vec![run_city(10_000, false), run_city(10_000, true)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controls_turn_collapse_into_graceful_degradation() {
        let mut off = run_city(640, false);
        let mut on = run_city(640, true);

        // Controls on: goodput holds through the burst, latency stays
        // bounded, no interactive work is ever shed, refusals are
        // typed and carry retry hints.
        assert!(
            on.goodput_ratio_bp() >= 9_000,
            "on-run goodput ratio {} bp",
            on.goodput_ratio_bp()
        );
        let on_p99 = on.plateau.p99_ms();
        assert!(on_p99 <= SLO_MS, "on-run plateau p99 {on_p99} ms");
        assert_eq!(on.shed_interactive, 0);
        assert!(on.shed_background >= 1);
        assert!(on.rejected >= 1);
        assert!(on.rejected_with_hint >= 1);
        assert!(on.brownout_transitions >= 1);
        assert!(on.peak_level >= BrownoutLevel::StaleAllowed);

        // Controls off: the same crowd collapses goodput and blows p99
        // out by seconds.
        assert!(
            off.goodput_ratio_bp() < 5_000,
            "off-run goodput ratio {} bp",
            off.goodput_ratio_bp()
        );
        let off_p99 = off.plateau.p99_ms();
        assert!(off_p99 >= 2_000, "off-run plateau p99 {off_p99} ms");
        assert_eq!(off.rejected, 0, "controls off never refuses");
        assert_eq!(off.shed_background, 0, "controls off never sheds");
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = run_city(640, true);
        let mut b = run_city(640, true);
        assert_eq!(a.goodput_ratio_bp(), b.goodput_ratio_bp());
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.shed_background, b.shed_background);
        assert_eq!(a.plateau.p99_ms(), b.plateau.p99_ms());
    }
}

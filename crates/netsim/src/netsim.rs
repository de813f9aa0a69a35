//! [`NetSim`]: the discrete-event loop and the flow network in one.
//!
//! `NetSim` owns a simulated clock, a calendar queue of `u64` tokens and
//! a [`FlowNet`], and never calls back into caller code. A caller
//! schedules a timer with a token, starts a transfer with one, and pulls
//! what fires with [`NetSim::next`]: a [`Fired::Wake`] when a timer comes
//! due, a [`Fired::Done`] when a tokened transfer finishes. The caller's
//! loop owns all the state and dispatches on the token. Ties in event
//! time break by scheduling order, which keeps runs deterministic.
//!
//! The next flow completion is not a queued token but one slot: its
//! instant and the sequence number it took when it was armed. A change
//! to the flow set re-arms the slot, taking a fresh number, only when it
//! moves the next completion, and the loop fires whichever of the slot
//! and the queue's head is first in `(time, seq)` order. When the slot
//! fires, finished flows are drained together and the tokened ones are
//! handed out in drain order before anything else fires.

use crate::calendar::CalendarQueue;
use crate::flow::{AllocStats, FlowId, FlowNet};
use crate::routing::Path;
use crate::time::{SimDuration, SimTime};
use crate::topology::{DirLinkId, NodeId, Topology};
use crate::units::Bandwidth;
use hpop_obs::{event, CounterHandle, HistogramHandle, MetricsRegistry};
use std::collections::{HashMap, VecDeque};

/// Per-link byte counters are only materialised for topologies up to this
/// many directed links; metro-scale topologies would otherwise drown the
/// registry in hundreds of thousands of counters.
const PER_LINK_METRIC_MAX: usize = 4096;

/// Completion details of a finished transfer.
#[derive(Clone, Copy, Debug)]
pub struct TransferInfo {
    /// The finished flow's id.
    pub flow: FlowId,
    /// Total bytes transferred.
    pub bytes: u64,
    /// When the transfer started.
    pub started_at: SimTime,
    /// When the last byte arrived.
    pub completed_at: SimTime,
    /// Mean throughput over the transfer.
    pub mean_rate: Bandwidth,
}

/// What [`NetSim::next`] hands back.
#[derive(Clone, Copy, Debug)]
pub enum Fired {
    /// A scheduled token came due.
    Wake {
        /// The instant it was due: the clock's value now.
        at: SimTime,
        /// The token it was scheduled with.
        token: u64,
    },
    /// A tokened transfer finished.
    Done {
        /// The token it was started with.
        token: u64,
        /// How it went.
        info: TransferInfo,
    },
}

impl Fired {
    /// The token of whatever fired.
    pub fn token(&self) -> u64 {
        match *self {
            Fired::Wake { token, .. } | Fired::Done { token, .. } => token,
        }
    }
}

/// Metric handles resolved once per registry, so the completion path
/// records into atomics instead of doing name lookups (and allocations).
struct MetricHandles {
    flows_started: CounterHandle,
    flows_completed: CounterHandle,
    flows_cancelled: CounterHandle,
    bytes_completed: CounterHandle,
    duration_us: HistogramHandle,
    flow_bytes: HistogramHandle,
    rate_kbps: HistogramHandle,
    /// One byte counter per directed link; empty above
    /// [`PER_LINK_METRIC_MAX`] links.
    link_bytes: Vec<CounterHandle>,
}

impl MetricHandles {
    fn resolve(m: &MetricsRegistry, dir_links: usize) -> Self {
        MetricHandles {
            flows_started: m.counter("netsim.flows.started"),
            flows_completed: m.counter("netsim.flows.completed"),
            flows_cancelled: m.counter("netsim.flows.cancelled"),
            bytes_completed: m.counter("netsim.bytes.completed"),
            duration_us: m.histogram("netsim.flow.duration_us"),
            flow_bytes: m.histogram("netsim.flow.bytes"),
            rate_kbps: m.histogram("netsim.flow.rate_kbps"),
            link_bytes: if dir_links <= PER_LINK_METRIC_MAX {
                (0..dir_links)
                    .map(|i| m.counter(&format!("netsim.link.{i}.bytes")))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }
}

/// The flow network, its flows' tokens and the engine's metrics.
pub struct NetState {
    /// The active-flow network.
    pub net: FlowNet,
    /// Tokened live flows' tokens by raw flow id; a drain skips the
    /// lookup while it is empty, so untokened flows pay nothing.
    tokens: HashMap<u64, u64>,
    metrics: MetricsRegistry,
    handles: MetricHandles,
    /// Tokened completions of the last drained instant not yet handed
    /// out (reused: no allocation in the steady state).
    done: VecDeque<(u64, TransferInfo)>,
}

/// A network simulation: the event loop over a [`FlowNet`].
///
/// ```
/// use hpop_netsim::prelude::*;
///
/// let mut b = TopologyBuilder::new();
/// let x = b.add_node("x");
/// let y = b.add_node("y");
/// b.add_link(x, y, Bandwidth::gbps(1.0), SimDuration::from_millis(1));
/// let mut sim = NetSim::with_topology(b.build());
/// // Token 7 wakes at 1 s and starts a 125 MB transfer, which takes 1 s.
/// sim.schedule_in(SimDuration::from_secs(1), 7);
/// while let Some(fired) = sim.next(SimTime::MAX) {
///     if let Fired::Wake { token: 7, .. } = fired {
///         sim.start_transfer(x, y, 125 * MB, 8);
///     }
/// }
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// assert_eq!(sim.events_run(), 2);
/// ```
pub struct NetSim {
    now: SimTime,
    queue: CalendarQueue<u64>,
    next_seq: u64,
    events_run: u64,
    /// The next flow completion's instant and sequence number, if any
    /// flow can finish.
    completion: Option<(SimTime, u64)>,
    /// The flow network, its tokens and metrics.
    pub state: NetState,
}

impl NetSim {
    /// Creates a network simulation over `topo`, clock at zero.
    pub fn with_topology(topo: Topology) -> NetSim {
        let metrics = MetricsRegistry::new();
        let handles = MetricHandles::resolve(&metrics, topo.dir_link_count());
        NetSim {
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            next_seq: 0,
            events_run: 0,
            completion: None,
            state: NetState {
                net: FlowNet::new(topo),
                tokens: HashMap::new(),
                metrics,
                handles,
                done: VecDeque::new(),
            },
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far: wakes and completion
    /// instants.
    pub fn events_run(&self) -> u64 {
        self.events_run
    }

    /// The registry receiving the engine's per-flow/per-link metrics
    /// (`netsim.flows.*`, `netsim.flow.*`, `netsim.link.*`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.state.metrics
    }

    /// Swaps in a shared registry (e.g. the experiment's), so engine
    /// metrics land in the same snapshot as service metrics. Call before
    /// starting transfers; earlier metrics stay in the old registry.
    pub fn use_metrics(&mut self, metrics: MetricsRegistry) {
        self.state.handles =
            MetricHandles::resolve(&metrics, self.state.net.topology().dir_link_count());
        self.state.metrics = metrics;
    }

    /// Cumulative allocator work counters (see [`AllocStats`]).
    pub fn alloc_stats(&self) -> AllocStats {
        self.state.net.alloc_stats()
    }

    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Schedules `token` to wake at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at(&mut self, at: SimTime, token: u64) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let seq = self.take_seq();
        self.queue.push(at.as_nanos(), seq, token);
    }

    /// Schedules `token` to wake `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, token: u64) {
        self.schedule_at(self.now + delay, token);
    }

    /// Fires events due at or before `until` until one hands something
    /// back; `None` once nothing is left by then (the clock stays put).
    /// A completion instant's [`Fired::Done`]s come first, in drain
    /// order; untokened flows are metered but never handed back.
    pub fn next(&mut self, until: SimTime) -> Option<Fired> {
        loop {
            if let Some((token, info)) = self.state.done.pop_front() {
                return Some(Fired::Done { token, info });
            }
            let (at, seq) = self
                .next_event()
                .filter(|&(at, _)| at <= until.as_nanos())?;
            let at = SimTime::from_nanos(at);
            debug_assert!(at >= self.now);
            self.now = at;
            self.events_run += 1;
            if self.completion == Some((at, seq)) {
                self.completion = None;
                self.drain_completions();
            } else if let Some((_, _, token)) = self.queue.pop_min() {
                return Some(Fired::Wake { at, token });
            }
        }
    }

    /// Runs events until none is left or the clock would pass
    /// `deadline`, dropping what they hand back (the loop for callers
    /// with no tokens in flight); events due exactly at `deadline` do
    /// run. The clock is left at the later of its current value and
    /// `deadline` (so metrics sampled afterwards see the full window).
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.next(deadline).is_some() {}
        self.now = self.now.max(deadline);
    }

    /// The `(time, seq)` of the next event: the completion slot or the
    /// queue's head, whichever is first.
    fn next_event(&self) -> Option<(u64, u64)> {
        let slot = self.completion.map(|(at, seq)| (at.as_nanos(), seq));
        slot.into_iter().chain(self.queue.peek_key()).min()
    }

    /// Starts a transfer on the native route; its completion is handed
    /// back as a [`Fired::Done`] carrying `token`.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` are disconnected (a topology bug in the
    /// experiment, not a runtime condition).
    pub fn start_transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, token: u64) -> FlowId {
        let path = self
            .state
            .net
            .routing()
            .route(src, dst)
            .unwrap_or_else(|| panic!("no route between {src:?} and {dst:?}"));
        self.start_transfer_on_path(&path, bytes, None, token)
    }

    /// Starts a transfer along an explicit [`Path`] (e.g. a detour leg);
    /// its completion is handed back as a [`Fired::Done`] carrying
    /// `token`.
    pub fn start_transfer_on_path(
        &mut self,
        path: &Path,
        bytes: u64,
        cap: Option<Bandwidth>,
        token: u64,
    ) -> FlowId {
        let id = self.start_transfer_on_hops(path.src(), path.dst(), path.hops(), bytes, cap);
        self.state.tokens.insert(id.raw(), token);
        id
    }

    /// Starts an untokened transfer along explicit hops without
    /// constructing a [`Path`] — the allocation-free bulk path
    /// metro-scale workload drivers use. Completion is still metered; it
    /// is just never handed back.
    pub fn start_transfer_on_hops(
        &mut self,
        src: NodeId,
        dst: NodeId,
        hops: &[DirLinkId],
        bytes: u64,
        cap: Option<Bandwidth>,
    ) -> FlowId {
        let id = self
            .state
            .net
            .start_on_hops(src, dst, hops, bytes, cap, self.now);
        self.state.handles.flows_started.incr();
        self.reschedule_completion();
        id
    }

    /// Cancels a flow; its token, if any, is never handed back. Returns
    /// the unfinished byte count, or `None` if unknown/complete.
    pub fn cancel_transfer(&mut self, id: FlowId) -> Option<u64> {
        let left = self.state.net.cancel(id, self.now)?;
        if !self.state.tokens.is_empty() {
            self.state.tokens.remove(&id.raw());
        }
        self.state.handles.flows_cancelled.incr();
        self.reschedule_completion();
        Some(left)
    }

    /// Points the completion slot at the earliest completion instant.
    /// When a flow-set change leaves that instant where it was, the slot
    /// keeps its sequence number; otherwise it is re-armed with a fresh
    /// one, exactly where a newly scheduled event would take it.
    fn reschedule_completion(&mut self) {
        let now = self.now();
        let next = self.state.net.next_completion().map(|(t, _)| t.max(now));
        if next != self.completion.map(|(at, _)| at) {
            self.completion = next.map(|at| (at, self.take_seq()));
        }
    }

    /// Finishes every flow due now: meters each one and queues the
    /// tokened ones' completions for [`NetSim::next`] to hand out.
    fn drain_completions(&mut self) {
        let now = self.now();
        let st = &mut self.state;
        st.net.advance(now);
        let (net, done, tokens, handles) = (&mut st.net, &mut st.done, &mut st.tokens, &st.handles);
        net.drain_completed_with(|id, info, hops| {
            handles.flows_completed.incr();
            handles.bytes_completed.add(info.total_bytes);
            let duration = info.completed_at.saturating_since(info.started_at);
            let dt = duration.as_secs_f64();
            let mean_rate = if dt <= 0.0 {
                Bandwidth::ZERO
            } else {
                Bandwidth::from_bps(info.total_bytes as f64 * 8.0 / dt)
            };
            handles.duration_us.record(duration.as_nanos() / 1_000);
            handles.flow_bytes.record(info.total_bytes);
            handles
                .rate_kbps
                .record((mean_rate.bits_per_sec() / 1e3) as u64);
            if !handles.link_bytes.is_empty() {
                for hop in hops {
                    handles.link_bytes[hop.index()].add(info.total_bytes);
                }
            }
            event!(
                hpop_obs::spans(),
                now.as_nanos() / 1_000,
                "netsim",
                "flow.complete",
                flow = id.raw(),
                bytes = info.total_bytes,
                duration_us = duration.as_nanos() / 1_000,
                hops = hops.len() as u64
            );
            if tokens.is_empty() {
                return;
            }
            if let Some(token) = tokens.remove(&id.raw()) {
                done.push_back((
                    token,
                    TransferInfo {
                        flow: id,
                        bytes: info.total_bytes,
                        started_at: info.started_at,
                        completed_at: info.completed_at,
                        mean_rate,
                    },
                ));
            }
        });
        // Re-arm before handing anything out: the caller may start flows
        // on each completion, which re-arm the slot again.
        self.reschedule_completion();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::topology::TopologyBuilder;
    use crate::units::MB;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pair_sim() -> (NetSim, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        b.add_link(x, y, Bandwidth::gbps(1.0), SimDuration::from_millis(1));
        (NetSim::with_topology(b.build()), x, y)
    }

    /// Everything that fires until nothing is left.
    fn run(sim: &mut NetSim) -> Vec<Fired> {
        std::iter::from_fn(|| sim.next(SimTime::MAX)).collect()
    }

    fn tokens(fired: &[Fired]) -> Vec<u64> {
        fired.iter().map(Fired::token).collect()
    }

    fn done_info(fired: &[Fired]) -> Vec<TransferInfo> {
        fired
            .iter()
            .filter_map(|f| match *f {
                Fired::Done { info, .. } => Some(info),
                Fired::Wake { .. } => None,
            })
            .collect()
    }

    #[test]
    fn events_run_in_time_order() {
        let (mut sim, _, _) = pair_sim();
        for v in [3, 1, 2] {
            sim.schedule_in(SimDuration::from_secs(v), v);
        }
        assert_eq!(tokens(&run(&mut sim)), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let (mut sim, _, _) = pair_sim();
        for v in 0..10 {
            sim.schedule_at(SimTime::from_secs(1), v);
        }
        assert_eq!(tokens(&run(&mut sim)), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let (mut sim, _, _) = pair_sim();
        sim.schedule_in(SimDuration::ZERO, 1);
        while let Some(Fired::Wake { token, .. }) = sim.next(SimTime::MAX) {
            if token < 5 {
                sim.schedule_in(SimDuration::from_millis(10), token + 1);
            }
        }
        assert_eq!(sim.now(), SimTime::from_nanos(40_000_000));
        assert_eq!(sim.events_run(), 5);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let (mut sim, _, _) = pair_sim();
        sim.schedule_in(SimDuration::from_secs(1), 1);
        sim.schedule_in(SimDuration::from_secs(10), 100);
        assert_eq!(sim.next(SimTime::from_secs(5)).map(|f| f.token()), Some(1));
        assert!(sim.next(SimTime::from_secs(5)).is_none());
        assert_eq!(sim.now(), SimTime::from_secs(1));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // The far wake is still pending.
        assert_eq!(tokens(&run(&mut sim)), vec![100]);
    }

    #[test]
    fn deadline_events_inclusive() {
        let (mut sim, x, y) = pair_sim();
        sim.schedule_at(SimTime::from_secs(5), 5);
        // 125 MB at 1 Gbps finishes exactly at the deadline too.
        sim.start_transfer(x, y, 125 * MB, 1);
        assert_eq!(sim.next(SimTime::from_secs(1)).map(|f| f.token()), Some(1));
        assert!(sim.next(SimTime::from_secs(1)).is_none());
        assert_eq!(sim.next(SimTime::from_secs(5)).map(|f| f.token()), Some(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let (mut sim, _, _) = pair_sim();
        sim.schedule_in(SimDuration::from_secs(1), 0);
        sim.next(SimTime::MAX);
        sim.schedule_at(SimTime::ZERO, 0);
    }

    #[test]
    fn event_count_tracks() {
        let (mut sim, x, y) = pair_sim();
        for _ in 0..7 {
            sim.schedule_in(SimDuration::from_millis(1), 0);
        }
        // Two flows finishing together are one completion event.
        sim.start_transfer(x, y, MB, 1);
        sim.start_transfer(x, y, MB, 2);
        assert_eq!(run(&mut sim).len(), 9);
        assert_eq!(sim.events_run(), 8);
    }

    #[test]
    fn completions_at_one_instant_come_out_together() {
        let (mut sim, x, y) = pair_sim();
        sim.start_transfer(x, y, MB, 1);
        sim.start_transfer(x, y, MB, 2);
        // Both finish together; this wake is due then too, but took its
        // sequence number after the completion slot did.
        let (both, _) = sim.state.net.next_completion().expect("flows in flight");
        sim.schedule_at(both, 3);
        let mut order = Vec::new();
        while let Some(f) = sim.next(SimTime::MAX) {
            order.push(f.token());
            if f.token() == 1 {
                // Scheduled now, behind everything already due.
                sim.schedule_in(SimDuration::ZERO, 4);
            }
        }
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn transfer_completes_and_reports() {
        let (mut sim, x, y) = pair_sim();
        sim.start_transfer(x, y, 125 * MB, 9);
        let fired = run(&mut sim);
        assert_eq!(tokens(&fired), vec![9]);
        let info = done_info(&fired)[0];
        assert_eq!(info.bytes, 125 * MB);
        assert!(info.completed_at >= SimTime::from_secs(1));
        assert!((info.mean_rate.bits_per_sec() - 1e9).abs() < 1e4);
    }

    #[test]
    fn handler_can_chain_transfers() {
        let (mut sim, x, y) = pair_sim();
        sim.start_transfer(x, y, 125 * MB, 1);
        let mut log = Vec::new();
        while let Some(Fired::Done { token, info }) = sim.next(SimTime::MAX) {
            log.push(info.completed_at);
            if token == 1 {
                sim.start_transfer(y, x, 125 * MB, 2);
            }
        }
        assert_eq!(log.len(), 2);
        assert!(log[1] > log[0]);
        // Each leg is ~1s (125MB at 1Gbps).
        assert!(log[1].as_secs_f64() > 1.9 && log[1].as_secs_f64() < 2.1);
    }

    #[test]
    fn concurrent_transfers_slow_each_other() {
        let (mut sim, x, y) = pair_sim();
        for t in 0..2 {
            sim.start_transfer(x, y, 125 * MB, t);
        }
        let fired = run(&mut sim);
        assert_eq!(fired.len(), 2);
        // Both share the link: each finishes at ~2s, not 1s.
        for info in done_info(&fired) {
            let t = info.completed_at.as_secs_f64();
            assert!(t > 1.9 && t < 2.1, "finish at {t}");
        }
    }

    #[test]
    fn staggered_arrivals_reallocate() {
        let (mut sim, x, y) = pair_sim();
        // First flow alone for 0.5s, then shares for the remainder.
        sim.start_transfer(x, y, 125 * MB, 1);
        sim.schedule_in(SimDuration::from_nanos(500_000_000), 0);
        let mut first = None;
        while let Some(f) = sim.next(SimTime::MAX) {
            match f {
                Fired::Wake { .. } => {
                    sim.start_transfer(x, y, 125 * MB, 2);
                }
                Fired::Done { token: 1, info } => first = Some(info.completed_at),
                Fired::Done { .. } => {}
            }
        }
        // First flow: 62.5MB in 0.5s alone, then 62.5MB at 0.5Gbps = 1.0s more.
        let t = first.expect("first finished").as_secs_f64();
        assert!((t - 1.5).abs() < 0.01, "first finished at {t}");
    }

    #[test]
    fn cancel_drops_handler() {
        let (mut sim, x, y) = pair_sim();
        let id = sim.start_transfer(x, y, 125 * MB, 1);
        let left = sim.cancel_transfer(id).unwrap();
        assert_eq!(left, 125 * MB);
        assert!(run(&mut sim).is_empty());
        // The emptied flow set disarmed the completion: nothing ran.
        assert_eq!(sim.events_run(), 0);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert!(sim.state.tokens.is_empty());
    }

    #[test]
    fn untokened_flows_are_metered_but_never_handed_back() {
        let (mut sim, x, y) = pair_sim();
        let path = sim.state.net.routing().route(x, y).unwrap();
        sim.start_transfer_on_hops(x, y, path.hops(), MB, None);
        assert!(run(&mut sim).is_empty());
        assert_eq!(sim.events_run(), 1);
        assert_eq!(sim.metrics().counter("netsim.flows.completed").get(), 1);
    }

    #[test]
    fn engine_emits_flow_and_link_metrics() {
        let (mut sim, x, y) = pair_sim();
        sim.start_transfer(x, y, 125 * MB, 0);
        run(&mut sim);
        let m = sim.metrics();
        assert_eq!(m.counter("netsim.flows.started").get(), 1);
        assert_eq!(m.counter("netsim.flows.completed").get(), 1);
        assert_eq!(m.counter("netsim.bytes.completed").get(), 125 * MB);
        assert_eq!(m.histogram("netsim.flow.duration_us").count(), 1);
        assert_eq!(m.histogram("netsim.flow.bytes").load().max(), 125 * MB);
        // The single x→y hop carried every byte.
        let link_bytes: u64 = m
            .metric_names()
            .iter()
            .filter(|n| n.starts_with("netsim.link."))
            .map(|n| m.counter(n).get())
            .sum();
        assert_eq!(link_bytes, 125 * MB);
    }

    #[test]
    fn shared_registry_collects_engine_metrics() {
        let (mut sim, x, y) = pair_sim();
        let reg = hpop_obs::MetricsRegistry::new();
        sim.use_metrics(reg.clone());
        sim.start_transfer(x, y, MB, 0);
        run(&mut sim);
        assert_eq!(reg.counter("netsim.flows.completed").get(), 1);
    }

    /// The state of one [`order_frozen`] script: its randomness, the
    /// running digest, the flows it may cancel and a bound on how many
    /// flows completions chain.
    struct Script {
        rng: StdRng,
        h: u64,
        live: Vec<FlowId>,
        chained: u32,
        nodes: [NodeId; 4],
    }

    impl Script {
        fn eat(&mut self, v: u64) {
            self.h = hpop_obs::mix(self.h ^ v);
        }

        fn pick(&mut self, n: u32) -> u32 {
            self.rng.gen_range(0..n)
        }

        fn node(&mut self) -> NodeId {
            self.nodes[self.pick(4) as usize]
        }

        fn grid(&mut self) -> SimTime {
            SimTime::from_nanos(250_000_000 * u64::from(self.pick(20)))
        }

        /// Starts a flow between two random nodes (the same node twice
        /// is a node-local flow) through one of the three ways in.
        fn start(&mut self, sim: &mut NetSim) {
            let (src, dst) = (self.node(), self.node());
            let bytes = SIZES[self.pick(SIZES.len() as u32) as usize];
            let cap = (self.pick(4) == 0).then(|| Bandwidth::mbps(200.0));
            let id = match self.pick(3) {
                0 => sim.start_transfer(src, dst, bytes, 0),
                1 => {
                    let path = sim.state.net.routing().route(src, dst).unwrap();
                    sim.start_transfer_on_path(&path, bytes, cap, 0)
                }
                _ => {
                    let path = sim.state.net.routing().route(src, dst).unwrap();
                    sim.start_transfer_on_hops(src, dst, path.hops(), bytes, cap)
                }
            };
            self.eat(id.raw());
            self.live.push(id);
        }

        fn act(&mut self, sim: &mut NetSim, tag: u64) {
            match self.pick(8) {
                0..=2 => self.start(sim),
                3 => {
                    let live = self.live.len() as u32;
                    if live > 0 {
                        let k = self.pick(live) as usize;
                        let id = self.live.swap_remove(k);
                        let left = sim.cancel_transfer(id).unwrap_or(u64::MAX);
                        self.eat(left);
                    }
                }
                4 => {
                    // Cancels everything still live: the flow set empties.
                    for id in std::mem::take(&mut self.live) {
                        let left = sim.cancel_transfer(id).unwrap_or(u64::MAX);
                        self.eat(left);
                    }
                }
                5 => sim.schedule_at(sim.now(), tag + 1_000),
                6 => {
                    let at = sim.now().max(self.grid());
                    sim.schedule_at(at, tag + 2_000);
                }
                _ => {}
            }
        }

        /// Digests what fired and acts on it: a wake's `(now, tag)`, a
        /// completion's [`TransferInfo`].
        fn on(&mut self, sim: &mut NetSim, fired: Fired) {
            match fired {
                Fired::Wake { at, token } => {
                    self.eat(at.as_nanos());
                    self.eat(token);
                    self.act(sim, token);
                }
                Fired::Done { info, .. } => {
                    self.eat(info.flow.raw());
                    self.eat(info.bytes);
                    self.eat(info.started_at.as_nanos());
                    self.eat(info.completed_at.as_nanos());
                    self.eat(info.mean_rate.bits_per_sec().to_bits());
                    if self.chained < 24 && self.pick(3) == 0 {
                        self.chained += 1;
                        self.start(sim);
                    }
                }
            }
        }
    }

    /// Sizes that finish on the script's 250 ms grid on an idle link
    /// (125 MB and 31.25 MB at 1 Gbps, 12.5 MB at 100 Mbps), plus empty
    /// and odd ones.
    const SIZES: [u64; 6] = [0, 1_000, 31_250_000, 12_500_000, 125 * MB, 7_777_777];

    /// One seeded script over a hub with a 1 Gbps, a 400 Mbps and a
    /// 100 Mbps spoke: wakes and completions at equal instants, a cancel
    /// that empties the flow set, empty and node-local flows, and
    /// completions that start flows. Returns the digest of every wake's
    /// `(now, tag)` and every handed-back [`TransferInfo`].
    fn order_script(seed: u64) -> u64 {
        let mut b = TopologyBuilder::new();
        let hub = b.add_node("hub");
        let a = b.add_node("a");
        let c = b.add_node("c");
        let d = b.add_node("d");
        let ms = SimDuration::from_millis(1);
        b.add_link(a, hub, Bandwidth::gbps(1.0), ms);
        b.add_link(hub, c, Bandwidth::mbps(400.0), ms);
        b.add_link(hub, d, Bandwidth::mbps(100.0), ms);
        let mut sim = NetSim::with_topology(b.build());
        let mut s = Script {
            rng: StdRng::seed_from_u64(seed),
            h: seed,
            live: Vec::new(),
            chained: 0,
            nodes: [hub, a, c, d],
        };
        // A flow the flow set loses at once, then a lone 125 MB flow at
        // 1 Gbps that finishes at exactly 1 s between two wakes due
        // then, an empty flow and a node-local one.
        let gone = sim.start_transfer(a, hub, MB, 0);
        let left = sim.cancel_transfer(gone).unwrap();
        s.eat(left);
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.start_transfer(a, hub, 125 * MB, 0);
        sim.schedule_at(SimTime::from_secs(1), 2);
        sim.start_transfer(c, d, 0, 0);
        sim.start_transfer(d, d, 500 * MB, 0);
        for tag in 100..124 {
            let at = s.grid();
            sim.schedule_at(at, tag);
        }
        let mid = SimTime::from_nanos(2_500_000_000);
        while let Some(fired) = sim.next(mid) {
            s.on(&mut sim, fired);
        }
        sim.run_until(mid);
        s.eat(sim.now().as_nanos());
        while let Some(fired) = sim.next(SimTime::MAX) {
            s.on(&mut sim, fired);
        }
        s.h
    }

    /// Sixteen seeded scripts, pinned to the digest the engine gave when
    /// every re-armed completion was a closure of its own (the tags and
    /// handlers of those days are tokens now).
    #[test]
    fn order_frozen() {
        let h = (0..16).fold(0, |h, seed| hpop_obs::mix(h ^ order_script(seed)));
        assert_eq!(h, 0x236e_7171_5940_f925);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn disconnected_transfer_panics() {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        let mut sim = NetSim::with_topology(b.build());
        sim.start_transfer(x, y, MB, 0);
    }
}

//! [`NetSim`]: the discrete-event loop and the flow network in one.
//!
//! `NetSim` owns a simulated clock, a calendar queue of scheduled
//! closures and a [`FlowNet`] with per-flow completion handlers.
//! Closures run with mutable access to the whole simulation, so they can
//! inspect state and schedule further events. Ties in event time break
//! by scheduling order, which keeps runs fully deterministic.
//!
//! The next flow completion is not a queued closure but one slot: its
//! instant and the sequence number it took when it was armed. A change
//! to the flow set re-arms the slot, taking a fresh number, only when it
//! moves the next completion, and the loop fires whichever of the slot
//! and the queue's head is first in `(time, seq)` order. When the slot
//! fires, finished flows are drained and their handlers run with full
//! access to the simulation — so a handler can immediately start the
//! next request of a session, which is how the workload drivers operate.

use crate::calendar::CalendarQueue;
use crate::flow::{AllocStats, FlowId, FlowNet};
use crate::routing::Path;
use crate::time::{SimDuration, SimTime};
use crate::topology::{DirLinkId, NodeId, Topology};
use crate::units::Bandwidth;
use hpop_obs::{event, CounterHandle, HistogramHandle, MetricsRegistry};
use std::collections::HashMap;

/// Per-link byte counters are only materialised for topologies up to this
/// many directed links; metro-scale topologies would otherwise drown the
/// registry in hundreds of thousands of counters.
const PER_LINK_METRIC_MAX: usize = 4096;

/// A scheduled closure.
type Event = Box<dyn FnOnce(&mut NetSim)>;

/// Handler invoked when a transfer completes.
pub type TransferHandler = Box<dyn FnOnce(&mut NetSim, TransferInfo)>;

/// Completion details passed to a transfer's handler.
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

/// The flow network and what hangs off its flows: their completion
/// handlers and the engine's metrics.
pub struct NetState {
    /// The active-flow network.
    pub net: FlowNet,
    handlers: HashMap<u64, TransferHandler>,
    metrics: MetricsRegistry,
    handles: MetricHandles,
    /// Reused buffer of completions drained per event (no allocation in
    /// the steady state).
    done: Vec<TransferInfo>,
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
/// // A closure due at 1 s starts a 125 MB transfer, which takes 1 s.
/// sim.schedule_in(SimDuration::from_secs(1), move |sim| {
///     sim.start_transfer(x, y, 125 * MB, |sim, info| {
///         assert_eq!(info.completed_at, sim.now());
///     });
/// });
/// sim.run();
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// assert_eq!(sim.events_run(), 2);
/// ```
pub struct NetSim {
    now: SimTime,
    queue: CalendarQueue<Event>,
    next_seq: u64,
    events_run: u64,
    /// The next flow completion's instant and sequence number, if any
    /// flow can finish.
    completion: Option<(SimTime, u64)>,
    /// The flow network, its handlers and metrics.
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
                handlers: HashMap::new(),
                metrics,
                handles,
                done: Vec::new(),
            },
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far: closures and completion
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

    /// Schedules `event` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at(&mut self, at: SimTime, event: impl FnOnce(&mut NetSim) + 'static) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let seq = self.take_seq();
        self.queue.push(at.as_nanos(), seq, Box::new(event));
    }

    /// Schedules `event` to run `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: impl FnOnce(&mut NetSim) + 'static) {
        self.schedule_at(self.now + delay, event);
    }

    /// Runs events until none is left.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events until none is left or the clock would pass
    /// `deadline`; events due exactly at `deadline` do run. The clock is
    /// left at the later of its current value and `deadline` (so metrics
    /// sampled afterwards see the full window).
    pub fn run_until(&mut self, deadline: SimTime) {
        while self
            .next_event()
            .is_some_and(|(at, _)| at <= deadline.as_nanos())
        {
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// The `(time, seq)` of the next event: the completion slot or the
    /// queue's head, whichever is first.
    fn next_event(&self) -> Option<(u64, u64)> {
        let slot = self.completion.map(|(at, seq)| (at.as_nanos(), seq));
        slot.into_iter().chain(self.queue.peek_key()).min()
    }

    /// Executes the next event, if any. Returns whether one ran.
    fn step(&mut self) -> bool {
        let Some((at, seq)) = self.next_event() else {
            return false;
        };
        let at = SimTime::from_nanos(at);
        debug_assert!(at >= self.now);
        self.now = at;
        self.events_run += 1;
        if self.completion == Some((at, seq)) {
            self.completion = None;
            self.drain_completions();
        } else if let Some((_, _, event)) = self.queue.pop_min() {
            event(self);
        }
        true
    }

    /// Starts a transfer on the native route and registers a completion
    /// handler.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` are disconnected (a topology bug in the
    /// experiment, not a runtime condition).
    pub fn start_transfer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        on_done: impl FnOnce(&mut NetSim, TransferInfo) + 'static,
    ) -> FlowId {
        let path = self
            .state
            .net
            .routing()
            .route(src, dst)
            .unwrap_or_else(|| panic!("no route between {src:?} and {dst:?}"));
        self.start_transfer_on_path(path, bytes, None, on_done)
    }

    /// Starts a transfer along an explicit [`Path`] (e.g. a detour leg).
    pub fn start_transfer_on_path(
        &mut self,
        path: Path,
        bytes: u64,
        cap: Option<Bandwidth>,
        on_done: impl FnOnce(&mut NetSim, TransferInfo) + 'static,
    ) -> FlowId {
        let id = self.start_transfer_on_hops(path.src(), path.dst(), path.hops(), bytes, cap);
        self.state.handlers.insert(id.raw(), Box::new(on_done));
        id
    }

    /// Starts a fire-and-forget transfer along explicit hops without
    /// constructing a [`Path`] or boxing a handler — the allocation-free
    /// bulk path metro-scale workload drivers use. Completion is still
    /// metered; there is just no per-flow callback.
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

    /// Cancels a flow; its handler is dropped without running. Returns the
    /// unfinished byte count, or `None` if unknown/complete.
    pub fn cancel_transfer(&mut self, id: FlowId) -> Option<u64> {
        let left = self.state.net.cancel(id, self.now)?;
        self.state.handlers.remove(&id.raw());
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

    fn drain_completions(&mut self) {
        let now = self.now();
        let st = &mut self.state;
        st.net.advance(now);
        st.done.clear();
        let (net, done, handles) = (&mut st.net, &mut st.done, &st.handles);
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
            done.push(TransferInfo {
                flow: id,
                bytes: info.total_bytes,
                started_at: info.started_at,
                completed_at: info.completed_at,
                mean_rate,
            });
        });
        // Re-arm *before* running handlers: handlers may start flows,
        // which re-arm the slot again.
        self.reschedule_completion();
        for k in 0..self.state.done.len() {
            let info = self.state.done[k];
            if let Some(h) = self.state.handlers.remove(&info.flow.raw()) {
                h(self, info);
            }
        }
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
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn pair_sim() -> (NetSim, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        b.add_link(x, y, Bandwidth::gbps(1.0), SimDuration::from_millis(1));
        (NetSim::with_topology(b.build()), x, y)
    }

    /// A closure that appends `v` to `log`.
    fn push(log: &Rc<RefCell<Vec<u64>>>, v: u64) -> impl FnOnce(&mut NetSim) + 'static {
        let log = log.clone();
        move |_| log.borrow_mut().push(v)
    }

    #[test]
    fn events_run_in_time_order() {
        let (mut sim, _, _) = pair_sim();
        let log = Rc::new(RefCell::new(Vec::new()));
        for v in [3, 1, 2] {
            sim.schedule_in(SimDuration::from_secs(v), push(&log, v));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let (mut sim, _, _) = pair_sim();
        let log = Rc::new(RefCell::new(Vec::new()));
        for v in 0..10 {
            sim.schedule_at(SimTime::from_secs(1), push(&log, v));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        fn tick(sim: &mut NetSim, n: Rc<Cell<u64>>) {
            n.set(n.get() + 1);
            if n.get() < 5 {
                sim.schedule_in(SimDuration::from_millis(10), move |sim| tick(sim, n));
            }
        }
        let (mut sim, _, _) = pair_sim();
        let n = Rc::new(Cell::new(0));
        let n2 = n.clone();
        sim.schedule_in(SimDuration::ZERO, move |sim| tick(sim, n2));
        sim.run();
        assert_eq!(n.get(), 5);
        assert_eq!(sim.now(), SimTime::from_nanos(40_000_000));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let (mut sim, _, _) = pair_sim();
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.schedule_in(SimDuration::from_secs(1), push(&log, 1));
        sim.schedule_in(SimDuration::from_secs(10), push(&log, 100));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(*log.borrow(), vec![1]);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // The far event is still pending and runs on the next full run.
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 100]);
    }

    #[test]
    fn deadline_events_inclusive() {
        let (mut sim, x, y) = pair_sim();
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.schedule_at(SimTime::from_secs(5), push(&log, 5));
        // 125 MB at 1 Gbps finishes exactly at the deadline too.
        let l2 = log.clone();
        sim.start_transfer(x, y, 125 * MB, move |_, _| l2.borrow_mut().push(1));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.borrow(), vec![1]);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(*log.borrow(), vec![1, 5]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let (mut sim, _, _) = pair_sim();
        sim.schedule_in(SimDuration::from_secs(1), |s| {
            s.schedule_at(SimTime::ZERO, |_| {});
        });
        sim.run();
    }

    #[test]
    fn event_count_tracks() {
        let (mut sim, x, y) = pair_sim();
        for _ in 0..7 {
            sim.schedule_in(SimDuration::from_millis(1), |_| {});
        }
        // Two flows finishing together are one completion event.
        sim.start_transfer(x, y, MB, |_, _| {});
        sim.start_transfer(x, y, MB, |_, _| {});
        sim.run();
        assert_eq!(sim.events_run(), 8);
    }

    #[test]
    fn transfer_completes_and_reports() {
        let (mut sim, x, y) = pair_sim();
        let seen = Rc::new(RefCell::new(None));
        let s2 = seen.clone();
        sim.start_transfer(x, y, 125 * MB, move |_, info| {
            *s2.borrow_mut() = Some(info);
        });
        sim.run();
        let info = seen.borrow().unwrap();
        assert_eq!(info.bytes, 125 * MB);
        assert!(info.completed_at >= SimTime::from_secs(1));
        assert!((info.mean_rate.bits_per_sec() - 1e9).abs() < 1e4);
    }

    #[test]
    fn handler_can_chain_transfers() {
        let (mut sim, x, y) = pair_sim();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = log.clone();
        sim.start_transfer(x, y, 125 * MB, move |sim, info| {
            l2.borrow_mut().push(info.completed_at);
            let l3 = l2.clone();
            sim.start_transfer(y, x, 125 * MB, move |_, info| {
                l3.borrow_mut().push(info.completed_at);
            });
        });
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        assert!(log[1] > log[0]);
        // Each leg is ~1s (125MB at 1Gbps).
        assert!(log[1].as_secs_f64() > 1.9 && log[1].as_secs_f64() < 2.1);
    }

    #[test]
    fn concurrent_transfers_slow_each_other() {
        let (mut sim, x, y) = pair_sim();
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let t2 = times.clone();
            sim.start_transfer(x, y, 125 * MB, move |_, info| {
                t2.borrow_mut().push(info.completed_at.as_secs_f64());
            });
        }
        sim.run();
        // Both share the link: each finishes at ~2s, not 1s.
        for &t in times.borrow().iter() {
            assert!(t > 1.9 && t < 2.1, "finish at {t}");
        }
    }

    #[test]
    fn staggered_arrivals_reallocate() {
        let (mut sim, x, y) = pair_sim();
        let t_first = Rc::new(RefCell::new(0.0));
        let tf = t_first.clone();
        // First flow alone for 0.5s, then shares for the remainder.
        sim.start_transfer(x, y, 125 * MB, move |_, info| {
            *tf.borrow_mut() = info.completed_at.as_secs_f64();
        });
        sim.schedule_in(SimDuration::from_nanos(500_000_000), move |sim| {
            sim.start_transfer(x, y, 125 * MB, |_, _| {});
        });
        sim.run();
        // First flow: 62.5MB in 0.5s alone, then 62.5MB at 0.5Gbps = 1.0s more.
        let t = *t_first.borrow();
        assert!((t - 1.5).abs() < 0.01, "first finished at {t}");
    }

    #[test]
    fn cancel_drops_handler() {
        let (mut sim, x, y) = pair_sim();
        let ran = Rc::new(RefCell::new(false));
        let r2 = ran.clone();
        let id = sim.start_transfer(x, y, 125 * MB, move |_, _| {
            *r2.borrow_mut() = true;
        });
        let left = sim.cancel_transfer(id).unwrap();
        assert_eq!(left, 125 * MB);
        sim.run();
        assert!(!*ran.borrow());
        // The emptied flow set disarmed the completion: nothing ran.
        assert_eq!(sim.events_run(), 0);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn engine_emits_flow_and_link_metrics() {
        let (mut sim, x, y) = pair_sim();
        sim.start_transfer(x, y, 125 * MB, |_, _| {});
        sim.run();
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
        sim.start_transfer(x, y, MB, |_, _| {});
        sim.run();
        assert_eq!(reg.counter("netsim.flows.completed").get(), 1);
    }

    /// The shared state of one [`order_frozen`] script: its randomness,
    /// the running digest, the flows it may cancel and a bound on how
    /// many flows handlers chain.
    struct Script {
        rng: RefCell<StdRng>,
        h: Cell<u64>,
        live: RefCell<Vec<FlowId>>,
        chained: Cell<u32>,
        nodes: [NodeId; 4],
    }

    impl Script {
        fn eat(&self, v: u64) {
            self.h.set(hpop_obs::mix(self.h.get() ^ v));
        }

        fn pick(&self, n: u32) -> u32 {
            self.rng.borrow_mut().gen_range(0..n)
        }

        fn node(&self) -> NodeId {
            self.nodes[self.pick(4) as usize]
        }
    }

    /// Sizes that finish on the script's 250 ms grid on an idle link
    /// (125 MB and 31.25 MB at 1 Gbps, 12.5 MB at 100 Mbps), plus empty
    /// and odd ones.
    const SIZES: [u64; 6] = [0, 1_000, 31_250_000, 12_500_000, 125 * MB, 7_777_777];

    fn grid(s: &Script) -> SimTime {
        SimTime::from_nanos(250_000_000 * u64::from(s.pick(20)))
    }

    fn closure_at(sim: &mut NetSim, s: &Rc<Script>, at: SimTime, tag: u64) {
        let s = s.clone();
        sim.schedule_at(at, move |sim| {
            s.eat(sim.now().as_nanos());
            s.eat(tag);
            act(sim, &s, tag);
        });
    }

    fn on_done(s: &Rc<Script>) -> impl FnOnce(&mut NetSim, TransferInfo) + 'static {
        let s = s.clone();
        move |sim, info| {
            s.eat(info.flow.raw());
            s.eat(info.bytes);
            s.eat(info.started_at.as_nanos());
            s.eat(info.completed_at.as_nanos());
            s.eat(info.mean_rate.bits_per_sec().to_bits());
            if s.chained.get() < 24 && s.pick(3) == 0 {
                s.chained.set(s.chained.get() + 1);
                start(sim, &s);
            }
        }
    }

    /// Starts a flow between two random nodes (the same node twice is a
    /// node-local flow) through one of the three ways in.
    fn start(sim: &mut NetSim, s: &Rc<Script>) {
        let (src, dst) = (s.node(), s.node());
        let bytes = SIZES[s.pick(SIZES.len() as u32) as usize];
        let cap = (s.pick(4) == 0).then(|| Bandwidth::mbps(200.0));
        let id = match s.pick(3) {
            0 => sim.start_transfer(src, dst, bytes, on_done(s)),
            1 => {
                let path = sim.state.net.routing().route(src, dst).unwrap();
                sim.start_transfer_on_path(path, bytes, cap, on_done(s))
            }
            _ => {
                let path = sim.state.net.routing().route(src, dst).unwrap();
                sim.start_transfer_on_hops(src, dst, path.hops(), bytes, cap)
            }
        };
        s.eat(id.raw());
        s.live.borrow_mut().push(id);
    }

    fn act(sim: &mut NetSim, s: &Rc<Script>, tag: u64) {
        match s.pick(8) {
            0..=2 => start(sim, s),
            3 => {
                let live = s.live.borrow().len() as u32;
                if live > 0 {
                    let id = s.live.borrow_mut().swap_remove(s.pick(live) as usize);
                    s.eat(sim.cancel_transfer(id).unwrap_or(u64::MAX));
                }
            }
            4 => {
                // Cancels everything still live: the flow set empties.
                let ids = std::mem::take(&mut *s.live.borrow_mut());
                for id in ids {
                    s.eat(sim.cancel_transfer(id).unwrap_or(u64::MAX));
                }
            }
            5 => closure_at(sim, s, sim.now(), tag + 1_000),
            6 => {
                let at = sim.now().max(grid(s));
                closure_at(sim, s, at, tag + 2_000);
            }
            _ => {}
        }
    }

    /// One seeded script over a hub with a 1 Gbps, a 400 Mbps and a
    /// 100 Mbps spoke: closures and completions at equal instants, a
    /// cancel that empties the flow set, empty and node-local flows,
    /// and handlers that start flows. Returns the digest of every
    /// closure's `(now, tag)` and every handler's [`TransferInfo`].
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
        let s = Rc::new(Script {
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
            h: Cell::new(seed),
            live: RefCell::new(Vec::new()),
            chained: Cell::new(0),
            nodes: [hub, a, c, d],
        });
        // A flow the flow set loses at once, then a lone 125 MB flow at
        // 1 Gbps that finishes at exactly 1 s between two closures due
        // then, an empty flow and a node-local one.
        let gone = sim.start_transfer(a, hub, MB, on_done(&s));
        s.eat(sim.cancel_transfer(gone).unwrap());
        closure_at(&mut sim, &s, SimTime::from_secs(1), 1);
        sim.start_transfer(a, hub, 125 * MB, on_done(&s));
        closure_at(&mut sim, &s, SimTime::from_secs(1), 2);
        sim.start_transfer(c, d, 0, on_done(&s));
        sim.start_transfer(d, d, 500 * MB, on_done(&s));
        for tag in 100..124 {
            let at = grid(&s);
            closure_at(&mut sim, &s, at, tag);
        }
        sim.run_until(SimTime::from_nanos(2_500_000_000));
        s.eat(sim.now().as_nanos());
        sim.run();
        s.h.get()
    }

    /// Sixteen seeded scripts, pinned to the digest the engine gave when
    /// every re-armed completion was a closure of its own.
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
        sim.start_transfer(x, y, MB, |_, _| {});
    }
}

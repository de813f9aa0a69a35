//! [`NetSim`]: the event engine and flow network glued together.
//!
//! `NetSim` is a [`Sim`] whose state is a [`FlowNet`] plus per-flow
//! completion handlers. Starting a transfer schedules (and keeps
//! rescheduling, via an epoch counter) a single "next completion" event;
//! when it fires, finished flows are drained and their handlers run with
//! full access to the simulation — so a handler can immediately start the
//! next request of a session, which is how the workload drivers operate.

use crate::engine::Sim;
use crate::flow::{AllocStats, FlowId, FlowNet};
use crate::routing::Path;
use crate::time::SimTime;
use crate::topology::{DirLinkId, NodeId, Topology};
use crate::units::Bandwidth;
use hpop_obs::{event, CounterHandle, HistogramHandle, MetricsRegistry, SpanTracer, TraceCtx};
use std::collections::HashMap;

/// Per-link byte counters are only materialised for topologies up to this
/// many directed links; metro-scale topologies would otherwise drown the
/// registry in hundreds of thousands of counters.
const PER_LINK_METRIC_MAX: usize = 4096;

/// Handler invoked when a transfer completes.
pub type TransferHandler = Box<dyn FnOnce(&mut NetSim, TransferInfo)>;

/// Completion details passed to a transfer's handler.
#[derive(Clone, Debug)]
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
    /// Causal context carried by the flow ([`TraceCtx::NONE`] when
    /// untraced).
    pub ctx: TraceCtx,
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

/// The network-simulation state carried inside the event engine.
pub struct NetState {
    /// The active-flow network.
    pub net: FlowNet,
    handlers: HashMap<u64, TransferHandler>,
    epoch: u64,
    /// Instant of the currently scheduled completion event (so a
    /// reallocation that doesn't move the next completion doesn't
    /// schedule a redundant event).
    pending_at: Option<SimTime>,
    metrics: MetricsRegistry,
    handles: MetricHandles,
    /// Reused buffer of completions drained per event (no allocation in
    /// the steady state).
    done: Vec<(FlowId, TransferInfo)>,
}

impl std::fmt::Debug for NetState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetState")
            .field("active_flows", &self.net.active_count())
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// A network simulation: the event engine specialised to a [`FlowNet`].
pub type NetSim = Sim<NetState>;

impl Sim<NetState> {
    /// Creates a network simulation over `topo`, clock at zero.
    pub fn with_topology(topo: Topology) -> NetSim {
        let metrics = MetricsRegistry::new();
        let handles = MetricHandles::resolve(&metrics, topo.dir_link_count());
        Sim::new(NetState {
            net: FlowNet::new(topo),
            handlers: HashMap::new(),
            epoch: 0,
            pending_at: None,
            metrics,
            handles,
            done: Vec::new(),
        })
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
        self.start_transfer_capped(src, dst, bytes, None, on_done)
    }

    /// Forwards a span tracer to the flow network (see
    /// [`FlowNet::set_span_tracer`]).
    pub fn set_span_tracer(&mut self, spans: SpanTracer) {
        self.state.net.set_span_tracer(spans);
    }

    /// Starts a rate-capped transfer on the native route.
    pub fn start_transfer_capped(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cap: Option<Bandwidth>,
        on_done: impl FnOnce(&mut NetSim, TransferInfo) + 'static,
    ) -> FlowId {
        self.start_transfer_traced(src, dst, bytes, cap, TraceCtx::NONE, on_done)
    }

    /// Starts a transfer carrying the causal context of the request it
    /// serves; the flow records a `"transfer"` span on completion when
    /// the context is sampled and a tracer is attached.
    pub fn start_transfer_traced(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cap: Option<Bandwidth>,
        ctx: TraceCtx,
        on_done: impl FnOnce(&mut NetSim, TransferInfo) + 'static,
    ) -> FlowId {
        let now = self.now();
        let id = self
            .state
            .net
            .start_traced(src, dst, bytes, cap, now, ctx)
            .unwrap_or_else(|| panic!("no route between {src:?} and {dst:?}"));
        self.state.handlers.insert(id.raw(), Box::new(on_done));
        self.state.handles.flows_started.incr();
        self.reschedule_completion();
        id
    }

    /// Starts a transfer along an explicit [`Path`] (e.g. a detour leg).
    pub fn start_transfer_on_path(
        &mut self,
        path: Path,
        bytes: u64,
        cap: Option<Bandwidth>,
        on_done: impl FnOnce(&mut NetSim, TransferInfo) + 'static,
    ) -> FlowId {
        let now = self.now();
        let id = self.state.net.start_on_path(path, bytes, cap, now);
        self.state.handlers.insert(id.raw(), Box::new(on_done));
        self.state.handles.flows_started.incr();
        self.reschedule_completion();
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
        let now = self.now();
        let id = self
            .state
            .net
            .start_on_hops(src, dst, hops, bytes, cap, now, TraceCtx::NONE);
        self.state.handles.flows_started.incr();
        self.reschedule_completion();
        id
    }

    /// Adjusts a flow's rate cap mid-transfer (cwnd evolution).
    pub fn set_flow_cap(&mut self, id: FlowId, cap: Option<Bandwidth>) {
        let now = self.now();
        self.state.net.set_cap(id, cap, now);
        self.reschedule_completion();
    }

    /// Cancels a flow; its handler is dropped without running. Returns the
    /// unfinished byte count, or `None` if unknown/complete.
    pub fn cancel_transfer(&mut self, id: FlowId) -> Option<u64> {
        let now = self.now();
        let left = self.state.net.cancel(id, now)?;
        self.state.handlers.remove(&id.raw());
        self.state.handles.flows_cancelled.incr();
        self.reschedule_completion();
        Some(left)
    }

    /// Ensures a completion event is pending at the earliest completion
    /// instant. When a flow-set change leaves the next completion where
    /// it was, the already-scheduled event is kept; otherwise it is
    /// invalidated (by bumping the epoch) and a fresh one scheduled.
    fn reschedule_completion(&mut self) {
        let now = self.now();
        let next = self.state.net.next_completion().map(|(t, _)| t.max(now));
        if next == self.state.pending_at {
            return; // the pending event already fires at the right instant
        }
        self.state.epoch += 1;
        let epoch = self.state.epoch;
        self.state.pending_at = next;
        if let Some(at) = next {
            self.schedule_at(at, move |sim| {
                if sim.state.epoch != epoch {
                    return; // superseded by a later flow-set change
                }
                sim.state.pending_at = None;
                sim.drain_completions();
            });
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
                hpop_obs::tracer(),
                now.as_nanos() / 1_000,
                "netsim",
                "flow.complete",
                flow = id.raw(),
                bytes = info.total_bytes,
                duration_us = duration.as_nanos() / 1_000,
                hops = hops.len() as u64
            );
            done.push((
                id,
                TransferInfo {
                    flow: id,
                    bytes: info.total_bytes,
                    started_at: info.started_at,
                    completed_at: info.completed_at,
                    mean_rate,
                    ctx: info.ctx,
                },
            ));
        });
        // Reschedule *before* running handlers: handlers may start flows,
        // which reschedules again with a fresher epoch.
        self.reschedule_completion();
        for k in 0..self.state.done.len() {
            let (id, info) = self.state.done[k].clone();
            if let Some(h) = self.state.handlers.remove(&id.raw()) {
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
    use std::cell::RefCell;
    use std::rc::Rc;

    fn pair_sim() -> (NetSim, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        b.add_link(x, y, Bandwidth::gbps(1.0), SimDuration::from_millis(1));
        (NetSim::with_topology(b.build()), x, y)
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
        let info = seen.borrow().clone().unwrap();
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
    }

    #[test]
    fn cap_changes_mid_flight() {
        let (mut sim, x, y) = pair_sim();
        let done = Rc::new(RefCell::new(0.0));
        let d2 = done.clone();
        let id = sim.start_transfer_capped(
            x,
            y,
            125 * MB,
            Some(Bandwidth::mbps(500.0)),
            move |_, info| {
                *d2.borrow_mut() = info.completed_at.as_secs_f64();
            },
        );
        // After 1s at 500 Mbps (62.5 MB done), lift the cap.
        sim.schedule_in(SimDuration::from_secs(1), move |sim| {
            sim.set_flow_cap(id, None);
        });
        sim.run();
        // Remaining 62.5MB at 1Gbps = 0.5s: total 1.5s.
        let t = *done.borrow();
        assert!((t - 1.5).abs() < 0.01, "finished at {t}");
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

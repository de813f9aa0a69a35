//! The active-flow set: rate allocation and progress bookkeeping.
//!
//! [`FlowNet`] tracks every in-flight transfer, its path, remaining bytes
//! and current max-min fair rate. Rates only change when the flow set (or
//! a rate cap) changes, so the simulator advances analytically between
//! such events — the key to simulating years of HPoP uptime in
//! milliseconds of wall-clock time.
//!
//! ## Metro-scale engine
//!
//! This module is built for 10⁵–10⁶ concurrent flows:
//!
//! - **Arena storage.** Flows live in a slab of [`Slot`]s addressed by a
//!   generational [`FlowId`] (index + generation, so stale ids never
//!   alias a reused slot). Freed slots keep their `Vec` capacities, so a
//!   warmed-up network runs its steady state without heap allocation.
//! - **Per-link flow lists.** Every directed link knows exactly which
//!   flows cross it (swap-remove lists with back-pointers), which is
//!   what makes *incremental* re-allocation possible.
//! - **Incremental max-min.** A flow arrival/departure/cap change
//!   re-solves only the flows whose rates can actually change: the seed
//!   flow plus, transitively, the bottleneck sets of every link whose
//!   fair-share level moved (see [`FlowNet::reallocate`]). When a ripple
//!   grows past half the live flows it re-solves all of them in one
//!   round instead. The classic global progressive-filling solve,
//!   [`crate::fairshare::max_min_rates`], is the oracle the allocator is
//!   property-tested against.
//! - **Lazy settling.** A flow's `remaining` is stored as-of its
//!   `touched_at` instant and only *settled* (progressed to the clock)
//!   when its rate is about to change or it completes. Queries compute
//!   progress virtually, so `advance` is O(1).
//! - **Completion heap.** Projected completion instants live in a
//!   lazy-deletion binary heap; entries are invalidated by a per-slot
//!   `rate_epoch` instead of being removed, so `next_completion` never
//!   scans the flow set.

use crate::routing::{Path, RoutingTable};
use crate::time::{SimDuration, SimTime};
use crate::topology::{DirLinkId, NodeId, Topology};
use crate::units::Bandwidth;
use hpop_obs::{SpanTracer, TraceCtx};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies an active (or completed) flow: a slab index plus a
/// generation, so ids from a previous occupant of the slot don't alias.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId {
    idx: u32,
    gen: u32,
}

impl FlowId {
    /// A packed form of the id (generation in the high bits), unique for
    /// the lifetime of a [`FlowNet`].
    pub fn raw(self) -> u64 {
        (self.gen as u64) << 32 | self.idx as u64
    }
}

/// Counters describing how much work the allocator has done. All values
/// are cumulative since construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocStats {
    /// Re-allocation passes triggered by flow-set/cap changes.
    pub reallocations: u64,
    /// Total flows re-solved across all passes (the |U| sets).
    pub flows_reallocated: u64,
    /// Flows whose rate actually changed.
    pub rate_changes: u64,
    /// Link visits during re-allocation (touched-link set sizes).
    pub links_touched: u64,
    /// Restricted progressive-filling rounds run.
    pub fill_rounds: u64,
    /// Passes that fell back to re-solving every live flow.
    pub full_resolves: u64,
    /// Per-link flow-list scans forced by fair-share violations.
    pub list_scans: u64,
    /// Entries pushed into the completion heap.
    pub heap_pushes: u64,
}

/// Where a flow's rate is pinned in the current allocation.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Bneck {
    /// Not yet assigned (mid-ripple, or a dead slot).
    Floating,
    /// Limited by its own rate cap (or unbounded & linkless).
    Cap,
    /// Bottlenecked at this directed link (index into the link table).
    Link(u32),
}

/// One arena slot. Vec capacities (`hops`, `link_pos`) survive free/reuse
/// so steady-state churn does not allocate.
#[derive(Debug)]
struct Slot {
    live: bool,
    gen: u32,
    /// Global start order; completion tie-break and "id order" sorting.
    seq: u64,
    src: NodeId,
    dst: NodeId,
    hops: Vec<DirLinkId>,
    /// Position of this flow inside `links[hops[i]].flows`.
    link_pos: Vec<u32>,
    total_bytes: u64,
    /// Bytes left as of `touched_at` (not necessarily "now").
    remaining: f64,
    touched_at: SimTime,
    /// `f64::INFINITY` when uncapped.
    cap_bps: f64,
    rate_bps: f64,
    /// Bumped whenever `rate_bps` changes (and on free); completion-heap
    /// entries carrying an older epoch are dead.
    rate_epoch: u32,
    bneck: Bneck,
    /// Position inside the bottleneck link's `bneck_flows` list.
    bneck_pos: u32,
    /// Rate on entry to the current ripple (for change detection).
    prev_rate: f64,
    /// == current ripple id while the flow is in the unfrozen set U.
    u_stamp: u64,
    /// == current fill id once progressive filling has fixed this flow.
    fix_stamp: u64,
    started_at: SimTime,
    ctx: TraceCtx,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            live: false,
            gen: 0,
            seq: 0,
            src: NodeId(0),
            dst: NodeId(0),
            hops: Vec::new(),
            link_pos: Vec::new(),
            total_bytes: 0,
            remaining: 0.0,
            touched_at: SimTime::ZERO,
            cap_bps: f64::INFINITY,
            rate_bps: 0.0,
            rate_epoch: 0,
            bneck: Bneck::Floating,
            bneck_pos: 0,
            prev_rate: 0.0,
            u_stamp: 0,
            fix_stamp: 0,
            started_at: SimTime::ZERO,
            ctx: TraceCtx::NONE,
        }
    }
}

/// Per-directed-link allocator state. `load` uses Kahan compensated
/// summation so incremental add/subtract cycles don't drift; links with
/// few flows are additionally recomputed exactly after every ripple.
#[derive(Debug)]
struct LinkState {
    cap: f64,
    /// Slot indices of flows crossing this link (unordered, swap-remove).
    flows: Vec<u32>,
    /// Slot indices of flows whose bottleneck is this link.
    bneck_flows: Vec<u32>,
    load: f64,
    load_c: f64,
    /// Fair-share level of the link's bottleneck set (meaningful only
    /// while `bneck_flows` is non-empty).
    level: f64,
    // ---- per-ripple-round scratch (valid while stamp matches) ----
    stamp: u64,
    /// Unfixed U-flows crossing this link during the current fill.
    active: u32,
    /// Total U-flows crossing this link this round.
    u_count: u32,
    /// Residual capacity during the current fill.
    resid: f64,
    /// Largest rate re-attached to this link this round.
    max_added: f64,
    /// Fair share assigned to U-flows bottlenecked here this round.
    new_share: f64,
    has_new_share: bool,
    /// Bottleneck-set entries pushed this round (vs frozen ones).
    new_bneck: u32,
    /// Fill-iteration marker for bottleneck-link identification.
    bneck_mark: u64,
}

impl LinkState {
    fn new(cap: f64) -> Self {
        LinkState {
            cap,
            flows: Vec::new(),
            bneck_flows: Vec::new(),
            load: 0.0,
            load_c: 0.0,
            level: 0.0,
            stamp: 0,
            active: 0,
            u_count: 0,
            resid: 0.0,
            max_added: 0.0,
            new_share: 0.0,
            has_new_share: false,
            new_bneck: 0,
            bneck_mark: 0,
        }
    }

    /// Kahan-compensated `load += x`.
    fn add_load(&mut self, x: f64) {
        let y = x - self.load_c;
        let t = self.load + y;
        self.load_c = (t - self.load) - y;
        self.load = t;
    }

    fn spare(&self) -> f64 {
        self.cap - self.load
    }

    /// Absolute slack below which the link counts as saturated.
    fn eps(&self) -> f64 {
        self.cap * 1e-9 + 1e-3
    }
}

/// A lazy-deletion completion-heap entry; compared `(at, seq, idx, _)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct ComplEntry {
    at_ns: u64,
    seq: u64,
    idx: u32,
    epoch: u32,
}

/// `a` is meaningfully greater than `b` (relative + tiny absolute slack).
fn rate_gt(a: f64, b: f64) -> bool {
    a > b + a.abs().max(b.abs()) * 1e-9 + 1e-3
}

/// Rates equal within allocator tolerance (handles ±inf).
fn rates_close(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    (a - b).abs() <= a.abs().max(b.abs()) * 1e-9 + 1e-3
}

/// Borrow-free completion summary handed to
/// [`FlowNet::drain_completed_with`] callbacks.
#[derive(Clone, Copy, Debug)]
pub struct CompletedInfo {
    /// Total bytes transferred.
    pub total_bytes: u64,
    /// When the flow started.
    pub started_at: SimTime,
    /// When the last byte was delivered.
    pub completed_at: SimTime,
    /// Causal context carried by the flow.
    pub ctx: TraceCtx,
    /// Origin node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// The set of active flows over a topology, with max-min fair rates.
///
/// `FlowNet` is driven by a scheduler (see [`crate::netsim::NetSim`]):
/// the owner calls [`FlowNet::advance`] to move the clock, then asks for
/// the next completion. Flow progress is settled lazily.
#[derive(Debug)]
pub struct FlowNet {
    topo: Topology,
    routing: RoutingTable,
    clock: SimTime,
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
    links: Vec<LinkState>,
    /// Cumulative settled bytes per directed link (metrics).
    settled_bytes: Vec<f64>,
    compl: BinaryHeap<Reverse<ComplEntry>>,
    spans: Option<SpanTracer>,
    stats: AllocStats,
    /// Monotone stamp source for ripples/fills/marks.
    stamp: u64,
    // ---- reusable scratch (no steady-state allocation) ----
    u: Vec<u32>,
    touched: Vec<u32>,
    caps_sorted: Vec<(f64, u32)>,
    due: Vec<(u64, u32)>,
}

impl FlowNet {
    /// Creates an empty flow network over `topo`.
    pub fn new(topo: Topology) -> Self {
        let links = (0..topo.dir_link_count())
            .map(|i| LinkState::new(topo.dir_capacity(DirLinkId(i as u32)).bits_per_sec()))
            .collect();
        let settled_bytes = vec![0.0; topo.dir_link_count()];
        FlowNet {
            routing: RoutingTable::new(&topo),
            topo,
            clock: SimTime::ZERO,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            links,
            settled_bytes,
            compl: BinaryHeap::new(),
            spans: None,
            stats: AllocStats::default(),
            stamp: 0,
            u: Vec::new(),
            touched: Vec::new(),
            caps_sorted: Vec::new(),
            due: Vec::new(),
        }
    }

    /// Cumulative allocator work counters.
    pub fn alloc_stats(&self) -> AllocStats {
        self.stats
    }

    /// Attaches a span tracer: every flow started with a sampled
    /// [`TraceCtx`] records a `"transfer"` child span over its
    /// start→completion interval when it finishes.
    pub fn set_span_tracer(&mut self, spans: SpanTracer) {
        self.spans = Some(spans);
    }

    /// The topology flows run over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable access to the routing table (native + detour routes).
    pub fn routing(&mut self) -> &mut RoutingTable {
        &mut self.routing
    }

    /// Number of currently active flows.
    pub fn active_count(&self) -> usize {
        self.live
    }

    fn bump_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    fn get(&self, id: FlowId) -> Option<usize> {
        let i = id.idx as usize;
        let s = self.slots.get(i)?;
        (s.live && s.gen == id.gen).then_some(i)
    }

    // ------------------------------------------------------------------
    // Starting flows
    // ------------------------------------------------------------------

    /// Starts a flow along the native (latency-shortest) route.
    ///
    /// Returns `None` if `src` and `dst` are disconnected.
    pub fn start(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cap: Option<Bandwidth>,
        now: SimTime,
    ) -> Option<FlowId> {
        self.start_traced(src, dst, bytes, cap, now, TraceCtx::NONE)
    }

    /// [`FlowNet::start`] carrying the causal context of the request
    /// the transfer serves. A sampled context yields a `"transfer"`
    /// span on completion (when a tracer is attached).
    pub fn start_traced(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cap: Option<Bandwidth>,
        now: SimTime,
        ctx: TraceCtx,
    ) -> Option<FlowId> {
        let path = self.routing.route(src, dst)?;
        Some(self.start_on_path_traced(path, bytes, cap, now, ctx))
    }

    /// Starts a flow along an explicit path (e.g. a detour).
    pub fn start_on_path(
        &mut self,
        path: Path,
        bytes: u64,
        cap: Option<Bandwidth>,
        now: SimTime,
    ) -> FlowId {
        self.start_on_path_traced(path, bytes, cap, now, TraceCtx::NONE)
    }

    /// [`FlowNet::start_on_path`] with a causal context.
    pub fn start_on_path_traced(
        &mut self,
        path: Path,
        bytes: u64,
        cap: Option<Bandwidth>,
        now: SimTime,
        ctx: TraceCtx,
    ) -> FlowId {
        self.start_on_hops(path.src(), path.dst(), path.hops(), bytes, cap, now, ctx)
    }

    /// Starts a flow along explicit hops without constructing a [`Path`]
    /// — the allocation-free fast path for metro-scale drivers. The hops
    /// must form a contiguous `src → dst` walk (checked in debug builds).
    #[allow(clippy::too_many_arguments)]
    pub fn start_on_hops(
        &mut self,
        src: NodeId,
        dst: NodeId,
        hops: &[DirLinkId],
        bytes: u64,
        cap: Option<Bandwidth>,
        now: SimTime,
        ctx: TraceCtx,
    ) -> FlowId {
        #[cfg(debug_assertions)]
        {
            let mut at = src;
            for &h in hops {
                debug_assert_eq!(self.topo.dir_from(h), at, "discontiguous hop {h:?}");
                at = self.topo.dir_to(h);
            }
            debug_assert_eq!(at, dst, "path does not terminate at {dst:?}");
        }
        self.advance(now);
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot::empty());
                (self.slots.len() - 1) as u32
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let gen = {
            let s = &mut self.slots[idx as usize];
            s.live = true;
            s.seq = seq;
            s.src = src;
            s.dst = dst;
            s.hops.clear();
            s.hops.extend_from_slice(hops);
            s.link_pos.clear();
            s.link_pos.resize(hops.len(), 0);
            s.total_bytes = bytes;
            s.remaining = bytes as f64;
            s.touched_at = now;
            s.started_at = now;
            s.cap_bps = cap.map_or(f64::INFINITY, |c| c.bits_per_sec());
            s.rate_bps = 0.0;
            s.bneck = Bneck::Floating;
            s.prev_rate = 0.0;
            s.ctx = ctx;
            s.gen
        };
        self.live += 1;
        for (h, hop) in hops.iter().enumerate() {
            let li = hop.index();
            self.slots[idx as usize].link_pos[h] = self.links[li].flows.len() as u32;
            self.links[li].flows.push(idx);
        }
        let ripple = self.bump_stamp();
        self.seed(idx, ripple);
        self.reallocate(ripple);
        if self.slots[idx as usize].remaining <= 0.0 {
            // Zero-byte flows complete "now" even if starved.
            self.push_completion(idx);
        }
        FlowId { idx, gen }
    }

    // ------------------------------------------------------------------
    // Mutation & queries
    // ------------------------------------------------------------------

    /// Updates a flow's rate cap (the transport model's cwnd ceiling).
    /// No-op for unknown/completed flows.
    pub fn set_cap(&mut self, id: FlowId, cap: Option<Bandwidth>, now: SimTime) {
        self.advance(now);
        let Some(i) = self.get(id) else { return };
        self.slots[i].cap_bps = cap.map_or(f64::INFINITY, |c| c.bits_per_sec());
        let ripple = self.bump_stamp();
        self.seed(i as u32, ripple);
        self.reallocate(ripple);
    }

    /// Aborts a flow, returning its unfinished byte count (`None` if the
    /// flow is unknown or already complete).
    pub fn cancel(&mut self, id: FlowId, now: SimTime) -> Option<u64> {
        self.advance(now);
        let i = self.get(id)?;
        self.settle(i as u32);
        let left = self.slots[i].remaining.ceil() as u64;
        let ripple = self.bump_stamp();
        self.remove_flow(i as u32, ripple);
        self.reallocate(ripple);
        Some(left)
    }

    /// The current allocated rate of a flow.
    pub fn rate(&self, id: FlowId) -> Option<Bandwidth> {
        self.get(id).map(|i| {
            let r = self.slots[i].rate_bps;
            if r.is_finite() {
                Bandwidth::from_bps(r)
            } else {
                Bandwidth::from_bps(f64::MAX / 1e3)
            }
        })
    }

    /// Remaining bytes of a flow (virtually progressed to the clock).
    pub fn remaining(&self, id: FlowId) -> Option<u64> {
        self.get(id).map(|i| {
            let s = &self.slots[i];
            if s.rate_bps.is_infinite() {
                return 0;
            }
            let dt = self.clock.since(s.touched_at).as_secs_f64();
            let rem = (s.remaining - s.rate_bps / 8.0 * dt).max(0.0);
            rem.ceil() as u64
        })
    }

    /// Cumulative bytes carried by a directed link since the start
    /// (settled bytes plus the virtual progress of flows in flight).
    pub fn link_bytes(&self, dir: DirLinkId) -> f64 {
        let li = dir.index();
        let mut total = self.settled_bytes[li];
        for &f in &self.links[li].flows {
            let s = &self.slots[f as usize];
            if s.rate_bps.is_finite() {
                let dt = self.clock.since(s.touched_at).as_secs_f64();
                total += (s.rate_bps / 8.0 * dt).min(s.remaining);
            }
        }
        total
    }

    /// Moves the clock to `now`. Flows settle lazily, so this is O(1).
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the internal clock (a driver bug).
    pub fn advance(&mut self, now: SimTime) {
        assert!(now >= self.clock, "FlowNet clock moved backwards");
        self.clock = now;
    }

    /// The instant and id of the next flow to finish, given current
    /// rates. Completion times are rounded *up* to the next nanosecond so
    /// that advancing to the returned instant always drains the flow.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        loop {
            let Reverse(e) = *self.compl.peek()?;
            if !self.entry_valid(e) {
                self.compl.pop();
                continue;
            }
            let id = FlowId {
                idx: e.idx,
                gen: self.slots[e.idx as usize].gen,
            };
            return Some((SimTime::from_nanos(e.at_ns), id));
        }
    }

    /// Removes and returns flows that have finished (zero bytes left),
    /// in start order.
    pub fn take_completed(&mut self) -> Vec<(FlowId, CompletedFlow)> {
        let mut out = Vec::new();
        self.drain_completed_with(|id, info, hops| {
            let cf = CompletedFlow {
                path: Path::from_raw(info.src, info.dst, hops.to_vec()),
                total_bytes: info.total_bytes,
                started_at: info.started_at,
                completed_at: info.completed_at,
                ctx: info.ctx,
            };
            out.push((id, cf));
        });
        out
    }

    /// Drains finished flows through a callback without allocating:
    /// `f(id, info, hops)` runs once per completion in start order.
    pub fn drain_completed_with(
        &mut self,
        mut f: impl FnMut(FlowId, &CompletedInfo, &[DirLinkId]),
    ) {
        self.collect_due();
        if self.due.is_empty() {
            return;
        }
        let ripple = self.bump_stamp();
        for k in 0..self.due.len() {
            let idx = self.due[k].1;
            let i = idx as usize;
            self.record_span(i);
            let s = &self.slots[i];
            let info = CompletedInfo {
                total_bytes: s.total_bytes,
                started_at: s.started_at,
                completed_at: self.clock,
                ctx: s.ctx,
                src: s.src,
                dst: s.dst,
            };
            let id = FlowId { idx, gen: s.gen };
            f(id, &info, &s.hops);
            self.remove_flow(idx, ripple);
        }
        self.reallocate(ripple);
    }

    // ------------------------------------------------------------------
    // Internals: settling & completion tracking
    // ------------------------------------------------------------------

    /// Progresses one flow's byte count to the clock at its current rate.
    fn settle(&mut self, idx: u32) {
        let i = idx as usize;
        if self.slots[i].rate_bps.is_infinite() {
            // Node-local flow: completes the instant it starts.
            self.slots[i].remaining = 0.0;
            self.slots[i].touched_at = self.clock;
            return;
        }
        let dt = self.clock.since(self.slots[i].touched_at).as_secs_f64();
        if dt > 0.0 {
            let sent = {
                let s = &mut self.slots[i];
                let sent = (s.rate_bps / 8.0 * dt).min(s.remaining);
                s.remaining -= sent;
                if s.remaining < 0.5 {
                    s.remaining = 0.0;
                }
                sent
            };
            if sent > 0.0 {
                for h in 0..self.slots[i].hops.len() {
                    let li = self.slots[i].hops[h].index();
                    self.settled_bytes[li] += sent;
                }
            }
        }
        self.slots[i].touched_at = self.clock;
    }

    fn entry_valid(&self, e: ComplEntry) -> bool {
        let s = &self.slots[e.idx as usize];
        s.live && s.seq == e.seq && s.rate_epoch == e.epoch
    }

    /// Projects a flow's completion and pushes a heap entry (no-op for
    /// starved flows, which cannot finish until rates change).
    fn push_completion(&mut self, idx: u32) {
        let s = &self.slots[idx as usize];
        let at = if s.remaining <= 0.0 || s.rate_bps.is_infinite() {
            self.clock
        } else if s.rate_bps <= 0.0 {
            return;
        } else {
            self.clock + duration_ceil(s.remaining * 8.0 / s.rate_bps)
        };
        self.compl.push(Reverse(ComplEntry {
            at_ns: at.as_nanos(),
            seq: s.seq,
            idx,
            epoch: s.rate_epoch,
        }));
        self.stats.heap_pushes += 1;
        if self.compl.len() > 4 * self.live + 64 {
            // Purge dead entries in place (no allocation).
            let heap = std::mem::take(&mut self.compl);
            let mut v = heap.into_vec();
            let slots = &self.slots;
            v.retain(|&Reverse(e)| {
                let s = &slots[e.idx as usize];
                s.live && s.seq == e.seq && s.rate_epoch == e.epoch
            });
            self.compl = BinaryHeap::from(v);
        }
    }

    /// Fills `self.due` with `(seq, idx)` of every flow complete at the
    /// clock, settled and sorted in start order.
    fn collect_due(&mut self) {
        self.due.clear();
        let now_ns = self.clock.as_nanos();
        while let Some(&Reverse(e)) = self.compl.peek() {
            if !self.entry_valid(e) {
                self.compl.pop();
                continue;
            }
            if e.at_ns > now_ns {
                break;
            }
            self.compl.pop();
            self.settle(e.idx);
            if self.slots[e.idx as usize].remaining > 0.0 {
                // Numeric undershoot: reproject and retry later.
                self.push_completion(e.idx);
                continue;
            }
            self.due.push((e.seq, e.idx));
        }
        self.due.sort_unstable();
        // A flow can carry two live heap entries (e.g. a zero-byte start
        // pushes one defensively); drain each flow exactly once.
        self.due.dedup();
    }

    fn record_span(&self, i: usize) {
        let s = &self.slots[i];
        if s.ctx.is_sampled() {
            if let Some(spans) = &self.spans {
                spans.record_child(
                    &s.ctx,
                    "netsim",
                    "transfer",
                    s.started_at.as_nanos() / 1_000,
                    self.clock.as_nanos() / 1_000,
                );
            }
        }
    }

    /// Detaches a (settled) flow from all allocator structures, frees its
    /// slot and seeds the bottleneck sets that can now grow into the
    /// freed capacity.
    fn remove_flow(&mut self, idx: u32, ripple: u64) {
        self.detach_rate(idx);
        let i = idx as usize;
        for h in 0..self.slots[i].hops.len() {
            let li = self.slots[i].hops[h].index();
            let mut pos = self.slots[i].link_pos[h] as usize;
            let list = &mut self.links[li].flows;
            // Duplicate-link paths (detours) can invalidate a stored
            // position when the earlier duplicate was removed first.
            if pos >= list.len() || list[pos] != idx {
                pos = list.iter().position(|&f| f == idx).expect("flow on link");
            }
            let last = list.pop().expect("non-empty");
            if pos < list.len() {
                list[pos] = last;
                let end = list.len();
                let s = &mut self.slots[last as usize];
                if let Some(h2) = (0..s.hops.len())
                    .find(|&h2| s.hops[h2].index() == li && s.link_pos[h2] as usize == end)
                {
                    s.link_pos[h2] = pos as u32;
                }
            }
        }
        for h in 0..self.slots[i].hops.len() {
            let li = self.slots[i].hops[h].index();
            let l = &self.links[li];
            if l.spare() > l.eps() && !l.bneck_flows.is_empty() {
                for k in 0..self.links[li].bneck_flows.len() {
                    let f = self.links[li].bneck_flows[k];
                    self.seed(f, ripple);
                }
            }
        }
        let s = &mut self.slots[i];
        s.live = false;
        s.gen = s.gen.wrapping_add(1);
        s.rate_epoch = s.rate_epoch.wrapping_add(1);
        s.bneck = Bneck::Floating;
        self.free.push(idx);
        self.live -= 1;
    }

    // ------------------------------------------------------------------
    // Internals: the incremental allocator
    // ------------------------------------------------------------------

    /// Adds a live flow to the unfrozen set U of the current ripple.
    fn seed(&mut self, idx: u32, ripple: u64) {
        let s = &mut self.slots[idx as usize];
        if s.live && s.u_stamp != ripple {
            s.u_stamp = ripple;
            s.prev_rate = s.rate_bps;
            self.u.push(idx);
        }
    }

    /// Removes a flow's rate from its links' loads and leaves its
    /// bottleneck assignment floating.
    fn detach_rate(&mut self, idx: u32) {
        let i = idx as usize;
        let rate = self.slots[i].rate_bps;
        if rate.is_finite() && rate != 0.0 {
            for h in 0..self.slots[i].hops.len() {
                let li = self.slots[i].hops[h].index();
                self.links[li].add_load(-rate);
            }
        }
        if let Bneck::Link(li) = self.slots[i].bneck {
            let pos = self.slots[i].bneck_pos as usize;
            let list = &mut self.links[li as usize].bneck_flows;
            debug_assert_eq!(list.get(pos), Some(&idx));
            let last = list.pop().expect("non-empty bneck list");
            if pos < list.len() {
                list[pos] = last;
                self.slots[last as usize].bneck_pos = pos as u32;
            }
        }
        self.slots[i].bneck = Bneck::Floating;
    }

    /// Re-adds a flow's (re-solved) rate to loads and bottleneck lists.
    fn attach_rate(&mut self, idx: u32) {
        let i = idx as usize;
        let rate = self.slots[i].rate_bps;
        for h in 0..self.slots[i].hops.len() {
            let li = self.slots[i].hops[h].index();
            let l = &mut self.links[li];
            if rate.is_finite() {
                l.add_load(rate);
                if rate > l.max_added {
                    l.max_added = rate;
                }
            }
        }
        if let Bneck::Link(li) = self.slots[i].bneck {
            let l = &mut self.links[li as usize];
            self.slots[i].bneck_pos = l.bneck_flows.len() as u32;
            l.bneck_flows.push(idx);
            l.new_bneck += 1;
        }
    }

    /// The bottleneck-set ripple: re-solves the seeded flows, then
    /// repeatedly unfreezes any flow whose max-min certificate the new
    /// solution invalidates, until a fixpoint (or, past half the live
    /// flows or 32 rounds, one round over all of them).
    fn reallocate(&mut self, ripple: u64) {
        {
            let slots = &self.slots;
            self.u.retain(|&f| slots[f as usize].live);
        }
        if self.u.is_empty() {
            return;
        }
        self.stats.reallocations += 1;
        let mut rounds = 0;
        loop {
            rounds += 1;
            if 2 * self.u.len() > self.live || rounds > 32 {
                self.stats.full_resolves += 1;
                for i in 0..self.slots.len() {
                    if self.slots[i].live {
                        self.seed(i as u32, ripple);
                    }
                }
                self.run_round();
                break;
            }
            self.run_round();
            if !self.scan_violations(ripple) {
                break;
            }
        }
        self.apply();
    }

    /// One ripple round: detach U, restricted progressive filling over U
    /// against the frozen flows' fixed loads, re-attach.
    fn run_round(&mut self) {
        self.stats.fill_rounds += 1;
        for k in 0..self.u.len() {
            let idx = self.u[k];
            self.settle(idx);
            self.detach_rate(idx);
        }
        // Collect the touched-link set with per-round scratch.
        let round = self.bump_stamp();
        self.touched.clear();
        for k in 0..self.u.len() {
            let i = self.u[k] as usize;
            for h in 0..self.slots[i].hops.len() {
                let li = self.slots[i].hops[h].index();
                let l = &mut self.links[li];
                if l.stamp != round {
                    l.stamp = round;
                    l.active = 0;
                    l.u_count = 0;
                    l.resid = l.spare().max(0.0);
                    l.max_added = 0.0;
                    l.new_share = 0.0;
                    l.has_new_share = false;
                    l.new_bneck = 0;
                    self.touched.push(li as u32);
                }
                l.active += 1;
                l.u_count += 1;
            }
        }
        self.stats.links_touched += self.touched.len() as u64;
        self.fill();
        for k in 0..self.u.len() {
            let idx = self.u[k];
            self.attach_rate(idx);
        }
    }

    /// Restricted progressive filling over U (same water-filling as the
    /// [`crate::fairshare::max_min_rates`] oracle, but over U-flows and
    /// residual capacities only). Caps are pre-sorted so each round's
    /// minimum-cap lookup is a cursor advance, not an O(|U|) rescan.
    fn fill(&mut self) {
        let fix = self.bump_stamp();
        let mut unfixed = 0usize;
        self.caps_sorted.clear();
        for k in 0..self.u.len() {
            let i = self.u[k] as usize;
            let s = &mut self.slots[i];
            if s.hops.is_empty() {
                s.rate_bps = s.cap_bps; // cap, or +inf when uncapped
                s.bneck = Bneck::Cap;
                s.fix_stamp = fix;
            } else {
                unfixed += 1;
                if s.cap_bps.is_finite() {
                    self.caps_sorted.push((s.cap_bps, self.u[k]));
                }
            }
        }
        self.caps_sorted
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut cursor = 0usize;
        while unfixed > 0 {
            let mut share = f64::INFINITY;
            for &li in &self.touched {
                let l = &self.links[li as usize];
                if l.active > 0 {
                    let s = (l.resid / l.active as f64).max(0.0);
                    if s < share {
                        share = s;
                    }
                }
            }
            if share == f64::INFINITY {
                break; // defensive: no active links left
            }
            while cursor < self.caps_sorted.len()
                && self.slots[self.caps_sorted[cursor].1 as usize].fix_stamp == fix
            {
                cursor += 1;
            }
            let min_cap = self.caps_sorted.get(cursor).map_or(f64::INFINITY, |c| c.0);
            if min_cap < share {
                // Freeze every unfixed capped flow at or below this level.
                let mut j = cursor;
                while j < self.caps_sorted.len() && self.caps_sorted[j].0 <= min_cap {
                    let idx = self.caps_sorted[j].1;
                    j += 1;
                    let i = idx as usize;
                    if self.slots[i].fix_stamp == fix {
                        continue;
                    }
                    let c = self.slots[i].cap_bps;
                    self.slots[i].rate_bps = c;
                    self.slots[i].bneck = Bneck::Cap;
                    self.slots[i].fix_stamp = fix;
                    unfixed -= 1;
                    for h in 0..self.slots[i].hops.len() {
                        let li = self.slots[i].hops[h].index();
                        let l = &mut self.links[li];
                        l.resid = (l.resid - c).max(0.0);
                        l.active -= 1;
                    }
                }
            } else {
                // Freeze every unfixed flow crossing a bottleneck link.
                let eps = share * 1e-12 + 1e-9;
                let mark = self.bump_stamp();
                for &li in &self.touched {
                    let l = &mut self.links[li as usize];
                    if l.active > 0 && l.resid / l.active as f64 <= share + eps {
                        l.bneck_mark = mark;
                        if !l.has_new_share {
                            l.has_new_share = true;
                            l.new_share = share;
                        }
                    }
                }
                let mut froze = false;
                for k in 0..self.u.len() {
                    let i = self.u[k] as usize;
                    if self.slots[i].fix_stamp == fix || self.slots[i].hops.is_empty() {
                        continue;
                    }
                    let mut bl = None;
                    for h in 0..self.slots[i].hops.len() {
                        let li = self.slots[i].hops[h].index();
                        if self.links[li].bneck_mark == mark {
                            bl = Some(li);
                            break;
                        }
                    }
                    let Some(bl) = bl else { continue };
                    self.slots[i].rate_bps = share;
                    self.slots[i].bneck = Bneck::Link(bl as u32);
                    self.slots[i].fix_stamp = fix;
                    unfixed -= 1;
                    froze = true;
                    for h in 0..self.slots[i].hops.len() {
                        let li = self.slots[i].hops[h].index();
                        let l = &mut self.links[li];
                        l.resid = (l.resid - share).max(0.0);
                        l.active -= 1;
                    }
                }
                debug_assert!(froze, "progressive filling failed to make progress");
                if !froze {
                    break;
                }
            }
        }
    }

    /// Checks every touched link's max-min certificates and unfreezes
    /// violating frozen flows into U. Returns whether U grew.
    fn scan_violations(&mut self, ripple: u64) -> bool {
        let mut grew = false;
        for t in 0..self.touched.len() {
            let li = self.touched[t] as usize;
            let (spare, eps_l, level, max_added, has_new_share, new_share, frozen_bneck, u_count) = {
                let l = &self.links[li];
                (
                    l.spare(),
                    l.eps(),
                    l.level,
                    l.max_added,
                    l.has_new_share,
                    l.new_share,
                    l.bneck_flows.len() as u32 - l.new_bneck,
                    l.u_count,
                )
            };
            // Certificate A: flows frozen *at* this link can grow — either
            // spare capacity appeared, or a re-solved flow now outranks
            // the link's old fair-share level.
            if frozen_bneck > 0 && (spare > eps_l || rate_gt(max_added, level)) {
                for k in 0..self.links[li].bneck_flows.len() {
                    let f = self.links[li].bneck_flows[k];
                    if self.slots[f as usize].u_stamp != ripple {
                        self.seed(f, ripple);
                        grew = true;
                    }
                }
            }
            // Certificate B: a U-flow froze here at `new_share`, but some
            // frozen flow crossing this link is richer — it must shrink
            // for the allocation to stay max-min.
            if has_new_share && self.links[li].flows.len() as u32 > u_count {
                let skip = frozen_bneck > 0 && !rate_gt(level, new_share);
                if !skip {
                    self.stats.list_scans += 1;
                    for k in 0..self.links[li].flows.len() {
                        let f = self.links[li].flows[k];
                        let s = &self.slots[f as usize];
                        if s.u_stamp != ripple && rate_gt(s.rate_bps, new_share) {
                            self.seed(f, ripple);
                            grew = true;
                        }
                    }
                }
            }
        }
        grew
    }

    /// Commits the ripple: bumps epochs and reprojects completions for
    /// flows whose rate really changed; reverts allocator-noise changes
    /// exactly so loads cannot drift.
    fn apply(&mut self) {
        self.stats.flows_reallocated += self.u.len() as u64;
        for k in 0..self.u.len() {
            let idx = self.u[k];
            let i = idx as usize;
            let new = self.slots[i].rate_bps;
            let old = self.slots[i].prev_rate;
            if rates_close(new, old) {
                if new != old {
                    let d = old - new;
                    for h in 0..self.slots[i].hops.len() {
                        let li = self.slots[i].hops[h].index();
                        self.links[li].add_load(d);
                    }
                    self.slots[i].rate_bps = old;
                }
            } else {
                self.slots[i].rate_epoch = self.slots[i].rate_epoch.wrapping_add(1);
                self.stats.rate_changes += 1;
                self.push_completion(idx);
            }
        }
        self.u.clear();
        for t in 0..self.touched.len() {
            let li = self.touched[t] as usize;
            if self.links[li].has_new_share {
                self.links[li].level = self.links[li].new_share;
            }
            // Small links: recompute the load exactly, killing any
            // residual float drift where it matters most (access links).
            if self.links[li].flows.len() <= 64 {
                let mut sum = 0.0;
                for k in 0..self.links[li].flows.len() {
                    let f = self.links[li].flows[k] as usize;
                    let r = self.slots[f].rate_bps;
                    if r.is_finite() {
                        sum += r;
                    }
                }
                let l = &mut self.links[li];
                l.load = sum;
                l.load_c = 0.0;
            }
        }
    }
}

/// Summary of a finished flow.
#[derive(Clone, Debug)]
pub struct CompletedFlow {
    /// The path the flow followed.
    pub path: Path,
    /// Total bytes transferred.
    pub total_bytes: u64,
    /// When the flow started.
    pub started_at: SimTime,
    /// When the last byte was delivered.
    pub completed_at: SimTime,
    /// Causal context carried by the flow ([`TraceCtx::NONE`] when the
    /// transfer was not part of a sampled trace).
    pub ctx: TraceCtx,
}

impl CompletedFlow {
    /// Mean throughput over the flow's lifetime.
    pub fn mean_rate(&self) -> Bandwidth {
        let dt = self.completed_at.since(self.started_at).as_secs_f64();
        if dt <= 0.0 {
            Bandwidth::ZERO
        } else {
            Bandwidth::from_bps(self.total_bytes as f64 * 8.0 / dt)
        }
    }
}

/// Converts fractional seconds to a duration, rounding up to the next
/// nanosecond (so scheduled completions never undershoot).
fn duration_ceil(secs: f64) -> SimDuration {
    if !secs.is_finite() || secs <= 0.0 {
        return SimDuration::ZERO;
    }
    let ns = (secs * 1e9).ceil();
    if ns >= u64::MAX as f64 {
        SimDuration::MAX
    } else {
        SimDuration::from_nanos(ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use crate::units::MB;

    fn line() -> (FlowNet, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        b.add_link(x, y, Bandwidth::gbps(1.0), SimDuration::from_millis(1));
        (FlowNet::new(b.build()), x, y)
    }

    #[test]
    fn single_flow_completion_time() {
        let (mut net, x, y) = line();
        let id = net.start(x, y, 125 * MB, None, SimTime::ZERO).unwrap();
        let (t, fid) = net.next_completion().unwrap();
        assert_eq!(fid, id);
        // 125 MB at 1 Gbps = 1 s (ceil rounding adds at most 1 ns).
        assert!(t >= SimTime::from_secs(1));
        assert!(t <= SimTime::from_secs(1) + SimDuration::from_nanos(2));
        net.advance(t);
        let done = net.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.total_bytes, 125 * MB);
        assert_eq!(net.active_count(), 0);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let (mut net, x, y) = line();
        let a = net.start(x, y, 125 * MB, None, SimTime::ZERO).unwrap();
        let b = net.start(x, y, 125 * MB, None, SimTime::ZERO).unwrap();
        assert!((net.rate(a).unwrap().bits_per_sec() - 0.5e9).abs() < 1.0);
        // Cancel one; the survivor reclaims the full link.
        net.cancel(a, SimTime::from_nanos(100_000_000));
        assert!((net.rate(b).unwrap().bits_per_sec() - 1e9).abs() < 1.0);
        // b moved 100ms * 62.5MB/s = 6.25 MB so far.
        let rem = net.remaining(b).unwrap();
        assert!((rem as f64 - (125.0 - 6.25) * 1e6).abs() < 1e3);
    }

    #[test]
    fn caps_slow_flows_down() {
        let (mut net, x, y) = line();
        let id = net
            .start(x, y, 10 * MB, Some(Bandwidth::mbps(80.0)), SimTime::ZERO)
            .unwrap();
        assert!((net.rate(id).unwrap().bits_per_sec() - 80e6).abs() < 1.0);
        net.set_cap(id, None, SimTime::ZERO);
        assert!((net.rate(id).unwrap().bits_per_sec() - 1e9).abs() < 1.0);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let (mut net, x, y) = line();
        net.start(x, y, 0, None, SimTime::ZERO).unwrap();
        let (t, _) = net.next_completion().unwrap();
        assert_eq!(t, SimTime::ZERO);
        net.advance(t);
        assert_eq!(net.take_completed().len(), 1);
    }

    #[test]
    fn local_flow_is_instant() {
        let (mut net, x, _) = line();
        net.start(x, x, 500 * MB, None, SimTime::ZERO).unwrap();
        let (t, _) = net.next_completion().unwrap();
        assert_eq!(t, SimTime::ZERO);
        net.advance(SimTime::ZERO);
        assert_eq!(net.take_completed().len(), 1);
    }

    #[test]
    fn link_byte_accounting() {
        let (mut net, x, y) = line();
        net.start(x, y, 10 * MB, None, SimTime::ZERO).unwrap();
        let (t, _) = net.next_completion().unwrap();
        net.advance(t);
        net.take_completed();
        let topo = net.topology().clone();
        let mut rt = RoutingTable::new(&topo);
        let hop = rt.route(x, y).unwrap().hops()[0];
        assert!((net.link_bytes(hop) - 10e6).abs() < 1.0);
        assert_eq!(net.link_bytes(hop.reversed()), 0.0);
    }

    #[test]
    fn mid_flight_link_bytes_are_virtual() {
        let (mut net, x, y) = line();
        net.start(x, y, 125 * MB, None, SimTime::ZERO).unwrap();
        net.advance(SimTime::from_nanos(400_000_000));
        let topo = net.topology().clone();
        let mut rt = RoutingTable::new(&topo);
        let hop = rt.route(x, y).unwrap().hops()[0];
        // 0.4 s at 1 Gbps = 50 MB, without any settlement having run.
        assert!((net.link_bytes(hop) - 50e6).abs() < 1e3);
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn clock_cannot_reverse() {
        let (mut net, x, y) = line();
        net.start(x, y, MB, None, SimTime::from_secs(5)).unwrap();
        net.advance(SimTime::from_secs(1));
    }

    #[test]
    fn cancel_unknown_flow_is_none() {
        let (mut net, _, _) = line();
        let bogus = FlowId { idx: 42, gen: 0 };
        assert!(net.cancel(bogus, SimTime::ZERO).is_none());
    }

    #[test]
    fn stale_generation_ids_do_not_alias() {
        let (mut net, x, y) = line();
        let a = net.start(x, y, 10 * MB, None, SimTime::ZERO).unwrap();
        net.cancel(a, SimTime::ZERO).unwrap();
        // The slot is reused by the next start; the old id must be dead.
        let b = net.start(x, y, 10 * MB, None, SimTime::ZERO).unwrap();
        assert_ne!(a.raw(), b.raw());
        assert!(net.rate(a).is_none());
        assert!(net.cancel(a, SimTime::ZERO).is_none());
        assert!(net.rate(b).is_some());
    }

    #[test]
    fn traced_flow_records_transfer_span() {
        let (mut net, x, y) = line();
        let tracer = SpanTracer::new(16);
        tracer.enable();
        let root = tracer.root();
        net.set_span_tracer(tracer.clone());
        net.start_traced(x, y, 125 * MB, None, SimTime::ZERO, root)
            .unwrap();
        // Untraced flows record nothing even with a tracer attached.
        net.start(x, y, MB, None, SimTime::ZERO).unwrap();
        while let Some((t, _)) = net.next_completion() {
            net.advance(t);
            for (_, c) in net.take_completed() {
                assert_eq!(c.ctx.is_sampled(), c.total_bytes == 125 * MB);
            }
        }
        let spans = tracer.recent();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, "transfer");
        assert_eq!(spans[0].service, "netsim");
        assert_eq!(spans[0].trace_id, root.trace_id);
        assert_eq!(spans[0].parent_span_id, root.span_id);
        assert!(spans[0].duration_us() >= 1_000_000); // ~1 s at 1 Gbps
    }

    #[test]
    fn mean_rate_of_completed_flow() {
        let (mut net, x, y) = line();
        net.start(x, y, 125 * MB, None, SimTime::ZERO).unwrap();
        let (t, _) = net.next_completion().unwrap();
        net.advance(t);
        let (_, done) = net.take_completed().pop().unwrap();
        let r = done.mean_rate().bits_per_sec();
        assert!((r - 1e9).abs() < 1e3);
    }

    #[test]
    fn drain_completed_with_matches_take() {
        let (mut net, x, y) = line();
        net.start(x, y, 10 * MB, None, SimTime::ZERO).unwrap();
        net.start(x, y, 10 * MB, None, SimTime::ZERO).unwrap();
        let (t, _) = net.next_completion().unwrap();
        net.advance(t);
        let mut seen = Vec::new();
        net.drain_completed_with(|id, info, hops| {
            assert_eq!(info.total_bytes, 10 * MB);
            assert_eq!(info.src, x);
            assert_eq!(info.dst, y);
            assert_eq!(hops.len(), 1);
            seen.push(id);
        });
        assert_eq!(seen.len(), 2);
        assert!(seen[0] < seen[1]);
        assert_eq!(net.active_count(), 0);
    }

    #[test]
    fn alloc_stats_count_work() {
        let (mut net, x, y) = line();
        let a = net.start(x, y, 125 * MB, None, SimTime::ZERO).unwrap();
        net.start(x, y, 125 * MB, None, SimTime::ZERO).unwrap();
        net.cancel(a, SimTime::from_nanos(10_000_000));
        let s = net.alloc_stats();
        assert!(s.reallocations >= 3);
        assert!(s.flows_reallocated >= 3);
        assert!(s.rate_changes >= 3);
        assert!(s.heap_pushes >= 3);
        assert!(s.links_touched >= 3);
    }
}

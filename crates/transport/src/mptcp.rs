//! Multipath TCP: one logical connection, many subflows.
//!
//! §IV-C's trick: the client opens subflows *through waypoints*; the
//! server "will not understand that the two subflows are not coming from
//! two interfaces on the same device". Here a connection owns N subflows,
//! each with its own path, congestion state and smoothed RTT. The
//! scheduler (the server's, for downloads) hands each idle subflow its
//! next window; the client can steer it by inflating a subflow's ACK
//! delay (raising the RTT the scheduler sees) or by closing subflows
//! outright — the paper's two steering mechanisms.
//!
//! Tunnel encapsulation overhead (VPN: 36 bytes/packet; NAT: 0) is
//! modeled as a wire-byte inflation factor on the tunneled subflow.

use crate::rtt::SrttEstimator;
use crate::tcp::TcpConfig;
use hpop_netsim::netsim::NetSim;
use hpop_netsim::routing::Path;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_netsim::units::Bandwidth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Description of one subflow of an MPTCP connection.
#[derive(Clone, Debug)]
pub struct SubflowSpec {
    /// Human-readable label for reporting (`"direct"`, `"via-attic-7"`).
    pub label: String,
    /// The network path this subflow takes.
    pub path: Path,
    /// Extra delay the client adds to this subflow's ACKs (§IV-C
    /// steering); inflates the RTT the scheduler observes *and* slows the
    /// subflow's self-clocking.
    pub ack_delay: SimDuration,
    /// Per-packet encapsulation overhead in bytes (VPN tunneling adds 36;
    /// NAT adds 0).
    pub per_packet_overhead: u32,
}

impl SubflowSpec {
    /// A plain subflow over `path` with no steering or tunnel overhead.
    pub fn new(label: impl Into<String>, path: Path) -> Self {
        SubflowSpec {
            label: label.into(),
            path,
            ack_delay: SimDuration::ZERO,
            per_packet_overhead: 0,
        }
    }
}

/// Which subflow the (server-side) scheduler feeds next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Default Linux MPTCP behaviour: lowest smoothed RTT first — the
    /// scheduler §IV-C's ACK-delay trick manipulates.
    MinRtt,
    /// Round-robin across open subflows (ablation baseline).
    RoundRobin,
}

/// Per-subflow completion statistics.
#[derive(Clone, Debug)]
pub struct SubflowStats {
    /// The spec's label.
    pub label: String,
    /// Goodput bytes this subflow delivered.
    pub bytes: u64,
    /// Windows dispatched on this subflow.
    pub windows: u32,
    /// Loss events on this subflow.
    pub loss_events: u32,
    /// Final smoothed RTT the scheduler saw (`None` if never used).
    pub srtt: Option<SimDuration>,
    /// Wire bytes including tunnel encapsulation overhead.
    pub wire_bytes: u64,
}

/// Completion statistics of an MPTCP transfer.
#[derive(Clone, Debug)]
pub struct MptcpStats {
    /// Total goodput bytes (the requested size).
    pub bytes: u64,
    /// Launch instant.
    pub started_at: SimTime,
    /// Completion instant.
    pub completed_at: SimTime,
    /// Per-subflow breakdown, in spec order.
    pub subflows: Vec<SubflowStats>,
}

impl MptcpStats {
    /// Transfer duration.
    pub fn duration(&self) -> SimDuration {
        self.completed_at.since(self.started_at)
    }

    /// Mean aggregate goodput.
    pub fn mean_rate(&self) -> Bandwidth {
        let dt = self.duration().as_secs_f64();
        if dt <= 0.0 {
            Bandwidth::ZERO
        } else {
            Bandwidth::from_bps(self.bytes as f64 * 8.0 / dt)
        }
    }

    /// Fraction of goodput bytes carried by subflow `i`.
    pub fn share(&self, i: usize) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.subflows[i].bytes as f64 / self.bytes as f64
        }
    }
}

struct Subflow {
    spec: SubflowSpec,
    rtt_base: SimDuration,
    loss: f64,
    cwnd: u64,
    ssthresh: u64,
    srtt: SrttEstimator,
    busy: bool,
    closed: bool,
    delivered: u64,
    wire_bytes: u64,
    windows: u32,
    loss_events: u32,
}

impl Subflow {
    fn rtt_eff(&self) -> SimDuration {
        self.rtt_base + self.spec.ack_delay
    }

    fn sched_rtt(&self) -> SimDuration {
        self.srtt.srtt().unwrap_or_else(|| self.rtt_eff())
    }

    fn overhead_factor(&self, mss: u32) -> f64 {
        1.0 + self.spec.per_packet_overhead as f64 / mss as f64
    }
}

type DoneCallback = Box<dyn FnOnce(&mut NetSim, MptcpStats)>;

struct ConnState {
    cfg: TcpConfig,
    scheduler: Scheduler,
    subflows: Vec<Subflow>,
    unassigned: u64,
    total: u64,
    started_at: SimTime,
    rr_next: usize,
    rng: StdRng,
    on_done: Option<DoneCallback>,
}

/// Control handle over a live MPTCP transfer (the client's steering
/// interface: withdraw detours, adjust ACK delays).
#[derive(Clone)]
pub struct MptcpHandle {
    st: Rc<RefCell<ConnState>>,
}

impl std::fmt::Debug for MptcpHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.st.borrow();
        f.debug_struct("MptcpHandle")
            .field("subflows", &st.subflows.len())
            .field("unassigned", &st.unassigned)
            .finish()
    }
}

impl MptcpHandle {
    /// Closes subflow `idx`: it gets no further windows (its in-flight
    /// window still completes). The §IV-C "withdraw undesirable detours"
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if this would close the last open subflow while data
    /// remains (the connection could never finish), or if `idx` is out
    /// of range.
    pub fn close_subflow(&self, sim: &mut NetSim, idx: usize) {
        {
            let mut st = self.st.borrow_mut();
            let open_others = st
                .subflows
                .iter()
                .enumerate()
                .filter(|(i, s)| *i != idx && !s.closed)
                .count();
            assert!(
                open_others > 0 || st.unassigned == 0,
                "cannot close the last open subflow with data remaining"
            );
            st.subflows[idx].closed = true;
        }
        pump(sim, self.st.clone());
    }

    /// Adds a subflow to the live connection (§IV-C: hosts "add, remove,
    /// or change detours dynamically in the course of the
    /// communication"). Returns the new subflow's index. No-op beyond
    /// bookkeeping if the transfer already finished.
    pub fn add_subflow(&self, sim: &mut NetSim, spec: SubflowSpec) -> usize {
        let idx = {
            let mut st = self.st.borrow_mut();
            let topo = sim.state.net.topology();
            let cfg = st.cfg;
            st.subflows.push(Subflow {
                rtt_base: spec.path.rtt(topo).max(SimDuration::from_micros(100)),
                loss: spec.path.loss(topo),
                cwnd: cfg.init_cwnd_bytes().max(1),
                ssthresh: cfg.initial_ssthresh.unwrap_or(u64::MAX),
                srtt: SrttEstimator::new(),
                busy: false,
                closed: false,
                delivered: 0,
                wire_bytes: 0,
                windows: 0,
                loss_events: 0,
                spec,
            });
            st.subflows.len() - 1
        };
        pump(sim, self.st.clone());
        idx
    }

    /// Bytes not yet handed to any subflow.
    pub fn unassigned(&self) -> u64 {
        self.st.borrow().unassigned
    }

    /// Number of subflows (open or closed).
    pub fn subflow_count(&self) -> usize {
        self.st.borrow().subflows.len()
    }

    /// Number of subflows still open.
    pub fn open_subflows(&self) -> usize {
        self.st
            .borrow()
            .subflows
            .iter()
            .filter(|s| !s.closed)
            .count()
    }

    /// Whether subflow `idx` is open.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn is_open(&self, idx: usize) -> bool {
        !self.st.borrow().subflows[idx].closed
    }

    /// Goodput bytes delivered so far by subflow `idx`.
    pub fn delivered(&self, idx: usize) -> u64 {
        self.st.borrow().subflows[idx].delivered
    }
}

/// A multipath TCP bulk transfer.
///
/// ```
/// use hpop_netsim::prelude::*;
/// use hpop_transport::mptcp::{MptcpTransfer, Scheduler, SubflowSpec};
/// use hpop_transport::tcp::TcpConfig;
///
/// let mut b = TopologyBuilder::new();
/// let server = b.add_node("server");
/// let client = b.add_node("client");
/// b.add_link(server, client, Bandwidth::mbps(100.0), SimDuration::from_millis(10));
/// let mut sim = NetSim::with_topology(b.build());
/// let path = sim.state.net.routing().route(server, client).expect("connected");
/// MptcpTransfer::launch(
///     &mut sim,
///     vec![SubflowSpec::new("direct", path)],
///     5 * MB,
///     TcpConfig::default(),
///     Scheduler::MinRtt,
///     0,
///     |_, stats| assert_eq!(stats.bytes, 5 * MB),
/// );
/// sim.run();
/// ```
#[derive(Debug)]
pub struct MptcpTransfer;

impl MptcpTransfer {
    /// Launches a transfer of `bytes` across `subflows`, returning a
    /// steering handle. `on_done` fires when every byte has been
    /// delivered (across all subflows).
    ///
    /// # Panics
    ///
    /// Panics if `subflows` is empty.
    pub fn launch(
        sim: &mut NetSim,
        subflows: Vec<SubflowSpec>,
        bytes: u64,
        cfg: TcpConfig,
        scheduler: Scheduler,
        seed: u64,
        on_done: impl FnOnce(&mut NetSim, MptcpStats) + 'static,
    ) -> MptcpHandle {
        assert!(!subflows.is_empty(), "MPTCP needs at least one subflow");
        let topo = sim.state.net.topology();
        let subflows: Vec<Subflow> = subflows
            .into_iter()
            .map(|spec| Subflow {
                rtt_base: spec.path.rtt(topo).max(SimDuration::from_micros(100)),
                loss: spec.path.loss(topo),
                cwnd: cfg.init_cwnd_bytes().max(1),
                ssthresh: cfg.initial_ssthresh.unwrap_or(u64::MAX),
                srtt: SrttEstimator::new(),
                busy: false,
                closed: false,
                delivered: 0,
                wire_bytes: 0,
                windows: 0,
                loss_events: 0,
                spec,
            })
            .collect();
        let st = Rc::new(RefCell::new(ConnState {
            cfg,
            scheduler,
            subflows,
            unassigned: bytes,
            total: bytes,
            started_at: sim.now(),
            rr_next: 0,
            rng: StdRng::seed_from_u64(seed),
            on_done: Some(Box::new(on_done)),
        }));
        pump(sim, st.clone());
        MptcpHandle { st }
    }
}

/// Picks the next idle, open subflow per the scheduler; `None` if all
/// busy/closed.
fn pick(st: &mut ConnState) -> Option<usize> {
    let candidates: Vec<usize> = st
        .subflows
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.busy && !s.closed)
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    match st.scheduler {
        Scheduler::MinRtt => candidates
            .into_iter()
            .min_by_key(|&i| st.subflows[i].sched_rtt()),
        Scheduler::RoundRobin => {
            let n = st.subflows.len();
            for off in 0..n {
                let i = (st.rr_next + off) % n;
                if candidates.contains(&i) {
                    st.rr_next = (i + 1) % n;
                    return Some(i);
                }
            }
            None
        }
    }
}

/// Dispatches windows to idle subflows until data or subflows run out;
/// finishes the connection when everything is delivered.
fn pump(sim: &mut NetSim, st: Rc<RefCell<ConnState>>) {
    loop {
        let dispatch = {
            let mut s = st.borrow_mut();
            if s.unassigned == 0 {
                let all_idle = s.subflows.iter().all(|f| !f.busy);
                if all_idle {
                    if let Some(cb) = s.on_done.take() {
                        let stats = MptcpStats {
                            bytes: s.total,
                            started_at: s.started_at,
                            completed_at: sim.now(),
                            subflows: s
                                .subflows
                                .iter()
                                .map(|f| SubflowStats {
                                    label: f.spec.label.clone(),
                                    bytes: f.delivered,
                                    windows: f.windows,
                                    loss_events: f.loss_events,
                                    srtt: f.srtt.srtt(),
                                    wire_bytes: f.wire_bytes,
                                })
                                .collect(),
                        };
                        drop(s);
                        cb(sim, stats);
                        return;
                    }
                }
                return;
            }
            let Some(idx) = pick(&mut s) else { return };
            let window = s.subflows[idx].cwnd.min(s.unassigned);
            s.unassigned -= window;
            let mss = s.cfg.mss;
            let f = &mut s.subflows[idx];
            f.busy = true;
            f.windows += 1;
            let ovh = f.overhead_factor(mss);
            let wire = (window as f64 * ovh).ceil() as u64;
            f.wire_bytes += wire;
            let rtt_eff = f.rtt_eff();
            // Cap the wire rate so goodput is cwnd/rtt_eff.
            let cap = Bandwidth::from_bps(f.cwnd as f64 * ovh * 8.0 / rtt_eff.as_secs_f64());
            (idx, window, wire, cap, f.spec.path.clone(), rtt_eff)
        };
        let (idx, window, wire, cap, path, rtt_eff) = dispatch;
        let st2 = st.clone();
        let dispatched_at = sim.now();
        sim.start_transfer_on_path(path, wire, Some(cap), move |sim, _| {
            // The window's last byte has been serialized; ACK-delay adds
            // client-side latency before the server sees the window done.
            let ack_extra = {
                let s = st2.borrow();
                s.subflows[idx].spec.ack_delay
            };
            let st3 = st2.clone();
            sim.schedule_in(ack_extra, move |sim| {
                let observed = sim.now().since(dispatched_at);
                {
                    let mut s = st3.borrow_mut();
                    let mss = s.cfg.mss;
                    let f = &mut s.subflows[idx];
                    f.busy = false;
                    f.delivered += window;
                    f.srtt.observe(observed);
                    let npkts = window.div_ceil(mss as u64).max(1);
                    let p_win = 1.0 - (1.0 - f.loss).powi(npkts.min(1 << 20) as i32);
                    let lost = f.loss > 0.0 && {
                        let roll: f64 = s.rng.gen();
                        roll < p_win
                    };
                    let f = &mut s.subflows[idx];
                    if lost {
                        f.loss_events += 1;
                        f.ssthresh = (f.cwnd / 2).max(2 * mss as u64);
                        f.cwnd = f.ssthresh;
                    } else if observed <= rtt_eff + rtt_eff / 4 {
                        if f.cwnd < f.ssthresh {
                            f.cwnd = f.cwnd.saturating_mul(2);
                        } else {
                            f.cwnd += mss as u64;
                        }
                        f.cwnd = f.cwnd.min(1 << 30);
                    }
                }
                pump(sim, st3);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_netsim::presets::{detour_triangle, DetourParams};
    use hpop_netsim::units::MB;

    /// Builds the §IV-C triangle and the two standard subflows
    /// (direct + via waypoint).
    fn triangle_subflows() -> (NetSim, Vec<SubflowSpec>) {
        let t = detour_triangle(&DetourParams::default());
        let mut sim = NetSim::with_topology(t.topology.clone());
        let direct = Path::new(
            &t.topology,
            t.server,
            t.client,
            vec![t.topology.neighbors(t.server)[0].1],
        );
        let via = sim
            .state
            .net
            .routing()
            .route_via(t.server, t.waypoint, t.client)
            .unwrap();
        (
            sim,
            vec![
                SubflowSpec::new("direct", direct),
                SubflowSpec::new("via-waypoint", via),
            ],
        )
    }

    fn run(
        mut sim: NetSim,
        subflows: Vec<SubflowSpec>,
        bytes: u64,
        sched: Scheduler,
        seed: u64,
    ) -> MptcpStats {
        let out: Rc<RefCell<Option<MptcpStats>>> = Rc::new(RefCell::new(None));
        let o2 = out.clone();
        MptcpTransfer::launch(
            &mut sim,
            subflows,
            bytes,
            TcpConfig::default(),
            sched,
            seed,
            move |_, s| *o2.borrow_mut() = Some(s),
        );
        sim.run();
        let s = out.borrow_mut().take().expect("completed");
        s
    }

    #[test]
    fn single_subflow_behaves_like_tcp() {
        let (sim, mut flows) = triangle_subflows();
        flows.truncate(1);
        let s = run(sim, flows, 10 * MB, Scheduler::MinRtt, 1);
        assert_eq!(s.bytes, 10 * MB);
        assert_eq!(s.subflows.len(), 1);
        assert_eq!(s.subflows[0].bytes, 10 * MB);
    }

    #[test]
    fn two_subflows_aggregate_bandwidth() {
        let (sim, flows) = triangle_subflows();
        let both = run(sim, flows, 200 * MB, Scheduler::MinRtt, 1);
        let (sim, mut flows) = triangle_subflows();
        flows.truncate(1); // direct only (200 Mbps, lossy)
        let direct_only = run(sim, flows, 200 * MB, Scheduler::MinRtt, 1);
        assert!(
            both.mean_rate().bits_per_sec() > 1.5 * direct_only.mean_rate().bits_per_sec(),
            "aggregate {} vs direct {}",
            both.mean_rate(),
            direct_only.mean_rate()
        );
        // The clean gigabit detour carries the bulk of the bytes.
        assert!(both.share(1) > 0.6, "waypoint share {}", both.share(1));
    }

    #[test]
    fn ack_delay_steers_bytes_away() {
        let (sim, flows) = triangle_subflows();
        let baseline = run(sim, flows, 100 * MB, Scheduler::MinRtt, 5);
        let (sim, mut flows) = triangle_subflows();
        // Penalize the waypoint subflow with 200 ms of ACK delay.
        flows[1].ack_delay = SimDuration::from_millis(200);
        let steered = run(sim, flows, 100 * MB, Scheduler::MinRtt, 5);
        assert!(
            steered.share(1) < baseline.share(1) - 0.2,
            "steering did not shift share: {} -> {}",
            baseline.share(1),
            steered.share(1)
        );
    }

    #[test]
    fn tunnel_overhead_appears_in_wire_bytes() {
        let (sim, mut flows) = triangle_subflows();
        flows[1].per_packet_overhead = 36; // VPN encapsulation
        let s = run(sim, flows, 50 * MB, Scheduler::MinRtt, 2);
        let sf = &s.subflows[1];
        assert!(sf.wire_bytes > sf.bytes);
        let factor = sf.wire_bytes as f64 / sf.bytes as f64;
        assert!(
            (factor - (1.0 + 36.0 / 1460.0)).abs() < 0.01,
            "factor {factor}"
        );
        // The untunneled subflow has no inflation.
        assert_eq!(s.subflows[0].wire_bytes, s.subflows[0].bytes);
    }

    #[test]
    fn close_subflow_stops_feeding_it() {
        let (mut sim, flows) = triangle_subflows();
        let out: Rc<RefCell<Option<MptcpStats>>> = Rc::new(RefCell::new(None));
        let o2 = out.clone();
        let handle = MptcpTransfer::launch(
            &mut sim,
            flows,
            100 * MB,
            TcpConfig::default(),
            Scheduler::MinRtt,
            9,
            move |_, s| *o2.borrow_mut() = Some(s),
        );
        let h2 = handle.clone();
        sim.schedule_in(SimDuration::from_millis(500), move |sim| {
            h2.close_subflow(sim, 0); // withdraw the lossy direct path
        });
        sim.run();
        let s = out.borrow_mut().take().unwrap();
        // The direct subflow carried only the pre-close portion.
        assert!(s.share(0) < 0.35, "direct share {}", s.share(0));
        assert_eq!(s.bytes, 100 * MB);
    }

    #[test]
    fn round_robin_balances_windows() {
        let (sim, flows) = triangle_subflows();
        let s = run(sim, flows, 100 * MB, Scheduler::RoundRobin, 3);
        // Windows are interleaved across both subflows.
        assert!(s.subflows[0].windows > 5);
        assert!(s.subflows[1].windows > 5);
    }

    #[test]
    fn determinism() {
        let (sim, flows) = triangle_subflows();
        let a = run(sim, flows, 30 * MB, Scheduler::MinRtt, 11);
        let (sim, flows) = triangle_subflows();
        let b = run(sim, flows, 30 * MB, Scheduler::MinRtt, 11);
        assert_eq!(a.completed_at, b.completed_at);
        assert_eq!(a.subflows[0].bytes, b.subflows[0].bytes);
    }

    #[test]
    #[should_panic(expected = "at least one subflow")]
    fn empty_subflows_panics() {
        let (mut sim, _) = triangle_subflows();
        let _ = MptcpTransfer::launch(
            &mut sim,
            vec![],
            MB,
            TcpConfig::default(),
            Scheduler::MinRtt,
            0,
            |_, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "last open subflow")]
    fn cannot_close_final_subflow() {
        let (mut sim, mut flows) = triangle_subflows();
        flows.truncate(1);
        let handle = MptcpTransfer::launch(
            &mut sim,
            flows,
            100 * MB,
            TcpConfig::default(),
            Scheduler::MinRtt,
            0,
            |_, _| {},
        );
        handle.close_subflow(&mut sim, 0);
    }
}

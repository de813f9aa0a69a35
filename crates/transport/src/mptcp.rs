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
//! This is the crate's one window model; a single-path
//! [`TcpTransfer`](crate::conn::TcpTransfer) is a connection with one
//! subflow. Each congestion window is dispatched as one simulator flow
//! rate-capped at `cwnd / rtt`: uncontended, a full window takes exactly
//! one RTT (self-clocking); under contention the fair-share allocator
//! stretches it. Loss is sampled per window from the path's end-to-end
//! loss probability; on loss the window halves (NewReno-style
//! multiplicative decrease) and then grows by one MSS per window. Growth
//! is ACK-clocked: the window only grows when the previous window
//! completed near the RTT bound (the sender, not the path, was the
//! limit). Windows are capped at 1 GiB (the receive window).
//!
//! Tunnel encapsulation overhead (VPN: 36 bytes/packet; NAT: 0) is
//! modeled as a wire-byte inflation factor on the tunneled subflow.
//!
//! A connection is a value its caller owns: the caller hands each of
//! its [`Token`]s (window sent, ACK arrived) back to
//! [`MptcpTransfer::on_token`], which returns the stats at the end.

use crate::rtt::SrttEstimator;
use crate::tcp::{TcpConfig, MSS};
use crate::token::{Phase, Token};
use hpop_netsim::netsim::NetSim;
use hpop_netsim::routing::Path;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_netsim::topology::Topology;
use hpop_netsim::units::Bandwidth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

#[derive(Debug)]
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
    /// The window in flight (goodput bytes) and when it was sent; read
    /// only while `busy`.
    in_flight: u64,
    sent_at: SimTime,
}

impl Subflow {
    fn new(spec: SubflowSpec, topo: &Topology, cfg: TcpConfig) -> Subflow {
        Subflow {
            rtt_base: spec.path.rtt(topo).max(SimDuration::from_micros(100)),
            loss: spec.path.loss(topo),
            cwnd: cfg.init_cwnd_bytes().max(1),
            ssthresh: u64::MAX,
            srtt: SrttEstimator::new(),
            busy: false,
            closed: false,
            delivered: 0,
            wire_bytes: 0,
            windows: 0,
            loss_events: 0,
            in_flight: 0,
            sent_at: SimTime::ZERO,
            spec,
        }
    }

    fn rtt_eff(&self) -> SimDuration {
        self.rtt_base + self.spec.ack_delay
    }

    fn sched_rtt(&self) -> SimDuration {
        self.srtt.srtt().unwrap_or_else(|| self.rtt_eff())
    }

    fn overhead_factor(&self) -> f64 {
        1.0 + self.spec.per_packet_overhead as f64 / MSS as f64
    }
}

/// A multipath TCP bulk transfer: one connection, owned by its caller.
///
/// ```
/// use hpop_netsim::prelude::*;
/// use hpop_transport::mptcp::{MptcpTransfer, Scheduler, SubflowSpec};
/// use hpop_transport::tcp::TcpConfig;
/// use hpop_transport::token::Token;
///
/// let mut b = TopologyBuilder::new();
/// let server = b.add_node("server");
/// let client = b.add_node("client");
/// b.add_link(server, client, Bandwidth::mbps(100.0), SimDuration::from_millis(10));
/// let mut sim = NetSim::with_topology(b.build());
/// let path = sim.state.net.routing().route(server, client).expect("connected");
/// let direct = vec![SubflowSpec::new("direct", path)];
/// let (cfg, min_rtt) = (TcpConfig::default(), Scheduler::MinRtt);
/// let mut conn = MptcpTransfer::launch(&mut sim, 0, direct, 5 * MB, cfg, min_rtt, 0);
/// // Hand each of its tokens back until it reports its stats.
/// let mut stats = None;
/// while let Some(fired) = sim.next(SimTime::MAX) {
///     let token = Token::of(fired.token()).expect("the connection's");
///     stats = stats.or(conn.on_token(&mut sim, token));
/// }
/// assert_eq!(stats.expect("completed").bytes, 5 * MB);
/// ```
#[derive(Debug)]
pub struct MptcpTransfer {
    id: u32,
    cfg: TcpConfig,
    scheduler: Scheduler,
    subflows: Vec<Subflow>,
    unassigned: u64,
    total: u64,
    started_at: SimTime,
    rr_next: usize,
    rng: StdRng,
}

impl MptcpTransfer {
    /// Launches a transfer of `bytes` across `subflows` as connection
    /// `id`: every token it hands the engine is a [`Token`] of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `subflows` is empty or `bytes` is zero.
    pub fn launch(
        sim: &mut NetSim,
        id: u32,
        subflows: Vec<SubflowSpec>,
        bytes: u64,
        cfg: TcpConfig,
        scheduler: Scheduler,
        seed: u64,
    ) -> MptcpTransfer {
        assert!(!subflows.is_empty(), "MPTCP needs at least one subflow");
        assert!(bytes > 0, "an MPTCP transfer needs at least one byte");
        let topo = sim.state.net.topology();
        let subflows = subflows
            .into_iter()
            .map(|spec| Subflow::new(spec, topo, cfg))
            .collect();
        let mut conn = MptcpTransfer {
            id,
            cfg,
            scheduler,
            subflows,
            unassigned: bytes,
            total: bytes,
            started_at: sim.now(),
            rr_next: 0,
            rng: StdRng::seed_from_u64(seed),
        };
        conn.dispatch(sim);
        conn
    }

    /// The connection's id, which all its tokens carry.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Acts on one of this connection's tokens: a sent window waits out
    /// its subflow's ACK delay, an arrived ACK updates the subflow and
    /// feeds idle subflows. Returns the stats once every byte has been
    /// delivered; panics on a token that is not one of its windows'.
    pub fn on_token(&mut self, sim: &mut NetSim, token: Token) -> Option<MptcpStats> {
        let Token { conn, phase, index } = token;
        let id = self.id;
        assert!(
            conn == id && phase != Phase::Timer,
            "connection {id} was handed {token:?}"
        );
        if phase == Phase::Sent {
            // ACK-delay adds client-side latency before the server sees
            // the window done.
            let (ack_delay, phase) = (self.subflows[index as usize].spec.ack_delay, Phase::Acked);
            sim.schedule_in(ack_delay, Token { conn, phase, index }.raw());
            return None;
        }
        self.acked(sim.now(), index as usize);
        self.dispatch(sim);
        let done = self.unassigned == 0 && self.subflows.iter().all(|f| !f.busy);
        done.then(|| self.stats(sim.now()))
    }

    /// Runs `sim` dry, handing every token to this connection, and
    /// returns its stats; panics if another token fires or it never
    /// completes.
    pub fn run(&mut self, sim: &mut NetSim) -> MptcpStats {
        let mut stats = None;
        while let Some(fired) = sim.next(SimTime::MAX) {
            let token = Token::of(fired.token()).expect("a connection's token");
            stats = stats.or(self.on_token(sim, token));
        }
        stats.expect("the connection completes")
    }

    /// Closes subflow `idx`: it gets no further windows (its in-flight
    /// window still completes). The §IV-C "withdraw undesirable detours"
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if this would close the last open subflow while data
    /// remains (the connection could never finish), or if `idx` is out
    /// of range.
    pub fn close_subflow(&mut self, sim: &mut NetSim, idx: usize) {
        let open_others = self
            .subflows
            .iter()
            .enumerate()
            .filter(|(i, s)| *i != idx && !s.closed)
            .count();
        assert!(
            open_others > 0 || self.unassigned == 0,
            "cannot close the last open subflow with data remaining"
        );
        self.subflows[idx].closed = true;
        self.dispatch(sim);
    }

    /// Adds a subflow to the live connection (§IV-C: hosts "add, remove,
    /// or change detours dynamically in the course of the
    /// communication"). Returns the new subflow's index. No-op beyond
    /// bookkeeping if the transfer already finished.
    pub fn add_subflow(&mut self, sim: &mut NetSim, spec: SubflowSpec) -> usize {
        let subflow = Subflow::new(spec, sim.state.net.topology(), self.cfg);
        self.subflows.push(subflow);
        self.dispatch(sim);
        self.subflows.len() - 1
    }

    /// Number of subflows (open or closed).
    pub fn subflow_count(&self) -> usize {
        self.subflows.len()
    }

    /// Number of subflows still open.
    pub fn open_subflows(&self) -> usize {
        self.subflows.iter().filter(|s| !s.closed).count()
    }

    /// Whether subflow `idx` is open.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn is_open(&self, idx: usize) -> bool {
        !self.subflows[idx].closed
    }

    /// Goodput bytes delivered so far by subflow `idx`.
    pub fn delivered(&self, idx: usize) -> u64 {
        self.subflows[idx].delivered
    }

    /// Picks the next idle, open subflow per the scheduler; `None` if
    /// all busy/closed.
    fn pick(&mut self) -> Option<usize> {
        let n = self.subflows.len();
        let idle = |f: &Subflow| !f.busy && !f.closed;
        match self.scheduler {
            Scheduler::MinRtt => (0..n)
                .filter(|&i| idle(&self.subflows[i]))
                .min_by_key(|&i| self.subflows[i].sched_rtt()),
            Scheduler::RoundRobin => {
                let i = (0..n)
                    .map(|off| (self.rr_next + off) % n)
                    .find(|&i| idle(&self.subflows[i]))?;
                self.rr_next = (i + 1) % n;
                Some(i)
            }
        }
    }

    /// Dispatches windows to idle subflows until data or subflows run
    /// out.
    fn dispatch(&mut self, sim: &mut NetSim) {
        while self.unassigned > 0 {
            let Some(idx) = self.pick() else { return };
            let window = self.subflows[idx].cwnd.min(self.unassigned);
            self.unassigned -= window;
            let f = &mut self.subflows[idx];
            f.busy = true;
            f.windows += 1;
            f.in_flight = window;
            f.sent_at = sim.now();
            let ovh = f.overhead_factor();
            let wire = (window as f64 * ovh).ceil() as u64;
            f.wire_bytes += wire;
            // Cap the wire rate so goodput is cwnd/rtt_eff.
            let cap = Bandwidth::from_bps(f.cwnd as f64 * ovh * 8.0 / f.rtt_eff().as_secs_f64());
            let (conn, phase, index) = (self.id, Phase::Sent, idx as u32);
            let sent = Token { conn, phase, index }.raw();
            sim.start_transfer_on_path(&f.spec.path, wire, Some(cap), sent);
        }
    }

    /// Subflow `idx`'s window was acknowledged at `now`: it is delivered,
    /// the RTT is sampled, loss is drawn and the window resized.
    fn acked(&mut self, now: SimTime, idx: usize) {
        let mss = MSS as u64;
        let f = &mut self.subflows[idx];
        let observed = now.since(f.sent_at);
        let rtt_eff = f.rtt_eff();
        let window = f.in_flight;
        f.busy = false;
        f.delivered += window;
        f.srtt.observe(observed);
        let npkts = window.div_ceil(mss).max(1);
        let p_win = 1.0 - (1.0 - f.loss).powi(npkts.min(1 << 20) as i32);
        let lost = f.loss > 0.0 && {
            let roll: f64 = self.rng.gen();
            roll < p_win
        };
        let f = &mut self.subflows[idx];
        if lost {
            f.loss_events += 1;
            f.ssthresh = (f.cwnd / 2).max(2 * mss);
            f.cwnd = f.ssthresh;
        } else if observed <= rtt_eff + rtt_eff / 4 {
            if f.cwnd < f.ssthresh {
                f.cwnd = f.cwnd.saturating_mul(2);
            } else {
                f.cwnd += mss;
            }
            f.cwnd = f.cwnd.min(1 << 30);
        }
    }

    fn stats(&self, now: SimTime) -> MptcpStats {
        MptcpStats {
            bytes: self.total,
            started_at: self.started_at,
            completed_at: now,
            subflows: self
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
        }
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

    fn launch(
        sim: &mut NetSim,
        subflows: Vec<SubflowSpec>,
        bytes: u64,
        sched: Scheduler,
        seed: u64,
    ) -> MptcpTransfer {
        let cfg = TcpConfig::default();
        MptcpTransfer::launch(sim, 0, subflows, bytes, cfg, sched, seed)
    }

    fn run(
        mut sim: NetSim,
        subflows: Vec<SubflowSpec>,
        bytes: u64,
        sched: Scheduler,
        seed: u64,
    ) -> MptcpStats {
        launch(&mut sim, subflows, bytes, sched, seed).run(&mut sim)
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
        let mut conn = launch(&mut sim, flows, 100 * MB, Scheduler::MinRtt, 9);
        // The caller's own timer: withdraw the lossy direct path at 500 ms.
        sim.schedule_in(SimDuration::from_millis(500), 1);
        let mut stats = None;
        while let Some(fired) = sim.next(SimTime::MAX) {
            match Token::of(fired.token()) {
                None => conn.close_subflow(&mut sim, 0),
                Some(t) => stats = stats.or(conn.on_token(&mut sim, t)),
            }
        }
        let s = stats.expect("completed");
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
    fn connections_with_different_ids_share_one_engine() {
        let (mut sim, flows) = triangle_subflows();
        let cfg = TcpConfig::default();
        let mut conns = [3, 8].map(|id| {
            MptcpTransfer::launch(
                &mut sim,
                id,
                flows.clone(),
                20 * MB,
                cfg,
                Scheduler::MinRtt,
                1,
            )
        });
        let mut done = Vec::new();
        while let Some(fired) = sim.next(SimTime::MAX) {
            let t = Token::of(fired.token()).unwrap();
            let conn = conns.iter_mut().find(|c| c.id() == t.conn).unwrap();
            if let Some(s) = conn.on_token(&mut sim, t) {
                done.push((conn.id(), s.bytes));
            }
        }
        done.sort_unstable();
        assert_eq!(done, vec![(3, 20 * MB), (8, 20 * MB)]);
    }

    #[test]
    #[should_panic(expected = "was handed")]
    fn a_foreign_token_is_refused() {
        let (mut sim, flows) = triangle_subflows();
        let mut conn = launch(&mut sim, flows, MB, Scheduler::MinRtt, 0);
        let phase = Phase::Sent;
        conn.on_token(
            &mut sim,
            Token {
                conn: 1,
                phase,
                index: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least one subflow")]
    fn empty_subflows_panics() {
        let (mut sim, _) = triangle_subflows();
        let _ = launch(&mut sim, vec![], MB, Scheduler::MinRtt, 0);
    }

    #[test]
    #[should_panic(expected = "last open subflow")]
    fn cannot_close_final_subflow() {
        let (mut sim, mut flows) = triangle_subflows();
        flows.truncate(1);
        let mut conn = launch(&mut sim, flows, 100 * MB, Scheduler::MinRtt, 0);
        conn.close_subflow(&mut sim, 0);
    }
}

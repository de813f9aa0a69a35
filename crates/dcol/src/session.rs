//! End-to-end DCol transfer sessions.
//!
//! Wires the pieces together the way Fig. 3 shows: the connection starts
//! on the direct path (the paper requires the TLS handshake to complete
//! there before any detour is engaged), tunnels to the chosen waypoints
//! are prepared (VPN join or NAT signaling — each costs its own setup
//! delay), and detour subflows are added as they become ready. A review
//! pass later withdraws subflows that turned out harmful — the
//! trial-and-error loop.

use crate::collective::MemberId;
use crate::tunnel::{TunnelState, TunnelType};
use hpop_netsim::netsim::NetSim;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_netsim::topology::NodeId;
use hpop_obs::{event, TraceCtx};
use hpop_transport::mptcp::{MptcpStats, MptcpTransfer, Scheduler, SubflowSpec};
use hpop_transport::tcp::TcpConfig;
use hpop_transport::token::{Phase, Token};

/// Session parameters.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Tunneling mechanism for every detour.
    pub tunnel: TunnelType,
    /// Server-side subflow scheduler.
    pub scheduler: Scheduler,
    /// Loss-sampling seed.
    pub seed: u64,
    /// When (after launch) to review subflows and withdraw laggards;
    /// `None` disables the review.
    pub review_after: Option<SimDuration>,
    /// A subflow is withdrawn at review if it delivered less than this
    /// fraction of the best subflow's bytes.
    pub withdraw_below: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            tunnel: TunnelType::Vpn,
            scheduler: Scheduler::MinRtt,
            seed: 0,
            review_after: None,
            withdraw_below: 0.05,
        }
    }
}

/// What one of a session's timers does when it fires.
#[derive(Debug)]
enum Timer {
    /// A waypoint's tunnel is up: add its subflow.
    Setup(SubflowSpec),
    /// Withdraw subflows delivering under this fraction of the best.
    Review(f64),
    /// Keep the best this many subflows and withdraw the rest.
    Probe(usize),
}

/// A DCol-assisted transfer: direct subflow plus waypoint detours, owned
/// by its caller like the connection it wraps. Its tokens are its
/// connection's; hand each back to [`DcolSession::on_token`].
#[derive(Debug)]
pub struct DcolSession {
    conn: MptcpTransfer,
    /// Each timer fires once; its token's index is its index here.
    timers: Vec<Option<Timer>>,
    /// The trace recorded on completion (unsampled for uploads): its
    /// root, the launch instant and the tunnel-setup waits, in µs.
    root: TraceCtx,
    t0_us: u64,
    setups_us: Vec<(u64, u64)>,
}

impl DcolSession {
    /// A session over a fresh connection of `subflows`, whose trace
    /// (if `root` is sampled) starts now.
    fn connect(
        sim: &mut NetSim,
        id: u32,
        subflows: Vec<SubflowSpec>,
        bytes: u64,
        cfg: &SessionConfig,
        root: TraceCtx,
    ) -> DcolSession {
        let (t0_us, tcp) = (sim.now().as_nanos() / 1_000, TcpConfig::default());
        let conn = MptcpTransfer::launch(sim, id, subflows, bytes, tcp, cfg.scheduler, cfg.seed);
        DcolSession {
            conn,
            timers: Vec::new(),
            root,
            t0_us,
            setups_us: Vec::new(),
        }
    }

    /// Launches a `bytes` download from `server` to `client` using the
    /// given waypoints, as session (and connection) `id`. Subflow 0 is
    /// the direct path; waypoints follow as their tunnels come up.
    ///
    /// # Panics
    ///
    /// Panics if `client` and `server` are disconnected.
    pub fn launch(
        sim: &mut NetSim,
        id: u32,
        client: NodeId,
        server: NodeId,
        waypoints: &[(MemberId, NodeId)],
        bytes: u64,
        cfg: SessionConfig,
    ) -> DcolSession {
        let subflows = vec![direct(sim, server, client)];
        let root = hpop_obs::spans().root();
        let mut session = DcolSession::connect(sim, id, subflows, bytes, &cfg, root);
        let t0_us = session.t0_us;
        for &(member, node) in waypoints {
            // Tunnel setup: client↔waypoint signaling before the subflow
            // can exist.
            let leg = sim
                .state
                .net
                .routing()
                .route(client, node)
                .expect("waypoint unreachable");
            let mut tunnel = TunnelState::new(cfg.tunnel);
            let setup = tunnel.prepare(
                server.index() as u64,
                443,
                leg.rtt(sim.state.net.topology()),
            );
            session
                .setups_us
                .push((t0_us, t0_us + setup.as_nanos() / 1_000));
            let spec = detour(sim, server, (member, node), client, cfg.tunnel);
            session.schedule(sim, setup, Timer::Setup(spec));
        }
        if let Some(after) = cfg.review_after {
            session.schedule(sim, after, Timer::Review(cfg.withdraw_below));
        }
        session
    }

    /// Launches an *upload* (`client → server`) with direct waypoint
    /// exploration: §IV-C — "when the data flows mostly from the client
    /// to the server … the client can directly explore different
    /// waypoints by sending a few data packets over new subflows and
    /// staying with those waypoints that perform well." All candidate
    /// subflows start immediately; at `probe_after` the client keeps the
    /// best `keep_best` subflows and withdraws the rest.
    ///
    /// # Panics
    ///
    /// Panics if `keep_best == 0` or the endpoints are disconnected.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_upload(
        sim: &mut NetSim,
        id: u32,
        client: NodeId,
        server: NodeId,
        waypoints: &[(MemberId, NodeId)],
        bytes: u64,
        cfg: SessionConfig,
        keep_best: usize,
        probe_after: SimDuration,
    ) -> DcolSession {
        assert!(keep_best > 0, "must keep at least one subflow");
        let mut subflows = vec![direct(sim, client, server)];
        for &waypoint in waypoints {
            subflows.push(detour(sim, client, waypoint, server, cfg.tunnel));
        }
        let mut session = DcolSession::connect(sim, id, subflows, bytes, &cfg, TraceCtx::NONE);
        session.schedule(sim, probe_after, Timer::Probe(keep_best));
        session
    }

    /// The connection underneath (for its subflows' state).
    pub fn conn(&self) -> &MptcpTransfer {
        &self.conn
    }

    /// Acts on one of this session's tokens: a timer sets up a subflow,
    /// reviews or probes; a window's goes to the connection. Returns the
    /// stats once every byte has been delivered; panics on another
    /// session's token.
    pub fn on_token(&mut self, sim: &mut NetSim, token: Token) -> Option<MptcpStats> {
        if token.phase != Phase::Timer {
            let stats = self.conn.on_token(sim, token)?;
            self.record_trace(sim.now());
            return Some(stats);
        }
        assert_eq!(token.conn, self.conn.id(), "session was handed {token:?}");
        match self.timers[token.index as usize]
            .take()
            .expect("a timer fires once")
        {
            Timer::Setup(spec) => {
                let label = spec.label.clone();
                let idx = self.conn.add_subflow(sim, spec);
                hpop_obs::metrics().counter("dcol.subflows.added").incr();
                event!(
                    hpop_obs::spans(),
                    sim.now().as_nanos() / 1_000,
                    "dcol",
                    "subflow.add",
                    index = idx as u64,
                    label = label.as_str()
                );
            }
            Timer::Review(threshold) => self.review_and_withdraw(sim, threshold),
            Timer::Probe(k) => self.keep_top_k(sim, k),
        }
        None
    }

    /// Runs `sim` dry, handing every token to this session, and returns
    /// its stats; panics if another token fires or it never completes.
    pub fn run(&mut self, sim: &mut NetSim) -> MptcpStats {
        let mut stats = None;
        while let Some(fired) = sim.next(SimTime::MAX) {
            let token = Token::of(fired.token()).expect("a session's token");
            stats = stats.or(self.on_token(sim, token));
        }
        stats.expect("the session completes")
    }

    fn schedule(&mut self, sim: &mut NetSim, delay: SimDuration, timer: Timer) {
        let (conn, phase, index) = (self.conn.id(), Phase::Timer, self.timers.len() as u32);
        self.timers.push(Some(timer));
        sim.schedule_in(delay, Token { conn, phase, index }.raw());
    }

    /// Records the transfer and its tunnel-setup waits as children of
    /// the session's root, clamped into the root interval so the trace
    /// tree stays well-formed even if a tunnel outlives the transfer.
    fn record_trace(&self, now: SimTime) {
        let (root, t0_us) = (&self.root, self.t0_us);
        if root.is_sampled() {
            let spans = hpop_obs::spans();
            let end_us = now.as_nanos() / 1_000;
            spans.record_child(root, "dcol", "transfer", t0_us, end_us);
            for &(qs, qe) in &self.setups_us {
                spans.record_child(root, "dcol", "queue", qs.min(end_us), qe.min(end_us));
            }
            spans.record(root, "dcol", "request", t0_us, end_us);
        }
    }

    /// Closes all but the `k` best-performing open subflows.
    fn keep_top_k(&mut self, sim: &mut NetSim, k: usize) {
        let conn = &mut self.conn;
        let mut ranked: Vec<(u64, usize)> = (0..conn.subflow_count())
            .filter(|&i| conn.is_open(i))
            .map(|i| (conn.delivered(i), i))
            .collect();
        ranked.sort_by_key(|&(d, _)| std::cmp::Reverse(d));
        for &(_, idx) in ranked.iter().skip(k) {
            if conn.open_subflows() > 1 {
                conn.close_subflow(sim, idx);
                note_withdrawn(sim, idx, "probe");
            }
        }
    }

    /// Withdraws subflows delivering less than `threshold` of the best
    /// subflow's bytes (never the last open one).
    fn review_and_withdraw(&mut self, sim: &mut NetSim, threshold: f64) {
        let conn = &mut self.conn;
        let delivered: Vec<u64> = (0..conn.subflow_count())
            .map(|i| conn.delivered(i))
            .collect();
        let best = delivered.iter().copied().max().unwrap_or(0);
        if best == 0 {
            return;
        }
        for (i, &d) in delivered.iter().enumerate() {
            if (d as f64) < threshold * best as f64 && conn.open_subflows() > 1 && conn.is_open(i) {
                conn.close_subflow(sim, i);
                note_withdrawn(sim, i, "review");
            }
        }
    }
}

/// The direct subflow `src → dst` along the native route.
fn direct(sim: &mut NetSim, src: NodeId, dst: NodeId) -> SubflowSpec {
    let path = sim.state.net.routing().route(src, dst);
    SubflowSpec::new("direct", path.expect("client and server must be connected"))
}

/// The detour subflow `src → waypoint → dst` through the waypoint
/// member's `tunnel`.
fn detour(
    sim: &mut NetSim,
    src: NodeId,
    (member, node): (MemberId, NodeId),
    dst: NodeId,
    tunnel: TunnelType,
) -> SubflowSpec {
    let via = sim
        .state
        .net
        .routing()
        .route_via(src, node, dst)
        .expect("detour route exists");
    let mut spec = SubflowSpec::new(format!("via-m{}", member.0), via);
    spec.per_packet_overhead = tunnel.per_packet_overhead();
    spec
}

fn note_withdrawn(sim: &NetSim, idx: usize, reason: &str) {
    hpop_obs::metrics()
        .counter("dcol.subflows.withdrawn")
        .incr();
    event!(
        hpop_obs::spans(),
        sim.now().as_nanos() / 1_000,
        "dcol",
        "subflow.withdraw",
        index = idx as u64,
        reason = reason
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_netsim::presets::{detour_triangle, DetourParams};
    use hpop_netsim::units::MB;

    fn run(waypoint_count: usize, cfg: SessionConfig, bytes: u64) -> MptcpStats {
        let t = detour_triangle(&DetourParams::default());
        let mut sim = NetSim::with_topology(t.topology.clone());
        let wps: Vec<(MemberId, NodeId)> = (0..waypoint_count)
            .map(|i| (MemberId(i as u32), t.waypoint))
            .collect();
        DcolSession::launch(&mut sim, 0, t.client, t.server, &wps, bytes, cfg).run(&mut sim)
    }

    #[test]
    fn detour_accelerates_download() {
        let direct_only = run(0, SessionConfig::default(), 100 * MB);
        let with_detour = run(1, SessionConfig::default(), 100 * MB);
        assert!(
            with_detour.duration() < direct_only.duration(),
            "detour {} vs direct {}",
            with_detour.duration(),
            direct_only.duration()
        );
        // The clean gigabit detour carries most bytes.
        assert!(with_detour.share(1) > 0.5, "share {}", with_detour.share(1));
    }

    #[test]
    fn vpn_overhead_shows_on_wire() {
        let cfg = SessionConfig {
            tunnel: TunnelType::Vpn,
            ..SessionConfig::default()
        };
        let s = run(1, cfg, 50 * MB);
        let sf = &s.subflows[1];
        assert!(
            sf.wire_bytes > sf.bytes,
            "VPN subflow must inflate wire bytes"
        );
        let cfg = SessionConfig {
            tunnel: TunnelType::Nat,
            ..SessionConfig::default()
        };
        let s = run(1, cfg, 50 * MB);
        assert_eq!(s.subflows[1].wire_bytes, s.subflows[1].bytes);
    }

    #[test]
    fn review_withdraws_useless_direct_path() {
        // Make the direct path nearly useless (tiny + lossy) and ask the
        // session to review after 2s.
        let params = DetourParams {
            direct_capacity: hpop_netsim::units::Bandwidth::mbps(5.0),
            direct_loss: 0.05,
            ..DetourParams::default()
        };
        let t = detour_triangle(&params);
        let mut sim = NetSim::with_topology(t.topology.clone());
        let cfg = SessionConfig {
            review_after: Some(SimDuration::from_secs(2)),
            withdraw_below: 0.10,
            ..SessionConfig::default()
        };
        let wps = [(MemberId(0), t.waypoint)];
        let mut session = DcolSession::launch(&mut sim, 0, t.client, t.server, &wps, 200 * MB, cfg);
        let s = session.run(&mut sim);
        // The direct subflow was withdrawn early: its byte share is tiny.
        assert!(s.share(0) < 0.10, "direct share {}", s.share(0));
        assert_eq!(s.bytes, 200 * MB);
    }

    #[test]
    fn upload_exploration_keeps_the_good_waypoint() {
        // Two candidate waypoints for an upload; one leg is badly
        // degraded. After the probe the client keeps only the best
        // subflow and the upload still completes faster than direct.
        use hpop_netsim::topology::TopologyBuilder;
        use hpop_netsim::units::Bandwidth;
        let mut b = TopologyBuilder::new();
        let client = b.add_node("client");
        let server = b.add_node("server");
        let good = b.add_node("good-wp");
        let bad = b.add_node("bad-wp");
        // Direct: asymmetric residential upload, slow.
        b.add_link_weighted(
            client,
            server,
            Bandwidth::mbps(20.0),
            Bandwidth::mbps(20.0),
            SimDuration::from_millis(60),
            0.0,
            1,
        );
        b.add_link(
            client,
            good,
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(10),
        );
        b.add_link(
            good,
            server,
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(10),
        );
        b.add_link(
            client,
            bad,
            Bandwidth::mbps(2.0),
            SimDuration::from_millis(150),
        );
        b.add_link(
            bad,
            server,
            Bandwidth::mbps(2.0),
            SimDuration::from_millis(150),
        );
        let mut sim = NetSim::with_topology(b.build());
        let mut session = DcolSession::launch_upload(
            &mut sim,
            0,
            client,
            server,
            &[(MemberId(0), good), (MemberId(1), bad)],
            100 * MB,
            SessionConfig::default(),
            1,
            SimDuration::from_secs(1),
        );
        let s = session.run(&mut sim);
        assert_eq!(s.bytes, 100 * MB);
        // After probing, only one subflow remained open.
        assert_eq!(session.conn().open_subflows(), 1);
        // The good waypoint carried the overwhelming majority.
        assert!(s.share(1) > 0.9, "good-wp share {}", s.share(1));
        // Well faster than the 20 Mbps direct path could ever be
        // (100 MB at 20 Mbps = 40 s).
        assert!(s.duration().as_secs_f64() < 10.0, "{}", s.duration());
    }

    #[test]
    #[should_panic(expected = "at least one subflow")]
    fn upload_keep_zero_rejected() {
        let t = detour_triangle(&DetourParams::default());
        let mut sim = NetSim::with_topology(t.topology.clone());
        DcolSession::launch_upload(
            &mut sim,
            0,
            t.client,
            t.server,
            &[],
            MB,
            SessionConfig::default(),
            0,
            SimDuration::from_secs(1),
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(1, SessionConfig::default(), 30 * MB);
        let b = run(1, SessionConfig::default(), 30 * MB);
        assert_eq!(a.completed_at, b.completed_at);
    }

    /// A session over a 100k-home city: client, server and waypoint are
    /// homes under three different metro PoPs, so it routes natively from
    /// three sources; run with `--release -- --ignored`.
    #[test]
    #[ignore = "100k homes; run with --release"]
    fn session_with_a_waypoint_home_completes_at_city_scale() {
        use hpop_netsim::presets::{metro, MetroParams};
        let city = metro(&MetroParams {
            homes: 100_000,
            ..MetroParams::default()
        });
        let mut sim = NetSim::with_topology(city.topology.clone());
        let (client, waypoint, server) = (city.homes[0], city.homes[50_000], city.homes[99_999]);
        let wps = [(MemberId(0), waypoint)];
        let cfg = SessionConfig::default();
        let s = DcolSession::launch(&mut sim, 0, client, server, &wps, 50 * MB, cfg).run(&mut sim);
        assert_eq!(s.bytes, 50 * MB);
        assert_eq!(s.subflows.iter().map(|f| f.bytes).sum::<u64>(), 50 * MB);
    }
}

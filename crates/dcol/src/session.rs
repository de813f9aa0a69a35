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
use hpop_netsim::time::SimDuration;
use hpop_netsim::topology::NodeId;
use hpop_obs::event;
use hpop_transport::mptcp::{MptcpHandle, MptcpStats, MptcpTransfer, Scheduler, SubflowSpec};
use hpop_transport::tcp::TcpConfig;

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

/// A DCol-assisted download: direct subflow plus waypoint detours.
#[derive(Debug)]
pub struct DcolSession;

impl DcolSession {
    /// Launches a `bytes` download from `server` to `client` using the
    /// given waypoints. Returns the steering handle (subflow 0 is the
    /// direct path; waypoints follow in order as their tunnels come up).
    ///
    /// # Panics
    ///
    /// Panics if `client` and `server` are disconnected.
    pub fn launch(
        sim: &mut NetSim,
        client: NodeId,
        server: NodeId,
        waypoints: &[(MemberId, NodeId)],
        bytes: u64,
        cfg: SessionConfig,
        on_done: impl FnOnce(&mut NetSim, MptcpStats) + 'static,
    ) -> MptcpHandle {
        let direct = sim
            .state
            .net
            .routing()
            .route(server, client)
            .expect("client and server must be connected");
        let spans = hpop_obs::spans();
        let root = spans.root();
        let t0_us = sim.now().as_nanos() / 1_000;
        // Tunnel-setup waits, recorded as "queue" children when the
        // session completes (clamped into the root interval so the
        // trace tree stays well-formed even if a tunnel outlives the
        // transfer).
        let queue_intervals: std::rc::Rc<std::cell::RefCell<Vec<(u64, u64)>>> =
            std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let q = queue_intervals.clone();
        let handle = MptcpTransfer::launch(
            sim,
            vec![SubflowSpec::new("direct", direct)],
            bytes,
            TcpConfig::default(),
            cfg.scheduler,
            cfg.seed,
            move |sim: &mut NetSim, stats: MptcpStats| {
                if root.is_sampled() {
                    let end_us = sim.now().as_nanos() / 1_000;
                    spans.record_child(&root, "dcol", "transfer", t0_us, end_us);
                    for &(qs, qe) in q.borrow().iter() {
                        spans.record_child(&root, "dcol", "queue", qs.min(end_us), qe.min(end_us));
                    }
                    spans.record(&root, "dcol", "request", t0_us, end_us);
                }
                on_done(sim, stats)
            },
        );

        for (i, &(member, node)) in waypoints.iter().enumerate() {
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
            queue_intervals
                .borrow_mut()
                .push((t0_us, t0_us + setup.as_nanos() / 1_000));
            let spec = detour(sim, server, (member, node), client, cfg.tunnel);
            let h = handle.clone();
            sim.schedule_in(setup, move |sim| {
                let label = spec.label.clone();
                let idx = h.add_subflow(sim, spec);
                debug_assert_eq!(idx, i + 1);
                hpop_obs::metrics().counter("dcol.subflows.added").incr();
                event!(
                    hpop_obs::spans(),
                    sim.now().as_nanos() / 1_000,
                    "dcol",
                    "subflow.add",
                    index = idx as u64,
                    label = label.as_str()
                );
            });
        }

        if let Some(after) = cfg.review_after {
            let h = handle.clone();
            let threshold = cfg.withdraw_below;
            sim.schedule_in(after, move |sim| {
                review_and_withdraw(sim, &h, threshold);
            });
        }
        handle
    }
}

impl DcolSession {
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
        client: NodeId,
        server: NodeId,
        waypoints: &[(MemberId, NodeId)],
        bytes: u64,
        cfg: SessionConfig,
        keep_best: usize,
        probe_after: SimDuration,
        on_done: impl FnOnce(&mut NetSim, MptcpStats) + 'static,
    ) -> MptcpHandle {
        assert!(keep_best > 0, "must keep at least one subflow");
        let direct = sim
            .state
            .net
            .routing()
            .route(client, server)
            .expect("client and server must be connected");
        let mut subflows = vec![SubflowSpec::new("direct", direct)];
        for &waypoint in waypoints {
            subflows.push(detour(sim, client, waypoint, server, cfg.tunnel));
        }
        let handle = MptcpTransfer::launch(
            sim,
            subflows,
            bytes,
            TcpConfig::default(),
            cfg.scheduler,
            cfg.seed,
            on_done,
        );
        let h = handle.clone();
        sim.schedule_in(probe_after, move |sim| {
            keep_top_k(sim, &h, keep_best);
        });
        handle
    }
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

/// Closes all but the `k` best-performing open subflows.
fn keep_top_k(sim: &mut NetSim, handle: &MptcpHandle, k: usize) {
    let n = handle.subflow_count();
    let mut ranked: Vec<(u64, usize)> = (0..n)
        .filter(|&i| handle.is_open(i))
        .map(|i| (handle.delivered(i), i))
        .collect();
    ranked.sort_by_key(|&(d, _)| std::cmp::Reverse(d));
    for &(_, idx) in ranked.iter().skip(k) {
        if handle.open_subflows() > 1 {
            handle.close_subflow(sim, idx);
            note_withdrawn(sim, idx, "probe");
        }
    }
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

/// Withdraws subflows delivering less than `threshold` of the best
/// subflow's bytes (never the last open one).
fn review_and_withdraw(sim: &mut NetSim, handle: &MptcpHandle, threshold: f64) {
    let n = handle.subflow_count();
    let delivered: Vec<u64> = (0..n).map(|i| handle.delivered(i)).collect();
    let best = delivered.iter().copied().max().unwrap_or(0);
    if best == 0 {
        return;
    }
    for (i, &d) in delivered.iter().enumerate() {
        if (d as f64) < threshold * best as f64 && handle.open_subflows() > 1 && handle.is_open(i) {
            handle.close_subflow(sim, i);
            note_withdrawn(sim, i, "review");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_netsim::presets::{detour_triangle, DetourParams};
    use hpop_netsim::units::MB;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn run(waypoint_count: usize, cfg: SessionConfig, bytes: u64) -> MptcpStats {
        let t = detour_triangle(&DetourParams::default());
        let mut sim = NetSim::with_topology(t.topology.clone());
        let wps: Vec<(MemberId, NodeId)> = (0..waypoint_count)
            .map(|i| (MemberId(i as u32), t.waypoint))
            .collect();
        let out: Rc<RefCell<Option<MptcpStats>>> = Rc::new(RefCell::new(None));
        let o2 = out.clone();
        DcolSession::launch(
            &mut sim,
            t.client,
            t.server,
            &wps,
            bytes,
            cfg,
            move |_, s| {
                *o2.borrow_mut() = Some(s);
            },
        );
        sim.run();
        let s = out.borrow_mut().take().expect("session completed");
        s
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
        let out: Rc<RefCell<Option<MptcpStats>>> = Rc::new(RefCell::new(None));
        let o2 = out.clone();
        let cfg = SessionConfig {
            review_after: Some(SimDuration::from_secs(2)),
            withdraw_below: 0.10,
            ..SessionConfig::default()
        };
        DcolSession::launch(
            &mut sim,
            t.client,
            t.server,
            &[(MemberId(0), t.waypoint)],
            200 * MB,
            cfg,
            move |_, s| *o2.borrow_mut() = Some(s),
        );
        sim.run();
        let s = out.borrow_mut().take().unwrap();
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
        let out: Rc<RefCell<Option<MptcpStats>>> = Rc::new(RefCell::new(None));
        let o2 = out.clone();
        let handle = DcolSession::launch_upload(
            &mut sim,
            client,
            server,
            &[(MemberId(0), good), (MemberId(1), bad)],
            100 * MB,
            SessionConfig::default(),
            1,
            SimDuration::from_secs(1),
            move |_, s| *o2.borrow_mut() = Some(s),
        );
        sim.run();
        let s = out.borrow_mut().take().unwrap();
        assert_eq!(s.bytes, 100 * MB);
        // After probing, only one subflow remained open.
        assert_eq!(handle.open_subflows(), 1);
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
            t.client,
            t.server,
            &[],
            MB,
            SessionConfig::default(),
            0,
            SimDuration::from_secs(1),
            |_, _| {},
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
        let out: Rc<RefCell<Option<MptcpStats>>> = Rc::new(RefCell::new(None));
        let o2 = out.clone();
        DcolSession::launch(
            &mut sim,
            client,
            server,
            &[(MemberId(0), waypoint)],
            50 * MB,
            SessionConfig::default(),
            move |_, s| *o2.borrow_mut() = Some(s),
        );
        sim.run();
        let s = out.borrow_mut().take().expect("session completed");
        assert_eq!(s.bytes, 50 * MB);
        assert_eq!(s.subflows.iter().map(|f| f.bytes).sum::<u64>(), 50 * MB);
    }
}

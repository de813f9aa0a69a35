//! Pins the DCol session's observable trajectory: for each scenario the
//! completion instant (in nanoseconds) and, per subflow, the goodput
//! bytes, windows, loss events, wire bytes and final smoothed RTT are
//! folded into one digest that must equal the literal below. The
//! literals were captured from an earlier build; a refactor of
//! `hpop-dcol`, `hpop-transport` or the engine that moves one changed
//! behaviour (tunnel setups, reviews, probes, flows or RNG draws), not
//! just code.

use hpop_dcol::collective::MemberId;
use hpop_dcol::session::{DcolSession, SessionConfig};
use hpop_dcol::tunnel::TunnelType;
use hpop_netsim::netsim::NetSim;
use hpop_netsim::presets::{detour_triangle, DetourParams};
use hpop_netsim::time::SimDuration;
use hpop_netsim::topology::{NodeId, Topology, TopologyBuilder};
use hpop_netsim::units::{Bandwidth, MB};
use hpop_obs::mix;
use hpop_transport::mptcp::MptcpStats;

/// Folds the completion instant and every subflow's counters.
fn digest(s: &MptcpStats) -> u64 {
    let mut h = mix(s.completed_at.as_nanos());
    for f in &s.subflows {
        let srtt = f.srtt.map_or(u64::MAX, |d| d.as_nanos());
        for v in [
            f.bytes,
            f.windows.into(),
            f.loss_events.into(),
            f.wire_bytes,
            srtt,
        ] {
            h = mix(h ^ v);
        }
    }
    h
}

/// A download of `bytes` over the §IV-C triangle (`params`) through
/// `waypoints` copies of its waypoint.
fn download(params: &DetourParams, waypoints: u32, bytes: u64, cfg: SessionConfig) -> MptcpStats {
    let t = detour_triangle(params);
    let mut sim = NetSim::with_topology(t.topology.clone());
    let wps: Vec<(MemberId, NodeId)> = (0..waypoints).map(|i| (MemberId(i), t.waypoint)).collect();
    DcolSession::launch(&mut sim, 0, t.client, t.server, &wps, bytes, cfg).run(&mut sim)
}

/// A 20 Mbps direct upload path beside a gigabit and a 2 Mbps waypoint.
fn upload_topology() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let server = b.add_node("server");
    let good = b.add_node("good-wp");
    let bad = b.add_node("bad-wp");
    let mbps = Bandwidth::mbps;
    let ms = SimDuration::from_millis;
    b.add_link_weighted(client, server, mbps(20.0), mbps(20.0), ms(60), 0.0, 1);
    b.add_link(client, good, Bandwidth::gbps(1.0), ms(10));
    b.add_link(good, server, Bandwidth::gbps(1.0), ms(10));
    b.add_link(client, bad, mbps(2.0), ms(150));
    b.add_link(bad, server, mbps(2.0), ms(150));
    (b.build(), client, server, good, bad)
}

/// An upload of 60 MB that probes both waypoints for 1 s and keeps the
/// best `keep_best` subflows.
fn upload(keep_best: usize, cfg: SessionConfig) -> MptcpStats {
    let (topo, client, server, good, bad) = upload_topology();
    let mut sim = NetSim::with_topology(topo);
    let wps = [(MemberId(0), good), (MemberId(1), bad)];
    let probe_after = SimDuration::from_secs(1);
    DcolSession::launch_upload(
        &mut sim,
        0,
        client,
        server,
        &wps,
        60 * MB,
        cfg,
        keep_best,
        probe_after,
    )
    .run(&mut sim)
}

fn cfg(tunnel: TunnelType, seed: u64) -> SessionConfig {
    SessionConfig {
        tunnel,
        seed,
        ..SessionConfig::default()
    }
}

#[test]
fn session_frozen() {
    let tri = DetourParams::default();
    let direct = download(&tri, 0, 20 * MB, cfg(TunnelType::Vpn, 3));
    assert_eq!(digest(&direct), 0x3f93_365e_5e7f_9ca7);
    let vpn = download(&tri, 1, 60 * MB, cfg(TunnelType::Vpn, 5));
    assert_eq!(digest(&vpn), 0x66b6_0a27_ef63_01e8);
    let nat = download(&tri, 1, 60 * MB, cfg(TunnelType::Nat, 5));
    assert_eq!(digest(&nat), 0x4c10_c4f7_5307_0801);
    let two = download(&tri, 2, 60 * MB, cfg(TunnelType::Nat, 9));
    assert_eq!(digest(&two), 0xa975_0cc9_fded_c261);

    // A nearly useless direct path, withdrawn at the 2 s review.
    let poor = DetourParams {
        direct_capacity: Bandwidth::mbps(5.0),
        direct_loss: 0.05,
        ..DetourParams::default()
    };
    let review = SessionConfig {
        review_after: Some(SimDuration::from_secs(2)),
        withdraw_below: 0.10,
        ..cfg(TunnelType::Vpn, 7)
    };
    let reviewed = download(&poor, 1, 200 * MB, review);
    assert!(reviewed.share(0) < 0.10);
    assert_eq!(digest(&reviewed), 0x727a_f848_d433_f5cd);

    let kept = upload(1, cfg(TunnelType::Nat, 11));
    assert!(kept.share(1) > 0.9);
    assert_eq!(digest(&kept), 0x93fa_c515_63f3_7081);
}

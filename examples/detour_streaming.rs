//! The paper's Fig. 3 data flow: a download accelerated by the Detour
//! Collective.
//!
//! A client's native route to a distant server is slow and lossy
//! (policy routing: a triangle-inequality violation). The collective's
//! explorer probes candidate waypoints, the session opens MPTCP
//! subflows through the best one (the server cannot tell it is an
//! overlay detour), and the review pass withdraws the underperforming
//! direct path mid-transfer.
//!
//! ```sh
//! cargo run --example detour_streaming
//! ```

use hpop::dcol::collective::DetourCollective;
use hpop::dcol::explorer::{rank_waypoints, select_beneficial};
use hpop::dcol::session::{DcolSession, SessionConfig};
use hpop::dcol::tunnel::TunnelType;
use hpop::netsim::netsim::NetSim;
use hpop::netsim::presets::{detour_triangle, DetourParams};
use hpop::netsim::time::SimDuration;
use hpop::netsim::units::MB;
use hpop::transport::mptcp::MptcpStats;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    // A 500 MB download over a 200 Mbps / 80 ms / 2%-loss native route,
    // with a collective member's gigabit HPoP sitting off to the side.
    let net = detour_triangle(&DetourParams::default());
    let mut collective = DetourCollective::new();
    let _client_membership = collective.join(net.client);
    let waypoint_member = collective.join(net.waypoint);

    // Probe phase: is any detour predicted to beat the native path?
    let mut sim = NetSim::with_topology(net.topology.clone());
    let estimates = rank_waypoints(
        sim.state.net.routing(),
        net.client,
        net.server,
        &collective
            .waypoints_for(_client_membership)
            .iter()
            .map(|&(m, n)| (m, n))
            .collect::<Vec<_>>(),
    );
    println!("probe results (best first):");
    for e in &estimates {
        println!(
            "  {:<12} rtt {:>9} loss {:>5.2}% predicted {:>12}",
            e.waypoint
                .map(|m| format!("member {}", m.0))
                .unwrap_or_else(|| "native path".into()),
            format!("{}", e.rtt),
            e.loss * 100.0,
            format!("{}", e.predicted_rate),
        );
    }
    let chosen = select_beneficial(&estimates, 1, 1.1);
    println!("chosen detours: {chosen:?} (member {})", waypoint_member.0);

    // Baseline: the same download without the collective.
    let direct = run(&net, &[], "direct only");
    // With the detour, NAT tunneling, and a 2 s review that withdraws
    // subflows carrying under 10% of the best subflow's bytes.
    let wps: Vec<_> = chosen
        .iter()
        .filter_map(|m| collective.node_of(*m).map(|n| (*m, n)))
        .collect();
    let detoured = run(&net, &wps, "with detour");

    println!(
        "\nspeedup from one cooperative waypoint: {:.2}x",
        direct.duration().as_secs_f64() / detoured.duration().as_secs_f64()
    );
    for sf in &detoured.subflows {
        println!(
            "  subflow {:<10} carried {:>10} bytes (wire {:>10})",
            sf.label, sf.bytes, sf.wire_bytes
        );
    }
}

fn run(
    net: &hpop::netsim::presets::DetourTriangle,
    wps: &[(
        hpop::dcol::collective::MemberId,
        hpop::netsim::topology::NodeId,
    )],
    label: &str,
) -> MptcpStats {
    let mut sim = NetSim::with_topology(net.topology.clone());
    let out: Rc<RefCell<Option<MptcpStats>>> = Rc::new(RefCell::new(None));
    let o2 = out.clone();
    let cfg = SessionConfig {
        tunnel: TunnelType::Nat,
        review_after: Some(SimDuration::from_secs(2)),
        withdraw_below: 0.10,
        seed: 7,
        ..SessionConfig::default()
    };
    DcolSession::launch(
        &mut sim,
        net.client,
        net.server,
        wps,
        500 * MB,
        cfg,
        move |_, s| *o2.borrow_mut() = Some(s),
    );
    sim.run();
    let stats = out.borrow_mut().take().expect("download completes");
    println!(
        "{label:<12} finished in {:>8} at {}",
        format!("{}", stats.duration()),
        stats.mean_rate()
    );
    stats
}

//! E8 — detour benefit (Fig. 3, §IV-C).
//!
//! "The overlay detour paths produced by the relay hosts often have less
//! packet loss, lower latency, and higher bandwidth … most performance
//! benefits can be obtained by using a single waypoint." Sweep the
//! direct path's quality and compare direct-only, +1 waypoint and
//! +2 waypoints, plus the scheduler ablation.

use crate::table::{f2, Table};
use hpop_dcol::collective::MemberId;
use hpop_dcol::session::{DcolSession, SessionConfig};
use hpop_netsim::netsim::NetSim;
use hpop_netsim::time::SimDuration;
use hpop_netsim::topology::{NodeId, Topology, TopologyBuilder};
use hpop_netsim::units::{Bandwidth, MB};
use hpop_transport::mptcp::{MptcpStats, Scheduler};

/// A triangle with two independent waypoints.
fn two_waypoint_topology(direct_loss: f64) -> (Topology, NodeId, NodeId, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let server = b.add_node("server");
    b.add_link_weighted(
        client,
        server,
        Bandwidth::mbps(200.0),
        Bandwidth::mbps(200.0),
        SimDuration::from_millis(80),
        direct_loss,
        1,
    );
    let mut wps = Vec::new();
    for i in 0..2 {
        let w = b.add_node(format!("wp{i}"));
        b.add_link(
            client,
            w,
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(25),
        );
        b.add_link(
            w,
            server,
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(25),
        );
        wps.push(w);
    }
    (b.build(), client, server, wps)
}

fn run_session(direct_loss: f64, waypoints: usize, scheduler: Scheduler, bytes: u64) -> MptcpStats {
    let (topo, client, server, wps) = two_waypoint_topology(direct_loss);
    let mut sim = NetSim::with_topology(topo);
    let wps: Vec<(MemberId, NodeId)> = wps
        .into_iter()
        .take(waypoints)
        .enumerate()
        .map(|(i, n)| (MemberId(i as u32), n))
        .collect();
    let cfg = SessionConfig {
        scheduler,
        seed: 5,
        ..SessionConfig::default()
    };
    DcolSession::launch(&mut sim, 0, client, server, &wps, bytes, cfg).run(&mut sim)
}

/// Main sweep: direct-path loss × waypoint count.
pub fn run(bytes: u64) -> Table {
    let mut t = Table::new(
        "E8a",
        format!(
            "detour benefit: {} MB download, direct 200 Mbps/80 ms vs gigabit waypoints",
            bytes / MB
        ),
        &[
            "direct loss",
            "direct-only (s)",
            "+1 waypoint (s)",
            "+2 waypoints (s)",
            "1-wp speedup",
            "2nd wp extra",
        ],
    );
    for loss in [0.0, 0.005, 0.02, 0.05] {
        let d0 = run_session(loss, 0, Scheduler::MinRtt, bytes)
            .duration()
            .as_secs_f64();
        let d1 = run_session(loss, 1, Scheduler::MinRtt, bytes)
            .duration()
            .as_secs_f64();
        let d2 = run_session(loss, 2, Scheduler::MinRtt, bytes)
            .duration()
            .as_secs_f64();
        t.push(vec![
            format!("{:.1}%", loss * 100.0),
            f2(d0),
            f2(d1),
            f2(d2),
            format!("{:.2}x", d0 / d1),
            format!("{:.2}x", d1 / d2),
        ]);
    }
    t
}

/// Scheduler ablation at fixed path quality.
pub fn scheduler_table(bytes: u64) -> Table {
    let mut t = Table::new(
        "E8b",
        "scheduler ablation (2% direct loss, 1 waypoint)",
        &["scheduler", "duration (s)", "waypoint byte share"],
    );
    for (name, sched) in [
        ("minRTT", Scheduler::MinRtt),
        ("round-robin", Scheduler::RoundRobin),
    ] {
        let s = run_session(0.02, 1, sched, bytes);
        t.push(vec![
            name.into(),
            f2(s.duration().as_secs_f64()),
            f2(s.share(1)),
        ]);
    }
    t
}

/// Default-scale run.
pub fn run_default() -> Vec<Table> {
    vec![run(100 * MB), scheduler_table(100 * MB)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_waypoint_captures_most_benefit() {
        let t = run(50 * MB);
        // At 2% loss: one waypoint speeds things up a lot…
        let row = &t.rows[2];
        let speedup1: f64 = row[4].trim_end_matches('x').parse().unwrap();
        assert!(speedup1 > 2.0, "1-wp speedup {speedup1}");
        // …and the second adds much less (the paper's single-waypoint
        // claim).
        let extra2: f64 = row[5].trim_end_matches('x').parse().unwrap();
        assert!(extra2 < speedup1 / 2.0, "2nd wp extra {extra2}");
    }

    #[test]
    fn benefit_grows_with_direct_path_degradation() {
        let t = run(50 * MB);
        let speedups: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[4].trim_end_matches('x').parse().unwrap())
            .collect();
        assert!(
            speedups.last().unwrap() > speedups.first().unwrap(),
            "{speedups:?}"
        );
    }
}

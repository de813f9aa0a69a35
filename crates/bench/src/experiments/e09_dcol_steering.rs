//! E9 — ACK-delay steering of the server's scheduler (§IV-C).
//!
//! "Since the default MPTCP schedulers use RTT as a key factor …, a
//! custom client's scheduler can reduce server's use of a detour by
//! delaying subflow-level acknowledgments of the corresponding subflow
//! and thus increasing the RTT values seen by the server." Sweep the
//! client-imposed ACK delay on one of two equal subflows and measure
//! how the server's byte allocation shifts.

use crate::table::{f2, Table};
use hpop_netsim::netsim::NetSim;
use hpop_netsim::time::SimDuration;
use hpop_netsim::topology::TopologyBuilder;
use hpop_netsim::units::{Bandwidth, MB};
use hpop_transport::mptcp::{MptcpStats, MptcpTransfer, Scheduler, SubflowSpec};
use hpop_transport::tcp::TcpConfig;

/// Two symmetric 300 Mbps / 30 ms paths server→client; the steered
/// subflow gets `ack_delay`.
fn run_once(ack_delay: SimDuration, bytes: u64) -> MptcpStats {
    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let server = b.add_node("server");
    let wp1 = b.add_node("wp1");
    let wp2 = b.add_node("wp2");
    for wp in [wp1, wp2] {
        b.add_link(
            server,
            wp,
            Bandwidth::mbps(300.0),
            SimDuration::from_millis(15),
        );
        b.add_link(
            wp,
            client,
            Bandwidth::mbps(300.0),
            SimDuration::from_millis(15),
        );
    }
    let topo = b.build();
    let mut sim = NetSim::with_topology(topo.clone());
    let p1 = sim
        .state
        .net
        .routing()
        .route_via(server, wp1, client)
        .expect("path 1");
    let p2 = sim
        .state
        .net
        .routing()
        .route_via(server, wp2, client)
        .expect("path 2");
    let mut s2 = SubflowSpec::new("steered", p2);
    s2.ack_delay = ack_delay;
    let subflows = vec![SubflowSpec::new("plain", p1), s2];
    let cfg = TcpConfig::default();
    MptcpTransfer::launch(&mut sim, 0, subflows, bytes, cfg, Scheduler::MinRtt, 3).run(&mut sim)
}

/// Runs the ACK-delay sweep.
pub fn run(bytes: u64) -> Table {
    let mut t = Table::new(
        "E9",
        format!(
            "ACK-delay steering: {} MB over two equal 300 Mbps subflows (minRTT scheduler)",
            bytes / MB
        ),
        &[
            "ack delay on subflow 2",
            "subflow 2 byte share",
            "subflow 2 srtt (ms)",
            "duration (s)",
        ],
    );
    for delay_ms in [0u64, 50, 100, 200, 400] {
        let s = run_once(SimDuration::from_millis(delay_ms), bytes);
        t.push(vec![
            format!("{delay_ms}ms"),
            f2(s.share(1)),
            f2(s.subflows[1].srtt.map(|d| d.as_millis_f64()).unwrap_or(0.0)),
            f2(s.duration().as_secs_f64()),
        ]);
    }
    t
}

/// Default-scale run.
pub fn run_default() -> Vec<Table> {
    vec![run(60 * MB)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_falls_monotonically_with_ack_delay() {
        let t = run(30 * MB);
        let shares: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // Equal paths split ~50/50 with no delay…
        assert!((shares[0] - 0.5).abs() < 0.15, "baseline {}", shares[0]);
        // …and the steered subflow's share decays as delay grows.
        assert!(shares.last().unwrap() < &(shares[0] - 0.15), "{shares:?}");
        for w in shares.windows(2) {
            assert!(w[1] <= w[0] + 0.05, "non-monotonic: {shares:?}");
        }
    }

    #[test]
    fn server_sees_the_inflated_rtt() {
        let t = run(30 * MB);
        let srtt0: f64 = t.rows[0][2].parse().unwrap();
        let srtt400: f64 = t.rows[4][2].parse().unwrap();
        assert!(srtt400 > srtt0 + 200.0, "srtt {srtt0} -> {srtt400}");
    }
}

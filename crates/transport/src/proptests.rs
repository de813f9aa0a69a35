//! Property-based tests of the transport models' conservation laws.

use crate::mptcp::{MptcpStats, MptcpTransfer, Scheduler, SubflowSpec};
use crate::tcp::{transfer_duration, TcpConfig};
use hpop_netsim::netsim::NetSim;
use hpop_netsim::time::SimDuration;
use hpop_netsim::topology::TopologyBuilder;
use hpop_netsim::units::Bandwidth;
use proptest::prelude::*;

fn run_mptcp(
    caps_mbps: &[u32],
    bytes: u64,
    overheads: &[u32],
    scheduler: Scheduler,
    seed: u64,
) -> MptcpStats {
    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let server = b.add_node("server");
    let mut wps = Vec::new();
    for (i, &c) in caps_mbps.iter().enumerate() {
        let w = b.add_node(format!("wp{i}"));
        b.add_link(
            server,
            w,
            Bandwidth::mbps(c as f64),
            SimDuration::from_millis(10),
        );
        b.add_link(
            w,
            client,
            Bandwidth::mbps(c as f64),
            SimDuration::from_millis(10),
        );
        wps.push(w);
    }
    let topo = b.build();
    let mut sim = NetSim::with_topology(topo);
    let subflows: Vec<SubflowSpec> = wps
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let path = sim
                .state
                .net
                .routing()
                .route_via(server, w, client)
                .expect("path");
            let mut s = SubflowSpec::new(format!("sf{i}"), path);
            s.per_packet_overhead = overheads[i % overheads.len()];
            s
        })
        .collect();
    let cfg = TcpConfig::default();
    MptcpTransfer::launch(&mut sim, 0, subflows, bytes, cfg, scheduler, seed).run(&mut sim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MPTCP conservation: subflow goodput sums to the request exactly;
    /// wire bytes are goodput plus the configured per-packet tax; the
    /// transfer always terminates.
    #[test]
    fn mptcp_conserves_bytes(
        caps in proptest::collection::vec(5u32..500, 1..4),
        bytes in 100_000u64..20_000_000,
        overhead in 0u32..60,
        rr in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let sched = if rr { Scheduler::RoundRobin } else { Scheduler::MinRtt };
        let s = run_mptcp(&caps, bytes, &[overhead], sched, seed);
        prop_assert_eq!(s.bytes, bytes);
        let goodput: u64 = s.subflows.iter().map(|f| f.bytes).sum();
        prop_assert_eq!(goodput, bytes);
        for f in &s.subflows {
            prop_assert!(f.wire_bytes >= f.bytes);
            // The tax is bounded by ceil-per-window granularity.
            let max_tax = (f.bytes as f64 * (overhead as f64 / 1460.0)).ceil() as u64
                + f.windows as u64;
            prop_assert!(
                f.wire_bytes - f.bytes <= max_tax,
                "tax {} > bound {max_tax}",
                f.wire_bytes - f.bytes
            );
        }
        // Shares sum to 1 for non-empty transfers.
        let share_sum: f64 = (0..s.subflows.len()).map(|i| s.share(i)).sum();
        prop_assert!((share_sum - 1.0).abs() < 1e-9);
    }

    /// The analytic TCP duration is monotone in bytes and bounded below
    /// by both the line-rate serialization time and one half RTT.
    #[test]
    fn analytic_duration_bounds(
        bytes_a in 1u64..100_000_000,
        bytes_b in 1u64..100_000_000,
        rtt_ms in 1u64..400,
        mbps in 1u32..10_000,
    ) {
        let cfg = TcpConfig::default();
        let rtt = SimDuration::from_millis(rtt_ms);
        let bw = Bandwidth::mbps(mbps as f64);
        let (small, big) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        let d_small = transfer_duration(&cfg, small, rtt, bw);
        let d_big = transfer_duration(&cfg, big, rtt, bw);
        prop_assert!(d_small <= d_big);
        prop_assert!(d_big >= bw.time_to_send(big));
        prop_assert!(d_small >= rtt / 2);
    }
}

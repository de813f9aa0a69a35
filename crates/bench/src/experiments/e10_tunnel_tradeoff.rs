//! E10 — VPN vs NAT tunneling tradeoff (§IV-C "Client-to-Waypoint
//! Tunneling").
//!
//! "Once a client establishes a VPN tunnel …, this tunnel may be reused
//! … for any TCP connection to any server, without any additional
//! setup. The NAT mechanism requires signaling with the waypoint for
//! every new server address and port … On the other hand, VPN adds 36
//! bytes of per-packet overhead …, while NAT adds no extra bytes."
//!
//! Sweep (distinct destinations × flow size) and total each mechanism's
//! cost: signaling round trips plus encapsulation bytes. The crossover
//! is exactly where the paper's prose predicts: many destinations favor
//! VPN, large flows favor NAT.

use crate::table::Table;
use hpop_dcol::tunnel::{TunnelState, TunnelType};
use hpop_netsim::time::SimDuration;
use hpop_netsim::units::{format_bytes, KB, MB};

/// Cost of `flows` flows of `bytes` each to `destinations` distinct
/// servers through one waypoint (20 ms client↔waypoint RTT).
struct Cost {
    signaling_rtts: u32,
    setup_time: SimDuration,
    overhead_bytes: u64,
}

fn cost(kind: TunnelType, destinations: u32, flows_per_dst: u32, bytes: u64) -> Cost {
    let rtt = SimDuration::from_millis(20);
    let mut tunnel = TunnelState::new(kind);
    let mut setup_time = SimDuration::ZERO;
    let mut overhead = 0u64;
    for dst in 0..destinations {
        for _ in 0..flows_per_dst {
            setup_time += tunnel.prepare(dst as u64, 443, rtt);
            overhead += tunnel.wire_bytes(bytes) - bytes;
        }
    }
    Cost {
        signaling_rtts: tunnel.signaling_rtts,
        setup_time,
        overhead_bytes: overhead,
    }
}

/// Runs the sweep.
pub fn run() -> Table {
    let mut t = Table::new(
        "E10",
        "VPN (36 B/pkt, one-time join) vs NAT (0 B/pkt, per-destination signaling)",
        &[
            "workload",
            "vpn signaling",
            "vpn overhead",
            "nat signaling",
            "nat overhead",
            "cheaper (time @100Mbps)",
        ],
    );
    for (dsts, flows, bytes, label) in [
        (1u32, 1u32, 100 * KB, "1 dst x 1 flow x 100 KB"),
        (1, 1, 10 * MB, "1 dst x 1 flow x 10 MB"),
        (20, 1, 100 * KB, "20 dsts x 1 flow x 100 KB"),
        (20, 1, 10 * MB, "20 dsts x 1 flow x 10 MB"),
        (100, 3, 50 * KB, "100 dsts x 3 flows x 50 KB"),
    ] {
        let vpn = cost(TunnelType::Vpn, dsts, flows, bytes);
        let nat = cost(TunnelType::Nat, dsts, flows, bytes);
        // The paper's tradeoff is encapsulation bytes vs signaling
        // round trips; compare on total overhead *time* assuming a
        // 100 Mbps effective path.
        let time_of = |c: &Cost| c.setup_time.as_secs_f64() + c.overhead_bytes as f64 * 8.0 / 100e6;
        t.push(vec![
            label.into(),
            format!("{} rtts ({})", vpn.signaling_rtts, vpn.setup_time),
            format_bytes(vpn.overhead_bytes),
            format!("{} rtts ({})", nat.signaling_rtts, nat.setup_time),
            format_bytes(nat.overhead_bytes),
            if time_of(&vpn) <= time_of(&nat) {
                "VPN"
            } else {
                "NAT"
            }
            .into(),
        ]);
    }
    t
}

/// Latency-sensitivity view: time-to-first-byte penalty per new
/// destination.
pub fn ttfb_table() -> Table {
    let rtt = SimDuration::from_millis(20);
    let mut t = Table::new(
        "E10b",
        "setup delay before the Nth distinct destination's first byte",
        &["destination #", "vpn setup", "nat setup"],
    );
    let mut vpn = TunnelState::new(TunnelType::Vpn);
    let mut nat = TunnelState::new(TunnelType::Nat);
    for dst in 0..4u64 {
        let v = vpn.prepare(dst, 443, rtt);
        let n = nat.prepare(dst, 443, rtt);
        t.push(vec![format!("{}", dst + 1), format!("{v}"), format!("{n}")]);
    }
    t
}

/// Default-scale run.
pub fn run_default() -> Vec<Table> {
    vec![run(), ttfb_table()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_matches_paper_prose() {
        let t = run();
        // Bulk single-destination: NAT wins (zero per-packet tax).
        assert_eq!(t.rows[1][5], "NAT");
        // Many small-flow destinations: VPN wins (no per-dst signaling).
        assert_eq!(t.rows[4][5], "VPN");
    }

    #[test]
    fn vpn_pays_setup_once() {
        let t = ttfb_table();
        assert_eq!(t.rows[0][1], "40.000ms"); // 2 RTTs once
        assert_eq!(t.rows[1][1], "0ns");
        // NAT pays every destination.
        assert_eq!(t.rows[0][2], "20.000ms");
        assert_eq!(t.rows[3][2], "20.000ms");
    }

    #[test]
    fn overhead_is_exactly_36_bytes_per_packet() {
        let c = cost(TunnelType::Vpn, 1, 1, 1460 * 100);
        assert_eq!(c.overhead_bytes, 36 * 100);
        let n = cost(TunnelType::Nat, 1, 1, 1460 * 100);
        assert_eq!(n.overhead_bytes, 0);
    }
}

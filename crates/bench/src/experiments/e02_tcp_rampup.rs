//! E2 — TCP slow-start ramp-up (§IV-D intro).
//!
//! Paper claim: "over a 1 Gbps network path with a 50 msec RTT a TCP
//! connection will require 10 RTTs and over 14 MB of data before
//! utilizing the available capacity. Most transfers carry nowhere near
//! enough data to achieve these speeds." Two tables: the analytic
//! ramp-up arithmetic across RTTs and initial windows, and achieved
//! utilization vs transfer size (analytic + event-driven simulation
//! cross-check).

use crate::table::{f2, pct, Table};
use hpop_netsim::netsim::NetSim;
use hpop_netsim::time::SimDuration;
use hpop_netsim::topology::TopologyBuilder;
use hpop_netsim::units::{format_bytes, Bandwidth, KB, MB};
use hpop_transport::conn::TcpTransfer;
use hpop_transport::tcp::{slow_start_rampup, transfer_duration, TcpConfig};

/// Table 1: RTTs and bytes needed to fill a 1 Gbps path.
pub fn rampup_table() -> Table {
    let mut t = Table::new(
        "E2a",
        "slow-start ramp-up to fill 1 Gbps (paper: ~10 RTTs / >14 MB at 50 ms)",
        &[
            "rtt",
            "init window",
            "RTTs to full",
            "bytes in ramp",
            "ramp + BDP",
            "time to full",
        ],
    );
    for rtt_ms in [10u64, 25, 50, 100] {
        for (label, cfg) in [
            ("IW10", TcpConfig::default()),
            ("IW4", TcpConfig::conservative()),
        ] {
            let r = slow_start_rampup(&cfg, SimDuration::from_millis(rtt_ms), Bandwidth::gbps(1.0));
            t.push(vec![
                format!("{rtt_ms}ms"),
                label.into(),
                r.rtts.to_string(),
                format_bytes(r.bytes_before_full),
                format_bytes(r.bytes_before_full + r.bdp_bytes),
                format!("{}", r.time_to_full),
            ]);
        }
    }
    t
}

/// Table 2: achieved utilization vs transfer size at 1 Gbps / 50 ms RTT,
/// analytic and event-driven.
pub fn utilization_table() -> Table {
    let mut t = Table::new(
        "E2b",
        "transfer-size vs achieved rate, 1 Gbps path, 50 ms RTT",
        &["size", "analytic rate", "simulated rate", "utilization"],
    );
    let cfg = TcpConfig::default();
    let rtt = SimDuration::from_millis(50);
    let bw = Bandwidth::gbps(1.0);
    for bytes in [100 * KB, MB, 14 * MB, 100 * MB, 1000 * MB] {
        let analytic = transfer_duration(&cfg, bytes, rtt, bw);
        let analytic_rate = bytes as f64 * 8.0 / analytic.as_secs_f64();

        // Event-driven cross-check on a single 1 Gbps / 25 ms-latency link.
        let mut b = TopologyBuilder::new();
        let a = b.add_node("server");
        let c = b.add_node("home");
        b.add_link(a, c, bw, SimDuration::from_millis(25));
        let mut sim = NetSim::with_topology(b.build());
        let stats = TcpTransfer::launch(&mut sim, 0, a, c, bytes, cfg, 1).run(&mut sim);
        let sim_rate = stats.mean_rate().bits_per_sec();

        t.push(vec![
            format_bytes(bytes),
            format!("{}", Bandwidth::from_bps(analytic_rate)),
            format!("{}", Bandwidth::from_bps(sim_rate)),
            pct(sim_rate / 1e9),
        ]);
    }
    t
}

/// Table 3: the paper's exact headline numbers.
pub fn headline_table() -> Table {
    let mut t = Table::new(
        "E2c",
        "the paper's 1 Gbps x 50 ms headline",
        &["quantity", "paper", "measured"],
    );
    let r10 = slow_start_rampup(
        &TcpConfig::default(),
        SimDuration::from_millis(50),
        Bandwidth::gbps(1.0),
    );
    let r4 = slow_start_rampup(
        &TcpConfig::conservative(),
        SimDuration::from_millis(50),
        Bandwidth::gbps(1.0),
    );
    t.push(vec![
        "RTTs before full rate".into(),
        "10".into(),
        format!("{} (IW10) / {} (IW4)", r10.rtts, r4.rtts),
    ]);
    t.push(vec![
        "data before full rate".into(),
        ">14 MB".into(),
        format!(
            "{} (IW10) / {} (IW4, ramp+BDP)",
            format_bytes(r10.bytes_before_full + r10.bdp_bytes),
            format_bytes(r4.bytes_before_full + r4.bdp_bytes)
        ),
    ]);
    t.push(vec![
        "BDP at 1 Gbps x 50 ms".into(),
        "~6.25 MB".into(),
        format!(
            "{} ({})",
            format_bytes(r10.bdp_bytes),
            f2(r10.bdp_bytes as f64 / 1e6)
        ),
    ]);
    t
}

/// Default-scale run.
pub fn run_default() -> Vec<Table> {
    vec![rampup_table(), utilization_table(), headline_table()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_matches_paper() {
        let t = headline_table();
        // IW4 RTT count is 11 ≈ the paper's "10 RTTs".
        assert!(t.rows[0][2].contains("9 (IW10) / 11 (IW4)"));
        // IW4 total data exceeds 14 MB.
        assert!(t.rows[1][2].contains("MB"));
    }

    #[test]
    fn small_transfers_waste_the_gigabit() {
        let t = utilization_table();
        // 100 KB row: utilization far below 10%.
        let util: f64 = t.rows[0][3].trim_end_matches('%').parse().unwrap();
        assert!(util < 10.0, "{util}%");
        // 1 GB row: utilization above 90%.
        let util: f64 = t.rows[4][3].trim_end_matches('%').parse().unwrap();
        assert!(util > 90.0, "{util}%");
    }

    #[test]
    fn rampup_monotonic_in_rtt() {
        let t = rampup_table();
        assert_eq!(t.len(), 8);
        // More RTT ⇒ bigger BDP ⇒ at least as many doubling rounds.
        let rtts: Vec<u32> = t
            .rows
            .iter()
            .filter(|r| r[1] == "IW10")
            .map(|r| r[2].parse().unwrap())
            .collect();
        assert!(rtts.windows(2).all(|w| w[0] <= w[1]), "{rtts:?}");
    }
}

//! E3 — bottleneck shift (§II "Bottleneck Shifts").
//!
//! Paper claim: "each home is served by a 1 Gbps link, but the roughly
//! 100 homes are then immediately aggregated onto a shared 10 Gbps link
//! … there will be periods when the aggregate link will become the
//! bottleneck, which is different from the currently common case of the
//! last mile being the bottleneck." Sweep the number of simultaneously
//! active homes and watch the per-flow rate pivot from edge-limited
//! (1 Gbps) to aggregation-limited (10/N Gbps).

use crate::table::{f2, Table};
use hpop_netsim::netsim::{Fired, NetSim};
use hpop_netsim::presets::{ccz, CczParams};
use hpop_netsim::time::SimTime;
use hpop_netsim::units::MB;

/// Runs one sweep point: `active` homes each pull a bulk transfer.
fn per_flow_rate_mbps(active: usize) -> f64 {
    let net = ccz(&CczParams {
        homes: active.max(1),
        ..CczParams::default()
    });
    let mut sim = NetSim::with_topology(net.topology.clone());
    for h in 0..active {
        sim.start_transfer(net.server, net.homes[h], 500 * MB, h as u64);
    }
    let mut rates = Vec::new();
    while let Some(fired) = sim.next(SimTime::MAX) {
        if let Fired::Done { info, .. } = fired {
            rates.push(info.mean_rate.as_mbps());
        }
    }
    rates.iter().sum::<f64>() / rates.len().max(1) as f64
}

/// Runs the sweep.
pub fn run(actives: &[usize]) -> Table {
    let mut t = Table::new(
        "E3",
        "bottleneck shift: 1 Gbps homes on a shared 10 Gbps aggregation link",
        &[
            "active homes",
            "per-flow rate (Mbps)",
            "expected (Mbps)",
            "bottleneck",
        ],
    );
    for &n in actives {
        let measured = per_flow_rate_mbps(n);
        let expected = (10_000.0 / n as f64).min(1_000.0);
        let location = if n <= 10 {
            "last mile (edge)"
        } else {
            "aggregation (shared)"
        };
        t.push(vec![
            n.to_string(),
            f2(measured),
            f2(expected),
            location.into(),
        ]);
    }
    t
}

/// Default sweep.
pub fn run_default() -> Vec<Table> {
    vec![run(&[1, 5, 10, 20, 50, 100])]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pivot_at_ten_homes() {
        let t = run(&[1, 10, 20, 40]);
        let rate = |i: usize| -> f64 { t.rows[i][1].parse().unwrap() };
        // 1 and 10 active homes: edge-limited at ~1000 Mbps each.
        assert!((rate(0) - 1000.0).abs() < 50.0, "{}", rate(0));
        assert!((rate(1) - 1000.0).abs() < 50.0, "{}", rate(1));
        // 20 homes: aggregation-limited at ~500 Mbps.
        assert!((rate(2) - 500.0).abs() < 30.0, "{}", rate(2));
        // 40 homes: ~250 Mbps.
        assert!((rate(3) - 250.0).abs() < 20.0, "{}", rate(3));
    }
}

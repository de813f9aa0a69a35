//! E1 — CCZ link-utilization replication (§II, citing the CCZ study).
//!
//! Paper claim: "CCZ users only exceed a download rate of 10 Mbps 0.1%
//! of the time and a 0.5 Mbps upload rate 1% of the time" — i.e.
//! gigabit homes almost never use their capacity. We replay synthetic
//! residential sessions through the CCZ topology with event-driven TCP
//! and build the per-home-per-second rate CDF the study reports.

use crate::metrics::{fraction_above, quantile};
use crate::table::{f4, pct, Table};
use hpop_netsim::netsim::NetSim;
use hpop_netsim::presets::{ccz, CczParams};
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_transport::conn::TcpTransfer;
use hpop_transport::mptcp::MptcpStats;
use hpop_transport::tcp::TcpConfig;
use hpop_transport::token::Token;
use hpop_workloads::traffic::{Direction, SessionTraffic, TrafficParams};
use hpop_workloads::zipf::WebUniverse;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Homes in the neighborhood.
    pub homes: usize,
    /// Observation window.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            homes: 60,
            duration: SimDuration::from_secs(1800),
            seed: 1,
        }
    }
}

/// Completed-transfer log entry.
struct Done {
    home: usize,
    dir: Direction,
    stats: MptcpStats,
}

/// Runs the experiment.
pub fn run(p: Params) -> Table {
    let net = ccz(&CczParams {
        homes: p.homes,
        ..CczParams::default()
    });
    let mut sim = NetSim::with_topology(net.topology.clone());
    let mut rng = StdRng::seed_from_u64(p.seed);
    let universe = WebUniverse::generate(2000, 1.0, 60_000, &mut rng);
    let flows = SessionTraffic::new(TrafficParams::default())
        .generate(p.homes, p.duration, &universe, &mut rng);
    // Flow `i` arrives as the caller's token `i` and runs as connection
    // `i`.
    for (i, f) in flows.iter().enumerate() {
        sim.schedule_at(f.at, i as u64);
    }
    let mut conns = HashMap::new();
    let mut done = Vec::new();
    while let Some(fired) = sim.next(SimTime::ZERO + p.duration) {
        let Some(t) = Token::of(fired.token()) else {
            let i = fired.token();
            let f = &flows[i as usize];
            let (src, dst) = match f.direction {
                Direction::Down => (net.server, net.homes[f.home]),
                Direction::Up => (net.homes[f.home], net.server),
            };
            let (seed, cfg) = (p.seed.wrapping_add(i), TcpConfig::default());
            let conn = TcpTransfer::launch(&mut sim, i as u32, src, dst, f.bytes, cfg, seed);
            conns.insert(i as u32, conn);
            continue;
        };
        let conn = conns.get_mut(&t.conn).expect("a live connection");
        if let Some(stats) = conn.on_token(&mut sim, t) {
            conns.remove(&t.conn);
            let f = &flows[t.conn as usize];
            done.push(Done {
                home: f.home,
                dir: f.direction,
                stats,
            });
        }
    }

    // Per-home-per-second achieved rates: spread each transfer's bytes
    // over its active seconds (the study's per-second rate samples).
    let secs = (p.duration.as_secs_f64()) as usize;
    let mut down = vec![vec![0f64; secs]; p.homes];
    let mut up = vec![vec![0f64; secs]; p.homes];
    for d in &done {
        let s0 = d.stats.started_at.as_secs_f64() as usize;
        let s1 = (d.stats.completed_at.as_secs_f64().ceil() as usize).max(s0 + 1);
        let span = (s1 - s0) as f64;
        let per_sec = d.stats.bytes as f64 / span;
        let lane = match d.dir {
            Direction::Down => &mut down[d.home],
            Direction::Up => &mut up[d.home],
        };
        for slot in lane.iter_mut().take(s1.min(secs)).skip(s0) {
            *slot += per_sec;
        }
    }
    // The per-second rate CDFs, in bits per second, ascending.
    let cdf = |lanes: Vec<Vec<f64>>| {
        let mut bps: Vec<f64> = lanes.into_iter().flatten().map(|b| b * 8.0).collect();
        bps.sort_by(f64::total_cmp);
        bps
    };
    let (down_cdf, up_cdf) = (cdf(down), cdf(up));

    let mut t = Table::new(
        "E1",
        format!(
            "CCZ per-second utilization ({} homes x {}, gigabit FTTH)",
            p.homes, p.duration
        ),
        &["metric", "paper", "measured", "median (Mbps)", "p99 (Mbps)"],
    );
    t.push(vec![
        "download secs > 10 Mbps".into(),
        "0.10%".into(),
        pct(fraction_above(&down_cdf, 10e6)),
        f4(quantile(&down_cdf, 0.5) / 1e6),
        f4(quantile(&down_cdf, 0.99) / 1e6),
    ]);
    t.push(vec![
        "upload secs > 0.5 Mbps".into(),
        "1.00%".into(),
        pct(fraction_above(&up_cdf, 0.5e6)),
        f4(quantile(&up_cdf, 0.5) / 1e6),
        f4(quantile(&up_cdf, 0.99) / 1e6),
    ]);
    t.push(vec![
        "download secs > 100 Mbps".into(),
        "~0%".into(),
        pct(fraction_above(&down_cdf, 100e6)),
        String::new(),
        String::new(),
    ]);
    t
}

/// Default-scale run.
pub fn run_default() -> Vec<Table> {
    vec![run(Params::default())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_rare_like_the_paper_says() {
        let t = run(Params {
            homes: 10,
            duration: SimDuration::from_secs(600),
            seed: 3,
        });
        assert_eq!(t.len(), 3);
        // "measured" column of row 0: fraction of >10Mbps download secs.
        let measured: f64 = t.rows[0][2].trim_end_matches('%').parse().unwrap();
        assert!(measured < 5.0, "busy fraction {measured}% is not rare");
        let measured_up: f64 = t.rows[1][2].trim_end_matches('%').parse().unwrap();
        assert!(measured_up < 10.0, "upload busy {measured_up}%");
    }

    #[test]
    fn deterministic() {
        let p = Params {
            homes: 5,
            duration: SimDuration::from_secs(300),
            seed: 9,
        };
        assert_eq!(run(p).rows, run(p).rows);
    }
}

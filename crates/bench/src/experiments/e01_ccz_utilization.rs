//! E1 — CCZ link-utilization replication (§II, citing the CCZ study).
//!
//! Paper claim: "CCZ users only exceed a download rate of 10 Mbps 0.1%
//! of the time and a 0.5 Mbps upload rate 1% of the time" — i.e.
//! gigabit homes almost never use their capacity. We replay synthetic
//! residential sessions through the CCZ topology with event-driven TCP
//! and build the per-home-per-second rate CDF the study reports.

use crate::table::{f4, pct, Table};
use hpop_netsim::netsim::NetSim;
use hpop_netsim::presets::{ccz, CczParams};
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_obs::Cdf;
use hpop_transport::conn::{TcpStats, TcpTransfer};
use hpop_transport::tcp::TcpConfig;
use hpop_workloads::traffic::{Direction, SessionTraffic, TrafficParams};
use hpop_workloads::zipf::WebUniverse;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

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
    stats: TcpStats,
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
    let done: Rc<RefCell<Vec<Done>>> = Rc::new(RefCell::new(Vec::new()));
    for (i, f) in flows.iter().enumerate() {
        let (src, dst) = match f.direction {
            Direction::Down => (net.server, net.homes[f.home]),
            Direction::Up => (net.homes[f.home], net.server),
        };
        let home = f.home;
        let dir = f.direction;
        let d2 = done.clone();
        let bytes = f.bytes;
        let seed = p.seed.wrapping_add(i as u64);
        sim.schedule_at(f.at, move |sim| {
            TcpTransfer::launch(
                sim,
                src,
                dst,
                bytes,
                TcpConfig::default(),
                seed,
                move |_, stats| {
                    d2.borrow_mut().push(Done { home, dir, stats });
                },
            );
        });
    }
    sim.run_until(SimTime::ZERO + p.duration);

    // Per-home-per-second achieved rates: spread each transfer's bytes
    // over its active seconds (the study's per-second rate samples).
    let secs = (p.duration.as_secs_f64()) as usize;
    let mut down = vec![vec![0f64; secs]; p.homes];
    let mut up = vec![vec![0f64; secs]; p.homes];
    for d in done.borrow().iter() {
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
    let mut down_cdf = Cdf::new();
    let mut up_cdf = Cdf::new();
    for h in 0..p.homes {
        for s in 0..secs {
            down_cdf.push(down[h][s] * 8.0); // bits per second
            up_cdf.push(up[h][s] * 8.0);
        }
    }

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
        pct(down_cdf.fraction_above(10e6)),
        f4(down_cdf.median().unwrap_or(0.0) / 1e6),
        f4(down_cdf.quantile(0.99).unwrap_or(0.0) / 1e6),
    ]);
    t.push(vec![
        "upload secs > 0.5 Mbps".into(),
        "1.00%".into(),
        pct(up_cdf.fraction_above(0.5e6)),
        f4(up_cdf.median().unwrap_or(0.0) / 1e6),
        f4(up_cdf.quantile(0.99).unwrap_or(0.0) / 1e6),
    ]);
    t.push(vec![
        "download secs > 100 Mbps".into(),
        "~0%".into(),
        pct(down_cdf.fraction_above(100e6)),
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

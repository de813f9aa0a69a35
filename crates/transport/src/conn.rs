//! Single-path TCP transfers over the flow network.
//!
//! RFC 8684 defines an MPTCP subflow as an ordinary TCP flow, so a
//! single-path transfer is an [`MptcpTransfer`] with one subflow along
//! the native route, and the window model lives in [`crate::mptcp`]
//! alone.

use crate::mptcp::{MptcpTransfer, Scheduler, SubflowSpec};
use crate::tcp::TcpConfig;
use hpop_netsim::netsim::NetSim;
use hpop_netsim::topology::NodeId;

/// A self-clocked TCP bulk transfer.
#[derive(Debug)]
pub struct TcpTransfer;

impl TcpTransfer {
    /// Launches a transfer of `bytes` from `src` to `dst` along the
    /// native route as connection `id`. `seed` drives per-window loss
    /// sampling (determinism: same seed, same run). The connection's
    /// stats, once it completes, hold the one subflow's windows and loss
    /// events.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` are disconnected or `bytes` is zero.
    pub fn launch(
        sim: &mut NetSim,
        id: u32,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cfg: TcpConfig,
        seed: u64,
    ) -> MptcpTransfer {
        let path = sim
            .state
            .net
            .routing()
            .route(src, dst)
            .unwrap_or_else(|| panic!("no route between {src:?} and {dst:?}"));
        let tcp = vec![SubflowSpec::new("tcp", path)];
        MptcpTransfer::launch(sim, id, tcp, bytes, cfg, Scheduler::MinRtt, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mptcp::MptcpStats;
    use crate::token::Token;
    use hpop_netsim::presets::{ccz, CczParams};
    use hpop_netsim::time::SimDuration;
    use hpop_netsim::time::SimTime;
    use hpop_netsim::topology::TopologyBuilder;
    use hpop_netsim::units::{Bandwidth, MB};

    fn one_link(cap: Bandwidth, latency: SimDuration, loss: f64) -> (NetSim, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let x = b.add_node("x");
        let y = b.add_node("y");
        b.add_link_full(x, y, cap, cap, latency, loss);
        (NetSim::with_topology(b.build()), x, y)
    }

    fn run_transfer(
        cap: Bandwidth,
        latency: SimDuration,
        loss: f64,
        bytes: u64,
        seed: u64,
    ) -> MptcpStats {
        let (mut sim, x, y) = one_link(cap, latency, loss);
        let cfg = TcpConfig::default();
        TcpTransfer::launch(&mut sim, 0, x, y, bytes, cfg, seed).run(&mut sim)
    }

    #[test]
    fn short_transfer_is_rtt_bound() {
        // 100 KB over 1 Gbps / 25 ms one-way (50 ms RTT): ~3 windows.
        let s = run_transfer(
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(25),
            0.0,
            100_000,
            1,
        );
        let d = s.duration().as_secs_f64();
        assert!(d > 0.10 && d < 0.20, "took {d}s");
        let windows = s.subflows[0].windows;
        assert!((3..=4).contains(&windows), "windows {windows}");
        // Goodput is a tiny fraction of the gigabit.
        assert!(s.mean_rate().as_mbps() < 10.0);
    }

    #[test]
    fn long_transfer_saturates_link() {
        let s = run_transfer(
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(25),
            0.0,
            2_000 * MB,
            1,
        );
        assert!(s.subflows[0].loss_events == 0);
        assert!(s.mean_rate().as_mbps() > 900.0, "rate {}", s.mean_rate());
    }

    #[test]
    fn loss_caps_throughput() {
        let clean = run_transfer(
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(25),
            0.0,
            100 * MB,
            7,
        );
        let lossy = run_transfer(
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(25),
            0.01,
            100 * MB,
            7,
        );
        assert!(lossy.subflows[0].loss_events > 0);
        assert!(
            lossy.mean_rate().bits_per_sec() < clean.mean_rate().bits_per_sec() / 2.0,
            "lossy {} vs clean {}",
            lossy.mean_rate(),
            clean.mean_rate()
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = run_transfer(
            Bandwidth::mbps(100.0),
            SimDuration::from_millis(10),
            0.02,
            10 * MB,
            42,
        );
        let b = run_transfer(
            Bandwidth::mbps(100.0),
            SimDuration::from_millis(10),
            0.02,
            10 * MB,
            42,
        );
        assert_eq!(a.completed_at, b.completed_at);
        assert_eq!(a.subflows[0].loss_events, b.subflows[0].loss_events);
        assert_eq!(a.subflows[0].windows, b.subflows[0].windows);
    }

    #[test]
    fn different_seed_differs_under_loss() {
        let a = run_transfer(
            Bandwidth::mbps(100.0),
            SimDuration::from_millis(10),
            0.05,
            10 * MB,
            1,
        );
        let b = run_transfer(
            Bandwidth::mbps(100.0),
            SimDuration::from_millis(10),
            0.05,
            10 * MB,
            2,
        );
        assert_ne!(a.completed_at, b.completed_at);
    }

    #[test]
    fn two_tcp_flows_share_fairly() {
        let (mut sim, x, y) = one_link(Bandwidth::mbps(100.0), SimDuration::from_millis(5), 0.0);
        let cfg = TcpConfig::default();
        let mut conns: Vec<_> = (0..2)
            .map(|id| TcpTransfer::launch(&mut sim, id, x, y, 50 * MB, cfg, id.into()))
            .collect();
        let mut done: Vec<MptcpStats> = Vec::new();
        while let Some(fired) = sim.next(SimTime::MAX) {
            let t = Token::of(fired.token()).expect("a connection's token");
            done.extend(conns[t.conn as usize].on_token(&mut sim, t));
        }
        assert_eq!(done.len(), 2);
        for s in done.iter() {
            let r = s.mean_rate().as_mbps();
            assert!(
                r > 35.0 && r < 65.0,
                "rate {r} not near the 50 Mbps fair share"
            );
        }
    }

    #[test]
    fn ccz_home_to_server_ramp_matches_paper_shape() {
        // E2 sanity: on the CCZ preset (49 ms RTT, 1 Gbps bottleneck) a
        // 14 MB transfer is still mostly in slow start.
        let net = ccz(&CczParams::default());
        let mut sim = NetSim::with_topology(net.topology.clone());
        let (server, home) = (net.server, net.homes[0]);
        let mut conn =
            TcpTransfer::launch(&mut sim, 0, server, home, 14 * MB, TcpConfig::default(), 3);
        let s = conn.run(&mut sim);
        let rate = s.mean_rate().as_mbps();
        assert!(
            rate < 450.0,
            "14MB transfer achieved {rate} Mbps — slow start should keep it well under capacity"
        );
        let windows = s.subflows[0].windows;
        assert!(windows >= 9, "only {windows} windows");
    }
}

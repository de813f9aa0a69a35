//! Trial-and-error detour exploration.
//!
//! §IV-C: "because it is difficult to predict if a particular detour
//! will be beneficial or harmful to a given communication, hosts should
//! be able to add, remove, or change detours dynamically … select
//! detours by using 'trial and error' to explore multiple detours and
//! retain the beneficial ones."
//!
//! [`rank_waypoints`] is the probing step: estimate each candidate
//! detour's RTT, loss and bottleneck from measured path properties and
//! predict achievable throughput (capacity-limited on clean paths,
//! Mathis-limited on lossy ones).

use crate::collective::MemberId;
use hpop_netsim::routing::RoutingTable;
use hpop_netsim::time::SimDuration;
use hpop_netsim::topology::NodeId;
use hpop_netsim::units::Bandwidth;
use hpop_transport::tcp::mathis_throughput;

/// One candidate detour's probed properties and predicted benefit.
#[derive(Clone, Debug)]
pub struct DetourEstimate {
    /// The waypoint member (None = the native direct path).
    pub waypoint: Option<MemberId>,
    /// Round-trip time of the (composite) path.
    pub rtt: SimDuration,
    /// End-to-end loss probability.
    pub loss: f64,
    /// Tightest link capacity along the path.
    pub bottleneck: Bandwidth,
    /// Predicted achievable steady-state throughput.
    pub predicted_rate: Bandwidth,
}

impl DetourEstimate {
    fn from_path(
        waypoint: Option<MemberId>,
        rtt: SimDuration,
        loss: f64,
        bottleneck: Bandwidth,
        mss: u32,
    ) -> DetourEstimate {
        let predicted_rate =
            match mathis_throughput(mss, rtt.max(SimDuration::from_micros(100)), loss.min(0.999)) {
                Some(mathis) => mathis.min(bottleneck),
                None => bottleneck,
            };
        DetourEstimate {
            waypoint,
            rtt,
            loss,
            bottleneck,
            predicted_rate,
        }
    }
}

/// Probes the direct path and each candidate waypoint, returning
/// estimates sorted by predicted throughput (best first). The direct
/// path is always included (`waypoint: None`), so callers can see
/// whether any detour actually beats it.
pub fn rank_waypoints(
    routing: &mut RoutingTable,
    client: NodeId,
    server: NodeId,
    waypoints: &[(MemberId, NodeId)],
    mss: u32,
) -> Vec<DetourEstimate> {
    let mut out = Vec::new();
    if let Some(direct) = routing.route(client, server) {
        let topo = routing.topology();
        out.push(DetourEstimate::from_path(
            None,
            direct.rtt(topo),
            direct.loss(topo),
            direct.bottleneck(topo).unwrap_or(Bandwidth::gbps(100.0)),
            mss,
        ));
    }
    for &(member, node) in waypoints {
        if let Some(path) = routing.route_via(client, node, server) {
            let topo = routing.topology();
            out.push(DetourEstimate::from_path(
                Some(member),
                path.rtt(topo),
                path.loss(topo),
                path.bottleneck(topo).unwrap_or(Bandwidth::gbps(100.0)),
                mss,
            ));
        }
    }
    out.sort_by(|a, b| {
        b.predicted_rate
            .partial_cmp(&a.predicted_rate)
            .expect("finite rates")
            .then_with(|| a.rtt.cmp(&b.rtt))
    });
    out
}

/// Selects up to `k` beneficial detours: waypoints predicted to beat the
/// direct path's throughput by at least `min_gain` (e.g. `1.1` = 10%).
pub fn select_beneficial(estimates: &[DetourEstimate], k: usize, min_gain: f64) -> Vec<MemberId> {
    let direct_rate = estimates
        .iter()
        .find(|e| e.waypoint.is_none())
        .map(|e| e.predicted_rate.bits_per_sec())
        .unwrap_or(0.0);
    estimates
        .iter()
        .filter_map(|e| {
            e.waypoint
                .filter(|_| e.predicted_rate.bits_per_sec() >= direct_rate * min_gain)
        })
        .take(k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_netsim::presets::{detour_triangle, DetourParams};

    /// Triangle + one useless extra waypoint far away.
    fn setup() -> (RoutingTable, NodeId, NodeId, Vec<(MemberId, NodeId)>) {
        use hpop_netsim::topology::TopologyBuilder;
        let mut b = TopologyBuilder::new();
        let client = b.add_node("client");
        let good_wp = b.add_node("good-wp");
        let bad_wp = b.add_node("bad-wp");
        let server = b.add_node("server");
        // Direct: slow & lossy, but policy-preferred (weight 1).
        b.add_link_weighted(
            client,
            server,
            Bandwidth::mbps(100.0),
            Bandwidth::mbps(100.0),
            SimDuration::from_millis(80),
            0.02,
            1,
        );
        // Good detour: fast & clean.
        b.add_link(
            client,
            good_wp,
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(20),
        );
        b.add_link(
            good_wp,
            server,
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(20),
        );
        // Bad detour: enormous latency.
        b.add_link(
            client,
            bad_wp,
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(200),
        );
        b.add_link(
            bad_wp,
            server,
            Bandwidth::gbps(1.0),
            SimDuration::from_millis(200),
        );
        let rt = RoutingTable::new(&b.build());
        (
            rt,
            client,
            server,
            vec![(MemberId(0), good_wp), (MemberId(1), bad_wp)],
        )
    }

    #[test]
    fn good_waypoint_ranks_first() {
        let (mut rt, c, s, wps) = setup();
        let est = rank_waypoints(&mut rt, c, s, &wps, 1460);
        assert_eq!(est.len(), 3);
        assert_eq!(est[0].waypoint, Some(MemberId(0)));
        // The clean gigabit detour dominates the lossy 100 Mbps direct.
        let direct = est.iter().find(|e| e.waypoint.is_none()).unwrap();
        assert!(est[0].predicted_rate.bits_per_sec() > 2.0 * direct.predicted_rate.bits_per_sec());
    }

    #[test]
    fn loss_caps_direct_path_prediction() {
        let (mut rt, c, s, wps) = setup();
        let est = rank_waypoints(&mut rt, c, s, &wps, 1460);
        let direct = est.iter().find(|e| e.waypoint.is_none()).unwrap();
        // 2% loss at 160 ms RTT: Mathis keeps it well under the 100 Mbps
        // link capacity.
        assert!(direct.predicted_rate.as_mbps() < 10.0);
        assert!(direct.loss > 0.019);
    }

    #[test]
    fn select_beneficial_filters_bad_detours() {
        let (mut rt, c, s, wps) = setup();
        let est = rank_waypoints(&mut rt, c, s, &wps, 1460);
        let chosen = select_beneficial(&est, 4, 1.1);
        assert_eq!(chosen, vec![MemberId(0), MemberId(1)]);
        // With a latency-sensitive single pick, only the good one.
        let one = select_beneficial(&est, 1, 1.1);
        assert_eq!(one, vec![MemberId(0)]);
    }

    #[test]
    fn default_triangle_preset_detour_wins() {
        let t = detour_triangle(&DetourParams::default());
        let mut rt = RoutingTable::new(&t.topology);
        let est = rank_waypoints(
            &mut rt,
            t.client,
            t.server,
            &[(MemberId(0), t.waypoint)],
            1460,
        );
        assert_eq!(est[0].waypoint, Some(MemberId(0)));
    }

    #[test]
    fn no_waypoints_yields_direct_only() {
        let (mut rt, c, s, _) = setup();
        let est = rank_waypoints(&mut rt, c, s, &[], 1460);
        assert_eq!(est.len(), 1);
        assert!(est[0].waypoint.is_none());
        assert!(select_beneficial(&est, 3, 1.0).is_empty());
    }
}

//! E7 — chunked multi-peer downloads (§IV-B "Leveraging Redundancy").
//!
//! "Clients could download objects in chunks … from disparate peers
//! instead of as entire objects. These options both spread the load and
//! lower the chance that one problematic peer … will have a large
//! overall impact on the client." Two views: (a) the integrity/load
//! containment of the resilient chunked fetch, and (b) download-time
//! impact of a degraded peer with and without chunking, on a simulated
//! star network.

use crate::table::{f2, pct, Table};
use hpop_crypto::sha256::Sha256;
use hpop_netsim::netsim::{Fired, NetSim};
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_netsim::topology::TopologyBuilder;
use hpop_netsim::units::{Bandwidth, MB};
use hpop_nocdn::chunked::ResilientFetcher;
use hpop_nocdn::origin::ContentProvider;
use hpop_nocdn::peer::{NoCdnPeer, PeerBehavior, PeerId};
use hpop_resilience::Deadline;
use std::collections::BTreeMap;

/// (a) Protocol containment: how much work a bad peer can waste.
pub fn containment_table() -> Table {
    let mut t = Table::new(
        "E7a",
        "chunked fetch: containment of one bad peer (4 peers, 8 chunks, 400 KB object)",
        &[
            "bad peer behavior",
            "object verified",
            "chunks re-fetched",
            "wasted share",
        ],
    );
    for (name, behavior) in [
        ("none (all honest)", PeerBehavior::Honest),
        ("corrupts content", PeerBehavior::CorruptsContent),
        ("unresponsive", PeerBehavior::Unresponsive),
    ] {
        let mut origin = ContentProvider::new("cdn.example");
        let body: Vec<u8> = (0..400_000u32).map(|i| (i % 251) as u8).collect();
        let digest = Sha256::digest(&body);
        origin.put_object("/big.bin", body);
        let mut peers: BTreeMap<PeerId, NoCdnPeer> = (0..4)
            .map(|i| {
                let b = if i == 1 {
                    behavior
                } else {
                    PeerBehavior::Honest
                };
                (PeerId(i), NoCdnPeer::with_behavior(PeerId(i), b))
            })
            .collect();
        let order: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut now = SimTime::ZERO;
        let (report, _) = ResilientFetcher::default().fetch(
            "/big.bin",
            8,
            &digest,
            &order,
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now,
            &|_| SimDuration::from_millis(1),
        );
        t.push(vec![
            name.into(),
            if report.verified { "yes" } else { "NO" }.into(),
            format!("{}/8", report.fallback_chunks),
            pct(report.fallback_chunks as f64 / 8.0),
        ]);
    }
    t
}

/// (b) Download time with a slow peer: whole-object-from-one-peer vs
/// chunked-across-four, on a star topology where one peer's uplink is
/// 10x slower.
pub fn timing_table() -> Table {
    let object_bytes = 80 * MB;
    // Star: client hub with 4 peer nodes; peer 3 is degraded.
    let build = || {
        let mut b = TopologyBuilder::new();
        let client = b.add_node("client");
        let peers: Vec<_> = (0..4)
            .map(|i| {
                let p = b.add_node(format!("peer{i}"));
                let cap = if i == 3 {
                    Bandwidth::mbps(10.0)
                } else {
                    Bandwidth::mbps(100.0)
                };
                b.add_link(p, client, cap, SimDuration::from_millis(10));
                p
            })
            .collect();
        (b.build(), client, peers)
    };

    let mut t = Table::new(
        "E7b",
        "download time, 80 MB object, one peer degraded to 10 Mbps",
        &["strategy", "completion (s)", "slowdown vs best"],
    );

    // Whole object from the degraded peer (worst single-peer pick).
    let (topo, client, peers) = build();
    let mut sim = NetSim::with_topology(topo);
    sim.start_transfer(peers[3], client, object_bytes, 0);
    let worst_single = last_arrival_secs(&mut sim);

    // Whole object from a healthy peer (best single-peer pick).
    let (topo, client, peers) = build();
    let mut sim = NetSim::with_topology(topo);
    sim.start_transfer(peers[0], client, object_bytes, 0);
    let best_single = last_arrival_secs(&mut sim);

    // Chunked across all four peers: completion = last chunk's arrival.
    let (topo, client, peers) = build();
    let mut sim = NetSim::with_topology(topo);
    for (i, &p) in peers.iter().enumerate() {
        sim.start_transfer(p, client, object_bytes / 4, i as u64);
    }
    let chunked = last_arrival_secs(&mut sim);

    for (name, secs) in [
        ("single peer (healthy pick)", best_single),
        ("single peer (degraded pick)", worst_single),
        ("chunked across 4 peers", chunked),
    ] {
        t.push(vec![name.into(), f2(secs), f2(secs / best_single)]);
    }
    t
}

/// Runs `sim` dry and returns its last transfer's arrival, in seconds.
fn last_arrival_secs(sim: &mut NetSim) -> f64 {
    let mut last = 0f64;
    while let Some(fired) = sim.next(SimTime::MAX) {
        if let Fired::Done { info, .. } = fired {
            last = last.max(info.completed_at.as_secs_f64());
        }
    }
    last
}

/// Default-scale run.
pub fn run_default() -> Vec<Table> {
    vec![containment_table(), timing_table()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_peer_wastes_at_most_its_chunk_share() {
        let t = containment_table();
        for row in &t.rows[1..] {
            assert_eq!(row[1], "yes", "object must verify despite {}", row[0]);
            let wasted: f64 = row[3].trim_end_matches('%').parse().unwrap();
            // One of four peers serves 2 of 8 chunks = 25%.
            assert!(wasted <= 25.0 + 1e-9, "{} wasted {wasted}%", row[0]);
        }
    }

    #[test]
    fn chunking_bounds_the_degraded_peer_impact() {
        let t = timing_table();
        let best: f64 = t.rows[0][1].parse().unwrap();
        let worst: f64 = t.rows[1][1].parse().unwrap();
        let chunked: f64 = t.rows[2][1].parse().unwrap();
        // Picking the degraded peer is ~10x slower; chunking stays
        // within ~4x of best (the slow peer only carries 1/4 the bytes).
        assert!(worst > 8.0 * best, "worst {worst} best {best}");
        assert!(chunked < worst / 2.0, "chunked {chunked} worst {worst}");
    }
}

//! E16 — HPoP reachability across NAT types (§III).
//!
//! "For home networks that are behind a local NAT device only, the
//! widely supported UPnP protocol allows simple programmatic
//! configuration … For those behind ISP-operated NAT …, we assume the
//! STUN protocol … not all NAT devices have the behavior required for
//! hole-punching to work. In those cases, HPoPs can still be used, with
//! limited functionality, employing relaying-based traversal mechanisms
//! such as TURN." Three tables: the hole-punch matrix, the planner's
//! decision per deployment, and the TURN relay's performance penalty.

use crate::table::{f2, Table};
use hpop_nat::behavior::NatProfile;
use hpop_nat::traversal::{hole_punch, plan_reachability, HolePunchOutcome, Traversal};
use hpop_netsim::netsim::{Fired, NetSim};
use hpop_netsim::routing::RoutingTable;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_netsim::topology::TopologyBuilder;
use hpop_netsim::units::{Bandwidth, MB};

fn profile_set() -> Vec<(&'static str, NatProfile)> {
    vec![
        ("full-cone", NatProfile::full_cone()),
        ("restricted", NatProfile::restricted_cone()),
        ("port-restr", NatProfile::port_restricted_cone()),
        ("symmetric", NatProfile::symmetric()),
    ]
}

/// The pairwise hole-punch matrix.
pub fn matrix_table() -> Table {
    let profiles = profile_set();
    let mut headers: Vec<&str> = vec!["A \\ B"];
    for (name, _) in &profiles {
        headers.push(name);
    }
    let mut t = Table::new("E16a", "STUN hole-punch success matrix", &headers);
    for (name_a, a) in &profiles {
        let mut row = vec![name_a.to_string()];
        for (_, b) in &profiles {
            row.push(match hole_punch(&[*a], &[*b]) {
                HolePunchOutcome::Success { rounds } => format!("ok ({rounds}r)"),
                HolePunchOutcome::Failure => "FAIL".into(),
            });
        }
        t.push(row);
    }
    t
}

/// The §III planner decisions per deployment scenario.
pub fn planner_table() -> Table {
    let mut t = Table::new(
        "E16b",
        "reachability plan per home deployment (the paper's §III ladder)",
        &["deployment", "method", "full functionality"],
    );
    let scenarios: Vec<(&str, Vec<NatProfile>)> = vec![
        ("public address (IPv6)", vec![]),
        ("home NAT only", vec![NatProfile::port_restricted_cone()]),
        (
            "home NAT + CGN",
            vec![
                NatProfile::port_restricted_cone(),
                NatProfile::carrier_grade(),
            ],
        ),
        (
            "home NAT + symmetric CGN",
            vec![
                NatProfile::port_restricted_cone(),
                NatProfile::carrier_grade_symmetric(),
            ],
        ),
        ("symmetric home NAT", vec![NatProfile::symmetric()]),
    ];
    for (name, chain) in scenarios {
        let plan = plan_reachability(&chain);
        let method = match plan.method {
            Traversal::Direct => "direct",
            Traversal::UpnpPortMap => "UPnP port map",
            Traversal::StunHolePunch => "STUN hole punch",
            Traversal::TurnRelay => "TURN relay",
        };
        t.push(vec![
            name.into(),
            method.into(),
            if plan.full_functionality {
                "yes"
            } else {
                "limited"
            }
            .into(),
        ]);
    }
    t
}

/// TURN's cost: a 20 MB transfer device→HPoP, direct vs relayed through
/// a TURN server 30 ms away with a 200 Mbps relay allotment.
pub fn turn_penalty_table() -> Table {
    let mut b = TopologyBuilder::new();
    let device = b.add_node("roaming-device");
    let hpop = b.add_node("hpop");
    let relay = b.add_node("turn-relay");
    // Direct (hole-punched) path.
    b.add_link(
        device,
        hpop,
        Bandwidth::gbps(1.0),
        SimDuration::from_millis(15),
    );
    // Relay legs: longer and capacity-limited at the relay.
    b.add_link(
        device,
        relay,
        Bandwidth::mbps(200.0),
        SimDuration::from_millis(30),
    );
    b.add_link(
        relay,
        hpop,
        Bandwidth::mbps(200.0),
        SimDuration::from_millis(30),
    );
    let topo = b.build();

    let mut t = Table::new(
        "E16c",
        "TURN relay penalty: 20 MB device->HPoP transfer",
        &["path", "rtt (ms)", "completion (s)", "slowdown"],
    );
    let mut rt = RoutingTable::new(&topo);
    let direct = rt.route(device, hpop).expect("direct path");
    let relayed = rt.route_via(device, relay, hpop).expect("relay path");
    let mut results = Vec::new();
    for path in [direct, relayed] {
        let rtt = path.rtt(&topo).as_millis_f64();
        let mut sim = NetSim::with_topology(topo.clone());
        sim.start_transfer_on_path(&path, 20 * MB, None, 0);
        let Some(Fired::Done { info, .. }) = sim.next(SimTime::MAX) else {
            unreachable!("the transfer completes")
        };
        results.push((rtt, info.completed_at.as_secs_f64()));
    }
    let base = results[0].1;
    for ((rtt, secs), name) in results
        .iter()
        .zip(["direct (hole-punched)", "via TURN relay"])
    {
        t.push(vec![
            name.into(),
            f2(*rtt),
            f2(*secs),
            format!("{:.2}x", secs / base),
        ]);
    }
    t
}

/// Default-scale run.
pub fn run_default() -> Vec<Table> {
    vec![matrix_table(), planner_table(), turn_penalty_table()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shape_matches_folklore() {
        let t = matrix_table();
        // Cone↔cone all succeed; symmetric↔symmetric fails;
        // symmetric↔port-restricted fails; symmetric↔full-cone works.
        let cell = |r: usize, c: usize| t.rows[r][c + 1].clone();
        for r in 0..3 {
            for c in 0..3 {
                assert!(cell(r, c).starts_with("ok"), "({r},{c}) = {}", cell(r, c));
            }
        }
        assert_eq!(cell(3, 3), "FAIL");
        assert_eq!(cell(3, 2), "FAIL");
        assert!(cell(3, 0).starts_with("ok"));
    }

    #[test]
    fn planner_ladder() {
        let t = planner_table();
        assert_eq!(t.rows[0][1], "direct");
        assert_eq!(t.rows[1][1], "UPnP port map");
        assert_eq!(t.rows[2][1], "STUN hole punch");
        assert_eq!(t.rows[3][1], "TURN relay");
        assert_eq!(t.rows[3][2], "limited");
    }

    #[test]
    fn turn_is_measurably_slower() {
        let t = turn_penalty_table();
        let slowdown: f64 = t.rows[1][3].trim_end_matches('x').parse().unwrap();
        assert!(slowdown > 2.0, "TURN slowdown {slowdown}");
    }
}

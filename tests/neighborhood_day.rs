//! A day in an ultrabroadband neighborhood: the paper's services
//! operating together over one CCZ topology.
//!
//! Homes run HPoPs; one publishes content through NoCDN using two
//! neighbors as edge peers; another pulls a big download through a
//! neighbor waypoint with DCol; the rest browse, with a cooperative
//! cache keeping traffic off the shared uplink. The test asserts the
//! cross-service invariants (integrity, payments, speedup, savings) all
//! hold simultaneously in one simulation world.

use hpop::dcol::collective::{DetourCollective, MemberId};
use hpop::dcol::session::{DcolSession, SessionConfig};
use hpop::http::url::Url;
use hpop::internet_home::coop::CoopCache;
use hpop::netsim::netsim::{Fired, NetSim};
use hpop::netsim::presets::{ccz, detour_triangle, CczParams, DetourParams};
use hpop::netsim::time::SimTime;
use hpop::netsim::units::{Bandwidth, MB};
use hpop::nocdn::accounting::Accounting;
use hpop::nocdn::loader::PageLoader;
use hpop::nocdn::origin::{ContentProvider, PageSpec};
use hpop::nocdn::peer::{NoCdnPeer, PeerBehavior, PeerId};
use hpop::nocdn::wrapper::WrapperPage;
use hpop::transport::mptcp::MptcpStats;
use hpop::workloads::zipf::WebUniverse;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

#[test]
fn lateral_bandwidth_beats_the_shared_uplink() {
    // §II "Lateral Bandwidth": home↔home transfers bypass the shared
    // uplink entirely. Saturate the uplink with 30 bulk downloads and
    // check a home-to-home transfer still runs at the full gigabit.
    let net = ccz(&CczParams::default());
    let mut sim = NetSim::with_topology(net.topology.clone());
    for h in 0..30 {
        sim.start_transfer(net.server, net.homes[h], 500 * MB, 0);
    }
    sim.start_transfer(net.homes[40], net.homes[41], 500 * MB, 1);
    let mut rate = 0.0;
    while let Some(fired) = sim.next(SimTime::MAX) {
        if let Fired::Done { token: 1, info } = fired {
            rate = info.mean_rate.as_mbps();
        }
    }
    assert!(rate > 900.0, "lateral transfer only reached {rate} Mbps");
}

#[test]
fn nocdn_between_neighbors_offloads_and_stays_honest() {
    // A home business publishes through two neighbor HPoPs, one of
    // which turns malicious halfway through the recruitment drive.
    let mut origin = ContentProvider::new("bakery.example");
    origin.put_object("/menu.html", vec![b'm'; 30_000]);
    origin.put_object("/cake.jpg", vec![b'c'; 400_000]);
    origin.put_page(PageSpec {
        container: "/menu.html".into(),
        embedded: vec!["/cake.jpg".into()],
    });
    let mut peers: BTreeMap<PeerId, NoCdnPeer> = BTreeMap::new();
    peers.insert(PeerId(0), NoCdnPeer::new(PeerId(0)));
    peers.insert(
        PeerId(1),
        NoCdnPeer::with_behavior(PeerId(1), PeerBehavior::CorruptsContent),
    );
    let mut acct = Accounting::new();
    let master = [9u8; 32];
    let mut clean_pages = 0;
    for client in 0..40u64 {
        let assignments: BTreeMap<String, PeerId> = [
            ("/menu.html".to_owned(), PeerId((client % 2) as u32)),
            ("/cake.jpg".to_owned(), PeerId(((client + 1) % 2) as u32)),
        ]
        .into_iter()
        .collect();
        let wrapper = WrapperPage::generate(
            &mut origin,
            "/menu.html",
            client,
            &assignments,
            &mut acct,
            &master,
            client == 0,
        );
        let mut loader = PageLoader::new(client);
        let (report, page) = loader.load(&wrapper, &mut peers, &mut origin);
        if page.len() == 430_000 && report.corrupted.len() + report.unavailable.len() <= 2 {
            clean_pages += 1;
        }
    }
    assert_eq!(clean_pages, 40, "every page must assemble clean");
    for (_, p) in peers.iter_mut() {
        for r in p.upload_records() {
            let _ = acct.settle(&r);
        }
    }
    // The honest neighbor got paid; the corrupting one earned nothing.
    assert!(acct.payable_bytes(PeerId(0)) > 0);
    assert_eq!(acct.payable_bytes(PeerId(1)), 0);
}

#[test]
fn dcol_detour_and_collective_expulsion() {
    let net = detour_triangle(&DetourParams::default());
    let mut collective = DetourCollective::new().with_strike_limit(2);
    let me = collective.join(net.client);
    let neighbor = collective.join(net.waypoint);

    // The download through the neighbor's HPoP beats the native path.
    let run = |wps: &[(MemberId, hpop::netsim::topology::NodeId)]| -> MptcpStats {
        let mut sim = NetSim::with_topology(net.topology.clone());
        let cfg = SessionConfig::default();
        DcolSession::launch(&mut sim, 0, net.client, net.server, wps, 100 * MB, cfg).run(&mut sim)
    };
    let direct = run(&[]);
    let wps = collective.waypoints_for(me);
    let detoured = run(&wps);
    assert!(detoured.duration() < direct.duration());

    // Later the waypoint misbehaves twice and is expelled; no waypoints
    // remain for the next session.
    collective.strike(neighbor);
    assert!(collective.strike(neighbor));
    assert!(collective.waypoints_for(me).is_empty());
}

#[test]
fn cooperative_cache_protects_the_aggregation_link() {
    // Forty homes, shared Zipf interests: cooperation must cut uplink
    // bytes by well over half (§IV-D).
    let mut rng = StdRng::seed_from_u64(99);
    let universe = WebUniverse::generate(800, 1.0, 120_000, &mut rng);
    let mut coop = CoopCache::new(40);
    let mut indep = CoopCache::new(40).independent();
    for _ in 0..100 {
        for home in 0..40 {
            let o = universe.sample(&mut rng);
            let url = Url::https("web.example", &o.path);
            coop.request(home, &url, o.bytes);
            indep.request(home, &url, o.bytes);
        }
    }
    let saved = 1.0 - coop.stats().uplink_bytes as f64 / indep.stats().uplink_bytes as f64;
    assert!(saved > 0.5, "uplink savings only {:.1}%", saved * 100.0);
    // And the neighborhood never stores more than one copy per object.
    assert!(coop.stored_objects() <= 800);
}

#[test]
fn bottleneck_shift_with_and_without_hpop_services() {
    // §II arithmetic directly on the shared world: 20 active gigabit
    // homes on the 10 Gbps uplink get ~500 Mbps each.
    let net = ccz(&CczParams::default());
    let mut sim = NetSim::with_topology(net.topology.clone());
    for h in 0..20 {
        sim.start_transfer(net.server, net.homes[h], 250 * MB, h as u64);
    }
    let mut rates = Vec::new();
    while let Some(fired) = sim.next(SimTime::MAX) {
        if let Fired::Done { info, .. } = fired {
            rates.push(info.mean_rate);
        }
    }
    for r in &rates {
        assert!(
            (r.as_mbps() - 500.0).abs() < 50.0,
            "expected aggregation-limited ~500 Mbps, got {r}"
        );
    }
    let _unused = Bandwidth::gbps(1.0);
}

//! Pins the window model's observable trajectory: for each scenario the
//! windows dispatched, the loss events sampled and the completion instant
//! (in nanoseconds) must equal the literals below, which were captured
//! from an earlier build. A refactor of `hpop-transport` that moves any
//! of them changed behaviour (flows, rate caps or RNG draws), not just
//! code.

use hpop_netsim::netsim::NetSim;
use hpop_netsim::presets::{detour_triangle, DetourParams};
use hpop_netsim::routing::Path;
use hpop_netsim::time::SimDuration;
use hpop_netsim::topology::{NodeId, TopologyBuilder};
use hpop_netsim::units::{Bandwidth, MB};
use hpop_transport::conn::TcpTransfer;
use hpop_transport::mptcp::{MptcpStats, MptcpTransfer, Scheduler, SubflowSpec};
use hpop_transport::tcp::TcpConfig;
use std::cell::RefCell;
use std::rc::Rc;

/// `(windows, loss_events, completed_at ns)` of one single-path transfer.
type Row = (u32, u32, u64);

fn one_link(mbps: f64, latency_ms: u64, loss: f64) -> (NetSim, NodeId, NodeId) {
    let mut b = TopologyBuilder::new();
    let x = b.add_node("x");
    let y = b.add_node("y");
    let cap = Bandwidth::mbps(mbps);
    b.add_link_full(x, y, cap, cap, SimDuration::from_millis(latency_ms), loss);
    (NetSim::with_topology(b.build()), x, y)
}

fn row(s: &MptcpStats) -> Row {
    let f = &s.subflows[0];
    (f.windows, f.loss_events, s.completed_at.as_nanos())
}

/// One TCP transfer of `bytes` over a single `mbps` / `latency_ms` link.
fn tcp(mbps: f64, latency_ms: u64, loss: f64, bytes: u64, cfg: TcpConfig, seed: u64) -> Row {
    let (mut sim, x, y) = one_link(mbps, latency_ms, loss);
    let out: Rc<RefCell<Option<Row>>> = Rc::new(RefCell::new(None));
    let o2 = out.clone();
    TcpTransfer::launch(&mut sim, x, y, bytes, cfg, seed, move |_, s| {
        *o2.borrow_mut() = Some(row(&s));
    });
    sim.run();
    let r = out.borrow_mut().take().expect("transfer completed");
    r
}

/// Five 5 MB transfers started 3 ms apart on one shared 100 Mbps link,
/// in launch order.
fn five_staggered() -> Vec<Row> {
    let (mut sim, x, y) = one_link(100.0, 5, 0.0);
    let out: Rc<RefCell<Vec<Option<Row>>>> = Rc::new(RefCell::new(vec![None; 5]));
    for i in 0..5usize {
        let o2 = out.clone();
        sim.schedule_in(SimDuration::from_millis(3 * i as u64), move |sim| {
            TcpTransfer::launch(
                sim,
                x,
                y,
                5 * MB,
                TcpConfig::default(),
                i as u64,
                move |_, s| o2.borrow_mut()[i] = Some(row(&s)),
            );
        });
    }
    sim.run();
    let rows = out.borrow().iter().map(|r| r.expect("completed")).collect();
    rows
}

/// `(windows, loss_events, bytes, wire_bytes)` per subflow, then the
/// completion instant.
fn mptcp_rows(s: &MptcpStats) -> (Vec<(u32, u32, u64, u64)>, u64) {
    let flows = s
        .subflows
        .iter()
        .map(|f| (f.windows, f.loss_events, f.bytes, f.wire_bytes))
        .collect();
    (flows, s.completed_at.as_nanos())
}

/// The §IV-C triangle: a lossy direct subflow and a waypoint subflow
/// carrying a 20 ms ACK delay and VPN overhead. With `add_later`, the
/// waypoint subflow joins the live connection 200 ms in.
fn two_subflows(add_later: bool) -> (Vec<(u32, u32, u64, u64)>, u64) {
    let t = detour_triangle(&DetourParams::default());
    let mut sim = NetSim::with_topology(t.topology.clone());
    let direct = Path::new(
        &t.topology,
        t.server,
        t.client,
        vec![t.topology.neighbors(t.server)[0].1],
    );
    let via_path = sim
        .state
        .net
        .routing()
        .route_via(t.server, t.waypoint, t.client)
        .expect("connected");
    let mut via = SubflowSpec::new("via-waypoint", via_path);
    via.ack_delay = SimDuration::from_millis(20);
    via.per_packet_overhead = 36;
    let mut specs = vec![SubflowSpec::new("direct", direct)];
    if !add_later {
        specs.push(via.clone());
    }
    let out: Rc<RefCell<Option<MptcpStats>>> = Rc::new(RefCell::new(None));
    let o2 = out.clone();
    let handle = MptcpTransfer::launch(
        &mut sim,
        specs,
        60 * MB,
        TcpConfig::default(),
        Scheduler::MinRtt,
        17,
        move |_, s| *o2.borrow_mut() = Some(s),
    );
    if add_later {
        sim.schedule_in(SimDuration::from_millis(200), move |sim| {
            handle.add_subflow(sim, via);
        });
    }
    sim.run();
    let s = out.borrow_mut().take().expect("completed");
    mptcp_rows(&s)
}

#[test]
fn transfer_frozen() {
    let d = TcpConfig::default();
    let short = tcp(1000.0, 25, 0.0, 100_000, d, 1);
    assert_eq!(short, (3, 0, 148_116_439));
    let long = tcp(1000.0, 25, 0.0, 200 * MB, d, 1);
    assert_eq!(long, (23, 0, 1_990_315_200));
    let lossy_42 = tcp(100.0, 10, 0.02, 10 * MB, d, 42);
    assert_eq!(lossy_42, (776, 124, 15_506_775_049));
    let lossy_43 = tcp(100.0, 10, 0.02, 10 * MB, d, 43);
    assert_eq!(lossy_43, (774, 127, 15_477_621_406));
    let iw4 = tcp(1000.0, 25, 0.0, 14 * MB, TcpConfig::conservative(), 3);
    assert_eq!(iw4, (12, 0, 566_364_160));
    assert_eq!(
        five_staggered(),
        vec![
            (87, 0, 2_002_336_003),
            (87, 0, 2_005_139_201),
            (87, 0, 2_007_241_601),
            (87, 0, 2_008_741_601),
            (87, 0, 2_010_159_410),
        ]
    );
    assert_eq!(
        two_subflows(false),
        (
            vec![(10, 2, 299_300, 299_300), (12, 0, 59_700_700, 61_172_773)],
            1_806_949_544
        )
    );
    assert_eq!(
        two_subflows(true),
        (
            vec![(11, 2, 319_740, 319_740), (12, 0, 59_680_260, 61_151_829)],
            2_006_781_992
        )
    );
}

//! Loopback integration: the full conformance suite over real TCP,
//! against both a volatile and a journaled backend, compared
//! byte-for-byte with the in-process netsim adapter.
//!
//! This is the PR's acceptance gate run as a black box — through the
//! public crate API only, the way CI runs it.

use hpop_attic::{
    run_suite, AtticDaemon, DaemonConfig, DavCore, DurableAttic, SimTransport, TcpTransport,
    VolatileBackend,
};
use hpop_core::auth::TokenVerifier;
use hpop_durability::DurabilityConfig;
use hpop_netsim::storage::SimDisk;

fn verifier() -> TokenVerifier {
    TokenVerifier::new([7u8; 32])
}

#[test]
fn conformance_suite_is_byte_identical_across_adapters() {
    // Reference run: the netsim adapter, fully in-process.
    let mut server = DavCore::new(VolatileBackend::new(), verifier());
    let sim = run_suite(&mut SimTransport::new(&mut server));
    assert_eq!(sim.failures, Vec::<String>::new());
    assert_eq!(sim.passed, sim.steps);

    // Same suite over loopback TCP against the volatile backend.
    let volatile = DavCore::new(VolatileBackend::new(), verifier());
    let handle = AtticDaemon::spawn(DaemonConfig::default(), volatile).expect("bind");
    let mut tcp = TcpTransport::connect(handle.addr()).expect("connect");
    let daemon = run_suite(&mut tcp);
    drop(tcp);
    let stats = handle.stop();
    assert_eq!(daemon.failures, Vec::<String>::new());
    assert_eq!(sim.transcript, daemon.transcript);
    assert_eq!(stats.requests, u64::from(daemon.steps));
    assert_eq!(stats.bad_frames, 0);

    // And once more with every mutation journaled through the WAL:
    // durability must be invisible at the protocol level.
    let attic = DurableAttic::open(SimDisk::new(3), "attic", DurabilityConfig::default())
        .expect("open journal");
    let handle =
        AtticDaemon::spawn(DaemonConfig::default(), DavCore::new(attic, verifier())).expect("bind");
    let mut tcp = TcpTransport::connect(handle.addr()).expect("connect");
    let journaled = run_suite(&mut tcp);
    drop(tcp);
    handle.stop();
    assert_eq!(journaled.failures, Vec::<String>::new());
    assert_eq!(sim.transcript, journaled.transcript);
}

//! Cross-crate integration: the assembled appliance running the paper's
//! services together — attic writes flowing over the event bus into
//! Internet@home's collector, vault-backed deep-web gathering, and
//! grants bound to the appliance identity.

use hpop::attic::grant::AccessGrant;
use hpop::attic::{DavCore, Origin, VolatileBackend};
use hpop::core::auth::Permission;
use hpop::core::vault::SiteCredential;
use hpop::core::{Appliance, HouseholdConfig};
use hpop::http::message::Request;
use hpop::http::url::Url;
use hpop::internet_home::collector::{DeepWebCollector, DeepWebSource};
use hpop::netsim::time::SimTime;

#[test]
fn attic_writes_trigger_prefetch_hints_over_the_bus() {
    let mut hpop = Appliance::new(HouseholdConfig::named("doe"));
    hpop.power_on();
    let bus = hpop.bus();
    let mut attic =
        DavCore::new(VolatileBackend::new(), hpop.tokens().clone()).with_bus(bus.clone());
    attic.backend_mut().store.mkcol("/finance").expect("mkcol");

    // The collector watches attic.write events; the read callback
    // mirrors what it would fetch from the attic store. (In-process the
    // content is passed straight through.)
    let collector = DeepWebCollector::new();
    collector.attach(&bus, |path| {
        (path == "/finance/tax-2026.txt").then(|| "dividends: TICKER:ACME TICKER:ZORG".to_owned())
    });

    // A tax document lands in the attic (the §IV-D worked example).
    let clock = hpop.clock();
    let resp = attic.serve(
        &Request::put(
            Url::https("attic.home", "/finance/tax-2026.txt"),
            &b"dividends: TICKER:ACME TICKER:ZORG"[..],
        ),
        Origin::Local,
        clock.now(),
    );
    assert!(resp.status.is_success());

    // The HPoP now knows to keep those quotes fresh.
    let hints = collector.take_hints();
    assert_eq!(hints.len(), 2);
    assert!(hints
        .iter()
        .all(|u| u.host() == "quotes.example" && u.path().starts_with("/q/")));
}

#[test]
fn vault_gated_deep_web_collection_respects_ownership() {
    let mut hpop = Appliance::new(HouseholdConfig::named("doe"));
    let alice = hpop.household_mut().add_user("alice");
    let bob = hpop.household_mut().add_user("bob");
    hpop.power_on();

    hpop.vault_mut().store(
        alice,
        "mail.example",
        SiteCredential {
            username: "alice".into(),
            secret: "alice-pass".into(),
        },
        "setup",
    );

    let mut collector = DeepWebCollector::new();
    collector.add_source(DeepWebSource {
        site: "mail.example".into(),
        owner: alice,
        url: Url::https("mail.example", "/inbox"),
    });
    // Bob's collector entry for the same site is denied by the vault.
    collector.add_source(DeepWebSource {
        site: "mail.example".into(),
        owner: bob,
        url: Url::https("mail.example", "/inbox"),
    });

    let report = collector.collect(hpop.vault_mut(), "internet-home", |_, secret| {
        assert_eq!(secret, "alice-pass");
        true
    });
    assert_eq!(report.fetched.len(), 1);
    assert_eq!(report.denied, vec!["mail.example".to_owned()]);

    // Every access (and the denial) is in the household's audit log.
    let log = hpop.vault_mut().audit_log().to_vec();
    assert!(log.iter().any(|e| e.action == "access"));
    assert!(log.iter().any(|e| e.action == "denied"));
}

#[test]
fn grants_issued_by_one_appliance_fail_on_another() {
    let doe = Appliance::new(HouseholdConfig::named("doe"));
    let smith = Appliance::new(HouseholdConfig::named("smith"));
    let token = doe.tokens().issue(
        "clinic",
        "/health/clinic",
        Permission::ReadWrite,
        SimTime::from_secs(1_000),
    );
    let grant = AccessGrant::new(Url::https("doe.hpop.example", "/"), token);
    let wire = grant.encode();

    // The Smith family's attic rejects the Doe grant outright.
    let mut smith_attic = DavCore::new(VolatileBackend::new(), smith.tokens().clone());
    smith_attic
        .backend_mut()
        .store
        .mkcol("/health")
        .expect("mkcol");
    let decoded = AccessGrant::decode(&wire).expect("well-formed");
    let req = Request::put(
        Url::https("smith.hpop.example", "/health/clinic/r.json"),
        &b"{}"[..],
    )
    .with_header("authorization", decoded.authorization_header());
    let resp = smith_attic.serve(&req, Origin::External, SimTime::from_secs(1));
    assert_eq!(resp.status.0, 401);

    // The Doe attic accepts it (after the collection exists).
    let mut doe_attic = DavCore::new(VolatileBackend::new(), doe.tokens().clone());
    doe_attic
        .backend_mut()
        .store
        .mkcol_recursive("/health/clinic")
        .expect("mkcol");
    let resp = doe_attic.serve(&req, Origin::External, SimTime::from_secs(1));
    assert!(resp.status.is_success());
}

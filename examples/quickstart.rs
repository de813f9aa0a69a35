//! Quickstart: provision a Home Point of Presence, enroll the
//! household, power it on, and use the data attic locally.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hpop::attic::{DavCore, Origin, VolatileBackend};
use hpop::core::{Appliance, HouseholdConfig};
use hpop::http::message::Request;
use hpop::http::url::Url;
use hpop::netsim::time::SimDuration;

fn main() {
    // 1. Provision the appliance for a household behind a typical home
    //    NAT (§III: reachability is planned automatically at power-on).
    let mut hpop = Appliance::new(HouseholdConfig::named("doe-family"));
    let alice = hpop.household_mut().add_user("alice");
    let _bob = hpop.household_mut().add_user("bob");
    let phone = hpop.household_mut().add_device(alice, "alice-phone");
    println!("{}", hpop.household());

    // 2. Power on: reachability is planned, uptime starts counting.
    hpop.power_on();
    println!(
        "online: {} via {:?}",
        hpop.is_online(),
        hpop.reachability().expect("online").method
    );

    // 3. The data attic is the household's single source of truth
    //    (§IV-A). Store and read back a document over WebDAV semantics.
    let mut attic =
        DavCore::new(VolatileBackend::new(), hpop.tokens().clone()).with_bus(hpop.bus());
    let clock = hpop.clock();
    attic
        .backend_mut()
        .store
        .mkcol("/notes")
        .expect("fresh attic accepts the collection");
    let url = Url::https("attic.home", "/notes/groceries.txt");
    let put = Request::put(url.clone(), &b"milk, eggs, fiber internet"[..]);
    let resp = attic.serve(&put, Origin::Local, clock.now());
    println!("PUT {} -> {}", url.path(), resp.status);
    let get = attic.serve(&Request::get(url.clone()), Origin::Local, clock.now());
    println!(
        "GET {} -> {} ({} bytes, etag {})",
        url.path(),
        get.status,
        get.body.len(),
        get.headers.get("etag").unwrap_or("-")
    );

    // 4. The appliance is always on: a simulated week passes.
    clock.advance(SimDuration::from_secs(7 * 24 * 3600));
    println!(
        "uptime after a simulated week: {} (device '{}' still reaches it from anywhere)",
        hpop.uptime(),
        hpop.household().device(phone).expect("registered").name
    );
}

//! The paper's Fig. 1 / §IV-A case study end-to-end: aggregating a
//! patient's electronic health records in their own data attic.
//!
//! Two clinics enroll by scanning the attic's QR grant; every record
//! they generate is dual-written (their regulatory copy + the patient's
//! attic); the patient then hands a complete cross-provider history to
//! an emergency room in one call — the capability the paper says
//! today's siloed records deny. Finally the patient revokes a clinic.
//!
//! ```sh
//! cargo run --example health_records
//! ```

use hpop::attic::grant::AccessGrant;
use hpop::attic::health::{aggregate_history, HealthRecord, MedicalProvider};
use hpop::attic::{DavCore, Origin, VolatileBackend};
use hpop::core::auth::Permission;
use hpop::core::{Appliance, HouseholdConfig};
use hpop::http::url::Url;
use hpop::netsim::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let mut hpop = Appliance::new(HouseholdConfig::named("jane-doe"));
    hpop.power_on();
    let mut attic_server = DavCore::new(VolatileBackend::new(), hpop.tokens().clone());
    attic_server
        .backend_mut()
        .store
        .mkcol("/health")
        .expect("fresh attic");
    let attic = Rc::new(RefCell::new(attic_server));
    let endpoint = Url::https("jane-doe.hpop.example", "/").with_port(8443);

    // Enrollment: the attic issues a QR payload per provider — scoped,
    // expiring, write-capable only inside that provider's subtree.
    let mut clinics = Vec::new();
    for slug in ["st-marys-clinic", "lakeside-cardiology"] {
        let token = hpop.tokens().issue(
            slug,
            &format!("/health/{slug}"),
            Permission::ReadWrite,
            SimTime::from_secs(86_400 * 365),
        );
        let qr_payload = AccessGrant::new(endpoint.clone(), token).encode();
        println!(
            "QR grant for {slug}:\n  {}...\n",
            &qr_payload[..70.min(qr_payload.len())]
        );
        let mut clinic = MedicalProvider::new(slug);
        clinic
            .enroll("jane", &qr_payload, attic.clone(), SimTime::from_secs(1))
            .expect("enrollment");
        clinics.push(clinic);
    }

    // Visits over the year: each record is written to the provider's
    // regulatory store AND pushed to Jane's attic.
    let visits = [
        (
            0usize,
            "visit-001",
            r#"{"type":"annual physical","bp":"118/76"}"#,
        ),
        (0, "visit-002", r#"{"type":"flu shot","lot":"FX-2026-119"}"#),
        (1, "echo-001", r#"{"type":"echocardiogram","ef":"62%"}"#),
        (
            1,
            "stress-001",
            r#"{"type":"stress test","result":"normal"}"#,
        ),
    ];
    for (i, (clinic_idx, id, body)) in visits.iter().enumerate() {
        clinics[*clinic_idx]
            .add_record(
                "jane",
                HealthRecord {
                    id: id.to_string(),
                    body: body.to_string(),
                },
                SimTime::from_secs(100 + i as u64),
            )
            .expect("dual write");
    }

    // The emergency: Jane's complete history, one lookup, no
    // inter-institution release forms.
    println!("emergency-room view of /health (complete, cross-provider):");
    for (path, body) in aggregate_history(&attic.borrow(), "/health") {
        println!("  {path}: {body}");
    }

    // Scope enforcement: a clinic cannot read outside its grant.
    let grant = AccessGrant::decode(
        &AccessGrant::new(
            endpoint.clone(),
            hpop.tokens().issue(
                "st-marys-clinic",
                "/health/st-marys-clinic",
                Permission::ReadWrite,
                SimTime::from_secs(86_400),
            ),
        )
        .encode(),
    )
    .expect("roundtrip");
    let snoop = hpop::http::message::Request::get(
        endpoint.with_path("/health/lakeside-cardiology/echo-001.json"),
    )
    .with_header("authorization", grant.authorization_header());
    let resp = attic
        .borrow_mut()
        .serve(&snoop, Origin::External, SimTime::from_secs(200));
    println!(
        "\nst-marys trying to read lakeside's records -> {}",
        resp.status
    );

    println!(
        "\nregulatory copies retained: st-marys={}, lakeside={}",
        clinics[0].local_copies("jane").len(),
        clinics[1].local_copies("jane").len()
    );
}

//! The household hub in daily use (§III): contacts and calendar served
//! by the attic, a phone going offline and reconciling on return, and
//! the whole personal tree backed up — encrypted — to friends' HPoPs.
//!
//! ```sh
//! cargo run --example family_hub
//! ```

use hpop::attic::backup::{BackupPlan, BackupSet};
use hpop::attic::personal::{Calendar, CalendarEvent, Contact, ContactsBook};
use hpop::attic::sync::OfflineReplica;
use hpop::attic::{DavCore, VolatileBackend};
use hpop::core::{Appliance, HouseholdConfig};
use hpop::crypto::sha256::Sha256;
use hpop::netsim::time::{SimDuration, SimTime};

fn main() {
    let mut hpop = Appliance::new(HouseholdConfig::named("doe-family"));
    hpop.power_on();
    let mut attic = DavCore::new(VolatileBackend::new(), hpop.tokens().clone());
    let store = &mut attic.backend_mut().store;

    // 1. The mundane services (§III): contacts and calendar are plain
    //    attic files — versioned, lockable, grantable, backupable.
    ContactsBook::init(store).expect("init contacts");
    Calendar::init(store).expect("init calendar");
    for (id, name, email) in [
        ("grandma", "Grandma Doe", "grandma@mail.example"),
        ("dentist", "Dr. Molar", "frontdesk@molar.example"),
        ("school", "Riverside School", "office@riverside.example"),
    ] {
        ContactsBook::save(
            store,
            &Contact {
                id: id.into(),
                name: name.into(),
                email: email.into(),
                phone: "555-0100".into(),
            },
            SimTime::from_secs(1),
        )
        .expect("save contact");
    }
    Calendar::save(
        store,
        &CalendarEvent {
            id: "recital".into(),
            title: "Piano recital".into(),
            start: SimTime::from_secs(86_400 * 3),
            duration: SimDuration::from_secs(5_400),
        },
        SimTime::from_secs(2),
    )
    .expect("save event");
    println!(
        "contacts: {:?}",
        ContactsBook::list(store)
            .iter()
            .map(|c| &c.name)
            .collect::<Vec<_>>()
    );
    println!(
        "this week: {:?}",
        Calendar::upcoming(store, SimTime::ZERO, SimDuration::from_secs(7 * 86_400))
            .iter()
            .map(|e| &e.title)
            .collect::<Vec<_>>()
    );

    // 2. Alice's phone snapshots the tree, goes offline on a flight,
    //    edits a contact — and Bob edits a different one at home.
    let mut phone = OfflineReplica::snapshot(store, "/personal");
    phone.edit(
        "/personal/contacts/grandma.vcf",
        "BEGIN:VCARD\nVERSION:3.0\nFN:Grandma Doe\nEMAIL:grandma@newmail.example\nTEL:555-0177\nEND:VCARD\n",
    );
    // Meanwhile at home, Bob updates the dentist's number.
    let mut bob_edit = ContactsBook::load(store, "dentist").expect("exists");
    bob_edit.phone = "555-0123".into();
    ContactsBook::save(store, &bob_edit, SimTime::from_secs(100)).expect("save");

    // Reconnection: disjoint edits merge cleanly.
    let outcome = phone
        .reconcile(store, SimTime::from_secs(200))
        .expect("reconcile");
    println!(
        "phone reconciled: {} applied, {} conflicts",
        outcome.applied.len(),
        outcome.conflicts.len()
    );
    assert!(outcome.conflicts.is_empty());
    assert_eq!(
        ContactsBook::load(store, "grandma").expect("exists").email,
        "grandma@newmail.example"
    );
    assert_eq!(
        ContactsBook::load(store, "dentist").expect("exists").phone,
        "555-0123"
    );

    // 3. Nightly backup: the personal tree, encrypted, erasure-coded
    //    across five friends' HPoPs (any 3 reconstruct).
    let blob: Vec<u8> = store
        .files_under("/personal")
        .iter()
        .flat_map(|p| {
            let v = store.get(p).expect("listed");
            let mut rec = p.clone().into_bytes();
            rec.push(0);
            rec.extend_from_slice(&v.body);
            rec.push(b'\n');
            rec
        })
        .collect();
    let key = *Sha256::digest(b"household-backup-key").as_bytes();
    let mut backup = BackupSet::create(
        &blob,
        &key,
        "personal-nightly",
        BackupPlan::Erasure { data: 3, parity: 2 },
    )
    .expect("backup");
    println!(
        "backup: {} bytes across {} friends ({:.2}x overhead, {:.4} availability at 10% peer failure)",
        backup.stored_bytes(),
        backup.shards.len(),
        backup.plan().overhead(),
        backup.plan().availability(0.10),
    );

    // Two friends' HPoPs are offline during the restore drill — fine.
    backup.lose_peer(1);
    backup.lose_peer(4);
    let restored = backup.restore(&key, "personal-nightly").expect("restore");
    assert_eq!(restored, blob);
    println!(
        "restore drill with 2 friends offline: OK ({} bytes)",
        restored.len()
    );
}

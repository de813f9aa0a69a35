//! E12 — attic lock mediation and dual-write consistency (§IV-A).
//!
//! "WebDAV further mediates access from multiple clients through file
//! locking … allowing changes and shared access by multiple actors,
//! through multiple applications, while maintaining a single source for
//! a file." A write-storm of concurrent applications against one file,
//! with three coordination disciplines; plus the health-records
//! dual-write invariant (provider copy == attic copy).

use crate::table::{pct, Table};
use hpop_attic::grant::AccessGrant;
use hpop_attic::health::{aggregate_history, HealthRecord, MedicalProvider};
use hpop_attic::{DavCore, Origin, VolatileBackend};
use hpop_core::auth::{Permission, TokenVerifier};
use hpop_http::message::{Method, Request, StatusCode};
use hpop_http::url::Url;
use hpop_netsim::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

fn url(p: &str) -> Url {
    Url::https("attic.home", p)
}

/// One write-storm run. Each of `writers` applications performs `rounds`
/// read-modify-write cycles appending its own marker; interleaving is
/// random. Returns (applied updates, lost updates, rejected attempts).
fn storm(writers: usize, rounds: usize, discipline: &str, seed: u64) -> (u64, u64, u64) {
    let mut attic = DavCore::new(VolatileBackend::new(), TokenVerifier::new([1u8; 32]));
    attic.serve(
        &Request::put(url("/doc"), &b""[..]),
        Origin::Local,
        SimTime::ZERO,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut applied = 0u64;
    let mut rejected = 0u64;
    let mut now_s = 1u64;
    // Each logical update: GET (capture etag), then PUT appending a byte.
    let mut schedule: Vec<usize> = (0..writers)
        .flat_map(|w| std::iter::repeat_n(w, rounds))
        .collect();
    // Random interleaving.
    for i in (1..schedule.len()).rev() {
        let j = rng.gen_range(0..=i);
        schedule.swap(i, j);
    }
    // To model *concurrency*, each writer's read happens `gap` operations
    // before its write: another writer may write in between.
    let mut pending: Vec<(usize, String, Vec<u8>)> = Vec::new(); // (writer, etag, body)
    for (step, &w) in schedule.iter().enumerate() {
        now_s += 1;
        let now = SimTime::from_secs(now_s);
        match discipline {
            "unconditional" | "if-match" => {
                // Read now, write a couple of steps later — another app
                // may write in between (that is the race).
                let get = attic.serve(&Request::get(url("/doc")), Origin::Local, now);
                let etag = get.headers.get("etag").unwrap_or_default().to_owned();
                let mut body = get.body.to_vec();
                body.push(b'a' + (w % 26) as u8);
                pending.push((w, etag, body));
                let flush = if step == schedule.len() - 1 {
                    pending.len()
                } else {
                    pending.len().saturating_sub(2)
                };
                for _ in 0..flush {
                    let (_, etag, body) = pending.remove(0);
                    let mut req = Request::put(url("/doc"), body);
                    if discipline == "if-match" {
                        req = req.with_header("if-match", etag);
                    }
                    let resp = attic.serve(&req, Origin::Local, now);
                    if resp.status.is_success() {
                        applied += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
            "lock" => {
                // LOCK, read, write, UNLOCK: fully serialized.
                let lock = attic.serve(
                    &Request::new(Method::Lock, url("/doc"))
                        .with_header("x-lock-owner", format!("app{w}")),
                    Origin::Local,
                    now,
                );
                if lock.status != StatusCode::OK {
                    rejected += 1;
                    continue;
                }
                let token = lock.headers.get("lock-token").unwrap().to_owned();
                let get = attic.serve(&Request::get(url("/doc")), Origin::Local, now);
                let mut body = get.body.to_vec();
                body.push(b'a' + (w % 26) as u8);
                let put = attic.serve(
                    &Request::put(url("/doc"), body).with_header("lock-token", token.clone()),
                    Origin::Local,
                    now,
                );
                if put.status.is_success() {
                    applied += 1;
                } else {
                    rejected += 1;
                }
                attic.serve(
                    &Request::new(Method::Unlock, url("/doc")).with_header("lock-token", token),
                    Origin::Local,
                    now,
                );
            }
            other => panic!("unknown discipline {other}"),
        }
    }
    let final_len = attic
        .serve(
            &Request::get(url("/doc")),
            Origin::Local,
            SimTime::from_secs(now_s + 1),
        )
        .body
        .len() as u64;
    // Updates that "succeeded" but whose append was clobbered.
    let lost = applied.saturating_sub(final_len);
    (applied, lost, rejected)
}

/// The write-storm comparison.
pub fn run(writers: usize, rounds: usize) -> Table {
    let mut t = Table::new(
        "E12a",
        format!("{writers} concurrent apps x {rounds} read-modify-write cycles on one attic file"),
        &[
            "discipline",
            "updates applied",
            "updates lost",
            "attempts rejected",
            "lost rate",
        ],
    );
    for discipline in ["unconditional", "if-match", "lock"] {
        let (applied, lost, rejected) = storm(writers, rounds, discipline, 42);
        t.push(vec![
            discipline.into(),
            applied.to_string(),
            lost.to_string(),
            rejected.to_string(),
            pct(lost as f64 / (applied.max(1)) as f64),
        ]);
    }
    t
}

/// Health-records dual-write invariant across providers.
pub fn health_table(providers: usize, records_each: usize) -> Table {
    let verifier = TokenVerifier::new([11u8; 32]);
    let mut server = DavCore::new(VolatileBackend::new(), verifier.clone());
    server.backend_mut().store.mkcol("/health").unwrap();
    let attic = Rc::new(RefCell::new(server));
    let mut locals = 0usize;
    for p in 0..providers {
        let slug = format!("clinic-{p:02}");
        let token = verifier.issue(
            &slug,
            &format!("/health/{slug}"),
            Permission::ReadWrite,
            SimTime::from_secs(1_000_000),
        );
        let grant = AccessGrant::new(Url::https("patient.hpop.example", "/"), token).encode();
        let mut provider = MedicalProvider::new(&slug);
        provider
            .enroll("jane", &grant, attic.clone(), SimTime::from_secs(1))
            .expect("enrollment succeeds");
        for r in 0..records_each {
            provider
                .add_record(
                    "jane",
                    HealthRecord {
                        id: format!("rec-{r:03}"),
                        body: format!("{{\"provider\":\"{slug}\",\"rec\":{r}}}"),
                    },
                    SimTime::from_secs(2 + r as u64),
                )
                .expect("dual write succeeds");
        }
        locals += provider.local_copies("jane").len();
    }
    let aggregated = aggregate_history(&attic.borrow(), "/health");
    let mut t = Table::new(
        "E12b",
        format!("health-records dual write: {providers} providers x {records_each} records"),
        &["where", "records", "complete history available"],
    );
    t.push(vec![
        "provider regulatory copies".into(),
        locals.to_string(),
        "-".into(),
    ]);
    t.push(vec![
        "patient attic (aggregated)".into(),
        aggregated.len().to_string(),
        if aggregated.len() == providers * records_each {
            "yes"
        } else {
            "NO"
        }
        .into(),
    ]);
    t
}

/// The §IV-A alternative-design ablation: attic vs encrypted cloud.
/// Same concurrent multi-application workload; the attic mediates with
/// locks, the encrypted cloud (which only sees ciphertext) cannot — and
/// every cloud access hands the decryption key to another party.
pub fn alternative_table(writers: usize, rounds: usize) -> Table {
    use hpop_attic::cloudenc::EncryptedCloudStore;
    let key = [3u8; 32];
    let mut cloud = EncryptedCloudStore::new();
    cloud.upload("doc", &key, b"");
    let mut rng = StdRng::seed_from_u64(42);
    let mut schedule: Vec<usize> = (0..writers)
        .flat_map(|w| std::iter::repeat_n(w, rounds))
        .collect();
    for i in (1..schedule.len()).rev() {
        let j = rng.gen_range(0..=i);
        schedule.swap(i, j);
    }
    // Same staleness model as `storm`: each checkin happens two steps
    // after its checkout.
    let mut pending = Vec::new();
    let mut lost = 0u64;
    let mut applied = 0u64;
    for (step, &w) in schedule.iter().enumerate() {
        let co = cloud
            .checkout("doc", &key, &format!("app{w}"))
            .expect("object exists");
        let mut edited = co.plaintext.clone();
        edited.push(b'a' + (w % 26) as u8);
        pending.push((co, edited));
        let flush = if step == schedule.len() - 1 {
            pending.len()
        } else {
            pending.len().saturating_sub(2)
        };
        for _ in 0..flush {
            let (co, edited) = pending.remove(0);
            if cloud.checkin(&co, &key, &edited) {
                lost += 1;
            }
            applied += 1;
        }
    }
    // Attic numbers for the same workload shape come from `storm`.
    let (attic_applied, attic_lost, _) = storm(writers, rounds, "lock", 42);

    let mut t = Table::new(
        "E12c",
        format!(
            "attic vs encrypted-cloud alternative ({writers} apps x {rounds} edits on one file)"
        ),
        &[
            "design",
            "updates applied",
            "updates lost",
            "parties holding the key",
        ],
    );
    t.push(vec![
        "data attic (WebDAV locks)".into(),
        attic_applied.to_string(),
        attic_lost.to_string(),
        "0 (data never leaves home control)".into(),
    ]);
    t.push(vec![
        "encrypted cloud (key handout)".into(),
        applied.to_string(),
        lost.to_string(),
        cloud.key_exposures().len().to_string(),
    ]);
    t
}

/// Default-scale run.
pub fn run_default() -> Vec<Table> {
    vec![run(8, 40), health_table(5, 20), alternative_table(8, 40)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconditional_writes_lose_updates_locks_do_not() {
        let t = run(6, 25);
        let lost = |i: usize| -> u64 { t.rows[i][2].parse().unwrap() };
        assert!(lost(0) > 0, "unconditional must lose updates");
        assert_eq!(lost(1), 0, "if-match must not lose updates");
        assert_eq!(lost(2), 0, "locks must not lose updates");
        // if-match pays with rejections instead.
        let rejected_ifmatch: u64 = t.rows[1][3].parse().unwrap();
        assert!(rejected_ifmatch > 0);
        // locks serialize: every update applies.
        let applied_lock: u64 = t.rows[2][1].parse().unwrap();
        assert_eq!(applied_lock, 6 * 25);
    }

    #[test]
    fn encrypted_cloud_loses_updates_and_leaks_keys() {
        let t = alternative_table(6, 25);
        let attic_lost: u64 = t.rows[0][2].parse().unwrap();
        let cloud_lost: u64 = t.rows[1][2].parse().unwrap();
        assert_eq!(attic_lost, 0);
        assert!(cloud_lost > 0, "cloud must exhibit lost updates");
        let exposures: u64 = t.rows[1][3].parse().unwrap();
        assert_eq!(exposures, 6 * 25);
    }

    #[test]
    fn dual_write_keeps_attic_complete() {
        let t = health_table(3, 5);
        assert_eq!(t.rows[1][1], "15");
        assert_eq!(t.rows[1][2], "yes");
        assert_eq!(t.rows[0][1], "15");
    }
}

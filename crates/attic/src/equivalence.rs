//! [`DavCore`] against the reference [`Model`]: random multi-client
//! request sequences over all 13 methods, compared answer by answer and
//! state by state — live over the in-memory backend, and through
//! [`DurableAttic`] with power cut at a random I/O step, where the
//! recovered store and lock table must equal the model at the last
//! acknowledged request.

use crate::durable::DurableAttic;
use crate::lock::LockToken;
use crate::ports::{AtticBackend, Origin, VolatileBackend};
use crate::reference::{self, Answer, Model, ModelVersion};
use crate::webdav::DavCore;
use hpop_core::auth::TokenVerifier;
use hpop_durability::DurabilityConfig;
use hpop_http::message::{Method, Request};
use hpop_http::url::Url;
use hpop_netsim::storage::SimDisk;
use hpop_netsim::time::SimTime;
use proptest::prelude::*;

const METHODS: [Method; 13] = [
    Method::Get,
    Method::Head,
    Method::Put,
    Method::Delete,
    Method::MkCol,
    Method::PropFind,
    Method::PropPatch,
    Method::Copy,
    Method::Move,
    Method::Lock,
    Method::Unlock,
    Method::Options,
    Method::Post,
];

/// Collections and files both land here; `/a/a/a` sits three deep, so
/// a Depth 1 listing of `/a` has grandchildren to leave out.
const PATHS: [&str; 9] = [
    "/", "/a", "/b", "/a/a", "/a/b", "/b/a", "/a/a/a", "/a/b/a", "/b/b",
];

/// A small body set, so identical re-PUTs are common.
fn body(i: u8) -> Vec<u8> {
    match i % 4 {
        0 => Vec::new(),
        1 => b"one".to_vec(),
        2 => b"two".to_vec(),
        _ => (0..200u8).collect(),
    }
}

/// One request, as indices the builder resolves against the model.
#[derive(Clone, Debug)]
struct Step {
    method: usize,
    path: usize,
    other: usize,
    client: usize,
    /// Body, version index, depth, timeout or scope, by method.
    pick: u8,
    /// Which precondition header, and what it names.
    cond: u8,
    /// Which lock token is presented, if any.
    token: u8,
    /// Seconds the clock moves before the request.
    dt: u64,
}

fn steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    // PUT, GET and LOCK are weighted up: they build the state the
    // other methods have something to act on.
    let method = (0..METHODS.len() + 6).prop_map(|m| match m {
        13..=15 => 2,
        16 | 17 => 0,
        18 => 9,
        m => m,
    });
    let at = (0..PATHS.len(), 0..PATHS.len(), 0..3usize);
    let step = (method, at, any::<u8>(), any::<u8>(), any::<u8>(), 0..8u64).prop_map(
        |(method, (path, other, client), pick, cond, token, dt)| Step {
            method,
            path,
            other,
            client,
            pick,
            cond,
            token,
            dt,
        },
    );
    proptest::collection::vec(step, 1..max)
}

/// The clients: each LOCKs under its own owner name and keeps the
/// tokens it was granted.
struct Clients {
    tokens: [Vec<String>; 3],
}

impl Clients {
    fn new() -> Clients {
        Clients {
            tokens: Default::default(),
        }
    }

    /// Its own newest token, another client's, a stale or a bogus one.
    fn token(&self, step: &Step) -> Option<String> {
        let own = &self.tokens[step.client];
        let other = &self.tokens[(step.client + 1) % 3];
        match step.token % 6 {
            0 | 1 => None,
            2 => own.last().cloned(),
            3 => other.last().cloned(),
            4 => own.first().cloned(),
            _ => Some("opaquelocktoken:00000000000000ff".to_owned()),
        }
    }

    fn note(&mut self, step: &Step, req: &Request, answer: &Answer) {
        if req.method == Method::Lock && req.headers.get("lock-token").is_none() {
            self.tokens[step.client].extend(answer.lock_token.clone());
        }
    }
}

fn build(step: &Step, model: &Model, clients: &Clients) -> Request {
    let method = METHODS[step.method];
    let path = PATHS[step.path];
    let mut req = Request::new(method, Url::https("attic.home", path));
    let current = model.current_etag(path).map(str::to_owned);
    let named = match (step.cond >> 3) % 5 {
        0 => Some("*".to_owned()),
        1 => current.clone(),
        2 => Some(reference::etag(&body(step.pick))),
        3 => current.map(|e| format!("\"bogus\", {e}")),
        _ => current.map(|e| format!("W/{e}")),
    };
    match (step.cond % 8, named) {
        (0, Some(tag)) => req = req.with_header("if-match", tag),
        (1, Some(tag)) => req = req.with_header("if-none-match", tag),
        _ => {}
    }
    if let Some(token) = clients.token(step) {
        req = req.with_header("lock-token", token);
    }
    match method {
        Method::Get | Method::Head => match step.pick % 5 {
            0 | 1 => {}
            4 => req = req.with_header("x-version", "x"),
            n => req = req.with_header("x-version", (n - 2).to_string()),
        },
        Method::Put => req.body = body(step.pick).into(),
        Method::MkCol if step.pick.is_multiple_of(8) => req.body = b"<x/>".to_vec().into(),
        Method::PropFind => {
            let depth = ["0", "1", "infinity", "2", ""][usize::from(step.pick % 5)];
            if !depth.is_empty() {
                req = req.with_header("depth", depth);
            }
            let props = ["getetag", "version-list", "nope"].map(str::to_owned);
            req.body = match step.pick / 5 % 3 {
                0 => Vec::new().into(),
                1 => crate::dav::PropfindBody::Props(props.to_vec())
                    .to_xml()
                    .into_bytes()
                    .into(),
                _ => crate::dav::PropfindBody::PropName
                    .to_xml()
                    .into_bytes()
                    .into(),
            };
        }
        Method::PropPatch => {
            req.body = b"<D:propertyupdate xmlns:D=\"DAV:\"><D:set><D:prop><D:color/></D:prop></D:set></D:propertyupdate>"
                .to_vec()
                .into();
        }
        Method::Copy | Method::Move => match step.pick % 8 {
            0 => {}
            1 => req = req.with_header("destination", "a/relative"),
            _ => req = req.with_header("destination", PATHS[step.other]),
        },
        Method::Lock => {
            if !step.pick.is_multiple_of(4) {
                req = req.with_header("timeout", format!("Second-{}", 1 + step.pick % 30));
            }
            if step.pick & 0x20 != 0 {
                req = req.with_header("x-lock-scope", "shared");
            }
            if step.pick & 0x40 != 0 {
                req = req.with_header("depth", "infinity");
            }
            req = req.with_header("x-lock-owner", format!("c{}", step.client));
        }
        _ => {}
    }
    req
}

/// The store as the model holds it: every file's versions and every
/// collection.
fn stored<B: AtticBackend>(backend: &B) -> (Vec<(String, Vec<ModelVersion>)>, Vec<String>) {
    let store = backend.store();
    let all = store.descendants("/").expect("the root is a collection");
    let files = all
        .iter()
        .filter(|(_, col)| !col)
        .map(|(p, _)| {
            let history = store.history(p).expect("listed as a file");
            let versions = history
                .iter()
                .map(|v| (v.etag.into(), v.body.to_vec(), v.modified_at))
                .collect();
            (p.clone(), versions)
        })
        .collect();
    let mut cols: Vec<String> = all
        .into_iter()
        .filter(|(_, col)| *col)
        .map(|(p, _)| p)
        .collect();
    cols.insert(0, "/".to_owned());
    (files, cols)
}

fn modelled(model: &Model) -> (Vec<(String, Vec<ModelVersion>)>, Vec<String>) {
    let files = model
        .files
        .iter()
        .map(|(p, v)| (p.clone(), v.clone()))
        .collect();
    (files, model.cols.iter().cloned().collect())
}

/// Every lock the model holds live at `now` is the backend's, with the
/// same owner and deadline.
fn locks_agree<B: AtticBackend>(
    backend: &B,
    model: &Model,
    now: SimTime,
) -> Result<(), TestCaseError> {
    for lock in model.locks.iter().filter(|l| l.expires > now) {
        let token =
            LockToken::parse(&format!("opaquelocktoken:{:016x}", lock.token)).expect("canonical");
        prop_assert_eq!(
            backend.find_lock(&lock.path, token, now),
            Some((lock.owner.clone(), lock.expires)),
            "lock {} on {}",
            lock.token,
            lock.path
        );
    }
    Ok(())
}

fn verifier() -> TokenVerifier {
    TokenVerifier::new([9u8; 32])
}

fn cfg() -> DurabilityConfig {
    DurabilityConfig {
        max_segment_bytes: 512,
        snapshot_every_ops: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every answer and, after every request, the whole store equal the
    /// model's.
    #[test]
    fn live_answers_match_the_model(steps in steps(48)) {
        let mut core = DavCore::new(VolatileBackend::new(), verifier());
        let (mut model, mut clients) = (Model::new(), Clients::new());
        let mut now = SimTime::ZERO;
        for (i, step) in steps.iter().enumerate() {
            now += hpop_netsim::time::SimDuration::from_secs(step.dt);
            let req = build(step, &model, &clients);
            let want = model.serve(&req, now);
            let got = Answer::of(&core.serve(&req, Origin::Local, now));
            prop_assert_eq!(&got, &want, "step {}: {:?} {}", i, req.method, req.url.path());
            clients.note(step, &req, &got);
            prop_assert_eq!(stored(core.backend()), modelled(&model), "after step {}", i);
            locks_agree(core.backend(), &model, now)?;
        }
    }

    /// The same sequences through the journaled attic with power cut at
    /// a random I/O step: after the restart the store and lock table
    /// equal the model at the last acknowledged request (or one past it,
    /// when the cut fell after that request's frame committed), and the
    /// rest of the sequence answers as the model does.
    #[test]
    fn a_crash_recovers_the_model_at_the_last_ack(steps in steps(40), crash_at in 0..400u64) {
        let attic = DurableAttic::open(SimDisk::new(17), "attic", cfg()).expect("fresh disk");
        let mut core = DavCore::new(attic, verifier());
        core.backend_mut().disk_mut().arm_crash(crash_at);
        let (mut model, mut clients) = (Model::new(), Clients::new());
        let mut now = SimTime::ZERO;
        let mut crashed = false;
        for (i, step) in steps.iter().enumerate() {
            now += hpop_netsim::time::SimDuration::from_secs(step.dt);
            let req = build(step, &model, &clients);
            let (before, seq) = (model.clone(), core.backend().committed_seq());
            let want = model.serve(&req, now);
            let resp = core.serve(&req, Origin::Local, now);
            if !crashed && resp.headers.get("x-fault").is_some() {
                crashed = true;
                let mut disk = core.backend().clone().into_disk();
                disk.restart();
                let attic = DurableAttic::open(disk, "attic", cfg()).expect("recovery never fails");
                match attic.committed_seq() - seq {
                    0 => model = before,
                    1 => {}
                    n => prop_assert!(false, "step {}: {} ops committed by one request", i, n),
                }
                core = DavCore::new(attic, verifier());
                prop_assert_eq!(stored(core.backend()), modelled(&model), "recovered at step {}", i);
                locks_agree(core.backend(), &model, now)?;
                continue;
            }
            let got = Answer::of(&resp);
            prop_assert_eq!(&got, &want, "step {}: {:?} {}", i, req.method, req.url.path());
            clients.note(step, &req, &got);
        }
        prop_assert_eq!(stored(core.backend()), modelled(&model));
        locks_agree(core.backend(), &model, now)?;
    }
}

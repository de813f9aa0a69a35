//! A reference model of the attic's WebDAV answers: a path → version
//! list map, a set of collections and a lock list, with no codec, no
//! journal and no shared code path with [`crate::store`] or
//! [`crate::lock`]. [`Model::serve`] answers a request the way
//! [`DavCore`](crate::DavCore) must, for local origins; the
//! equivalence proptests compare the two after every request, live and
//! across a crash — test builds only.

use crate::dav::PropfindBody;
use hpop_crypto::sha256::Sha256;
use hpop_http::message::{Method, Request, Response};
use hpop_netsim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// One stored version: ETag, bytes and write instant.
pub(crate) type ModelVersion = (String, Vec<u8>, SimTime);

/// One lock: path, token number, owner, exclusive, depth infinity,
/// expiry.
#[derive(Clone, Debug)]
pub(crate) struct ModelLock {
    pub path: String,
    pub token: u64,
    pub owner: String,
    exclusive: bool,
    infinity: bool,
    pub expires: SimTime,
}

/// What an answer is compared on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Answer {
    pub status: u16,
    pub body: Vec<u8>,
    pub etag: Option<String>,
    pub lock_token: Option<String>,
    pub holder: Option<String>,
    /// `(href, status)` of every propstat of a 207, in order.
    pub hrefs: Vec<(String, u16)>,
}

impl Answer {
    fn status(status: u16) -> Answer {
        Answer {
            status,
            ..Answer::default()
        }
    }

    /// The same fields read off a real response.
    pub fn of(resp: &Response) -> Answer {
        let header = |name: &str| resp.headers.get(name).map(str::to_owned);
        let mut answer = Answer {
            status: resp.status.0,
            body: resp.body.to_vec(),
            etag: header("etag"),
            lock_token: header("lock-token"),
            holder: header("x-lock-holder"),
            hrefs: Vec::new(),
        };
        if answer.status == 207 {
            let xml = std::str::from_utf8(&resp.body).expect("207 bodies are UTF-8");
            let doc = crate::dav::MultiStatus::parse(xml).expect("207 bodies parse");
            answer.body.clear();
            for r in doc.responses {
                answer
                    .hrefs
                    .extend(r.propstats.iter().map(|p| (r.href.clone(), p.status.0)));
            }
        }
        answer
    }
}

/// The quoted hex of the first 8 bytes of the body's SHA-256.
pub(crate) fn etag(body: &[u8]) -> String {
    let hex: String = Sha256::digest(body).as_bytes()[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    format!("\"{hex}\"")
}

fn parent(path: &str) -> Option<&str> {
    match path.rfind('/') {
        _ if path == "/" => None,
        Some(0) => Some("/"),
        Some(i) => Some(&path[..i]),
        None => None,
    }
}

fn well_formed(path: &str) -> bool {
    path.starts_with('/') && !path.contains("//") && (path == "/" || !path.ends_with('/'))
}

/// Whether `inner` lies strictly below collection `outer`.
fn inside(inner: &str, outer: &str) -> bool {
    inner.len() > outer.len()
        && inner.starts_with(outer)
        && (outer == "/" || inner[outer.len()..].starts_with('/'))
}

/// The attic as a plain data structure.
#[derive(Clone, Debug)]
pub(crate) struct Model {
    pub files: BTreeMap<String, Vec<ModelVersion>>,
    pub cols: BTreeSet<String>,
    pub locks: Vec<ModelLock>,
    next_token: u64,
}

impl Model {
    pub fn new() -> Model {
        Model {
            files: BTreeMap::new(),
            cols: BTreeSet::from(["/".to_owned()]),
            locks: Vec::new(),
            next_token: 0,
        }
    }

    pub fn current_etag(&self, path: &str) -> Option<&str> {
        self.files.get(path)?.last().map(|v| v.0.as_str())
    }

    /// Live locks covering `path`: its own first, then each ancestor's
    /// depth-infinity ones, nearest first; each path's in grant order.
    fn covering(&self, path: &str, now: SimTime) -> Vec<&ModelLock> {
        let mut at = Some(path);
        let mut out = Vec::new();
        while let Some(p) = at {
            out.extend(
                self.locks
                    .iter()
                    .filter(|l| l.path == p && l.expires > now && (p == path || l.infinity)),
            );
            at = parent(p);
        }
        out
    }

    fn write_denied(&self, path: &str, token: Option<u64>, now: SimTime) -> Option<Answer> {
        let exclusive: Vec<_> = self
            .covering(path, now)
            .into_iter()
            .filter(|l| l.exclusive)
            .collect();
        let first = exclusive.first()?;
        if token.is_some_and(|t| exclusive.iter().any(|l| l.token == t)) {
            return None;
        }
        Some(Answer {
            holder: Some(first.owner.clone()),
            ..Answer::status(423)
        })
    }

    fn precondition(req: &Request, etag: Option<&str>) -> Option<Answer> {
        // If-Match compares strongly, If-None-Match weakly: `W/"x"`
        // names `"x"` only in the second.
        let matches = |h: &str, weak: bool| {
            let named = |c: &str| c == etag.unwrap_or("") || (weak && c.strip_prefix("W/") == etag);
            etag.is_some() && (h.trim() == "*" || h.split(',').map(str::trim).any(named))
        };
        if req
            .headers
            .get("if-match")
            .is_some_and(|h| !matches(h, false))
        {
            return Some(Answer::status(412));
        }
        if req
            .headers
            .get("if-none-match")
            .is_some_and(|h| matches(h, true))
        {
            return Some(if matches!(req.method, Method::Get | Method::Head) {
                Answer {
                    etag: etag.map(str::to_owned),
                    ..Answer::status(304)
                }
            } else {
                Answer::status(412)
            });
        }
        None
    }

    /// Answers one local request at `now`.
    pub fn serve(&mut self, req: &Request, now: SimTime) -> Answer {
        let path = req.url.path().to_owned();
        let token = || {
            let h = req.headers.get("lock-token")?;
            u64::from_str_radix(h.strip_prefix("opaquelocktoken:")?, 16).ok()
        };
        match req.method {
            Method::Get | Method::Head => self.get(&path, req),
            Method::Put => {
                if let Some(denied) = self.write_denied(&path, token(), now) {
                    return denied;
                }
                if let Some(failed) = Self::precondition(req, self.current_etag(&path)) {
                    return failed;
                }
                let Some(up) = parent(&path).filter(|_| well_formed(&path)) else {
                    return Answer::status(400);
                };
                if !self.cols.contains(up) || self.cols.contains(&path) {
                    return Answer::status(409);
                }
                let tag = etag(&req.body);
                let versions = self.files.entry(path).or_default();
                versions.push((tag.clone(), req.body.to_vec(), now));
                let status = if versions.len() == 1 { 201 } else { 204 };
                Answer {
                    etag: Some(tag),
                    ..Answer::status(status)
                }
            }
            Method::Delete => {
                if let Some(denied) = self.write_denied(&path, token(), now) {
                    return denied;
                }
                if let Some(failed) = Self::precondition(req, self.current_etag(&path)) {
                    return failed;
                }
                if path == "/" {
                    return Answer::status(400);
                }
                if self.files.remove(&path).is_none() && !self.cols.remove(&path) {
                    return Answer::status(404);
                }
                self.files.retain(|p, _| !inside(p, &path));
                self.cols.retain(|p| !inside(p, &path));
                Answer::status(204)
            }
            Method::MkCol => {
                if !req.body.is_empty() {
                    Answer::status(415)
                } else if self.files.contains_key(&path) || self.cols.contains(&path) {
                    Answer::status(405)
                } else if !well_formed(&path) {
                    Answer::status(400)
                } else if parent(&path).is_some_and(|p| self.cols.contains(p)) {
                    self.cols.insert(path);
                    Answer::status(201)
                } else {
                    Answer::status(409)
                }
            }
            Method::PropFind => self.propfind(&path, req),
            Method::PropPatch => match self.exists(&path) {
                false => Answer::status(404),
                true => Answer {
                    hrefs: vec![(path, 403)],
                    ..Answer::status(207)
                },
            },
            Method::Copy | Method::Move => self.copy_move(&path, req, token(), now),
            Method::Lock => self.lock(&path, req, token(), now),
            Method::Unlock => match token() {
                None => Answer::status(400),
                Some(t) => {
                    let at = self
                        .locks
                        .iter()
                        .position(|l| l.path == path && l.token == t && l.expires > now);
                    match at {
                        Some(i) => {
                            self.locks.remove(i);
                            Answer::status(204)
                        }
                        None => Answer::status(409),
                    }
                }
            },
            Method::Options => Answer::status(200),
            Method::Post => Answer::status(405),
        }
    }

    fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path) || self.cols.contains(path)
    }

    fn get(&self, path: &str, req: &Request) -> Answer {
        let Some(versions) = self.files.get(path) else {
            let bad_index = req
                .headers
                .get("x-version")
                .is_some_and(|i| i.parse::<usize>().is_err());
            return Answer::status(if bad_index {
                400
            } else if self.cols.contains(path) {
                409
            } else {
                404
            });
        };
        let v = match req.headers.get("x-version") {
            None => versions.last().expect("a file has a version"),
            Some(i) => match i.parse::<usize>() {
                Err(_) => return Answer::status(400),
                Ok(i) => match versions.get(i) {
                    Some(v) => v,
                    None => return Answer::status(404),
                },
            },
        };
        if let Some(failed) = Self::precondition(req, Some(&v.0)) {
            return failed;
        }
        Answer {
            body: if req.method == Method::Head {
                Vec::new()
            } else {
                v.1.clone()
            },
            etag: Some(v.0.clone()),
            ..Answer::status(200)
        }
    }

    fn propfind(&self, path: &str, req: &Request) -> Answer {
        let depth = match req.headers.get("depth") {
            None | Some("infinity") => 2,
            Some("1") => 1,
            Some("0") => 0,
            Some(_) => return Answer::status(400),
        };
        let Some(body) = std::str::from_utf8(&req.body)
            .ok()
            .and_then(PropfindBody::parse)
        else {
            return Answer::status(400);
        };
        if !self.exists(path) {
            return Answer::status(404);
        }
        let mut listed = vec![path.to_owned()];
        if self.cols.contains(path) && depth > 0 {
            let below = self
                .files
                .keys()
                .chain(&self.cols)
                .filter(|p| inside(p, path));
            let mut below: Vec<String> = below
                .filter(|p| depth == 2 || parent(p) == Some(path))
                .cloned()
                .collect();
            below.sort();
            listed.extend(below);
        }
        let mut hrefs = Vec::new();
        for p in listed {
            let history = self.files.get(&p);
            let Some(names) = (match &body {
                PropfindBody::Props(names) => Some(names),
                _ => None,
            }) else {
                hrefs.push((p, 200));
                continue;
            };
            let asked: Vec<_> = names.iter().filter(|n| *n != "version-list").collect();
            let has = |n: &str| history.is_some() || matches!(n, "displayname" | "resourcetype");
            let known = |n: &&String| {
                has(n)
                    && [
                        "displayname",
                        "resourcetype",
                        "getetag",
                        "getcontentlength",
                        "getlastmodified",
                        "version-count",
                    ]
                    .contains(&n.as_str())
            };
            if asked.iter().any(known) {
                hrefs.push((p.clone(), 200));
            }
            if asked.iter().any(|n| !known(n)) {
                hrefs.push((p.clone(), 404));
            }
            if let Some(history) = history.filter(|_| names.iter().any(|n| n == "version-list")) {
                hrefs.extend((0..history.len()).map(|i| (format!("{p}?version={i}"), 200)));
            }
        }
        Answer {
            hrefs,
            ..Answer::status(207)
        }
    }

    fn copy_move(&mut self, src: &str, req: &Request, token: Option<u64>, now: SimTime) -> Answer {
        let Some(dst) = req.headers.get("destination") else {
            return Answer::status(400);
        };
        if let Some(denied) = self.write_denied(dst, token, now) {
            return denied;
        }
        if let Some(failed) = Self::precondition(req, self.current_etag(src)) {
            return failed;
        }
        if req.method == Method::Move {
            if let Some(denied) = self.write_denied(src, token, now) {
                return denied;
            }
        }
        if self.exists(dst) {
            return Answer::status(412);
        }
        let Some((tag, body, _)) = self.files.get(src).and_then(|v| v.last()).cloned() else {
            return Answer::status(if self.cols.contains(src) { 409 } else { 404 });
        };
        let Some(up) = parent(dst).filter(|_| well_formed(dst)) else {
            return Answer::status(400);
        };
        if !self.cols.contains(up) {
            return Answer::status(409);
        }
        self.files.insert(dst.to_owned(), vec![(tag, body, now)]);
        if req.method == Method::Move {
            self.files.remove(src);
        }
        Answer::status(201)
    }

    fn lock(&mut self, path: &str, req: &Request, token: Option<u64>, now: SimTime) -> Answer {
        let ttl = req
            .headers
            .get("timeout")
            .and_then(|t| t.strip_prefix("Second-")?.parse().ok())
            .map_or(SimDuration::from_secs(600), SimDuration::from_secs);
        if let Some(t) = token {
            let held = self
                .locks
                .iter_mut()
                .find(|l| l.path == path && l.token == t && l.expires > now);
            return match held {
                Some(l) => {
                    l.expires = now + ttl;
                    Answer {
                        lock_token: Some(format!("opaquelocktoken:{t:016x}")),
                        ..Answer::status(200)
                    }
                }
                None => Answer::status(412),
            };
        }
        let exclusive = req.headers.get("x-lock-scope") != Some("shared");
        let infinity = req.headers.get("depth") == Some("infinity");
        let clash = |l: &&ModelLock| exclusive || l.exclusive;
        let mut conflict = self.covering(path, now).into_iter().find(clash);
        if infinity && conflict.is_none() {
            let mut below: Vec<_> = self
                .locks
                .iter()
                .filter(|l| inside(&l.path, path) && l.expires > now)
                .collect();
            below.sort_by(|a, b| a.path.cmp(&b.path));
            conflict = below.into_iter().find(clash);
        }
        if let Some(c) = conflict {
            return Answer {
                holder: Some(c.owner.clone()),
                ..Answer::status(423)
            };
        }
        self.next_token += 1;
        self.locks.push(ModelLock {
            path: path.to_owned(),
            token: self.next_token,
            owner: req
                .headers
                .get("x-lock-owner")
                .unwrap_or("anonymous")
                .to_owned(),
            exclusive,
            infinity,
            expires: now + ttl,
        });
        Answer {
            lock_token: Some(format!("opaquelocktoken:{:016x}", self.next_token)),
            ..Answer::status(200)
        }
    }
}

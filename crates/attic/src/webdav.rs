//! The WebDAV protocol engine — the single implementation both
//! adapters drive.
//!
//! [`DavCore`] holds every piece of WebDAV semantics: verb dispatch,
//! capability-grant enforcement for external origins, lock mediation,
//! ETag preconditions, `Depth`-aware PROPFIND with 207 Multi-Status
//! property XML, version listing, and MKCOL collection rules. It is
//! generic over the [`AtticBackend`] driven port, so the same engine
//! runs over the in-memory store (netsim adapter) and over the
//! WAL-journaled [`DurableAttic`](crate::durable::DurableAttic) (the
//! `attic-daemon` appliance). The conformance suite requires responses
//! to be byte-identical through both — which is why every response is
//! a pure function of `(request, origin, now)` plus store state, with
//! no wall-clock or randomness anywhere in this module.

use crate::dav::{proppatch_prop_names, MultiStatusWriter, PropfindBody};
use crate::lock::{LockDepth, LockError, LockScope, LockToken};
use crate::ports::{AtticBackend, BackendFault, Origin, VolatileBackend};
use crate::store::{ObjectStore, StoreError, Version};
use hpop_core::auth::{CapabilityToken, TokenVerifier};
use hpop_core::events::{Event, EventBus};
use hpop_http::message::{Method, Request, Response, StatusCode};
use hpop_netsim::time::{SimDuration, SimTime};

/// Every verb the attic serves — advertised on `OPTIONS` and on every
/// `405 Method Not Allowed`.
pub const ALLOW_HEADER: &str =
    "OPTIONS, GET, HEAD, PUT, DELETE, MKCOL, PROPFIND, PROPPATCH, COPY, MOVE, LOCK, UNLOCK";

/// The compliance classes: 1 (core) and 2 (locking).
pub const DAV_HEADER: &str = "1, 2";

fn store_error_response(e: StoreError) -> Response {
    let status = match e {
        StoreError::NotFound => StatusCode::NOT_FOUND,
        StoreError::MissingParent | StoreError::Conflict => StatusCode::CONFLICT,
        StoreError::BadPath => StatusCode::BAD_REQUEST,
        StoreError::DestinationExists => StatusCode::PRECONDITION_FAILED,
    };
    Response::new(status)
}

fn fault_response(f: BackendFault) -> Response {
    Response::new(StatusCode::INTERNAL_SERVER_ERROR).with_header("x-fault", f.to_string())
}

fn locked_response(holder: String) -> Response {
    Response::new(StatusCode::LOCKED).with_header("x-lock-holder", holder)
}

fn parse_lock_token(header: Option<&str>) -> Option<LockToken> {
    header.and_then(LockToken::parse)
}

/// Whether an `If-Match`/`If-None-Match` value matches `etag`: `*`
/// matches any existing entity, otherwise a comma-separated list of
/// strong ETags is compared verbatim (RFC 9110 §13.1).
fn etag_list_matches(header: &str, etag: Option<&str>) -> bool {
    let Some(etag) = etag else { return false };
    if header.trim() == "*" {
        return true;
    }
    header.split(',').any(|candidate| candidate.trim() == etag)
}

/// Applies the write preconditions for `path` (current ETag `etag`, or
/// `None` if absent). Returns the failure response, if any.
fn check_preconditions(req: &Request, etag: Option<&str>) -> Option<Response> {
    if let Some(h) = req.headers.get("if-match") {
        if !etag_list_matches(h, etag) {
            return Some(Response::new(StatusCode::PRECONDITION_FAILED));
        }
    }
    if let Some(h) = req.headers.get("if-none-match") {
        if etag_list_matches(h, etag) {
            let failure = if req.method.is_safe() {
                // GET/HEAD: the cache-validation form.
                let mut r = Response::new(StatusCode::NOT_MODIFIED);
                if let Some(e) = etag {
                    r.headers.set("etag", e);
                }
                r
            } else {
                Response::new(StatusCode::PRECONDITION_FAILED)
            };
            return Some(failure);
        }
    }
    None
}

/// `PROPFIND` depth per RFC 4918 §9.1: the header is optional and
/// *defaults to infinity*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Depth {
    Zero,
    One,
    Infinity,
}

fn parse_depth(req: &Request) -> Option<Depth> {
    match req.headers.get("depth") {
        None => Some(Depth::Infinity),
        Some("0") => Some(Depth::Zero),
        Some("1") => Some(Depth::One),
        Some("infinity") => Some(Depth::Infinity),
        Some(_) => None,
    }
}

/// Room reserved per `<D:response>` in a 207 body: an allprop answer
/// for a file is ≈390 bytes.
const RESPONSE_BYTES: usize = 448;

/// The live properties, in the order `allprop` and `propname` list them.
const LIVE_PROPS: [&str; 6] = [
    "displayname",
    "resourcetype",
    "getetag",
    "getcontentlength",
    "getlastmodified",
    "version-count",
];

/// A live property's value, borrowed from the store.
#[derive(Clone, Copy)]
enum Live<'a> {
    Text(&'a str),
    Number(u64),
    Collection,
    Empty,
}

impl Live<'_> {
    fn write(self, w: &mut MultiStatusWriter, name: &str) {
        match self {
            Live::Text(t) => w.text(name, t),
            Live::Number(n) => w.number(name, n),
            Live::Collection => w.collection(name),
            Live::Empty => w.empty(name),
        }
    }
}

/// Property `name` of the resource at `path`, `None` when it has no such
/// live property. `history` is a file's versions, oldest first (empty
/// for a collection): a file has the version properties of its latest.
fn live_prop<'a>(
    name: &str,
    path: &'a str,
    is_col: bool,
    history: &'a [Version],
) -> Option<Live<'a>> {
    let current = history.last();
    Some(match (name, current) {
        ("displayname", _) => Live::Text(path.rsplit('/').next().unwrap_or("")),
        ("resourcetype", _) if is_col => Live::Collection,
        ("resourcetype", _) => Live::Empty,
        ("getetag", Some(v)) => Live::Text(&v.etag),
        ("getcontentlength", Some(v)) => Live::Number(v.body.len() as u64),
        ("getlastmodified", Some(v)) => Live::Number(v.modified_at.as_nanos()),
        ("version-count", Some(_)) => Live::Number(history.len() as u64),
        _ => return None,
    })
}

/// Writes one resource's `<D:response>` straight from the store — plus,
/// when `version-list` is asked of a file, one response per stored
/// version, addressed as `path?version=N`. A prop list answers the
/// properties the resource has under `200` and the rest under `404`,
/// each group in request order and only when non-empty.
fn write_propfind_response(
    w: &mut MultiStatusWriter,
    store: &ObjectStore,
    path: &str,
    is_col: bool,
    body: &PropfindBody,
) {
    let history = if is_col {
        &[][..]
    } else {
        store.history(path).unwrap_or(&[])
    };
    let prop = |name: &str| live_prop(name, path, is_col, history);
    w.open_response(path, None);
    let mut want_versions = false;
    match body {
        PropfindBody::AllProp | PropfindBody::PropName => {
            let names_only = *body == PropfindBody::PropName;
            w.open_propstat();
            for name in LIVE_PROPS {
                match prop(name) {
                    Some(_) if names_only => w.empty(name),
                    Some(value) => value.write(w, name),
                    None => {}
                }
            }
            w.close_propstat(StatusCode::OK);
        }
        PropfindBody::Props(names) => {
            want_versions = !is_col && names.iter().any(|n| n == "version-list");
            let asked = || names.iter().filter(|n| *n != "version-list");
            for (status, found) in [(StatusCode::OK, true), (StatusCode::NOT_FOUND, false)] {
                let mut open = false;
                for name in asked().filter(|n| prop(n).is_some() == found) {
                    if !open {
                        w.open_propstat();
                        open = true;
                    }
                    match prop(name) {
                        Some(value) => value.write(w, name),
                        None => w.empty(name),
                    }
                }
                if open {
                    w.close_propstat(status);
                }
            }
        }
    }
    w.close_response();
    if want_versions {
        for (i, v) in history.iter().enumerate() {
            w.open_response(path, Some(i));
            w.open_propstat();
            w.text("getetag", &v.etag);
            w.number("getcontentlength", v.body.len() as u64);
            w.number("getlastmodified", v.modified_at.as_nanos());
            w.close_propstat(StatusCode::OK);
            w.close_response();
        }
    }
}

/// The WebDAV protocol engine over an [`AtticBackend`] — unless named
/// otherwise the in-memory one, the attic the simulator drives.
///
/// ```
/// use hpop_attic::{DavCore, Origin, VolatileBackend};
/// use hpop_core::auth::TokenVerifier;
/// use hpop_http::message::Request;
/// use hpop_http::url::Url;
/// use hpop_netsim::time::SimTime;
///
/// let mut attic = DavCore::new(VolatileBackend::new(), TokenVerifier::new([7u8; 32]));
/// let put = Request::put(Url::https("attic.home", "/note.txt"), &b"hi"[..]);
/// let resp = attic.serve(&put, Origin::Local, SimTime::ZERO);
/// assert!(resp.status.is_success());
/// ```
pub struct DavCore<B: AtticBackend = VolatileBackend> {
    backend: B,
    verifier: TokenVerifier,
    bus: Option<EventBus>,
}

impl<B: AtticBackend> std::fmt::Debug for DavCore<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DavCore")
            .field("files", &self.backend.store().files_under("/").len())
            .finish()
    }
}

impl<B: AtticBackend> DavCore<B> {
    /// An engine over `backend`, enforcing grants with `verifier`.
    pub fn new(backend: B, verifier: TokenVerifier) -> DavCore<B> {
        DavCore {
            backend,
            verifier,
            bus: None,
        }
    }

    /// Attaches the appliance event bus; writes publish `attic.write`.
    pub fn with_bus(mut self, bus: EventBus) -> DavCore<B> {
        self.bus = Some(bus);
        self
    }

    /// The backend, for adapters that need direct (trusted) access.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access (trusted local tooling).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Serves one request. External origins must present
    /// `Authorization: Capability <wire>` with a valid, unexpired token
    /// whose scope covers the path and whose permission matches the
    /// method; local origins are trusted (the paper's threat model puts
    /// the boundary at the home's edge).
    pub fn serve(&mut self, req: &Request, origin: Origin, now: SimTime) -> Response {
        if origin == Origin::External {
            if let Some(denied) = self.check_grant(req, now) {
                return denied;
            }
        }
        self.dispatch(req, now)
    }

    fn check_grant(&self, req: &Request, now: SimTime) -> Option<Response> {
        let Some(auth) = req.headers.get("authorization") else {
            return Some(Response::new(StatusCode::UNAUTHORIZED));
        };
        let Some(wire) = auth.strip_prefix("Capability ") else {
            return Some(Response::new(StatusCode::UNAUTHORIZED));
        };
        let Some(token) = CapabilityToken::decode(wire) else {
            return Some(Response::new(StatusCode::UNAUTHORIZED));
        };
        if !self.verifier.verify(&token, now) {
            return Some(Response::new(StatusCode::UNAUTHORIZED));
        }
        let path = req.url.path();
        if !token.covers(path) {
            return Some(Response::new(StatusCode::FORBIDDEN));
        }
        let needs_write = !req.method.is_safe();
        let allowed = if needs_write {
            token.permission.allows_write()
        } else {
            token.permission.allows_read()
        };
        if !allowed {
            return Some(Response::new(StatusCode::FORBIDDEN));
        }
        None
    }

    fn dispatch(&mut self, req: &Request, now: SimTime) -> Response {
        let path = req.url.path().to_owned();
        match req.method {
            Method::Get | Method::Head => self.get(&path, req),
            Method::Put => self.put(&path, req, now),
            Method::Delete => self.delete(&path, req, now),
            Method::MkCol => self.mkcol(&path, req),
            Method::PropFind => self.propfind(&path, req),
            Method::PropPatch => self.proppatch(&path, req),
            Method::Copy | Method::Move => self.copy_move(&path, req, now),
            Method::Lock => self.lock(&path, req, now),
            Method::Unlock => self.unlock(&path, req, now),
            Method::Options => Response::new(StatusCode::OK)
                .with_header("dav", DAV_HEADER)
                .with_header("allow", ALLOW_HEADER),
            Method::Post => {
                Response::new(StatusCode::METHOD_NOT_ALLOWED).with_header("allow", ALLOW_HEADER)
            }
        }
    }

    fn get(&mut self, path: &str, req: &Request) -> Response {
        // Version addressing: `x-version: N` serves the Nth version
        // (0-based, oldest first) instead of the current one.
        let version: Option<&Version> = match req.headers.get("x-version") {
            Some(idx) => {
                let Ok(i) = idx.parse::<usize>() else {
                    return Response::new(StatusCode::BAD_REQUEST);
                };
                match self.backend.store().history(path) {
                    Ok(history) => match history.get(i) {
                        Some(v) => Some(v),
                        None => return Response::not_found(),
                    },
                    Err(e) => return store_error_response(e),
                }
            }
            None => match self.backend.store().get(path) {
                Ok(v) => Some(v),
                Err(e) => return store_error_response(e),
            },
        };
        let v = version.expect("both arms return a version or bail");
        if let Some(failure) = check_preconditions(req, Some(&v.etag)) {
            return failure;
        }
        let mut resp = Response::ok(v.body.clone()).with_header("etag", v.etag.clone());
        if req.method == Method::Head {
            // HEAD keeps the entity headers (incl. Content-Length) but
            // sends no body.
            resp.body = bytes::Bytes::new();
        }
        resp
    }

    fn put(&mut self, path: &str, req: &Request, now: SimTime) -> Response {
        let token = parse_lock_token(req.headers.get("lock-token"));
        if let Err(LockError::Locked { holder }) = self.backend.check_write(path, token, now) {
            return locked_response(holder);
        }
        let current_etag = self.backend.store().get(path).ok().map(|v| v.etag.clone());
        if let Some(failure) = check_preconditions(req, current_etag.as_deref()) {
            return failure;
        }
        let created = !self.backend.store().exists(path);
        match self.backend.put(path, &req.body, now) {
            Ok(Ok(etag)) => {
                if let Some(bus) = &self.bus {
                    bus.publish(Event::new("attic.write", path.to_owned()));
                }
                let status = if created {
                    StatusCode::CREATED
                } else {
                    StatusCode::NO_CONTENT
                };
                Response::new(status).with_header("etag", etag)
            }
            Ok(Err(e)) => store_error_response(e),
            Err(f) => fault_response(f),
        }
    }

    fn delete(&mut self, path: &str, req: &Request, now: SimTime) -> Response {
        let token = parse_lock_token(req.headers.get("lock-token"));
        if let Err(LockError::Locked { holder }) = self.backend.check_write(path, token, now) {
            return locked_response(holder);
        }
        let current_etag = self.backend.store().get(path).ok().map(|v| v.etag.clone());
        if let Some(failure) = check_preconditions(req, current_etag.as_deref()) {
            return failure;
        }
        match self.backend.delete(path) {
            Ok(Ok(_)) => Response::new(StatusCode::NO_CONTENT),
            Ok(Err(e)) => store_error_response(e),
            Err(f) => fault_response(f),
        }
    }

    fn mkcol(&mut self, path: &str, req: &Request) -> Response {
        // RFC 4918 §9.3: a request body we don't understand is 415, an
        // existing resource is 405 (with Allow), a missing parent 409.
        if !req.body.is_empty() {
            return Response::new(StatusCode::UNSUPPORTED_MEDIA_TYPE);
        }
        if self.backend.store().exists(path) {
            return Response::new(StatusCode::METHOD_NOT_ALLOWED)
                .with_header("allow", ALLOW_HEADER);
        }
        match self.backend.mkcol(path) {
            Ok(Ok(())) => Response::new(StatusCode::CREATED),
            Ok(Err(e)) => store_error_response(e),
            Err(f) => fault_response(f),
        }
    }

    fn propfind(&mut self, path: &str, req: &Request) -> Response {
        let Some(depth) = parse_depth(req) else {
            return Response::new(StatusCode::BAD_REQUEST);
        };
        let Some(body) = std::str::from_utf8(&req.body)
            .ok()
            .and_then(PropfindBody::parse)
        else {
            return Response::new(StatusCode::BAD_REQUEST);
        };
        if !self.backend.store().exists(path) {
            return Response::not_found();
        }
        let store = self.backend.store();
        let is_col = store.is_collection(path);
        let below = match depth {
            _ if !is_col => Vec::new(),
            Depth::Zero => Vec::new(),
            Depth::One => match store.list(path) {
                Ok(children) => children,
                Err(e) => return store_error_response(e),
            },
            Depth::Infinity => match store.descendants(path) {
                Ok(all) => all,
                Err(e) => return store_error_response(e),
            },
        };
        let mut w = MultiStatusWriter::with_capacity(RESPONSE_BYTES * (1 + below.len()));
        write_propfind_response(&mut w, store, path, is_col, &body);
        for (rpath, is_col) in &below {
            write_propfind_response(&mut w, store, rpath, *is_col, &body);
        }
        Response::new(StatusCode::MULTI_STATUS)
            .with_header("content-type", "application/xml; charset=utf-8")
            .with_body(w.finish())
    }

    fn proppatch(&mut self, path: &str, req: &Request) -> Response {
        // The attic exposes live properties only: every mutation is
        // answered 403 in a Multi-Status, per RFC 4918 §9.2 — the stub
        // keeps clients that insist on PROPPATCH working.
        if !self.backend.store().exists(path) {
            return Response::not_found();
        }
        let Some(names) = std::str::from_utf8(&req.body)
            .ok()
            .and_then(proppatch_prop_names)
        else {
            return Response::new(StatusCode::BAD_REQUEST);
        };
        let mut w = MultiStatusWriter::with_capacity(RESPONSE_BYTES);
        w.open_response(path, None);
        w.open_propstat();
        for name in &names {
            w.empty(name);
        }
        w.close_propstat(StatusCode::FORBIDDEN);
        w.close_response();
        Response::new(StatusCode::MULTI_STATUS)
            .with_header("content-type", "application/xml; charset=utf-8")
            .with_body(w.finish())
    }

    fn copy_move(&mut self, path: &str, req: &Request, now: SimTime) -> Response {
        let Some(dst) = req.headers.get("destination").map(str::to_owned) else {
            return Response::new(StatusCode::BAD_REQUEST);
        };
        let token = parse_lock_token(req.headers.get("lock-token"));
        if let Err(LockError::Locked { holder }) = self.backend.check_write(&dst, token, now) {
            return locked_response(holder);
        }
        let src_etag = self.backend.store().get(path).ok().map(|v| v.etag.clone());
        if let Some(failure) = check_preconditions(req, src_etag.as_deref()) {
            return failure;
        }
        let result = if req.method == Method::Copy {
            self.backend.copy(path, &dst, now)
        } else {
            if let Err(LockError::Locked { holder }) = self.backend.check_write(path, token, now) {
                return locked_response(holder);
            }
            self.backend.rename(path, &dst, now)
        };
        match result {
            Ok(Ok(())) => Response::new(StatusCode::CREATED),
            Ok(Err(e)) => store_error_response(e),
            Err(f) => fault_response(f),
        }
    }

    fn lock(&mut self, path: &str, req: &Request, now: SimTime) -> Response {
        let ttl = req
            .headers
            .get("timeout")
            .and_then(|t| t.strip_prefix("Second-"))
            .and_then(|s| s.parse().ok())
            .map(SimDuration::from_secs)
            .unwrap_or(SimDuration::from_secs(600));
        // A LOCK carrying a token is a refresh (RFC 4918 §9.10.2).
        if let Some(token) = parse_lock_token(req.headers.get("lock-token")) {
            return match self.backend.refresh(path, token, ttl, now) {
                Ok(Ok(())) => {
                    Response::new(StatusCode::OK).with_header("lock-token", token.to_string())
                }
                Ok(Err(_)) => Response::new(StatusCode::PRECONDITION_FAILED),
                Err(f) => fault_response(f),
            };
        }
        let owner = req.headers.get("x-lock-owner").unwrap_or("anonymous");
        let scope = match req.headers.get("x-lock-scope") {
            Some("shared") => LockScope::Shared,
            _ => LockScope::Exclusive,
        };
        let depth = match req.headers.get("depth") {
            Some("infinity") => LockDepth::Infinity,
            _ => LockDepth::Zero,
        };
        match self.backend.lock(path, owner, scope, depth, ttl, now) {
            Ok(Ok(token)) => {
                Response::new(StatusCode::OK).with_header("lock-token", token.to_string())
            }
            Ok(Err(LockError::Locked { holder })) => locked_response(holder),
            Ok(Err(LockError::BadToken)) => Response::new(StatusCode::BAD_REQUEST),
            Err(f) => fault_response(f),
        }
    }

    fn unlock(&mut self, path: &str, req: &Request, now: SimTime) -> Response {
        match parse_lock_token(req.headers.get("lock-token")) {
            Some(token) => match self.backend.unlock(path, token, now) {
                Ok(Ok(())) => Response::new(StatusCode::NO_CONTENT),
                Ok(Err(_)) => Response::new(StatusCode::CONFLICT),
                Err(f) => fault_response(f),
            },
            None => Response::new(StatusCode::BAD_REQUEST),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dav::{MultiStatus, PropValue};
    use hpop_core::auth::Permission;
    use hpop_http::url::Url;

    fn core() -> DavCore {
        DavCore::new(VolatileBackend::new(), TokenVerifier::new([7u8; 32]))
    }

    fn url(p: &str) -> Url {
        Url::https("attic.home", p)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn serve(c: &mut DavCore, req: &Request, at: u64) -> Response {
        c.serve(req, Origin::Local, t(at))
    }

    #[test]
    fn propfind_depths_walk_the_tree() {
        let mut c = core();
        serve(&mut c, &Request::new(Method::MkCol, url("/d")), 0);
        serve(&mut c, &Request::new(Method::MkCol, url("/d/sub")), 0);
        serve(&mut c, &Request::put(url("/d/a"), &b"1"[..]), 0);
        serve(&mut c, &Request::put(url("/d/sub/deep"), &b"2"[..]), 0);

        let hrefs = |resp: Response| -> Vec<String> {
            assert_eq!(resp.status, StatusCode::MULTI_STATUS);
            let xml = String::from_utf8(resp.body.to_vec()).unwrap();
            MultiStatus::parse(&xml)
                .expect("valid 207 body")
                .responses
                .into_iter()
                .map(|r| r.href)
                .collect()
        };

        let zero = Request::new(Method::PropFind, url("/d")).with_header("depth", "0");
        assert_eq!(hrefs(serve(&mut c, &zero, 1)), vec!["/d"]);

        let one = Request::new(Method::PropFind, url("/d")).with_header("depth", "1");
        assert_eq!(hrefs(serve(&mut c, &one, 1)), vec!["/d", "/d/a", "/d/sub"]);

        // No Depth header means infinity per the RFC.
        let inf = Request::new(Method::PropFind, url("/d"));
        assert_eq!(
            hrefs(serve(&mut c, &inf, 1)),
            vec!["/d", "/d/a", "/d/sub", "/d/sub/deep"]
        );

        let bad = Request::new(Method::PropFind, url("/d")).with_header("depth", "7");
        assert_eq!(serve(&mut c, &bad, 1).status, StatusCode::BAD_REQUEST);
    }

    #[test]
    fn propfind_props_partition_into_200_and_404() {
        let mut c = core();
        serve(&mut c, &Request::put(url("/f"), &b"body"[..]), 3);
        let body = PropfindBody::Props(vec![
            "getetag".into(),
            "getcontentlength".into(),
            "quota-used".into(),
        ])
        .to_xml();
        let req = Request::new(Method::PropFind, url("/f")).with_header("depth", "0");
        let mut req = req;
        req.body = body.into();
        let resp = serve(&mut c, &req, 4);
        let ms = MultiStatus::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(ms.responses.len(), 1);
        let ps = &ms.responses[0].propstats;
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].status, StatusCode::OK);
        assert_eq!(ps[0].props.len(), 2);
        assert_eq!(
            ps[0].props[1],
            ("getcontentlength".to_owned(), PropValue::Text("4".into()))
        );
        assert_eq!(ps[1].status, StatusCode::NOT_FOUND);
        assert_eq!(ps[1].props, vec![("quota-used".into(), PropValue::Empty)]);
    }

    /// Every byte PROPFIND answers with, pinned: captured from the
    /// encoder that built a `MultiStatus` per request before the
    /// streaming writer replaced it. Depth 0 / 1 / infinity × allprop,
    /// propname, a prop list with an unknown name, and `version-list`,
    /// from the root (whose displayname is empty) and on a file, with
    /// `&`, `'`, `<`, `>` and `"` in the paths.
    #[test]
    fn propfind_xml_frozen() {
        let mut c = core();
        serve(&mut c, &Request::new(Method::MkCol, url("/a&b")), 0);
        serve(&mut c, &Request::new(Method::MkCol, url("/a&b/it's")), 0);
        serve(&mut c, &Request::put(url("/a&b/x<y"), &b"one"[..]), 1);
        serve(&mut c, &Request::put(url("/a&b/x<y"), &b"two!"[..]), 2);
        serve(&mut c, &Request::put(url("/a&b/it's/\"q\">"), &b""[..]), 3);
        let forms = [
            ("allprop", String::new()),
            ("propname", PropfindBody::PropName.to_xml()),
            (
                "props",
                PropfindBody::Props(vec![
                    "getetag".into(),
                    "resourcetype".into(),
                    "no-such-prop".into(),
                    "displayname".into(),
                ])
                .to_xml(),
            ),
            (
                "versions",
                PropfindBody::Props(vec!["getcontentlength".into(), "version-list".into()])
                    .to_xml(),
            ),
        ];
        let mut got = String::new();
        for path in ["/", "/a&b/x<y"] {
            for depth in ["0", "1", "infinity"] {
                for (form, body) in &forms {
                    let mut pf =
                        Request::new(Method::PropFind, url(path)).with_header("depth", depth);
                    pf.body = body.clone().into();
                    let resp = serve(&mut c, &pf, 4);
                    assert_eq!(resp.status, StatusCode::MULTI_STATUS);
                    let hex = hpop_crypto::sha256::Sha256::digest(&resp.body).to_hex();
                    got.push_str(&format!(
                        "{path} {depth} {form} {} {}\n",
                        resp.body.len(),
                        &hex[..16]
                    ));
                }
            }
        }
        // path, depth, form, body length, SHA-256 prefix of the body.
        let frozen = "\
/ 0 allprop 297 b86e71000101369f
/ 0 propname 251 40a30f67ae45f52c
/ 0 props 418 fa0caff3a11edd4b
/ 0 versions 245 116b7650d3a7ca6b
/ 1 allprop 521 fe6fe5ddcc28ca78
/ 1 propname 422 7949eb1f77f20455
/ 1 props 763 4487685e771dfd53
/ 1 versions 410 c78c9ff9a5b7f17a
/ infinity allprop 1551 87c39d6fcf818534
/ infinity propname 1130 2044925ad0046d76
/ infinity props 1870 9e6a544eb2ecfeb6
/ infinity versions 1893 180c6d810d8d8c1e
/a&b/x<y 0 allprop 468 f4b4123321a07ff0
/a&b/x<y 0 propname 340 21259080cbb6cbef
/a&b/x<y 0 props 446 293539ad19af7612
/a&b/x<y 0 versions 869 506a80c75713c109
/a&b/x<y 1 allprop 468 f4b4123321a07ff0
/a&b/x<y 1 propname 340 21259080cbb6cbef
/a&b/x<y 1 props 446 293539ad19af7612
/a&b/x<y 1 versions 869 506a80c75713c109
/a&b/x<y infinity allprop 468 f4b4123321a07ff0
/a&b/x<y infinity propname 340 21259080cbb6cbef
/a&b/x<y infinity props 446 293539ad19af7612
/a&b/x<y infinity versions 869 506a80c75713c109
";
        assert_eq!(got, frozen);
    }

    #[test]
    fn version_listing_and_get_by_version() {
        let mut c = core();
        let r1 = serve(&mut c, &Request::put(url("/f"), &b"one"[..]), 1);
        serve(&mut c, &Request::put(url("/f"), &b"two"[..]), 2);
        let etag1 = r1.headers.get("etag").unwrap().to_owned();

        let mut pf = Request::new(Method::PropFind, url("/f")).with_header("depth", "0");
        pf.body = PropfindBody::Props(vec!["getetag".into(), "version-list".into()])
            .to_xml()
            .into();
        let resp = serve(&mut c, &pf, 3);
        let ms = MultiStatus::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let hrefs: Vec<&str> = ms.responses.iter().map(|r| r.href.as_str()).collect();
        assert_eq!(hrefs, vec!["/f", "/f?version=0", "/f?version=1"]);

        // Fetch the superseded version by index; its ETag matches v1's.
        let old = Request::get(url("/f")).with_header("x-version", "0");
        let got = serve(&mut c, &old, 4);
        assert_eq!(got.status, StatusCode::OK);
        assert_eq!(&got.body[..], b"one");
        assert_eq!(got.headers.get("etag"), Some(etag1.as_str()));
        let gone = Request::get(url("/f")).with_header("x-version", "9");
        assert_eq!(serve(&mut c, &gone, 4).status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn mkcol_semantics() {
        let mut c = core();
        assert_eq!(
            serve(&mut c, &Request::new(Method::MkCol, url("/d")), 0).status,
            StatusCode::CREATED
        );
        // Existing resource: 405 with the Allow header.
        let again = serve(&mut c, &Request::new(Method::MkCol, url("/d")), 1);
        assert_eq!(again.status, StatusCode::METHOD_NOT_ALLOWED);
        assert_eq!(again.headers.get("allow"), Some(ALLOW_HEADER));
        // Missing parent: 409.
        assert_eq!(
            serve(&mut c, &Request::new(Method::MkCol, url("/nope/x")), 1).status,
            StatusCode::CONFLICT
        );
        // A body we don't understand: 415.
        let mut bodied = Request::new(Method::MkCol, url("/e"));
        bodied.body = b"<x/>".to_vec().into();
        assert_eq!(
            serve(&mut c, &bodied, 1).status,
            StatusCode::UNSUPPORTED_MEDIA_TYPE
        );
    }

    #[test]
    fn etag_preconditions_cover_star_and_lists() {
        let mut c = core();
        let r = serve(&mut c, &Request::put(url("/f"), &b"v1"[..]), 0);
        let etag = r.headers.get("etag").unwrap().to_owned();

        // If-None-Match: * on PUT means "only create" — exists, so 412.
        let create_only = Request::put(url("/f"), &b"v2"[..]).with_header("if-none-match", "*");
        assert_eq!(
            serve(&mut c, &create_only, 1).status,
            StatusCode::PRECONDITION_FAILED
        );
        // …but creates fresh paths fine.
        let fresh = Request::put(url("/g"), &b"x"[..]).with_header("if-none-match", "*");
        assert_eq!(serve(&mut c, &fresh, 1).status, StatusCode::CREATED);

        // If-Match with a list containing the current etag passes.
        let listed = Request::put(url("/f"), &b"v2"[..])
            .with_header("if-match", format!("\"bogus\", {etag}"));
        assert_eq!(serve(&mut c, &listed, 2).status, StatusCode::NO_CONTENT);

        // DELETE with a stale If-Match bounces.
        let stale_delete =
            Request::new(Method::Delete, url("/f")).with_header("if-match", etag.clone());
        assert_eq!(
            serve(&mut c, &stale_delete, 3).status,
            StatusCode::PRECONDITION_FAILED
        );

        // If-Match: * against a missing resource fails.
        let missing = Request::put(url("/missing/f"), &b"x"[..]).with_header("if-match", "*");
        assert_eq!(
            serve(&mut c, &missing, 3).status,
            StatusCode::PRECONDITION_FAILED
        );
    }

    #[test]
    fn proppatch_refuses_politely() {
        let mut c = core();
        serve(&mut c, &Request::put(url("/f"), &b"x"[..]), 0);
        let mut pp = Request::new(Method::PropPatch, url("/f"));
        pp.body = b"<D:propertyupdate xmlns:D=\"DAV:\"><D:set><D:prop><D:color/></D:prop></D:set></D:propertyupdate>"
            .to_vec()
            .into();
        let resp = serve(&mut c, &pp, 1);
        assert_eq!(resp.status, StatusCode::MULTI_STATUS);
        let ms = MultiStatus::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(ms.responses[0].propstats[0].status, StatusCode::FORBIDDEN);
        assert_eq!(
            ms.responses[0].propstats[0].props,
            vec![("color".into(), PropValue::Empty)]
        );
    }

    #[test]
    fn lock_refresh_via_token_header() {
        let mut c = core();
        serve(&mut c, &Request::put(url("/f"), &b"x"[..]), 0);
        let lock = Request::new(Method::Lock, url("/f"))
            .with_header("x-lock-owner", "app")
            .with_header("timeout", "Second-60");
        let token = serve(&mut c, &lock, 0)
            .headers
            .get("lock-token")
            .unwrap()
            .to_owned();
        // Refresh at t=50 extends past the original expiry…
        let refresh = Request::new(Method::Lock, url("/f"))
            .with_header("lock-token", token.clone())
            .with_header("timeout", "Second-60");
        assert_eq!(serve(&mut c, &refresh, 50).status, StatusCode::OK);
        let blocked = serve(&mut c, &Request::put(url("/f"), &b"y"[..]), 100);
        assert_eq!(blocked.status, StatusCode::LOCKED);
        // …and refreshing an unknown token is a 412.
        let bogus = Request::new(Method::Lock, url("/f"))
            .with_header("lock-token", "opaquelocktoken:00000000000000ff");
        assert_eq!(
            serve(&mut c, &bogus, 50).status,
            StatusCode::PRECONDITION_FAILED
        );
    }

    #[test]
    fn options_and_405_advertise_the_full_surface() {
        let mut c = core();
        let r = serve(&mut c, &Request::new(Method::Options, url("/")), 0);
        assert_eq!(r.headers.get("dav"), Some(DAV_HEADER));
        assert_eq!(r.headers.get("allow"), Some(ALLOW_HEADER));
        for verb in [
            "OPTIONS",
            "GET",
            "HEAD",
            "PUT",
            "DELETE",
            "MKCOL",
            "PROPFIND",
            "PROPPATCH",
            "COPY",
            "MOVE",
            "LOCK",
            "UNLOCK",
        ] {
            assert!(ALLOW_HEADER.contains(verb), "{verb} advertised");
        }
        let post = serve(&mut c, &Request::new(Method::Post, url("/")), 0);
        assert_eq!(post.status, StatusCode::METHOD_NOT_ALLOWED);
        assert_eq!(post.headers.get("allow"), Some(ALLOW_HEADER));
    }

    #[test]
    fn put_get_cycle_local() {
        let mut s = core();
        let put = Request::put(url("/note.txt"), &b"hello attic"[..]);
        let r = serve(&mut s, &put, 0);
        assert_eq!(r.status, StatusCode::CREATED);
        let etag = r.headers.get("etag").unwrap().to_owned();
        let get = serve(&mut s, &Request::get(url("/note.txt")), 1);
        assert_eq!(get.status, StatusCode::OK);
        assert_eq!(&get.body[..], b"hello attic");
        // Conditional GET returns 304.
        let cond = Request::get(url("/note.txt")).with_header("if-none-match", etag);
        assert_eq!(serve(&mut s, &cond, 2).status, StatusCode::NOT_MODIFIED);
        // Re-PUT is 204.
        assert_eq!(serve(&mut s, &put, 3).status, StatusCode::NO_CONTENT);
    }

    #[test]
    fn external_requires_valid_grant() {
        let verifier = TokenVerifier::new([7u8; 32]);
        let mut s = DavCore::new(VolatileBackend::new(), verifier.clone());
        s.backend_mut()
            .store
            .mkcol_recursive("/health/clinic")
            .unwrap();
        let token = verifier.issue(
            "clinic",
            "/health/clinic",
            Permission::ReadWrite,
            t(1_000_000),
        );
        let auth = format!("Capability {}", token.encode());

        // No auth header → 401.
        let bare = Request::put(url("/health/clinic/r1.json"), &b"{}"[..]);
        assert_eq!(
            s.serve(&bare, Origin::External, t(0)).status,
            StatusCode::UNAUTHORIZED
        );

        // Valid grant → 201.
        let ok = bare.clone().with_header("authorization", auth.clone());
        assert_eq!(
            s.serve(&ok, Origin::External, t(0)).status,
            StatusCode::CREATED
        );

        // Out-of-scope path → 403.
        let outside = Request::put(url("/finance/tax.pdf"), &b"x"[..])
            .with_header("authorization", auth.clone());
        assert_eq!(
            s.serve(&outside, Origin::External, t(0)).status,
            StatusCode::FORBIDDEN
        );

        // Expired token → 401.
        assert_eq!(
            s.serve(&ok, Origin::External, t(2_000_000)).status,
            StatusCode::UNAUTHORIZED
        );
    }

    #[test]
    fn read_only_grant_cannot_write() {
        let verifier = TokenVerifier::new([7u8; 32]);
        let mut s = DavCore::new(VolatileBackend::new(), verifier.clone());
        s.backend_mut().store.mkcol("/shared").unwrap();
        s.backend_mut().store.put("/shared/doc", "v", t(0)).unwrap();
        let token = verifier.issue("viewer", "/shared", Permission::Read, t(1000));
        let auth = format!("Capability {}", token.encode());
        let get = Request::get(url("/shared/doc")).with_header("authorization", auth.clone());
        assert_eq!(s.serve(&get, Origin::External, t(1)).status, StatusCode::OK);
        let put = Request::put(url("/shared/doc"), &b"evil"[..]).with_header("authorization", auth);
        assert_eq!(
            s.serve(&put, Origin::External, t(1)).status,
            StatusCode::FORBIDDEN
        );
    }

    #[test]
    fn locking_mediates_concurrent_writers() {
        let mut s = core();
        serve(&mut s, &Request::put(url("/doc"), &b"v1"[..]), 0);
        // Word processor locks the file.
        let lock = Request::new(Method::Lock, url("/doc"))
            .with_header("x-lock-owner", "word-proc")
            .with_header("timeout", "Second-300");
        let lr = serve(&mut s, &lock, 1);
        assert_eq!(lr.status, StatusCode::OK);
        let token = lr.headers.get("lock-token").unwrap().to_owned();

        // Another app's write bounces with 423.
        let other = Request::put(url("/doc"), &b"v2"[..]);
        let blocked = serve(&mut s, &other, 2);
        assert_eq!(blocked.status, StatusCode::LOCKED);
        assert_eq!(blocked.headers.get("x-lock-holder"), Some("word-proc"));

        // The holder writes fine.
        let own = Request::put(url("/doc"), &b"v2"[..]).with_header("lock-token", token.clone());
        assert_eq!(serve(&mut s, &own, 3).status, StatusCode::NO_CONTENT);

        // Unlock; now anyone can write.
        let unlock = Request::new(Method::Unlock, url("/doc")).with_header("lock-token", token);
        assert_eq!(serve(&mut s, &unlock, 4).status, StatusCode::NO_CONTENT);
        assert_eq!(serve(&mut s, &other, 5).status, StatusCode::NO_CONTENT);
    }

    #[test]
    fn if_match_prevents_lost_updates() {
        let mut s = core();
        let r = serve(&mut s, &Request::put(url("/doc"), &b"v1"[..]), 0);
        let etag = r.headers.get("etag").unwrap().to_owned();
        // Stale etag → 412.
        let stale = Request::put(url("/doc"), &b"v3"[..]).with_header("if-match", "\"bogus\"");
        assert_eq!(
            serve(&mut s, &stale, 1).status,
            StatusCode::PRECONDITION_FAILED
        );
        let fresh = Request::put(url("/doc"), &b"v2"[..]).with_header("if-match", etag);
        assert_eq!(serve(&mut s, &fresh, 1).status, StatusCode::NO_CONTENT);
    }

    #[test]
    fn propfind_lists_as_multistatus_xml() {
        let mut s = core();
        s.backend_mut().store.mkcol("/d").unwrap();
        s.backend_mut().store.put("/d/a", "1", t(0)).unwrap();
        s.backend_mut().store.put("/d/b", "2", t(0)).unwrap();
        let pf = Request::new(Method::PropFind, url("/d")).with_header("depth", "1");
        let r = serve(&mut s, &pf, 1);
        assert_eq!(r.status, StatusCode::MULTI_STATUS);
        let ms = MultiStatus::parse(std::str::from_utf8(&r.body).unwrap()).expect("valid XML");
        let hrefs: Vec<&str> = ms.responses.iter().map(|x| x.href.as_str()).collect();
        assert_eq!(hrefs, vec!["/d", "/d/a", "/d/b"]);
        // The collection is typed as one; files carry etags.
        assert!(ms.responses[0].propstats[0]
            .props
            .iter()
            .any(|(n, v)| n == "resourcetype" && *v == PropValue::Collection));
        assert!(ms.responses[1].propstats[0]
            .props
            .iter()
            .any(|(n, _)| n == "getetag"));

        let pf0 = Request::new(Method::PropFind, url("/d")).with_header("depth", "0");
        let r0 = serve(&mut s, &pf0, 1);
        let ms0 = MultiStatus::parse(std::str::from_utf8(&r0.body).unwrap()).unwrap();
        assert_eq!(ms0.responses.len(), 1);
        assert_eq!(ms0.responses[0].href, "/d");
    }

    #[test]
    fn copy_and_move_verbs() {
        let mut s = core();
        serve(&mut s, &Request::put(url("/a"), &b"x"[..]), 0);
        let cp = Request::new(Method::Copy, url("/a")).with_header("destination", "/b");
        assert_eq!(serve(&mut s, &cp, 1).status, StatusCode::CREATED);
        let mv = Request::new(Method::Move, url("/a")).with_header("destination", "/c");
        assert_eq!(serve(&mut s, &mv, 2).status, StatusCode::CREATED);
        assert_eq!(
            serve(&mut s, &Request::get(url("/a")), 3).status,
            StatusCode::NOT_FOUND
        );
        assert_eq!(
            serve(&mut s, &Request::get(url("/c")), 3).status,
            StatusCode::OK
        );
    }

    #[test]
    fn options_advertises_dav() {
        let mut s = core();
        let r = serve(&mut s, &Request::new(Method::Options, url("/")), 0);
        assert_eq!(r.headers.get("dav"), Some("1, 2"));
        let allow = r.headers.get("allow").unwrap();
        for verb in ["OPTIONS", "HEAD", "PROPPATCH", "LOCK"] {
            assert!(allow.contains(verb), "{verb} in Allow");
        }
    }

    #[test]
    fn write_events_published() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let bus = EventBus::new();
        let hits = Arc::new(AtomicU32::new(0));
        let h = hits.clone();
        bus.subscribe("attic.write", move |e| {
            assert_eq!(e.payload, "/doc");
            h.fetch_add(1, Ordering::SeqCst);
        });
        let mut s = core().with_bus(bus);
        serve(&mut s, &Request::put(url("/doc"), &b"v"[..]), 0);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}

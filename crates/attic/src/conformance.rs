//! The WebDAV conformance suite: one scripted request sequence, two
//! adapters, byte-identical transcripts.
//!
//! The tentpole claim of the ports-and-adapters split is that the
//! simulated attic and the real-socket daemon are the *same server*.
//! This module makes that claim testable: [`run_suite`] drives a fixed
//! sequence covering every verb (PUT/GET/HEAD/DELETE/MKCOL/COPY/MOVE/
//! LOCK/UNLOCK/PROPFIND at Depth 0/1/infinity, version listing, ETag
//! preconditions, OPTIONS/PROPPATCH) through any [`DavTransport`], and
//! folds every response into a canonical transcript: status line +
//! sorted headers + body for each step. Equal transcripts ⇒ the
//! adapters are observationally identical; the sim results describe the
//! code that actually serves traffic.
//!
//! Steps pin logical time explicitly, and the TCP transport forwards it
//! via the `x-sim-time` header — so neither adapter consults a wall
//! clock while under test.

use crate::dav::PropfindBody;
use crate::ports::{AtticBackend, Origin};
use crate::webdav::DavCore;
use hpop_http::h1;
use hpop_http::message::{Method, Request, Response, StatusCode};
use hpop_http::url::Url;
use hpop_netsim::time::SimTime;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Anything that can carry one WebDAV request to an attic and bring
/// the response back.
pub trait DavTransport {
    /// Human-readable adapter name (for reports).
    fn name(&self) -> &'static str;

    /// Sends `req` at logical instant `now`; returns the response.
    fn round_trip(&mut self, req: &Request, now: SimTime) -> Response;
}

/// In-process transport over a [`DavCore`] (the netsim adapter).
pub struct SimTransport<'a, B: AtticBackend> {
    core: &'a mut DavCore<B>,
}

impl<'a, B: AtticBackend> SimTransport<'a, B> {
    /// Wraps an engine.
    pub fn new(core: &'a mut DavCore<B>) -> SimTransport<'a, B> {
        SimTransport { core }
    }
}

impl<B: AtticBackend> DavTransport for SimTransport<'_, B> {
    fn name(&self) -> &'static str {
        "netsim"
    }

    fn round_trip(&mut self, req: &Request, now: SimTime) -> Response {
        self.core.serve(req, Origin::Local, now)
    }
}

/// Loopback-TCP transport to a running `attic-daemon`. Keeps one
/// connection open across the suite (exercising keep-alive) and pins
/// logical time with the `x-sim-time` header.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connects to the daemon at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<TcpTransport> {
        Ok(TcpTransport {
            stream: TcpStream::connect(addr)?,
        })
    }
}

impl DavTransport for TcpTransport {
    fn name(&self) -> &'static str {
        "daemon"
    }

    fn round_trip(&mut self, req: &Request, now: SimTime) -> Response {
        let pinned = req
            .clone()
            .with_header("x-sim-time", now.as_nanos().to_string());
        self.stream
            .write_all(&h1::encode_request(&pinned))
            .expect("daemon socket writable");
        let mut buf = Vec::new();
        let mut scratch = [0u8; 8192];
        loop {
            if let Some((resp, consumed)) = h1::decode_response(&buf).expect("well-framed reply") {
                debug_assert_eq!(consumed, buf.len());
                return resp;
            }
            let n = self
                .stream
                .read(&mut scratch)
                .expect("daemon socket readable");
            assert!(n > 0, "daemon closed mid-response");
            buf.extend_from_slice(&scratch[..n]);
        }
    }
}

/// The outcome of one suite run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConformanceOutcome {
    /// Adapter name the suite ran against.
    pub adapter: &'static str,
    /// Steps executed.
    pub steps: u32,
    /// Steps whose status matched the expectation.
    pub passed: u32,
    /// `step-name: expected vs got` for each miss.
    pub failures: Vec<String>,
    /// The canonical transcript — byte-equal across conforming
    /// adapters.
    pub transcript: Vec<u8>,
}

/// Canonicalizes a response: status line, headers sorted by name
/// (already sorted — [`hpop_http::message::Headers`] is a BTreeMap),
/// then the body. `content-length` is pure wire framing — the h1
/// encoder recomputes it from the body on every hop — so it is
/// excluded; the body bytes themselves are compared directly.
fn fold(transcript: &mut Vec<u8>, step: &str, resp: &Response) {
    transcript.extend_from_slice(step.as_bytes());
    transcript.push(b'\n');
    transcript
        .extend_from_slice(format!("{} {}\n", resp.status.0, resp.status.reason()).as_bytes());
    for (name, value) in resp.headers.iter() {
        if name == "content-length" {
            continue;
        }
        transcript.extend_from_slice(format!("{name}: {value}\n").as_bytes());
    }
    transcript.extend_from_slice(&resp.body);
    transcript.extend_from_slice(b"\n--\n");
}

fn url(p: &str) -> Url {
    Url::new("http", "attic.home", p)
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Runs the full verb-coverage suite through `transport`.
///
/// The attic behind it must start *empty* — the suite builds all the
/// state it inspects.
pub fn run_suite<T: DavTransport>(transport: &mut T) -> ConformanceOutcome {
    let mut out = ConformanceOutcome {
        adapter: transport.name(),
        steps: 0,
        passed: 0,
        failures: Vec::new(),
        transcript: Vec::new(),
    };
    // Mutable state captured from earlier responses (etags, tokens).
    let mut etag_v1 = String::new();
    let mut lock_token = String::new();

    let mut step = |out: &mut ConformanceOutcome,
                    name: &str,
                    req: Request,
                    at: SimTime,
                    expect: StatusCode|
     -> Response {
        let resp = transport.round_trip(&req, at);
        out.steps += 1;
        if resp.status == expect {
            out.passed += 1;
        } else {
            out.failures.push(format!(
                "{name}: expected {} got {}",
                expect.0, resp.status.0
            ));
        }
        fold(&mut out.transcript, name, &resp);
        resp
    };

    // 1. OPTIONS advertises the surface.
    step(
        &mut out,
        "options",
        Request::new(Method::Options, url("/")),
        t(0),
        StatusCode::OK,
    );
    // 2-3. MKCOL builds /docs, /docs/sub; 4. MKCOL again is 405.
    step(
        &mut out,
        "mkcol",
        Request::new(Method::MkCol, url("/docs")),
        t(1),
        StatusCode::CREATED,
    );
    step(
        &mut out,
        "mkcol-sub",
        Request::new(Method::MkCol, url("/docs/sub")),
        t(1),
        StatusCode::CREATED,
    );
    step(
        &mut out,
        "mkcol-exists",
        Request::new(Method::MkCol, url("/docs")),
        t(1),
        StatusCode::METHOD_NOT_ALLOWED,
    );
    // 5. MKCOL with a missing parent is 409.
    step(
        &mut out,
        "mkcol-orphan",
        Request::new(Method::MkCol, url("/nowhere/x")),
        t(1),
        StatusCode::CONFLICT,
    );
    // 6. PUT creates (201) and returns the content ETag.
    let r = step(
        &mut out,
        "put-create",
        Request::put(url("/docs/a.txt"), &b"version one"[..]),
        t(2),
        StatusCode::CREATED,
    );
    if let Some(e) = r.headers.get("etag") {
        etag_v1 = e.to_owned();
    }
    // 7. PUT overwrite is 204 (second version).
    step(
        &mut out,
        "put-update",
        Request::put(url("/docs/a.txt"), &b"version two, longer"[..]),
        t(3),
        StatusCode::NO_CONTENT,
    );
    // 8. GET returns the latest body.
    step(
        &mut out,
        "get",
        Request::get(url("/docs/a.txt")),
        t(4),
        StatusCode::OK,
    );
    // 9. HEAD: entity headers, no body.
    step(
        &mut out,
        "head",
        Request::new(Method::Head, url("/docs/a.txt")),
        t(4),
        StatusCode::OK,
    );
    // 10. Get-by-version addresses the superseded write.
    step(
        &mut out,
        "get-old-version",
        Request::get(url("/docs/a.txt")).with_header("x-version", "0"),
        t(4),
        StatusCode::OK,
    );
    // 11. Stale If-Match bounces with 412.
    step(
        &mut out,
        "put-if-match-stale",
        Request::put(url("/docs/a.txt"), &b"lost update"[..])
            .with_header("if-match", etag_v1.clone()),
        t(5),
        StatusCode::PRECONDITION_FAILED,
    );
    // 12. If-None-Match: * refuses to clobber.
    step(
        &mut out,
        "put-if-none-match-star",
        Request::put(url("/docs/a.txt"), &b"clobber"[..]).with_header("if-none-match", "*"),
        t(5),
        StatusCode::PRECONDITION_FAILED,
    );
    // 13. Conditional GET with the old etag still succeeds (not current).
    step(
        &mut out,
        "get-if-none-match-old",
        Request::get(url("/docs/a.txt")).with_header("if-none-match", etag_v1.clone()),
        t(5),
        StatusCode::OK,
    );
    // 14. PROPFIND depth 0 on the file.
    let pf_props = PropfindBody::Props(vec![
        "getetag".into(),
        "getcontentlength".into(),
        "resourcetype".into(),
        "no-such-prop".into(),
    ])
    .to_xml();
    let mut pf = Request::new(Method::PropFind, url("/docs/a.txt")).with_header("depth", "0");
    pf.body = pf_props.into();
    step(&mut out, "propfind-0", pf, t(6), StatusCode::MULTI_STATUS);
    // 15. PROPFIND depth 1 on the collection (allprop).
    step(
        &mut out,
        "propfind-1",
        Request::new(Method::PropFind, url("/docs")).with_header("depth", "1"),
        t(6),
        StatusCode::MULTI_STATUS,
    );
    // 16. PROPFIND depth infinity from the root (header omitted = RFC
    // default infinity).
    step(
        &mut out,
        "propfind-infinity",
        Request::new(Method::PropFind, url("/")),
        t(6),
        StatusCode::MULTI_STATUS,
    );
    // 17. Version listing via the version-list pseudo-property.
    let mut vl = Request::new(Method::PropFind, url("/docs/a.txt")).with_header("depth", "0");
    vl.body = PropfindBody::Props(vec!["getetag".into(), "version-list".into()])
        .to_xml()
        .into();
    step(
        &mut out,
        "propfind-versions",
        vl,
        t(6),
        StatusCode::MULTI_STATUS,
    );
    // 18. PROPPATCH is politely refused (207 with 403 propstats).
    let mut pp = Request::new(Method::PropPatch, url("/docs/a.txt"));
    pp.body = b"<D:propertyupdate xmlns:D=\"DAV:\"><D:set><D:prop><D:color/></D:prop></D:set></D:propertyupdate>"
        .to_vec()
        .into();
    step(&mut out, "proppatch", pp, t(6), StatusCode::MULTI_STATUS);
    // 19. COPY duplicates.
    step(
        &mut out,
        "copy",
        Request::new(Method::Copy, url("/docs/a.txt")).with_header("destination", "/docs/b.txt"),
        t(7),
        StatusCode::CREATED,
    );
    // 20. MOVE relocates.
    step(
        &mut out,
        "move",
        Request::new(Method::Move, url("/docs/b.txt"))
            .with_header("destination", "/docs/sub/c.txt"),
        t(8),
        StatusCode::CREATED,
    );
    // 21. LOCK takes an exclusive lock.
    let r = step(
        &mut out,
        "lock",
        Request::new(Method::Lock, url("/docs/a.txt"))
            .with_header("x-lock-owner", "word-proc")
            .with_header("timeout", "Second-300"),
        t(9),
        StatusCode::OK,
    );
    if let Some(tok) = r.headers.get("lock-token") {
        lock_token = tok.to_owned();
    }
    // 22. A tokenless write bounces off the lock.
    step(
        &mut out,
        "put-locked",
        Request::put(url("/docs/a.txt"), &b"intruder"[..]),
        t(10),
        StatusCode::LOCKED,
    );
    // 23. The holder writes through with the token.
    step(
        &mut out,
        "put-with-token",
        Request::put(url("/docs/a.txt"), &b"version three"[..])
            .with_header("lock-token", lock_token.clone()),
        t(11),
        StatusCode::NO_CONTENT,
    );
    // 24. LOCK refresh via the token.
    step(
        &mut out,
        "lock-refresh",
        Request::new(Method::Lock, url("/docs/a.txt"))
            .with_header("lock-token", lock_token.clone())
            .with_header("timeout", "Second-300"),
        t(12),
        StatusCode::OK,
    );
    // 25. UNLOCK releases.
    step(
        &mut out,
        "unlock",
        Request::new(Method::Unlock, url("/docs/a.txt"))
            .with_header("lock-token", lock_token.clone()),
        t(13),
        StatusCode::NO_CONTENT,
    );
    // 26. DELETE removes the moved file.
    step(
        &mut out,
        "delete",
        Request::new(Method::Delete, url("/docs/sub/c.txt")),
        t(14),
        StatusCode::NO_CONTENT,
    );
    // 27. GET on the deleted path 404s.
    step(
        &mut out,
        "get-deleted",
        Request::get(url("/docs/sub/c.txt")),
        t(15),
        StatusCode::NOT_FOUND,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{AtticDaemon, DaemonConfig};
    use crate::ports::VolatileBackend;
    use hpop_core::auth::TokenVerifier;

    #[test]
    fn suite_passes_through_the_sim_adapter() {
        let mut server = DavCore::new(VolatileBackend::new(), TokenVerifier::new([7u8; 32]));
        let mut transport = SimTransport::new(&mut server);
        let outcome = run_suite(&mut transport);
        assert_eq!(outcome.failures, Vec::<String>::new());
        assert_eq!(outcome.passed, outcome.steps);
        assert!(outcome.steps >= 27, "full verb coverage");
    }

    /// The acceptance criterion: sim adapter and socket daemon produce
    /// byte-identical transcripts for the same suite.
    #[test]
    fn adapters_are_byte_identical() {
        let mut server = DavCore::new(VolatileBackend::new(), TokenVerifier::new([7u8; 32]));
        let sim = run_suite(&mut SimTransport::new(&mut server));

        let core = DavCore::new(VolatileBackend::new(), TokenVerifier::new([7u8; 32]));
        let handle = AtticDaemon::spawn(DaemonConfig::default(), core).expect("bind");
        let mut tcp = TcpTransport::connect(handle.addr()).expect("connect");
        let daemon = run_suite(&mut tcp);
        drop(tcp);
        handle.stop();

        assert_eq!(daemon.failures, Vec::<String>::new());
        assert_eq!(sim.passed, sim.steps);
        assert_eq!(daemon.passed, daemon.steps);
        assert_eq!(
            sim.transcript, daemon.transcript,
            "the two adapters must be observationally identical"
        );
    }
}

//! The real-socket adapter: the attic as a deployable appliance.
//!
//! Where an experiment calls [`DavCore`] directly to answer simulated
//! requests, [`AtticDaemon`] binds a `std::net::TcpListener`, frames
//! HTTP/1.1 with [`hpop_http::h1`], and drives the *same*
//! [`DavCore`] engine — the tentpole claim of the ports-and-adapters
//! split is that the conformance suite cannot tell the two apart.
//!
//! Mechanics:
//!
//! - **Accept loop** — the listener blocks in `accept`, so a new
//!   connection is served the moment it arrives. [`DaemonHandle::stop`]
//!   raises the shutdown flag and then wakes the loop with one
//!   throwaway loopback connection, which the loop recognises by the
//!   flag and never counts. Every accepted stream has `TCP_NODELAY` set
//!   (a response is one write; Nagle would only hold it back), and each
//!   connection gets a handler thread, all joined before `stop` returns
//!   (no dropped in-flight responses).
//! - **Per-connection deadlines** — every connection gets a
//!   [`Deadline`] budget; the remaining budget becomes the socket read
//!   timeout before each request, so an idle or stalled client cannot
//!   pin a handler thread forever.
//! - **Deterministic time** — WebDAV semantics depend on *when* (lock
//!   expiry, version timestamps). The daemon derives `now` from the
//!   process clock against a fixed epoch, but honors an `x-sim-time`
//!   request header carrying nanoseconds: the conformance suite pins
//!   time with it, making daemon responses byte-identical to the sim
//!   adapter's.

use crate::ports::{AtticBackend, Origin};
use crate::webdav::DavCore;
use hpop_http::h1;
use hpop_http::message::{Response, StatusCode};
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_resilience::deadline::Deadline;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the daemon.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Address to bind (`"127.0.0.1:0"` picks a free port).
    pub bind: String,
    /// Wall-clock budget per connection; when it runs out the
    /// connection is closed after the in-flight response.
    pub connection_budget: SimDuration,
    /// Concurrent connections served at once. Connections over the cap
    /// are answered `503 Service Unavailable` + `Retry-After` and
    /// closed — never silently stalled in the accept backlog.
    pub max_connections: usize,
    /// Complete pipelined requests one connection may have queued.
    /// A deeper pipeline gets a `503` + `Retry-After` and the
    /// connection is closed (bounded work per handler thread).
    pub max_queued_requests: usize,
    /// The `Retry-After` hint stamped on overload `503`s.
    pub retry_after: SimDuration,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            bind: "127.0.0.1:0".to_owned(),
            connection_budget: SimDuration::from_secs(30),
            max_connections: 64,
            max_queued_requests: 32,
            retry_after: SimDuration::from_secs(1),
        }
    }
}

/// Counters the daemon exposes after shutdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests served (any status).
    pub requests: u64,
    /// Connections dropped on framing errors.
    pub bad_frames: u64,
    /// Connections or pipelines refused with `503` + `Retry-After`
    /// because a cap ([`DaemonConfig::max_connections`] /
    /// [`DaemonConfig::max_queued_requests`]) was hit.
    pub overload_rejects: u64,
}

struct Shared<B: AtticBackend> {
    core: Mutex<DavCore<B>>,
    cfg: DaemonConfig,
    stop: AtomicBool,
    connections: AtomicU64,
    live: AtomicU64,
    requests: AtomicU64,
    bad_frames: AtomicU64,
    overload_rejects: AtomicU64,
    epoch: Instant,
}

/// The overload answer: `503` with an honest `Retry-After` (seconds,
/// rounded up so the hint is never zero).
fn overloaded_response(retry_after: SimDuration) -> Response {
    let secs = (retry_after.as_secs_f64().ceil() as u64).max(1);
    Response::new(StatusCode::SERVICE_UNAVAILABLE).with_header("retry-after", secs.to_string())
}

/// Whether at least `limit` complete requests are sitting in `queued`.
/// Stops decoding at the limit: the answer is all the pipeline cap
/// needs, and the bytes are a client's to make arbitrarily deep.
fn queues_at_least(mut queued: &[u8], limit: usize) -> bool {
    let mut depth = 0;
    while depth < limit {
        match h1::decode_request(queued) {
            Ok(Some((_req, consumed))) => {
                depth += 1;
                queued = &queued[consumed..];
            }
            _ => return false,
        }
    }
    true
}

/// Decrements the live-connection gauge even if the handler panics, so
/// the connection cap can never wedge shut.
struct LiveGuard<'a>(&'a AtomicU64);

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running attic daemon; dropping the handle without calling
/// [`DaemonHandle::stop`] aborts ungracefully (the accept thread is
/// detached), so call `stop`.
pub struct AtticDaemon;

/// Control handle for a spawned daemon.
pub struct DaemonHandle<B: AtticBackend> {
    shared: Arc<Shared<B>>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl AtticDaemon {
    /// Binds and starts serving `core` in background threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn<B: AtticBackend + Send + 'static>(
        cfg: DaemonConfig,
        core: DavCore<B>,
    ) -> std::io::Result<DaemonHandle<B>> {
        let listener = TcpListener::bind(&cfg.bind)?;
        let addr = listener.local_addr()?;
        let max_connections = cfg.max_connections.max(1) as u64;
        let retry_after = cfg.retry_after;
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            cfg,
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            live: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            bad_frames: AtomicU64::new(0),
            overload_rejects: AtomicU64::new(0),
            epoch: Instant::now(),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            loop {
                match listener.accept() {
                    // Checked before counting: once `stop` has raised the
                    // flag, this is its wake-up connection (or a client
                    // racing the shutdown), and the daemon is done.
                    Ok(_) if accept_shared.stop.load(Ordering::SeqCst) => break,
                    Ok((mut stream, _peer)) => {
                        accept_shared.connections.fetch_add(1, Ordering::SeqCst);
                        let _ = stream.set_nodelay(true);
                        if accept_shared.live.load(Ordering::SeqCst) >= max_connections {
                            // Over the cap: an explicit refusal the
                            // client can act on, not a silent stall.
                            accept_shared
                                .overload_rejects
                                .fetch_add(1, Ordering::SeqCst);
                            let resp = overloaded_response(retry_after);
                            let _ = stream.write_all(&h1::encode_response(&resp));
                            let _ = stream.flush();
                            handlers.retain(|h| !h.is_finished());
                            continue;
                        }
                        accept_shared.live.fetch_add(1, Ordering::SeqCst);
                        let conn_shared = accept_shared.clone();
                        handlers.push(std::thread::spawn(move || {
                            let _live = LiveGuard(&conn_shared.live);
                            handle_connection(stream, &conn_shared);
                        }));
                    }
                    Err(_) => {
                        if accept_shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // A failing accept (out of descriptors, say)
                        // fails again at once: back off, don't spin.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                handlers.retain(|h| !h.is_finished());
            }
            // Graceful: every in-flight connection completes.
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(DaemonHandle {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }
}

impl<B: AtticBackend> DaemonHandle<B> {
    /// The bound address (use for loopback clients).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown, wakes the blocking accept with one throwaway
    /// connection, and joins the accept loop (and through it every
    /// connection handler). Returns the final stats; the wake-up
    /// connection is not in them.
    pub fn stop(mut self) -> DaemonStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(wake_addr(self.addr));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        DaemonStats {
            connections: self.shared.connections.load(Ordering::SeqCst),
            requests: self.shared.requests.load(Ordering::SeqCst),
            bad_frames: self.shared.bad_frames.load(Ordering::SeqCst),
            overload_rejects: self.shared.overload_rejects.load(Ordering::SeqCst),
        }
    }
}

/// Where a connection reaches a listener bound to `addr`: the address
/// itself, or loopback of the same family when it is unspecified
/// (`0.0.0.0` / `::`), which is not a destination.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// The logical "now" for one request: the `x-sim-time` header (nanos)
/// when present, else process-clock nanoseconds since daemon start.
fn request_time<B: AtticBackend>(shared: &Shared<B>, req: &hpop_http::message::Request) -> SimTime {
    if let Some(nanos) = req
        .headers
        .get("x-sim-time")
        .and_then(|v| v.parse::<u64>().ok())
    {
        return SimTime::from_nanos(nanos);
    }
    SimTime::from_nanos(shared.epoch.elapsed().as_nanos() as u64)
}

fn handle_connection<B: AtticBackend>(mut stream: TcpStream, shared: &Shared<B>) {
    let started = Instant::now();
    let deadline = Deadline::after(SimTime::ZERO, shared.cfg.connection_budget);
    let max_queued = shared.cfg.max_queued_requests.max(1);
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut scratch = [0u8; 4096];
    loop {
        let now = SimTime::from_nanos(started.elapsed().as_nanos() as u64);
        if deadline.expired(now) {
            return;
        }
        // Parse-or-read loop: consume complete requests from the front
        // of the buffer, read more bytes when incomplete.
        match h1::decode_request(&buf) {
            Ok(Some((req, consumed))) => {
                // Bounded pipeline: a client that has queued more
                // complete requests than the cap (this one included) is
                // refused with a retryable 503 instead of pinning this
                // thread.
                if queues_at_least(&buf[consumed..], max_queued) {
                    shared.overload_rejects.fetch_add(1, Ordering::SeqCst);
                    let resp = overloaded_response(shared.cfg.retry_after);
                    let _ = stream.write_all(&h1::encode_response(&resp));
                    let _ = stream.flush();
                    return;
                }
                buf.drain(..consumed);
                let origin = match req.headers.get("x-attic-origin") {
                    Some("external") => Origin::External,
                    _ => Origin::Local,
                };
                let at = request_time(shared, &req);
                let resp = {
                    let mut core = shared.core.lock().expect("engine lock never poisoned");
                    core.serve(&req, origin, at)
                };
                shared.requests.fetch_add(1, Ordering::SeqCst);
                if stream.write_all(&h1::encode_response(&resp)).is_err() {
                    return;
                }
                if req.headers.get("connection") == Some("close") {
                    let _ = stream.flush();
                    return;
                }
            }
            Ok(None) => {
                // The connection's remaining budget becomes the read
                // timeout.
                let remaining = deadline.remaining(now);
                let timeout = Duration::from_nanos(remaining.as_nanos().max(1));
                if stream.set_read_timeout(Some(timeout)).is_err() {
                    return;
                }
                match stream.read(&mut scratch) {
                    Ok(0) => return, // peer closed
                    Ok(n) => buf.extend_from_slice(&scratch[..n]),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        return; // budget exhausted waiting for bytes
                    }
                    Err(_) => return,
                }
            }
            Err(_) => {
                shared.bad_frames.fetch_add(1, Ordering::SeqCst);
                let resp = Response::new(StatusCode::BAD_REQUEST);
                let _ = stream.write_all(&h1::encode_response(&resp));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::VolatileBackend;
    use hpop_core::auth::TokenVerifier;
    use hpop_http::message::{Method, Request};
    use hpop_http::url::Url;

    fn spawn_daemon() -> DaemonHandle<VolatileBackend> {
        let core = DavCore::new(VolatileBackend::new(), TokenVerifier::new([7u8; 32]));
        AtticDaemon::spawn(DaemonConfig::default(), core).expect("bind loopback")
    }

    fn round_trip(stream: &mut TcpStream, req: &Request) -> Response {
        stream.write_all(&h1::encode_request(req)).unwrap();
        let mut buf = Vec::new();
        let mut scratch = [0u8; 4096];
        loop {
            if let Some((resp, consumed)) = h1::decode_response(&buf).unwrap() {
                assert_eq!(consumed, buf.len(), "no trailing bytes in tests");
                return resp;
            }
            let n = stream.read(&mut scratch).unwrap();
            assert!(n > 0, "daemon closed mid-response");
            buf.extend_from_slice(&scratch[..n]);
        }
    }

    fn url(p: &str) -> Url {
        Url::new("http", "attic.home", p)
    }

    #[test]
    fn serves_webdav_over_loopback_and_stops_gracefully() {
        let handle = spawn_daemon();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();

        let put = Request::put(url("/note.txt"), &b"over a real socket"[..])
            .with_header("x-sim-time", "1000000000");
        let r = round_trip(&mut stream, &put);
        assert_eq!(r.status, StatusCode::CREATED);
        let etag = r.headers.get("etag").unwrap().to_owned();

        // Same connection, second request (keep-alive).
        let get = Request::get(url("/note.txt")).with_header("x-sim-time", "2000000000");
        let r = round_trip(&mut stream, &get);
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(&r.body[..], b"over a real socket");
        assert_eq!(r.headers.get("etag"), Some(etag.as_str()));

        let options =
            Request::new(Method::Options, url("/")).with_header("x-sim-time", "3000000000");
        let r = round_trip(&mut stream, &options);
        assert_eq!(r.headers.get("dav"), Some("1, 2"));

        drop(stream);
        let stats = handle.stop();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.bad_frames, 0);
    }

    /// `stop` on another thread, failing the test (rather than hanging
    /// it) if the accept loop is never woken.
    fn stop_within(handle: DaemonHandle<VolatileBackend>, limit: Duration) -> DaemonStats {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(handle.stop()));
        rx.recv_timeout(limit)
            .expect("stop returned: the blocking accept was woken")
    }

    #[test]
    fn idle_daemon_stops_promptly_without_counting_its_wakeup() {
        let handle = spawn_daemon();
        let stats = stop_within(handle, Duration::from_secs(10));
        assert_eq!(
            stats,
            DaemonStats::default(),
            "the wake-up connection is not a client"
        );
    }

    #[test]
    fn daemon_bound_to_the_unspecified_address_stops() {
        let core = DavCore::new(VolatileBackend::new(), TokenVerifier::new([7u8; 32]));
        let cfg = DaemonConfig {
            bind: "0.0.0.0:0".to_owned(),
            ..DaemonConfig::default()
        };
        let handle = AtticDaemon::spawn(cfg, core).expect("bind all interfaces");
        assert!(handle.addr().ip().is_unspecified());
        let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), handle.addr().port());
        let mut stream = TcpStream::connect(loopback).unwrap();
        let options = Request::new(Method::Options, url("/")).with_header("x-sim-time", "0");
        assert_eq!(round_trip(&mut stream, &options).status, StatusCode::OK);
        drop(stream);
        let stats = stop_within(handle, Duration::from_secs(10));
        assert_eq!((stats.connections, stats.requests), (1, 1));
    }

    #[test]
    fn malformed_frames_get_400_and_close() {
        let handle = spawn_daemon();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"BREW /pot HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        let mut scratch = [0u8; 1024];
        loop {
            match stream.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&scratch[..n]),
                Err(_) => break,
            }
        }
        let (resp, _) = h1::decode_response(&buf).unwrap().expect("a 400 came back");
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        let stats = handle.stop();
        assert_eq!(stats.bad_frames, 1);
    }

    fn spawn_with(cfg: DaemonConfig) -> DaemonHandle<VolatileBackend> {
        let core = DavCore::new(VolatileBackend::new(), TokenVerifier::new([7u8; 32]));
        AtticDaemon::spawn(cfg, core).expect("bind loopback")
    }

    /// Reads until EOF and decodes every response on the wire.
    fn drain_responses(stream: &mut TcpStream) -> Vec<Response> {
        let mut buf = Vec::new();
        let mut scratch = [0u8; 4096];
        loop {
            match stream.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&scratch[..n]),
                Err(_) => break,
            }
        }
        let mut out = Vec::new();
        let mut off = 0;
        while let Ok(Some((resp, consumed))) = h1::decode_response(&buf[off..]) {
            out.push(resp);
            off += consumed;
        }
        out
    }

    #[test]
    fn connection_cap_answers_503_with_retry_after() {
        let handle = spawn_with(DaemonConfig {
            max_connections: 1,
            retry_after: SimDuration::from_secs(3),
            ..DaemonConfig::default()
        });

        // Fill the single slot and prove it is live with a request.
        let mut first = TcpStream::connect(handle.addr()).unwrap();
        let put = Request::put(url("/slot"), &b"x"[..]).with_header("x-sim-time", "0");
        assert_eq!(round_trip(&mut first, &put).status, StatusCode::CREATED);

        // The second connection is refused explicitly, not stalled.
        let mut second = TcpStream::connect(handle.addr()).unwrap();
        let responses = drain_responses(&mut second);
        assert_eq!(responses.len(), 1, "exactly one refusal then close");
        assert_eq!(responses[0].status, StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(responses[0].headers.get("retry-after"), Some("3"));

        // Releasing the slot lets a later client in.
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut retry = TcpStream::connect(handle.addr()).unwrap();
            let get = Request::get(url("/slot")).with_header("x-sim-time", "1");
            retry.write_all(&h1::encode_request(&get)).unwrap();
            let responses = drain_responses(&mut retry);
            if responses.first().map(|r| r.status) == Some(StatusCode::OK) {
                break;
            }
            assert!(Instant::now() < deadline, "slot never freed after close");
            std::thread::sleep(Duration::from_millis(10));
        }

        let stats = handle.stop();
        assert!(stats.overload_rejects >= 1);
    }

    #[test]
    fn pipeline_cap_answers_503_and_closes() {
        let handle = spawn_with(DaemonConfig {
            max_queued_requests: 2,
            ..DaemonConfig::default()
        });
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Six pipelined requests in one write: far over the cap of 2.
        let mut wire = Vec::new();
        for i in 0..6 {
            let get = Request::get(url("/pipelined")).with_header("x-sim-time", i.to_string());
            wire.extend_from_slice(&h1::encode_request(&get));
        }
        stream.write_all(&wire).unwrap();
        let responses = drain_responses(&mut stream);
        let last = responses.last().expect("a refusal came back");
        assert_eq!(last.status, StatusCode::SERVICE_UNAVAILABLE);
        assert!(last.headers.get("retry-after").is_some());
        // At most `max_queued_requests` requests were ever served
        // before the refusal (fewer if the burst landed in one read).
        assert!(responses.len() <= 3, "served {} responses", responses.len());
        let stats = handle.stop();
        assert_eq!(stats.overload_rejects, 1);
    }

    #[test]
    fn external_origin_header_enforces_grants() {
        let handle = spawn_daemon();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let put = Request::put(url("/secret"), &b"x"[..])
            .with_header("x-attic-origin", "external")
            .with_header("x-sim-time", "0");
        let r = round_trip(&mut stream, &put);
        assert_eq!(r.status, StatusCode::UNAUTHORIZED);
        drop(stream);
        handle.stop();
    }
}

//! `attic_loopback` — the only real-socket path.
//!
//! `AtticDaemon::spawn` over `DavCore<VolatileBackend>`; two keep-alive
//! loopback TCP connections, one client thread each (closed loop: a
//! client sends its next request when the reply to the last one has
//! arrived). 256 keys × 4 KiB, 85 % GET, 5 % PROPFIND Depth 1, 10 %
//! writes (PUT; a key at eight versions is DELETEd and re-PUT). Every
//! 512 requests a connection closes and reconnects, which also keeps it
//! inside the daemon's 30 s `connection_budget`.
//!
//! What does the work: thread-per-connection, the `Mutex<DavCore>`, the
//! 2 ms accept poll and `h1` framing. Deliberately bypassed: the WAL,
//! crypto beyond one ETag hash per PUT, the flow engine.
//!
//! Each client owns half the keyspace, so it knows the ETag of the last
//! PUT the server acknowledged for every key it reads. While the
//! workload runs, one lowest-priority spinner process per vCPU keeps the
//! VM's vCPUs from halting (see [`Burners`]).

use super::dav::{self, Bodies, Oracle, KEYS_PER_DIR, MAX_VERSIONS};
use crate::harness::{Batch, OpDigest, PassConfig, Report, Window, Workload, BATCHES, OP_SPAN};
use crate::stats;
use crate::steady::Profile;
use crate::trace::{merge_totals, Recorder};
use hpop_attic::{AtticDaemon, DaemonConfig, DaemonHandle, DavCore, Origin, VolatileBackend};
use hpop_core::auth::TokenVerifier;
use hpop_http::h1;
use hpop_http::message::{Method, Request, Response, StatusCode};
use hpop_netsim::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Requests per second of measured window on the reference box (both
/// connections together); sets the op count for a given `--seconds`.
const NOMINAL_OPS_PER_S: f64 = 42_000.0;

/// Client threads = connections. Never more than the box has cores.
const CLIENTS: usize = 2;
const KEYS_PER_CLIENT: usize = 128;
const BODY_BYTES: usize = 4096;
const REQUESTS_PER_CONNECTION: u32 = 512;
/// Requests replayed in-process per traced pass (plus seeding).
const REPLAY_OPS: usize = 40_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Get,
    Propfind,
    Write,
}

/// The span names one kind of request is recorded under: its round trip
/// over the socket, and the engine's share of it in the in-process replay.
#[derive(Clone, Copy, Debug)]
struct Spans {
    rtt: &'static str,
    serve: &'static str,
}

const GET: Spans = Spans {
    rtt: "attic.daemon.rtt_get",
    serve: "attic.webdav.serve_get",
};
const PUT: Spans = Spans {
    rtt: "attic.daemon.rtt_put",
    serve: "attic.webdav.serve_put",
};
const PROPFIND: Spans = Spans {
    rtt: "attic.daemon.rtt_propfind",
    serve: "attic.webdav.serve_propfind",
};

/// How requests reach a `DavCore`. The TCP transport is the workload;
/// the in-process one replays the same stream through each stage alone.
trait Transport {
    fn exchange(&mut self, rec: &mut Recorder, spans: Spans, req: &Request)
        -> io::Result<Response>;
}

/// One keep-alive connection, re-established every
/// [`REQUESTS_PER_CONNECTION`] requests.
struct Tcp {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    served: u32,
    buf: Vec<u8>,
    scratch: Vec<u8>,
    /// µs from `TcpStream::connect` to the first response on it.
    connect_us: Vec<f64>,
}

impl Tcp {
    fn new(addr: SocketAddr) -> Tcp {
        Tcp {
            addr,
            stream: None,
            served: 0,
            buf: Vec::with_capacity(32 * 1024),
            scratch: vec![0u8; 32 * 1024],
            connect_us: Vec::new(),
        }
    }
}

impl Transport for Tcp {
    fn exchange(
        &mut self,
        rec: &mut Recorder,
        spans: Spans,
        req: &Request,
    ) -> io::Result<Response> {
        let wire = rec.span("http.h1.encode_request", || h1::encode_request(req));
        if self.served >= REQUESTS_PER_CONNECTION {
            self.stream = None; // closes; the daemon's handler sees EOF
        }
        let mut connecting = None;
        if self.stream.is_none() {
            connecting = Some(Instant::now());
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
            self.served = 0;
            self.buf.clear();
        }
        let rtt = rec.enter(spans.rtt);
        let result = (|| {
            let stream = self.stream.as_mut().expect("connected above");
            // One request, one write.
            stream.write_all(&wire)?;
            loop {
                let n = stream.read(&mut self.scratch)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed",
                    ));
                }
                self.buf.extend_from_slice(&self.scratch[..n]);
                let decoded =
                    rec.span("http.h1.decode_response", || h1::decode_response(&self.buf));
                match decoded {
                    Ok(Some((resp, used))) => {
                        self.buf.drain(..used);
                        return Ok(resp);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                    }
                }
            }
        })();
        rec.exit(rtt);
        match &result {
            Ok(_) => {
                self.served += 1;
                if let Some(t) = connecting {
                    self.connect_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            Err(_) => self.stream = None,
        }
        result
    }
}

/// Keeps every vCPU out of the hypervisor's idle path while the
/// workload runs: one `perf burn` child per vCPU at the lowest priority.
///
/// A request/response over loopback puts both ends to sleep in turn. On
/// this VM an idle vCPU takes 50-100 us of *host* scheduling to wake, so
/// with nothing else running every request pays that twice and
/// throughput measures the host's scheduler (12-19k requests/s, +-25 %).
/// A nice-19 spinner never delays a waking client or handler thread by
/// more than a guest context switch, but the vCPU under it never halts.
/// The burners are separate processes: their CPU time is not in
/// `cpu_us_per_op`.
struct Burners(Vec<std::process::Child>);

impl Burners {
    fn start() -> Burners {
        let n = std::thread::available_parallelism().map_or(1, usize::from);
        let exe = std::env::current_exe().expect("own executable");
        let children = (0..n)
            .filter_map(|_| {
                std::process::Command::new("nice")
                    .args(["-n", "19"])
                    .arg(&exe)
                    .arg("burn")
                    .stdin(std::process::Stdio::null())
                    .stdout(std::process::Stdio::null())
                    .spawn()
                    .ok()
            })
            .collect();
        Burners(children)
    }
}

impl Drop for Burners {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The daemon's request path with the socket taken out: every stage is
/// called through its public function and timed on its own.
struct InProcess {
    core: DavCore<VolatileBackend>,
    tick: u64,
}

impl Transport for InProcess {
    fn exchange(
        &mut self,
        rec: &mut Recorder,
        spans: Spans,
        req: &Request,
    ) -> io::Result<Response> {
        let wire = h1::encode_request(req);
        let (decoded, _) = rec
            .span("http.h1.decode_request", || h1::decode_request(&wire))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            .expect("a whole request was encoded");
        self.tick += 1;
        let now = SimTime::from_nanos(self.tick * 1_000);
        let core = &mut self.core;
        let resp = rec.span(spans.serve, || core.serve(&decoded, Origin::Local, now));
        let back = rec.span("http.h1.encode_response", || h1::encode_response(&resp));
        let (resp, _) = h1::decode_response(&back)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            .expect("a whole response was encoded");
        Ok(resp)
    }
}

/// One client: half the keyspace, its own seeded stream of requests,
/// its own oracle and its own span recorder.
struct Client<T: Transport> {
    transport: T,
    root: String,
    oracle: Oracle,
    rng: StdRng,
    bodies: Bodies,
    mix: Vec<(Kind, usize)>,
    /// A key that was DELETEd at its version cap and is due a fresh PUT.
    reput: Option<usize>,
    rec: Recorder,
    digest: OpDigest,
}

impl<T: Transport> Client<T> {
    fn new(
        transport: T,
        index: usize,
        cfg: &PassConfig,
        ops_per_batch: usize,
        epoch: Instant,
    ) -> Client<T> {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x10_0bac4 + index as u64));
        let bodies = Bodies::new(&mut rng, BODY_BYTES);
        let (propfind, write) = (ops_per_batch / 20, ops_per_batch / 10);
        Client {
            transport,
            root: format!("/c{index}"),
            oracle: Oracle::new(KEYS_PER_CLIENT),
            rng,
            bodies,
            mix: vec![
                (Kind::Get, ops_per_batch - propfind - write),
                (Kind::Propfind, propfind),
                (Kind::Write, write),
            ],
            reput: None,
            // op + encode + rtt + a decode or two.
            rec: Recorder::new(cfg.traced, ops_per_batch * BATCHES * 6, epoch),
            digest: OpDigest::default(),
        }
    }

    fn exchange(&mut self, spans: Spans, req: &Request) -> Option<Response> {
        dav::digest_request(&mut self.digest, req);
        self.transport.exchange(&mut self.rec, spans, req).ok()
    }

    fn put(&mut self, key: usize) -> bool {
        let body = self.bodies.next();
        let len = body.len();
        let req = dav::put(&dav::key_path(&self.root, key), body);
        match self.exchange(PUT, &req) {
            Some(resp) => self.oracle.on_put(key, len, &resp),
            None => false,
        }
    }

    fn write(&mut self) -> bool {
        if let Some(key) = self.reput.take() {
            return self.put(key);
        }
        let key = self.rng.gen_range(0..KEYS_PER_CLIENT);
        if self.oracle.versions(key) < MAX_VERSIONS {
            return self.put(key);
        }
        self.reput = Some(key);
        let req = dav::request(Method::Delete, &dav::key_path(&self.root, key));
        match self.exchange(PUT, &req) {
            Some(resp) => self.oracle.on_delete(key, &resp),
            None => false,
        }
    }

    fn get(&mut self) -> bool {
        let key = self.rng.gen_range(0..KEYS_PER_CLIENT);
        let req = dav::request(Method::Get, &dav::key_path(&self.root, key));
        match self.exchange(GET, &req) {
            Some(resp) => self.oracle.on_get(key, &resp),
            None => false,
        }
    }

    /// PROPFIND Depth 1 on one directory: 207, and one `<D:response>`
    /// for the directory plus one per key that currently exists.
    fn propfind(&mut self) -> bool {
        let dir = self.rng.gen_range(0..KEYS_PER_CLIENT / KEYS_PER_DIR);
        let req = dav::request(Method::PropFind, &dav::dir_path(&self.root, dir))
            .with_header("depth", "1");
        let Some(resp) = self.exchange(PROPFIND, &req) else {
            return false;
        };
        let due = 1 + self
            .oracle
            .present_in(dir * KEYS_PER_DIR..(dir + 1) * KEYS_PER_DIR);
        let listed =
            std::str::from_utf8(&resp.body).map_or(0, |xml| xml.matches("<D:response>").count());
        resp.status == StatusCode::MULTI_STATUS && listed == due
    }

    /// Creates this client's collections and one version of every key.
    fn seed(&mut self) {
        let mut dirs = vec![self.root.clone()];
        dirs.extend((0..KEYS_PER_CLIENT / KEYS_PER_DIR).map(|d| dav::dir_path(&self.root, d)));
        for dir in dirs {
            let resp = self.exchange(PUT, &dav::request(Method::MkCol, &dir));
            assert_eq!(
                resp.map(|r| r.status),
                Some(StatusCode::CREATED),
                "seeding {dir}"
            );
        }
        for key in 0..KEYS_PER_CLIENT {
            assert!(self.put(key), "seeding key {key}");
        }
    }

    /// The first `limit` ops of a freshly shuffled batch mix.
    fn run_ops(&mut self, limit: usize) -> Batch {
        let kinds = dav::shuffled_mix(&mut self.rng, &self.mix);
        let mut batch = Batch::default();
        for kind in kinds.into_iter().take(limit) {
            self.rec.begin_op();
            let op = self.rec.enter(OP_SPAN);
            let ok = match kind {
                Kind::Get => self.get(),
                Kind::Propfind => self.propfind(),
                Kind::Write => self.write(),
            };
            self.rec.exit(op);
            batch.ops += 1;
            batch.failed += u64::from(!ok);
        }
        batch
    }
}

pub struct AtticLoopback {
    _burners: Burners,
    daemon: Option<DaemonHandle<VolatileBackend>>,
    clients: Vec<Client<Tcp>>,
    ops_per_batch: usize,
    cfg: PassConfig,
    /// Connections each client had made when the window opened.
    base_connects: Vec<usize>,
}

fn new_core() -> DavCore<VolatileBackend> {
    DavCore::new(VolatileBackend::new(), TokenVerifier::new([7u8; 32]))
}

fn per_client_batch(cfg: &PassConfig) -> usize {
    ((NOMINAL_OPS_PER_S * cfg.seconds / (BATCHES * CLIENTS) as f64) as usize).max(40)
}

impl AtticLoopback {
    /// Runs `limit` ops on every client at once, one thread each.
    fn run_clients(&mut self, limit: usize) -> Batch {
        let mut total = Batch::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| s.spawn(move || c.run_ops(limit)))
                .collect();
            for h in handles {
                let b = h.join().expect("client thread panicked");
                total.ops += b.ops;
                total.failed += b.failed;
            }
        });
        total
    }
}

impl Drop for AtticLoopback {
    fn drop(&mut self) {
        // Close the connections first so the handlers see EOF, then
        // join the daemon's threads: no process state outlives a pass.
        self.clients.clear();
        if let Some(daemon) = self.daemon.take() {
            daemon.stop();
        }
    }
}

impl Workload for AtticLoopback {
    const PROFILE: Profile = Profile {
        busy_cpus: 2.0,
        cache: 1.0,
        memory: 0.5,
    };

    fn setup(cfg: &PassConfig) -> Self {
        assert!(
            CLIENTS
                <= std::thread::available_parallelism()
                    .map_or(1, usize::from)
                    .max(2),
            "load is generated by at most nproc threads"
        );
        let ops_per_batch = per_client_batch(cfg);
        let daemon =
            AtticDaemon::spawn(DaemonConfig::default(), new_core()).expect("bind loopback");
        let addr = daemon.addr();
        let epoch = Instant::now();
        let clients = (0..CLIENTS)
            .map(|i| Client::new(Tcp::new(addr), i, cfg, ops_per_batch, epoch))
            .collect();
        let mut w = AtticLoopback {
            _burners: Burners::start(),
            daemon: Some(daemon),
            clients,
            ops_per_batch,
            cfg: cfg.clone(),
            base_connects: Vec::new(),
        };
        for c in &mut w.clients {
            c.seed();
        }
        // Warm-up: one batch, so handler threads, buffers and the
        // version histories are in steady state.
        let warm = w.run_clients(ops_per_batch);
        assert_eq!(warm.failed, 0, "warm-up must be clean");
        w
    }

    fn begin_window(&mut self) {
        self.base_connects = self
            .clients
            .iter()
            .map(|c| c.transport.connect_us.len())
            .collect();
    }

    fn run_batch(&mut self, _index: usize) -> Batch {
        self.run_clients(self.ops_per_batch)
    }

    fn recorders(&mut self) -> Vec<&mut Recorder> {
        self.clients.iter_mut().map(|c| &mut c.rec).collect()
    }

    fn finish(mut self, window: &Window, report: &mut Report) {
        let mut connect_us: Vec<f64> = self
            .clients
            .iter()
            .zip(&self.base_connects)
            .flat_map(|(c, &from)| c.transport.connect_us[from..].iter().copied())
            .collect();
        let mut digest = OpDigest::default();
        for c in &self.clients {
            digest.merge(c.digest);
        }
        report.set("bench.op_stream_digest", digest.value());
        let (p50, tail, _) = stats::median_and_tail(&mut connect_us);
        report.set("connect_us_p50", p50);
        report.set("attic.daemon.connect_p99_us", tail);

        let mut rtts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        if window.traced {
            for span in [
                "attic.daemon.rtt_get",
                "attic.daemon.rtt_put",
                "attic.daemon.rtt_propfind",
            ] {
                let all = self
                    .clients
                    .iter()
                    .flat_map(|c| c.rec.durations_of(span))
                    .collect();
                rtts.insert(span, all);
            }
        }

        self.clients.clear();
        let stats = self.daemon.take().expect("daemon runs until finish").stop();
        report.set("attic.daemon.requests", stats.requests as f64);
        report.set("attic.daemon.connections", stats.connections as f64);
        report.set(
            "attic.daemon.overload_rejects",
            stats.overload_rejects as f64,
        );
        report.set("attic.daemon.bad_frames", stats.bad_frames as f64);
        if stats.overload_rejects + stats.bad_frames > 0 {
            report.failed += stats.overload_rejects + stats.bad_frames;
        }

        if !window.traced {
            return;
        }
        let ops = window.ops.max(1) as f64;
        let per_op = |span: &str| {
            window
                .totals
                .get(span)
                .map_or(0.0, |t| t.self_ns as f64 / ops)
        };
        let encode_request = per_op("http.h1.encode_request");
        let decode_response = per_op("http.h1.decode_response");
        report.set("http.h1.encode_request_ns", encode_request);
        report.set("http.h1.decode_response_ns", decode_response);

        let mut get = rtts.remove("attic.daemon.rtt_get").unwrap_or_default();
        let mut put = rtts.remove("attic.daemon.rtt_put").unwrap_or_default();
        let mut all: Vec<f64> = rtts.into_values().flatten().collect();
        all.extend(&get);
        all.extend(&put);
        let rtt_get_p50_us = stats::median_and_tail(&mut get).0 / 1e3;
        report.set("attic.daemon.rtt_get_p50_us", rtt_get_p50_us);
        report.set(
            "attic.daemon.rtt_put_p50_us",
            stats::median_and_tail(&mut put).0 / 1e3,
        );
        report.set(
            "attic.daemon.rtt_p99_us",
            stats::median_and_tail(&mut all).1 / 1e3,
        );

        // Replay client 0's stream in-process: same seed, same requests,
        // no socket, no second thread, no lock to wait for.
        let mut replay = Client::new(
            InProcess {
                core: new_core(),
                tick: 0,
            },
            0,
            &PassConfig {
                traced: true,
                ..self.cfg.clone()
            },
            self.ops_per_batch,
            Instant::now(),
        );
        replay.seed();
        replay.rec.clear();
        let mut replayed = Batch::default();
        while (replayed.ops as usize) < REPLAY_OPS.min(self.ops_per_batch * BATCHES) {
            let b = replay.run_ops(self.ops_per_batch);
            replayed.ops += b.ops;
            replayed.failed += b.failed;
        }
        report.failed += replayed.failed;
        let mut totals = BTreeMap::new();
        merge_totals(&mut totals, &replay.rec.totals());
        let mean = |span: &str| totals.get(span).map_or(0.0, |t| t.mean_self_ns());
        let decode_request = mean("http.h1.decode_request");
        let serve_get = mean("attic.webdav.serve_get");
        let encode_response = mean("http.h1.encode_response");
        report.set("http.h1.decode_request_ns", decode_request);
        report.set("attic.webdav.serve_get_ns", serve_get);
        report.set("attic.webdav.serve_put_ns", mean("attic.webdav.serve_put"));
        report.set(
            "attic.webdav.serve_propfind_ns",
            mean("attic.webdav.serve_propfind"),
        );
        report.set("http.h1.encode_response_ns", encode_response);
        // What a GET's round trip spends outside the five stages above:
        // syscalls, loopback, the thread hand-off and the lock wait.
        let staged_us =
            (encode_request + decode_request + serve_get + encode_response + decode_response) / 1e3;
        report.set("attic.daemon.overhead_us", rtt_get_p50_us - staged_us);
    }
}

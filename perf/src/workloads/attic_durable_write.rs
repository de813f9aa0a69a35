//! `attic_durable_write` — the WebDAV engine used for writes.
//!
//! In-process, one thread: `DavCore<DurableAttic>` on `SimDisk::new(seed)`
//! with the default `DurabilityConfig`. 50 % PUT 1 KiB, 20 % GET, 10 %
//! LOCK+UNLOCK, 10 % COPY/MOVE, 10 % DELETE/MKCOL over 256 keys in 16
//! directories; a key is DELETEd before its ninth version so the store
//! and its snapshots stay bounded. Ends with nine timed
//! `DurableAttic::open` recoveries of the final disk.
//!
//! What does the work: `Persistent::execute` (op frame + commit
//! marker), snapshot/compaction every 1024 committed ops, the attic's
//! op codec, ETag hashing. Deliberately bypassed: the daemon, sockets
//! and `h1` framing — a daemon change must not move this workload.

use super::dav::{self, Bodies, Oracle, KEYS_PER_DIR, MAX_VERSIONS};
use crate::harness::{Batch, OpDigest, PassConfig, Report, Window, Workload, BATCHES, OP_SPAN};
use crate::micro;
use crate::stats;
use crate::steady::Profile;
use crate::trace::Recorder;
use hpop_attic::{DavCore, DurableAttic, Origin};
use hpop_core::auth::TokenVerifier;
use hpop_durability::DurabilityConfig;
use hpop_http::message::{Method, Request, Response, StatusCode};
use hpop_netsim::storage::{DiskStats, SimDisk};
use hpop_netsim::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Requests per second of measured window on the reference box; sets
/// the op count for a given `--seconds`.
const NOMINAL_OPS_PER_S: f64 = 65_000.0;

const KEYS: usize = 256;
const SCRATCH_DIRS: usize = 64;
const BODY_BYTES: usize = 1024;
const RECOVERIES: usize = 9;
const DIR: &str = "attic";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Put,
    Get,
    Lock,
    CopyMove,
    DeleteMkcol,
}

/// Where a key's shadow copy currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shadow {
    None,
    A,
    B,
}

#[derive(Clone, Copy, Debug, Default)]
struct Baseline {
    disk: DiskStats,
    steps: u64,
    committed: u64,
    snapshots: u64,
}

pub struct AtticDurableWrite {
    core: DavCore<DurableAttic>,
    oracle: Oracle,
    shadows: Vec<Shadow>,
    scratch: Vec<bool>,
    rng: StdRng,
    bodies: Bodies,
    /// Logical clock: one millisecond per request.
    tick: u64,
    mix: Vec<(Kind, usize)>,
    rec: Recorder,
    digest: OpDigest,
    base: Baseline,
    put_bytes_acked: u64,
    /// Approximate payload size of every committed op, for the bare
    /// `Persistent` replay (traced pass only).
    payloads: Vec<u32>,
}

fn snapshots_written() -> u64 {
    hpop_obs::metrics()
        .counter("durability.snapshot.written")
        .get()
}

impl AtticDurableWrite {
    fn serve(&mut self, span: &'static str, req: &Request) -> Response {
        self.tick += 1;
        dav::digest_request(&mut self.digest, req);
        let now = SimTime::from_nanos(self.tick * 1_000_000);
        let core = &mut self.core;
        self.rec.span(span, || core.serve(req, Origin::Local, now))
    }

    fn note_commit(&mut self, payload: usize) {
        if self.rec.enabled() {
            self.payloads.push(payload as u32 + 24);
        }
    }

    /// One PUT, preceded by a DELETE when the key is at its version
    /// cap. Returns whether every response was the one due.
    fn put(&mut self, key: usize) -> bool {
        let path = dav::key_path("", key);
        let mut ok = true;
        if self.oracle.versions(key) >= MAX_VERSIONS {
            let resp = self.serve("attic.webdav.delete", &dav::request(Method::Delete, &path));
            ok &= self.oracle.on_delete(key, &resp);
            self.note_commit(path.len());
        }
        let body = self.bodies.next();
        let len = body.len();
        let resp = self.serve("attic.webdav.put", &dav::put(&path, body));
        if self.oracle.on_put(key, len, &resp) {
            self.put_bytes_acked += len as u64;
        } else {
            ok = false;
        }
        self.note_commit(path.len() + len);
        ok
    }

    fn get(&mut self, key: usize) -> bool {
        let resp = self.serve(
            "attic.webdav.get",
            &dav::request(Method::Get, &dav::key_path("", key)),
        );
        self.oracle.on_get(key, &resp)
    }

    fn lock_unlock(&mut self, key: usize) -> bool {
        let path = dav::key_path("", key);
        let lock = dav::request(Method::Lock, &path)
            .with_header("timeout", "Second-60")
            .with_header("x-lock-owner", "perf");
        let resp = self.serve("attic.webdav.lock", &lock);
        self.note_commit(path.len() + 8);
        let Some(token) = resp.headers.get("lock-token").map(str::to_owned) else {
            return false;
        };
        let unlock = dav::request(Method::Unlock, &path).with_header("lock-token", token);
        let released = self.serve("attic.webdav.lock", &unlock);
        self.note_commit(path.len() + 8);
        resp.status == StatusCode::OK && released.status == StatusCode::NO_CONTENT
    }

    /// COPY the key to its shadow, or MOVE the shadow between its two
    /// names: the destination never exists, so 201 is always due.
    fn copy_move(&mut self, key: usize) -> bool {
        let path = dav::key_path("", key);
        let (method, src, dst, next) = match self.shadows[key] {
            Shadow::None => (Method::Copy, path.clone(), format!("{path}.a"), Shadow::A),
            Shadow::A => (
                Method::Move,
                format!("{path}.a"),
                format!("{path}.b"),
                Shadow::B,
            ),
            Shadow::B => (
                Method::Move,
                format!("{path}.b"),
                format!("{path}.a"),
                Shadow::A,
            ),
        };
        let req = dav::request(method, &src).with_header("destination", dst.clone());
        let resp = self.serve("attic.webdav.copy_move", &req);
        self.note_commit(src.len() + dst.len());
        self.shadows[key] = next;
        resp.status == StatusCode::CREATED
    }

    /// DELETE the key's shadow when it has one; otherwise toggle a
    /// scratch collection (MKCOL it, or DELETE it).
    fn delete_mkcol(&mut self, key: usize) -> bool {
        let (method, path, due) = match self.shadows[key] {
            Shadow::None => {
                let slot = key % SCRATCH_DIRS;
                let path = format!("/scratch/c{slot:02}");
                self.scratch[slot] = !self.scratch[slot];
                if self.scratch[slot] {
                    (Method::MkCol, path, StatusCode::CREATED)
                } else {
                    (Method::Delete, path, StatusCode::NO_CONTENT)
                }
            }
            shadow => {
                let suffix = if shadow == Shadow::A { "a" } else { "b" };
                self.shadows[key] = Shadow::None;
                let path = format!("{}.{suffix}", dav::key_path("", key));
                (Method::Delete, path, StatusCode::NO_CONTENT)
            }
        };
        let resp = self.serve("attic.webdav.delete", &dav::request(method, &path));
        self.note_commit(path.len());
        resp.status == due
    }

    fn run_ops(&mut self) -> Batch {
        let kinds = dav::shuffled_mix(&mut self.rng, &self.mix);
        let mut batch = Batch::default();
        for kind in kinds {
            let key = self.rng.gen_range(0..KEYS);
            self.rec.begin_op();
            let op = self.rec.enter(OP_SPAN);
            let ok = match kind {
                Kind::Put => self.put(key),
                Kind::Get => self.get(key),
                Kind::Lock => self.lock_unlock(key),
                Kind::CopyMove => self.copy_move(key),
                Kind::DeleteMkcol => self.delete_mkcol(key),
            };
            self.rec.exit(op);
            batch.ops += 1;
            batch.failed += u64::from(!ok);
        }
        batch
    }

    fn baseline(&self) -> Baseline {
        let disk = self.core.backend().disk();
        Baseline {
            disk: disk.stats(),
            steps: disk.steps(),
            committed: self.core.backend().committed_seq(),
            snapshots: snapshots_written(),
        }
    }
}

fn mix_for(ops_per_batch: usize) -> Vec<(Kind, usize)> {
    let n = ops_per_batch;
    let (put, get, tenth) = (n / 2, n / 5, n / 10);
    vec![
        (Kind::Put, put),
        (Kind::Get, get),
        (Kind::Lock, tenth),
        (Kind::CopyMove, tenth),
        (Kind::DeleteMkcol, n - put - get - 2 * tenth),
    ]
}

impl Workload for AtticDurableWrite {
    const PROFILE: Profile = Profile {
        busy_cpus: 1.0,
        cache: 0.85,
        memory: 0.55,
    };

    fn setup(cfg: &PassConfig) -> Self {
        let ops_per_batch = ((NOMINAL_OPS_PER_S * cfg.seconds / BATCHES as f64) as usize).max(20);
        let attic = DurableAttic::open(SimDisk::new(cfg.seed), DIR, DurabilityConfig::default())
            .expect("a fresh disk opens");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xa771c_d0ab1e);
        let bodies = Bodies::new(&mut rng, BODY_BYTES);
        // Worst case: two spans per request, two requests per op, plus the op.
        let capacity = ops_per_batch * BATCHES * 5;
        let mut w = AtticDurableWrite {
            core: DavCore::new(attic, TokenVerifier::new([7u8; 32])),
            oracle: Oracle::new(KEYS),
            shadows: vec![Shadow::None; KEYS],
            scratch: vec![false; SCRATCH_DIRS],
            rng,
            bodies,
            tick: 0,
            mix: mix_for(ops_per_batch),
            rec: Recorder::new(cfg.traced, capacity, Instant::now()),
            digest: OpDigest::default(),
            base: Baseline::default(),
            put_bytes_acked: 0,
            payloads: Vec::new(),
        };
        // Seed: the directory tree and one version of every key.
        let mut dirs: Vec<String> = (0..KEYS / KEYS_PER_DIR)
            .map(|d| dav::dir_path("", d))
            .collect();
        dirs.push("/scratch".to_owned());
        for dir in dirs {
            let resp = w.serve("attic.webdav.delete", &dav::request(Method::MkCol, &dir));
            assert_eq!(resp.status, StatusCode::CREATED, "seeding {dir}");
        }
        for key in 0..KEYS {
            assert!(w.put(key), "seeding key {key}");
        }
        // Warm-up: one batch's worth, so the first measured batch
        // already sees multi-version keys, shadows and a snapshot.
        let warm = w.run_ops();
        assert_eq!(warm.failed, 0, "warm-up must be clean");
        w.payloads.clear();
        w.put_bytes_acked = 0;
        w
    }

    fn begin_window(&mut self) {
        self.base = self.baseline();
    }

    fn run_batch(&mut self, _index: usize) -> Batch {
        self.run_ops()
    }

    fn recorders(&mut self) -> Vec<&mut Recorder> {
        vec![&mut self.rec]
    }

    fn finish(self, window: &Window, report: &mut Report) {
        let end = self.baseline();
        let ops = window.ops.max(1) as f64;
        let committed = end.committed - self.base.committed;
        let written = end.disk.bytes_written - self.base.disk.bytes_written;
        report.set("bench.op_stream_digest", self.digest.value());
        report.set("durability.ops_committed", committed as f64);
        report.set(
            "durability.disk_steps_per_op_x1000",
            (end.steps - self.base.steps) as f64 * 1000.0 / ops,
        );
        report.set("durability.bytes_per_op", written as f64 / ops);
        report.set(
            "durability.snapshots",
            (end.snapshots - self.base.snapshots) as f64,
        );
        report.set(
            "write_amp_x1000",
            written as f64 * 1000.0 / self.put_bytes_acked.max(1) as f64,
        );
        report.set(
            "attic.durable.allocs_per_op_x1000",
            window.alloc_calls as f64 * 1000.0 / ops,
        );

        // Recovery: reopen the final disk nine times. The clone is the
        // platters being handed to a new process, not part of recovery.
        let disk = self.core.backend().disk().clone();
        let mut recovery_ms = Vec::with_capacity(RECOVERIES);
        let mut last = None;
        for _ in 0..RECOVERIES {
            let platters = disk.clone();
            let t = Instant::now();
            let reopened = DurableAttic::open(platters, DIR, DurabilityConfig::default())
                .expect("recovery never fails");
            recovery_ms.push(t.elapsed().as_secs_f64() * 1e3);
            last = Some(reopened);
        }
        let reopened = last.expect("nine recoveries ran");
        report.set("recovery_ms", stats::median(&recovery_ms));
        let recovery = reopened.last_recovery();
        report.set(
            "durability.recovery.ops_replayed",
            recovery.ops_replayed as f64,
        );
        report.set(
            "durability.recovery.torn_tails",
            f64::from(u8::from(recovery.torn_tail)),
        );
        // Every acknowledged write must have survived the reopen.
        if reopened.committed_seq() != end.committed {
            report.failed += 1;
        }
        for key in 0..KEYS {
            let got = reopened.store().get(&dav::key_path("", key));
            let resp = match got {
                Ok(v) => Response::ok(v.body.clone()).with_header("etag", v.etag.clone()),
                Err(_) => Response::not_found(),
            };
            if !self.oracle.on_get(key, &resp) {
                report.failed += 1;
            }
        }

        report.set_self_ns("attic.webdav.put_ns", "attic.webdav.put", window);
        report.set_self_ns("attic.webdav.get_ns", "attic.webdav.get", window);
        report.set_self_ns("attic.webdav.lock_ns", "attic.webdav.lock", window);
        report.set_self_ns(
            "attic.webdav.copy_move_ns",
            "attic.webdav.copy_move",
            window,
        );
        report.set_self_ns("attic.webdav.delete_ns", "attic.webdav.delete", window);
        if window.traced {
            let (execute, snapshot) = micro::persistent_replay_ns(&self.payloads, window.seed);
            report.set("durability.persistent.execute_ns", execute);
            report.set("durability.persistent.snapshot_ns", snapshot);
            report.set(
                "crypto.sha256.ns_per_byte_x1000",
                micro::sha256_ns_per_byte_x1000(),
            );
        }
    }
}

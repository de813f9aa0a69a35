//! Fair-share allocator microbenchmarks: the global progressive-filling
//! oracle (`max_min_rates`) versus the incremental bottleneck-set
//! allocator (`FlowNet`), per flow event, at n ∈ {100, 1k, 10k}
//! standing flows on a hierarchical metro city.
//!
//! A flow event for the global allocator is one full `max_min_rates`
//! re-solve of the whole demand set (what the pre-PR engine did on
//! every start/completion/cancel). For the incremental allocator it is
//! one `start_on_hops` + one `cancel` against a warm standing set —
//! the ripple re-solves only the touched bottleneck sets.
//!
//! `main` (a plain `harness = false` binary) runs one deterministic
//! manual timing pass and writes `BENCH_micro.json`
//! (`micro.fairshare.{glob|inc}.n{N}.ns_per_event` plus
//! `micro.fairshare.speedup_n10000_x10`), which CI bounds via
//! `check_snapshot --budget`.
//!
//! That pass is the perf ledger's micro section, so it also carries
//! the coop cache's request path
//! (`micro.coop.try_request.{ns_per_op|allocs_per_op_x1000}`): 64
//! members, a warm Zipf catalogue, overload controls on — and the
//! gossip tick (`micro.fabric.tick.n{64|1024}.ns_per_node`,
//! `micro.fabric.tick.n64.allocs_per_tick_x1000` under churn,
//! `micro.fabric.tick.allocs_per_tick_x1000` quiet) — and the journal's two
//! byte kernels (`micro.durability.crc32.ns_per_byte_x1000`,
//! `micro.durability.snapshot.ns_per_kib`, with
//! `micro.durability.crc32.accelerated` saying which CRC-32 kernel the
//! host gave them) — and NoCDN's two
//! (`micro.crypto.sha256.ns_per_byte_x1000`,
//! `micro.crypto.puzzle.prove_ns_per_kib`, with
//! `micro.crypto.sha256.accelerated` saying the same of SHA-256) — and
//! the attic's folder listing (`micro.attic.propfind_depth1.ns_per_resource`)
//! — and its journaled write, of bytes a version holds and of fresh
//! ones (`micro.attic.{durable_put|durable_put_fresh}.{ns_per_op|allocs_per_op_x1000}`).

use hpop_attic::{AtticBackend, DavCore, DurableAttic, Origin, VolatileBackend};
use hpop_bench::rng::XorShift64;
use hpop_core::auth::TokenVerifier;
use hpop_crypto::crc32;
use hpop_crypto::puzzle::{self, PuzzleChallenge, PuzzleParams};
use hpop_crypto::sha256::Sha256;
use hpop_durability::snapshot::write_snapshot;
use hpop_durability::DurabilityConfig;
use hpop_fabric::gossip::DIGEST_SYNC_EVERY;
use hpop_fabric::{Advertisement, Fabric, FabricConfig, PeerId};
use hpop_http::message::{Method, Request, StatusCode};
use hpop_http::url::Url;
use hpop_internet_home::coop::{CoopCache, CoopOverloadConfig};
use hpop_netsim::churn::ChurnConfig;
use hpop_netsim::fairshare::{max_min_rates, Demand};
use hpop_netsim::faults::FaultPlan;
use hpop_netsim::flow::FlowNet;
use hpop_netsim::presets::{metro, MetroNetwork, MetroParams};
use hpop_netsim::storage::SimDisk;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_netsim::units::Bandwidth;
use hpop_obs::MetricsRegistry;
use hpop_resilience::AdmissionConfig;
use hpop_workloads::WebUniverse;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts allocator calls so the manual pass can report allocs/op
/// (the technique of `netsim/tests/alloc_audit.rs`).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// statistic (`Relaxed`) that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn city_for(flows: usize) -> MetroNetwork {
    metro(&MetroParams {
        homes: (flows * 4).max(128),
        ..MetroParams::default()
    })
}

/// The standing demand set: one uplink flow per pick, every 4th capped.
fn demand_set(city: &MetroNetwork, n: usize) -> Vec<Demand> {
    let mut rng = XorShift64::new(0x5EED ^ n as u64);
    (0..n)
        .map(|i| {
            let h = rng.below(city.home_count() as u64) as usize;
            Demand {
                links: city.up_hops(h).to_vec(),
                cap: (i % 4 == 0).then(|| Bandwidth::mbps(200.0)),
            }
        })
        .collect()
}

/// A `FlowNet` warmed with the same standing set; returns the net and
/// the home picks so churn events can reuse the hops.
fn warm_net(city: &MetroNetwork, n: usize) -> (FlowNet, Vec<usize>) {
    let mut rng = XorShift64::new(0x5EED ^ n as u64);
    let mut net = FlowNet::new(city.topology.clone());
    let mut picks = Vec::with_capacity(n);
    for i in 0..n {
        let h = rng.below(city.home_count() as u64) as usize;
        net.start_on_hops(
            city.homes[h],
            city.backbone,
            &city.up_hops(h),
            u64::MAX / 4, // long-lived: the standing set never drains
            (i % 4 == 0).then(|| Bandwidth::mbps(200.0)),
            SimTime::ZERO,
        );
        picks.push(h);
    }
    (net, picks)
}

/// One incremental flow event: start a transfer on `home`'s uplink,
/// then cancel it — two ripples against the warm standing set.
fn inc_event(net: &mut FlowNet, city: &MetroNetwork, home: usize, at: SimTime) {
    let id = net.start_on_hops(
        city.homes[home],
        city.backbone,
        &city.up_hops(home),
        u64::MAX / 4,
        None,
        at,
    );
    net.cancel(id, at);
}

const SIZES: [usize; 3] = [100, 1_000, 10_000];

/// `CoopCache::try_request_at` on a 64-member neighborhood with
/// overload controls on (never saturated, so nothing is refused): the
/// first half of a seeded Zipf request stream warms the catalogue, the
/// second half — same law, so mostly cached objects plus the tail's
/// first sightings — is timed. Returns `(ns per op, allocations per
/// op × 1000)`.
fn coop_try_request() -> (u64, u64) {
    const MEMBERS: u32 = 64;
    const CATALOGUE: usize = 20_000;
    const OPS: usize = 200_000;
    let mut rng = StdRng::seed_from_u64(0xc00b);
    let universe = WebUniverse::generate(CATALOGUE, 0.9, 30_000, &mut rng);
    let urls: Vec<Url> = universe
        .objects()
        .iter()
        .map(|o| Url::https("web.example", &o.path))
        .collect();
    let stream: Vec<(u32, usize)> = (0..2 * OPS)
        .map(|_| (rng.gen_range(0..MEMBERS), universe.sample_rank(&mut rng)))
        .collect();
    let mut coop = CoopCache::new(MEMBERS);
    coop.enable_overload(
        CoopOverloadConfig {
            admission: AdmissionConfig {
                rate_per_sec: 10_000.0,
                burst: 10_000.0,
                ..AdmissionConfig::default()
            },
        },
        SimTime::ZERO,
    );
    // One request per simulated millisecond: a tenth of the admission rate.
    let mut now = SimTime::ZERO;
    let mut run = |requests: &[(u32, usize)]| {
        for &(member, rank) in requests {
            now += SimDuration::from_millis(1);
            let served = coop.try_request_at(member, &urls[rank], 30_000, now);
            assert!(black_box(served).is_ok(), "never saturated");
        }
    };
    let (warm_up, timed) = stream.split_at(OPS);
    run(warm_up);
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed);
    let started = Instant::now();
    run(timed);
    let ns = started.elapsed().as_nanos() as u64;
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs;
    (ns / OPS as u64, allocs * 1000 / OPS as u64)
}

fn fabric_of(n: usize) -> Fabric {
    let mut fabric = Fabric::new(FabricConfig::default());
    for i in 0..n {
        fabric.join(Advertisement {
            rtt_ms: 2.0 + (i % 11) as f64 * 4.0,
            ..Advertisement::default()
        });
    }
    fabric
}

/// `Fabric::tick` per up node at neighbourhood scale: 64 members under
/// the paper churn preset for an hour of one-second periods, the
/// `coop_neighborhood` regime. Only the ticks are timed and their
/// allocations counted; the `set_up` calls between them are the
/// churn's cost, not the tick's. Returns `(ns per up node, allocations
/// per tick × 1000)`: unlike the quiet fabric's row, these ticks carry
/// piggybacked deltas, suspicions and rejoin digests.
fn fabric_tick_n64_churned() -> (u64, u64) {
    const MEMBERS: usize = 64;
    const SECS: u64 = 3_600;
    let churn = FaultPlan::generate(
        MEMBERS,
        ChurnConfig::paper_preset(0xfab),
        SimTime::from_secs(SECS),
    );
    let mut fabric = fabric_of(MEMBERS);
    let mut events = Vec::new();
    let (mut ns, mut node_ticks, mut allocs) = (0u64, 0u64, 0u64);
    for s in 0..SECS {
        churn.transitions_into(
            SimTime::from_secs(s),
            SimTime::from_secs(s + 1),
            &mut events,
        );
        for ev in &events {
            fabric.set_up(PeerId(ev.node as u64), ev.up);
        }
        node_ticks += (0..MEMBERS as u64)
            .filter(|&i| fabric.is_up(PeerId(i)))
            .count() as u64;
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let started = Instant::now();
        black_box(fabric.tick());
        ns += started.elapsed().as_nanos() as u64;
        allocs += ALLOC_CALLS.load(Ordering::Relaxed) - before;
    }
    (ns / node_ticks, allocs * 1000 / SECS)
}

/// `Fabric::tick` per node at city-block scale: 1,024 members, timed
/// after a fixed 400 rounds — every table complete, every queue still
/// retransmitting join deltas, so each ping and ack carries a full
/// piggyback. A node's round must not depend on the table's length;
/// one walk of a 1,024-record table per node would multiply this row.
fn fabric_tick_n1024() -> u64 {
    const MEMBERS: usize = 1_024;
    const WARM_ROUNDS: u32 = 400;
    const ROUNDS: u32 = 20;
    let mut fabric = fabric_of(MEMBERS);
    fabric.run_rounds(WARM_ROUNDS);
    let started = Instant::now();
    fabric.run_rounds(ROUNDS);
    started.elapsed().as_nanos() as u64 / (ROUNDS as u64 * MEMBERS as u64)
}

/// Allocations per tick (× 1000) of a quiet 64-member fabric once the
/// join deltas have drained, over two full digest-sync cycles.
fn fabric_tick_allocs() -> u64 {
    let mut fabric = fabric_of(64);
    let cycle = DIGEST_SYNC_EVERY as u32;
    fabric.run_rounds(3 * cycle);
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed);
    fabric.run_rounds(2 * cycle);
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs;
    allocs * 1000 / (2 * cycle as u64)
}

/// 1 MiB of seeded noise for the byte kernels: the size of the attic's
/// steady-state snapshot and of the largest object a NoCDN page
/// carries.
fn kernel_input() -> Vec<u8> {
    let mut rng = XorShift64::new(0xc4c);
    (0..1 << 20).map(|_| rng.below(256) as u8).collect()
}

/// The fastest of a few rounds of `f`: interference only ever slows
/// one.
fn fastest_ns(mut f: impl FnMut()) -> u64 {
    const ROUNDS: usize = 16;
    let round = |_| {
        let started = Instant::now();
        f();
        started.elapsed().as_nanos() as u64
    };
    (0..ROUNDS).map(round).min().expect("ROUNDS > 0")
}

/// The journal's two byte kernels over 1 MiB: `(CRC-32 ns per byte ×
/// 1000, write_snapshot ns per KiB)`. A snapshot is one pass to lay
/// the file out, one CRC pass and the sector-by-sector copy onto a
/// fresh `SimDisk`.
fn durability_kernels(buf: &[u8]) -> (u64, u64) {
    let crc_ns = fastest_ns(|| {
        black_box(crc32(black_box(buf)));
    });
    let snap_ns = fastest_ns(|| {
        let mut disk = SimDisk::new(0xc4c);
        write_snapshot(&mut disk, "micro", 1, black_box(buf)).expect("no crash armed");
        black_box(disk);
    });
    let bytes = buf.len() as u64;
    (crc_ns * 1000 / bytes, snap_ns * 1024 / bytes)
}

/// NoCDN's two per-served-byte costs over 1 MiB: `(SHA-256 ns per byte
/// × 1000, puzzle prove ns per KiB served)` — the client's verify pass
/// and the peer's proof of serving at the default difficulty, which
/// walks every byte twice (cover + jump).
fn crypto_kernels(buf: &[u8]) -> (u64, u64) {
    let sha_ns = fastest_ns(|| {
        black_box(Sha256::digest(black_box(buf)));
    });
    let challenge = PuzzleChallenge([9; 32]);
    let prove_ns = fastest_ns(|| {
        black_box(puzzle::solve(
            &challenge,
            black_box(buf),
            &PuzzleParams::default(),
        ));
    });
    let bytes = buf.len() as u64;
    (sha_ns * 1000 / bytes, prove_ns * 1024 / bytes)
}

/// `PROPFIND` Depth 1 through `DavCore::serve` on a 16-key directory
/// of 4 KiB files, two versions each — the `attic_loopback` layout, and
/// the call a WebDAV client makes on every folder open. Returns ns per
/// listed resource (the directory and its 16 keys: 17).
fn attic_propfind_depth1() -> u64 {
    const KEYS: usize = 16;
    const CALLS: u64 = 256;
    let url = |path: &str| Url::new("http", "attic.home", path);
    let mut core = DavCore::new(VolatileBackend::new(), TokenVerifier::new([7u8; 32]));
    let mut serve = |req: &Request| core.serve(req, Origin::Local, SimTime::from_secs(1));
    assert_eq!(
        serve(&Request::new(Method::MkCol, url("/d00"))).status,
        StatusCode::CREATED
    );
    for key in 0..KEYS {
        for version in 0..2u8 {
            let put = Request::put(url(&format!("/d00/k{key:02}")), vec![version; 4096]);
            assert!(serve(&put).status.is_success());
        }
    }
    let listing = Request::new(Method::PropFind, url("/d00")).with_header("depth", "1");
    let ns = fastest_ns(|| {
        for _ in 0..CALLS {
            black_box(serve(black_box(&listing)));
        }
    });
    ns / (CALLS * (KEYS as u64 + 1))
}

/// `PUT` of a 1 KiB body through `DavCore<DurableAttic>` on a warm
/// 256-key store under the default journal configuration — one op
/// frame per PUT, a snapshot every 1,024 ops — so the
/// write path of `attic_durable_write` without its op mix. After each
/// round of 256 PUTs every key is pruned back to its current version,
/// untimed, so the store and its snapshots stay the size of 256 keys.
///
/// With `fresh` false every round re-PUTs the bytes each key holds, so
/// no PUT writes a blob file. With `fresh` true every PUT carries bytes
/// no version holds, stamped untimed before the round: each writes its
/// blob file, and the files the prunes release are deleted inside the
/// timed PUTs whose snapshots collect them.
/// Returns `(ns per PUT, allocations per PUT × 1000)`.
fn attic_durable_put(fresh: bool) -> (u64, u64) {
    const KEYS: usize = 256;
    const ROUNDS: usize = 64;
    let path = |key: usize| format!("/d{:02}/k{:02}", key / 16, key % 16);
    let url = |path: &str| Url::new("http", "attic.home", path);
    let attic = DurableAttic::open(SimDisk::new(0xa771c), "attic", DurabilityConfig::default())
        .expect("a fresh disk opens");
    let mut core = DavCore::new(attic, TokenVerifier::new([7u8; 32]));
    let now = SimTime::from_secs(1);
    for dir in 0..KEYS / 16 {
        let mkcol = Request::new(Method::MkCol, url(&format!("/d{dir:02}")));
        assert_eq!(
            core.serve(&mkcol, Origin::Local, now).status,
            StatusCode::CREATED
        );
    }
    let mut rng = XorShift64::new(0xd0ab1e);
    let paths: Vec<String> = (0..KEYS).map(path).collect();
    let bodies: Vec<Vec<u8>> = (0..KEYS)
        .map(|_| (0..1024).map(|_| rng.below(256) as u8).collect())
        .collect();
    // Round `stamp`'s PUTs: the bodies as they are, or with the round
    // number over their first eight bytes.
    let puts_for = |stamp: u64| -> Vec<Request> {
        let stamped = |body: &Vec<u8>| {
            let mut body = body.clone();
            if fresh {
                body[..8].copy_from_slice(&stamp.to_le_bytes());
            }
            body
        };
        let requests = paths.iter().zip(&bodies);
        requests
            .map(|(path, body)| Request::put(url(path), stamped(body)))
            .collect()
    };
    let round = |core: &mut DavCore<DurableAttic>, puts: &[Request]| {
        for put in puts {
            let served = core.serve(black_box(put), Origin::Local, now);
            assert!(served.status.is_success());
        }
    };
    let mut puts = puts_for(0);
    round(&mut core, &puts);
    let (mut ns, mut allocs) = (0, 0);
    for stamp in 1..=ROUNDS as u64 {
        if fresh {
            puts = puts_for(stamp);
        }
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let started = Instant::now();
        round(&mut core, &puts);
        ns += started.elapsed().as_nanos() as u64;
        allocs += ALLOC_CALLS.load(Ordering::Relaxed) - before;
        for path in &paths {
            let pruned = core.backend_mut().prune(path, 0, SimTime::ZERO);
            pruned
                .expect("no crash armed")
                .expect("every key is a file");
        }
    }
    let puts = (ROUNDS * KEYS) as u64;
    (ns / puts, allocs * 1000 / puts)
}

/// Deterministic manual pass: times `iters` events of each kind and
/// writes the `micro.*` counters CI budget-checks.
fn write_micro_snapshot() {
    let metrics = MetricsRegistry::new();
    let pass_started = Instant::now();
    let mut speedup_10k = 0.0;
    for &n in &SIZES {
        let city = city_for(n);
        let demands = demand_set(&city, n);
        // Global: full re-solves. 10k flows cost ~ms each; a handful is
        // plenty for a per-event figure.
        let iters = (200_000 / n).clamp(5, 400) as u32;
        let started = Instant::now();
        for _ in 0..iters {
            black_box(max_min_rates(&city.topology, &demands));
        }
        let glob_ns = started.elapsed().as_nanos() as u64 / iters as u64;

        let (mut net, picks) = warm_net(&city, n);
        let inc_iters = 20_000u32;
        let mut t = SimTime::from_nanos(1);
        let started = Instant::now();
        for i in 0..inc_iters as usize {
            inc_event(&mut net, &city, picks[i % picks.len()], t);
            t += SimDuration::from_nanos(1);
        }
        // An inc event is a start + a cancel = two ripples; report per
        // ripple so the comparison with one global re-solve is fair.
        let inc_ns = (started.elapsed().as_nanos() as u64 / inc_iters as u64 / 2).max(1);

        metrics
            .counter(&format!("micro.fairshare.glob.n{n}.ns_per_event"))
            .add(glob_ns);
        metrics
            .counter(&format!("micro.fairshare.inc.n{n}.ns_per_event"))
            .add(inc_ns);
        if n == 10_000 {
            speedup_10k = glob_ns as f64 / inc_ns as f64;
        }
    }
    metrics
        .counter("micro.fairshare.speedup_n10000_x10")
        .add((speedup_10k * 10.0) as u64);
    let (coop_ns, coop_allocs) = coop_try_request();
    metrics
        .counter("micro.coop.try_request.ns_per_op")
        .add(coop_ns);
    metrics
        .counter("micro.coop.try_request.allocs_per_op_x1000")
        .add(coop_allocs);
    let ((tick_n64, tick_n64_allocs), tick_n1024, tick_allocs) = (
        fabric_tick_n64_churned(),
        fabric_tick_n1024(),
        fabric_tick_allocs(),
    );
    metrics
        .counter("micro.fabric.tick.n64.ns_per_node")
        .add(tick_n64);
    metrics
        .counter("micro.fabric.tick.n64.allocs_per_tick_x1000")
        .add(tick_n64_allocs);
    metrics
        .counter("micro.fabric.tick.n1024.ns_per_node")
        .add(tick_n1024);
    metrics
        .counter("micro.fabric.tick.allocs_per_tick_x1000")
        .add(tick_allocs);
    let kernel_input = kernel_input();
    let (crc_ns_per_byte_x1000, snapshot_ns_per_kib) = durability_kernels(&kernel_input);
    metrics
        .counter("micro.durability.crc32.ns_per_byte_x1000")
        .add(crc_ns_per_byte_x1000);
    metrics
        .counter("micro.durability.snapshot.ns_per_kib")
        .add(snapshot_ns_per_kib);
    // Which CRC-32 kernel the two rows above timed: 1 on carry-less
    // multiply, 0 on slicing-by-16 (whose numbers the budgets are set
    // for).
    metrics
        .counter("micro.durability.crc32.accelerated")
        .add(u64::from(crc32::kernel() == "pclmul"));
    let (sha_ns_per_byte_x1000, prove_ns_per_kib) = crypto_kernels(&kernel_input);
    metrics
        .counter("micro.crypto.sha256.ns_per_byte_x1000")
        .add(sha_ns_per_byte_x1000);
    metrics
        .counter("micro.crypto.puzzle.prove_ns_per_kib")
        .add(prove_ns_per_kib);
    // Which kernel the two rows above timed: 1 on the SHA extensions,
    // 0 on the portable path (whose numbers the budgets are set for).
    metrics
        .counter("micro.crypto.sha256.accelerated")
        .add(u64::from(Sha256::kernel() == "sha-ni"));
    let propfind_ns = attic_propfind_depth1();
    metrics
        .counter("micro.attic.propfind_depth1.ns_per_resource")
        .add(propfind_ns);
    let puts = [(false, "durable_put"), (true, "durable_put_fresh")].map(|(fresh, name)| {
        let (ns, allocs) = attic_durable_put(fresh);
        let counter = |unit: &str| metrics.counter(&format!("micro.attic.{name}.{unit}"));
        counter("ns_per_op").add(ns);
        counter("allocs_per_op_x1000").add(allocs);
        (ns, allocs as f64 / 1000.0)
    });
    let [(put_ns, put_allocs), (fresh_ns, fresh_allocs)] = puts;
    // The harness markers `check_snapshot` requires of every snapshot
    // (this one is written by the bench itself, not `harness::run`).
    metrics.counter("exp.tables").add(0);
    metrics
        .gauge("exp.wall_ms")
        .set(pass_started.elapsed().as_secs_f64() * 1e3);
    // `cargo bench` sets the cwd to the package dir; the committed
    // artifact lives at the workspace root next to the other BENCH_*.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");
    let snap = metrics.snapshot("micro");
    if let Err(e) = snap.write_to(out) {
        eprintln!("bench_fairshare: cannot write {out}: {e}");
    }
    println!(
        "fairshare micro: 10k-flow event {speedup_10k:.0}x faster incrementally; \
         coop try_request {coop_ns} ns/op, {:.3} allocs/op; \
         gossip tick {tick_n64} ns/node and {:.3} allocs/tick at n=64 churned, \
         {tick_n1024} ns/node at n=1024, {:.3} allocs/tick quiet; crc32 ({}) {:.3} ns/B, snapshot {snapshot_ns_per_kib} ns/KiB; \
         sha256 ({}) {:.3} ns/B, puzzle prove {prove_ns_per_kib} ns/KiB; \
         PROPFIND depth 1 {propfind_ns} ns/resource; durable PUT {put_ns} ns, \
         {put_allocs:.3} allocs, of fresh bytes {fresh_ns} ns, {fresh_allocs:.3} allocs \
         (BENCH_micro.json written)",
        coop_allocs as f64 / 1000.0,
        tick_n64_allocs as f64 / 1000.0,
        tick_allocs as f64 / 1000.0,
        crc32::kernel(),
        crc_ns_per_byte_x1000 as f64 / 1000.0,
        Sha256::kernel(),
        sha_ns_per_byte_x1000 as f64 / 1000.0,
    );
}

fn main() {
    write_micro_snapshot();
}

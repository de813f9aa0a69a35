//! `nocdn_pageload` — the paper's headline service.
//!
//! In-process, one thread. A provider with 64 pages (Zipf α = 0.8;
//! 4–12 objects each, 8 KiB–1 MiB log-uniform) and 32 recruited peers
//! whose availability, corruption and latency at each instant come
//! from `FaultPlan::generate(chaos_preset(..))`, as in E20. The
//! accountability puzzle is on. Two op kinds, 3:1:
//!
//! - **page_view**: `PeerDirectory::assign` → `WrapperPage::generate`
//!   → durable issuance → `PageLoader::load`;
//! - **media_fetch**: `ResilientFetcher::fetch` of a 1 MiB object in
//!   eight chunks.
//!
//! At the end of every batch the peers `upload_records` and the provider
//! runs `DurableAccounting::settle_with` on each.
//!
//! What does the work: SHA-256 (the wrapper hashes every object, the
//! loader hashes it again, the puzzle walks it a third time), chunk
//! assembly copies, the resilience gates, the accounting WAL.
//! Deliberately bypassed: sockets and the flow engine — latency here
//! comes from the fault plan's oracle, not from netsim flows.
//!
//! With only a few hundred ops in a window and objects spanning two
//! decades of size, which pages a run happens to draw would move its
//! cost by more than any change to the code. So the catalogue is a
//! fixture (built from a constant, not from `--seed`), the page views of
//! a window are the Zipf law's expected counts rather than draws from
//! it, and they are dealt into the 25 batches so that every batch hashes
//! about the same number of bytes. The fault plan is a fixture as well
//! (`chaos_preset` of a constant): a plan with twice the outages makes
//! every page view half as expensive. For the same reason every batch
//! walks the plan's whole 900 s timeline once (the services see a clock
//! that only moves forward; the plan is asked about that clock modulo
//! its horizon): a batch that happened to fall into a partition would
//! otherwise cost half of one that did not; and the order of ops within
//! a batch is fixed, because where a 10 MiB page meets an outage decides
//! what the batch costs. The seed decides the peer assignments, the
//! media choices and which requests the plan's loss windows drop.
//!
//! `WrapperPage::generate` only takes a volatile `Accounting`, so the
//! driver generates against a scratch one and mirrors each issuance
//! into the `DurableAccounting` (the derived keys must agree).

use crate::harness::{Batch, OpDigest, PassConfig, Report, Window, Workload, BATCHES, OP_SPAN};
use crate::micro;
use crate::stats;
use crate::steady::Profile;
use crate::trace::Recorder;
use hpop_crypto::puzzle::PuzzleParams;
use hpop_crypto::sha256::{Digest, Sha256};
use hpop_durability::DurabilityConfig;
use hpop_netsim::faults::{FaultConfig, FaultPlan, PeerMode};
use hpop_netsim::storage::SimDisk;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_nocdn::select::{PeerDirectory, PeerInfo};
use hpop_nocdn::{
    Accounting, ContentProvider, DurableAccounting, NoCdnPeer, PageLoader, PageSpec, PeerBehavior,
    PeerId, PuzzleSpec, ResilientFetcher, SelectionPolicy, WrapperPage,
};
use hpop_resilience::Deadline;
use hpop_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Ops per second of measured window on the reference box; sets the op
/// count for a given `--seconds`.
const NOMINAL_OPS_PER_S: f64 = 40.0;

const HOST: &str = "cdn.example";
const PAGES: usize = 64;
const PEERS: u32 = 32;
const MEDIA: usize = 4;
const MEDIA_BYTES: usize = 1 << 20;
const MEDIA_CHUNKS: usize = 8;
const MASTER: [u8; 32] = [42u8; 32];
/// The client is node 0 of the fault plan; peer `i` is node `i`.
const CLIENT_NODE: usize = 0;
const BASE_LATENCY: SimDuration = SimDuration::from_millis(10);
/// The fault plan's horizon, E20's. The chaos preset's episode lengths
/// are absolute, so a shorter horizon would be mostly outage.
const HORIZON: SimDuration = SimDuration::from_secs(900);

/// The catalogue and the fault plan are the same for every seed (see
/// the module docs).
const CATALOGUE_SEED: u64 = 0x0c_d9a6e;
const FAULT_PLAN_SEED: u64 = 11;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// View the page with this index.
    PageView(usize),
    MediaFetch,
}

/// `views` page indices following `zipf`'s expected counts (largest
/// remainder), dealt into `bins` bins of equal size so that the bins'
/// byte totals are as equal as a greedy deal makes them.
fn balanced_views(zipf: &Zipf, page_bytes: &[u64], views: usize, bins: usize) -> Vec<Vec<usize>> {
    let pages = page_bytes.len();
    let exact: Vec<f64> = (0..pages).map(|p| zipf.pmf(p) * views as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pages).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a].fract(), exact[b].fract());
        rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
    });
    let short = views - counts.iter().sum::<usize>();
    for &p in by_remainder.iter().take(short) {
        counts[p] += 1;
    }
    let mut all: Vec<usize> = (0..pages)
        .flat_map(|p| std::iter::repeat_n(p, counts[p]))
        .collect();
    all.sort_by(|&a, &b| page_bytes[b].cmp(&page_bytes[a]).then(a.cmp(&b)));
    let per_bin = views / bins;
    let mut out = vec![Vec::with_capacity(per_bin); bins];
    let mut load = vec![0u64; bins];
    for page in all {
        let bin = (0..bins)
            .filter(|&b| out[b].len() < per_bin)
            .min_by_key(|&b| (load[b], b))
            .expect("views is a multiple of bins");
        out[bin].push(page);
        load[bin] += page_bytes[page];
    }
    out
}

/// What a peer is to the client at one instant of the fault plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Face {
    /// Crashed, partitioned away, or this request was lost.
    Absent,
    Honest,
    Corrupt,
}

/// The 32 peers. `NoCdnPeer` fixes its behaviour at construction, and
/// rebuilding peers per request (as E20 does) would empty their
/// caches; so each peer exists as an honest appliance plus a
/// corrupting twin, and the map handed to the loader holds whichever
/// face the fault plan shows right now.
struct Fleet {
    active: BTreeMap<PeerId, NoCdnPeer>,
    honest: BTreeMap<PeerId, NoCdnPeer>,
    corrupt: BTreeMap<PeerId, NoCdnPeer>,
    face: Vec<Face>,
}

impl Fleet {
    fn new() -> Fleet {
        let ids = (1..=PEERS).map(PeerId);
        Fleet {
            active: BTreeMap::new(),
            honest: ids.clone().map(|id| (id, NoCdnPeer::new(id))).collect(),
            corrupt: ids
                .map(|id| {
                    (
                        id,
                        NoCdnPeer::with_behavior(id, PeerBehavior::CorruptsContent),
                    )
                })
                .collect(),
            face: vec![Face::Absent; PEERS as usize + 1],
        }
    }

    fn show(&mut self, id: PeerId, face: Face) {
        let slot = &mut self.face[id.0 as usize];
        if *slot == face {
            return;
        }
        if let Some(peer) = self.active.remove(&id) {
            match *slot {
                Face::Corrupt => self.corrupt.insert(id, peer),
                _ => self.honest.insert(id, peer),
            };
        }
        let next = match face {
            Face::Absent => None,
            Face::Honest => self.honest.remove(&id),
            Face::Corrupt => self.corrupt.remove(&id),
        };
        if let Some(peer) = next {
            self.active.insert(id, peer);
        }
        *slot = face;
    }

    fn all_mut(&mut self) -> impl Iterator<Item = &mut NoCdnPeer> {
        self.active
            .values_mut()
            .chain(self.honest.values_mut())
            .chain(self.corrupt.values_mut())
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    corrupted: u64,
    unavailable: u64,
    hedged_chunks: u64,
    fallback_chunks: u64,
    corrupt_peers: u64,
    settled: u64,
    rejected: u64,
    delivered_bytes: u64,
    settled_bytes: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Baseline {
    origin_bytes: u64,
    disk_written: u64,
    puzzle_verify_bytes: u64,
}

pub struct NocdnPageload {
    provider: ContentProvider,
    directory: PeerDirectory,
    fleet: Fleet,
    acct: DurableAccounting,
    puzzle: PuzzleSpec,
    fetcher: ResilientFetcher,
    plan: FaultPlan,
    zipf: Zipf,
    /// The measured batches' ops: page views balanced by bytes, media
    /// fetches, in an order that is part of the fixture.
    schedule: Vec<Vec<Op>>,
    /// Per page: container path and every object path, container first.
    pages: Vec<(String, Vec<String>)>,
    media: Vec<(String, Digest)>,
    order: Vec<PeerId>,
    rng: StdRng,
    /// Ops so far; op `n` is client `n`.
    op: u64,
    /// Simulated time between ops: a batch spans [`HORIZON`].
    spacing: SimDuration,
    /// Verified bytes each peer delivered in page views: what must end
    /// up payable.
    verified: BTreeMap<PeerId, u64>,
    fetch_ms: Vec<f64>,
    counts: Counts,
    base: Baseline,
    rec: Recorder,
    digest: OpDigest,
}

fn puzzle_verify_bytes() -> u64 {
    hpop_obs::metrics()
        .counter("nocdn.acct.puzzle.verify_bytes")
        .get()
}

fn random_body(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut body = vec![0u8; len];
    for word in body.chunks_mut(8) {
        let bytes = rng.next_u64().to_le_bytes();
        word.copy_from_slice(&bytes[..word.len()]);
    }
    body
}

impl NocdnPageload {
    /// Projects the fault plan at plan-time `now` onto the fleet.
    fn project(&mut self, now: SimTime) {
        for node in 1..=PEERS as usize {
            let loss = self.plan.loss(CLIENT_NODE, node, now);
            let lost = loss > 0.0 && self.rng.gen::<f64>() < loss;
            let face = if lost || !self.plan.reachable(CLIENT_NODE, node, now) {
                Face::Absent
            } else if self.plan.peer_mode(node, now) == PeerMode::Corrupt {
                Face::Corrupt
            } else {
                Face::Honest
            };
            self.fleet.show(PeerId(node as u32), face);
        }
    }

    fn page_view(&mut self, page: usize, client: u64) -> bool {
        let (container, objects) = &self.pages[page];
        let (directory, rng) = (&mut self.directory, &mut self.rng);
        let assignments = self.rec.span("nocdn.select.assign", || {
            directory.assign(objects, SelectionPolicy::Random, rng)
        });

        self.digest.feed(page as u64);
        for (path, peer) in &assignments {
            self.digest.feed_bytes(path.as_bytes());
            self.digest.feed(u64::from(peer.0));
        }

        let mut scratch = Accounting::new();
        scratch.set_puzzle(self.puzzle);
        let provider = &mut self.provider;
        let wrapper = self.rec.span("nocdn.wrapper.generate", || {
            WrapperPage::generate(
                provider,
                container,
                client,
                &assignments,
                &mut scratch,
                &MASTER,
                false,
            )
        });

        // The durable provider issues what the wrapper promised.
        let issue = self.rec.enter("nocdn.durable.issue");
        let mut keys_agree = true;
        for (&peer, key) in &wrapper.peer_keys {
            let mine: Vec<String> = wrapper
                .object_map
                .iter()
                .filter(|&(_, &p)| p == peer)
                .map(|(path, _)| path.clone())
                .collect();
            let max_bytes: u64 = mine
                .iter()
                .map(|p| self.provider.peek_object(p).map_or(0, |b| b.len() as u64))
                .sum();
            let issued = self
                .acct
                .issue_with_objects(client, peer, max_bytes, &mine, &MASTER)
                .expect("no crash armed");
            keys_agree &= issued == *key;
        }
        self.rec.exit(issue);

        let mut loader = PageLoader::new(client);
        let (peers, provider) = (&mut self.fleet.active, &mut self.provider);
        let (report, body) = self.rec.span("nocdn.loader.load", || {
            loader.load(&wrapper, peers, provider)
        });

        self.counts.corrupted += report.corrupted.len() as u64;
        self.counts.unavailable += report.unavailable.len() as u64;
        self.counts.delivered_bytes += report.page_bytes;
        for (&peer, &bytes) in &report.bytes_from_peers {
            *self.verified.entry(PeerId(peer)).or_default() += bytes;
        }
        keys_agree && report.complete() && body.len() as u64 == report.page_bytes
    }

    /// `start` is the services' clock, `plan_time` the fault plan's.
    fn media_fetch(&mut self, start: SimTime, plan_time: SimTime) -> bool {
        let (path, digest) = &self.media[self.rng.gen_range(0..MEDIA)];
        self.order.rotate_left(1);
        self.digest.feed_bytes(path.as_bytes());
        self.digest.feed(plan_time.as_nanos());
        let plan = &self.plan;
        let latency_of = |p: PeerId| {
            let node = p.0 as usize;
            let service = match plan.peer_mode(node, plan_time) {
                // A 1 %-rate peer takes 100x as long to serve.
                PeerMode::Slow(rate) => {
                    SimDuration::from_secs_f64(BASE_LATENCY.as_secs_f64() / rate.max(1e-6))
                }
                _ => BASE_LATENCY,
            };
            service + plan.extra_delay(CLIENT_NODE, node, plan_time)
        };
        let mut now = start;
        let deadline = Deadline::after(start, SimDuration::from_secs(30));
        let (fetcher, order, peers, provider) = (
            &mut self.fetcher,
            &self.order,
            &mut self.fleet.active,
            &mut self.provider,
        );
        let (report, body) = self.rec.span("nocdn.chunked.fetch", || {
            fetcher.fetch(
                path,
                MEDIA_CHUNKS,
                digest,
                order,
                peers,
                provider,
                deadline,
                &mut now,
                &latency_of,
            )
        });
        self.counts.hedged_chunks += report.hedged_chunks as u64;
        self.counts.fallback_chunks += report.fallback_chunks as u64;
        self.counts.corrupt_peers += report.corrupt_peers.len() as u64;
        self.counts.delivered_bytes += body.len() as u64;
        self.fetch_ms
            .push(now.saturating_since(start).as_secs_f64() * 1e3);
        report.verified && body.len() == MEDIA_BYTES
    }

    /// Peers upload their records; the provider settles each durably.
    /// Returns how many honest records were refused (all of them are
    /// honest here, so any refusal is a failure).
    fn settle_round(&mut self) -> u64 {
        let round = self.rec.enter("nocdn.settle_round");
        let fleet = &mut self.fleet;
        let records: Vec<_> = self.rec.span("nocdn.peer.upload_records", || {
            fleet
                .all_mut()
                .flat_map(NoCdnPeer::upload_records)
                .collect()
        });
        let mut refused = 0;
        for record in &records {
            let (acct, provider) = (&mut self.acct, &self.provider);
            let verdict = self.rec.span("nocdn.durable.settle", || {
                acct.settle_with(record, |path| provider.peek_object(path).cloned())
            });
            match verdict.expect("no crash armed") {
                Ok(()) => {
                    self.counts.settled += 1;
                    self.counts.settled_bytes += record.bytes;
                }
                Err(_) => {
                    self.counts.rejected += 1;
                    refused += 1;
                }
            }
        }
        self.rec.exit(round);
        refused
    }

    /// Runs one batch's ops in the order given.
    fn run_ops(&mut self, ops: &[Op]) -> Batch {
        let mut batch = Batch::default();
        for &kind in ops {
            self.op += 1;
            let now = SimTime::ZERO + self.spacing * self.op;
            let plan_time = SimTime::from_nanos(now.as_nanos() % HORIZON.as_nanos());
            self.rec.begin_op();
            let op = self.rec.enter(OP_SPAN);
            self.project(plan_time);
            let ok = match kind {
                Op::PageView(page) => self.page_view(page, self.op),
                Op::MediaFetch => self.media_fetch(now, plan_time),
            };
            self.rec.exit(op);
            batch.ops += 1;
            batch.failed += u64::from(!ok);
        }
        batch.failed += self.settle_round();
        batch
    }

    fn baseline(&self) -> Baseline {
        Baseline {
            origin_bytes: self.provider.origin_bytes,
            disk_written: self.acct.disk().stats().bytes_written,
            puzzle_verify_bytes: puzzle_verify_bytes(),
        }
    }
}

impl Workload for NocdnPageload {
    const PROFILE: Profile = Profile {
        busy_cpus: 1.0,
        cache: 0.5,
        memory: 0.5,
    };

    fn setup(cfg: &PassConfig) -> Self {
        let ops_per_batch = ((NOMINAL_OPS_PER_S * cfg.seconds / BATCHES as f64) as usize).max(4);
        let mut rng = StdRng::seed_from_u64(CATALOGUE_SEED);

        let mut provider = ContentProvider::new(HOST);
        let mut pages = Vec::with_capacity(PAGES);
        for p in 0..PAGES {
            let container = format!("/p{p:02}/index.html");
            let n_objects = rng.gen_range(4..=12usize);
            let mut objects = vec![container.clone()];
            objects.extend((1..n_objects).map(|o| format!("/p{p:02}/o{o:02}.bin")));
            for path in &objects {
                // Log-uniform 8 KiB .. 1 MiB.
                let len = (8192.0 * 128f64.powf(rng.gen::<f64>())) as usize;
                provider.put_object(path.clone(), random_body(&mut rng, len));
            }
            provider.put_page(PageSpec {
                container: container.clone(),
                embedded: objects[1..].to_vec(),
            });
            pages.push((container, objects));
        }
        let mut media = Vec::with_capacity(MEDIA);
        for m in 0..MEDIA {
            let path = format!("/media/m{m}.bin");
            let body = random_body(&mut rng, MEDIA_BYTES);
            media.push((path.clone(), Sha256::digest(&body)));
            provider.put_object(path, body);
        }

        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_0fb5);
        let mut directory = PeerDirectory::new();
        for id in 1..=PEERS {
            directory.recruit(
                PeerId(id),
                PeerInfo {
                    rtt_ms: 2.0 + f64::from(id % 11) * 4.0,
                    violations: 0,
                },
            );
        }

        let mut fleet = Fleet::new();
        // Chunked fetches pull whole objects into eight peers at once;
        // let those caches fill before timing starts.
        for peer in fleet.all_mut() {
            for (path, _) in &media {
                peer.serve(HOST, path, &mut provider);
            }
        }

        let puzzle = PuzzleSpec::for_epoch(&MASTER, 1, PuzzleParams::default());
        let mut acct =
            DurableAccounting::open(SimDisk::new(cfg.seed), "acct", DurabilityConfig::default())
                .expect("a fresh disk opens");
        acct.set_puzzle(puzzle);

        let total_ops = (ops_per_batch * (BATCHES + 1)) as u64;
        let plan = FaultPlan::generate(
            PEERS as usize + 1,
            FaultConfig::chaos_preset(FAULT_PLAN_SEED),
            SimTime::ZERO + HORIZON,
        );
        let views_per_batch = ops_per_batch * 3 / 4;
        let zipf = Zipf::new(PAGES, 0.8);
        let page_bytes: Vec<u64> = pages
            .iter()
            .map(|(container, _)| provider.page_bytes(container).expect("published above"))
            .collect();
        // The order of a batch's ops is a fixture too: where a 10 MiB
        // page meets an outage decides what the batch costs.
        let mut fixture_rng = StdRng::seed_from_u64(CATALOGUE_SEED ^ 1);
        let schedule: Vec<Vec<Op>> =
            balanced_views(&zipf, &page_bytes, views_per_batch * BATCHES, BATCHES)
                .into_iter()
                .map(|views| {
                    let mut ops: Vec<Op> = views.into_iter().map(Op::PageView).collect();
                    ops.extend(std::iter::repeat_n(
                        Op::MediaFetch,
                        ops_per_batch - views_per_batch,
                    ));
                    for i in (1..ops.len()).rev() {
                        ops.swap(i, fixture_rng.gen_range(0..=i));
                    }
                    ops
                })
                .collect();
        let mut w = NocdnPageload {
            provider,
            directory,
            fleet,
            acct,
            puzzle,
            fetcher: ResilientFetcher::default(),
            plan,
            zipf,
            schedule,
            pages,
            media,
            order: (1..=PEERS).map(PeerId).collect(),
            rng,
            op: 0,
            spacing: SimDuration::from_nanos(HORIZON.as_nanos() / ops_per_batch as u64),
            verified: BTreeMap::new(),
            fetch_ms: Vec::new(),
            counts: Counts::default(),
            base: Baseline::default(),
            // op + assign/generate/issue/load, plus a settle span per record.
            rec: Recorder::new(cfg.traced, total_ops as usize * 24, Instant::now()),
            digest: OpDigest::default(),
        };
        // Warm-up: one batch, so the popular pages' objects are cached
        // at their peers and the hedge trigger has latency samples.
        let warm_ops: Vec<Op> = (0..ops_per_batch)
            .map(|i| match i % 4 {
                3 => Op::MediaFetch,
                _ => Op::PageView(w.zipf.sample(&mut w.rng)),
            })
            .collect();
        let warm = w.run_ops(&warm_ops);
        assert_eq!(warm.failed, 0, "warm-up must be clean");
        w.fetch_ms.clear();
        w.counts = Counts::default();
        w
    }

    fn begin_window(&mut self) {
        self.base = self.baseline();
    }

    fn run_batch(&mut self, index: usize) -> Batch {
        let ops = std::mem::take(&mut self.schedule[index]);
        self.run_ops(&ops)
    }

    fn recorders(&mut self) -> Vec<&mut Recorder> {
        vec![&mut self.rec]
    }

    fn finish(mut self, window: &Window, report: &mut Report) {
        // Whatever the peers still hold is settled now, outside the
        // window, so the books can be closed and checked.
        report.failed += self.settle_round();
        for id in (1..=PEERS).map(PeerId) {
            let payable = self.acct.accounting().payable_bytes(id);
            if payable != self.verified.get(&id).copied().unwrap_or(0) {
                report.failed += 1;
            }
        }

        report.set("bench.op_stream_digest", self.digest.value());
        let end = self.baseline();
        let c = self.counts;
        let ops = window.ops.max(1) as f64;
        let from_origin = end.origin_bytes - self.base.origin_bytes;
        report.set(
            "offload_bp",
            (c.delivered_bytes as f64 - from_origin as f64) * 10_000.0
                / c.delivered_bytes.max(1) as f64,
        );
        report.set(
            "write_amp_x1000",
            (end.disk_written - self.base.disk_written) as f64 * 1000.0
                / c.settled_bytes.max(1) as f64,
        );
        let (p50, tail, pct) = stats::median_and_tail(&mut self.fetch_ms);
        report.set("sim_p50_ms", p50);
        report.set("sim_p99_ms", tail);
        report.set("sim_tail_pct_x100", f64::from(pct));
        report.set("sim_samples", self.fetch_ms.len() as f64);

        report.set("nocdn.loader.corrupted", c.corrupted as f64);
        report.set("nocdn.loader.unavailable", c.unavailable as f64);
        report.set("nocdn.chunked.hedged_chunks", c.hedged_chunks as f64);
        report.set("nocdn.chunked.fallback_chunks", c.fallback_chunks as f64);
        report.set("nocdn.chunked.corrupt_peers", c.corrupt_peers as f64);
        report.set("nocdn.accounting.settled", c.settled as f64);
        report.set("nocdn.accounting.rejected", c.rejected as f64);
        report.set(
            "nocdn.accounting.puzzle_verify_bytes",
            (end.puzzle_verify_bytes - self.base.puzzle_verify_bytes) as f64,
        );
        report.set("nocdn.allocs_per_op", window.alloc_calls as f64 / ops);
        report.set("nocdn.alloc_bytes_per_op", window.alloc_bytes as f64 / ops);

        report.set_self_ns("nocdn.select.assign_ns", "nocdn.select.assign", window);
        report.set_self_ns(
            "nocdn.wrapper.generate_ns",
            "nocdn.wrapper.generate",
            window,
        );
        report.set_self_ns("nocdn.loader.load_ns", "nocdn.loader.load", window);
        report.set_self_ns("nocdn.chunked.fetch_ns", "nocdn.chunked.fetch", window);
        report.set_self_ns(
            "nocdn.peer.upload_records_ns",
            "nocdn.peer.upload_records",
            window,
        );
        report.set_self_ns("nocdn.durable.issue_ns", "nocdn.durable.issue", window);
        report.set_self_ns("nocdn.durable.settle_ns", "nocdn.durable.settle", window);
        if window.traced {
            report.set(
                "crypto.sha256.ns_per_byte_x1000",
                micro::sha256_ns_per_byte_x1000(),
            );
            report.set("crypto.hmac.sign_ns", micro::hmac_sign_ns());
            let (prove, verify) = micro::puzzle_ns_per_kib();
            report.set("crypto.puzzle.prove_ns_per_kib", prove);
            report.set("crypto.puzzle.verify_ns_per_kib", verify);
            let (admit, allow, decide) = micro::resilience_gate_ns();
            report.set("resilience.admission.try_acquire_ns", admit);
            report.set("resilience.breaker.allow_ns", allow);
            report.set("resilience.hedge.decide_ns", decide);
        }
    }
}

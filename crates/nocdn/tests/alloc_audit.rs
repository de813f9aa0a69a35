//! Allocation audit of NoCDN's body path.
//!
//! An object is one shared buffer from publish to render: peers cache
//! and serve clones of it, the loader returns the verified objects as
//! they were served, the serving peer's accountability puzzle and the
//! provider's check of it walk the cached objects in place, and a
//! chunked fetch keeps each chunk it took. So once the caches are warm,
//! a page view (wrapper, load, puzzle proofs, settlement) and a chunked
//! fetch allocate only their reports, records and proofs, and a counting
//! `#[global_allocator]` holds each to one fixed budget at two body
//! sizes. The budget is a sixteenth of the smaller page, so one copy of
//! a page, of a peer's claim or of a chunk breaks it. The loader and the
//! wrapper hash on worker threads, and a copy made on a worker counts
//! too: the counter is global, and every test in this binary holds one
//! lock from start to end, so no other test allocates inside a measured
//! interval. (The test harness's own thread is outside the lock; it
//! prints a finished test's result while the next test is still
//! warming its caches, long before that test measures.)

use hpop_crypto::puzzle::PuzzleParams;
use hpop_crypto::sha256::Sha256;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_nocdn::{
    Accounting, ContentProvider, NoCdnPeer, PageLoader, PageSpec, PeerId, PuzzleSpec,
    ResilientFetcher, WrapperPage,
};
use hpop_resilience::Deadline;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

/// Bytes every thread of the process asked the allocator for. A
/// statistic only: it publishes no other data (`Relaxed`).
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs this binary's tests one at a time: each test holds the guard
/// for its whole body, so only its own threads allocate while it
/// measures.
fn alone() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that failed while holding the lock left nothing to repair.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Bytes the process allocated while running `f`, on any thread. The
/// caller holds [`alone`]'s guard.
fn allocated<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    (ALLOC_BYTES.load(Ordering::Relaxed) - before, out)
}

/// What one warm page view or chunked fetch may allocate. Its reports,
/// records and maps grow with object and chunk counts, and a proof by
/// one 32-byte checkpoint per 32 KiB walked: a 4 MiB page's view takes
/// under 20 KB, a fetch under 2 KB.
const BUDGET: u64 = 64 << 10;

const MASTER: [u8; 32] = [42u8; 32];

fn body(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

/// A page of five objects, `scale` × 1 MiB in all, their sizes off the
/// puzzle's 4 KiB block edges.
fn page(scale: usize) -> ContentProvider {
    let mut origin = ContentProvider::new("news.example");
    let sizes = [20_000, 180_011, 300_007, 250_003, 298_555];
    let mut embedded = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let path = format!("/o{i}");
        origin.put_object(path.clone(), body(size * scale, i as u8));
        if i > 0 {
            embedded.push(path);
        }
    }
    origin.put_page(PageSpec {
        container: "/o0".into(),
        embedded,
    });
    origin
}

/// Bytes allocated by a page view once the peers' caches are warm:
/// the wrapper, the load with its verification, each serving peer's
/// puzzle proof, and the provider settling every record against its
/// own objects.
fn warm_view_bytes(scale: usize) -> (u64, usize) {
    let mut origin = page(scale);
    let mut peers: BTreeMap<PeerId, NoCdnPeer> = (0..2)
        .map(|i| (PeerId(i), NoCdnPeer::new(PeerId(i))))
        .collect();
    let assignments: BTreeMap<String, PeerId> =
        (0..5).map(|i| (format!("/o{i}"), PeerId(i % 2))).collect();
    let mut acct = Accounting::new();
    acct.set_puzzle(PuzzleSpec::for_epoch(&MASTER, 1, PuzzleParams::default()));
    let mut view = |client: u64, origin: &mut ContentProvider| {
        let wrapper = WrapperPage::generate(
            origin,
            "/o0",
            client,
            &assignments,
            &mut acct,
            &MASTER,
            client == 1,
        );
        let (report, page) = PageLoader::new(client).load(&wrapper, &mut peers, origin);
        assert_eq!(
            report.total_peer_bytes(),
            page.len() as u64,
            "all from peers"
        );
        for peer in peers.values_mut() {
            for record in peer.upload_records() {
                let settled = acct.settle_with(&record, |path| origin.peek_object(path).cloned());
                assert_eq!(settled, Ok(()));
            }
        }
        page.len()
    };
    view(1, &mut origin);
    view(2, &mut origin);
    allocated(|| view(3, &mut origin))
}

/// Bytes allocated by an 8-chunk fetch of a `scale` MiB object from
/// four warm honest peers.
fn warm_fetch_bytes(scale: usize) -> (u64, usize) {
    let mut origin = ContentProvider::new("cdn.example");
    let object = body(scale << 20, 7);
    let digest = Sha256::digest(&object);
    origin.put_object("/media.bin", object);
    let mut peers: BTreeMap<PeerId, NoCdnPeer> = (0..4)
        .map(|i| (PeerId(i), NoCdnPeer::new(PeerId(i))))
        .collect();
    let order: Vec<PeerId> = peers.keys().copied().collect();
    let mut fetcher = ResilientFetcher::default();
    let latency = |_: PeerId| SimDuration::from_millis(3);
    let mut fetch = |origin: &mut ContentProvider| {
        let mut now = SimTime::ZERO;
        let (report, object) = fetcher.fetch(
            "/media.bin",
            8,
            &digest,
            &order,
            &mut peers,
            origin,
            Deadline::UNBOUNDED,
            &mut now,
            &latency,
        );
        assert!(report.verified);
        assert_eq!(report.fallback_chunks, 0);
        object.len()
    };
    fetch(&mut origin);
    fetch(&mut origin);
    allocated(|| fetch(&mut origin))
}

#[test]
fn a_warm_page_view_stays_inside_one_budget_at_1_and_4_mib() {
    let _alone = alone();
    for scale in [1, 4] {
        let (bytes, page) = warm_view_bytes(scale);
        assert!(page >= scale << 20, "the page is {page} bytes");
        assert!(
            bytes < BUDGET,
            "a warm view of a {page}-byte page allocated {bytes} bytes"
        );
    }
}

#[test]
fn a_warm_chunked_fetch_stays_inside_one_budget_at_1_and_4_mib() {
    let _alone = alone();
    for scale in [1, 4] {
        let (bytes, object) = warm_fetch_bytes(scale);
        assert_eq!(object, scale << 20);
        assert!(
            bytes < BUDGET,
            "a warm fetch of a {object}-byte object allocated {bytes} bytes"
        );
    }
}

#[test]
fn a_cache_hit_allocates_nothing() {
    let _alone = alone();
    let mut origin = page(1);
    let mut peer = NoCdnPeer::new(PeerId(1));
    peer.serve("news.example", "/o2", &mut origin)
        .expect("a fill");
    let (bytes, served) = allocated(|| peer.serve("news.example", "/o2", &mut origin));
    assert_eq!(served.map(|b| b.len()), Some(300_007));
    assert_eq!(bytes, 0);
    assert_eq!((peer.cache_hits, peer.cache_misses), (1, 1));
}

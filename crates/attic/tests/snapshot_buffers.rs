//! Steady-state allocation audit of the journaled attic's snapshots.
//!
//! A snapshot is laid out once, behind its header, in the body of the
//! snapshot the previous prune deleted, and the disk keeps that buffer
//! as the new file. So once a store of steady size has cycled its three
//! buffers (two installed snapshots and the spare), taking a snapshot
//! must not ask the allocator for a snapshot-sized block at all. A
//! counting `#[global_allocator]` enforces exactly that. The counter is
//! per thread, so neither the other tests nor the test harness's own
//! threads count inside the measured interval.

use hpop_attic::{AtticBackend, DurableAttic};
use hpop_durability::DurabilityConfig;
use hpop_netsim::storage::SimDisk;
use hpop_netsim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

struct CountingAlloc;

thread_local! {
    /// Blocks of at least this many bytes are counted.
    static THRESHOLD: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Counted blocks this thread asked for.
    static LARGE: Cell<u64> = const { Cell::new(0) };
}

/// Counts a block of `size` bytes against the calling thread when it is
/// large. A thread that is tearing down its locals goes uncounted.
fn count(size: usize) {
    if THRESHOLD.try_with(Cell::get).is_ok_and(|t| size >= t) {
        let _ = LARGE.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const KEYS: u64 = 64;
const BODY_BYTES: usize = 1024;

/// A store of steady size: 64 files of 1 KiB, each replaced by a
/// DELETE and a PUT of the same length.
struct Steady {
    attic: DurableAttic,
    tick: u64,
    /// Every snapshot file seen installed.
    snapshots: BTreeSet<String>,
}

impl Steady {
    fn open() -> Steady {
        // Segments of 4 KiB, so no log file grows anywhere near a
        // snapshot's size.
        let cfg = DurabilityConfig {
            max_segment_bytes: 4 * 1024,
            snapshot_every_ops: 16,
        };
        let attic = DurableAttic::open(SimDisk::new(3), "attic", cfg).expect("fresh disk");
        Steady {
            attic,
            tick: 0,
            snapshots: BTreeSet::new(),
        }
    }

    /// Replaces the next key's file, and notes any snapshot installed.
    fn replace(&mut self) {
        let key = self.tick % KEYS;
        let path = format!("/f{key:02}");
        let now = SimTime::from_secs(self.tick);
        if self.tick >= KEYS {
            self.attic.delete(&path).unwrap().unwrap();
        }
        let body = vec![key as u8; BODY_BYTES];
        self.attic.put(&path, body, now).unwrap().unwrap();
        self.tick += 1;
        self.snapshots.extend(self.attic.disk().list("attic/snap-"));
    }

    /// Replaces files until `n` more snapshots are installed.
    fn run_snapshots(&mut self, n: usize) {
        let want = self.snapshots.len() + n;
        while self.snapshots.len() < want {
            self.replace();
        }
    }

    /// Length of the newest installed snapshot.
    fn snapshot_len(&mut self) -> usize {
        let newest = self.snapshots.last().expect("a snapshot").clone();
        self.attic
            .disk_mut()
            .read(&newest)
            .expect("installed")
            .len()
    }
}

#[test]
fn steady_snapshots_allocate_no_snapshot_sized_buffer() {
    let mut store = Steady::open();
    // Warm-up: every key written, and the three snapshot buffers sized.
    store.run_snapshots(6);
    let len = store.snapshot_len();
    assert!(len > 64 * BODY_BYTES, "the state holds every file: {len} B");

    THRESHOLD.with(|t| t.set(len / 2));
    let before = LARGE.with(Cell::get);
    store.run_snapshots(6);
    let large = LARGE.with(Cell::get) - before;
    THRESHOLD.with(|t| t.set(usize::MAX));
    assert_eq!(large, 0, "allocations of ≥ {} B over 6 snapshots", len / 2);
}

//! The exhaustive crash-point matrix.
//!
//! [`crash_matrix`] is the crate's correctness proof and the reusable
//! fixture every adopter runs its own op encoding through. Given a
//! workload of ops and a [`DurabilityConfig`]:
//!
//! 1. **Baseline** — run the workload on a fresh disk with no faults;
//!    record the total I/O step count `N` and the final state bytes.
//! 2. **Enumerate** — for every step `k in 0..N`, re-run on a fresh
//!    identically-seeded disk with power loss armed at step `k`. The
//!    run dies mid-workload; restart the disk and recover.
//! 3. **Assert** the committed-prefix invariant at each `k`:
//!    - every acked op is recovered (`acked <= committed`),
//!    - at most the one in-flight op is committed-but-unacked
//!      (`committed <= acked + 1`),
//!    - the recovered state is byte-identical to replaying exactly the
//!      first `committed` ops onto a fresh state — no torn state, no
//!      partial application;
//!    - finishing the remaining ops after recovery lands on the exact
//!      baseline final state bytes.
//!
//! Because `N` covers every sector write, rename, delete and truncate
//! issued by WAL appends, commit markers, segment rotation, snapshot
//! writes and compaction, passing the matrix means there is no
//! power-loss instant that breaks recovery.

use crate::persistent::{DurabilityConfig, Durable, Persistent};
use hpop_netsim::storage::{DiskError, SimDisk, StorageFaults};

/// Aggregate of one full matrix run (all crash points passed).
#[derive(Clone, Debug, Default)]
pub struct CrashMatrixOutcome {
    /// I/O steps in the fault-free baseline = crash points enumerated.
    pub baseline_steps: u64,
    /// Crash points whose recovery saw (and repaired) a torn tail.
    pub torn_tails: u64,
    /// Crash points where the in-flight op was committed but unacked.
    pub committed_unacked: u64,
    /// Largest replay length any recovery needed.
    pub max_ops_replayed: u64,
    /// Snapshot-CRC fallbacks observed (0 unless bit-rot is armed).
    pub snapshot_fallbacks: u64,
}

/// Replays `ops[..count]` onto a fresh state and returns its encoding
/// — the reference result recovery must match byte-for-byte.
fn reference_state<T: Durable>(ops: &[Vec<u8>], count: usize) -> Vec<u8> {
    let mut state = T::fresh();
    for op in &ops[..count] {
        state.apply(op);
    }
    state.encode_state()
}

/// Runs the full crash-point matrix for state type `T` over `ops`.
///
/// Panics (with the offending crash point in the message) on any
/// invariant violation — this is a test fixture, not a prober.
pub fn crash_matrix<T: Durable>(
    seed: u64,
    cfg: DurabilityConfig,
    ops: &[Vec<u8>],
) -> CrashMatrixOutcome {
    let faults = StorageFaults {
        torn_write_fraction: 1.0,
        bitrot_flips_per_restart: 0.0,
    };

    // 1. Fault-free baseline.
    let mut p = Persistent::<T>::open(SimDisk::with_faults(seed, faults), "svc", cfg)
        .expect("baseline open cannot fail on a fresh disk");
    for (i, op) in ops.iter().enumerate() {
        p.execute(op)
            .unwrap_or_else(|e| panic!("baseline execute #{i} failed: {e}"));
    }
    let baseline_final = p.state().encode_state();
    let baseline_steps = p.disk().steps();
    assert_eq!(
        baseline_final,
        reference_state::<T>(ops, ops.len()),
        "baseline must equal pure replay (apply determinism law)"
    );

    let mut outcome = CrashMatrixOutcome {
        baseline_steps,
        ..CrashMatrixOutcome::default()
    };

    // 2–3. Crash at every step, recover, assert, finish.
    for k in 0..baseline_steps {
        let mut p = Persistent::<T>::open(SimDisk::with_faults(seed, faults), "svc", cfg)
            .expect("fresh open");
        p.disk_mut().arm_crash(k);
        let mut acked = 0u64;
        let mut crashed = false;
        for op in ops {
            match p.execute(op) {
                Ok(()) => acked += 1,
                Err(DiskError::PowerLoss) => {
                    crashed = true;
                    break;
                }
                Err(e) => panic!("crash point {k}: unexpected error {e}"),
            }
        }
        assert!(crashed, "crash point {k} < {baseline_steps} must fire");

        let mut disk = p.into_disk();
        disk.restart();
        let p2 = Persistent::<T>::open(disk, "svc", cfg)
            .unwrap_or_else(|e| panic!("crash point {k}: recovery open failed: {e}"));
        let committed = p2.committed_seq();
        assert!(
            committed >= acked,
            "crash point {k}: lost acked ops ({acked} acked, {committed} recovered)"
        );
        assert!(
            committed <= acked + 1,
            "crash point {k}: over-recovered ({acked} acked, {committed} committed)"
        );
        assert_eq!(
            p2.state().encode_state(),
            reference_state::<T>(ops, committed as usize),
            "crash point {k}: recovered state is not the committed prefix"
        );

        let report = p2.last_recovery();
        outcome.torn_tails += u64::from(report.torn_tail);
        outcome.committed_unacked += u64::from(committed == acked + 1);
        outcome.max_ops_replayed = outcome.max_ops_replayed.max(report.ops_replayed);
        outcome.snapshot_fallbacks += report.snapshot_fallbacks;
        assert!(
            !report.corrupted_history,
            "crash point {k}: power loss alone must never read as history rot"
        );

        // Finish the workload on the recovered store: the end state
        // must be indistinguishable from the never-crashed run.
        let mut p2 = p2;
        for op in &ops[committed as usize..] {
            p2.execute(op)
                .unwrap_or_else(|e| panic!("crash point {k}: post-recovery execute: {e}"));
        }
        assert_eq!(
            p2.state().encode_state(),
            baseline_final,
            "crash point {k}: resumed run diverged from baseline"
        );
    }
    outcome
}

/// The format fixture beside [`crash_matrix`]: `ops`, as today's
/// encoders write them, must equal `golden_ops` byte for byte; applied
/// in order to a fresh state they must snapshot to `golden_snapshot`;
/// and that snapshot must decode and re-encode unchanged. The goldens
/// are captured once from a known-good build, so this is what keeps a
/// journal written by an older build readable.
pub fn assert_format_frozen<T: Durable>(
    ops: &[Vec<u8>],
    golden_ops: &[&[u8]],
    golden_snapshot: &[u8],
) {
    assert_eq!(ops, golden_ops);
    let mut state = T::fresh();
    golden_ops.iter().for_each(|op| state.apply(op));
    assert_eq!(state.encode_state(), golden_snapshot);
    let decoded = T::decode_state(golden_snapshot).expect("golden snapshot decodes");
    assert_eq!(decoded.encode_state(), golden_snapshot);
}

/// The hostile-input fixture beside [`crash_matrix`]: both of `T`'s
/// decoders — [`Durable::decode_state`] and the op decode inside
/// [`Durable::apply`] — read bytes off a disk that tears and rots, so
/// whatever they are handed they must return, never panic. Feeds them
/// `noise` as is, then every truncation and one corruption per byte of
/// each `valid` encoding (ops and snapshots alike).
pub fn decode_is_total<T: Durable>(valid: &[&[u8]], noise: &[u8]) {
    let feed = |bytes: &[u8]| {
        let _ = T::decode_state(bytes);
        T::fresh().apply(bytes);
    };
    feed(noise);
    for encoding in valid {
        for at in 0..encoding.len() {
            feed(&encoding[..at]);
            let mut rotted = encoding.to_vec();
            rotted[at] ^= noise.get(at).map_or(0xFF, |n| n | 1);
            feed(&rotted);
        }
    }
}

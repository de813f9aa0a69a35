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
//! Before any of that, every op must survive its own byte layout:
//! `encode(decode(encode(op))) == encode(op)`, and the decoded op must
//! leave the state the op value leaves. A live [`Journal::run`] runs
//! the op value and only replay runs its decoded bytes, so a layout
//! that loses a field would otherwise show only after a crash.
//!
//! Because `N` covers every sector write, rename, delete and truncate
//! issued by WAL appends, segment rotation, snapshot writes and
//! compaction, passing the matrix means there is no power-loss instant
//! that breaks recovery.

use crate::codec;
use crate::journal::{Journal, Machine};
use crate::persistent::DurabilityConfig;
use crate::snapshot;
use hpop_netsim::storage::{DiskError, SimDisk, StorageFaults};
use std::collections::BTreeSet;

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
    /// Snapshots the baseline installed. Under two, the matrix never
    /// crashes a compaction (see [`snapshots_installed`]).
    pub snapshots: u64,
}

/// Runs `ops` on `journal` and returns how many snapshots they
/// installed. Panics on a failed run.
fn run_counting_snapshots<M: Machine>(journal: &mut Journal<M>, ops: &[M::Op]) -> u64
where
    M::Op: Clone,
{
    let mut installed = BTreeSet::new();
    for (i, op) in ops.iter().enumerate() {
        journal
            .run(op.clone())
            .unwrap_or_else(|e| panic!("run #{i} failed: {e}"));
        installed.extend(snapshot::installed_throughs(journal.disk(), "svc"));
    }
    installed.len() as u64
}

/// How many snapshots `ops` install on a fresh store: a fixture's
/// coverage check. The log is compacted only once two snapshots are
/// installed, so a workload that installs fewer never reaches
/// compaction, and a damage fixture over it never meets the fallback
/// from one snapshot to the other.
pub fn snapshots_installed<M: Machine>(cfg: DurabilityConfig, ops: &[M::Op]) -> u64
where
    M::Op: Clone,
{
    let mut journal = Journal::<M>::open(SimDisk::new(0), "svc", cfg).expect("fresh open");
    run_counting_snapshots(&mut journal, ops)
}

/// Runs `ops` on a bare machine — no journal, no codec — and returns
/// its encoding: the reference result recovery must match byte for
/// byte.
fn reference_state<M: Machine>(ops: &[M::Op]) -> Vec<u8>
where
    M::Op: Clone,
{
    let mut machine = M::default();
    for op in ops {
        machine.run(op.clone());
    }
    codec::encode(&machine)
}

/// The op codec law, op by op: an op's encoding decodes back to the
/// same bytes, and to an op that does what the value does — run in
/// order on two fresh machines, the values and their decoded encodings
/// leave the same state after every op. The second half is what
/// catches a field a hand-written layout drops on both sides: the bytes
/// still round-trip, but replay runs without the field.
fn assert_ops_survive_their_layout<M: Machine>(ops: &[M::Op])
where
    M::Op: Clone,
{
    let (mut live, mut replayed) = (M::default(), M::default());
    for (i, op) in ops.iter().enumerate() {
        let bytes = codec::encode(op);
        let decoded = codec::decode::<M::Op>(&bytes)
            .unwrap_or_else(|| panic!("op #{i}: its encoding does not decode"));
        assert_eq!(
            codec::encode(&decoded),
            bytes,
            "op #{i}: its encoding does not decode back to itself"
        );
        live.run(op.clone());
        replayed.run(decoded);
        assert_eq!(
            codec::encode(&live),
            codec::encode(&replayed),
            "op #{i}: decoded from its encoding, the op does something else"
        );
    }
}

/// Runs the full crash-point matrix for machine `M` over `ops`.
///
/// Panics (with the offending crash point in the message) on any
/// invariant violation — this is a test fixture, not a prober.
pub fn crash_matrix<M: Machine>(
    seed: u64,
    cfg: DurabilityConfig,
    ops: &[M::Op],
) -> CrashMatrixOutcome
where
    M::Op: Clone,
{
    assert_ops_survive_their_layout::<M>(ops);
    let faults = StorageFaults {
        torn_write_fraction: 1.0,
        bitrot_flips_per_restart: 0.0,
    };

    // 1. Fault-free baseline.
    let mut p = Journal::<M>::open(SimDisk::with_faults(seed, faults), "svc", cfg)
        .expect("baseline open cannot fail on a fresh disk");
    let snapshots = run_counting_snapshots(&mut p, ops);
    let baseline_final = codec::encode(p.state());
    let baseline_steps = p.disk().steps();
    assert_eq!(
        baseline_final,
        reference_state::<M>(ops),
        "baseline must equal the bare machine (op codec and run determinism laws)"
    );

    let mut outcome = CrashMatrixOutcome {
        baseline_steps,
        snapshots,
        ..CrashMatrixOutcome::default()
    };

    // 2–3. Crash at every step, recover, assert, finish.
    for k in 0..baseline_steps {
        let mut p =
            Journal::<M>::open(SimDisk::with_faults(seed, faults), "svc", cfg).expect("fresh open");
        p.disk_mut().arm_crash(k);
        let mut acked = 0u64;
        let mut crashed = false;
        for op in ops {
            match p.run(op.clone()) {
                Ok(_) => acked += 1,
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
        let p2 = Journal::<M>::open(disk, "svc", cfg)
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
            codec::encode(p2.state()),
            reference_state::<M>(&ops[..committed as usize]),
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
            p2.run(op.clone())
                .unwrap_or_else(|e| panic!("crash point {k}: post-recovery run: {e}"));
        }
        assert_eq!(
            codec::encode(p2.state()),
            baseline_final,
            "crash point {k}: resumed run diverged from baseline"
        );
    }
    outcome
}

/// The media-damage fixture beside [`crash_matrix`]: runs `ops` on a
/// fresh store, lets `damage` rewrite one of its files (`file` indexes
/// the listing, wrapping) and reopens. Recovery must return a committed
/// prefix of `ops`, and may lose acked ones only as [`crate::persistent`]
/// allows: never to a damaged snapshot, and to a log segment only when
/// it reports `corrupted_history` or the segment is the last (a torn
/// tail). Panics otherwise, naming the file.
pub fn damage_recovers_a_committed_prefix<M: Machine>(
    seed: u64,
    cfg: DurabilityConfig,
    ops: &[M::Op],
    file: usize,
    damage: impl FnOnce(&mut Vec<u8>),
) where
    M::Op: Clone,
{
    let mut journal = Journal::<M>::open(SimDisk::new(seed), "svc", cfg).expect("fresh open");
    for op in ops {
        journal.run(op.clone()).expect("no fault armed");
    }
    let mut disk = journal.into_disk();
    let files = disk.list("svc/");
    let name = &files[file % files.len()];
    let mut bytes = disk.read(name).expect("a listed file reads");
    damage(&mut bytes);
    disk.write_file(name, &bytes).expect("no fault armed");

    let journal = Journal::<M>::open(disk, "svc", cfg).expect("recovery never fails");
    let committed = journal.committed_seq() as usize;
    assert_eq!(
        codec::encode(journal.state()),
        reference_state::<M>(&ops[..committed]),
        "{name}: recovered state is not a committed prefix"
    );
    let last_segment = files.iter().rfind(|f| f.contains("/seg-"));
    let excused = name.contains("/seg-")
        && (journal.last_recovery().corrupted_history || Some(name) == last_segment);
    assert!(
        committed == ops.len() || excused,
        "{name}: acked ops lost and not reported"
    );
}

/// The format fixture beside [`crash_matrix`]: `ops`, as today's
/// codec writes them, must equal `golden_ops` byte for byte; the golden
/// bytes, decoded and run in order on a fresh machine, must snapshot to
/// `golden_snapshot`; and that snapshot must decode and re-encode
/// unchanged. The goldens are captured once from a known-good build, so
/// this is what keeps a journal written by an older build readable.
pub fn assert_format_frozen<M: Machine>(
    ops: &[M::Op],
    golden_ops: &[&[u8]],
    golden_snapshot: &[u8],
) {
    let encoded: Vec<Vec<u8>> = ops.iter().map(codec::encode).collect();
    assert_eq!(encoded, golden_ops);
    let mut machine = M::default();
    for golden in golden_ops {
        machine.run(codec::decode(golden).expect("golden op decodes"));
    }
    assert_eq!(codec::encode(&machine), golden_snapshot);
    let decoded: M = codec::decode(golden_snapshot).expect("golden snapshot decodes");
    assert_eq!(codec::encode(&decoded), golden_snapshot);
}

/// The hostile-input fixture beside [`crash_matrix`]: both of `M`'s
/// decoders — the snapshot's and the op's — read bytes off a disk that
/// tears and rots, so whatever they are handed they must return, never
/// panic, and an op that still decodes must run. Feeds them `noise` as
/// is, then every truncation and one corruption per byte of each
/// `valid` encoding (ops and snapshots alike).
pub fn decode_is_total<M: Machine>(valid: &[&[u8]], noise: &[u8]) {
    let feed = |bytes: &[u8]| {
        let _ = codec::decode::<M>(bytes);
        if let Some(op) = codec::decode::<M::Op>(bytes) {
            M::default().run(op);
        }
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

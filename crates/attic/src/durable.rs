//! Crash-consistent attic: the object store and lock table behind a
//! write-ahead log.
//!
//! The paper's data attic is the *single source of truth* for a user's
//! files — which makes restart amnesia unacceptable: a power cut must
//! not forget acknowledged PUTs, and a WebDAV lock held at crash time
//! must still be held (and still expire on its original deadline) after
//! the attic comes back. [`DurableAttic`] wraps [`ObjectStore`] +
//! [`LockManager`](crate::lock::LockManager) in a [`Journal`]: every
//! mutating call is WAL-logged before it is applied, and recovery
//! replays the committed prefix. What is here is small: the byte
//! layouts (one `wire!` declaration each over [`AtticOp`] and
//! [`AtticState`], the [`Machine`](hpop_durability::Machine) every
//! backend runs ops on) and the two-method [`AtticBackend`] impl that
//! puts the journal in front of it. The snapshot layout of the store
//! and the lock table is declared beside their private fields, in
//! [`crate::store`] and [`crate::lock`].
//!
//! Two design points worth noting:
//!
//! - **Ops record the original call arguments**, not derived results.
//!   `Lock` logs `(ttl, now)` rather than the absolute expiry, and the
//!   token is *not* logged at all — replaying `lock()` through the real
//!   `LockManager` regenerates the identical token from the
//!   deterministic counter. Replay is re-execution, so the recovered
//!   state is byte-identical to the pre-crash state by construction.
//! - **Failed ops are logged too.** A denied lock still purges expired
//!   locks as a side effect; logging the attempt keeps the replayed
//!   state in lockstep with what the live process saw.

use crate::ports::{AtticBackend, AtticOp, AtticOutcome, AtticState, BackendFault};
use crate::store::ObjectStore;
use hpop_durability::{wire, DurabilityConfig, Journal};
use hpop_netsim::storage::{DiskError, SimDisk};
use std::ops::{Deref, DerefMut};

// The journal record of an op: its tag, then the call's arguments.
// Tag 2 is retired (a recursive `MKCOL` nobody issued) and stays
// reserved so no other tag shifts.
wire! { enum AtticOp {
    Mkcol { path } = 1,
    Put { path, body, now } = 3,
    Delete { path } = 4,
    Copy { src, dst, now } = 5,
    Rename { src, dst, now } = 6,
    Lock { path, owner, scope, depth, ttl, now } = 7,
    Unlock { path, token, now } = 8,
    Refresh { path, token, ttl, now } = 9,
    Prune { path, keep, min_modified } = 10,
} }

// The snapshot: the store, then the lock table, each in the layout
// declared beside its fields.
wire! { struct AtticState { store, locks } }

/// A crash-consistent attic: every mutation is durable before
/// [`AtticBackend::apply`] returns, and [`DurableAttic::open`] recovers
/// the full store + lock table after a crash. The verbs are the
/// [`AtticBackend`] ones; their outer error is the device (power loss
/// mid-call), the inner one the normal WebDAV semantics. Recovery
/// report, committed sequence number and the device are the
/// [`Journal`]'s, reached by deref.
#[derive(Clone, Debug)]
pub struct DurableAttic {
    journal: Journal<AtticState>,
}

impl AtticBackend for DurableAttic {
    fn state(&self) -> &AtticState {
        self.journal.state()
    }

    fn apply(&mut self, op: AtticOp) -> Result<AtticOutcome, BackendFault> {
        Ok(self.journal.run(op)?)
    }
}

impl Deref for DurableAttic {
    type Target = Journal<AtticState>;
    fn deref(&self) -> &Journal<AtticState> {
        &self.journal
    }
}

impl DerefMut for DurableAttic {
    fn deref_mut(&mut self) -> &mut Journal<AtticState> {
        &mut self.journal
    }
}

impl DurableAttic {
    /// Opens (recovers or initializes) an attic stored under `dir`.
    pub fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        let journal = Journal::open(disk, dir, cfg)?;
        Ok(DurableAttic { journal })
    }

    /// Read-only view of the recovered/live object store.
    pub fn store(&self) -> &ObjectStore {
        &self.journal.state().store
    }

    /// Tears down the process, keeping the platters.
    pub fn into_disk(self) -> SimDisk {
        self.journal.into_disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::{LockDepth, LockScope, LockToken};
    use hpop_durability::{
        codec, crash_matrix, damage_recovers_a_committed_prefix, Durable, Persistent,
    };
    use hpop_netsim::storage::StorageFaults;
    use hpop_netsim::time::{SimDuration, SimTime};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    /// The token the lock table's counter hands out `n`th.
    fn token(n: u64) -> LockToken {
        codec::decode(&n.to_le_bytes()).unwrap()
    }
    const TTL: SimDuration = SimDuration::from_secs(300);

    fn cfg() -> DurabilityConfig {
        DurabilityConfig {
            max_segment_bytes: 512,
            snapshot_every_ops: 5,
        }
    }

    #[test]
    fn ops_round_trip_through_the_codec() {
        let ops = vec![
            AtticOp::Mkcol { path: "/d".into() },
            AtticOp::Put {
                path: "/d/f".into(),
                body: "hello".into(),
                now: t(3),
            },
            AtticOp::Delete {
                path: "/d/f".into(),
            },
            AtticOp::Copy {
                src: "/x".into(),
                dst: "/y".into(),
                now: t(4),
            },
            AtticOp::Rename {
                src: "/y".into(),
                dst: "/z".into(),
                now: t(5),
            },
            AtticOp::Lock {
                path: "/d/f".into(),
                owner: "word-proc".into(),
                scope: LockScope::Exclusive,
                depth: LockDepth::Infinity,
                ttl: TTL,
                now: t(6),
            },
            AtticOp::Unlock {
                path: "/d/f".into(),
                token: token(7),
                now: t(7),
            },
            AtticOp::Refresh {
                path: "/d/f".into(),
                token: token(7),
                ttl: TTL,
                now: t(8),
            },
            AtticOp::Prune {
                path: "/d/f".into(),
                keep: 3,
                min_modified: t(2),
            },
        ];
        for op in ops {
            assert_eq!(codec::decode(&codec::encode(&op)), Some(op));
        }
    }

    #[test]
    fn state_snapshot_round_trips() {
        let mut st = AtticState::new();
        st.store.mkcol("/docs").unwrap();
        st.store.put("/docs/a.txt", "v1", t(1)).unwrap();
        st.store.put("/docs/a.txt", "v2", t(2)).unwrap();
        st.locks
            .lock(
                "/docs/a.txt",
                "app",
                LockScope::Exclusive,
                LockDepth::Zero,
                TTL,
                t(2),
            )
            .unwrap();
        let bytes = codec::encode(&st);
        let back: AtticState = codec::decode(&bytes).unwrap();
        assert_eq!(codec::encode(&back), bytes);
        assert_eq!(back.store.get("/docs/a.txt").unwrap().etag, {
            st.store.get("/docs/a.txt").unwrap().etag.clone()
        });
    }

    #[test]
    fn restart_recovers_files_and_locks() {
        let mut attic =
            DurableAttic::open(SimDisk::new(11), "attic", DurabilityConfig::default()).unwrap();
        attic.mkcol("/docs").unwrap().unwrap();
        let etag = attic
            .put("/docs/a.txt", b"contents", t(1))
            .unwrap()
            .unwrap();
        let token = attic
            .lock(
                "/docs/a.txt",
                "word-proc",
                LockScope::Exclusive,
                LockDepth::Zero,
                TTL,
                t(2),
            )
            .unwrap()
            .unwrap();

        let mut disk = attic.into_disk();
        disk.restart();
        let attic = DurableAttic::open(disk, "attic", DurabilityConfig::default()).unwrap();
        assert_eq!(attic.store().get("/docs/a.txt").unwrap().etag, etag);
        let (owner, expires_at) = attic
            .find_lock("/docs/a.txt", token, t(3))
            .expect("lock survives the restart");
        assert_eq!(owner, "word-proc");
        assert_eq!(expires_at, t(2) + TTL);
    }

    /// Satellite: a WebDAV lock held at crash time must be discoverable
    /// after WAL replay and must expire on its *original* deadline —
    /// recovery must not grant the holder extra time.
    #[test]
    fn lock_held_at_crash_expires_on_original_deadline() {
        let faults = StorageFaults {
            torn_write_fraction: 1.0,
            bitrot_flips_per_restart: 0.0,
        };
        let mut attic =
            DurableAttic::open(SimDisk::with_faults(23, faults), "attic", cfg()).unwrap();
        attic.put("/report.txt", b"draft", t(0)).unwrap().unwrap();
        let token = attic
            .lock(
                "/report.txt",
                "editor",
                LockScope::Exclusive,
                LockDepth::Zero,
                TTL,
                t(10),
            )
            .unwrap()
            .unwrap();

        // Crash mid-way through the *next* op's WAL append: the lock is
        // committed, the in-flight put is not.
        let crash_at = attic.disk().steps();
        attic.disk_mut().arm_crash(crash_at);
        assert!(attic.put("/report.txt", b"final", t(20)).is_err());

        let mut disk = attic.into_disk();
        disk.restart();
        let attic = DurableAttic::open(disk, "attic", cfg()).unwrap();
        // Discoverable after replay, same owner, same absolute deadline.
        let (owner, expires_at) = attic
            .find_lock("/report.txt", token, t(20))
            .expect("committed lock survives the crash");
        assert_eq!(owner, "editor");
        assert_eq!(expires_at, t(10) + TTL);
        // And it expires exactly then — no post-recovery extension.
        assert!(attic.find_lock("/report.txt", token, t(10) + TTL).is_none());
        // The torn put never happened.
        assert_eq!(
            &attic.store().get("/report.txt").unwrap().body[..],
            b"draft"
        );
    }

    /// A mixed store + lock workload of twelve ops.
    fn mixed_ops() -> Vec<AtticOp> {
        let mut ops = vec![
            AtticOp::Mkcol { path: "/h".into() },
            AtticOp::Mkcol {
                path: "/h/c".into(),
            },
        ];
        for i in 0..4u64 {
            ops.push(AtticOp::Put {
                path: "/h/c/r.json".into(),
                body: vec![b'a' + i as u8; 40 * (i as usize + 1)].into(),
                now: t(i),
            });
        }
        ops.push(AtticOp::Lock {
            path: "/h/c/r.json".into(),
            owner: "clinic".into(),
            scope: LockScope::Exclusive,
            depth: LockDepth::Infinity,
            ttl: TTL,
            now: t(4),
        });
        // A denied lock (conflict) — failed ops replay too.
        ops.push(AtticOp::Lock {
            path: "/h/c/r.json".into(),
            owner: "intruder".into(),
            scope: LockScope::Exclusive,
            depth: LockDepth::Zero,
            ttl: TTL,
            now: t(5),
        });
        ops.push(AtticOp::Copy {
            src: "/h/c/r.json".into(),
            dst: "/h/c/copy.json".into(),
            now: t(6),
        });
        ops.push(AtticOp::Unlock {
            path: "/h/c/r.json".into(),
            token: token(1),
            now: t(7),
        });
        ops.push(AtticOp::Prune {
            path: "/h/c/r.json".into(),
            keep: 1,
            min_modified: SimTime::ZERO,
        });
        ops.push(AtticOp::Delete {
            path: "/h/c/copy.json".into(),
        });
        ops
    }

    /// The exhaustive crash matrix over a mixed store + lock workload:
    /// crash at every I/O step, recover, and require the committed
    /// prefix — including regenerated lock tokens — byte for byte.
    #[test]
    fn crash_matrix_over_mixed_attic_workload() {
        let ops = mixed_ops();
        let outcome = crash_matrix::<AtticState>(41, cfg(), &ops);
        assert!(outcome.baseline_steps > ops.len() as u64);
        assert!(outcome.torn_tails > 0, "some crash points tear the tail");
        // The damage proptest runs prefixes of the same ops under the
        // same config, so it too reaches two installed snapshots.
        assert!(outcome.snapshots >= 2, "the matrix crosses a compaction");
    }

    /// Ops and snapshot as the hand-written encoders of commit 1fe8abc
    /// laid them out: mkcol `/d`, put `/d/f`, a shared depth-infinity
    /// lock on it, and the state after those three.
    const GOLDEN_OPS: [&[u8]; 3] = [
        b"\x01\x02\x00\x00\x00/d",
        b"\x03\x04\x00\x00\x00/d/f\x02\x00\x00\x00v1\x00\xca\x9a;\x00\x00\x00\x00",
        b"\x07\x04\x00\x00\x00/d/f\x03\x00\x00\x00app\x01\x01\x00\xb8d\xd9E\x00\x00\x00\x00\x945w\x00\x00\x00\x00",
    ];
    const GOLDEN_SNAPSHOT: &[u8] = b"\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00/\x00\x02\x00\x00\x00/d\x00\x04\x00\x00\x00/d/f\x01\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00v1\x00\xca\x9a;\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00/d/f\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00app\x01\x01\x00L\x9aPF\x00\x00\x00";

    /// The format is frozen: today's codec writes those bytes, and a
    /// journal holding them still opens.
    #[test]
    fn byte_format_is_frozen() {
        let ops = [
            AtticOp::Mkcol { path: "/d".into() },
            AtticOp::Put {
                path: "/d/f".into(),
                body: "v1".into(),
                now: t(1),
            },
            AtticOp::Lock {
                path: "/d/f".into(),
                owner: "app".into(),
                scope: LockScope::Shared,
                depth: LockDepth::Infinity,
                ttl: TTL,
                now: t(2),
            },
        ];
        hpop_durability::assert_format_frozen::<AtticState>(&ops, &GOLDEN_OPS, GOLDEN_SNAPSHOT);

        let mut attic = DurableAttic::open(SimDisk::new(5), "attic", cfg()).unwrap();
        for op in ops {
            attic.apply(op).unwrap();
        }
        let mut disk = attic.into_disk();
        disk.restart();
        let attic = DurableAttic::open(disk, "attic", cfg()).unwrap();
        assert_eq!(&attic.store().get("/d/f").unwrap().body[..], b"v1");
        let lock = attic.find_lock("/d/f", token(1), t(3));
        assert_eq!(lock, Some(("app".to_owned(), t(2) + TTL)));
    }

    /// State that ignores its ops: `Persistent` of it logs whatever
    /// bytes `execute` is handed, and nothing else.
    struct Frames;

    impl Durable for Frames {
        fn fresh() -> Frames {
            Frames
        }
        fn encode_state(&self) -> Vec<u8> {
            Vec::new()
        }
        fn decode_state(_: &[u8]) -> Option<Frames> {
            Some(Frames)
        }
        fn apply(&mut self, _: &[u8]) {}
    }

    /// `Journal::run` encodes an op straight into its frame; the log
    /// it writes is byte for byte the one `Persistent::execute` writes
    /// for the op's encoding.
    #[test]
    fn run_writes_the_frames_execute_writes() {
        let cfg = DurabilityConfig {
            snapshot_every_ops: 0,
            ..cfg()
        };
        let mut attic = DurableAttic::open(SimDisk::new(5), "attic", cfg).unwrap();
        let mut bytes = Persistent::<Frames>::open(SimDisk::new(5), "attic", cfg).unwrap();
        for golden in GOLDEN_OPS {
            let op: AtticOp = codec::decode(golden).unwrap();
            bytes.execute(&codec::encode(&op)).unwrap();
            attic.apply(op).unwrap();
        }
        let (mut ran, mut executed) = (attic.into_disk(), bytes.into_disk());
        let files = ran.list("");
        assert_eq!(files, ["attic/wal/seg-000000000000"]);
        assert_eq!(files, executed.list(""));
        assert_eq!(ran.read(&files[0]), executed.read(&files[0]));
        assert_eq!(ran.steps(), executed.steps());
    }

    proptest::proptest! {
        /// One damaged file of the journal — a log segment or a
        /// snapshot, cut at a point and followed by noise — recovers a
        /// committed prefix and loses no acked op unreported. The op
        /// count runs over 0, 1 and 2 installed snapshots.
        #[test]
        fn damaged_journal_recovers_a_committed_prefix(
            n in 1..=12usize,
            file in proptest::prelude::any::<usize>(),
            at in proptest::prelude::any::<proptest::sample::Index>(),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
        ) {
            let ops = &mixed_ops()[..n];
            damage_recovers_a_committed_prefix::<AtticState>(43, cfg(), ops, file, |bytes| {
                bytes.truncate(at.index(bytes.len() + 1));
                bytes.extend_from_slice(&noise);
            });
        }

        #[test]
        fn decode_is_total(noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
            let [mkcol, put, lock] = GOLDEN_OPS;
            hpop_durability::decode_is_total::<AtticState>(&[mkcol, put, lock, GOLDEN_SNAPSHOT], &noise);
        }
    }
}

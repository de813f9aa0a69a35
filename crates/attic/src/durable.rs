//! Crash-consistent attic: the object store and lock table behind a
//! write-ahead log, and every body in a blob file of its own.
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
//! backend runs ops on), the blob files, and the [`AtticBackend`] impl
//! that puts both in front of it. The snapshot layout of the store and
//! the lock table is declared beside their private fields, in
//! [`crate::store`] and [`crate::lock`].
//!
//! Three design points worth noting:
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
//! - **A body reaches the disk once.** A PUT writes its body to
//!   `blob/<seq>` — named by the sequence number its frame takes, in
//!   hex — unless a version holds that body already, and only then logs
//!   its frame, which carries the body's SHA-256. Snapshots hold the
//!   namespace and the ids, never a body. A blob file stays while some
//!   recoverable state names it: the older of the two retained
//!   snapshots, or a PUT logged after it. So after each snapshot the
//!   files let go of at or before the snapshot before it are deleted. A
//!   file whose sequence number is past the recovered log is a PUT that
//!   never committed: the next open deletes it. Recovery hashes every
//!   committed file to learn its id, and the newest file of an id loads
//!   the versions that name it; a version with no such file stays in
//!   the namespace, counted and unloaded, and a read of it answers
//!   `500`.

use crate::ports::{AtticBackend, AtticOp, AtticOutcome, AtticState, BackendFault};
use crate::store::{Blob, BlobId, BlobMap, ObjectStore};
use bytes::Bytes;
use hpop_durability::{wire, DurabilityConfig, Journal, Journaled};
use hpop_netsim::storage::{DiskError, SimDisk};
use std::collections::VecDeque;
use std::ops::Deref;

// The journal record of an op: its tag, then the call's arguments.
// Tags 2 and 3 are retired — a recursive `MKCOL` nobody issued, and a
// PUT that carried its body in the frame — and stay reserved so no
// other tag shifts.
wire! { enum AtticOp {
    Mkcol { path } = 1,
    Delete { path } = 4,
    Copy { src, dst, now } = 5,
    Rename { src, dst, now } = 6,
    Lock { path, owner, scope, depth, ttl, now } = 7,
    Unlock { path, token, now } = 8,
    Refresh { path, token, ttl, now } = 9,
    Prune { path, keep, min_modified } = 10,
    Put { path, blob, now } = 11,
} }

// The snapshot: the store, then the lock table, each in the layout
// declared beside its fields.
wire! { struct AtticState { store, locks } }

/// What [`DurableAttic::open`] found among the blob files.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlobRecovery {
    /// Blobs read, hashed and loaded: one per distinct body a live
    /// version names.
    pub loaded: u64,
    /// Bytes of those.
    pub loaded_bytes: u64,
    /// Versions whose blob was missing or did not hash to its id. They
    /// keep their place in the namespace and are never served.
    pub damaged_versions: u64,
    /// Files deleted because no committed op wrote them.
    pub orphans: u64,
}

/// Where blob file names are spelled: `<dir>/blob/`, then the last
/// name spelled.
#[derive(Clone, Debug)]
struct Names {
    buf: String,
    prefix: usize,
}

impl Names {
    fn new(dir: &str) -> Names {
        let buf = format!("{dir}/blob/");
        Names {
            prefix: buf.len(),
            buf,
        }
    }

    /// `<dir>/blob/`.
    fn prefix(&self) -> &str {
        &self.buf[..self.prefix]
    }

    /// The name of the blob file written by the op at `seq`: `seq` in
    /// hex.
    fn of(&mut self, seq: u64) -> &str {
        self.buf.truncate(self.prefix);
        let digits = (64 - seq.leading_zeros()).div_ceil(4).max(1);
        for shift in (0..digits).rev().map(|d| 4 * d) {
            let digit = char::from_digit(((seq >> shift) & 15) as u32, 16);
            self.buf.push(digit.expect("a nibble is a hex digit"));
        }
        &self.buf
    }

    /// The sequence number a listed file `name` was written at, if it
    /// is a blob file's name.
    fn seq(&self, name: &str) -> Option<u64> {
        u64::from_str_radix(name.strip_prefix(self.prefix())?, 16).ok()
    }
}

/// The blob files beside the journal, and what decides which may go.
///
/// A file is named by the sequence number of the PUT that wrote it,
/// and a held body is tagged in the store's blob table with that
/// number, so finding the body finds the file. When no version holds a
/// body any more, its file joins `released`, stamped with the op that
/// let it go, and no version ever holds that file again: a later PUT of
/// the same bytes writes a file of its own. A file let go of after op
/// `r` is named by no state after `r` — the states that hold its body
/// again hold it through the newer file — so once the older of the two
/// retained snapshots is at or past `r`, no recoverable state needs it
/// and it can go. Only released files are ever candidates, so a
/// collection costs what it deletes, not what is stored.
#[derive(Clone, Debug)]
struct BlobFiles {
    names: Names,
    /// Released files, by the sequence number in their names, in the
    /// order ops let go of them, with that op's sequence number.
    released: VecDeque<(u64, u64)>,
    /// `through` of the newest snapshot installed or loaded: the older
    /// retained one once the next is installed.
    newest: u64,
    recovery: BlobRecovery,
}

impl BlobFiles {
    /// Lists the blob files under `dir`, deletes those no committed op
    /// wrote, hashes the rest, and loads from the newest file of each
    /// id the bodies the recovered store's versions name.
    fn recover(dir: &str, journal: &mut Journal<AtticState>) -> Result<BlobFiles, DiskError> {
        let committed = journal.committed_seq();
        let mut blobs = BlobFiles {
            names: Names::new(dir),
            released: VecDeque::new(),
            newest: journal.last_recovery().snapshot_through,
            recovery: BlobRecovery::default(),
        };
        let (state, disk) = journal.parts_mut();
        let mut files = Vec::new();
        for name in disk.list(blobs.names.prefix()) {
            match blobs.names.seq(&name) {
                Some(seq) if seq <= committed => files.push(seq),
                _ => {
                    disk.delete(&name)?;
                    blobs.recovery.orphans += 1;
                }
            }
        }
        // Every committed file by what it hashes to: the newest, and
        // whether a version loaded it. The others are let go of.
        files.sort_unstable();
        let mut newest: BlobMap<(u64, Bytes, bool)> = BlobMap::default();
        let mut unheld = Vec::new();
        for seq in files {
            let bytes = disk.read_shared(blobs.names.of(seq))?;
            let id = BlobId::of(&bytes);
            if let Some((older, ..)) = newest.insert(id, (seq, bytes, false)) {
                unheld.push(older);
            }
        }
        let (mut loaded, mut loaded_bytes) = (0, 0);
        let damaged_versions = state.store.load_blobs(|id, len| {
            let (seq, bytes, held) = newest.get_mut(&id)?;
            if bytes.len() as u64 != len {
                return None;
            }
            *held = true;
            loaded += 1;
            loaded_bytes += len;
            Some((bytes.clone(), *seq))
        });
        blobs.recovery = BlobRecovery {
            loaded,
            loaded_bytes,
            damaged_versions,
            orphans: blobs.recovery.orphans,
        };
        // A file no live version loaded — an older copy, a released
        // body, a damaged file — may still be named by the older
        // snapshot or a PUT before the recovered state, and goes once
        // two snapshots past this open are installed.
        unheld.extend(
            newest
                .into_values()
                .filter(|(.., held)| !held)
                .map(|(seq, ..)| seq),
        );
        unheld.sort_unstable();
        blobs
            .released
            .extend(unheld.into_iter().map(|seq| (seq, committed)));
        let metrics = hpop_obs::metrics();
        for (counter, n) in [
            (
                "attic.durable.damaged_versions",
                blobs.recovery.damaged_versions,
            ),
            ("attic.durable.orphan_blobs", blobs.recovery.orphans),
        ] {
            if n > 0 {
                metrics.counter(counter).add(n);
            }
        }
        Ok(blobs)
    }

    /// Writes `blob`'s body to a file of its own ahead of the frame at
    /// `seq` that will name it, unless a version holds it already, and
    /// tags the blob with the file. Returns whether it wrote one.
    fn write(
        &mut self,
        store: &ObjectStore,
        disk: &mut SimDisk,
        blob: &mut Blob,
        seq: u64,
    ) -> Result<bool, DiskError> {
        // A blob without bytes is a replayed op's, never a live one.
        let Some(body) = blob.body().filter(|_| store.tag(blob.id()).is_none()) else {
            return Ok(false);
        };
        // The device keeps the body's buffer: the version holding it and
        // its file share one immutable copy.
        disk.write_file_shared(self.names.of(seq), body.clone())?;
        blob.set_tag(seq);
        Ok(true)
    }

    /// After a snapshot through `through`: the one before it is now the
    /// older retained, and every file let go of at or before it goes.
    fn collect(&mut self, disk: &mut SimDisk, through: u64) -> Result<(), DiskError> {
        let older = std::mem::replace(&mut self.newest, through);
        while let Some(&(seq, _)) = self.released.front().filter(|(_, at)| *at <= older) {
            self.released.pop_front();
            disk.delete(self.names.of(seq))?;
        }
        Ok(())
    }
}

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
    blobs: BlobFiles,
}

impl AtticBackend for DurableAttic {
    fn state(&self) -> &AtticState {
        self.journal.state()
    }

    fn apply(&mut self, op: AtticOp) -> Result<AtticOutcome, BackendFault> {
        Ok(self.run_op(op)?)
    }
}

impl Deref for DurableAttic {
    type Target = Journal<AtticState>;
    fn deref(&self) -> &Journal<AtticState> {
        &self.journal
    }
}

impl DurableAttic {
    /// Opens (recovers or initializes) an attic stored under `dir`.
    pub fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        let mut journal = Journal::open(disk, dir, cfg)?;
        let blobs = BlobFiles::recover(dir, &mut journal)?;
        Ok(DurableAttic { journal, blobs })
    }

    /// Read-only view of the recovered/live object store.
    pub fn store(&self) -> &ObjectStore {
        &self.journal.state().store
    }

    /// What the last [`DurableAttic::open`] did with the blob files.
    pub fn blob_recovery(&self) -> BlobRecovery {
        self.blobs.recovery
    }

    /// Mutable device access — tests and experiments arm power loss
    /// here.
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        self.journal.disk_mut()
    }

    /// Tears down the process, keeping the platters.
    pub fn into_disk(self) -> SimDisk {
        self.journal.into_disk()
    }

    /// Runs one op: a stored PUT's body first, then the frame, then —
    /// when the journal took a snapshot — the blob files no recoverable
    /// state names any more go.
    fn run_op(&mut self, mut op: AtticOp) -> Result<AtticOutcome, DiskError> {
        let seq = self.journal.committed_seq() + 1;
        let written = match &mut op {
            AtticOp::Put { blob, .. } => {
                let (state, disk) = self.journal.parts_mut();
                self.blobs.write(&state.store, disk, blob, seq)?
            }
            _ => false,
        };
        let taken = self.journal.snapshots_taken();
        let outcome = self.journal.run(op)?;
        let snapshotted = self.journal.snapshots_taken() != taken;
        let (state, disk) = self.journal.parts_mut();
        let released = state.store.released().iter().copied();
        self.blobs.released.extend(released.map(|file| (file, seq)));
        // A refused PUT holds its body nowhere.
        if written && !matches!(outcome, AtticOutcome::Put(Ok(_))) {
            self.blobs.released.push_back((seq, seq));
        }
        if snapshotted {
            self.blobs.collect(disk, seq)?;
        }
        Ok(outcome)
    }
}

impl Journaled for DurableAttic {
    type Machine = AtticState;

    fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        DurableAttic::open(disk, dir, cfg)
    }

    fn run(&mut self, op: AtticOp) -> Result<AtticOutcome, DiskError> {
        self.run_op(op)
    }

    fn journal(&self) -> &Journal<AtticState> {
        &self.journal
    }

    fn disk_mut(&mut self) -> &mut SimDisk {
        self.journal.disk_mut()
    }

    fn into_disk(self) -> SimDisk {
        self.journal.into_disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::{LockDepth, LockScope, LockToken};
    use crate::webdav::DavCore;
    use hpop_core::auth::TokenVerifier;
    use hpop_durability::{
        codec, crash_matrix, damage_recovers_a_committed_prefix, Durable, Persistent,
    };
    use hpop_http::message::{Request, StatusCode};
    use hpop_http::url::Url;
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

    fn put(path: &str, body: impl Into<Bytes>, now: SimTime) -> AtticOp {
        AtticOp::Put {
            path: path.into(),
            blob: Blob::new(body.into()),
            now,
        }
    }

    /// The blob files under `dir`.
    fn blob_files(disk: &SimDisk, dir: &str) -> Vec<String> {
        disk.list(&format!("{dir}/blob/"))
    }

    #[test]
    fn ops_round_trip_through_the_codec() {
        let ops = vec![
            AtticOp::Mkcol { path: "/d".into() },
            put("/d/f", "hello", t(3)),
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
        let (was, is) = (
            st.store.get("/docs/a.txt").unwrap(),
            back.store.get("/docs/a.txt").unwrap(),
        );
        assert_eq!((&is.etag, is.size()), (&was.etag, was.size()));
        // The snapshot names the body; the blob file holds it.
        assert!(was.is_loaded() && !is.is_loaded());
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
        let v = attic.store().get("/docs/a.txt").unwrap();
        assert_eq!(
            (v.etag.as_str(), &v.body[..]),
            (etag.as_str(), &b"contents"[..])
        );
        let (owner, expires_at) = attic
            .find_lock("/docs/a.txt", token, t(3))
            .expect("lock survives the restart");
        assert_eq!(owner, "word-proc");
        assert_eq!(expires_at, t(2) + TTL);
        assert_eq!(
            attic.blob_recovery(),
            BlobRecovery {
                loaded: 1,
                loaded_bytes: 8,
                ..BlobRecovery::default()
            }
        );
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

        // Crash at the *next* op's first step, its blob write: the lock
        // is committed, the in-flight put is not.
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
            let body = vec![b'a' + i as u8; 40 * (i as usize + 1)];
            ops.push(put("/h/c/r.json", body, t(i)));
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
    /// crash at every I/O step — blob writes, frames, snapshots and the
    /// blob deletions after them — recover, and require the committed
    /// prefix, including regenerated lock tokens, byte for byte.
    #[test]
    fn crash_matrix_over_mixed_attic_workload() {
        let ops = mixed_ops();
        let outcome = crash_matrix::<DurableAttic>(41, cfg(), &ops);
        assert!(outcome.baseline_steps > ops.len() as u64);
        assert!(outcome.torn_tails > 0, "some crash points tear the tail");
        // The damage proptest runs prefixes of the same ops under the
        // same config, so it too reaches two installed snapshots.
        assert!(outcome.snapshots >= 2, "the matrix crosses a compaction");
    }

    /// Ops and snapshot as this build lays them out: mkcol `/d`, put
    /// `/d/f` (tag 11: the body's id and length, never its bytes), a
    /// shared depth-infinity lock on it, and the state after those
    /// three (the version is the id, the length and the instant).
    const GOLDEN_OPS: [&[u8]; 3] = [
        b"\x01\x02\x00\x00\x00/d",
        b"\x0b\x04\x00\x00\x00/d/f \x00\x00\x00;\xfc&\x95\x94\xefd\x92(\xe9\xa7K\xab\x00\xf0B\xef\xc9\x1dZ\xcco\xbe\xe3\x1a8.\x80\xd4#\x88\xfe\x02\x00\x00\x00\x00\x00\x00\x00\x00\xca\x9a;\x00\x00\x00\x00",
        b"\x07\x04\x00\x00\x00/d/f\x03\x00\x00\x00app\x01\x01\x00\xb8d\xd9E\x00\x00\x00\x00\x945w\x00\x00\x00\x00",
    ];
    const GOLDEN_SNAPSHOT: &[u8] = b"\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00/\x00\x02\x00\x00\x00/d\x00\x04\x00\x00\x00/d/f\x01\x01\x00\x00\x00\x00\x00\x00\x00 \x00\x00\x00;\xfc&\x95\x94\xefd\x92(\xe9\xa7K\xab\x00\xf0B\xef\xc9\x1dZ\xcco\xbe\xe3\x1a8.\x80\xd4#\x88\xfe\x02\x00\x00\x00\x00\x00\x00\x00\x00\xca\x9a;\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00/d/f\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00app\x01\x01\x00L\x9aPF\x00\x00\x00";

    /// The format is frozen: today's codec writes those bytes, and a
    /// journal holding them still opens.
    #[test]
    fn byte_format_is_frozen() {
        let ops = [
            AtticOp::Mkcol { path: "/d".into() },
            put("/d/f", "v1", t(1)),
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
    /// for the op's encoding. Beside it lies the one blob file, written
    /// in one truncate and one sector step.
    #[test]
    fn run_writes_the_frames_execute_writes() {
        let cfg = DurabilityConfig {
            snapshot_every_ops: 0,
            ..cfg()
        };
        let mut attic = DurableAttic::open(SimDisk::new(5), "attic", cfg).unwrap();
        let mut bytes = Persistent::<Frames>::open(SimDisk::new(5), "attic", cfg).unwrap();
        for op in [
            AtticOp::Mkcol { path: "/d".into() },
            put("/d/f", "v1", t(1)),
        ] {
            bytes.execute(&codec::encode(&op)).unwrap();
            attic.apply(op).unwrap();
        }
        let (mut ran, mut executed) = (attic.into_disk(), bytes.into_disk());
        let segment = "attic/wal/seg-000000000000";
        assert_eq!(executed.list(""), [segment]);
        assert_eq!(ran.list("attic/wal/"), [segment]);
        assert_eq!(ran.read(segment), executed.read(segment));
        let blob = blob_files(&ran, "attic");
        assert_eq!(blob.len(), 1);
        assert_eq!(ran.read(&blob[0]).unwrap(), b"v1");
        assert_eq!(ran.steps(), executed.steps() + 2);
    }

    /// Disk bytes `op` wrote beyond its log frame, and the blob files
    /// it added.
    fn cost(attic: &mut DurableAttic, op: AtticOp) -> (u64, usize) {
        let log = |attic: &DurableAttic| {
            let mut disk = attic.disk().clone();
            let segments = disk.list("attic/wal/");
            segments
                .iter()
                .map(|s| disk.read(s).unwrap().len() as u64)
                .sum::<u64>()
        };
        let files = |attic: &DurableAttic| blob_files(attic.disk(), "attic").len();
        let (bytes, logged, before) =
            (attic.disk().stats().bytes_written, log(attic), files(attic));
        attic.apply(op).unwrap();
        let frame = log(attic) - logged;
        let written = attic.disk().stats().bytes_written - bytes;
        (written - frame, files(attic) - before)
    }

    /// A body reaches the disk once: the first PUT of it writes its
    /// bytes beside its frame; a re-PUT of the same bytes, a COPY and a
    /// MOVE write their frame and not one byte more.
    #[test]
    fn a_body_reaches_the_disk_once() {
        let cfg = DurabilityConfig {
            snapshot_every_ops: 0,
            ..cfg()
        };
        let mut attic = DurableAttic::open(SimDisk::new(3), "attic", cfg).unwrap();
        let body = vec![7u8; 4096];
        assert_eq!(cost(&mut attic, put("/f", body.clone(), t(1))), (4096, 1));
        assert_eq!(cost(&mut attic, put("/f", body, t(2))), (0, 0));
        let copy = AtticOp::Copy {
            src: "/f".into(),
            dst: "/g".into(),
            now: t(3),
        };
        assert_eq!(cost(&mut attic, copy), (0, 0));
        let rename = AtticOp::Rename {
            src: "/g".into(),
            dst: "/h".into(),
            now: t(4),
        };
        assert_eq!(cost(&mut attic, rename), (0, 0));
        let history = attic.store().history("/f").unwrap();
        assert_eq!(history[0].body.len(), 4096);
        assert!(history.iter().all(|v| v.body == history[0].body));
    }

    /// The newest snapshot's length after `n` files of `size` bytes
    /// under the same names and instants.
    fn snapshot_len(size: usize) -> usize {
        let cfg = DurabilityConfig {
            max_segment_bytes: 1 << 20,
            snapshot_every_ops: 33,
        };
        let mut attic = DurableAttic::open(SimDisk::new(1), "attic", cfg).unwrap();
        attic.mkcol("/d").unwrap().unwrap();
        for i in 0..32u8 {
            let body = vec![i; size];
            attic
                .put(&format!("/d/f{i:02}"), body, t(u64::from(i)))
                .unwrap()
                .unwrap();
        }
        let mut disk = attic.into_disk();
        let snaps = disk.list("attic/snap-");
        assert_eq!(snaps.len(), 1, "one snapshot, after the 33rd op");
        disk.read(&snaps[0]).unwrap().len()
    }

    /// A snapshot holds the namespace, not the bodies: the same names
    /// snapshot to the same length with 1 KiB and with 64 KiB bodies.
    #[test]
    fn snapshot_length_does_not_depend_on_body_size() {
        let small = snapshot_len(1024);
        assert_eq!(small, snapshot_len(64 * 1024));
        assert!(small < 32 * 128, "{small} B for 32 versions");
    }

    /// A blob goes once nothing recoverable names it: not at the DELETE,
    /// not at the next snapshot (the older retained snapshot still names
    /// it), but at the one after.
    #[test]
    fn a_blob_goes_once_no_retained_snapshot_or_logged_put_names_it() {
        let cfg = DurabilityConfig {
            max_segment_bytes: 1 << 20,
            snapshot_every_ops: 4,
        };
        let mut attic = DurableAttic::open(SimDisk::new(2), "attic", cfg).unwrap();
        let files = |attic: &DurableAttic| blob_files(attic.disk(), "attic").len();
        attic.put("/keep", "kept", t(0)).unwrap().unwrap();
        attic.put("/gone", "doomed", t(0)).unwrap().unwrap();
        attic.put("/copy", "kept", t(0)).unwrap().unwrap();
        attic.delete("/gone").unwrap().unwrap();
        // Op 4 installed the first snapshot: the fresh log behind it
        // still replays the doomed PUT.
        assert_eq!((attic.snapshots_taken(), files(&attic)), (1, 2));
        for i in 0..4 {
            attic.put("/keep", "kept", t(i)).unwrap().unwrap();
        }
        // The second snapshot: the first, now the older, does not name
        // the doomed body, and no PUT logged since does.
        assert_eq!((attic.snapshots_taken(), files(&attic)), (2, 1));
        let mut disk = attic.into_disk();
        disk.restart();
        let attic = DurableAttic::open(disk, "attic", cfg).unwrap();
        assert_eq!(&attic.store().get("/copy").unwrap().body[..], b"kept");
        assert_eq!(attic.blob_recovery().loaded, 1, "one distinct body");
    }

    /// Power cut between a blob write and its frame leaves an orphan;
    /// the next open deletes it and the store never saw the PUT.
    #[test]
    fn an_orphan_blob_is_deleted_on_open() {
        let mut attic = DurableAttic::open(SimDisk::new(4), "attic", cfg()).unwrap();
        attic.put("/f", "committed", t(0)).unwrap().unwrap();
        // The blob write is a truncate and one sector; the crash takes
        // the frame's first sector.
        let at = attic.disk().steps() + 2;
        attic.disk_mut().arm_crash(at);
        assert!(attic.put("/f", "never acked", t(1)).is_err());
        let mut disk = attic.into_disk();
        disk.restart();
        assert_eq!(blob_files(&disk, "attic").len(), 2);
        let attic = DurableAttic::open(disk, "attic", cfg()).unwrap();
        assert_eq!(attic.blob_recovery().orphans, 1);
        assert_eq!(blob_files(attic.disk(), "attic").len(), 1);
        assert_eq!(attic.store().history("/f").unwrap().len(), 1);
    }

    /// A blob file is named by the writing op's sequence number in hex,
    /// which the next open parses back.
    #[test]
    fn blob_file_names_spell_the_sequence() {
        let mut names = Names::new("svc");
        for (seq, spelled) in [(0, "0"), (0x1a, "1a"), (u64::MAX, "ffffffffffffffff")] {
            let name = names.of(seq).to_owned();
            assert_eq!(name, format!("svc/blob/{spelled}"));
            assert_eq!(names.seq(&name), Some(seq));
        }
        assert_eq!(names.seq("svc/blob/not-hex"), None);
        assert_eq!(names.seq("svc/wal/1a"), None);
    }

    /// What a read of `path` answers on `attic`.
    fn get(attic: DurableAttic, path: &str) -> StatusCode {
        let mut core = DavCore::new(attic, TokenVerifier::new([1u8; 32]));
        let req = Request::get(Url::https("attic.home", path));
        core.serve(&req, crate::ports::Origin::Local, t(99)).status
    }

    proptest::proptest! {
        /// One damaged file — a log segment, a snapshot or a blob, cut
        /// at a point and followed by noise — recovers a committed
        /// prefix and loses no acked op unreported. A damaged blob costs
        /// no op: the namespace recovers in full, and each version of
        /// the damaged body is counted and answers `500`, never wrong
        /// bytes. The op count runs over 0, 1 and 2 installed snapshots.
        #[test]
        fn damaged_journal_recovers_a_committed_prefix(
            n in 1..=12usize,
            file in proptest::prelude::any::<usize>(),
            at in proptest::prelude::any::<proptest::sample::Index>(),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
        ) {
            let ops = &mixed_ops()[..n];
            let mut before = Vec::new();
            let (attic, name) = damage_recovers_a_committed_prefix::<DurableAttic>(43, cfg(), ops, file, |bytes| {
                before.clone_from(bytes);
                bytes.truncate(at.index(bytes.len() + 1));
                bytes.extend_from_slice(&noise);
            });
            let damaged = name
                .strip_prefix("svc/blob/")
                .filter(|_| before[..] != *SimDisk::clone(attic.disk()).read(&name).unwrap_or_default())
                .map(|_| BlobId::of(&before));
            let versions: Vec<_> = ["/h/c/r.json", "/h/c/copy.json"]
                .iter()
                .flat_map(|p| attic.store().history(p).unwrap_or(&[]).iter().map(move |v| (*p, v.clone())))
                .collect();
            let hit = versions.iter().filter(|(_, v)| Some(v.blob()) == damaged).count() as u64;
            proptest::prop_assert_eq!(attic.blob_recovery().damaged_versions, hit);
            for (_, v) in &versions {
                proptest::prop_assert_eq!(v.is_loaded(), Some(v.blob()) != damaged);
                if v.is_loaded() {
                    proptest::prop_assert_eq!(&v.etag, &crate::store::etag_of(&v.body));
                }
            }
            if let Some((path, _)) = versions.iter().rfind(|(_, v)| Some(v.blob()) == damaged) {
                let current = attic.store().get(path).unwrap().blob() == damaged.unwrap();
                let status = get(attic.clone(), path);
                proptest::prop_assert!(!current || status == StatusCode::INTERNAL_SERVER_ERROR);
            }
        }

        #[test]
        fn decode_is_total(noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
            let [mkcol, put, lock] = GOLDEN_OPS;
            hpop_durability::decode_is_total::<AtticState>(&[mkcol, put, lock, GOLDEN_SNAPSHOT], &noise);
        }
    }
}

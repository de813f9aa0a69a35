//! [`Machine`] — what a service writes — and [`Journal<M>`] — the
//! WAL + snapshot store that makes it crash-consistent.
//!
//! ## The committed-prefix invariant
//!
//! [`Journal::run`] encodes the op once, straight into its one WAL
//! frame — a valid frame is its own commit — and only then runs the op
//! value on the machine and returns `Ok` with what it answered (the
//! *ack*). Power can fail at any I/O step, which yields exactly three
//! observable classes after recovery:
//!
//! - **acked** ops (`run` returned `Ok`) — always recovered;
//! - at most one **committed-but-unacked** op (power failed after its
//!   frame was durable, during post-commit snapshot I/O) — recovered,
//!   and the caller's retry must be idempotent at the service layer
//!   (e.g. NoCDN settlement replay rejection);
//! - **unacked** ops — cleanly absent, never half-applied.
//!
//! Recovery decodes each committed frame back to an op and runs it. The
//! exhaustive proof lives in [`crate::harness`], which enumerates every
//! I/O step of a workload, crashes there, recovers, and checks all
//! three classes plus byte-identical replay.
//!
//! Media damage to any one file costs at most this: a damaged snapshot
//! loses no acked op (the log is compacted only behind the older of two
//! retained snapshots), damage to a log segment before the last is
//! reported as `corrupted_history`, and damage to the last segment
//! reads as a torn tail.
//!
//! ## Snapshot cadence
//!
//! A snapshot is due once at least `snapshot_every_ops` ops **and** at
//! least the newest snapshot's length in WAL bytes were committed since
//! it — the log-compaction rule of Raft (Ongaro's dissertation, §5.1):
//! snapshot once the log outgrows the previous snapshot. Two amortised
//! bounds follow:
//!
//! - **write cost**: the snapshot bytes a store writes are at most the
//!   log bytes it writes plus its largest snapshot, so a large state
//!   that changes slowly is not rewritten every few ops;
//! - **replay cost**: a reopen replays at most the loaded snapshot's
//!   length of log plus one frame, or at most `snapshot_every_ops` ops.
//!
//! The counters survive a restart: [`Journal::open`] seeds them with
//! the ops and log bytes it replayed and the loaded snapshot's length,
//! so a store that restarts more often than its cadence still
//! snapshots and compacts.
//!
//! Each snapshot is the machine's [`Wire`] layout, put once directly
//! behind its header in a buffer that the device then keeps as the
//! file's body ([`SimDisk::write_file_owned`]). The body of the
//! snapshot that pruning deletes comes back ([`SimDisk::remove`]) and
//! is the buffer the next snapshot is laid out in, so a store of steady
//! size allocates no snapshot-sized buffer.

use crate::codec::{self, ByteReader, ByteWriter, Wire};
use crate::snapshot;
use crate::wal::Wal;
use hpop_netsim::storage::{DiskError, SimDisk};
use hpop_obs::CounterHandle;

/// Tuning for one journal.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// Rotate the WAL segment at the first commit past this size.
    pub max_segment_bytes: u64,
    /// Snapshot + compact once at least this many ops, and at least the
    /// last snapshot's length in log bytes, were committed since the
    /// last snapshot (0 = never).
    pub snapshot_every_ops: u64,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig {
            max_segment_bytes: 64 * 1024,
            snapshot_every_ops: 1024,
        }
    }
}

/// Installed snapshots to retain (bit-rot fallback depth).
const KEEP_SNAPSHOTS: usize = 2;

/// What [`Journal::open`] did to get the state back.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// `through_seq` of the snapshot the state started from (0 =
    /// recovered purely by replay).
    pub snapshot_through: u64,
    /// Damaged snapshots skipped before one validated and decoded.
    pub snapshot_fallbacks: u64,
    /// Committed WAL ops replayed on top of the snapshot.
    pub ops_replayed: u64,
    /// Bytes of the WAL frames replayed.
    pub log_bytes_replayed: u64,
    /// File length of the snapshot the state started from (0 = none).
    pub snapshot_bytes: u64,
    /// Bytes read off the device during recovery.
    pub bytes_read: u64,
    /// A torn WAL tail was truncated (normal after power loss
    /// mid-append).
    pub torn_tail: bool,
    /// Committed history was damaged on the media (rot inside an old
    /// segment, or a hole in the sequence numbers after the snapshot);
    /// state is the longest trustworthy prefix.
    pub corrupted_history: bool,
}

/// A deterministic state machine that can live behind a journal: its
/// [`Wire`] layout is the snapshot, `default()` is the state before any
/// op, and [`Machine::run`] is the one place an op meets the state —
/// live call and recovery replay alike.
///
/// `run` must be deterministic: replaying the same ops onto `default()`
/// must reproduce the same encoding, and that encoding must decode back
/// to itself. An op's encoding must decode back to itself too: the live
/// call runs the op value, replay runs what its bytes decode to.
/// [`crate::crash_matrix`] asserts all three.
pub trait Machine: Wire + Default {
    /// One mutation, as the journal records it.
    type Op: Wire;
    /// What running an op answers. Never journaled: replay recomputes
    /// it.
    type Outcome;
    /// Runs one op.
    fn run(&mut self, op: Self::Op) -> Self::Outcome;
}

/// A [`Machine`] made crash-consistent by a write-ahead log and
/// periodic snapshots on a [`SimDisk`]: every [`Journal::run`] is
/// logged and committed before it answers, and [`Journal::open`]
/// recovers the committed prefix (see the module docs).
#[derive(Clone, Debug)]
pub struct Journal<M: Machine> {
    machine: M,
    disk: SimDisk,
    dir: String,
    wal: Wal,
    cfg: DurabilityConfig,
    committed_seq: u64,
    /// Ops committed since the newest snapshot.
    ops_since_snapshot: u64,
    /// WAL bytes appended since the newest snapshot.
    log_bytes_since_snapshot: u64,
    /// File length of the newest snapshot, written or loaded.
    snapshot_bytes: u64,
    /// The body of the last snapshot pruned, which the next one is laid
    /// out in.
    spare: Vec<u8>,
    /// Snapshots this instance installed.
    snapshots: u64,
    /// `through_seq` of every installed snapshot, ascending: listed
    /// once at open, kept here after.
    installed: Vec<u64>,
    recovery: RecoveryReport,
    /// `durability.ops.committed`, resolved once at open.
    committed: CounterHandle,
}

impl<M: Machine> Journal<M> {
    /// Opens (recovers or freshly initializes) the machine stored under
    /// `dir`.
    ///
    /// Recovery: the newest snapshot that validates and decodes
    /// (falling back past damaged ones), then the contiguous run of
    /// WAL ops after its `through_seq` (see [`crate::wal`]), each
    /// decoded and run; a frame that does not decode (impossible for a
    /// CRC-verified committed one) is skipped. The scan also repairs
    /// torn tails and drops the log past a hole, so a crash *during*
    /// recovery is itself recoverable — open is idempotent.
    ///
    /// # Errors
    ///
    /// The device failed during recovery.
    pub fn open(mut disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        let read0 = disk.stats().bytes_read;
        let snap = snapshot::load_latest(&mut disk, dir, codec::decode::<M>)?;
        snapshot::clear_orphans(&mut disk, dir)?;
        let (through, mut machine) = snap.loaded.unwrap_or_default();
        let mut ops_replayed = 0;
        let (wal, wal_rec) = Wal::recover(
            &mut disk,
            &format!("{dir}/wal"),
            cfg.max_segment_bytes,
            through,
            |op| {
                if let Some(op) = codec::decode(op) {
                    machine.run(op);
                }
                ops_replayed += 1;
            },
        )?;
        let report = RecoveryReport {
            snapshot_through: through,
            snapshot_fallbacks: snap.fallbacks,
            ops_replayed,
            log_bytes_replayed: wal_rec.replayed_bytes,
            snapshot_bytes: snap.len,
            bytes_read: disk.stats().bytes_read - read0,
            torn_tail: wal_rec.torn_tail,
            corrupted_history: wal_rec.corrupted_history,
        };

        let metrics = hpop_obs::metrics();
        metrics.counter("durability.recovery.count").add(1);
        metrics
            .counter("durability.recovery.ops_replayed")
            .add(report.ops_replayed);
        metrics
            .counter("durability.recovery.snapshot_fallbacks")
            .add(report.snapshot_fallbacks);
        if report.torn_tail {
            metrics.counter("durability.recovery.torn_tails").add(1);
        }

        Ok(Journal {
            committed_seq: wal_rec.committed_seq,
            machine,
            disk,
            dir: dir.to_string(),
            wal,
            cfg,
            // What was replayed was logged since the loaded snapshot:
            // a store that restarts often still reaches its next one.
            ops_since_snapshot: report.ops_replayed,
            log_bytes_since_snapshot: report.log_bytes_replayed,
            snapshot_bytes: report.snapshot_bytes,
            spare: Vec::new(),
            snapshots: 0,
            installed: snap.installed,
            recovery: report,
            committed: metrics.counter("durability.ops.committed"),
        })
    }

    /// Durably runs one op and returns what the machine answered: WAL
    /// append (the commit), the op run on the machine, then (maybe) a
    /// snapshot and compaction. `Ok` is the ack — the op survives any
    /// later crash.
    ///
    /// # Errors
    ///
    /// The device failed: the op is at worst committed-but-unacked (see
    /// the module docs), so the caller's retry must be idempotent.
    pub fn run(&mut self, op: M::Op) -> Result<M::Outcome, DiskError> {
        let seq = self.committed_seq + 1;
        let frame_len = self
            .wal
            .append_encoded(&mut self.disk, seq, |w| op.put(w))?;
        self.committed_seq = seq;
        self.log_bytes_since_snapshot += frame_len;
        let outcome = self.machine.run(op);
        self.ops_since_snapshot += 1;
        self.committed.incr();
        if self.cfg.snapshot_every_ops > 0
            && self.ops_since_snapshot >= self.cfg.snapshot_every_ops
            && self.log_bytes_since_snapshot >= self.snapshot_bytes
        {
            self.snapshot_now()?;
        }
        Ok(outcome)
    }

    /// Snapshots the machine and compacts the WAL behind it.
    /// Crash-safe at every step: the snapshot installs atomically, the
    /// rotation is pure bookkeeping, and a leftover tmp file or old
    /// segment is cleaned up by the next open or compaction. Nothing is
    /// listed: the installed snapshots and the log's segments are known
    /// in memory from open on. Compaction waits until `KEEP_SNAPSHOTS`
    /// snapshots are installed and then only drops segments fully
    /// covered by the *oldest* of them, so bit-rot fallback past any one
    /// snapshot always finds the WAL ops it needs to catch back up.
    ///
    /// # Errors
    ///
    /// The device failed; what was installed before it still loads.
    pub fn snapshot_now(&mut self) -> Result<(), DiskError> {
        // Room for the last snapshot and an eighth more, so a state
        // that grew a little since lays out without reallocating.
        let mut buf = std::mem::take(&mut self.spare);
        let hint = self.snapshot_bytes as usize;
        buf.clear();
        buf.reserve_exact(hint + hint / 8);
        let machine = &self.machine;
        self.snapshot_bytes = snapshot::write_snapshot_with(
            &mut self.disk,
            &self.dir,
            self.committed_seq,
            buf,
            |w| {
                w.put(machine);
            },
        )?;
        self.snapshots += 1;
        let installed = &mut self.installed;
        self.spare = snapshot::prune(
            &mut self.disk,
            &self.dir,
            installed,
            self.committed_seq,
            KEEP_SNAPSHOTS,
        )?
        .unwrap_or_default();
        self.wal.rotate();
        if installed.len() >= KEEP_SNAPSHOTS {
            self.wal.compact_covered(&mut self.disk, installed[0])?;
        }
        self.ops_since_snapshot = 0;
        self.log_bytes_since_snapshot = 0;
        hpop_obs::metrics()
            .counter("durability.snapshot.written")
            .add(1);
        Ok(())
    }

    /// The recovered/live machine (reads only — every mutation goes
    /// through [`Journal::run`]).
    pub fn state(&self) -> &M {
        &self.machine
    }

    /// Highest committed op sequence number.
    pub fn committed_seq(&self) -> u64 {
        self.committed_seq
    }

    /// Snapshots this journal installed since it opened: an adopter that
    /// keeps files beside the journal learns from a change here that
    /// the log was compacted behind a new snapshot.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots
    }

    /// The machine and the device together, for an adopter that keeps
    /// part of its state in files of its own beside the journal (the
    /// attic's bodies): what the machine's encoding does not hold may
    /// be filled in from those files after [`Journal::open`]. What the
    /// encoding holds must change only through [`Journal::run`], or
    /// replay no longer reproduces it.
    pub fn parts_mut(&mut self) -> (&mut M, &mut SimDisk) {
        (&mut self.machine, &mut self.disk)
    }

    /// How the last [`Journal::open`] recovered.
    pub fn last_recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The underlying device (stats).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Mutable device access — tests and experiments arm power loss
    /// here.
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }

    /// Tears down the in-memory half (the "process") and returns the
    /// platters, ready for [`SimDisk::restart`] + [`Journal::open`].
    pub fn into_disk(self) -> SimDisk {
        self.disk
    }
}

/// What the fixtures in [`crate::harness`] drive: a [`Journal`], or an
/// adopter that wraps one and keeps more of its state on the same
/// device, so that the crash matrix also cuts power inside the writes
/// the adopter makes beside the log.
pub trait Journaled: Sized {
    /// The machine the journal runs.
    type Machine: Machine;
    /// Opens (recovers or initializes) the store under `dir`.
    ///
    /// # Errors
    ///
    /// The device failed during recovery.
    fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError>;
    /// Durably runs one op; `Ok` is the ack.
    ///
    /// # Errors
    ///
    /// The device failed: the op is at worst committed but unacked.
    fn run(
        &mut self,
        op: <Self::Machine as Machine>::Op,
    ) -> Result<<Self::Machine as Machine>::Outcome, DiskError>;
    /// The journal inside.
    fn journal(&self) -> &Journal<Self::Machine>;
    /// The device, for arming power loss.
    fn disk_mut(&mut self) -> &mut SimDisk;
    /// Tears down the process and returns the platters.
    fn into_disk(self) -> SimDisk;
}

impl<M: Machine> Journaled for Journal<M> {
    type Machine = M;

    fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        Journal::open(disk, dir, cfg)
    }

    fn run(&mut self, op: M::Op) -> Result<M::Outcome, DiskError> {
        Journal::run(self, op)
    }

    fn journal(&self) -> &Journal<M> {
        self
    }

    fn disk_mut(&mut self) -> &mut SimDisk {
        Journal::disk_mut(self)
    }

    fn into_disk(self) -> SimDisk {
        Journal::into_disk(self)
    }
}

/// A state that speaks bytes: ops arrive as `&[u8]` and `apply`
/// answers nothing. Only the benchmark's journal-replay micro
/// (`perf/src/micro.rs`) still implements it; everything else is a
/// [`Machine`]. `decode_state(encode_state())` must round-trip, and
/// `apply` must be deterministic.
#[doc(hidden)]
pub trait Durable: Sized {
    /// The state before any op was ever applied.
    fn fresh() -> Self;
    /// Full state serialization for snapshots (deterministic).
    fn encode_state(&self) -> Vec<u8>;
    /// Rebuilds state from [`Durable::encode_state`] bytes; `None` on
    /// damage.
    fn decode_state(bytes: &[u8]) -> Option<Self>;
    /// Applies one committed op.
    fn apply(&mut self, op: &[u8]);
}

/// A [`Durable`] run by a [`Journal`] of a machine whose state and op
/// layouts are the bytes themselves: [`Persistent::execute`] is
/// [`Journal::run`], and its frames and snapshots are those bytes.
/// Kept, like [`Durable`], only for `perf/src/micro.rs`.
#[doc(hidden)]
pub struct Persistent<T: Durable>(Journal<ByteState<T>>);

/// A [`Durable`] as a [`Machine`]: its layout is `encode_state`'s bytes.
struct ByteState<T>(T);

/// An op that is its bytes, as they are.
struct RawOp(Vec<u8>);

impl<T: Durable> Default for ByteState<T> {
    fn default() -> ByteState<T> {
        ByteState(T::fresh())
    }
}

impl<T: Durable> Wire for ByteState<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.raw(&self.0.encode_state());
    }
    fn take(r: &mut ByteReader<'_>) -> Option<ByteState<T>> {
        T::decode_state(r.rest()).map(ByteState)
    }
}

impl Wire for RawOp {
    fn put(&self, w: &mut ByteWriter) {
        w.raw(&self.0);
    }
    fn take(r: &mut ByteReader<'_>) -> Option<RawOp> {
        Some(RawOp(r.rest().to_vec()))
    }
}

impl<T: Durable> Machine for ByteState<T> {
    type Op = RawOp;
    type Outcome = ();
    fn run(&mut self, op: RawOp) {
        self.0.apply(&op.0);
    }
}

impl<T: Durable> Persistent<T> {
    /// [`Journal::open`].
    pub fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        Journal::open(disk, dir, cfg).map(Persistent)
    }

    /// [`Journal::run`] for an op handed over as its bytes, which are
    /// its frame as they are.
    pub fn execute(&mut self, op: &[u8]) -> Result<(), DiskError> {
        self.0.run(RawOp(op.to_vec()))
    }

    /// [`Journal::snapshot_now`].
    pub fn snapshot_now(&mut self) -> Result<(), DiskError> {
        self.0.snapshot_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A byte log that starts over past 64 bytes.
    struct Log(Vec<u8>);

    impl Durable for Log {
        fn fresh() -> Log {
            Log(Vec::new())
        }
        fn encode_state(&self) -> Vec<u8> {
            self.0.clone()
        }
        fn decode_state(bytes: &[u8]) -> Option<Log> {
            Some(Log(bytes.to_vec()))
        }
        fn apply(&mut self, op: &[u8]) {
            if self.0.len() + op.len() > 64 {
                self.0.clear();
            }
            self.0.extend_from_slice(op);
        }
    }

    /// What `execute` applied comes back from snapshots and replayed
    /// frames alike.
    #[test]
    fn the_byte_road_recovers_what_it_executed() {
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            snapshot_every_ops: 4,
        };
        let mut p = Persistent::<Log>::open(SimDisk::new(1), "b", cfg).unwrap();
        let mut twin = Log::fresh();
        for i in 0..30u8 {
            let op = vec![i; usize::from(i % 5) + 1];
            p.execute(&op).unwrap();
            twin.apply(&op);
        }
        p.snapshot_now().unwrap();
        p.execute(b"tail").unwrap();
        twin.apply(b"tail");
        let p = Persistent::<Log>::open(p.0.into_disk(), "b", cfg).unwrap();
        let r = p.0.last_recovery();
        assert_eq!((r.snapshot_through, r.ops_replayed), (30, 1));
        assert_eq!(p.0.state().0 .0, twin.0);
    }
}

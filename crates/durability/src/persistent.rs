//! [`Durable`] — the contract a service implements — and
//! [`Persistent<T>`] — the WAL + snapshot machine that runs it.
//!
//! ## The committed-prefix invariant
//!
//! [`Persistent::execute`] appends the op's one WAL frame — a valid
//! frame is its own commit — and only then applies the op to the
//! in-memory state and returns `Ok` (the *ack*); [`crate::Journal::run`]
//! takes the same steps with a typed op. Power can fail at any I/O step,
//! which yields exactly three observable classes after recovery:
//!
//! - **acked** ops (execute returned `Ok`) — always recovered;
//! - at most one **committed-but-unacked** op (power failed after its
//!   frame was durable, during post-commit snapshot I/O) — recovered,
//!   and the caller's retry must be idempotent at the service layer
//!   (e.g. NoCDN settlement replay rejection);
//! - **unacked** ops — cleanly absent, never half-applied.
//!
//! The exhaustive proof lives in [`crate::harness`], which enumerates
//! every I/O step of a workload, crashes there, recovers, and checks
//! all three classes plus byte-identical replay.
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
//! The counters survive a restart: [`Persistent::open`] seeds them
//! with the ops and log bytes it replayed and the loaded snapshot's
//! length, so a store that restarts more often than its cadence still
//! snapshots and compacts.
//!
//! Each snapshot is laid out once, directly behind its header
//! ([`Durable::encode_state_into`]), in a buffer that the device then
//! keeps as the file's body ([`SimDisk::write_file_owned`]). The body
//! of the snapshot that pruning deletes comes back
//! ([`SimDisk::remove`]) and is the buffer the next snapshot is laid
//! out in, so a store of steady size allocates no snapshot-sized
//! buffer.

use crate::codec::ByteWriter;
use crate::snapshot;
use crate::wal::Wal;
use hpop_netsim::storage::{DiskError, SimDisk};
use hpop_obs::CounterHandle;

/// State that can live behind a WAL: replayable ops plus whole-state
/// snapshot encode/decode.
///
/// `apply` must be deterministic — replaying the same committed ops
/// onto `fresh()` must reproduce the same `encode_state()` bytes, and
/// `decode_state(encode_state())` must round-trip. Those two laws are
/// what the crash harness asserts.
pub trait Durable: Sized {
    /// The state before any op was ever applied.
    fn fresh() -> Self;
    /// Full state serialization for snapshots (deterministic).
    fn encode_state(&self) -> Vec<u8>;
    /// Rebuilds state from [`Durable::encode_state`] bytes; `None` on
    /// damage (the caller falls back to an older snapshot or replay).
    fn decode_state(bytes: &[u8]) -> Option<Self>;
    /// Applies one committed op. Must be deterministic; malformed op
    /// bytes (impossible for CRC-verified committed frames) may be
    /// ignored.
    fn apply(&mut self, op: &[u8]);
    /// Appends the [`Durable::encode_state`] bytes to `w`, where a
    /// snapshot lays them out. A state that can write itself in place
    /// overrides this, and its snapshots then copy nothing.
    fn encode_state_into(&self, w: &mut ByteWriter) {
        w.raw(&self.encode_state());
    }
}

/// Tuning for one persistent store.
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

/// What [`Persistent::open`] did to get the state back.
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

/// A service state of type `T` made crash-consistent by a write-ahead
/// log and periodic snapshots on a [`SimDisk`].
#[derive(Clone, Debug)]
pub struct Persistent<T> {
    state: T,
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

impl<T: Durable> Persistent<T> {
    /// Opens (recovers or freshly initializes) the store under `dir`.
    ///
    /// Recovery: the newest snapshot that validates and decodes
    /// (falling back past damaged ones), then the contiguous run of
    /// WAL ops after its `through_seq` (see [`crate::wal`]). The scan
    /// also repairs torn tails and drops the log past a hole, so a
    /// crash *during* recovery is itself recoverable — open is
    /// idempotent.
    pub fn open(mut disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        let read0 = disk.stats().bytes_read;
        let snap = snapshot::load_latest(&mut disk, dir, T::decode_state)?;
        snapshot::clear_orphans(&mut disk, dir)?;
        let (through, mut state) = snap.loaded.unwrap_or_else(|| (0, T::fresh()));
        let mut ops_replayed = 0;
        let (wal, wal_rec) = Wal::recover(
            &mut disk,
            &format!("{dir}/wal"),
            cfg.max_segment_bytes,
            through,
            |op| {
                state.apply(op);
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

        Ok(Persistent {
            committed_seq: wal_rec.committed_seq,
            state,
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

    /// Durably executes one op: WAL append (the commit), in-memory
    /// apply, then (maybe) snapshot + compaction. `Ok` is the ack —
    /// the op survives any later crash. On `Err` the op is at worst
    /// committed-but-unacked (see the module docs); the caller's retry
    /// path must tolerate that.
    pub fn execute(&mut self, op: &[u8]) -> Result<(), DiskError> {
        self.log(|w| {
            w.raw(op);
        })?;
        self.state.apply(op);
        self.after_apply()
    }

    /// The first half of [`Persistent::execute`]: appends the op frame
    /// that `write` fills. The op is committed when this returns `Ok`;
    /// the caller applies it next and then calls
    /// [`Persistent::after_apply`].
    pub(crate) fn log(&mut self, write: impl FnOnce(&mut ByteWriter)) -> Result<(), DiskError> {
        let seq = self.committed_seq + 1;
        let frame_len = self.wal.append_encoded(&mut self.disk, seq, write)?;
        self.committed_seq = seq;
        self.log_bytes_since_snapshot += frame_len;
        Ok(())
    }

    /// The last half of [`Persistent::execute`], once the logged op is
    /// applied: counts it, then snapshots and compacts when one is due
    /// (see the module docs for the cadence).
    pub(crate) fn after_apply(&mut self) -> Result<(), DiskError> {
        self.ops_since_snapshot += 1;
        self.committed.incr();
        if self.cfg.snapshot_every_ops > 0
            && self.ops_since_snapshot >= self.cfg.snapshot_every_ops
            && self.log_bytes_since_snapshot >= self.snapshot_bytes
        {
            self.snapshot_now()?;
        }
        Ok(())
    }

    /// Snapshots the current state and compacts the WAL behind it.
    /// Crash-safe at every step: the snapshot installs atomically, the
    /// rotation is pure bookkeeping, and a leftover tmp file or old
    /// segment is cleaned up by the next open or compaction. Nothing is
    /// listed: the installed snapshots and the log's segments are known
    /// in memory from open on. Compaction waits until `KEEP_SNAPSHOTS`
    /// snapshots are installed and then only drops segments fully
    /// covered by the *oldest* of them, so bit-rot fallback past any one
    /// snapshot always finds the WAL ops it needs to catch back up.
    pub fn snapshot_now(&mut self) -> Result<(), DiskError> {
        // Room for the last snapshot and an eighth more, so a state
        // that grew a little since lays out without reallocating.
        let mut buf = std::mem::take(&mut self.spare);
        let hint = self.snapshot_bytes as usize;
        buf.clear();
        buf.reserve_exact(hint + hint / 8);
        let state = &self.state;
        self.snapshot_bytes = snapshot::write_snapshot_with(
            &mut self.disk,
            &self.dir,
            self.committed_seq,
            buf,
            |w| {
                state.encode_state_into(w);
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

    /// The recovered/live state (reads only — all mutation goes
    /// through [`Persistent::execute`]).
    pub fn state(&self) -> &T {
        &self.state
    }

    /// The state, for applying an op between [`Persistent::log`] and
    /// [`Persistent::after_apply`].
    pub(crate) fn state_mut(&mut self) -> &mut T {
        &mut self.state
    }

    /// The state and the device at once (see [`crate::Journal::parts_mut`]).
    pub(crate) fn parts_mut(&mut self) -> (&mut T, &mut SimDisk) {
        (&mut self.state, &mut self.disk)
    }

    /// Snapshots this instance installed since it opened.
    pub(crate) fn snapshots_taken(&self) -> u64 {
        self.snapshots
    }

    /// Highest committed sequence number.
    pub fn committed_seq(&self) -> u64 {
        self.committed_seq
    }

    /// How the last [`Persistent::open`] recovered.
    pub fn last_recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The underlying device (stats, crash arming).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Mutable device access — the crash harness arms power loss here.
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }

    /// Tears down the in-memory half (the "process") and returns the
    /// platters, ready for [`SimDisk::restart`] + [`Persistent::open`].
    pub fn into_disk(self) -> SimDisk {
        self.disk
    }
}

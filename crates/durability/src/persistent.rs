//! [`Durable`] — the contract a service implements — and
//! [`Persistent<T>`] — the WAL + snapshot machine that runs it.
//!
//! ## The committed-prefix invariant
//!
//! [`Persistent::execute`] appends the op frame, appends the commit
//! marker, and only then applies the op to the in-memory state and
//! returns `Ok` (the *ack*); [`crate::Journal::run`] takes the same
//! three steps with a typed op. Power can fail at any I/O step, which
//! yields exactly three observable classes after recovery:
//!
//! - **acked** ops (execute returned `Ok`) — always recovered;
//! - at most one **committed-but-unacked** op (power failed after the
//!   marker was durable but during post-commit snapshot I/O) —
//!   recovered, and the caller's retry must be idempotent at the
//!   service layer (e.g. NoCDN settlement replay rejection);
//! - **unacked** ops — cleanly absent, never half-applied.
//!
//! The exhaustive proof lives in [`crate::harness`], which enumerates
//! every I/O step of a workload, crashes there, recovers, and checks
//! all three classes plus byte-identical replay.

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
}

/// Tuning for one persistent store.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// Rotate the WAL segment at the first commit past this size.
    pub max_segment_bytes: u64,
    /// Snapshot + compact every this many committed ops (0 = never).
    pub snapshot_every_ops: u64,
    /// Installed snapshots to retain (bit-rot fallback depth).
    pub keep_snapshots: usize,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig {
            max_segment_bytes: 64 * 1024,
            snapshot_every_ops: 1024,
            keep_snapshots: 2,
        }
    }
}

/// What [`Persistent::open`] did to get the state back.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// `through_seq` of the snapshot the state started from (0 =
    /// recovered purely by replay).
    pub snapshot_through: u64,
    /// Damaged snapshots skipped before one validated.
    pub snapshot_fallbacks: u64,
    /// Committed WAL ops replayed on top of the snapshot.
    pub ops_replayed: u64,
    /// Bytes read off the device during recovery.
    pub bytes_read: u64,
    /// A torn WAL tail was truncated (normal after power loss
    /// mid-append).
    pub torn_tail: bool,
    /// Committed history was damaged on the media (rot inside an old
    /// segment); state is the longest trustworthy prefix.
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
    ops_since_snapshot: u64,
    recovery: RecoveryReport,
    /// `durability.ops.committed`, resolved once at open.
    committed: CounterHandle,
}

impl<T: Durable> Persistent<T> {
    /// Opens (recovers or freshly initializes) the store under `dir`.
    ///
    /// Recovery: newest valid snapshot (falling back past rot), then
    /// replay of every committed WAL op above its `through_seq`. The
    /// scan also repairs torn tails, so a crash *during* recovery is
    /// itself recoverable — open is idempotent.
    pub fn open(mut disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        let read0 = disk.stats().bytes_read;
        let snap = snapshot::load_latest(&mut disk, dir)?;
        let mut report = RecoveryReport {
            snapshot_fallbacks: snap.fallbacks,
            ..RecoveryReport::default()
        };
        let mut state = match &snap.loaded {
            Some((through, bytes)) => {
                report.snapshot_through = *through;
                match T::decode_state(bytes) {
                    Some(state) => state,
                    None => {
                        // Validated by CRC yet undecodable — treat as
                        // damage and fall back to pure replay.
                        report.snapshot_fallbacks += 1;
                        report.snapshot_through = 0;
                        T::fresh()
                    }
                }
            }
            None => T::fresh(),
        };

        let (wal, wal_rec) = Wal::recover(&mut disk, &format!("{dir}/wal"), cfg.max_segment_bytes)?;
        for (seq, op) in &wal_rec.committed {
            if *seq > report.snapshot_through {
                state.apply(op);
                report.ops_replayed += 1;
            }
        }
        report.torn_tail = wal_rec.torn_tail;
        report.corrupted_history = wal_rec.corrupted_history;
        report.bytes_read = disk.stats().bytes_read - read0;

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
            committed_seq: report.snapshot_through.max(wal_rec.committed_seq),
            state,
            disk,
            dir: dir.to_string(),
            wal,
            cfg,
            ops_since_snapshot: 0,
            recovery: report,
            committed: metrics.counter("durability.ops.committed"),
        })
    }

    /// Durably executes one op: WAL append, commit marker, in-memory
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
    /// that `write` fills, then its commit marker. The op is committed
    /// when this returns `Ok`; the caller applies it next and then calls
    /// [`Persistent::after_apply`].
    pub(crate) fn log(&mut self, write: impl FnOnce(&mut ByteWriter)) -> Result<(), DiskError> {
        let seq = self.committed_seq + 1;
        self.wal.append_encoded(&mut self.disk, seq, write)?;
        self.wal.commit(&mut self.disk, seq)?;
        self.committed_seq = seq;
        Ok(())
    }

    /// The last half of [`Persistent::execute`], once the logged op is
    /// applied: counts it, then snapshots and compacts when one is due.
    pub(crate) fn after_apply(&mut self) -> Result<(), DiskError> {
        self.ops_since_snapshot += 1;
        self.committed.incr();
        if self.cfg.snapshot_every_ops > 0 && self.ops_since_snapshot >= self.cfg.snapshot_every_ops
        {
            self.snapshot_now()?;
        }
        Ok(())
    }

    /// Snapshots the current state and compacts the WAL behind it.
    /// Crash-safe at every step: the snapshot installs atomically, the
    /// rotation is pure bookkeeping, and leftover old segments or tmp
    /// files are cleaned up by the next recovery/prune. Compaction
    /// only drops segments fully covered by the *oldest retained*
    /// snapshot, so bit-rot fallback to an older snapshot always finds
    /// the WAL ops it needs to catch back up.
    pub fn snapshot_now(&mut self) -> Result<(), DiskError> {
        let bytes = self.state.encode_state();
        snapshot::write_snapshot(&mut self.disk, &self.dir, self.committed_seq, &bytes)?;
        snapshot::prune(&mut self.disk, &self.dir, self.cfg.keep_snapshots.max(1))?;
        let boundary = snapshot::installed_throughs(&self.disk, &self.dir)
            .first()
            .copied()
            .unwrap_or(0);
        self.wal.rotate();
        self.wal.compact_covered(&mut self.disk, boundary)?;
        self.ops_since_snapshot = 0;
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

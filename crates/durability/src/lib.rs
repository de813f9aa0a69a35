//! # hpop-durability — crash-consistent state for home appliances
//!
//! PR 4 taught the simulator to kill peers and restart them "with
//! amnesia"; this crate removes the amnesia. Services route their
//! authoritative state through a checksummed write-ahead log with
//! atomic commit markers, periodic snapshots and compaction, all on
//! the deterministic [`SimDisk`](hpop_netsim::storage::SimDisk) block
//! device — so a power loss between (or inside) any two I/O steps
//! recovers to exactly the committed prefix of operations.
//!
//! - [`codec`] — the one little-endian byte codec: WAL framing, every
//!   adopter's op and snapshot layout (the [`codec::Wire`] trait), and
//!   the fabric's gossip messages.
//! - [`wal`] — length+CRC-framed records, commit markers, segment
//!   rotation at commit boundaries, torn-tail repair. The checksum is
//!   [`hpop_crypto::crc32()`]: carry-less multiply where the CPU has it,
//!   slicing-by-16 where not, the same bytes either way.
//! - [`snapshot`] — whole-state snapshots installed by atomic rename,
//!   newest-valid-wins loading with bit-rot fallback.
//! - [`persistent`] — the byte-level [`Durable`] trait
//!   (`encode_state`/`decode_state`/`apply`) and [`Persistent<T>`],
//!   the WAL+snapshot machine with the committed-prefix ack contract.
//! - [`journal`] — what adopters write and hold instead: a typed
//!   [`Machine`] (`Wire + Default`, an op type, `run(op) -> Outcome`)
//!   and [`Journal<M>`], which layers it over `Persistent` through the
//!   one in-tree `impl Durable`.
//! - [`harness`] — [`crash_matrix`]: enumerate every I/O step of a
//!   workload, crash there, recover, assert the invariant;
//!   [`decode_is_total`]: hostile bytes never panic a decoder;
//!   [`assert_format_frozen`]: golden bytes pin the layout. Adopters
//!   (attic store+locks, NoCDN accounting, fabric incarnations and
//!   reputation, coop-cache index) run their own machines and typed
//!   ops through all three.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod harness;
pub mod journal;
pub mod persistent;
pub mod snapshot;
pub mod wal;

pub use harness::{assert_format_frozen, crash_matrix, decode_is_total, CrashMatrixOutcome};
pub use journal::{Journal, Machine};
pub use persistent::{DurabilityConfig, Durable, Persistent, RecoveryReport};

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_netsim::storage::SimDisk;
    use std::collections::BTreeMap;

    /// Toy adopter: a map of registers with append-add semantics. An
    /// add answers the register's new value, so the outcome depends on
    /// the op *and* on everything run before it.
    #[derive(Clone, Debug, Default)]
    struct Registers {
        slots: BTreeMap<u64, u64>,
    }

    wire!(struct Registers { slots });

    impl Machine for Registers {
        type Op = (u64, u64);
        type Outcome = u64;
        fn run(&mut self, (key, add): (u64, u64)) -> u64 {
            let slot = self.slots.entry(key).or_insert(0);
            *slot += add;
            *slot
        }
    }

    fn workload(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i % 7, i + 1)).collect()
    }

    fn open(disk: SimDisk, cfg: DurabilityConfig) -> Journal<Registers> {
        Journal::open(disk, "svc", cfg).unwrap()
    }

    /// The three laws every adopter leans on, over the toy machine.
    #[test]
    fn journal_laws_hold() {
        let cfg = DurabilityConfig {
            snapshot_every_ops: 4,
            ..DurabilityConfig::default()
        };
        let ops = workload(10);

        // 1. `run` answers what the bare machine answers on a twin.
        let mut journal = open(SimDisk::new(1), cfg);
        let mut twin = Registers::default();
        for op in &ops {
            assert_eq!(journal.run(op).unwrap(), twin.run(*op));
        }
        assert_eq!(journal.committed_seq(), 10);

        // 2. An op that fails is not acked; reopening after the restart
        //    equals the acked ops replayed onto `default()`.
        let at = journal.disk().steps();
        journal.disk_mut().arm_crash(at);
        assert!(journal.run(&(0, 1000)).is_err());
        let mut disk = journal.into_disk();
        disk.restart();
        let mut journal = open(disk, cfg);
        assert_eq!(codec::encode(journal.state()), codec::encode(&twin));
        assert_eq!(journal.committed_seq(), 10);
        assert_eq!(journal.last_recovery().ops_replayed, 2);

        // 3. Replay left an outcome behind (register 2's value, 13); the
        //    next `run` answers for its own op, not with that.
        assert_eq!(journal.run(&(5, 1)).unwrap(), twin.run((5, 1)));
    }

    #[test]
    fn snapshot_bounds_replay_length() {
        let cfg = DurabilityConfig {
            snapshot_every_ops: 8,
            ..DurabilityConfig::default()
        };
        let mut p = open(SimDisk::new(2), cfg);
        for op in workload(50) {
            p.run(&op).unwrap();
        }
        let p2 = open(p.into_disk(), cfg);
        assert!(p2.last_recovery().snapshot_through >= 48);
        assert!(p2.last_recovery().ops_replayed <= 8);
        assert_eq!(p2.committed_seq(), 50);
    }

    #[test]
    fn rotted_snapshot_falls_back_and_still_recovers() {
        let cfg = DurabilityConfig {
            snapshot_every_ops: 10,
            keep_snapshots: 2,
            ..DurabilityConfig::default()
        };
        let mut p = open(SimDisk::new(3), cfg);
        for op in workload(25) {
            p.run(&op).unwrap();
        }
        let reference = codec::encode(p.state());
        let mut disk = p.into_disk();
        let newest = disk
            .list("svc/snap-")
            .into_iter()
            .rfind(|n| !n.ends_with(".tmp"))
            .expect("a snapshot exists");
        assert!(disk.corrupt(&newest, 20, 2));
        let p2 = open(disk, cfg);
        assert_eq!(p2.last_recovery().snapshot_fallbacks, 1);
        assert_eq!(
            codec::encode(p2.state()),
            reference,
            "older snapshot + longer replay must reach the same state"
        );
    }

    /// The tentpole acceptance test: every I/O step of a workload that
    /// crosses segment rotations AND snapshot+compaction cycles is a
    /// survivable crash point.
    #[test]
    fn crash_matrix_over_rotation_and_snapshots() {
        let cfg = DurabilityConfig {
            max_segment_bytes: 256,
            snapshot_every_ops: 6,
            keep_snapshots: 2,
        };
        let outcome = crash_matrix::<Registers>(0xcafe, cfg, &workload(20));
        assert!(outcome.baseline_steps > 40, "must enumerate a real matrix");
        assert!(outcome.torn_tails > 0, "some points must tear the tail");
        assert!(
            outcome.committed_unacked > 0,
            "snapshot I/O after the marker must yield committed-unacked points"
        );
    }

    #[test]
    fn crash_matrix_without_snapshots_replays_everything() {
        let cfg = DurabilityConfig {
            max_segment_bytes: 512,
            snapshot_every_ops: 0,
            keep_snapshots: 2,
        };
        let outcome = crash_matrix::<Registers>(0xbeef, cfg, &workload(12));
        assert!(outcome.max_ops_replayed >= 11);
        assert_eq!(outcome.snapshot_fallbacks, 0);
    }
}

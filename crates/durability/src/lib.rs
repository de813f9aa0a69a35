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
//! - [`crc32`] — frame and snapshot checksums (IEEE, table-driven).
//! - [`codec`] — the one little-endian byte codec: WAL framing, every
//!   adopter's op and snapshot layout (the [`codec::Wire`] trait), and
//!   the fabric's gossip messages.
//! - [`wal`] — length+CRC-framed records, commit markers, segment
//!   rotation at commit boundaries, torn-tail repair.
//! - [`snapshot`] — whole-state snapshots installed by atomic rename,
//!   newest-valid-wins loading with bit-rot fallback.
//! - [`persistent`] — the [`Durable`] trait
//!   (`encode_state`/`decode_state`/`apply`) and [`Persistent<T>`],
//!   the WAL+snapshot machine with the committed-prefix ack contract.
//! - [`harness`] — [`crash_matrix`]: enumerate every I/O step of a
//!   workload, crash there, recover, assert the invariant;
//!   [`decode_is_total`]: hostile bytes never panic a decoder;
//!   [`assert_format_frozen`]: golden bytes pin the layout. Adopters
//!   (attic store+locks, NoCDN accounting, fabric incarnations and
//!   reputation, coop-cache index) run their own op encodings through
//!   all three.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc32;
pub mod harness;
pub mod persistent;
pub mod snapshot;
pub mod wal;

pub use harness::{assert_format_frozen, crash_matrix, decode_is_total, CrashMatrixOutcome};
pub use persistent::{DurabilityConfig, Durable, Persistent, RecoveryReport};

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_netsim::storage::SimDisk;
    use std::collections::BTreeMap;

    /// Toy adopter: a map of registers with append-add semantics.
    #[derive(Debug, Default)]
    struct Registers {
        slots: BTreeMap<u64, u64>,
    }

    impl Registers {
        fn op(key: u64, add: u64) -> Vec<u8> {
            codec::encode(&(key, add))
        }
    }

    impl Durable for Registers {
        fn fresh() -> Registers {
            Registers::default()
        }
        fn encode_state(&self) -> Vec<u8> {
            codec::encode(&self.slots)
        }
        fn decode_state(bytes: &[u8]) -> Option<Registers> {
            codec::decode(bytes).map(|slots| Registers { slots })
        }
        fn apply(&mut self, op: &[u8]) {
            if let Some((k, add)) = codec::decode::<(u64, u64)>(op) {
                *self.slots.entry(k).or_insert(0) += add;
            }
        }
    }

    fn workload(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| Registers::op(i % 7, i + 1)).collect()
    }

    #[test]
    fn open_execute_reopen_round_trips() {
        let cfg = DurabilityConfig::default();
        let mut p = Persistent::<Registers>::open(SimDisk::new(1), "svc", cfg).unwrap();
        for op in workload(10) {
            p.execute(&op).unwrap();
        }
        let bytes = p.state().encode_state();
        let disk = p.into_disk();
        let p2 = Persistent::<Registers>::open(disk, "svc", cfg).unwrap();
        assert_eq!(p2.state().encode_state(), bytes);
        assert_eq!(p2.committed_seq(), 10);
        assert_eq!(p2.last_recovery().ops_replayed, 10);
    }

    #[test]
    fn snapshot_bounds_replay_length() {
        let cfg = DurabilityConfig {
            snapshot_every_ops: 8,
            ..DurabilityConfig::default()
        };
        let mut p = Persistent::<Registers>::open(SimDisk::new(2), "svc", cfg).unwrap();
        for op in workload(50) {
            p.execute(&op).unwrap();
        }
        let p2 = Persistent::<Registers>::open(p.into_disk(), "svc", cfg).unwrap();
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
        let mut p = Persistent::<Registers>::open(SimDisk::new(3), "svc", cfg).unwrap();
        let ops = workload(25);
        for op in &ops {
            p.execute(op).unwrap();
        }
        let reference = p.state().encode_state();
        let mut disk = p.into_disk();
        let newest = disk
            .list("svc/snap-")
            .into_iter()
            .rfind(|n| !n.ends_with(".tmp"))
            .expect("a snapshot exists");
        assert!(disk.corrupt(&newest, 20, 2));
        let p2 = Persistent::<Registers>::open(disk, "svc", cfg).unwrap();
        assert_eq!(p2.last_recovery().snapshot_fallbacks, 1);
        assert_eq!(
            p2.state().encode_state(),
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

    #[test]
    fn reopen_after_torn_tail_lands_on_committed_prefix() {
        let cfg = DurabilityConfig::default();
        let mut p = Persistent::<Registers>::open(SimDisk::new(9), "svc", cfg).unwrap();
        for op in workload(5) {
            p.execute(&op).unwrap();
        }
        let mut disk = p.into_disk();
        disk.arm_crash(disk.steps()); // mid-append of the next op
        let mut p = Persistent::<Registers>::open(disk, "svc", cfg).unwrap();
        assert!(p.execute(&Registers::op(9, 9)).is_err());
        let mut disk = p.into_disk();
        disk.restart();
        let p2 = Persistent::<Registers>::open(disk, "svc", cfg).unwrap();
        assert_eq!(p2.committed_seq(), 5);
        let mut reference = Registers::fresh();
        for op in workload(5) {
            reference.apply(&op);
        }
        assert_eq!(p2.state().encode_state(), reference.encode_state());
    }
}

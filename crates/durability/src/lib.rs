//! # hpop-durability — crash-consistent state for home appliances
//!
//! PR 4 taught the simulator to kill peers and restart them "with
//! amnesia"; this crate removes the amnesia. Services route their
//! authoritative state through a checksummed write-ahead log of
//! self-committing frames, periodic snapshots and compaction, all on
//! the deterministic [`SimDisk`](hpop_netsim::storage::SimDisk) block
//! device — so a power loss between (or inside) any two I/O steps
//! recovers to exactly the committed prefix of operations.
//!
//! - [`codec`] — the one little-endian byte codec: WAL framing, every
//!   adopter's op and snapshot layout (the [`codec::Wire`] trait), and
//!   the fabric's gossip messages.
//! - [`wal`] — one length+CRC-framed record per op, its own commit;
//!   segment rotation, torn-tail repair, and replay that never crosses
//!   a hole. The checksum is [`hpop_crypto::crc32()`]: carry-less
//!   multiply where the CPU has it, slicing-by-16 where not.
//! - [`snapshot`] — whole-state snapshots installed by atomic rename,
//!   newest-valid-wins loading with fallback past rot.
//! - [`journal`] — what adopters write and hold: a typed [`Machine`]
//!   (`Wire + Default`, an op type, `run(op) -> Outcome`) and
//!   [`Journal<M>`], the WAL + snapshot store with the committed-prefix
//!   ack contract, which encodes each op straight into its WAL frame,
//!   runs the op value, and recovers by decoding each committed frame
//!   and running it; and [`Journaled`], a journal or an adopter that
//!   keeps files of its own beside one (the attic's blob files).
//! - [`harness`] — [`crash_matrix`]: check each op against its own
//!   layout, then enumerate every I/O step of a workload, crash there,
//!   recover, assert the invariant;
//!   [`damage_recovers_a_committed_prefix`]: damage one file, recover,
//!   assert what the damage may cost;
//!   [`decode_is_total`]: hostile bytes never panic a decoder;
//!   [`assert_format_frozen`]: golden bytes pin the layout. Adopters
//!   (attic store+locks, NoCDN accounting, fabric incarnations and
//!   reputation, coop-cache index) run their own machines and typed
//!   ops through them; the first two fixtures drive any [`Journaled`],
//!   so the attic's also cut power inside, and damage, its blob files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod harness;
pub mod journal;
pub mod snapshot;
pub mod wal;

pub use harness::{
    assert_format_frozen, crash_matrix, damage_recovers_a_committed_prefix, decode_is_total,
    snapshots_installed, CrashMatrixOutcome,
};
pub use journal::{
    DurabilityConfig, Durable, Journal, Journaled, Machine, Persistent, RecoveryReport,
};

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_netsim::storage::SimDisk;
    use proptest::prelude::*;
    use proptest::sample::Index;
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
            assert_eq!(journal.run(*op).unwrap(), twin.run(*op));
        }
        assert_eq!(journal.committed_seq(), 10);

        // 2. An op that fails is not acked; reopening after the restart
        //    equals the acked ops replayed onto `default()`.
        let at = journal.disk().steps();
        journal.disk_mut().arm_crash(at);
        assert!(journal.run((0, 1000)).is_err());
        let mut disk = journal.into_disk();
        disk.restart();
        let mut journal = open(disk, cfg);
        assert_eq!(codec::encode(journal.state()), codec::encode(&twin));
        assert_eq!(journal.committed_seq(), 10);
        assert_eq!(journal.last_recovery().ops_replayed, 2);

        // 3. After a replay, `run` answers for its own op.
        assert_eq!(journal.run((5, 1)).unwrap(), twin.run((5, 1)));
    }

    #[test]
    fn snapshot_bounds_replay_length() {
        let cfg = DurabilityConfig {
            snapshot_every_ops: 8,
            ..DurabilityConfig::default()
        };
        let mut p = open(SimDisk::new(2), cfg);
        for op in workload(50) {
            p.run(op).unwrap();
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
            ..DurabilityConfig::default()
        };
        let mut p = open(SimDisk::new(3), cfg);
        for op in workload(25) {
            p.run(op).unwrap();
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
        };
        let outcome = crash_matrix::<Journal<Registers>>(0xcafe, cfg, &workload(30));
        assert!(outcome.baseline_steps > 40, "must enumerate a real matrix");
        assert!(outcome.snapshots >= 2, "the matrix crosses a compaction");
        assert!(outcome.torn_tails > 0, "some points must tear the tail");
        assert!(
            outcome.committed_unacked > 0,
            "snapshot I/O after the op frame must yield committed-unacked points"
        );
    }

    /// What a file on the platters can hold instead of what was written
    /// to it. Each position is a proportion of the file's length.
    #[derive(Clone, Debug)]
    enum Damage {
        /// `noise` over the bytes from a position on, past the end if
        /// need be.
        Overwrite(Index, Vec<u8>),
        /// Everything from a position on gone.
        Truncate(Index),
        /// Every byte gone: the file is there, and empty.
        Empty,
        /// One bit flipped.
        Flip(Index, u8),
    }

    fn damage() -> impl Strategy<Value = Damage> {
        prop_oneof![
            (any::<Index>(), prop::collection::vec(any::<u8>(), 1..48))
                .prop_map(|(at, noise)| Damage::Overwrite(at, noise)),
            any::<Index>().prop_map(Damage::Truncate),
            Just(Damage::Empty),
            (any::<Index>(), 0..8u8).prop_map(|(at, bit)| Damage::Flip(at, bit)),
        ]
    }

    fn apply(damage: &Damage, bytes: &mut Vec<u8>) {
        let at = |i: &Index| i.index(bytes.len() + 1);
        match damage {
            Damage::Overwrite(i, noise) => {
                let from = at(i);
                bytes.resize(bytes.len().max(from + noise.len()), 0);
                bytes[from..from + noise.len()].copy_from_slice(noise);
            }
            Damage::Truncate(i) => bytes.truncate(at(i)),
            Damage::Empty => bytes.clear(),
            Damage::Flip(i, bit) => {
                if !bytes.is_empty() {
                    let byte = i.index(bytes.len());
                    bytes[byte] ^= 1 << bit;
                }
            }
        }
    }

    /// The damage proptest's config: three ops to a segment, so the ops
    /// after the newest snapshot span more than one.
    const DAMAGE_CFG: DurabilityConfig = DurabilityConfig {
        max_segment_bytes: 128,
        snapshot_every_ops: 8,
    };

    /// The damage proptest's longest workload installs two snapshots,
    /// so its draws cover 0, 1 and 2 of them.
    #[test]
    fn damage_workload_installs_two_snapshots() {
        assert!(snapshots_installed::<Journal<Registers>>(DAMAGE_CFG, &workload(30)) >= 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One damaged file — a WAL segment or a snapshot — never
        /// panics recovery, and what it recovers is a committed prefix:
        /// the state the first `committed_seq` ops make. A damaged
        /// snapshot loses no acked op, and a damaged segment before the
        /// last loses none unreported. The op count runs over 0, 1 and 2
        /// installed snapshots.
        #[test]
        fn damaged_wal_or_snapshot_bytes_recover_a_committed_prefix(
            n in 1..=30u64,
            file in any::<usize>(),
            damage in damage(),
        ) {
            damage_recovers_a_committed_prefix::<Journal<Registers>>(4, DAMAGE_CFG, &workload(n), file, |bytes| {
                apply(&damage, bytes)
            });
        }
    }

    /// The bare machine's encoding after `ops`.
    fn prefix(ops: &[(u64, u64)]) -> Vec<u8> {
        let mut machine = Registers::default();
        for &op in ops {
            machine.run(op);
        }
        codec::encode(&machine)
    }

    /// A lone snapshot that rots loses no acked op: the log behind it
    /// is kept until a second snapshot is installed, so recovery
    /// replays all of it. The store then goes on as if nothing happened.
    #[test]
    fn a_lone_rotted_snapshot_loses_no_acked_op() {
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            snapshot_every_ops: 8,
        };
        let ops = workload(15);
        let mut journal = open(SimDisk::new(5), cfg);
        for &op in &ops[..12] {
            journal.run(op).unwrap();
        }
        let mut disk = journal.into_disk();
        assert_eq!(disk.list("svc/snap-"), ["svc/snap-0000000000000008"]);
        disk.write_file("svc/snap-0000000000000008", &[]).unwrap();

        let mut journal = open(disk, cfg);
        let report = journal.last_recovery();
        assert_eq!(report.snapshot_fallbacks, 1);
        assert_eq!((journal.committed_seq(), report.ops_replayed), (12, 12));
        assert!(!report.corrupted_history);
        assert_eq!(codec::encode(journal.state()), prefix(&ops[..12]));
        for &op in &ops[12..] {
            journal.run(op).unwrap();
        }
        let journal = open(journal.into_disk(), cfg);
        assert!(!journal.last_recovery().corrupted_history);
        assert_eq!(journal.committed_seq(), 15);
        assert_eq!(codec::encode(journal.state()), prefix(&ops));
    }

    /// A snapshot whose checksum holds but whose state does not decode
    /// falls back to the older retained one, whose log is still there:
    /// nothing acked is lost.
    #[test]
    fn an_undecodable_snapshot_falls_back_to_the_older_one() {
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            snapshot_every_ops: 8,
        };
        let ops = workload(20);
        let mut journal = open(SimDisk::new(6), cfg);
        for &op in &ops {
            journal.run(op).unwrap();
        }
        let mut disk = journal.into_disk();
        // A valid file around bytes no `Registers` decodes from.
        snapshot::write_snapshot(&mut disk, "svc", 16, &[0xff; 3]).unwrap();
        let journal = open(disk, cfg);
        let report = journal.last_recovery();
        assert_eq!((report.snapshot_through, report.snapshot_fallbacks), (8, 1));
        assert!(!report.corrupted_history);
        assert_eq!(journal.committed_seq(), 20);
        assert_eq!(codec::encode(journal.state()), prefix(&ops));
    }

    /// A store that restarts more often than its snapshot cadence still
    /// snapshots and compacts: each open picks the cadence up where the
    /// replayed log left it. Ten reopens, every 0.9 of the cadence.
    #[test]
    fn restarts_keep_the_cadence() {
        let cfg = DurabilityConfig {
            max_segment_bytes: 256,
            snapshot_every_ops: 20,
        };
        let mut journal = open(SimDisk::new(8), cfg);
        let mut through = 0;
        for cycle in 1..=10u64 {
            for op in workload(18) {
                journal.run(op).unwrap();
            }
            journal = open(journal.into_disk(), cfg);
            let report = journal.last_recovery();
            assert_eq!(journal.committed_seq(), 18 * cycle);
            assert!(report.ops_replayed < 20, "cycle {cycle}: {report:?}");
            if cycle > 1 {
                assert!(
                    report.snapshot_through > through,
                    "cycle {cycle}: {report:?}"
                );
            }
            through = report.snapshot_through;
            assert!(
                journal.disk().list("svc/").len() <= 12,
                "cycle {cycle}: compacted"
            );
        }
    }

    /// State that grows and shrinks: each op sets a key's blob to `len`
    /// copies of a byte, or drops it when `len` is 0. The op is a few
    /// bytes however large the blob, so snapshots can outweigh the log.
    #[derive(Clone, Debug, Default)]
    struct Blobs {
        blobs: BTreeMap<u64, Vec<u8>>,
    }

    wire!(struct Blobs { blobs });

    impl Machine for Blobs {
        type Op = (u64, u16);
        type Outcome = ();
        fn run(&mut self, (key, len): (u64, u16)) {
            if len == 0 {
                self.blobs.remove(&key);
            } else {
                self.blobs.insert(key, vec![key as u8; usize::from(len)]);
            }
        }
    }

    proptest! {
        /// Snapshots cost what the log wrote: over any run, the
        /// snapshot bytes written are at most the log bytes written
        /// plus the largest snapshot. And a reopen replays at most the
        /// loaded snapshot's length of log plus one frame, unless it
        /// replays no more than `snapshot_every_ops` ops.
        #[test]
        fn snapshot_cadence_follows_the_log(
            every in 1..=8u64,
            ops in prop::collection::vec(
                (0..16u64, prop_oneof![Just(0u16), 1..2048u16], 0..20u8),
                1..160,
            ),
        ) {
            let cfg = DurabilityConfig {
                max_segment_bytes: 1024,
                snapshot_every_ops: every,
            };
            let mut journal: Journal<Blobs> = Journal::open(SimDisk::new(9), "svc", cfg).unwrap();
            let (mut snapshot_bytes, mut log_bytes, mut largest, mut frame) = (0, 0, 0, 0);
            // One op in twenty reopens the store after it.
            for (key, len, reopen) in ops {
                let written = journal.disk().stats().bytes_written;
                journal.run((key, len)).unwrap();
                let written = journal.disk().stats().bytes_written - written;
                let name = format!("svc/snap-{:016x}", journal.committed_seq());
                let snapshot = if journal.disk().list(&name).is_empty() {
                    0
                } else {
                    journal.disk_mut().read(&name).unwrap().len() as u64
                };
                snapshot_bytes += snapshot;
                log_bytes += written - snapshot;
                largest = largest.max(snapshot);
                frame = frame.max(written - snapshot);
                prop_assert!(snapshot_bytes <= log_bytes + largest);
                if reopen == 0 {
                    journal = Journal::open(journal.into_disk(), "svc", cfg).unwrap();
                    let r = journal.last_recovery();
                    prop_assert!(
                        r.log_bytes_replayed <= r.snapshot_bytes + frame || r.ops_replayed <= every,
                        "{r:?}"
                    );
                }
            }
        }
    }

    /// A snapshot cut between its write and its rename leaves a
    /// `.tmp` that only a crash can leave: the next open clears it, and
    /// nothing after lists the device to look for another.
    #[test]
    fn a_tmp_snapshot_cut_before_its_rename_is_gone_after_open() {
        let cfg = DurabilityConfig {
            max_segment_bytes: 1 << 20,
            snapshot_every_ops: 4,
        };
        let mut journal = open(SimDisk::new(10), cfg);
        for op in workload(3) {
            journal.run(op).unwrap();
        }
        // Op 4: its frame, the tmp file's truncate and one sector, then
        // the rename, where the power goes.
        let rename = journal.disk().steps() + 3;
        journal.disk_mut().arm_crash(rename);
        assert!(journal.run((3, 4)).is_err());
        let mut disk = journal.into_disk();
        disk.restart();
        assert_eq!(disk.list("svc/snap-"), ["svc/snap-0000000000000004.tmp"]);
        let journal = open(disk, cfg);
        assert!(journal.disk().list("svc/snap-").is_empty());
        assert_eq!(journal.committed_seq(), 4);
    }

    /// The installed snapshots and the log's segments are listed once,
    /// at open: ones installed before a reopen are pruned after it as
    /// if the store had never stopped.
    #[test]
    fn what_was_installed_before_a_reopen_is_pruned_after_it() {
        let cfg = DurabilityConfig {
            max_segment_bytes: 64,
            snapshot_every_ops: 6,
        };
        let snaps = |j: &Journal<Registers>| j.disk().list("svc/snap-");
        let mut journal = open(SimDisk::new(11), cfg);
        while journal.snapshots_taken() < 2 {
            journal.run((1, 1)).unwrap();
        }
        let before = snaps(&journal);
        assert_eq!(before.len(), 2);
        let mut journal = open(journal.into_disk(), cfg);
        while journal.snapshots_taken() < 1 {
            journal.run((2, 1)).unwrap();
        }
        // The older of the two from before the reopen went.
        let after = snaps(&journal);
        assert_eq!(after.len(), 2);
        assert_eq!(after[0], before[1]);
        // And so did every segment it covered: what is left holds ops
        // past the older retained snapshot, and they replay from it.
        let older = u64::from_str_radix(&after[0]["svc/snap-".len()..], 16).unwrap();
        let mut disk = journal.into_disk();
        for segment in disk.list("svc/wal/") {
            // A frame is `[len: u32][crc: u32][kind: u8][seq: u64]…`.
            let bytes = disk.read(&segment).unwrap();
            let (mut pos, mut last) = (0, 0);
            while pos < bytes.len() {
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
                last = u64::from_le_bytes(bytes[pos + 9..pos + 17].try_into().unwrap());
                pos += 8 + len as usize;
            }
            assert!(last > older, "{segment} is covered by snapshot {older}");
        }
        disk.delete(&after[1]).unwrap();
        let journal = open(disk, cfg);
        assert_eq!(journal.last_recovery().snapshot_through, older);
        assert!(!journal.last_recovery().corrupted_history);
    }

    #[test]
    fn crash_matrix_without_snapshots_replays_everything() {
        let cfg = DurabilityConfig {
            max_segment_bytes: 512,
            snapshot_every_ops: 0,
        };
        let outcome = crash_matrix::<Journal<Registers>>(0xbeef, cfg, &workload(12));
        assert!(outcome.max_ops_replayed >= 11);
        assert_eq!(outcome.snapshot_fallbacks, 0);
    }

    /// Everything a journal leaves on the device and reports, as one
    /// captured digest: every file's name and bytes, the step count,
    /// the I/O stats, every recovery report, the snapshots taken and
    /// the committed sequence. The run rotates segments, installs
    /// enough snapshots that pruning hands a body back and compaction
    /// deletes segments, and reopens twice.
    #[test]
    fn journal_device_is_frozen() {
        use hpop_crypto::sha256::Sha256;
        let cfg = DurabilityConfig {
            max_segment_bytes: 96,
            snapshot_every_ops: 5,
        };
        let mut h = Sha256::new();
        let mut journal = open(SimDisk::new(12), cfg);
        for round in 0..3u64 {
            for (key, add) in workload(20 + round) {
                journal.run((key + round, add)).unwrap();
            }
            assert!(journal.snapshots_taken() >= 3, "round {round}");
            for n in [journal.snapshots_taken(), journal.committed_seq()] {
                h.update(&n.to_le_bytes());
            }
            let mut disk = journal.disk().clone();
            let s = disk.stats();
            for n in [
                disk.steps(),
                s.sector_writes,
                s.atomic_ops,
                s.bytes_written,
                s.bytes_read,
                s.crashes,
                s.torn_sectors,
                s.bitrot_flips,
            ] {
                h.update(&n.to_le_bytes());
            }
            let files = disk.list("");
            assert!(files.iter().filter(|f| f.contains("/wal/")).count() >= 2);
            for name in files {
                h.update(name.as_bytes());
                h.update(&disk.read(&name).unwrap());
            }
            journal = open(journal.into_disk(), cfg);
            let r = journal.last_recovery();
            for n in [
                r.snapshot_through,
                r.snapshot_fallbacks,
                r.ops_replayed,
                r.log_bytes_replayed,
                r.snapshot_bytes,
                r.bytes_read,
                u64::from(r.torn_tail),
                u64::from(r.corrupted_history),
                journal.committed_seq(),
            ] {
                h.update(&n.to_le_bytes());
            }
        }
        let digest = u64::from_le_bytes(h.finalize().as_bytes()[..8].try_into().unwrap());
        assert_eq!(digest, 0xb278_c76f_4e04_7e94);
    }
}

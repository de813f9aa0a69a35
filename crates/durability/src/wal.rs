//! Checksummed write-ahead log over [`SimDisk`].
//!
//! ## Frame format
//!
//! Every op is one frame: `[len: u32][crc: u32][payload: len]`, CRC-32
//! over the payload, built in one reused buffer and handed to the disk
//! as a single append. The payload is `[1u8][seq: u64][op bytes…]`.
//! A frame whose CRC checks is its own commit, as a record's CRC is in
//! LevelDB's log: the op is committed once the append's last sector
//! step completes, and the caller is acked right after. Each op takes
//! the sequence number after the last, so committed ones run without a
//! hole.
//!
//! ## Segments
//!
//! The log is a sequence of files `seg-<idx>` (fixed-width hex, so
//! lexicographic listing is chronological). A segment rotates after any
//! frame that fills it, so every segment before the last ends in a
//! whole frame: a bad frame in the *last* segment is an ordinary torn
//! tail, while a bad frame *earlier* can only be media rot of committed
//! history (detected and reported, not silently replayed past).
//!
//! ## Recovery
//!
//! [`Wal::recover`] starts from the snapshot the caller loaded, at
//! `through`, and replays the contiguous run of valid frames after it:
//! frames at or below `through` are skipped, and every other one must
//! be the op after the last. The run ends at the first invalid frame or
//! the first missing sequence number, whether the hole lies inside the
//! log or at the seam between snapshot and log. Recovery truncates that
//! segment at the start of the frame that ended the run and deletes any
//! later segment, so the next op's number follows the run and ops acked
//! after this recovery never read as a hole. This is idempotent: a
//! crash during the cleanup steps just means the next recovery redoes
//! them. A hole, or a bad frame before the last segment, is
//! `corrupted_history`: replaying past it would apply op *n* + 2 after
//! op *n*.

use crate::codec::{ByteReader, ByteWriter};
use hpop_crypto::crc32;
use hpop_netsim::storage::{DiskError, SimDisk};

/// Payload kind byte of an op frame, the only kind.
const KIND_OP: u8 = 1;
/// Cap on a single frame payload (1 GiB), shared by both sides: the
/// writer refuses a larger one, the parser treats one as damage.
const MAX_PAYLOAD: u32 = 1 << 30;
/// Payload bytes ahead of an op's own: the kind byte and the sequence.
const OP_HEADER: usize = 9;
/// A frame buffer that grew past this is released before the next
/// frame instead of kept for reuse: one 64 MiB PUT must not pin 64 MiB
/// per journal for good.
const FRAME_KEEP_BYTES: usize = 64 * 1024;

/// The append position of a write-ahead log.
#[derive(Clone, Debug)]
pub struct Wal {
    dir: String,
    seg_index: u64,
    /// File name of segment `seg_index`, spelled once per rotation.
    seg_file: String,
    seg_bytes: u64,
    /// The frame being built; reused so a steady log allocates nothing.
    frame: Vec<u8>,
    max_segment_bytes: u64,
    /// Highest op seq per segment — the compaction oracle. Sequence
    /// numbers are monotone across segments, so "every op in this
    /// segment is covered by snapshot S" is just `max <= S`.
    seg_max_seq: std::collections::BTreeMap<u64, u64>,
}

/// What a [`Wal::recover`] scan found.
#[derive(Clone, Debug, Default)]
pub struct WalRecovery {
    /// Sequence number of the last op replayed, or the snapshot's
    /// `through` when none was: the next op takes the one after.
    pub committed_seq: u64,
    /// A torn tail was truncated from the final segment.
    pub torn_tail: bool,
    /// A bad frame before the final segment, or a hole in the sequence
    /// numbers: committed history was damaged on the media (rot);
    /// everything after it was dropped.
    pub corrupted_history: bool,
}

/// Segment file name for index `idx` under `dir`.
fn seg_name(dir: &str, idx: u64) -> String {
    format!("{dir}/seg-{idx:012x}")
}

/// The `len` field of a frame whose payload is `payload` bytes long.
///
/// # Panics
///
/// Panics past [`MAX_PAYLOAD`]: the parser would call the frame torn.
fn payload_len(payload: usize) -> u32 {
    u32::try_from(payload)
        .ok()
        .filter(|&len| len <= MAX_PAYLOAD)
        .expect("frame payload within MAX_PAYLOAD")
}

/// Parses a segment index back out of its file name.
fn seg_index_of(dir: &str, name: &str) -> Option<u64> {
    let hex = name.strip_prefix(&format!("{dir}/seg-"))?;
    u64::from_str_radix(hex, 16).ok()
}

/// Parses the frame at `buf[pos..]`; `None` means torn/rotted/absent.
/// Returns the op's sequence number, its bytes and the offset just past
/// the frame.
fn parse_frame(buf: &[u8], pos: usize) -> Option<(u64, &[u8], usize)> {
    let mut r = ByteReader::new(&buf[pos..]);
    let len = r.u32()?;
    let crc = r.u32()?;
    if len > MAX_PAYLOAD || buf.len() - pos < 8 + len as usize {
        return None;
    }
    let payload = &buf[pos + 8..pos + 8 + len as usize];
    if crc32(payload) != crc {
        return None;
    }
    let mut p = ByteReader::new(payload);
    if p.u8()? != KIND_OP {
        return None;
    }
    Some((p.u64()?, &payload[OP_HEADER..], pos + 8 + len as usize))
}

impl Wal {
    /// Appends the op frame for `seq`, then rotates the segment if the
    /// frame filled it. The op is committed when this returns `Ok`.
    ///
    /// # Panics
    ///
    /// Panics, before any byte reaches the disk, if the frame payload
    /// (`op` plus its 9-byte header) exceeds 1 GiB: recovery rejects
    /// such a frame as a torn tail, so writing it would ack an op that
    /// the next open drops. Inputs are capped far below this where they
    /// enter the program (`hpop_http::h1::MAX_BODY_BYTES`).
    pub fn append_op(&mut self, disk: &mut SimDisk, seq: u64, op: &[u8]) -> Result<(), DiskError> {
        // Refused before a byte of it is copied, let alone written.
        payload_len(OP_HEADER + op.len());
        self.append_encoded(disk, seq, |w| {
            w.raw(op);
        })
    }

    /// [`Wal::append_op`] for an op that `write` encodes straight into
    /// the frame, so it is never laid out anywhere else first: builds
    /// `[len][crc][kind][seq]` in the reused buffer, lets `write` append
    /// the op, patches `len` and then the CRC over the finished payload,
    /// and hands the disk that one contiguous run in a single append.
    /// Panics as `append_op` does, once the op is encoded and before the
    /// disk sees it.
    pub(crate) fn append_encoded(
        &mut self,
        disk: &mut SimDisk,
        seq: u64,
        write: impl FnOnce(&mut ByteWriter),
    ) -> Result<(), DiskError> {
        // The buffer one large op grew is given back at the next frame
        // rather than reused.
        if self.frame.capacity() > FRAME_KEEP_BYTES {
            self.frame = Vec::new();
        }
        self.frame.clear();
        let mut w = ByteWriter::from(std::mem::take(&mut self.frame));
        w.u32(0).u32(0).u8(KIND_OP).u64(seq);
        write(&mut w);
        self.frame = w.into_bytes();
        let len = payload_len(self.frame.len() - 8);
        self.frame[..4].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.frame[8..]);
        self.frame[4..8].copy_from_slice(&crc.to_le_bytes());
        disk.append(&self.seg_file, &self.frame)?;
        self.seg_bytes += self.frame.len() as u64;
        let max = self.seg_max_seq.entry(self.seg_index).or_insert(0);
        *max = (*max).max(seq);
        if self.seg_bytes >= self.max_segment_bytes {
            self.rotate();
        }
        Ok(())
    }

    /// Starts a fresh, empty segment. Called after a snapshot so
    /// compaction can drop everything older.
    pub fn rotate(&mut self) {
        self.seg_index += 1;
        self.seg_file = seg_name(&self.dir, self.seg_index);
        self.seg_bytes = 0;
    }

    /// Index of the currently open segment.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }

    /// Deletes every closed segment whose ops are all covered by a
    /// snapshot at `boundary_seq` — compaction that preserves replay
    /// back to the *oldest retained* snapshot, so snapshot bit-rot
    /// fallback never finds a WAL gap. Each delete is one atomic step;
    /// a crash mid-way leaves extra (still valid) segments for the
    /// next recovery to skip or a later compaction to re-delete.
    pub fn compact_covered(
        &mut self,
        disk: &mut SimDisk,
        boundary_seq: u64,
    ) -> Result<u64, DiskError> {
        let mut dropped = 0;
        for name in disk.list(&format!("{}/seg-", self.dir)) {
            let Some(idx) = seg_index_of(&self.dir, &name) else {
                continue;
            };
            // A segment with no valid frame (recovery emptied it) is
            // trivially covered; sequence monotonicity makes
            // `max <= boundary` exactly the "fully covered" test
            // otherwise.
            let covered = self
                .seg_max_seq
                .get(&idx)
                .is_none_or(|&m| m <= boundary_seq);
            if idx < self.seg_index && covered {
                disk.delete(&name)?;
                self.seg_max_seq.remove(&idx);
                dropped += 1;
            }
        }
        Ok(dropped)
    }

    /// Scans (and where needed repairs) the log under `dir`, hands
    /// `replay` each op of the contiguous run after `through` in
    /// sequence order, and returns a [`Wal`] positioned to append after
    /// the run. Works on an empty directory (a brand-new log).
    pub fn recover(
        disk: &mut SimDisk,
        dir: &str,
        max_segment_bytes: u64,
        through: u64,
        mut replay: impl FnMut(&[u8]),
    ) -> Result<(Wal, WalRecovery), DiskError> {
        let mut segs: Vec<u64> = disk
            .list(&format!("{dir}/seg-"))
            .iter()
            .filter_map(|n| seg_index_of(dir, n))
            .collect();
        segs.sort_unstable();

        let mut rec = WalRecovery {
            committed_seq: through,
            ..WalRecovery::default()
        };
        let mut seg_max_seq = std::collections::BTreeMap::new();
        // Position to resume appending at; fresh log when no segments.
        let (mut open_seg, mut open_bytes) = (0u64, 0u64);

        for (si, &seg) in segs.iter().enumerate() {
            let name = seg_name(dir, seg);
            let buf = disk.read(&name)?;
            let mut pos = 0usize;
            // What ended the run in this segment, if anything did.
            let (mut invalid, mut hole) = (false, false);
            while pos < buf.len() {
                let Some((seq, op, next)) = parse_frame(&buf, pos) else {
                    invalid = true;
                    break;
                };
                if seq > through {
                    if seq != rec.committed_seq + 1 {
                        hole = true;
                        break;
                    }
                    replay(op);
                    rec.committed_seq = seq;
                }
                let max = seg_max_seq.entry(seg).or_insert(0);
                *max = (*max).max(seq);
                pos = next;
            }
            let last = si + 1 == segs.len();
            if invalid || hole {
                rec.torn_tail = invalid && last;
                rec.corrupted_history = !rec.torn_tail;
                // Nothing after the end of the run can be ordered
                // after it: drop the rest of this segment and every
                // later one.
                disk.truncate(&name, pos)?;
                for &later in &segs[si + 1..] {
                    disk.delete(&seg_name(dir, later))?;
                }
                open_seg = seg;
                open_bytes = pos as u64;
                break;
            }
            if last {
                open_seg = seg;
                open_bytes = buf.len() as u64;
            }
        }

        let wal = Wal {
            dir: dir.to_string(),
            seg_index: open_seg,
            seg_file: seg_name(dir, open_seg),
            seg_bytes: open_bytes,
            frame: Vec::new(),
            max_segment_bytes: max_segment_bytes.max(1),
            seg_max_seq,
        };
        Ok((wal, rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(disk: &mut SimDisk, max: u64) -> Wal {
        let (wal, rec, _) = scan(disk, max, 0);
        assert_eq!(rec.committed_seq, 0);
        wal
    }

    /// Recovers the log after a snapshot at `through`, collecting the
    /// ops it replays.
    fn scan(disk: &mut SimDisk, max: u64, through: u64) -> (Wal, WalRecovery, Vec<Vec<u8>>) {
        let mut ops = Vec::new();
        let (wal, rec) =
            Wal::recover(disk, "wal", max, through, |op| ops.push(op.to_vec())).unwrap();
        (wal, rec, ops)
    }

    #[test]
    fn append_commit_recover_round_trip() {
        let mut disk = SimDisk::new(1);
        let mut wal = fresh(&mut disk, 1 << 20);
        for seq in 1..=5u64 {
            wal.append_op(&mut disk, seq, format!("op{seq}").as_bytes())
                .unwrap();
        }
        let (_, rec, ops) = scan(&mut disk, 1 << 20, 0);
        assert_eq!(rec.committed_seq, 5);
        assert!(!rec.torn_tail && !rec.corrupted_history);
        assert_eq!(ops, [b"op1", b"op2", b"op3", b"op4", b"op5"]);
    }

    /// The platter bytes of one op frame: a captured value, so building
    /// a frame may get cheaper but the log an older build wrote stays
    /// the log this one writes.
    #[test]
    fn frame_bytes_are_frozen() {
        let mut disk = SimDisk::new(1);
        let mut wal = fresh(&mut disk, 1 << 20);
        wal.append_op(&mut disk, 1, b"op one").unwrap();
        #[rustfmt::skip]
        let golden = [
            15, 0, 0, 0, 228, 148, 72, 214, 1, 1, 0, 0, 0, 0, 0, 0, 0, b'o', b'p', b' ', b'o', b'n', b'e',
        ];
        assert_eq!(disk.list(""), ["wal/seg-000000000000"]);
        assert_eq!(disk.read("wal/seg-000000000000").unwrap(), golden);
        assert_eq!(disk.steps(), 1, "one op, one frame, one sector step");
    }

    /// The largest payload both sides accept, and one byte more: the
    /// writer refuses what the parser would call a torn tail, before a
    /// byte of it reaches the disk. (`vec![0; n]` is zero pages the
    /// refused call never touches.)
    #[test]
    fn oversized_op_is_refused_before_the_disk_sees_it() {
        let mut disk = SimDisk::new(8);
        let mut wal = fresh(&mut disk, 1 << 20);
        wal.append_op(&mut disk, 1, b"acked").unwrap();
        let (steps, stats) = (disk.steps(), disk.stats());
        let op = vec![0u8; MAX_PAYLOAD as usize - OP_HEADER + 1];
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wal.append_op(&mut disk, 2, &op)
        }));
        assert!(
            refused.is_err(),
            "an op recovery would drop must not be written"
        );
        assert_eq!((disk.steps(), disk.stats()), (steps, stats));
        let (_, rec, _) = scan(&mut disk, 1 << 20, 0);
        assert_eq!(rec.committed_seq, 1);
        assert!(!rec.torn_tail);
    }

    #[test]
    fn frame_buffer_is_reused_but_not_pinned_by_one_large_op() {
        let mut disk = SimDisk::new(9);
        let mut wal = fresh(&mut disk, 1 << 30);
        wal.append_op(&mut disk, 1, &[1u8; 1024]).unwrap();
        let kept = wal.frame.capacity();
        assert!(kept >= 8 + OP_HEADER + 1024);
        wal.append_op(&mut disk, 2, &[2u8; 1024]).unwrap();
        assert_eq!(wal.frame.capacity(), kept, "a steady log reuses its buffer");
        wal.append_op(&mut disk, 3, &vec![3u8; 4 * FRAME_KEEP_BYTES])
            .unwrap();
        assert!(wal.frame.capacity() > FRAME_KEEP_BYTES);
        wal.append_op(&mut disk, 4, &[4u8; 16]).unwrap();
        assert!(
            wal.frame.capacity() <= FRAME_KEEP_BYTES,
            "the next op frame gives the large buffer back"
        );
        let (_, rec, ops) = scan(&mut disk, 1 << 30, 0);
        assert_eq!(rec.committed_seq, 4);
        assert_eq!(ops[2], vec![3u8; 4 * FRAME_KEEP_BYTES]);
    }

    #[test]
    fn torn_tail_truncates_to_committed_prefix() {
        let mut disk = SimDisk::new(3);
        let mut wal = fresh(&mut disk, 1 << 20);
        wal.append_op(&mut disk, 1, &[7u8; 100]).unwrap();
        // Crash mid-append of op 2 → torn frame on disk.
        disk.arm_crash(disk.steps());
        assert!(wal.append_op(&mut disk, 2, &[8u8; 100]).is_err());
        disk.restart();
        let (wal2, rec, _) = scan(&mut disk, 1 << 20, 0);
        assert!(rec.torn_tail);
        assert_eq!(rec.committed_seq, 1);
        // And the log is reusable after repair.
        let mut wal2 = wal2;
        wal2.append_op(&mut disk, 2, b"retry").unwrap();
        let (_, rec2, _) = scan(&mut disk, 1 << 20, 0);
        assert_eq!(rec2.committed_seq, 2);
        assert!(!rec2.torn_tail);
    }

    #[test]
    fn rotation_spreads_ops_across_segments() {
        let mut disk = SimDisk::new(4);
        let mut wal = fresh(&mut disk, 64); // tiny segments
        for seq in 1..=20u64 {
            wal.append_op(&mut disk, seq, &[seq as u8; 40]).unwrap();
        }
        assert!(wal.segment_index() > 3, "rotation must have happened");
        let (_, rec, ops) = scan(&mut disk, 64, 0);
        assert_eq!(rec.committed_seq, 20);
        assert_eq!(ops.len(), 20);
    }

    #[test]
    fn rot_in_old_segment_is_detected_as_corrupted_history() {
        let mut disk = SimDisk::new(5);
        let mut wal = fresh(&mut disk, 64);
        for seq in 1..=10u64 {
            wal.append_op(&mut disk, seq, &[seq as u8; 40]).unwrap();
        }
        // Flip a bit in the first (long-since-committed) segment.
        let first = disk.list("wal/seg-").first().cloned().unwrap();
        assert!(disk.corrupt(&first, 12, 1));
        let (_, rec, _) = scan(&mut disk, 64, 0);
        assert!(rec.corrupted_history);
        assert!(rec.committed_seq < 10, "ops after the rot are not trusted");
        // Recovery repaired the log: a second scan is clean.
        let (_, rec2, _) = scan(&mut disk, 64, 0);
        assert!(!rec2.corrupted_history);
        assert_eq!(rec2.committed_seq, rec.committed_seq);
    }

    /// A middle segment that lost its frames — here all of them — ends
    /// in a whole frame as any middle segment does, so nothing in it
    /// reads as damage. The hole shows in the sequence numbers:
    /// replaying op 4 after op 2 would recover a state no prefix of the
    /// log makes.
    #[test]
    fn a_lost_middle_segment_is_corrupted_history_not_a_gap() {
        let mut disk = SimDisk::new(12);
        // A 57-byte frame fills a 48-byte segment: one op per segment.
        let mut wal = fresh(&mut disk, 48);
        for seq in 1..=6u64 {
            wal.append_op(&mut disk, seq, &[seq as u8; 40]).unwrap();
        }
        assert_eq!(disk.list("wal/seg-").len(), 6);
        let third = disk.list("wal/seg-")[2].clone();
        disk.truncate(&third, 0).unwrap();
        let (_, rec, ops) = scan(&mut disk, 48, 0);
        assert!(rec.corrupted_history && !rec.torn_tail);
        assert_eq!(ops, [[1u8; 40], [2u8; 40]]);
        assert_eq!(rec.committed_seq, 2);
        // Repaired: the next scan is clean and the log goes on from op 2.
        let (mut wal, rec, _) = scan(&mut disk, 48, 0);
        assert!(!rec.corrupted_history);
        wal.append_op(&mut disk, 3, b"again").unwrap();
        let (_, rec, ops) = scan(&mut disk, 48, 0);
        assert_eq!(rec.committed_seq, 3);
        assert_eq!(ops[2], b"again");
    }

    /// A log whose first op leaves a hole after the snapshot — ops 1–4
    /// gone, the snapshot at 2 — has nothing it may replay. Recovery
    /// reports it and drops the log past the hole, so op 3, acked after
    /// this recovery, is read back and not taken for another hole.
    #[test]
    fn a_hole_at_the_seam_is_corrupted_history() {
        let mut disk = SimDisk::new(13);
        let mut wal = fresh(&mut disk, 1 << 20);
        for seq in 5..=8u64 {
            wal.append_op(&mut disk, seq, &[seq as u8; 8]).unwrap();
        }
        let (mut wal, rec, ops) = scan(&mut disk, 1 << 20, 2);
        assert!(rec.corrupted_history && !rec.torn_tail);
        assert!(ops.is_empty());
        assert_eq!(rec.committed_seq, 2);
        wal.append_op(&mut disk, 3, b"after").unwrap();
        let (_, rec, ops) = scan(&mut disk, 1 << 20, 2);
        assert!(!rec.corrupted_history);
        assert_eq!((rec.committed_seq, ops), (3, vec![b"after".to_vec()]));
    }

    /// A log that ends below its snapshot (its last segment lost) is no
    /// hole: the snapshot covers the missing ops, and the next op takes
    /// the number after the snapshot's.
    #[test]
    fn a_log_behind_its_snapshot_goes_on_after_the_snapshot() {
        let mut disk = SimDisk::new(14);
        let mut wal = fresh(&mut disk, 1 << 20);
        for seq in 1..=3u64 {
            wal.append_op(&mut disk, seq, &[seq as u8; 8]).unwrap();
        }
        let (mut wal, rec, ops) = scan(&mut disk, 1 << 20, 5);
        assert!(!rec.corrupted_history && ops.is_empty());
        assert_eq!(rec.committed_seq, 5);
        wal.append_op(&mut disk, 6, b"six").unwrap();
        let (_, rec, ops) = scan(&mut disk, 1 << 20, 5);
        assert!(!rec.corrupted_history);
        assert_eq!((rec.committed_seq, ops), (6, vec![b"six".to_vec()]));
    }

    #[test]
    fn crash_during_recovery_truncate_is_idempotent() {
        let mut disk = SimDisk::new(11);
        let mut wal = fresh(&mut disk, 1 << 20);
        wal.append_op(&mut disk, 1, b"a").unwrap();
        disk.arm_crash(disk.steps()); // torn tail for op 2
        assert!(wal.append_op(&mut disk, 2, &[9u8; 600]).is_err());
        disk.restart();
        // Recovery reads are step-free, so the very next step is its
        // own truncate — kill the power exactly there.
        disk.arm_crash(disk.steps());
        assert!(Wal::recover(&mut disk, "wal", 1 << 20, 0, |_| {}).is_err());
        disk.restart();
        let (_, rec, _) = scan(&mut disk, 1 << 20, 0);
        assert!(rec.torn_tail, "the tail is still torn until repaired");
        assert_eq!(rec.committed_seq, 1);
        // Third scan sees a clean log.
        let (_, rec2, _) = scan(&mut disk, 1 << 20, 0);
        assert!(!rec2.torn_tail);
        assert_eq!(rec2.committed_seq, 1);
    }

    #[test]
    fn compaction_drops_only_older_segments() {
        let mut disk = SimDisk::new(6);
        let mut wal = fresh(&mut disk, 64);
        for seq in 1..=10u64 {
            wal.append_op(&mut disk, seq, &[seq as u8; 40]).unwrap();
        }
        wal.rotate();
        wal.append_op(&mut disk, 11, b"live").unwrap();
        // Boundary 10: every closed segment is covered, the live one
        // is not (and is the open segment anyway).
        let dropped = wal.compact_covered(&mut disk, 10).unwrap();
        assert!(dropped > 0);
        assert_eq!(
            disk.list("wal/seg-").len(),
            1,
            "only the live segment remains"
        );
        let (_, rec, ops) = scan(&mut disk, 64, 10);
        assert_eq!(ops, [b"live"]);
        assert_eq!(rec.committed_seq, 11);
    }

    #[test]
    fn compaction_respects_the_fallback_boundary() {
        let mut disk = SimDisk::new(7);
        let mut wal = fresh(&mut disk, 64);
        for seq in 1..=10u64 {
            wal.append_op(&mut disk, seq, &[seq as u8; 40]).unwrap();
        }
        wal.rotate();
        // Pretend the oldest retained snapshot is at seq 4: segments
        // holding ops > 4 must survive so a fallback can replay them.
        wal.compact_covered(&mut disk, 4).unwrap();
        let (_, rec, ops) = scan(&mut disk, 64, 4);
        assert!(!rec.corrupted_history);
        let want: Vec<Vec<u8>> = (5..=10u8).map(|seq| vec![seq; 40]).collect();
        assert_eq!(ops, want, "ops 5-10 must survive compaction");
        assert_eq!(rec.committed_seq, 10);
    }
}

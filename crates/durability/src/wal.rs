//! Checksummed write-ahead log over [`SimDisk`].
//!
//! ## Frame format
//!
//! Every record is one frame: `[len: u32][crc: u32][payload: len]`,
//! CRC-32 over the payload, built in one reused buffer and handed to
//! the disk as a single append. Two payload kinds:
//!
//! - **op** (`kind = 1`): `[1u8][seq: u64][op bytes…]` — a service
//!   operation, durable but *uncommitted* until covered by a marker.
//! - **commit marker** (`kind = 2`): `[2u8][through_seq: u64]` — all
//!   ops with `seq <= through_seq` are committed. The caller is only
//!   acked after the marker's last sector step completes.
//!
//! ## Segments
//!
//! The log is a sequence of files `seg-<idx>` (fixed-width hex, so
//! lexicographic listing is chronological). Rotation happens **only at
//! commit boundaries** — immediately after a marker — which is what
//! makes recovery's truncation rule safe: any segment before the last
//! ends in a marker, so a bad frame in the *last* segment is an
//! ordinary torn tail, while a bad frame *earlier* can only be media
//! rot of committed history (detected and reported, not silently
//! replayed past).
//!
//! ## Recovery
//!
//! [`Wal::recover`] scans segments in order, validating every frame.
//! It stops at the first invalid frame, truncates that segment back to
//! the end of its last commit marker (dropping valid-but-uncommitted
//! op frames too — their sequence numbers will be reused), and deletes
//! any later segments. This is idempotent: a crash during the cleanup
//! steps just means the next recovery redoes them.

use crate::codec::{ByteReader, ByteWriter};
use hpop_crypto::crc32;
use hpop_netsim::storage::{DiskError, SimDisk};

/// Payload kind byte for an op frame.
const KIND_OP: u8 = 1;
/// Payload kind byte for a commit marker.
const KIND_COMMIT: u8 = 2;
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
    /// Highest committed op seq per segment — the compaction oracle.
    /// Sequence numbers are monotone across segments, so "every op in
    /// this segment is covered by snapshot S" is just `max <= S`.
    seg_max_seq: std::collections::BTreeMap<u64, u64>,
}

/// What a [`Wal::recover`] scan found.
#[derive(Clone, Debug, Default)]
pub struct WalRecovery {
    /// Committed ops in sequence order: `(seq, op bytes)`.
    pub committed: Vec<(u64, Vec<u8>)>,
    /// Highest committed sequence number (0 = none).
    pub committed_seq: u64,
    /// A torn tail was truncated from the final segment.
    pub torn_tail: bool,
    /// A bad frame before the final segment: committed history was
    /// damaged on the media (rot); everything after it was dropped.
    pub corrupted_history: bool,
    /// Frames dropped by truncation (torn or uncommitted).
    pub frames_dropped: u64,
}

/// Segment file name for index `idx` under `dir`.
fn seg_name(dir: &str, idx: u64) -> String {
    format!("{dir}/seg-{idx:012x}")
}

/// Parses a segment index back out of its file name.
fn seg_index_of(dir: &str, name: &str) -> Option<u64> {
    let hex = name.strip_prefix(&format!("{dir}/seg-"))?;
    u64::from_str_radix(hex, 16).ok()
}

/// One successfully parsed frame.
enum Frame<'a> {
    Op { seq: u64, op: &'a [u8] },
    Commit { through_seq: u64 },
}

/// Parses the frame at `buf[pos..]`; `None` means torn/rotted/absent.
/// Returns the frame and the offset just past it.
fn parse_frame(buf: &[u8], pos: usize) -> Option<(Frame<'_>, usize)> {
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
    let parsed = match p.u8()? {
        KIND_OP => Frame::Op {
            seq: p.u64()?,
            op: &payload[OP_HEADER..],
        },
        KIND_COMMIT => Frame::Commit {
            through_seq: p.u64()?,
        },
        _ => return None,
    };
    Some((parsed, pos + 8 + len as usize))
}

impl Wal {
    /// Appends an op frame for `seq`. Durable when it returns, but not
    /// committed — callers must not ack until [`Wal::commit`].
    ///
    /// # Panics
    ///
    /// Panics, before any byte reaches the disk, if the frame payload
    /// (`op` plus its 9-byte header) exceeds 1 GiB: recovery rejects
    /// such a frame as a torn tail, so writing it would ack an op that
    /// the next open drops. Inputs are capped far below this where they
    /// enter the program (`hpop_http::h1::MAX_BODY_BYTES`).
    pub fn append_op(&mut self, disk: &mut SimDisk, seq: u64, op: &[u8]) -> Result<(), DiskError> {
        self.append_frame(disk, KIND_OP, seq, op)?;
        let max = self.seg_max_seq.entry(self.seg_index).or_insert(0);
        *max = (*max).max(seq);
        Ok(())
    }

    /// Appends a commit marker covering every op with
    /// `seq <= through_seq`, then rotates the segment if it is full.
    pub fn commit(&mut self, disk: &mut SimDisk, through_seq: u64) -> Result<(), DiskError> {
        self.append_frame(disk, KIND_COMMIT, through_seq, &[])?;
        if self.seg_bytes >= self.max_segment_bytes {
            self.rotate();
        }
        Ok(())
    }

    /// Builds `[len][crc][kind][seq][op]` in the reused buffer — the
    /// CRC is patched in once the payload it covers is in place — and
    /// hands the disk that one contiguous run in a single append.
    fn append_frame(
        &mut self,
        disk: &mut SimDisk,
        kind: u8,
        seq: u64,
        op: &[u8],
    ) -> Result<(), DiskError> {
        let len = u32::try_from(OP_HEADER + op.len())
            .ok()
            .filter(|&len| len <= MAX_PAYLOAD)
            .expect("frame payload within MAX_PAYLOAD");
        // The buffer one large op grew is given back at the next frame
        // (its own commit marker) rather than reused.
        if self.frame.capacity() > FRAME_KEEP_BYTES {
            self.frame = Vec::new();
        }
        self.frame.clear();
        let mut w = ByteWriter::from(std::mem::take(&mut self.frame));
        w.u32(len).u32(0).u8(kind).u64(seq);
        self.frame = w.into_bytes();
        self.frame.extend_from_slice(op);
        let crc = crc32(&self.frame[8..]);
        self.frame[4..8].copy_from_slice(&crc.to_le_bytes());
        disk.append(&self.seg_file, &self.frame)?;
        self.seg_bytes += self.frame.len() as u64;
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
            // A segment with no op frames (markers only) is trivially
            // covered; sequence monotonicity makes `max <= boundary`
            // exactly the "fully covered" test otherwise.
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

    /// Scans (and where needed repairs) the log under `dir`, returning
    /// the committed ops and a [`Wal`] positioned to append after
    /// them. Works on an empty directory (a brand-new log).
    pub fn recover(
        disk: &mut SimDisk,
        dir: &str,
        max_segment_bytes: u64,
    ) -> Result<(Wal, WalRecovery), DiskError> {
        let mut segs: Vec<u64> = disk
            .list(&format!("{dir}/seg-"))
            .iter()
            .filter_map(|n| seg_index_of(dir, n))
            .collect();
        segs.sort_unstable();

        let mut rec = WalRecovery::default();
        let mut pending: Vec<(u64, Vec<u8>, u64)> = Vec::new();
        let mut seg_max_seq = std::collections::BTreeMap::new();
        // Position to resume appending at; fresh log when no segments.
        let mut open_seg = 0u64;
        let mut open_bytes = 0u64;

        for (si, &seg) in segs.iter().enumerate() {
            let name = seg_name(dir, seg);
            let buf = disk.read(&name)?;
            let mut pos = 0usize;
            // Offset just past the last commit marker in this segment.
            let mut committed_end = 0usize;
            let mut bad = false;
            while pos < buf.len() {
                match parse_frame(&buf, pos) {
                    Some((Frame::Op { seq, op }, next)) => {
                        pending.push((seq, op.to_vec(), seg));
                        pos = next;
                    }
                    Some((Frame::Commit { through_seq }, next)) => {
                        let mut keep = Vec::new();
                        for (seq, op, home_seg) in pending.drain(..) {
                            if seq <= through_seq {
                                rec.committed_seq = rec.committed_seq.max(seq);
                                rec.committed.push((seq, op));
                                let max = seg_max_seq.entry(home_seg).or_insert(0);
                                *max = (*max).max(seq);
                            } else {
                                keep.push((seq, op, home_seg));
                            }
                        }
                        pending = keep;
                        pos = next;
                        committed_end = next;
                    }
                    None => {
                        bad = true;
                        break;
                    }
                }
            }
            let last = si + 1 == segs.len();
            if bad && !last {
                rec.corrupted_history = true;
            }
            if bad && last {
                rec.torn_tail = true;
            }
            if bad || (last && committed_end < buf.len()) {
                // Drop the tail: torn frames plus any valid op frames
                // never covered by a marker (their seqs get reused).
                rec.frames_dropped += pending.drain(..).len() as u64 + u64::from(bad);
                disk.truncate(&name, committed_end)?;
                open_seg = seg;
                open_bytes = committed_end as u64;
                if bad {
                    // Anything after the damage is untrustworthy to
                    // order; delete it (committed ops already gathered
                    // from earlier segments survive).
                    for &later in &segs[si + 1..] {
                        disk.delete(&seg_name(dir, later))?;
                        seg_max_seq.remove(&later);
                    }
                    break;
                }
            } else if last {
                open_seg = seg;
                open_bytes = buf.len() as u64;
            }
        }
        rec.committed.sort_by_key(|(seq, _)| *seq);

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
        let (wal, rec) = Wal::recover(disk, "wal", max).unwrap();
        assert_eq!(rec.committed_seq, 0);
        wal
    }

    #[test]
    fn append_commit_recover_round_trip() {
        let mut disk = SimDisk::new(1);
        let mut wal = fresh(&mut disk, 1 << 20);
        for seq in 1..=5u64 {
            wal.append_op(&mut disk, seq, format!("op{seq}").as_bytes())
                .unwrap();
            wal.commit(&mut disk, seq).unwrap();
        }
        let (_, rec) = Wal::recover(&mut disk, "wal", 1 << 20).unwrap();
        assert_eq!(rec.committed_seq, 5);
        assert!(!rec.torn_tail && !rec.corrupted_history);
        let ops: Vec<String> = rec
            .committed
            .iter()
            .map(|(_, op)| String::from_utf8(op.clone()).unwrap())
            .collect();
        assert_eq!(ops, vec!["op1", "op2", "op3", "op4", "op5"]);
    }

    /// The platter bytes of one op frame and its commit marker: a
    /// captured value, so building a frame may get cheaper but the log
    /// an older build wrote stays the log this one writes.
    #[test]
    fn frame_bytes_are_frozen() {
        let mut disk = SimDisk::new(1);
        let mut wal = fresh(&mut disk, 1 << 20);
        wal.append_op(&mut disk, 1, b"op one").unwrap();
        wal.commit(&mut disk, 1).unwrap();
        #[rustfmt::skip]
        let golden = [
            15, 0, 0, 0, 228, 148, 72, 214, 1, 1, 0, 0, 0, 0, 0, 0, 0, b'o', b'p', b' ', b'o', b'n', b'e',
            9, 0, 0, 0, 182, 60, 85, 4, 2, 1, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(disk.list(""), ["wal/seg-000000000000"]);
        assert_eq!(disk.read("wal/seg-000000000000").unwrap(), golden);
        assert_eq!(disk.steps(), 2, "one append, so one sector step, per frame");
    }

    #[test]
    fn uncommitted_op_is_dropped_on_recovery() {
        let mut disk = SimDisk::new(2);
        let mut wal = fresh(&mut disk, 1 << 20);
        wal.append_op(&mut disk, 1, b"committed").unwrap();
        wal.commit(&mut disk, 1).unwrap();
        wal.append_op(&mut disk, 2, b"never marked").unwrap();
        let (_, rec) = Wal::recover(&mut disk, "wal", 1 << 20).unwrap();
        assert_eq!(rec.committed_seq, 1);
        assert_eq!(rec.committed.len(), 1);
        assert_eq!(rec.frames_dropped, 1);
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
        wal.commit(&mut disk, 1).unwrap();
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
        let (_, rec) = Wal::recover(&mut disk, "wal", 1 << 20).unwrap();
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
        wal.commit(&mut disk, 1).unwrap();
        wal.append_op(&mut disk, 2, &[2u8; 1024]).unwrap();
        assert_eq!(wal.frame.capacity(), kept, "a steady log reuses its buffer");
        wal.append_op(&mut disk, 3, &vec![3u8; 4 * FRAME_KEEP_BYTES])
            .unwrap();
        wal.commit(&mut disk, 3).unwrap();
        assert!(wal.frame.capacity() <= FRAME_KEEP_BYTES);
        let (_, rec) = Wal::recover(&mut disk, "wal", 1 << 30).unwrap();
        assert_eq!(rec.committed.len(), 3);
        assert_eq!(rec.committed[2].1, vec![3u8; 4 * FRAME_KEEP_BYTES]);
    }

    #[test]
    fn torn_tail_truncates_to_committed_prefix() {
        let mut disk = SimDisk::new(3);
        let mut wal = fresh(&mut disk, 1 << 20);
        wal.append_op(&mut disk, 1, &[7u8; 100]).unwrap();
        wal.commit(&mut disk, 1).unwrap();
        // Crash mid-append of op 2 → torn frame on disk.
        disk.arm_crash(disk.steps());
        assert!(wal.append_op(&mut disk, 2, &[8u8; 100]).is_err());
        disk.restart();
        let (wal2, rec) = Wal::recover(&mut disk, "wal", 1 << 20).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.committed_seq, 1);
        // And the log is reusable after repair.
        let mut wal2 = wal2;
        wal2.append_op(&mut disk, 2, b"retry").unwrap();
        wal2.commit(&mut disk, 2).unwrap();
        let (_, rec2) = Wal::recover(&mut disk, "wal", 1 << 20).unwrap();
        assert_eq!(rec2.committed_seq, 2);
        assert!(!rec2.torn_tail);
    }

    #[test]
    fn rotation_spreads_ops_across_segments() {
        let mut disk = SimDisk::new(4);
        let mut wal = fresh(&mut disk, 64); // tiny segments
        for seq in 1..=20u64 {
            wal.append_op(&mut disk, seq, &[seq as u8; 40]).unwrap();
            wal.commit(&mut disk, seq).unwrap();
        }
        assert!(wal.segment_index() > 3, "rotation must have happened");
        let (_, rec) = Wal::recover(&mut disk, "wal", 64).unwrap();
        assert_eq!(rec.committed_seq, 20);
        assert_eq!(rec.committed.len(), 20);
    }

    #[test]
    fn rot_in_old_segment_is_detected_as_corrupted_history() {
        let mut disk = SimDisk::new(5);
        let mut wal = fresh(&mut disk, 64);
        for seq in 1..=10u64 {
            wal.append_op(&mut disk, seq, &[seq as u8; 40]).unwrap();
            wal.commit(&mut disk, seq).unwrap();
        }
        // Flip a bit in the first (long-since-committed) segment.
        let first = disk.list("wal/seg-").first().cloned().unwrap();
        assert!(disk.corrupt(&first, 12, 1));
        let (_, rec) = Wal::recover(&mut disk, "wal", 64).unwrap();
        assert!(rec.corrupted_history);
        assert!(rec.committed_seq < 10, "ops after the rot are not trusted");
        // Recovery repaired the log: a second scan is clean.
        let (_, rec2) = Wal::recover(&mut disk, "wal", 64).unwrap();
        assert!(!rec2.corrupted_history);
        assert_eq!(rec2.committed_seq, rec.committed_seq);
    }

    #[test]
    fn crash_during_recovery_truncate_is_idempotent() {
        let mut disk = SimDisk::new(11);
        let mut wal = fresh(&mut disk, 1 << 20);
        wal.append_op(&mut disk, 1, b"a").unwrap();
        wal.commit(&mut disk, 1).unwrap();
        disk.arm_crash(disk.steps()); // torn tail for op 2
        assert!(wal.append_op(&mut disk, 2, &[9u8; 600]).is_err());
        disk.restart();
        // Recovery reads are step-free, so the very next step is its
        // own truncate — kill the power exactly there.
        disk.arm_crash(disk.steps());
        assert!(Wal::recover(&mut disk, "wal", 1 << 20).is_err());
        disk.restart();
        let (_, rec) = Wal::recover(&mut disk, "wal", 1 << 20).unwrap();
        assert!(rec.torn_tail, "the tail is still torn until repaired");
        assert_eq!(rec.committed_seq, 1);
        // Third scan sees a clean log.
        let (_, rec2) = Wal::recover(&mut disk, "wal", 1 << 20).unwrap();
        assert!(!rec2.torn_tail);
        assert_eq!(rec2.committed_seq, 1);
    }

    #[test]
    fn compaction_drops_only_older_segments() {
        let mut disk = SimDisk::new(6);
        let mut wal = fresh(&mut disk, 64);
        for seq in 1..=10u64 {
            wal.append_op(&mut disk, seq, &[seq as u8; 40]).unwrap();
            wal.commit(&mut disk, seq).unwrap();
        }
        wal.rotate();
        wal.append_op(&mut disk, 11, b"live").unwrap();
        wal.commit(&mut disk, 11).unwrap();
        // Boundary 10: every closed segment is covered, the live one
        // is not (and is the open segment anyway).
        let dropped = wal.compact_covered(&mut disk, 10).unwrap();
        assert!(dropped > 0);
        let (_, rec) = Wal::recover(&mut disk, "wal", 64).unwrap();
        assert_eq!(rec.committed.len(), 1, "only the live segment remains");
        assert_eq!(rec.committed_seq, 11);
    }

    #[test]
    fn compaction_respects_the_fallback_boundary() {
        let mut disk = SimDisk::new(7);
        let mut wal = fresh(&mut disk, 64);
        for seq in 1..=10u64 {
            wal.append_op(&mut disk, seq, &[seq as u8; 40]).unwrap();
            wal.commit(&mut disk, seq).unwrap();
        }
        wal.rotate();
        // Pretend the oldest retained snapshot is at seq 4: segments
        // holding ops > 4 must survive so a fallback can replay them.
        wal.compact_covered(&mut disk, 4).unwrap();
        let (_, rec) = Wal::recover(&mut disk, "wal", 64).unwrap();
        let seqs: Vec<u64> = rec.committed.iter().map(|(s, _)| *s).collect();
        for needed in 5..=10u64 {
            assert!(
                seqs.contains(&needed),
                "op {needed} must survive compaction"
            );
        }
        assert_eq!(rec.committed_seq, 10);
    }
}

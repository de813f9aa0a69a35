//! Checksummed state snapshots with atomic installation.
//!
//! A snapshot is the full encoded service state as of a committed
//! sequence number. It is written to `snap-<through_seq>.tmp` and then
//! renamed onto `snap-<through_seq>` — the rename is the single atomic
//! commit point, so a crash anywhere during the write leaves at worst
//! an orphan `.tmp` (cleaned up by [`prune`]) and never a half-visible
//! snapshot.
//!
//! File layout: `[magic: u32][crc: u32][through_seq: u64]
//! [len: u32][state bytes]`, CRC-32 over everything after the CRC
//! field. [`load_latest`] tries snapshots newest-first and falls back
//! past any that fail the checksum (bit-rot), counting the fallbacks
//! so recovery can report detected media damage.

use crate::codec::{ByteReader, ByteWriter};
use hpop_crypto::crc32;
use hpop_netsim::storage::{DiskError, SimDisk};

/// `"HPSN"` little-endian.
const MAGIC: u32 = 0x4E53_5048;
/// Bytes ahead of the state: magic, CRC, `through_seq`, length.
const HEADER_BYTES: usize = 20;

/// Installed snapshot name for `through_seq` under `dir`.
fn snap_name(dir: &str, through_seq: u64) -> String {
    format!("{dir}/snap-{through_seq:016x}")
}

/// What [`load_latest`] found.
#[derive(Clone, Debug, Default)]
pub struct SnapshotLoad {
    /// `(through_seq, state bytes)` of the newest valid snapshot.
    pub loaded: Option<(u64, Vec<u8>)>,
    /// Snapshots that failed validation before one loaded (bit-rot
    /// detected and skipped).
    pub fallbacks: u64,
}

/// Writes and atomically installs a snapshot of `state` as of
/// `through_seq`.
pub fn write_snapshot(
    disk: &mut SimDisk,
    dir: &str,
    through_seq: u64,
    state: &[u8],
) -> Result<(), DiskError> {
    // One buffer, each byte written once: the CRC covers everything
    // after its own field, so it is patched in last.
    let mut w = ByteWriter::from(Vec::with_capacity(HEADER_BYTES + state.len()));
    w.u32(MAGIC).u32(0).u64(through_seq).bytes(state);
    let mut content = w.into_bytes();
    let crc = crc32(&content[8..]);
    content[4..8].copy_from_slice(&crc.to_le_bytes());

    let name = snap_name(dir, through_seq);
    let tmp = format!("{name}.tmp");
    disk.write_file(&tmp, &content)?;
    disk.rename(&tmp, &name)
}

/// Parses one snapshot file; `None` = damaged (magic or CRC mismatch).
fn parse(content: &[u8]) -> Option<(u64, Vec<u8>)> {
    let mut r = ByteReader::new(content);
    if r.u32()? != MAGIC {
        return None;
    }
    let crc = r.u32()?;
    if crc32(&content[8..]) != crc {
        return None;
    }
    let through_seq = r.u64()?;
    let state = r.bytes()?;
    Some((through_seq, state.to_vec()))
}

/// Loads the newest valid snapshot under `dir`, skipping damaged ones.
pub fn load_latest(disk: &mut SimDisk, dir: &str) -> Result<SnapshotLoad, DiskError> {
    let mut names: Vec<String> = disk
        .list(&format!("{dir}/snap-"))
        .into_iter()
        .filter(|n| !n.ends_with(".tmp"))
        .collect();
    names.sort();
    let mut out = SnapshotLoad::default();
    for name in names.iter().rev() {
        let content = disk.read(name)?;
        match parse(&content) {
            Some(loaded) => {
                out.loaded = Some(loaded);
                return Ok(out);
            }
            None => out.fallbacks += 1,
        }
    }
    Ok(out)
}

/// `through_seq` of every installed snapshot, ascending — compaction
/// uses the smallest as its keep-everything-after boundary.
pub fn installed_throughs(disk: &SimDisk, dir: &str) -> Vec<u64> {
    let prefix = format!("{dir}/snap-");
    let mut out: Vec<u64> = disk
        .list(&prefix)
        .iter()
        .filter(|n| !n.ends_with(".tmp"))
        .filter_map(|n| u64::from_str_radix(n.strip_prefix(&prefix)?, 16).ok())
        .collect();
    out.sort_unstable();
    out
}

/// Deletes orphan `.tmp` files and all but the newest `keep` installed
/// snapshots. Keeping more than one is the bit-rot insurance
/// [`load_latest`] relies on.
pub fn prune(disk: &mut SimDisk, dir: &str, keep: usize) -> Result<(), DiskError> {
    let all = disk.list(&format!("{dir}/snap-"));
    for name in all.iter().filter(|n| n.ends_with(".tmp")) {
        disk.delete(name)?;
    }
    let mut installed: Vec<&String> = all.iter().filter(|n| !n.ends_with(".tmp")).collect();
    installed.sort();
    let n = installed.len();
    for name in installed.into_iter().take(n.saturating_sub(keep)) {
        disk.delete(name)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_load_round_trips() {
        let mut disk = SimDisk::new(1);
        write_snapshot(&mut disk, "d", 42, b"the state").unwrap();
        let got = load_latest(&mut disk, "d").unwrap();
        assert_eq!(got.loaded, Some((42, b"the state".to_vec())));
        assert_eq!(got.fallbacks, 0);
    }

    /// The platter bytes of a snapshot file: a captured value, so a
    /// snapshot an older build installed is one this build loads.
    #[test]
    fn file_bytes_are_frozen() {
        let mut disk = SimDisk::new(1);
        write_snapshot(&mut disk, "d", 42, b"the state").unwrap();
        #[rustfmt::skip]
        let golden = [
            b'H', b'P', b'S', b'N', 245, 136, 189, 133, 42, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0,
            b't', b'h', b'e', b' ', b's', b't', b'a', b't', b'e',
        ];
        assert_eq!(disk.list(""), ["d/snap-000000000000002a"]);
        assert_eq!(disk.read("d/snap-000000000000002a").unwrap(), golden);
        assert_eq!(golden.len(), HEADER_BYTES + b"the state".len());
    }

    #[test]
    fn newest_wins_and_rot_falls_back() {
        let mut disk = SimDisk::new(2);
        write_snapshot(&mut disk, "d", 10, b"old").unwrap();
        write_snapshot(&mut disk, "d", 20, b"new").unwrap();
        let got = load_latest(&mut disk, "d").unwrap();
        assert_eq!(got.loaded, Some((20, b"new".to_vec())));
        // Rot the newest: loader falls back to the older one.
        assert!(disk.corrupt("d/snap-0000000000000014", 9, 0));
        let got = load_latest(&mut disk, "d").unwrap();
        assert_eq!(got.loaded, Some((10, b"old".to_vec())));
        assert_eq!(got.fallbacks, 1);
    }

    #[test]
    fn crash_before_rename_leaves_no_snapshot() {
        let mut disk = SimDisk::new(3);
        write_snapshot(&mut disk, "d", 1, b"base").unwrap();
        // The rename is the very last step of write_snapshot; arming
        // the final step of the second snapshot kills exactly it.
        let state = vec![9u8; 600];
        let steps_for_write = 1 + 1 + 1 + 1; // probe run below confirms
        let mut probe = SimDisk::new(3);
        write_snapshot(&mut probe, "d", 1, b"base").unwrap();
        let before = probe.steps();
        write_snapshot(&mut probe, "d", 2, &state).unwrap();
        let rename_step = probe.steps() - 1;
        assert!(probe.steps() - before >= steps_for_write as u64 - 1);

        disk.arm_crash(rename_step);
        assert!(write_snapshot(&mut disk, "d", 2, &state).is_err());
        disk.restart();
        let got = load_latest(&mut disk, "d").unwrap();
        assert_eq!(got.loaded, Some((1, b"base".to_vec())), "tmp not visible");
        // Prune clears the orphan tmp.
        prune(&mut disk, "d", 2).unwrap();
        assert!(disk.list("d/snap-").iter().all(|n| !n.ends_with(".tmp")));
    }

    #[test]
    fn prune_keeps_newest_two() {
        let mut disk = SimDisk::new(4);
        for through in [1u64, 2, 3, 4] {
            write_snapshot(&mut disk, "d", through, b"s").unwrap();
        }
        prune(&mut disk, "d", 2).unwrap();
        let left = disk.list("d/snap-");
        assert_eq!(left.len(), 2);
        assert!(left.iter().any(|n| n.ends_with("3")));
        assert!(left.iter().any(|n| n.ends_with("4")));
    }
}

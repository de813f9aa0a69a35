//! Checksummed state snapshots with atomic installation.
//!
//! A snapshot is the full encoded service state as of a committed
//! sequence number. It is written to `snap-<through_seq>.tmp` and then
//! renamed onto `snap-<through_seq>` — the rename is the single atomic
//! commit point, so a crash anywhere during the write leaves at worst
//! an orphan `.tmp` (cleared by the next open, [`clear_orphans`]) and
//! never a half-visible snapshot.
//!
//! Only opening lists the directory: [`load_latest`] reports every
//! installed snapshot's `through_seq`, and from then on the journal
//! keeps that set itself and [`prune`]s it by name.
//!
//! File layout: `[magic: u32][crc: u32][through_seq: u64]
//! [len: u32][state bytes]`, CRC-32 over everything after the CRC
//! field. [`load_latest`] tries snapshots newest-first and falls back
//! past any that fail the checksum (bit-rot) or do not decode, counting
//! the fallbacks so recovery can report detected media damage.

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
#[derive(Clone, Debug)]
pub struct SnapshotLoad<T> {
    /// `(through_seq, decoded state)` of the newest valid snapshot.
    pub loaded: Option<(u64, T)>,
    /// Snapshots that failed validation or decoding before one loaded
    /// (bit-rot detected and skipped).
    pub fallbacks: u64,
    /// File length of the snapshot that loaded (0 when none did).
    pub len: u64,
    /// `through_seq` of every installed snapshot, ascending, the
    /// damaged ones included: what [`prune`] goes on from.
    pub installed: Vec<u64>,
}

/// Writes and atomically installs a snapshot of `state` as of
/// `through_seq`: [`write_snapshot_with`] for a state already laid out.
pub fn write_snapshot(
    disk: &mut SimDisk,
    dir: &str,
    through_seq: u64,
    state: &[u8],
) -> Result<u64, DiskError> {
    let buf = Vec::with_capacity(HEADER_BYTES + state.len());
    write_snapshot_with(disk, dir, through_seq, buf, |w| {
        w.raw(state);
    })
}

/// Lays out a snapshot as of `through_seq` in `buf` — the header, then
/// the state that `encode` appends straight behind it — and atomically
/// installs it. `buf`'s bytes are dropped and its capacity reused; the
/// disk keeps the buffer as the file's body, so the state is written
/// once, read once by the CRC and never copied. Returns the file's
/// length.
///
/// # Panics
///
/// Panics if the state is 4 GiB or longer: its length field is a `u32`.
pub fn write_snapshot_with(
    disk: &mut SimDisk,
    dir: &str,
    through_seq: u64,
    mut buf: Vec<u8>,
    encode: impl FnOnce(&mut ByteWriter),
) -> Result<u64, DiskError> {
    buf.clear();
    let mut w = ByteWriter::from(buf);
    w.u32(MAGIC).u32(0).u64(through_seq).u32(0);
    encode(&mut w);
    let mut content = w.into_bytes();
    // The length and then the CRC, which covers everything after its
    // own field, are patched in once the state is laid out.
    let len = u32::try_from(content.len() - HEADER_BYTES).expect("state fits the u32 length");
    content[16..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&content[8..]);
    content[4..8].copy_from_slice(&crc.to_le_bytes());
    let file_len = content.len() as u64;

    let name = snap_name(dir, through_seq);
    let tmp = format!("{name}.tmp");
    disk.write_file_owned(&tmp, content)?;
    disk.rename(&tmp, &name)?;
    Ok(file_len)
}

/// Parses one snapshot file; `None` = damaged (magic or CRC mismatch).
fn parse(content: &[u8]) -> Option<(u64, &[u8])> {
    let mut r = ByteReader::new(content);
    if r.u32()? != MAGIC {
        return None;
    }
    let crc = r.u32()?;
    if crc32(&content[8..]) != crc {
        return None;
    }
    let through_seq = r.u64()?;
    Some((through_seq, r.bytes()?))
}

/// Loads the newest snapshot under `dir` that validates and that
/// `decode` accepts, skipping damaged ones.
pub fn load_latest<T>(
    disk: &mut SimDisk,
    dir: &str,
    decode: impl Fn(&[u8]) -> Option<T>,
) -> Result<SnapshotLoad<T>, DiskError> {
    let installed = installed_throughs(disk, dir);
    let mut out = SnapshotLoad {
        loaded: None,
        fallbacks: 0,
        len: 0,
        installed,
    };
    for &through in out.installed.iter().rev() {
        let content = disk.read(&snap_name(dir, through))?;
        out.loaded = parse(&content).and_then(|(through, state)| Some((through, decode(state)?)));
        if out.loaded.is_some() {
            out.len = content.len() as u64;
            break;
        }
        out.fallbacks += 1;
    }
    Ok(out)
}

/// `through_seq` of every installed snapshot on the device, ascending.
/// Lists the device: [`load_latest`] calls it at open, and from then on
/// the journal keeps the set itself.
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

/// Deletes the orphan `.tmp` files under `dir`: snapshots a crash cut
/// before their rename. Only a crash leaves one, so an open clears them
/// and nothing after it looks again.
pub fn clear_orphans(disk: &mut SimDisk, dir: &str) -> Result<(), DiskError> {
    for name in disk.list(&format!("{dir}/snap-")) {
        if name.ends_with(".tmp") {
            disk.delete(&name)?;
        }
    }
    Ok(())
}

/// Records the snapshot just installed at `through` in `installed`
/// (ascending, as [`load_latest`] reports it) and deletes, by name, all
/// but the newest `keep`. Keeping more than one is the bit-rot
/// insurance [`load_latest`] relies on. Returns the body of the last
/// snapshot it deleted, for the caller to lay the next one out in.
pub fn prune(
    disk: &mut SimDisk,
    dir: &str,
    installed: &mut Vec<u64>,
    through: u64,
    keep: usize,
) -> Result<Option<Vec<u8>>, DiskError> {
    if let Err(at) = installed.binary_search(&through) {
        installed.insert(at, through);
    }
    let mut dropped = None;
    while installed.len() > keep {
        dropped = disk.remove(&snap_name(dir, installed[0]))?;
        installed.remove(0);
    }
    Ok(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decoder that accepts any state.
    fn bytes(state: &[u8]) -> Option<Vec<u8>> {
        Some(state.to_vec())
    }

    #[test]
    fn write_then_load_round_trips() {
        let mut disk = SimDisk::new(1);
        write_snapshot(&mut disk, "d", 42, b"the state").unwrap();
        let got = load_latest(&mut disk, "d", bytes).unwrap();
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
        let got = load_latest(&mut disk, "d", bytes).unwrap();
        assert_eq!(got.loaded, Some((20, b"new".to_vec())));
        // A newest that validates but does not decode is damage too.
        let got = load_latest(&mut disk, "d", |s| (s != b"new").then(|| s.to_vec())).unwrap();
        assert_eq!(
            (got.loaded, got.fallbacks),
            (Some((10, b"old".to_vec())), 1)
        );
        // Rot the newest: loader falls back to the older one.
        assert!(disk.corrupt("d/snap-0000000000000014", 9, 0));
        let got = load_latest(&mut disk, "d", bytes).unwrap();
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
        let got = load_latest(&mut disk, "d", bytes).unwrap();
        assert_eq!(got.loaded, Some((1, b"base".to_vec())), "tmp not visible");
        assert_eq!(got.installed, [1]);
        // The next open clears the orphan tmp.
        assert!(disk.list("d/snap-").iter().any(|n| n.ends_with(".tmp")));
        clear_orphans(&mut disk, "d").unwrap();
        assert_eq!(disk.list("d/snap-"), ["d/snap-0000000000000001"]);
    }

    #[test]
    fn prune_keeps_newest_two() {
        let mut disk = SimDisk::new(4);
        let mut installed = Vec::new();
        for through in [1u64, 2, 3] {
            write_snapshot(&mut disk, "d", through, b"s").unwrap();
            installed.push(through);
        }
        write_snapshot(&mut disk, "d", 4, b"s4").unwrap();
        // Two deletions by name, and the body of the second comes back.
        let steps = disk.steps();
        let spare = prune(&mut disk, "d", &mut installed, 4, 2).unwrap();
        assert_eq!(disk.steps(), steps + 2);
        assert_eq!(spare.as_deref().map(<[u8]>::len), Some(HEADER_BYTES + 1));
        assert_eq!(installed, [3, 4]);
        let left = disk.list("d/snap-");
        assert_eq!(left, ["d/snap-0000000000000003", "d/snap-0000000000000004"]);
        // Re-installing a snapshot it holds changes nothing.
        write_snapshot(&mut disk, "d", 4, b"s4").unwrap();
        assert_eq!(prune(&mut disk, "d", &mut installed, 4, 2).unwrap(), None);
        assert_eq!(installed, [3, 4]);
    }
}

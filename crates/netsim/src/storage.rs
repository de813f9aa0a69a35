//! Deterministic simulated block device with crash-point injection.
//!
//! [`SimDisk`] models the stable storage of one home appliance on the
//! same deterministic footing as the rest of netsim: named byte
//! streams written in [`SECTOR_BYTES`] units, where every sector
//! write, rename, delete and truncate is one **I/O step**. Power can
//! be lost between (or inside) any two steps:
//!
//! - [`SimDisk::arm_crash`] schedules power loss at an absolute step
//!   index. Steps before it complete durably; the armed step itself is
//!   interrupted — a sector write tears (a seeded prefix of the
//!   in-flight sector survives, the rest is lost), while atomic
//!   metadata steps (rename/delete/truncate) simply do not happen.
//! - After the crash every operation returns
//!   [`DiskError::PowerLoss`] until [`SimDisk::restart`], which
//!   restores power and applies seeded bit-rot
//!   ([`StorageFaults::bitrot_flips_per_restart`]).
//!
//! Two guarantees the durability layer builds on, both documented in
//! DESIGN.md §9: a torn write only ever damages the bytes of the
//! in-flight sector, never previously acknowledged sectors (the
//! equivalent of sector-aligned journal commits), and reads cost no
//! I/O steps (recovery cost is metered separately through
//! [`DiskStats::bytes_read`]).
//!
//! The crash-point *enumeration* contract: a baseline run that
//! performs `N` steps can be re-run `N` times with the crash armed at
//! `0..N`; every run is byte-deterministic, so the exhaustive harness
//! in `hpop-durability` can assert recovery invariants at every
//! possible power-loss point.

use bytes::Bytes;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Sector size: the unit of torn-write granularity and step
/// accounting.
pub const SECTOR_BYTES: usize = 512;

/// Storage-fault knobs, surfaced in
/// [`FaultConfig`](crate::faults::FaultConfig) so the chaos preset
/// covers disks too.
#[derive(Clone, Copy, Debug)]
pub struct StorageFaults {
    /// Probability that the sector in flight at the crash point leaves
    /// a torn prefix behind (versus vanishing entirely).
    pub torn_write_fraction: f64,
    /// Expected number of bit flips applied across the whole disk at
    /// each [`SimDisk::restart`] (media decay while unpowered).
    pub bitrot_flips_per_restart: f64,
}

impl Default for StorageFaults {
    fn default() -> StorageFaults {
        StorageFaults {
            torn_write_fraction: 1.0,
            bitrot_flips_per_restart: 0.0,
        }
    }
}

/// Why a disk operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// Power was lost (mid-step or earlier); the device stays dead
    /// until [`SimDisk::restart`].
    PowerLoss,
    /// The named file does not exist.
    NotFound(String),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::PowerLoss => write!(f, "power loss"),
            DiskError::NotFound(name) => write!(f, "no such file: {name}"),
        }
    }
}

/// Cumulative I/O accounting, for recovery-cost experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Completed sector-write steps.
    pub sector_writes: u64,
    /// Completed atomic metadata steps (rename/delete/truncate).
    pub atomic_ops: u64,
    /// Bytes durably written.
    pub bytes_written: u64,
    /// Bytes returned by reads (reads are step-free but metered).
    pub bytes_read: u64,
    /// Power-loss events taken.
    pub crashes: u64,
    /// Sectors left torn by a crash.
    pub torn_sectors: u64,
    /// Bits flipped by restart-time rot.
    pub bitrot_flips: u64,
}

/// The file table's hasher: FxHash (rustc's), since every I/O step
/// hashes a name and the names are the program's own, not an
/// adversary's. It finishes as rustc-hash 2 does, rotating the
/// well-mixed high bits down to where the table takes its bucket
/// index: names that differ only in their last hex digits (blob files,
/// log segments) would otherwise crowd a few buckets, and the
/// tombstones their deletions leave would grow the table under a
/// steady file count.
#[derive(Clone, Copy, Debug, Default)]
struct NameHasher(u64);

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
        }
        for &b in words.remainder() {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
        }
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type NameMap<V> = HashMap<String, V, BuildHasherDefault<NameHasher>>;

/// A file's bytes: a buffer the device owns, or an immutable one it
/// was handed ([`SimDisk::write_file_shared`]) and holds as it is. A
/// write into a shared file first takes the bytes into a buffer of the
/// device's own.
#[derive(Clone, Debug)]
enum Body {
    Owned(Vec<u8>),
    Shared(Bytes),
}

impl Body {
    fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(bytes) => bytes,
            Body::Shared(bytes) => bytes,
        }
    }

    /// The bytes, as a buffer the device owns and may change.
    fn owned(&mut self) -> &mut Vec<u8> {
        if let Body::Shared(bytes) = self {
            *self = Body::Owned(bytes.to_vec());
        }
        match self {
            Body::Owned(bytes) => bytes,
            Body::Shared(_) => unreachable!("taken into a buffer above"),
        }
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// The deterministic simulated disk. Cloning clones the platters —
/// used by snapshot-style tests, never to share a device.
#[derive(Clone, Debug)]
pub struct SimDisk {
    /// A hash map, so an I/O step costs the same however many files
    /// the device holds; [`SimDisk::list`] sorts what it lists.
    files: NameMap<Body>,
    seed: u64,
    faults: StorageFaults,
    steps: u64,
    crash_at: Option<u64>,
    powered: bool,
    stats: DiskStats,
}

impl SimDisk {
    /// A powered, empty disk with default fault knobs (torn writes on,
    /// no bit-rot).
    pub fn new(seed: u64) -> SimDisk {
        SimDisk::with_faults(seed, StorageFaults::default())
    }

    /// A disk with explicit fault knobs.
    pub fn with_faults(seed: u64, faults: StorageFaults) -> SimDisk {
        SimDisk {
            files: NameMap::default(),
            seed,
            faults,
            steps: 0,
            crash_at: None,
            powered: true,
            stats: DiskStats::default(),
        }
    }

    /// Completed I/O steps so far — the domain for [`arm_crash`].
    ///
    /// [`arm_crash`]: SimDisk::arm_crash
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Cumulative I/O accounting.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Whether the device currently has power.
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Schedules power loss during the step whose index is `at_step`
    /// (absolute, 0-based: `at_step == steps()` means "the very next
    /// step"). Steps with smaller indices complete durably.
    pub fn arm_crash(&mut self, at_step: u64) {
        self.crash_at = Some(at_step);
    }

    /// Restores power after a crash and applies restart-time bit-rot.
    pub fn restart(&mut self) {
        self.powered = true;
        self.crash_at = None;
        let expected = self.faults.bitrot_flips_per_restart;
        if expected <= 0.0 || self.files.is_empty() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xb170 ^ self.stats.crashes);
        let mut flips = expected.floor() as u64;
        if rng.gen::<f64>() < expected.fract() {
            flips += 1;
        }
        for _ in 0..flips {
            let names = self.list("");
            let name = &names[rng.gen_range(0..names.len())];
            let file = self
                .files
                .get_mut(name)
                .expect("chosen from the names")
                .owned();
            if file.is_empty() {
                continue;
            }
            let byte = rng.gen_range(0..file.len());
            let bit = rng.gen_range(0..8u32);
            file[byte] ^= 1 << bit;
            self.stats.bitrot_flips += 1;
        }
    }

    /// One atomic metadata step. Returns false if the step was where
    /// power failed (the operation must then not happen).
    fn atomic_step(&mut self) -> Result<(), DiskError> {
        if !self.powered {
            return Err(DiskError::PowerLoss);
        }
        if self.crash_at == Some(self.steps) {
            self.powered = false;
            self.stats.crashes += 1;
            return Err(DiskError::PowerLoss);
        }
        self.steps += 1;
        self.stats.atomic_ops += 1;
        Ok(())
    }

    /// Steps a write of `len` bytes, one step per [`SECTOR_BYTES`]
    /// chunk, and returns how many of them land: all of them, or, when
    /// power is armed to fail inside the write, the chunks stepped before
    /// the armed one plus whatever torn prefix of the in-flight chunk
    /// survives (`Err`, with power now off).
    fn step_sectors(&mut self, len: usize) -> Result<(), usize> {
        let sectors = len.div_ceil(SECTOR_BYTES) as u64;
        let crash = self
            .crash_at
            .filter(|&at| at >= self.steps && at - self.steps < sectors);
        let whole = crash.map_or(sectors, |at| at - self.steps);
        let durable = (whole as usize * SECTOR_BYTES).min(len);
        self.steps += whole;
        self.stats.sector_writes += whole;
        self.stats.bytes_written += durable as u64;
        if crash.is_none() {
            return Ok(());
        }
        self.powered = false;
        self.stats.crashes += 1;
        let in_flight = (len - durable).min(SECTOR_BYTES);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x70a2 ^ self.steps);
        let mut kept = durable;
        if rng.gen::<f64>() < self.faults.torn_write_fraction && in_flight > 1 {
            kept += rng.gen_range(1..in_flight);
            self.stats.torn_sectors += 1;
        }
        Err(kept)
    }

    /// Appends `data` to `name` (creating it if absent), one step per
    /// [`SECTOR_BYTES`] chunk. On power loss mid-append the chunks
    /// already stepped are durable and the in-flight chunk tears.
    pub fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DiskError> {
        if !self.powered {
            return Err(DiskError::PowerLoss);
        }
        let landed = self.step_sectors(data.len());
        let kept = &data[..landed.err().unwrap_or(data.len())];
        // One lookup for the whole append; the name is spelled only
        // when the append creates the file.
        match self.files.get_mut(name) {
            Some(file) => file.owned().extend_from_slice(kept),
            None => drop(
                self.files
                    .insert(name.to_owned(), Body::Owned(kept.to_vec())),
            ),
        }
        landed.map_err(|_| DiskError::PowerLoss)
    }

    /// Replaces `name` with `data`: one truncate step, then an append.
    /// Crash-interleavings leave either the old file, an empty file,
    /// or a durable prefix of the new bytes — never a splice of both.
    pub fn write_file(&mut self, name: &str, data: &[u8]) -> Result<(), DiskError> {
        self.truncate(name, 0)?;
        self.append(name, data)
    }

    /// [`SimDisk::write_file`], step for step and byte for byte, that
    /// keeps `data` as the file's body instead of copying it. A caller
    /// that wants the buffer back takes it with [`SimDisk::remove`].
    pub fn write_file_owned(&mut self, name: &str, mut data: Vec<u8>) -> Result<(), DiskError> {
        // The truncate's step, then the sectors', and one lookup for
        // both: a cut between them leaves the empty file the truncate
        // would have.
        self.atomic_step()?;
        let landed = self.step_sectors(data.len());
        if let Err(kept) = landed {
            data.truncate(kept);
        }
        self.files.insert(name.to_owned(), Body::Owned(data));
        landed.map_err(|_| DiskError::PowerLoss)
    }

    /// [`SimDisk::write_file_owned`] of bytes nobody changes: the
    /// device keeps the buffer shared with whoever else holds it, so an
    /// immutable body written to a file is not copied. Steps, torn
    /// prefixes and accounting are `write_file`'s.
    pub fn write_file_shared(&mut self, name: &str, data: Bytes) -> Result<(), DiskError> {
        self.atomic_step()?;
        let landed = self.step_sectors(data.len());
        let kept = landed.err().unwrap_or(data.len());
        self.files
            .insert(name.to_owned(), Body::Shared(data.slice(..kept)));
        landed.map_err(|_| DiskError::PowerLoss)
    }

    /// Truncates `name` to `len` bytes (creating it when absent), one
    /// atomic step.
    pub fn truncate(&mut self, name: &str, len: usize) -> Result<(), DiskError> {
        self.atomic_step()?;
        match self.files.get_mut(name) {
            Some(Body::Shared(bytes)) => *bytes = bytes.slice(..len.min(bytes.len())),
            Some(Body::Owned(file)) => file.truncate(len),
            None => drop(self.files.insert(name.to_owned(), Body::Owned(Vec::new()))),
        }
        Ok(())
    }

    /// Atomically renames `from` onto `to` (replacing it), one step.
    /// This is the commit primitive snapshots rely on: at the crash
    /// point the rename simply has not happened.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), DiskError> {
        if !self.powered {
            return Err(DiskError::PowerLoss);
        }
        if !self.files.contains_key(from) {
            return Err(DiskError::NotFound(from.to_string()));
        }
        self.atomic_step()?;
        let body = self.files.remove(from).expect("checked above");
        self.files.insert(to.to_owned(), body);
        Ok(())
    }

    /// Deletes `name` (no-op when absent), one atomic step.
    pub fn delete(&mut self, name: &str) -> Result<(), DiskError> {
        self.remove(name).map(drop)
    }

    /// [`SimDisk::delete`] that hands back the deleted file's buffer,
    /// so the caller can reuse it — when the device owned it: a shared
    /// file's bytes go back to nobody.
    pub fn remove(&mut self, name: &str) -> Result<Option<Vec<u8>>, DiskError> {
        self.atomic_step()?;
        Ok(match self.files.remove(name) {
            Some(Body::Owned(bytes)) => Some(bytes),
            Some(Body::Shared(_)) | None => None,
        })
    }

    /// Reads the whole file. Step-free; metered in
    /// [`DiskStats::bytes_read`].
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>, DiskError> {
        if !self.powered {
            return Err(DiskError::PowerLoss);
        }
        match self.files.get(name) {
            Some(body) => {
                self.stats.bytes_read += body.as_slice().len() as u64;
                Ok(body.as_slice().to_vec())
            }
            None => Err(DiskError::NotFound(name.to_string())),
        }
    }

    /// [`SimDisk::read`] as [`Bytes`]: a shared file's buffer is handed
    /// out as it is, an owned one copied.
    pub fn read_shared(&mut self, name: &str) -> Result<Bytes, DiskError> {
        if !self.powered {
            return Err(DiskError::PowerLoss);
        }
        match self.files.get(name) {
            Some(body) => {
                self.stats.bytes_read += body.as_slice().len() as u64;
                Ok(match body {
                    Body::Owned(bytes) => Bytes::copy_from_slice(bytes),
                    Body::Shared(bytes) => bytes.clone(),
                })
            }
            None => Err(DiskError::NotFound(name.to_string())),
        }
    }

    /// All file names with the given prefix, sorted (step-free).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        if !self.powered {
            return Vec::new();
        }
        let matching = self.files.keys().filter(|name| name.starts_with(prefix));
        let mut names: Vec<String> = matching.cloned().collect();
        names.sort_unstable();
        names
    }

    /// Flips one bit in `name` at `byte`/`bit` — targeted corruption
    /// for detection tests.
    pub fn corrupt(&mut self, name: &str, byte: usize, bit: u8) -> bool {
        match self.files.get_mut(name).map(Body::owned) {
            Some(body) if byte < body.len() => {
                body[byte] ^= 1 << (bit % 8);
                self.stats.bitrot_flips += 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The file table keeps each directory apart; a listing is still
    /// every name with the prefix, in byte order across directories.
    #[test]
    fn listings_span_directories_in_name_order() {
        let mut d = SimDisk::new(1);
        let names = ["a/b/c", "a/b-x", "a/b0", "ab", "a/b/", "x", "/y", "a/b/c/d"];
        for name in names {
            d.write_file(name, name.as_bytes()).unwrap();
        }
        let mut sorted = names.map(str::to_owned).to_vec();
        sorted.sort();
        assert_eq!(d.list(""), sorted);
        assert_eq!(d.list("a/b"), ["a/b-x", "a/b/", "a/b/c", "a/b/c/d", "a/b0"]);
        assert_eq!(d.list("a/b/"), ["a/b/", "a/b/c", "a/b/c/d"]);
        assert_eq!(d.list("a/b/c/"), ["a/b/c/d"]);
        assert!(d.list("q").is_empty());
        d.rename("a/b/c", "x/c").unwrap();
        assert_eq!(d.read("x/c").unwrap(), b"a/b/c");
        assert_eq!(d.list("x"), ["x", "x/c"]);
        d.delete("x").unwrap();
        assert_eq!(d.list("x"), ["x/c"]);
    }

    /// A shared write is an owned write step for step and byte for byte,
    /// torn prefix included, keeps the caller's buffer, and becomes the
    /// device's own buffer the moment anything writes into it.
    #[test]
    fn shared_writes_step_and_tear_as_owned_ones() {
        let data: Vec<u8> = (0..3 * SECTOR_BYTES + 7).map(|i| (i * 13) as u8).collect();
        for crash in [None, Some(0), Some(2), Some(3)] {
            let (mut owned, mut shared) = (SimDisk::new(9), SimDisk::new(9));
            if let Some(at) = crash {
                owned.arm_crash(at);
                shared.arm_crash(at);
            }
            let a = owned.write_file_owned("d/f", data.clone());
            let b = shared.write_file_shared("d/f", Bytes::from(data.clone()));
            assert_eq!(a, b, "{crash:?}");
            assert_eq!(
                (owned.steps(), owned.stats()),
                (shared.steps(), shared.stats())
            );
            owned.restart();
            shared.restart();
            assert_eq!(owned.list(""), shared.list(""));
            assert_eq!(owned.read("d/f").ok(), shared.read("d/f").ok(), "{crash:?}");
        }
        let mut d = SimDisk::new(1);
        let body = Bytes::from(vec![5u8; 100]);
        d.write_file_shared("f", body.clone()).unwrap();
        assert_eq!(d.read_shared("f").unwrap().as_ptr(), body.as_ptr());
        d.append("f", b"tail").unwrap();
        assert_eq!(d.read("f").unwrap().len(), 104);
        assert_eq!(&body[..], &[5u8; 100][..]);
        d.write_file_shared("g", body.clone()).unwrap();
        d.truncate("g", 10).unwrap();
        assert_eq!(d.read("g").unwrap(), [5u8; 10]);
        assert!(d.corrupt("g", 0, 0));
        assert_eq!(body[0], 5);
    }

    #[test]
    fn append_counts_one_step_per_sector() {
        let mut d = SimDisk::new(1);
        d.append("a", &[7u8; SECTOR_BYTES * 2 + 1]).unwrap();
        assert_eq!(d.steps(), 3);
        assert_eq!(d.read("a").unwrap().len(), SECTOR_BYTES * 2 + 1);
    }

    #[test]
    fn crash_tears_only_the_inflight_sector() {
        let mut d = SimDisk::new(42);
        d.append("log", &[1u8; SECTOR_BYTES]).unwrap();
        d.arm_crash(d.steps() + 1); // second sector of the next append
        let err = d.append("log", &[2u8; SECTOR_BYTES * 3]).unwrap_err();
        assert_eq!(err, DiskError::PowerLoss);
        d.restart();
        let body = d.read("log").unwrap();
        // First (pre-crash) sector intact, first appended sector
        // durable, in-flight sector at most a strict prefix.
        assert!(body.len() >= SECTOR_BYTES * 2);
        assert!(body.len() < SECTOR_BYTES * 3);
        assert!(body[..SECTOR_BYTES].iter().all(|&b| b == 1));
        assert!(body[SECTOR_BYTES..].iter().all(|&b| b == 2));
    }

    /// Power fails at each step of a 5-sector append (four whole
    /// sectors and a 100-byte tail), onto a file the append creates and
    /// onto one that already holds a sector. Surviving length, step
    /// count and accounting are captured values: the crash matrices of
    /// every durable adopter enumerate exactly these steps and torn
    /// bytes, so `append` may get faster but may not move one of them.
    #[test]
    fn crash_at_every_step_of_an_append_is_frozen() {
        // (file pre-exists, crash offset, surviving bytes, steps,
        //  sector_writes, bytes_written); offset 5 = the append completes.
        const CAPTURED: [(bool, u64, usize, u64, u64, u64); 12] = [
            (false, 0, 306, 0, 0, 0),
            (false, 1, 629, 1, 1, 512),
            (false, 2, 1400, 2, 2, 1024),
            (false, 3, 1809, 3, 3, 1536),
            (false, 4, 2106, 4, 4, 2048),
            (false, 5, 2148, 5, 5, 2148),
            (true, 0, 629, 1, 1, 512),
            (true, 1, 1400, 2, 2, 1024),
            (true, 2, 1809, 3, 3, 1536),
            (true, 3, 2243, 4, 4, 2048),
            (true, 4, 2584, 5, 5, 2560),
            (true, 5, 2660, 6, 6, 2660),
        ];
        let data: Vec<u8> = (0..4 * SECTOR_BYTES + 100)
            .map(|i| (i * 7 + i / 256) as u8)
            .collect();
        for (existing, crash, survived, steps, sector_writes, bytes_written) in CAPTURED {
            let mut d = SimDisk::new(0x5ec7);
            let mut want = Vec::new();
            if existing {
                d.append("f", &[0xAA; SECTOR_BYTES]).unwrap();
                want.extend_from_slice(&[0xAA; SECTOR_BYTES]);
            }
            want.extend_from_slice(&data);
            d.arm_crash(d.steps() + crash);
            let completes = crash == 5;
            assert_eq!(d.append("f", &data).is_ok(), completes);
            let case = format!("existing {existing}, crash offset {crash}");
            assert_eq!(d.steps(), steps, "{case}");
            let torn = u64::from(!completes);
            let stats = DiskStats {
                sector_writes,
                bytes_written,
                crashes: torn,
                torn_sectors: torn,
                ..DiskStats::default()
            };
            assert_eq!(d.stats(), stats, "{case}");
            d.restart();
            assert_eq!(d.read("f").unwrap(), want[..survived], "{case}");
        }
    }

    /// The per-sector loop `append` was before it stepped sectors
    /// arithmetically: the reference the bulk paths must equal.
    fn append_per_sector(d: &mut SimDisk, name: &str, data: &[u8]) -> Result<(), DiskError> {
        if !d.powered {
            return Err(DiskError::PowerLoss);
        }
        let file = d
            .files
            .entry(name.to_string())
            .or_insert(Body::Owned(Vec::new()));
        let file = file.owned();
        for chunk in data.chunks(SECTOR_BYTES) {
            if d.crash_at == Some(d.steps) {
                d.powered = false;
                d.stats.crashes += 1;
                let mut rng = StdRng::seed_from_u64(d.seed ^ 0x70a2 ^ d.steps);
                if rng.gen::<f64>() < d.faults.torn_write_fraction && chunk.len() > 1 {
                    let keep = rng.gen_range(1..chunk.len());
                    file.extend_from_slice(&chunk[..keep]);
                    d.stats.torn_sectors += 1;
                }
                return Err(DiskError::PowerLoss);
            }
            d.steps += 1;
            d.stats.sector_writes += 1;
            d.stats.bytes_written += chunk.len() as u64;
            file.extend_from_slice(chunk);
        }
        Ok(())
    }

    proptest::proptest! {
        /// The bulk `append` and `write_file_owned` leave exactly what
        /// the per-sector reference leaves — files, steps, accounting,
        /// power and the error — wherever power is armed to fail:
        /// before the write, at any of its steps, or past it.
        #[test]
        fn bulk_writes_match_the_per_sector_reference(
            seed in proptest::prelude::any::<u64>(),
            existing in proptest::option::of(0..3 * SECTOR_BYTES + 100),
            len in 0..=6 * SECTOR_BYTES + 100,
            crash in proptest::option::of(-2i64..10),
            torn in proptest::prelude::any::<bool>(),
            owned in proptest::prelude::any::<bool>(),
        ) {
            let faults = StorageFaults {
                torn_write_fraction: if torn { 1.0 } else { 0.0 },
                bitrot_flips_per_restart: 0.0,
            };
            let mut fast = SimDisk::with_faults(seed, faults);
            fast.append("other", b"untouched").unwrap();
            if let Some(existing) = existing {
                let body: Vec<u8> = (0..existing).map(|i| (i * 3) as u8).collect();
                fast.append("f", &body).unwrap();
            }
            if let Some(offset) = crash {
                fast.arm_crash((fast.steps() as i64 + offset).max(0) as u64);
            }
            let mut slow = fast.clone();
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + i / 256) as u8).collect();
            let (got, want) = if owned {
                let want = slow.truncate("f", 0).and_then(|()| append_per_sector(&mut slow, "f", &data));
                (fast.write_file_owned("f", data), want)
            } else {
                (fast.append("f", &data), append_per_sector(&mut slow, "f", &data))
            };
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(&fast.files, &slow.files);
            proptest::prop_assert_eq!(fast.steps(), slow.steps());
            proptest::prop_assert_eq!(fast.stats(), slow.stats());
            proptest::prop_assert_eq!(fast.powered(), slow.powered());
        }
    }

    #[test]
    fn crash_on_rename_means_it_did_not_happen() {
        let mut d = SimDisk::new(7);
        d.append("x.tmp", b"hello").unwrap();
        d.arm_crash(d.steps());
        assert_eq!(d.rename("x.tmp", "x"), Err(DiskError::PowerLoss));
        d.restart();
        assert!(d.read("x").is_err());
        assert_eq!(d.read("x.tmp").unwrap(), b"hello");
        // And with power restored the rename completes atomically.
        d.rename("x.tmp", "x").unwrap();
        assert_eq!(d.read("x").unwrap(), b"hello");
    }

    #[test]
    fn everything_fails_until_restart() {
        let mut d = SimDisk::new(9);
        d.append("f", b"data").unwrap();
        d.arm_crash(d.steps());
        assert!(d.delete("f").is_err());
        assert_eq!(d.append("f", b"more"), Err(DiskError::PowerLoss));
        assert_eq!(d.read("f"), Err(DiskError::PowerLoss));
        assert!(d.list("").is_empty());
        d.restart();
        assert_eq!(d.read("f").unwrap(), b"data");
    }

    #[test]
    fn identical_seeds_and_schedules_are_byte_deterministic() {
        let run = |crash: u64| {
            let mut d = SimDisk::new(0xd15c);
            let _ = d.append("w", &[3u8; 2000]);
            d.arm_crash(crash);
            let _ = d.append("w", &[4u8; 2000]);
            d.restart();
            d.read("w").unwrap()
        };
        for crash in 0..8 {
            assert_eq!(run(crash), run(crash), "crash point {crash}");
        }
    }

    #[test]
    fn bitrot_flips_bits_on_restart() {
        let faults = StorageFaults {
            torn_write_fraction: 1.0,
            bitrot_flips_per_restart: 4.0,
        };
        let mut d = SimDisk::with_faults(5, faults);
        d.append("f", &[0u8; 4096]).unwrap();
        d.arm_crash(d.steps());
        let _ = d.delete("f");
        d.restart();
        assert!(d.stats().bitrot_flips > 0);
        let body = d.read("f").unwrap();
        assert!(body.iter().any(|&b| b != 0), "some bit must have rotted");
    }

    #[test]
    fn targeted_corruption_is_visible() {
        let mut d = SimDisk::new(2);
        d.append("s", &[0u8; 32]).unwrap();
        assert!(d.corrupt("s", 10, 3));
        assert_eq!(d.read("s").unwrap()[10], 1 << 3);
        assert!(!d.corrupt("s", 999, 0));
    }
}

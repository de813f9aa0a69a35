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

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

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

/// The deterministic simulated disk. Cloning clones the platters —
/// used by snapshot-style tests, never to share a device.
#[derive(Clone, Debug)]
pub struct SimDisk {
    files: BTreeMap<String, Vec<u8>>,
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
            files: BTreeMap::new(),
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
            let names: Vec<&String> = self.files.keys().collect();
            let name = names[rng.gen_range(0..names.len())].clone();
            let file = self.files.get_mut(&name).expect("chosen from keys");
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

    /// Appends `data` to `name` (creating it if absent), one step per
    /// [`SECTOR_BYTES`] chunk. On power loss mid-append the chunks
    /// already stepped are durable and the in-flight chunk tears.
    pub fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DiskError> {
        if !self.powered {
            return Err(DiskError::PowerLoss);
        }
        // One lookup for the whole append; the name is spelled only
        // when the append creates the file.
        if !self.files.contains_key(name) {
            self.files.insert(name.to_string(), Vec::new());
        }
        let file = self.files.get_mut(name).expect("created above");
        file.reserve(data.len());
        for chunk in data.chunks(SECTOR_BYTES.max(1)) {
            if self.crash_at == Some(self.steps) {
                self.powered = false;
                self.stats.crashes += 1;
                let mut rng = StdRng::seed_from_u64(self.seed ^ 0x70a2 ^ self.steps);
                if rng.gen::<f64>() < self.faults.torn_write_fraction && chunk.len() > 1 {
                    let keep = rng.gen_range(1..chunk.len());
                    file.extend_from_slice(&chunk[..keep]);
                    self.stats.torn_sectors += 1;
                }
                return Err(DiskError::PowerLoss);
            }
            self.steps += 1;
            self.stats.sector_writes += 1;
            self.stats.bytes_written += chunk.len() as u64;
            file.extend_from_slice(chunk);
        }
        Ok(())
    }

    /// Replaces `name` with `data`: one truncate step, then an append.
    /// Crash-interleavings leave either the old file, an empty file,
    /// or a durable prefix of the new bytes — never a splice of both.
    pub fn write_file(&mut self, name: &str, data: &[u8]) -> Result<(), DiskError> {
        self.truncate(name, 0)?;
        self.append(name, data)
    }

    /// Truncates `name` to `len` bytes (creating it when absent), one
    /// atomic step.
    pub fn truncate(&mut self, name: &str, len: usize) -> Result<(), DiskError> {
        self.atomic_step()?;
        let file = self.files.entry(name.to_string()).or_default();
        file.truncate(len);
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
        self.files.insert(to.to_string(), body);
        Ok(())
    }

    /// Deletes `name` (no-op when absent), one atomic step.
    pub fn delete(&mut self, name: &str) -> Result<(), DiskError> {
        self.atomic_step()?;
        self.files.remove(name);
        Ok(())
    }

    /// Reads the whole file. Step-free; metered in
    /// [`DiskStats::bytes_read`].
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>, DiskError> {
        if !self.powered {
            return Err(DiskError::PowerLoss);
        }
        match self.files.get(name) {
            Some(body) => {
                self.stats.bytes_read += body.len() as u64;
                Ok(body.clone())
            }
            None => Err(DiskError::NotFound(name.to_string())),
        }
    }

    /// All file names with the given prefix, sorted (step-free).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        if !self.powered {
            return Vec::new();
        }
        self.files
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Flips one bit in `name` at `byte`/`bit` — targeted corruption
    /// for detection tests.
    pub fn corrupt(&mut self, name: &str, byte: usize, bit: u8) -> bool {
        match self.files.get_mut(name) {
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

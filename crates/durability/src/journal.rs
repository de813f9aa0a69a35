//! [`Machine`] — what a service writes — and [`Journal<M>`] — the
//! typed front of [`Persistent`] every in-tree adopter goes through.
//!
//! [`Durable`] speaks bytes: ops arrive as `&[u8]` and `apply` returns
//! nothing. Every adopter used to bridge that by hand — `default()` /
//! `codec::encode` / `codec::decode` for the three state methods,
//! "decode the op, run it" for the fourth, and a never-snapshotted
//! field to smuggle the result back out. That bridge is written once
//! here: `impl Durable for Slot<M>`, on a private type, is the only one
//! in the tree, and [`Journal::run`] is the only place an op is
//! encoded, an outcome is taken back, or the device is reached.

use crate::codec::{self, Wire};
use crate::persistent::{DurabilityConfig, Durable, Persistent, RecoveryReport};
use hpop_netsim::storage::{DiskError, SimDisk};
use std::cell::Cell;
use std::fmt;

/// A deterministic state machine that can live behind a journal: its
/// [`Wire`] layout is the snapshot, `default()` is the state before any
/// op, and [`Machine::run`] is the one place an op meets the state —
/// live call and recovery replay alike.
///
/// `run` must be deterministic: replaying the same ops onto `default()`
/// must reproduce the same encoding, and that encoding must decode back
/// to itself. [`crate::crash_matrix`] asserts both.
pub trait Machine: Wire + Default {
    /// One mutation, as the journal records it.
    type Op: Wire;
    /// What running an op answers. Never journaled: replay recomputes
    /// it.
    type Outcome;
    /// Runs one op.
    fn run(&mut self, op: Self::Op) -> Self::Outcome;
}

/// A [`Machine`] as [`Durable`] sees it, plus the outcome of the last
/// applied op on its way back to [`Journal::run`] — `Durable::apply`
/// returns nothing and `Persistent::state` lends `&T`, hence the cell.
/// Call plumbing, not state: never snapshotted, never cloned.
struct Slot<M: Machine> {
    machine: M,
    outcome: Cell<Option<M::Outcome>>,
}

impl<M: Machine> Slot<M> {
    fn holding(machine: M) -> Slot<M> {
        let outcome = Cell::new(None);
        Slot { machine, outcome }
    }
}

impl<M: Machine> Durable for Slot<M> {
    fn fresh() -> Slot<M> {
        Slot::holding(M::default())
    }

    fn encode_state(&self) -> Vec<u8> {
        codec::encode(&self.machine)
    }

    fn decode_state(bytes: &[u8]) -> Option<Slot<M>> {
        codec::decode(bytes).map(Slot::holding)
    }

    /// A frame that does not decode (impossible for CRC-verified
    /// committed frames) is ignored — and still clears the slot, so an
    /// older outcome (one recovery replay left, or one whose `run` died
    /// after the commit) can never stand in for this op's.
    fn apply(&mut self, op: &[u8]) {
        let outcome = codec::decode(op).map(|op| self.machine.run(op));
        self.outcome.set(outcome);
    }
}

impl<M: Machine + Clone> Clone for Slot<M> {
    fn clone(&self) -> Slot<M> {
        Slot::holding(self.machine.clone())
    }
}

impl<M: Machine + fmt::Debug> fmt::Debug for Slot<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.machine.fmt(f)
    }
}

/// A [`Machine`] made crash-consistent: every [`Journal::run`] is
/// WAL-logged and committed before it answers, and [`Journal::open`]
/// recovers the committed prefix. The committed-prefix contract is
/// [`Persistent`]'s, unchanged.
#[derive(Clone, Debug)]
pub struct Journal<M: Machine> {
    inner: Persistent<Slot<M>>,
}

impl<M: Machine> Journal<M> {
    /// Opens (recovers or freshly initializes) the machine stored under
    /// `dir`; see [`Persistent::open`].
    ///
    /// # Errors
    ///
    /// The device failed during recovery.
    pub fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        let inner = Persistent::open(disk, dir, cfg)?;
        Ok(Journal { inner })
    }

    /// Durably runs one op and returns what the machine answered. `Ok`
    /// is the ack — the op survives any later crash.
    ///
    /// # Errors
    ///
    /// The device failed: the op is at worst committed-but-unacked (see
    /// [`crate::persistent`]), so the caller's retry must be idempotent.
    pub fn run(&mut self, op: &M::Op) -> Result<M::Outcome, DiskError> {
        self.inner.execute(&codec::encode(op))?;
        let outcome = self.inner.state().outcome.take();
        Ok(outcome.expect("an op this process encoded decodes, and apply records its outcome"))
    }

    /// The recovered/live machine (reads only — every mutation goes
    /// through [`Journal::run`]).
    pub fn state(&self) -> &M {
        &self.inner.state().machine
    }

    /// Highest committed op sequence number.
    pub fn committed_seq(&self) -> u64 {
        self.inner.committed_seq()
    }

    /// How the last [`Journal::open`] recovered.
    pub fn last_recovery(&self) -> &RecoveryReport {
        self.inner.last_recovery()
    }

    /// The underlying device (stats).
    pub fn disk(&self) -> &SimDisk {
        self.inner.disk()
    }

    /// Mutable device access — tests and experiments arm power loss
    /// here.
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        self.inner.disk_mut()
    }

    /// Tears down the in-memory half (the "process") and returns the
    /// platters, ready for [`SimDisk::restart`] + [`Journal::open`].
    pub fn into_disk(self) -> SimDisk {
        self.inner.into_disk()
    }
}

//! [`Machine`] — what a service writes — and [`Journal<M>`] — the
//! typed front of [`Persistent`] every in-tree adopter goes through.
//!
//! [`Durable`] speaks bytes: ops arrive as `&[u8]` and `apply` returns
//! nothing. A live op never takes that road: [`Journal::run`] encodes
//! the op once, straight into its WAL frame, then runs the op value on
//! the machine and hands back what it answered — the same three steps
//! [`Persistent::execute`] takes, with nothing decoded on the way. The
//! byte road is recovery's: `impl Durable for Slot<M>`, on a private
//! type and the only one in the tree, decodes each committed op and
//! runs it.

use crate::codec::{self, ByteWriter, Wire};
use crate::persistent::{DurabilityConfig, Durable, Persistent, RecoveryReport};
use hpop_netsim::storage::{DiskError, SimDisk};

/// A deterministic state machine that can live behind a journal: its
/// [`Wire`] layout is the snapshot, `default()` is the state before any
/// op, and [`Machine::run`] is the one place an op meets the state —
/// live call and recovery replay alike.
///
/// `run` must be deterministic: replaying the same ops onto `default()`
/// must reproduce the same encoding, and that encoding must decode back
/// to itself. An op's encoding must decode back to itself too: the live
/// call runs the op value, replay runs what its bytes decode to.
/// [`crate::crash_matrix`] asserts all three.
pub trait Machine: Wire + Default {
    /// One mutation, as the journal records it.
    type Op: Wire;
    /// What running an op answers. Never journaled: replay recomputes
    /// it.
    type Outcome;
    /// Runs one op.
    fn run(&mut self, op: Self::Op) -> Self::Outcome;
}

/// A [`Machine`] as [`Durable`] sees it: recovery's view, which replays
/// committed ops from their bytes and drops what they answer.
#[derive(Clone, Debug)]
struct Slot<M>(M);

impl<M: Machine> Durable for Slot<M> {
    fn fresh() -> Slot<M> {
        Slot(M::default())
    }

    fn encode_state(&self) -> Vec<u8> {
        codec::encode(&self.0)
    }

    fn encode_state_into(&self, w: &mut ByteWriter) {
        w.put(&self.0);
    }

    fn decode_state(bytes: &[u8]) -> Option<Slot<M>> {
        codec::decode(bytes).map(Slot)
    }

    /// A frame that does not decode (impossible for CRC-verified
    /// committed frames) is ignored.
    fn apply(&mut self, op: &[u8]) {
        if let Some(op) = codec::decode(op) {
            self.0.run(op);
        }
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
    pub fn run(&mut self, op: M::Op) -> Result<M::Outcome, DiskError> {
        self.inner.log(|w| op.put(w))?;
        let outcome = self.inner.state_mut().0.run(op);
        self.inner.after_apply()?;
        Ok(outcome)
    }

    /// The recovered/live machine (reads only — every mutation goes
    /// through [`Journal::run`]).
    pub fn state(&self) -> &M {
        &self.inner.state().0
    }

    /// Highest committed op sequence number.
    pub fn committed_seq(&self) -> u64 {
        self.inner.committed_seq()
    }

    /// Snapshots this journal installed since it opened: an adopter that
    /// keeps files beside the journal learns from a change here that
    /// the log was compacted behind a new snapshot.
    pub fn snapshots_taken(&self) -> u64 {
        self.inner.snapshots_taken()
    }

    /// The machine and the device together, for an adopter that keeps
    /// part of its state in files of its own beside the journal (the
    /// attic's bodies): what the machine's encoding does not hold may
    /// be filled in from those files after [`Journal::open`]. What the
    /// encoding holds must change only through [`Journal::run`], or
    /// replay no longer reproduces it.
    pub fn parts_mut(&mut self) -> (&mut M, &mut SimDisk) {
        let (slot, disk) = self.inner.parts_mut();
        (&mut slot.0, disk)
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

/// What the fixtures in [`crate::harness`] drive: a [`Journal`], or an
/// adopter that wraps one and keeps more of its state on the same
/// device, so that the crash matrix also cuts power inside the writes
/// the adopter makes beside the log.
pub trait Journaled: Sized {
    /// The machine the journal runs.
    type Machine: Machine;
    /// Opens (recovers or initializes) the store under `dir`.
    ///
    /// # Errors
    ///
    /// The device failed during recovery.
    fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError>;
    /// Durably runs one op; `Ok` is the ack.
    ///
    /// # Errors
    ///
    /// The device failed: the op is at worst committed but unacked.
    fn run(
        &mut self,
        op: <Self::Machine as Machine>::Op,
    ) -> Result<<Self::Machine as Machine>::Outcome, DiskError>;
    /// The journal inside.
    fn journal(&self) -> &Journal<Self::Machine>;
    /// The device, for arming power loss.
    fn disk_mut(&mut self) -> &mut SimDisk;
    /// Tears down the process and returns the platters.
    fn into_disk(self) -> SimDisk;
}

impl<M: Machine> Journaled for Journal<M> {
    type Machine = M;

    fn open(disk: SimDisk, dir: &str, cfg: DurabilityConfig) -> Result<Self, DiskError> {
        Journal::open(disk, dir, cfg)
    }

    fn run(&mut self, op: M::Op) -> Result<M::Outcome, DiskError> {
        Journal::run(self, op)
    }

    fn journal(&self) -> &Journal<M> {
        self
    }

    fn disk_mut(&mut self) -> &mut SimDisk {
        Journal::disk_mut(self)
    }

    fn into_disk(self) -> SimDisk {
        Journal::into_disk(self)
    }
}

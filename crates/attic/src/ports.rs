//! Ports of the attic's hexagonal architecture.
//!
//! The domain core — versioned [`ObjectStore`], [`LockManager`]
//! mediation, WebDAV protocol semantics — knows nothing about *how* it
//! is driven or *where* state lives:
//!
//! - **Driving side**: the protocol engine
//!   ([`DavCore`](crate::webdav::DavCore)) serves one request at a
//!   logical instant. Experiments call it directly — that is the
//!   deterministic netsim adapter — and
//!   [`AtticDaemon`](crate::daemon) (the real-socket appliance) calls
//!   it once per decoded frame. One conformance suite runs against both
//!   and must produce byte-identical transcripts: the simulated results
//!   describe the code that actually serves traffic.
//! - **Driven port** ([`AtticBackend`]): the storage the engine runs
//!   over, reduced to two methods. Reads go through
//!   [`AtticBackend::state`]; every mutation is an [`AtticOp`] *value*
//!   handed to [`AtticBackend::apply`], which answers with an
//!   [`AtticOutcome`]. The typed verbs (`put`, `lock`, `prune`, …) are
//!   provided methods written once over those two, so a backend decides
//!   only *where* an op runs: [`VolatileBackend`] — the bare
//!   [`AtticState`] — runs it on the spot (simulation, tests);
//!   [`DurableAttic`](crate::durable::DurableAttic) journals it
//!   through `hpop-durability` first, so acked writes — including
//!   lifecycle compactions — survive crashes. Either way the op
//!   reaches the store in exactly one place, [`AtticState`]'s
//!   [`Machine::run`].

use crate::lock::{LockDepth, LockError, LockManager, LockScope, LockToken};
use crate::store::{ObjectStore, PruneReport, StoreError};
use bytes::Bytes;
use hpop_durability::Machine;
use hpop_netsim::storage::DiskError;
use hpop_netsim::time::{SimDuration, SimTime};
use std::fmt;

/// Where a request entered the attic: inside the home (trusted) or
/// from an external application (must present a capability grant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// In-home traffic; no grant required (the paper's trust model).
    Local,
    /// External traffic; `Authorization: Capability <wire>` enforced.
    External,
}

/// A device-level fault from the driven side — the request was not
/// (fully) applied because the storage layer failed, not because WebDAV
/// semantics rejected it. Adapters map this to `500`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendFault {
    /// The simulated disk failed mid-write (power cut, torn sector).
    Disk(DiskError),
}

impl fmt::Display for BackendFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendFault::Disk(e) => write!(f, "storage fault: {e:?}"),
        }
    }
}

impl std::error::Error for BackendFault {}

impl From<DiskError> for BackendFault {
    fn from(e: DiskError) -> BackendFault {
        BackendFault::Disk(e)
    }
}

/// One attic mutation — the original call, argument for argument. The
/// value handed to [`AtticBackend::apply`], and (through its byte
/// layout in [`crate::durable`]) the journal record, so replay is
/// re-execution.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // fields are the arguments of the AtticBackend verb of the same name
pub enum AtticOp {
    /// `MKCOL`.
    Mkcol { path: String },
    /// `PUT` — appends `body` as a new version written at `now`.
    Put {
        path: String,
        body: Bytes,
        now: SimTime,
    },
    /// `DELETE`.
    Delete { path: String },
    /// `COPY` (no overwrite).
    Copy {
        src: String,
        dst: String,
        now: SimTime,
    },
    /// `MOVE`.
    Rename {
        src: String,
        dst: String,
        now: SimTime,
    },
    /// `LOCK`. The lifetime and the instant are recorded, not the
    /// absolute expiry, and the token not at all: the lock table's
    /// deterministic counter regenerates it on replay.
    Lock {
        path: String,
        owner: String,
        scope: LockScope,
        depth: LockDepth,
        ttl: SimDuration,
        now: SimTime,
    },
    /// `UNLOCK`.
    Unlock {
        path: String,
        token: LockToken,
        now: SimTime,
    },
    /// `LOCK` refresh: the lock now lives `ttl` past `now`.
    Refresh {
        path: String,
        token: LockToken,
        ttl: SimDuration,
        now: SimTime,
    },
    /// Lifecycle compaction of one file's noncurrent versions: keep
    /// the `keep` newest, drop any written before `min_modified`.
    Prune {
        path: String,
        keep: u64,
        min_modified: SimTime,
    },
}

/// The service-level result of one [`AtticOp`].
#[derive(Clone, Debug, PartialEq)]
pub enum AtticOutcome {
    /// `Mkcol` / `Copy` / `Rename` result.
    Unit(Result<(), StoreError>),
    /// `Put` result (the new ETag).
    Put(Result<String, StoreError>),
    /// `Delete` result (nodes removed).
    Removed(Result<usize, StoreError>),
    /// `Lock` result (the token).
    Lock(Result<LockToken, LockError>),
    /// `Unlock` / `Refresh` result.
    LockUnit(Result<(), LockError>),
    /// `Prune` result (lifecycle compaction tally).
    Pruned(Result<PruneReport, StoreError>),
}

/// Everything a backend stores: object store + lock table.
#[derive(Clone, Debug, Default)]
pub struct AtticState {
    /// The versioned object store.
    pub store: ObjectStore,
    /// The WebDAV lock table.
    pub locks: LockManager,
}

impl AtticState {
    /// An empty store and lock table.
    pub fn new() -> AtticState {
        AtticState::default()
    }
}

impl Machine for AtticState {
    type Op = AtticOp;
    type Outcome = AtticOutcome;

    /// Runs `op` — the only place an op meets the store and lock
    /// table, whichever backend holds them and whether the call is
    /// live or a journal replay.
    fn run(&mut self, op: AtticOp) -> AtticOutcome {
        match op {
            AtticOp::Mkcol { path } => AtticOutcome::Unit(self.store.mkcol(&path)),
            AtticOp::Put { path, body, now } => AtticOutcome::Put(self.store.put(&path, body, now)),
            AtticOp::Delete { path } => AtticOutcome::Removed(self.store.delete(&path)),
            AtticOp::Copy { src, dst, now } => AtticOutcome::Unit(self.store.copy(&src, &dst, now)),
            AtticOp::Rename { src, dst, now } => {
                AtticOutcome::Unit(self.store.rename(&src, &dst, now))
            }
            AtticOp::Lock {
                path,
                owner,
                scope,
                depth,
                ttl,
                now,
            } => AtticOutcome::Lock(self.locks.lock(&path, &owner, scope, depth, ttl, now)),
            AtticOp::Unlock { path, token, now } => {
                AtticOutcome::LockUnit(self.locks.unlock(&path, token, now))
            }
            AtticOp::Refresh {
                path,
                token,
                ttl,
                now,
            } => AtticOutcome::LockUnit(self.locks.refresh(&path, token, ttl, now)),
            AtticOp::Prune {
                path,
                keep,
                min_modified,
            } => AtticOutcome::Pruned(self.store.prune_noncurrent(
                &path,
                usize::try_from(keep).unwrap_or(usize::MAX),
                min_modified,
            )),
        }
    }
}

/// Applies `$op` and unwraps the outcome variant that op always yields.
macro_rules! apply_for {
    ($backend:expr, $variant:ident, $op:expr) => {
        match $backend.apply($op)? {
            AtticOutcome::$variant(result) => Ok(result),
            other => unreachable!("op yields {}, got {other:?}", stringify!($variant)),
        }
    };
}

/// The driven port: the storage the protocol engine runs over.
///
/// A backend supplies two things — [`state`](AtticBackend::state) for
/// every read and [`apply`](AtticBackend::apply) for every write — and
/// inherits the typed verbs, which only build an [`AtticOp`] and unwrap
/// its [`AtticOutcome`]. Each verb returns a double `Result`: the outer
/// layer is the device (did the mutation land durably?), the inner one
/// the WebDAV service semantics (was it allowed?).
pub trait AtticBackend {
    /// The store and lock table as they stand (all reads).
    fn state(&self) -> &AtticState;

    /// Performs one mutation; `Ok` means it is as durable as this
    /// backend makes anything.
    ///
    /// # Errors
    ///
    /// A device fault: the op is not applied.
    fn apply(&mut self, op: AtticOp) -> Result<AtticOutcome, BackendFault>;

    /// Read-only view of the object store (GET/PROPFIND paths).
    fn store(&self) -> &ObjectStore {
        &self.state().store
    }

    /// The live lock matching `(path, token)` at `now`, as
    /// `(owner, expires_at)`.
    fn find_lock(&self, path: &str, token: LockToken, now: SimTime) -> Option<(String, SimTime)> {
        self.state().locks.find(path, token, now)
    }

    /// Write admissibility under the lock table. A read: expiry is
    /// evaluated against `now`, nothing is purged or journaled.
    ///
    /// # Errors
    ///
    /// [`LockError::Locked`] when an exclusive lock covers the path and
    /// the token doesn't match.
    fn check_write(
        &self,
        path: &str,
        token: Option<LockToken>,
        now: SimTime,
    ) -> Result<(), LockError> {
        self.state().locks.check_write(path, token, now)
    }

    /// `MKCOL`.
    ///
    /// # Errors
    ///
    /// Outer: device fault. Inner: store semantics.
    fn mkcol(&mut self, path: &str) -> Result<Result<(), StoreError>, BackendFault> {
        apply_for!(self, Unit, AtticOp::Mkcol { path: path.into() })
    }

    /// `PUT` — appends a version; inner `Ok` is the new ETag.
    ///
    /// # Errors
    ///
    /// Outer: device fault. Inner: store semantics.
    fn put(
        &mut self,
        path: &str,
        body: &[u8],
        now: SimTime,
    ) -> Result<Result<String, StoreError>, BackendFault> {
        let op = AtticOp::Put {
            path: path.into(),
            body: Bytes::copy_from_slice(body),
            now,
        };
        apply_for!(self, Put, op)
    }

    /// `DELETE` — inner `Ok` is nodes removed.
    ///
    /// # Errors
    ///
    /// Outer: device fault. Inner: store semantics.
    fn delete(&mut self, path: &str) -> Result<Result<usize, StoreError>, BackendFault> {
        apply_for!(self, Removed, AtticOp::Delete { path: path.into() })
    }

    /// `COPY` (no overwrite).
    ///
    /// # Errors
    ///
    /// Outer: device fault. Inner: store semantics.
    fn copy(
        &mut self,
        src: &str,
        dst: &str,
        now: SimTime,
    ) -> Result<Result<(), StoreError>, BackendFault> {
        let op = AtticOp::Copy {
            src: src.into(),
            dst: dst.into(),
            now,
        };
        apply_for!(self, Unit, op)
    }

    /// `MOVE`.
    ///
    /// # Errors
    ///
    /// Outer: device fault. Inner: store semantics.
    fn rename(
        &mut self,
        src: &str,
        dst: &str,
        now: SimTime,
    ) -> Result<Result<(), StoreError>, BackendFault> {
        let op = AtticOp::Rename {
            src: src.into(),
            dst: dst.into(),
            now,
        };
        apply_for!(self, Unit, op)
    }

    /// `LOCK` — inner `Ok` is the token. On a journaled backend it is
    /// regenerated identically on replay, so a token handed to a client
    /// before a crash still names the same lock after recovery.
    ///
    /// # Errors
    ///
    /// Outer: device fault. Inner: lock semantics.
    #[allow(clippy::too_many_arguments)]
    fn lock(
        &mut self,
        path: &str,
        owner: &str,
        scope: LockScope,
        depth: LockDepth,
        ttl: SimDuration,
        now: SimTime,
    ) -> Result<Result<LockToken, LockError>, BackendFault> {
        let op = AtticOp::Lock {
            path: path.into(),
            owner: owner.into(),
            scope,
            depth,
            ttl,
            now,
        };
        apply_for!(self, Lock, op)
    }

    /// `UNLOCK`.
    ///
    /// # Errors
    ///
    /// Outer: device fault. Inner: lock semantics.
    fn unlock(
        &mut self,
        path: &str,
        token: LockToken,
        now: SimTime,
    ) -> Result<Result<(), LockError>, BackendFault> {
        let op = AtticOp::Unlock {
            path: path.into(),
            token,
            now,
        };
        apply_for!(self, LockUnit, op)
    }

    /// `LOCK` refresh (extends the lifetime of a held lock).
    ///
    /// # Errors
    ///
    /// Outer: device fault. Inner: lock semantics.
    fn refresh(
        &mut self,
        path: &str,
        token: LockToken,
        ttl: SimDuration,
        now: SimTime,
    ) -> Result<Result<(), LockError>, BackendFault> {
        let op = AtticOp::Refresh {
            path: path.into(),
            token,
            ttl,
            now,
        };
        apply_for!(self, LockUnit, op)
    }

    /// Lifecycle compaction: drop noncurrent versions beyond the `keep`
    /// newest or written before `min_modified`. The current version is
    /// never part of the op, by construction.
    ///
    /// # Errors
    ///
    /// Outer: device fault. Inner: store semantics.
    fn prune(
        &mut self,
        path: &str,
        keep: usize,
        min_modified: SimTime,
    ) -> Result<Result<PruneReport, StoreError>, BackendFault> {
        let op = AtticOp::Prune {
            path: path.into(),
            keep: keep as u64,
            min_modified,
        };
        apply_for!(self, Pruned, op)
    }
}

/// The in-memory backend: the netsim adapter's storage. Fast,
/// deterministic, forgets everything on drop — exactly what
/// experiments want. It *is* the [`AtticState`] the journaled backend
/// replays into, with no journal in front.
pub type VolatileBackend = AtticState;

impl AtticBackend for AtticState {
    fn state(&self) -> &AtticState {
        self
    }

    fn apply(&mut self, op: AtticOp) -> Result<AtticOutcome, BackendFault> {
        Ok(self.run(op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurableAttic;
    use hpop_durability::DurabilityConfig;
    use hpop_netsim::storage::SimDisk;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The same op sequence through both backends lands in the same
    /// observable state — the ports contract the adapters rely on.
    #[test]
    fn volatile_and_durable_backends_agree() {
        let mut vol = VolatileBackend::new();
        let mut dur = DurableAttic::open(SimDisk::new(7), "attic", DurabilityConfig::default())
            .expect("open");

        fn drive<B: AtticBackend>(b: &mut B) -> (String, LockToken) {
            b.mkcol("/d").unwrap().unwrap();
            b.put("/d/f", b"v1", t(1)).unwrap().unwrap();
            let etag = b.put("/d/f", b"v2", t(2)).unwrap().unwrap();
            let token = b
                .lock(
                    "/d/f",
                    "app",
                    LockScope::Exclusive,
                    LockDepth::Zero,
                    SimDuration::from_secs(60),
                    t(3),
                )
                .unwrap()
                .unwrap();
            assert!(b.check_write("/d/f", None, t(4)).is_err());
            assert!(b.check_write("/d/f", Some(token), t(4)).is_ok());
            let prune = b.prune("/d/f", 0, SimTime::ZERO).unwrap().unwrap();
            assert_eq!(prune.removed_versions, 1);
            (etag, token)
        }

        let (ev, tv) = drive(&mut vol);
        let (ed, td) = drive(&mut dur);
        assert_eq!(ev, ed, "etags agree across backends");
        assert_eq!(tv, td, "deterministic tokens agree");
        assert_eq!(
            vol.store().get("/d/f").unwrap().etag,
            dur.store().get("/d/f").unwrap().etag
        );
        assert_eq!(vol.store().history("/d/f").unwrap().len(), 1);
        assert_eq!(dur.store().history("/d/f").unwrap().len(), 1);
        assert_eq!(
            vol.find_lock("/d/f", tv, t(5)).unwrap(),
            dur.find_lock("/d/f", td, t(5)).unwrap()
        );
    }
}

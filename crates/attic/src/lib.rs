//! # hpop-attic — the Data Attic (paper §IV-A)
//!
//! "Our approach calls for these applications to act on data stored in a
//! 'data attic' in each user's home network instead of on a copy of the
//! data that resides in the cloud. The data attic provides an
//! application-agnostic interface to user data that external applications
//! and services can access, but would not store or maintain the data."
//!
//! The paper's prototype is a WebDAV server; this crate reproduces it and
//! everything around it:
//!
//! - [`store`] — the versioned object store (single source of truth for
//!   a file, with version history and ETags).
//! - [`lock`] — WebDAV locking ("WebDAV further mediates access from
//!   multiple clients through file locking").
//! - [`webdav`] — the WebDAV-semantics HTTP engine tying the store,
//!   locks and capability grants together.
//! - [`grant`] — the QR-code provider bootstrap: a self-contained
//!   payload with endpoint, scoped credential and attic path.
//! - [`driver`] — the `open`/`close` wrapper driver the paper builds
//!   with the linker's `--wrap` option: fetch on open, operate locally,
//!   push back on close.
//! - [`sync`] — offline-mode reconciliation when a disconnected replica
//!   reconnects.
//! - [`durable`] — crash consistency: the store and lock table behind a
//!   write-ahead log, so an attic restart recovers every acknowledged
//!   write and every live lock (with its original expiry).
//! - [`backup`] — encrypted peer backup with full replication or
//!   Reed–Solomon erasure coding ("Data Availability").
//! - [`health`] — the health-records exemplar: providers dual-write to
//!   their own records and the patient's attic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod equivalence;
#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;

pub mod backup;
pub mod cloudenc;
pub mod conformance;
pub mod daemon;
pub mod dav;
pub mod driver;
pub mod durable;
pub mod grant;
pub mod health;
pub mod lifecycle;
pub mod lock;
pub mod personal;
pub mod ports;
pub mod store;
pub mod sync;
pub mod webdav;

pub use backup::{BackupPlan, BackupSet};
pub use cloudenc::EncryptedCloudStore;
pub use conformance::{run_suite, ConformanceOutcome, DavTransport, SimTransport, TcpTransport};
pub use daemon::{AtticDaemon, DaemonConfig, DaemonHandle, DaemonStats};
pub use dav::{MultiStatus, PropValue, PropfindBody};
pub use driver::FileDriver;
pub use durable::DurableAttic;
pub use grant::AccessGrant;
pub use lifecycle::{LifecycleEngine, LifecyclePolicy, LifecycleReport, LifecycleRule};
pub use lock::{LockError, LockManager, LockToken};
pub use personal::{Calendar, CalendarEvent, Contact, ContactsBook};
pub use ports::{
    AtticBackend, AtticOp, AtticOutcome, AtticState, BackendFault, Origin, VolatileBackend,
};
pub use store::{ObjectStore, PruneReport, StoreError, Stored};
pub use sync::{OfflineReplica, ReconcileOutcome};
pub use webdav::DavCore;

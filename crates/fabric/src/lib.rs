//! # hpop-fabric — gossip membership for the neighborhood of appliances
//!
//! Every HPoP service leans on *other people's home appliances*: the
//! Data Attic spreads erasure-coded shards over friends' attics (§IV-A),
//! NoCDN recruits well-connected users as edge servers (§IV-B), the
//! Detour Collective relays subflows through cooperative waypoints
//! (§IV-C), and the neighborhood cache shares one copy of each object
//! across homes (§IV-D). Home appliances are not data-center machines:
//! they reboot, lose power, move away. Peer-assisted delivery lives or
//! dies on membership quality, so this crate is the shared substrate
//! that tracks *who is out there, who is alive, and who can be trusted*:
//!
//! - [`member`] — per-peer records ([`PeerRecord`]) with SWIM-style
//!   states (alive / suspect / dead / left), incarnation numbers, and
//!   capacity/uptime advertisements ([`Advertisement`]).
//! - [`reputation`] — the violation ledger ([`ReputationLedger`]):
//!   integrity/accounting/misrouting violations reported by services
//!   feed peer ranking through [`PeerView`].
//! - [`gossip`] — [`Fabric`]: a deterministic simulation of the whole
//!   gossip layer, driven by the netsim clock and a churn schedule.
//!   Each appliance is a node machine (SWIM-style delta dissemination,
//!   digest anti-entropy, suspicion of a probe target that never
//!   answers) that acts only on the messages it receives; `Fabric` is
//!   the sync driver that carries them, dropping only those addressed
//!   to a down appliance, and scores the detector against ground truth.
//! - [`wire`] — exact serialized layouts of ping/ack, digest and
//!   record messages, so byte accounting reflects a real format.
//! - [`view`] — [`PeerView`]: the query API every service selects peers
//!   through — alive peers filtered and ranked by capacity, locality
//!   and reputation.
//! - [`persist`] — crash-consistent fabric state:
//!   [`IncarnationStore`] write-through persistence of self-incarnation
//!   numbers (so a crashed appliance rejoins *above* every stale death
//!   certificate instead of waiting out a rejoin window) and
//!   [`DurableReputation`] (violation evidence that survives provider
//!   restarts).
//!
//! Instrumented through `hpop-obs`: detection-latency histogram
//! (`fabric.detect.latency_ms`), false-positive counter
//! (`fabric.detect.false_positive`), gossip bytes split by kind
//! (`fabric.gossip.bytes`, `fabric.gossip.delta_bytes`,
//! `fabric.gossip.digest_bytes`), digest-sync count
//! (`fabric.gossip.digest_syncs`) and the piggyback-queue depth
//! histogram (`fabric.gossip.piggyback.depth`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod by_id;
pub mod gossip;
pub mod member;
mod node;
pub mod persist;
pub mod reputation;
pub mod view;
pub mod wire;

#[cfg(test)]
mod proptests;

pub use gossip::{Fabric, FabricConfig, FabricStats};
pub use member::{Advertisement, PeerId, PeerRecord, PeerState};
pub use persist::{DurableReputation, IncarnationStore};
pub use reputation::{ReputationLedger, Violation};
pub use view::{PeerEntry, PeerView, RankBy};

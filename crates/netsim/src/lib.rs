//! # hpop-netsim — deterministic flow-level network simulator
//!
//! The substrate underneath every HPoP experiment. The paper's testbed was
//! the Case Connection Zone (CCZ): ~100 homes with bi-directional 1 Gbps
//! fiber, aggregated onto a shared 10 Gbps uplink. We reproduce that (and
//! any other) topology in a deterministic discrete-event simulator so every
//! figure regenerates bit-identically from a seed.
//!
//! The simulator is *flow-level*: links divide capacity among the flows
//! crossing them by progressive filling (max-min fairness), optionally
//! limited by per-flow rate caps (used by `hpop-transport`'s TCP model to
//! impose congestion-window ceilings). Packet-level detail (per-packet
//! encapsulation overhead, loss probabilities) is modeled analytically
//! where an experiment needs it.
//!
//! ## Architecture
//!
//! - [`time`] — simulated clock ([`SimTime`]) with nanosecond resolution.
//! - [`units`] — typed [`Bandwidth`] and byte-size helpers.
//! - [`topology`] — nodes and full-duplex links with capacity, propagation
//!   delay and loss.
//! - [`routing`] — shortest-path (latency-weighted Dijkstra) routing and
//!   path metrics.
//! - [`fairshare`] — max-min fair bandwidth allocation with rate caps.
//! - [`flow`] — the active-flow set and its progress bookkeeping.
//! - [`calendar`] — the calendar queue [`NetSim`] keeps its scheduled
//!   closures in.
//! - [`netsim`] — [`NetSim`]: the one event loop. It owns the clock, the
//!   queue of closures and the flow network; the next flow completion is
//!   one slot beside the queue, and finished flows' handlers run with
//!   full access to the simulation.
//! - [`presets`] — canonical topologies from the paper (CCZ, dumbbell,
//!   detour triangles).
//! - [`faults`] — [`FaultPlan`], the one seeded adversity plan: per-node
//!   down, slow, corrupt, loss, delay and blackhole windows plus
//!   partition cuts, on one clock.
//! - [`churn`] — the plan's second generator: seeded on/off renewal
//!   processes per node, written as down windows, which the fabric
//!   layer runs against.
//! - [`attacks`] — seeded adversarial campaigns (Sybil swarms,
//!   accounting collusion, record laundering, adaptive throttling):
//!   static roles rather than time windows, composable with a
//!   [`FaultPlan`] over the same population.
//! - [`storage`] — [`SimDisk`]: a deterministic block device with
//!   crash-point injection, torn sector writes and bit-rot, the
//!   substrate of the `hpop-durability` crash-recovery layer.
//!
//! ## Example
//!
//! ```
//! use hpop_netsim::prelude::*;
//!
//! // Two homes connected by a 1 Gbps link; one 100 MB transfer between them.
//! let mut b = TopologyBuilder::new();
//! let a = b.add_node("home-a");
//! let c = b.add_node("home-b");
//! b.add_link(a, c, Bandwidth::gbps(1.0), SimDuration::from_millis(1));
//! let mut sim = NetSim::with_topology(b.build());
//! sim.start_transfer(a, c, 100 * MB, |_, info| {
//!     assert!(info.completed_at > SimTime::ZERO);
//! });
//! sim.run();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod proptests;

pub mod attacks;
pub mod calendar;
pub mod churn;
pub mod fairshare;
pub mod faults;
pub mod flow;
pub mod netsim;
pub mod presets;
pub mod routing;
pub mod storage;
pub mod time;
pub mod topology;
pub mod units;

pub use churn::{ChurnConfig, ChurnEvent};
pub use faults::{FaultConfig, FaultPlan, PeerMode};
pub use flow::{AllocStats, CompletedInfo, FlowId, FlowNet};
pub use netsim::{NetSim, TransferInfo};
pub use routing::{Path, RoutingTable};
pub use storage::{DiskError, DiskStats, SimDisk, StorageFaults, SECTOR_BYTES};
pub use time::{SimDuration, SimTime};
pub use topology::{LinkId, NodeId, Topology, TopologyBuilder};
pub use units::{Bandwidth, GB, KB, MB};

/// Convenient glob import for simulator users.
pub mod prelude {
    pub use crate::churn::{ChurnConfig, ChurnEvent};
    pub use crate::faults::FaultPlan;
    pub use crate::flow::{AllocStats, FlowId, FlowNet};
    pub use crate::netsim::{NetSim, TransferInfo};
    pub use crate::routing::{Path, RoutingTable};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{LinkId, NodeId, Topology, TopologyBuilder};
    pub use crate::units::{Bandwidth, GB, KB, MB};
}

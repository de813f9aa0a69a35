//! # hpop-transport — TCP and Multipath TCP models
//!
//! The Detour Collective (§IV-C) "leverages multipath TCP (MPTCP) to
//! make detours transparent to applications": the client opens extra
//! subflows through cooperative waypoints, the server believes they are
//! ordinary interfaces of the same host, and the client steers the
//! server's RTT-based scheduler by delaying subflow-level ACKs. The §IV-D
//! ramp-up arithmetic (1 Gbps × 50 ms ⇒ ~10 RTTs / 14 MB before full
//! utilization) is a TCP slow-start property. This crate models both:
//!
//! - [`tcp`] — configuration and *analytic* TCP math: slow-start ramp-up,
//!   whole-transfer duration, and the Mathis steady-state throughput
//!   bound under loss.
//! - [`rtt`] — the smoothed-RTT estimator the MPTCP scheduler consults.
//! - [`mptcp`] — the one event-driven window model: a connection of one
//!   or more subflows over the [`hpop_netsim`] flow network, each with
//!   its own congestion window (slow start; a sampled loss halves it,
//!   then it grows linearly) expressed as a per-window rate cap; minRTT / round-robin
//!   schedulers, client-side ACK-delay steering and per-packet tunnel
//!   overhead (the §IV-C VPN-vs-NAT tradeoff).
//! - [`conn`] — a single-path TCP transfer, which is an MPTCP connection
//!   with one subflow along the native route (RFC 8684 defines a subflow
//!   as an ordinary TCP flow).
//!
//! ## Model fidelity
//!
//! The transfer model is *window-grained*: each congestion window is one
//! simulator flow whose rate cap is `cwnd / rtt_effective`, so a full
//! window takes one RTT when uncontended (self-clocking) and stretches
//! under contention exactly as the fair-share allocator dictates. Loss is
//! sampled per window from the path loss probability. This reproduces
//! ramp-up, congestion response, RTT-biased scheduling and bandwidth
//! aggregation — the behaviours the paper's claims rest on — without
//! per-packet simulation.
//!
//! Known non-goals of the model: contending flows share max-min fairly
//! regardless of RTT (real TCP's RTT unfairness is not reproduced), and
//! there are no router queues, so bufferbloat and loss-synchronization
//! effects do not arise. None of the paper's claims depend on either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod proptests;

pub mod conn;
pub mod mptcp;
pub mod rtt;
pub mod tcp;

pub use conn::TcpTransfer;
pub use mptcp::{MptcpStats, MptcpTransfer, Scheduler, SubflowSpec};
pub use rtt::SrttEstimator;
pub use tcp::{mathis_throughput, slow_start_rampup, transfer_duration, RampUp, TcpConfig};

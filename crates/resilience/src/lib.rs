//! # hpop-resilience — one failure policy for the HPoP services
//!
//! The paper's services all run on *other people's home appliances*:
//! erasure-coded backup peers (§IV-A), untrusted NoCDN edges (§IV-B),
//! detour waypoints (§IV-C) and neighborhood caches (§IV-D). Peers are
//! slow, partitioned, corrupt, or gone. This crate is the shared
//! vocabulary for answering that; the NoCDN fetcher, the coop cache and
//! the attic daemon speak it (DESIGN.md §8 lists which policy guards
//! which path):
//!
//! - [`deadline`] — [`Deadline`]: an absolute time budget that
//!   propagates through nested calls, which share it instead of
//!   inventing their own timeouts.
//! - [`retry`] — [`Backoff`]: the pure step a caller asks after each
//!   failed attempt, answering with the pause to sleep (exponential,
//!   with deterministic jitter keyed per operation, replayable) or why
//!   to give up — a retry is never scheduled past the deadline.
//! - [`breaker`] — [`CircuitBreaker`] / [`BreakerBank`]: per-peer
//!   closed → open → half-open gating after a run of failures.
//! - [`hedge`] — [`Hedge`]: launch a second fetch against another peer
//!   when the first has been outstanding longer than the observed p99;
//!   bounds tail latency at a measured duplicate-byte cost — and
//!   stands down when the caller's measured saturation reaches the
//!   gate, so hedges can't amplify a flash crowd.
//!
//! The overload-control layer (this crate's second half) turns
//! saturation into *graceful degradation* instead of collapse:
//!
//! - [`admission`] — [`Admission`] / [`AdmissionBank`]: token-bucket
//!   rate limiting + an AIMD concurrency limit per peer/service;
//!   saturated services refuse with a typed [`Overloaded`]
//!   `{retry_after}` instead of queueing forever.
//! - [`queue`] — [`BoundedQueue`]: bounded work queues whose fill
//!   fraction feeds the admission saturation signal (backpressure).
//! - [`shed`] — [`LoadShedder`] / [`WorkClass`]: priority shedding
//!   with compile-time-checked monotone thresholds — background
//!   repair/prefetch/anti-entropy always sheds before interactive.
//! - [`brownout`] — [`Brownout`]: the degradation ladder full →
//!   stale-allowed → redirect-to-origin → reject, driven by measured
//!   saturation with hysteresis and dwell so it cannot flap.
//!
//! Everything runs on the simulated clock ([`SimTime`]) and is
//! instrumented through `hpop-obs` (`resilience.retry.*`,
//! `resilience.breaker.*`, `resilience.hedge.*`,
//! `resilience.admission.*`, `resilience.shed.*`,
//! `resilience.brownout.*`), so experiments E20 and E26 can meter
//! exactly how much work each policy performs, refuses, and wastes.
//!
//! [`SimTime`]: hpop_netsim::time::SimTime

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod brownout;
pub mod deadline;
pub mod hedge;
pub mod queue;
pub mod retry;
pub mod shed;

#[cfg(test)]
mod proptests;

pub use admission::{
    Admission, AdmissionBank, AdmissionConfig, AimdLimit, Overloaded, TokenBucket,
};
pub use breaker::{BreakerBank, BreakerConfig, BreakerState, CircuitBreaker};
pub use brownout::{Brownout, BrownoutLevel};
pub use deadline::Deadline;
pub use hedge::{Hedge, HedgeConfig};
pub use queue::BoundedQueue;
pub use retry::{Backoff, RetryError};
pub use shed::{LoadShedder, WorkClass};

//! # hpop-nocdn — CDN-less content delivery (paper §IV-B)
//!
//! "Ultrabroadband affords the opportunity for an alternative approach to
//! achieving scalable content delivery whereby content providers recruit
//! well-connected users to allow their HPoPs to be effectively used as
//! 'edge servers' in an ad hoc CDN … we eliminate the third-party CDN
//! altogether. We highlight this distinction by calling our approach
//! NoCDN."
//!
//! Because peers are *untrusted* (unlike a CDN's own servers), the design
//! has no loose handoffs: the provider serves a signed **wrapper page**
//! and everything else is orchestrated by the client-side **loader**
//! (standard JavaScript in the paper; a deterministic state machine
//! here), which verifies every object hash and signs usage records with
//! provider-issued short-term keys.
//!
//! - [`origin`] — the content provider's origin server and page catalog.
//! - [`body`] — a page or object as the shared pieces it arrived in:
//!   bodies are never copied into one buffer on their way through.
//! - [`peer`] — recruited HPoP peers: reverse proxies with virtual
//!   hosting, caches, and (for experiments) malicious behaviors.
//! - [`wrapper`] — wrapper-page generation: peer map, per-object
//!   SHA-256 hashes, short-term keys.
//! - [`loader`] — the client loader: fetch, verify, fall back to origin
//!   on corruption, assemble, sign usage records. Object checks and
//!   puzzle proofs run on every core (`par.rs`, a fan-out whose results
//!   merge in input order), and so do a page's first digests.
//! - [`accounting`] — provider-side verification of usage records:
//!   HMAC checks, nonce replay, work cross-checks, collusion/anomaly
//!   detection.
//! - [`durable`] — crash-consistent accounting: issuances and the
//!   nonce replay registry behind a write-ahead log, so a provider
//!   restart cannot be exploited for double settlement.
//! - [`puzzle`] — the provider-side accountability-puzzle policy
//!   (CAPnet-style): per-epoch seeds and challenge binding, so a usage
//!   record is payable only with a verified data-dependent proof of
//!   serving.
//! - [`attack`] — adversarial accounting campaigns (Sybil swarms,
//!   collusion at scale, record laundering, adaptive throttling) and
//!   the executor that measures attacker profit with the defense on
//!   and off (experiment E25).
//! - [`select`] — peer-selection policies (random / round-robin /
//!   proximity / trust-weighted) — the ablation §IV-B calls an open
//!   problem.
//! - [`chunked`] — multi-peer range-request downloads ("Leveraging
//!   Redundancy") through the resilient client
//!   ([`chunked::ResilientFetcher`]): breaker-gated peer selection,
//!   budgeted retries, p99-informed hedging and origin fallback. One
//!   download is a machine, `ChunkFetch` (`fetch.rs`), that acts only on
//!   the transfer results and time it is handed; `ResilientFetcher::fetch`
//!   is its sync driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod proptests;

pub mod accounting;
pub mod attack;
pub mod body;
pub mod chunked;
pub mod durable;
mod fetch;
pub mod loader;
pub mod origin;
mod par;
pub mod peer;
pub mod puzzle;
pub mod select;
pub mod wrapper;

pub use accounting::{Accounting, UsageRecord};
pub use body::Body;
pub use chunked::{ChunkedReport, ResilientFetcher};
pub use durable::DurableAccounting;
pub use loader::{LoaderReport, PageLoader};
pub use origin::{ContentProvider, PageSpec};
pub use peer::{NoCdnPeer, PeerBehavior, PeerId};
pub use puzzle::PuzzleSpec;
pub use select::SelectionPolicy;
pub use wrapper::WrapperPage;

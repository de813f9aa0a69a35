//! # hpop-http — HTTP/1.1 and WebDAV message model
//!
//! The paper builds every service on HTTP: the data attic "chose HTTP(S)
//! as the basis … and implements a data attic as a WebDAV server"
//! (§IV-A); NoCDN peers are reverse proxies with virtual hosting and
//! clients may fetch "objects in chunks (e.g., using HTTP range
//! requests)" (§IV-B); Internet@home lives on cache-control semantics
//! (§IV-D). This crate is that shared substrate:
//!
//! - [`url`] — a minimal URL type (scheme/host/path).
//! - [`message`] — methods (including the WebDAV verbs), status codes,
//!   case-insensitive headers, request/response builders.
//! - [`range`] — byte-range requests and `206 Partial Content`.
//! - [`cache`] — freshness (max-age/TTL), validators (ETag), conditional
//!   revalidation (`304 Not Modified`), and an LRU object cache driven by
//!   simulated time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod proptests;

pub mod cache;
pub mod h1;
pub mod message;
pub mod range;
pub mod url;

pub use cache::{CacheDecision, CacheEntry, FreshnessPolicy, HttpCache};
pub use message::{Headers, Method, Request, Response, StatusCode};
pub use range::ByteRange;
pub use url::Url;

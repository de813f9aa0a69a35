//! # hpop-core — the Home Point of Presence appliance platform
//!
//! §III: the HPoP is "an extensible and configurable platform that can
//! also run myriad mundane services for the user and the household",
//! "operational as long as there is power and online as long as there is
//! Internet connectivity". This crate is that platform: what the paper
//! services share about the household they serve.
//!
//! - [`clock`] — the appliance's manually advanced clock, so the same
//!   appliance code runs inside the deterministic simulator.
//! - [`identity`] — households, users and devices.
//! - [`events`] — a synchronous topic bus connecting services (e.g. the
//!   attic notifies Internet@home when new data suggests new content to
//!   gather, §IV-D "Leveraging the Data Attic").
//! - [`vault`] — the encrypted credential vault that lets the HPoP
//!   collect deep-web content on the user's behalf (§IV-D: "the HPoP
//!   will hold user credentials").
//! - [`auth`] — HMAC-signed capability tokens scoping external access
//!   (the mechanism behind the attic's provider grants).
//! - [`appliance`] — the assembled [`Appliance`] and its uptime (the
//!   "always-on" property §II leans on).
//!
//! ```
//! use hpop_core::{Appliance, HouseholdConfig};
//!
//! let mut hpop = Appliance::new(HouseholdConfig::named("doe-family"));
//! hpop.power_on();
//! assert!(hpop.is_online());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appliance;
pub mod auth;
pub mod clock;
pub mod events;
pub mod identity;
pub mod vault;

pub use appliance::{Appliance, HouseholdConfig};
pub use auth::{CapabilityToken, Permission, TokenVerifier};
pub use clock::ManualClock;
pub use events::{Event, EventBus};
pub use identity::{Device, DeviceId, Household, User, UserId};
pub use vault::{CredentialVault, SiteCredential};

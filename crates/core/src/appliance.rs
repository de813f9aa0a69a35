//! The assembled HPoP appliance.
//!
//! §II: "we assume it is operational as long as there is power and online
//! as long as there is Internet connectivity, regardless of which if any
//! end-user devices are connected." [`Appliance`] bundles the household,
//! the event bus, the credential vault, the capability-token issuer and
//! the reachability planner into the single box the paper envisions
//! ("built into the home's access router … or co-locate with another
//! resident device").

use crate::auth::TokenVerifier;
use crate::clock::ManualClock;
use crate::events::EventBus;
use crate::identity::Household;
use crate::vault::CredentialVault;
use hpop_crypto::sha256::Sha256;
use hpop_nat::behavior::NatProfile;
use hpop_nat::traversal::{plan_reachability, ReachabilityPlan};
use hpop_netsim::time::{SimDuration, SimTime};

/// Static configuration an appliance is provisioned with.
#[derive(Clone, Debug)]
pub struct HouseholdConfig {
    /// Household display name (also seeds the appliance key).
    pub name: String,
    /// NAT devices between the home and the public Internet, innermost
    /// first (empty = public address).
    pub nat_chain: Vec<NatProfile>,
}

impl HouseholdConfig {
    /// A config with the given name and a typical home NAT.
    pub fn named(name: impl Into<String>) -> HouseholdConfig {
        HouseholdConfig {
            name: name.into(),
            nat_chain: vec![NatProfile::port_restricted_cone()],
        }
    }

    /// Builder-style NAT chain override.
    pub fn with_nat_chain(mut self, chain: Vec<NatProfile>) -> HouseholdConfig {
        self.nat_chain = chain;
        self
    }
}

/// A Home Point of Presence.
#[derive(Debug)]
pub struct Appliance {
    config: HouseholdConfig,
    household: Household,
    clock: ManualClock,
    bus: EventBus,
    vault: CredentialVault,
    verifier: TokenVerifier,
    powered_on_at: Option<SimTime>,
    total_uptime: SimDuration,
    reachability: Option<ReachabilityPlan>,
}

impl Appliance {
    /// Provisions an appliance (powered off) for a household.
    pub fn new(config: HouseholdConfig) -> Appliance {
        let key = *Sha256::digest(format!("hpop-appliance:{}", config.name).as_bytes()).as_bytes();
        Appliance {
            household: Household::new(config.name.clone()),
            clock: ManualClock::new(),
            bus: EventBus::new(),
            vault: CredentialVault::new(key),
            verifier: TokenVerifier::new(key),
            powered_on_at: None,
            total_uptime: SimDuration::ZERO,
            reachability: None,
            config,
        }
    }

    /// Powers the appliance on: plans reachability and begins
    /// accumulating uptime. Idempotent.
    pub fn power_on(&mut self) {
        if self.powered_on_at.is_some() {
            return;
        }
        self.powered_on_at = Some(self.clock.now());
        self.reachability = Some(plan_reachability(&self.config.nat_chain));
    }

    /// Powers the appliance off, freezing uptime.
    pub fn power_off(&mut self) {
        if let Some(t0) = self.powered_on_at.take() {
            self.total_uptime += self.clock.now().saturating_since(t0);
            self.reachability = None;
        }
    }

    /// Whether the appliance is powered and reachable (§II's "online as
    /// long as there is Internet connectivity").
    pub fn is_online(&self) -> bool {
        self.powered_on_at.is_some() && self.reachability.is_some()
    }

    /// How the HPoP is reached from outside, when online.
    pub fn reachability(&self) -> Option<ReachabilityPlan> {
        self.reachability
    }

    /// Total accumulated uptime.
    pub fn uptime(&self) -> SimDuration {
        let mut up = self.total_uptime;
        if let Some(t0) = self.powered_on_at {
            up += self.clock.now().saturating_since(t0);
        }
        up
    }

    /// The appliance clock (share it with the simulator driving time).
    pub fn clock(&self) -> ManualClock {
        self.clock.clone()
    }

    /// The household this appliance serves.
    pub fn household(&self) -> &Household {
        &self.household
    }

    /// Mutable household access (enroll users/devices).
    pub fn household_mut(&mut self) -> &mut Household {
        &mut self.household
    }

    /// The inter-service event bus (cheap to clone).
    pub fn bus(&self) -> EventBus {
        self.bus.clone()
    }

    /// The credential vault.
    pub fn vault_mut(&mut self) -> &mut CredentialVault {
        &mut self.vault
    }

    /// The capability-token issuer/verifier bound to the appliance key.
    pub fn tokens(&self) -> &TokenVerifier {
        &self.verifier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_nat::traversal::Traversal;

    #[test]
    fn power_cycle_and_uptime() {
        let mut a = Appliance::new(HouseholdConfig::named("doe"));
        assert!(!a.is_online());
        a.power_on();
        assert!(a.is_online());
        a.clock().advance(SimDuration::from_secs(3600));
        assert_eq!(a.uptime(), SimDuration::from_secs(3600));
        a.power_off();
        a.clock().advance(SimDuration::from_secs(100));
        assert_eq!(a.uptime(), SimDuration::from_secs(3600));
        a.power_on();
        a.clock().advance(SimDuration::from_secs(50));
        assert_eq!(a.uptime(), SimDuration::from_secs(3650));
    }

    #[test]
    fn reachability_follows_nat_chain() {
        let mut a = Appliance::new(HouseholdConfig::named("doe"));
        a.power_on();
        assert_eq!(a.reachability().unwrap().method, Traversal::UpnpPortMap);
        let mut b = Appliance::new(HouseholdConfig::named("cgn-home").with_nat_chain(vec![
            NatProfile::port_restricted_cone(),
            NatProfile::carrier_grade(),
        ]));
        b.power_on();
        assert_eq!(b.reachability().unwrap().method, Traversal::StunHolePunch);
    }

    #[test]
    fn tokens_bound_to_appliance_identity() {
        use crate::auth::Permission;
        let a = Appliance::new(HouseholdConfig::named("doe"));
        let other = Appliance::new(HouseholdConfig::named("smith"));
        let t = a.tokens().issue(
            "clinic",
            "/health",
            Permission::Read,
            SimTime::from_secs(10),
        );
        assert!(a.tokens().verify(&t, SimTime::ZERO));
        assert!(!other.tokens().verify(&t, SimTime::ZERO));
    }

    #[test]
    fn idempotent_power_on() {
        let mut a = Appliance::new(HouseholdConfig::named("doe"));
        a.power_on();
        a.clock().advance(SimDuration::from_secs(10));
        a.power_on(); // must not reset the uptime origin
        assert_eq!(a.uptime(), SimDuration::from_secs(10));
    }
}

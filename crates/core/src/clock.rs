//! The appliance clock.
//!
//! Appliance code asks a [`ManualClock`] for the current instant instead
//! of the OS, so the same logic runs under the deterministic simulator,
//! which advances it.

use hpop_netsim::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A clock advanced explicitly by its owner (the simulator or a test).
///
/// Cheap to clone; clones share the same underlying time.
#[derive(Clone, Debug, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `t`.
    pub fn starting_at(t: SimTime) -> Self {
        let c = Self::new();
        c.set(t);
        c
    }

    /// Sets the time (monotonicity is the caller's responsibility; the
    /// simulator guarantees it).
    pub fn set(&self, t: SimTime) {
        self.nanos.store(t.as_nanos(), Ordering::SeqCst);
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: SimDuration) {
        self.nanos.fetch_add(d.as_nanos(), Ordering::SeqCst);
    }

    /// The current time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimDuration::from_secs(5));
        assert_eq!(c.now(), SimTime::from_secs(5));
        c.set(SimTime::from_secs(100));
        assert_eq!(c.now(), SimTime::from_secs(100));
    }

    #[test]
    fn clones_share_time() {
        let a = ManualClock::starting_at(SimTime::from_secs(1));
        let b = a.clone();
        a.advance(SimDuration::from_secs(1));
        assert_eq!(b.now(), SimTime::from_secs(2));
    }
}

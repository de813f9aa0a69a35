//! Propagating time budgets.
//!
//! A [`Deadline`] is an *absolute* instant on the simulation clock by
//! which an operation must finish. Nested calls receive the same
//! deadline, so a slow first hop automatically shrinks what every later
//! hop may spend — the whole call tree shares one budget instead of
//! stacking per-layer timeouts that can add up to more time than the
//! user was promised.

use hpop_netsim::time::{SimDuration, SimTime};

/// An absolute completion budget on the simulation clock.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Deadline {
    expires_at: SimTime,
}

impl Deadline {
    /// A deadline `budget` from `now`.
    pub fn after(now: SimTime, budget: SimDuration) -> Deadline {
        Deadline {
            expires_at: SimTime::from_nanos(now.as_nanos().saturating_add(budget.as_nanos())),
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(expires_at: SimTime) -> Deadline {
        Deadline { expires_at }
    }

    /// The never-expiring deadline (for paths without a budget).
    pub const UNBOUNDED: Deadline = Deadline {
        expires_at: SimTime::MAX,
    };

    /// The absolute expiry instant.
    pub fn expires_at(&self) -> SimTime {
        self.expires_at
    }

    /// Whether the budget is spent at `now`.
    pub fn expired(&self, now: SimTime) -> bool {
        now >= self.expires_at
    }

    /// Budget left at `now` (zero once expired).
    pub fn remaining(&self, now: SimTime) -> SimDuration {
        self.expires_at.saturating_since(now)
    }

    /// Whether a pause of `wait` starting at `now` would cross the
    /// deadline (the retry layer asks this before sleeping).
    pub fn allows_wait(&self, now: SimTime, wait: SimDuration) -> bool {
        SimTime::from_nanos(now.as_nanos().saturating_add(wait.as_nanos())) < self.expires_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn expiry_and_remaining() {
        let dl = Deadline::after(t(10), d(5));
        assert!(!dl.expired(t(14)));
        assert!(dl.expired(t(15)));
        assert_eq!(dl.remaining(t(12)), d(3));
        assert_eq!(dl.remaining(t(20)), SimDuration::ZERO);
    }

    #[test]
    fn unbounded_never_expires() {
        assert!(!Deadline::UNBOUNDED.expired(SimTime::from_secs(u64::MAX / 2_000_000_000)));
        assert!(Deadline::UNBOUNDED.allows_wait(t(0), SimDuration::from_secs(1_000_000)));
    }

    #[test]
    fn allows_wait_checks_the_sum() {
        let dl = Deadline::after(t(0), d(10));
        assert!(dl.allows_wait(t(4), d(5)));
        assert!(!dl.allows_wait(t(4), d(6))); // lands exactly on expiry
        assert!(!dl.allows_wait(t(11), SimDuration::ZERO));
    }

    #[test]
    fn saturating_construction() {
        let dl = Deadline::after(SimTime::from_nanos(u64::MAX - 5), SimDuration::from_secs(1));
        assert_eq!(dl.expires_at(), SimTime::MAX);
    }
}

//! The brownout ladder: degrade service quality stepwise, not all at
//! once.
//!
//! Between "everything is fine" and "reject with [`Overloaded`]" there
//! are useful intermediate postures a saturated cache can take, each
//! trading a little quality for a lot of capacity:
//!
//! 1. [`Full`](BrownoutLevel::Full) — normal service.
//! 2. [`StaleAllowed`](BrownoutLevel::StaleAllowed) — serve stale
//!    cached copies instead of revalidating / lateral-fetching; the
//!    coop cache's `FetchTier::Stale` becomes a *load-management* tier
//!    here, not only a failure fallback.
//! 3. [`RedirectOrigin`](BrownoutLevel::RedirectOrigin) — stop doing
//!    lateral neighbor work entirely; what isn't cached locally goes
//!    straight to the origin (the CDN absorbs the crowd, which is
//!    exactly what origins are provisioned for).
//! 4. [`Reject`](BrownoutLevel::Reject) — refuse new work with a
//!    `retry_after`, protecting requests already admitted.
//!
//! Transitions are driven by the measured saturation scalar (from
//! [`Admission::saturation`](crate::Admission::saturation)) through
//! [`Brownout::observe`], with two stabilizers so the ladder does not
//! flap: *hysteresis* (stepping down requires saturation below the
//! rung's entry threshold minus a gap) and a *minimum dwell time* per
//! rung.
//!
//! [`Overloaded`]: crate::Overloaded

use hpop_netsim::time::{SimDuration, SimTime};

/// The degradation rungs, in order of increasing severity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum BrownoutLevel {
    /// Normal service: fresh objects, lateral fetches, hedging.
    #[default]
    Full = 0,
    /// Serve stale cached copies to shed revalidation / lateral work.
    StaleAllowed = 1,
    /// Skip lateral fetches; cache misses go straight to the origin.
    RedirectOrigin = 2,
    /// Refuse new work (typed `Overloaded`), finish admitted work.
    Reject = 3,
}

impl BrownoutLevel {
    /// Metric-label name.
    pub fn name(self) -> &'static str {
        match self {
            BrownoutLevel::Full => "full",
            BrownoutLevel::StaleAllowed => "stale_allowed",
            BrownoutLevel::RedirectOrigin => "redirect_origin",
            BrownoutLevel::Reject => "reject",
        }
    }

    fn from_index(i: u8) -> BrownoutLevel {
        match i {
            0 => BrownoutLevel::Full,
            1 => BrownoutLevel::StaleAllowed,
            2 => BrownoutLevel::RedirectOrigin,
            _ => BrownoutLevel::Reject,
        }
    }
}

/// Saturation at which `StaleAllowed` is entered.
const STALE_AT: f64 = 0.7;
/// Saturation at which `RedirectOrigin` is entered.
const REDIRECT_AT: f64 = 0.85;
/// Saturation at which `Reject` is entered.
const REJECT_AT: f64 = 0.97;
/// Hysteresis gap: to leave a rung, saturation must fall below
/// `entry_threshold - HYSTERESIS`.
const HYSTERESIS: f64 = 0.1;
/// Minimum time on a rung before it steps down — also the soonest a
/// `Reject` rung could lift, which is why the coop cache hands it out
/// as its `retry_after`.
pub const MIN_DWELL: SimDuration = SimDuration::from_secs(2);

// The entry thresholds ascend with the rungs.
const _: () = assert!(STALE_AT <= REDIRECT_AT && REDIRECT_AT <= REJECT_AT);

/// The brownout state machine, starting at `Full`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Brownout {
    level: BrownoutLevel,
    entered_at: SimTime,
    /// Transitions taken (up or down) since construction.
    transitions: u64,
}

/// Entry threshold of a rung (`Full` is entered below everything).
fn entry_threshold(level: BrownoutLevel) -> f64 {
    match level {
        BrownoutLevel::Full => 0.0,
        BrownoutLevel::StaleAllowed => STALE_AT,
        BrownoutLevel::RedirectOrigin => REDIRECT_AT,
        BrownoutLevel::Reject => REJECT_AT,
    }
}

/// The rung the raw thresholds map `saturation` to, ignoring
/// hysteresis and dwell.
fn target_level(saturation: f64) -> BrownoutLevel {
    if saturation >= REJECT_AT {
        BrownoutLevel::Reject
    } else if saturation >= REDIRECT_AT {
        BrownoutLevel::RedirectOrigin
    } else if saturation >= STALE_AT {
        BrownoutLevel::StaleAllowed
    } else {
        BrownoutLevel::Full
    }
}

impl Brownout {
    /// Feeds one saturation measurement at `now`, possibly moving one
    /// rung. Escalation jumps straight to the target rung (overload
    /// needs an immediate response); recovery steps down one rung at a
    /// time, each requiring the dwell time and the hysteresis margin —
    /// a ladder that climbed in one tick drains slowly and cannot
    /// flap. Returns the level in force after the observation.
    pub fn observe(&mut self, saturation: f64, now: SimTime) -> BrownoutLevel {
        let dwelled = now.saturating_since(self.entered_at) >= MIN_DWELL;
        let target = target_level(saturation);
        if target > self.level {
            // Escalate immediately — dwell only gates *leaving* a
            // calmer rung, and climbing under rising saturation is
            // never flapping.
            self.move_to(target, now);
        } else if target < self.level && dwelled {
            // To step down one rung, saturation must clear the current
            // rung's entry threshold by the hysteresis gap.
            let exit_below = entry_threshold(self.level) - HYSTERESIS;
            if saturation < exit_below {
                let down = BrownoutLevel::from_index(self.level as u8 - 1);
                self.move_to(down, now);
            }
        }
        self.level
    }

    fn move_to(&mut self, level: BrownoutLevel, now: SimTime) {
        self.level = level;
        self.entered_at = now;
        self.transitions += 1;
        hpop_obs::metrics()
            .counter(match level {
                BrownoutLevel::Full => "resilience.brownout.enter_full",
                BrownoutLevel::StaleAllowed => "resilience.brownout.enter_stale",
                BrownoutLevel::RedirectOrigin => "resilience.brownout.enter_redirect",
                BrownoutLevel::Reject => "resilience.brownout.enter_reject",
            })
            .incr();
    }

    /// The level in force (without feeding a new measurement).
    pub fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// Transitions taken since construction (a flap detector for
    /// tests and experiments).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn escalates_immediately_and_recovers_stepwise() {
        let mut b = Brownout::default();
        assert_eq!(b.observe(0.5, t(0)), BrownoutLevel::Full);
        // A spike jumps straight to Reject.
        assert_eq!(b.observe(0.99, t(1)), BrownoutLevel::Reject);
        // Saturation collapses — but recovery is one rung per dwell.
        assert_eq!(b.observe(0.1, t(1)), BrownoutLevel::Reject, "dwell");
        assert_eq!(b.observe(0.1, t(4)), BrownoutLevel::RedirectOrigin);
        assert_eq!(b.observe(0.1, t(5)), BrownoutLevel::RedirectOrigin);
        assert_eq!(b.observe(0.1, t(7)), BrownoutLevel::StaleAllowed);
        assert_eq!(b.observe(0.1, t(10)), BrownoutLevel::Full);
        assert_eq!(b.transitions(), 4);
    }

    #[test]
    fn hysteresis_blocks_borderline_recovery() {
        let mut b = Brownout::default();
        b.observe(0.75, t(0));
        assert_eq!(b.level(), BrownoutLevel::StaleAllowed);
        // 0.65 is below stale_at=0.7 but not below 0.7-0.1: stay put.
        assert_eq!(b.observe(0.65, t(10)), BrownoutLevel::StaleAllowed);
        assert_eq!(b.observe(0.55, t(20)), BrownoutLevel::Full);
    }
}

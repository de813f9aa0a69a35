//! Priority load shedding: background work yields before interactive.
//!
//! A home appliance under flash-crowd load is doing four kinds of work
//! at once: serving a neighbor's page fetch *right now*, prefetching
//! objects it predicts will be wanted, repairing erasure-coded backup
//! shards, and running gossip anti-entropy. Only the first has a human
//! waiting on it. The [`LoadShedder`] encodes that hierarchy: each
//! [`WorkClass`] has a saturation threshold above which it is shed,
//! and the thresholds are *monotone by construction* — a compile-time
//! assertion on the threshold table guarantees background work always
//! sheds before interactive, so E26's "interactive sheds = 0 while
//! background sheds first" budget is a property of the type, not of
//! tuning luck.

use std::fmt;

/// The kinds of work competing for an appliance's capacity, ordered
/// from most protected to most sheddable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum WorkClass {
    /// A user-facing fetch with a human waiting: shed last.
    Interactive = 0,
    /// Speculative cache warming: useful, deferrable.
    Prefetch = 1,
    /// Erasure-shard repair: durability background work.
    Repair = 2,
    /// Gossip digests / index reconciliation: shed first.
    AntiEntropy = 3,
}

impl WorkClass {
    /// All classes, most-protected first.
    pub const ALL: [WorkClass; 4] = [
        WorkClass::Interactive,
        WorkClass::Prefetch,
        WorkClass::Repair,
        WorkClass::AntiEntropy,
    ];

    /// Metric-label name.
    pub fn name(self) -> &'static str {
        match self {
            WorkClass::Interactive => "interactive",
            WorkClass::Prefetch => "prefetch",
            WorkClass::Repair => "repair",
            WorkClass::AntiEntropy => "anti_entropy",
        }
    }
}

impl fmt::Display for WorkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class saturation thresholds, indexed by [`WorkClass`]. Work of a
/// class is shed while the measured saturation is **strictly above**
/// its threshold — so interactive's 1.0 means "never shed" (saturation
/// signals are normalized to `[0, 1]`; even a full queue at exactly 1.0
/// does not silently drop interactive work, it is refused by typed
/// admission instead).
const THRESHOLDS: [f64; 4] = [1.0, 0.85, 0.7, 0.6];

// Shed order: each more-protected class's threshold is at least its
// less-protected neighbour's, so background work always sheds at or
// before interactive work does.
const _: () = assert!(
    THRESHOLDS[0] >= THRESHOLDS[1]
        && THRESHOLDS[1] >= THRESHOLDS[2]
        && THRESHOLDS[2] >= THRESHOLDS[3]
);

/// The priority shedder: a saturation scalar in, per-class keep/shed
/// verdicts out.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadShedder {
    shed: [u64; 4],
    kept: [u64; 4],
}

impl LoadShedder {
    /// Pure verdict: would `class` be shed at `saturation`? Strictly
    /// above the threshold, so a threshold of 1.0 never sheds for any
    /// normalized saturation.
    pub fn would_shed(&self, class: WorkClass, saturation: f64) -> bool {
        saturation > THRESHOLDS[class as usize]
    }

    /// Verdict plus accounting: returns `true` when the work should be
    /// **dropped** (shed), bumping the per-class counters and metrics.
    pub fn admit(&mut self, class: WorkClass, saturation: f64) -> bool {
        let shed = self.would_shed(class, saturation);
        let i = class as usize;
        if shed {
            self.shed[i] += 1;
            hpop_obs::metrics()
                .counter(match class {
                    WorkClass::Interactive => "resilience.shed.interactive",
                    WorkClass::Prefetch => "resilience.shed.prefetch",
                    WorkClass::Repair => "resilience.shed.repair",
                    WorkClass::AntiEntropy => "resilience.shed.anti_entropy",
                })
                .incr();
        } else {
            self.kept[i] += 1;
        }
        shed
    }

    /// Work of `class` shed so far.
    pub fn shed_count(&self, class: WorkClass) -> u64 {
        self.shed[class as usize]
    }

    /// Work of `class` kept so far.
    pub fn kept_count(&self, class: WorkClass) -> u64 {
        self.kept[class as usize]
    }

    /// Total background (non-interactive) work shed.
    pub fn background_shed(&self) -> u64 {
        self.shed[1] + self.shed[2] + self.shed[3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn background_sheds_before_interactive() {
        let mut s = LoadShedder::default();
        // At 0.65: anti-entropy shed, everything else kept.
        assert!(s.admit(WorkClass::AntiEntropy, 0.65));
        assert!(!s.admit(WorkClass::Repair, 0.65));
        assert!(!s.admit(WorkClass::Prefetch, 0.65));
        assert!(!s.admit(WorkClass::Interactive, 0.65));
        // At 0.9: all background shed, interactive still served.
        assert!(s.admit(WorkClass::AntiEntropy, 0.9));
        assert!(s.admit(WorkClass::Repair, 0.9));
        assert!(s.admit(WorkClass::Prefetch, 0.9));
        assert!(!s.admit(WorkClass::Interactive, 0.9));
        assert_eq!(s.background_shed(), 4);
        assert_eq!(s.shed_count(WorkClass::Interactive), 0);
        assert_eq!(s.kept_count(WorkClass::Interactive), 2);
    }

    #[test]
    fn default_never_sheds_interactive_at_normalized_saturation() {
        let s = LoadShedder::default();
        assert!(!s.would_shed(WorkClass::Interactive, 0.999));
        // Even a pegged (full-queue) signal of exactly 1.0 does not
        // silently shed interactive work — typed rejection handles it.
        assert!(!s.would_shed(WorkClass::Interactive, 1.0));
        assert!(s.would_shed(WorkClass::Interactive, 1.1));
    }
}

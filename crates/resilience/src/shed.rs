//! Priority load shedding: background work yields before interactive.
//!
//! A home appliance under flash-crowd load is doing four kinds of work
//! at once: serving a neighbor's page fetch *right now*, prefetching
//! objects it predicts will be wanted, repairing erasure-coded backup
//! shards, and running gossip anti-entropy. Only the first has a human
//! waiting on it. The [`LoadShedder`] encodes that hierarchy: each
//! [`WorkClass`] has a saturation threshold above which it is shed,
//! and the thresholds are *monotone by construction* — a constructor
//! invariant (pinned by proptest) guarantees background work always
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

/// Per-class saturation thresholds. Work of a class is shed while the
/// measured saturation is **strictly above** its threshold — so a
/// threshold of 1.0 means "never shed" (saturation signals are
/// normalized to `[0, 1]`; even a full queue at exactly 1.0 does not
/// silently drop the class, it is refused by typed admission instead).
#[derive(Clone, Copy, Debug)]
pub struct ShedThresholds {
    /// Threshold for [`WorkClass::Interactive`] (highest).
    pub interactive: f64,
    /// Threshold for [`WorkClass::Prefetch`].
    pub prefetch: f64,
    /// Threshold for [`WorkClass::Repair`].
    pub repair: f64,
    /// Threshold for [`WorkClass::AntiEntropy`] (lowest).
    pub anti_entropy: f64,
}

impl Default for ShedThresholds {
    fn default() -> ShedThresholds {
        ShedThresholds {
            // Interactive work is only refused by admission control
            // (saturation pinned at 1.0), never silently shed below it.
            interactive: 1.0,
            prefetch: 0.85,
            repair: 0.7,
            anti_entropy: 0.6,
        }
    }
}

/// The priority shedder: a saturation scalar in, per-class keep/shed
/// verdicts out.
#[derive(Clone, Copy, Debug)]
pub struct LoadShedder {
    thresholds: ShedThresholds,
    shed: [u64; 4],
    kept: [u64; 4],
}

impl LoadShedder {
    /// Builds a shedder, *enforcing* shed-order monotonicity: each
    /// more-protected class's threshold is raised to at least its less
    /// protected neighbor's, so `interactive ≥ prefetch ≥ repair ≥
    /// anti_entropy` holds whatever the caller passed. Background work
    /// therefore always sheds at or before interactive work does.
    pub fn new(mut t: ShedThresholds) -> LoadShedder {
        t.anti_entropy = t.anti_entropy.clamp(0.0, 1.0);
        t.repair = t.repair.clamp(t.anti_entropy, 1.0);
        t.prefetch = t.prefetch.clamp(t.repair, 1.0);
        t.interactive = t.interactive.clamp(t.prefetch, 1.0);
        LoadShedder {
            thresholds: t,
            shed: [0; 4],
            kept: [0; 4],
        }
    }

    /// The (normalized) thresholds in force.
    pub fn thresholds(&self) -> ShedThresholds {
        self.thresholds
    }

    /// The threshold for one class.
    pub fn threshold(&self, class: WorkClass) -> f64 {
        match class {
            WorkClass::Interactive => self.thresholds.interactive,
            WorkClass::Prefetch => self.thresholds.prefetch,
            WorkClass::Repair => self.thresholds.repair,
            WorkClass::AntiEntropy => self.thresholds.anti_entropy,
        }
    }

    /// Pure verdict: would `class` be shed at `saturation`? Strictly
    /// above the threshold, so a threshold of 1.0 never sheds for any
    /// normalized saturation.
    pub fn would_shed(&self, class: WorkClass, saturation: f64) -> bool {
        saturation > self.threshold(class)
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

impl Default for LoadShedder {
    fn default() -> LoadShedder {
        LoadShedder::new(ShedThresholds::default())
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
    fn constructor_normalizes_inverted_thresholds() {
        // Caller asks for interactive to shed *before* repair — the
        // constructor refuses, raising the protected classes instead.
        let s = LoadShedder::new(ShedThresholds {
            interactive: 0.2,
            prefetch: 0.1,
            repair: 0.9,
            anti_entropy: 0.5,
        });
        let t = s.thresholds();
        assert!(t.interactive >= t.prefetch);
        assert!(t.prefetch >= t.repair);
        assert!(t.repair >= t.anti_entropy);
        // Any saturation shedding interactive sheds background too.
        for sat in [0.0, 0.3, 0.5, 0.9, 1.0] {
            if s.would_shed(WorkClass::Interactive, sat) {
                assert!(s.would_shed(WorkClass::AntiEntropy, sat));
            }
        }
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

//! Object lifecycle: declarative retention rules over the versioned
//! store.
//!
//! A home attic accretes versions forever — every save of a document is
//! a new version, and the appliance's disk is finite. Lifecycle rules
//! (modeled on S3-style policies, in the shape of
//! `object-store-server`'s lifecycle worker) express what to keep:
//!
//! - **Expiration by age** — delete an object whose *current* version
//!   has not been touched in `expire_after` (scratch/trash prefixes).
//! - **Noncurrent retention count** — keep at most `keep_noncurrent`
//!   superseded versions of each object.
//! - **Noncurrent expiration** — drop superseded versions older than
//!   `noncurrent_expire_after` regardless of count.
//!
//! [`LifecyclePolicy::evaluate`] turns rules + store state into a plan
//! of [`LifecycleAction`]s; [`LifecycleEngine::tick`] executes the plan
//! through an [`AtticBackend`] — so on the durable backend every
//! compaction is WAL-journaled and survives crashes, and by
//! construction ([`ObjectStore::prune_noncurrent`]) the current version
//! of an object is never deleted by a prune.

use crate::ports::{AtticBackend, BackendFault};
use crate::store::ObjectStore;
use hpop_netsim::time::{SimDuration, SimTime};

/// One declarative retention rule, scoped to a path prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LifecycleRule {
    /// The subtree this rule governs (`"/"` for everything).
    pub prefix: String,
    /// Delete the whole object once its current version is older than
    /// this.
    pub expire_after: Option<SimDuration>,
    /// Keep at most this many noncurrent (superseded) versions.
    pub keep_noncurrent: Option<usize>,
    /// Drop noncurrent versions older than this.
    pub noncurrent_expire_after: Option<SimDuration>,
}

impl LifecycleRule {
    /// A rule that touches nothing (builder starting point).
    pub fn for_prefix(prefix: impl Into<String>) -> LifecycleRule {
        LifecycleRule {
            prefix: prefix.into(),
            expire_after: None,
            keep_noncurrent: None,
            noncurrent_expire_after: None,
        }
    }

    /// Expire whole objects `age` after their last write.
    pub fn expire_after(mut self, age: SimDuration) -> LifecycleRule {
        self.expire_after = Some(age);
        self
    }

    /// Retain at most `n` noncurrent versions.
    pub fn keep_noncurrent(mut self, n: usize) -> LifecycleRule {
        self.keep_noncurrent = Some(n);
        self
    }

    /// Drop noncurrent versions older than `age`.
    pub fn expire_noncurrent_after(mut self, age: SimDuration) -> LifecycleRule {
        self.noncurrent_expire_after = Some(age);
        self
    }
}

/// One planned lifecycle mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LifecycleAction {
    /// Delete the object outright (age expiration).
    Expire {
        /// The object to remove.
        path: String,
    },
    /// Compact noncurrent versions ([`ObjectStore::prune_noncurrent`]).
    Prune {
        /// The object whose history shrinks.
        path: String,
        /// Noncurrent versions to retain.
        keep: usize,
        /// Versions modified before this instant go regardless.
        min_modified: SimTime,
    },
}

/// An ordered set of rules; first matching rule wins per object.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LifecyclePolicy {
    /// The rules, in priority order.
    pub rules: Vec<LifecycleRule>,
}

impl LifecyclePolicy {
    /// A policy from rules in priority order.
    pub fn new(rules: Vec<LifecycleRule>) -> LifecyclePolicy {
        LifecyclePolicy { rules }
    }

    /// Plans the actions due at `now` against the store's current
    /// state. Pure: the plan is deterministic in `(rules, store, now)`,
    /// which keeps the tick identical under simulation and replay.
    pub fn evaluate(&self, store: &ObjectStore, now: SimTime) -> Vec<LifecycleAction> {
        let mut actions = Vec::new();
        let mut claimed: Vec<String> = Vec::new();
        for rule in &self.rules {
            for path in store.files_under(&rule.prefix) {
                if claimed.contains(&path) {
                    continue;
                }
                let Ok(history) = store.history(&path) else {
                    continue;
                };
                let Some(current) = history.last() else {
                    continue;
                };
                // First matching rule wins: the object is claimed even
                // when this rule has nothing to do for it right now.
                claimed.push(path.clone());
                if let Some(age) = rule.expire_after {
                    if now.saturating_since(current.modified_at) >= age {
                        actions.push(LifecycleAction::Expire { path });
                        continue;
                    }
                }
                let wants_prune =
                    rule.keep_noncurrent.is_some() || rule.noncurrent_expire_after.is_some();
                if wants_prune && history.len() > 1 {
                    let keep = rule.keep_noncurrent.unwrap_or(usize::MAX);
                    let min_modified = match rule.noncurrent_expire_after {
                        Some(age) => {
                            SimTime::from_nanos(now.as_nanos().saturating_sub(age.as_nanos()))
                        }
                        None => SimTime::ZERO,
                    };
                    // Skip no-op prunes: every noncurrent version is
                    // within both the count and the age window.
                    let n = history.len();
                    let doomed = history[..n - 1].iter().enumerate().any(|(i, v)| {
                        let rank = n - 1 - i;
                        rank > keep || v.modified_at < min_modified
                    });
                    if doomed {
                        actions.push(LifecycleAction::Prune {
                            path,
                            keep,
                            min_modified,
                        });
                    }
                }
            }
        }
        actions
    }
}

/// Cumulative effect of lifecycle ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LifecycleReport {
    /// Ticks executed.
    pub ticks: u64,
    /// Whole objects expired.
    pub expired_objects: u64,
    /// Noncurrent versions compacted away.
    pub pruned_versions: u64,
    /// Bytes those versions held.
    pub reclaimed_bytes: u64,
}

/// The tick driver: evaluates the policy and applies the plan through
/// the backend (journaled when the backend is durable).
#[derive(Clone, Debug)]
pub struct LifecycleEngine {
    policy: LifecyclePolicy,
    report: LifecycleReport,
}

impl LifecycleEngine {
    /// An engine executing `policy`.
    pub fn new(policy: LifecyclePolicy) -> LifecycleEngine {
        LifecycleEngine {
            policy,
            report: LifecycleReport::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &LifecyclePolicy {
        &self.policy
    }

    /// Cumulative report across all ticks.
    pub fn report(&self) -> LifecycleReport {
        self.report
    }

    /// Runs one tick at `now`: plan, then apply each action through the
    /// backend. Returns the delta this tick contributed.
    ///
    /// # Errors
    ///
    /// Stops at the first [`BackendFault`] (a crashed device); actions
    /// already applied are journaled and survive, the rest re-plan on
    /// the next tick after recovery — ticks are idempotent because the
    /// plan is recomputed from live state.
    pub fn tick<B: AtticBackend>(
        &mut self,
        backend: &mut B,
        now: SimTime,
    ) -> Result<LifecycleReport, BackendFault> {
        let plan = self.policy.evaluate(backend.store(), now);
        let mut delta = LifecycleReport {
            ticks: 1,
            ..LifecycleReport::default()
        };
        for action in plan {
            match action {
                LifecycleAction::Expire { path } => {
                    // Bytes reclaimed = every version of the object.
                    let held: u64 = backend
                        .store()
                        .history(&path)
                        .map(|h| h.iter().map(|v| v.body.len() as u64).sum())
                        .unwrap_or(0);
                    if backend.delete(&path)?.is_ok() {
                        delta.expired_objects += 1;
                        delta.reclaimed_bytes += held;
                    }
                }
                LifecycleAction::Prune {
                    path,
                    keep,
                    min_modified,
                } => {
                    if let Ok(report) = backend.prune(&path, keep, min_modified)? {
                        delta.pruned_versions += report.removed_versions;
                        delta.reclaimed_bytes += report.reclaimed_bytes;
                    }
                }
            }
        }
        self.report.ticks += delta.ticks;
        self.report.expired_objects += delta.expired_objects;
        self.report.pruned_versions += delta.pruned_versions;
        self.report.reclaimed_bytes += delta.reclaimed_bytes;
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurableAttic;
    use crate::ports::VolatileBackend;
    use hpop_durability::DurabilityConfig;
    use hpop_netsim::storage::SimDisk;
    use std::collections::BTreeMap;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn noncurrent_count_rule_compacts_history() {
        let mut b = VolatileBackend::new();
        for i in 0..6u64 {
            b.store.put("/doc", vec![b'x'; 100], t(i)).unwrap();
        }
        let policy = LifecyclePolicy::new(vec![LifecycleRule::for_prefix("/").keep_noncurrent(2)]);
        let mut engine = LifecycleEngine::new(policy);
        let delta = engine.tick(&mut b, t(10)).unwrap();
        assert_eq!(delta.pruned_versions, 3);
        assert_eq!(delta.reclaimed_bytes, 300);
        assert_eq!(b.store.history("/doc").unwrap().len(), 3);
        // A second tick at the same instant is a no-op (idempotent).
        let again = engine.tick(&mut b, t(10)).unwrap();
        assert_eq!(again.pruned_versions, 0);
        assert_eq!(engine.report().ticks, 2);
        assert_eq!(engine.report().reclaimed_bytes, 300);
    }

    #[test]
    fn age_rules_expire_objects_and_noncurrent_versions() {
        let mut b = VolatileBackend::new();
        b.store.mkcol("/scratch").unwrap();
        b.store.put("/scratch/tmp", vec![0u8; 50], t(0)).unwrap();
        b.store.put("/doc", vec![0u8; 10], t(0)).unwrap();
        b.store.put("/doc", vec![0u8; 10], t(90)).unwrap();
        let policy = LifecyclePolicy::new(vec![
            LifecycleRule::for_prefix("/scratch").expire_after(d(60)),
            LifecycleRule::for_prefix("/").expire_noncurrent_after(d(50)),
        ]);
        let mut engine = LifecycleEngine::new(policy);
        let delta = engine.tick(&mut b, t(100)).unwrap();
        // /scratch/tmp is 100s old → expired (50 bytes, whole object).
        assert_eq!(delta.expired_objects, 1);
        assert!(!b.store.exists("/scratch/tmp"));
        // /doc's v0 (t=0) is older than the 50s noncurrent window.
        assert_eq!(delta.pruned_versions, 1);
        assert_eq!(delta.reclaimed_bytes, 60);
        // The current version is untouched even though it matched no rule.
        assert_eq!(b.store.history("/doc").unwrap().len(), 1);
    }

    #[test]
    fn first_matching_rule_wins() {
        let mut b = VolatileBackend::new();
        b.store.mkcol("/a").unwrap();
        for i in 0..3u64 {
            b.store.put("/a/f", vec![0u8; 10], t(i)).unwrap();
        }
        // The narrow rule keeps 2; the broad rule would keep 0. Narrow
        // is listed first, so /a/f keeps its two noncurrent versions.
        let policy = LifecyclePolicy::new(vec![
            LifecycleRule::for_prefix("/a").keep_noncurrent(2),
            LifecycleRule::for_prefix("/").keep_noncurrent(0),
        ]);
        let mut engine = LifecycleEngine::new(policy);
        let delta = engine.tick(&mut b, t(10)).unwrap();
        assert_eq!(delta.pruned_versions, 0);
        assert_eq!(b.store.history("/a/f").unwrap().len(), 3);
    }

    /// The acceptance-criteria crash matrix: run a put/tick workload,
    /// crash the durable backend at *every* I/O step, recover, and
    /// require that no acked current version was lost — lifecycle
    /// compaction may only ever remove superseded versions.
    #[test]
    fn crash_matrix_never_loses_an_acked_current_version() {
        let policy = LifecyclePolicy::new(vec![LifecycleRule::for_prefix("/").keep_noncurrent(1)]);

        // Baseline run to learn the total number of I/O steps.
        let baseline_steps = {
            let mut attic =
                DurableAttic::open(SimDisk::new(99), "attic", DurabilityConfig::default()).unwrap();
            let mut engine = LifecycleEngine::new(policy.clone());
            drive_workload(&mut attic, &mut engine, &mut BTreeMap::new());
            attic.disk().steps()
        };
        assert!(baseline_steps > 10, "workload does real I/O");

        let mut compactions_survived = 0u64;
        for crash_at in 1..=baseline_steps {
            let mut attic =
                DurableAttic::open(SimDisk::new(99), "attic", DurabilityConfig::default()).unwrap();
            let mut engine = LifecycleEngine::new(policy.clone());
            attic.disk_mut().arm_crash(crash_at);
            let mut acked: BTreeMap<String, Vec<u8>> = BTreeMap::new();
            drive_workload(&mut attic, &mut engine, &mut acked);

            let mut disk = attic.into_disk();
            disk.restart();
            let recovered = DurableAttic::open(disk, "attic", DurabilityConfig::default()).unwrap();
            for (path, body) in &acked {
                let v = recovered
                    .store()
                    .get(path)
                    .unwrap_or_else(|_| panic!("acked {path} lost at crash step {crash_at}"));
                assert_eq!(
                    &v.body[..],
                    &body[..],
                    "current version of {path} corrupted at crash step {crash_at}"
                );
            }
            if recovered
                .store()
                .history("/doc")
                .map(|h| h.len() <= 2)
                .unwrap_or(false)
            {
                compactions_survived += 1;
            }
        }
        assert!(
            compactions_survived > 0,
            "some crashes land post-compaction"
        );
    }

    /// Interleaves acked puts with lifecycle ticks. `acked` records the
    /// last successfully acknowledged body per path; entries are only
    /// added when the put's ack made it back to the caller.
    fn drive_workload(
        attic: &mut DurableAttic,
        engine: &mut LifecycleEngine,
        acked: &mut BTreeMap<String, Vec<u8>>,
    ) {
        for i in 0..8u64 {
            let body = vec![b'a' + i as u8; 64];
            if let Ok(Ok(_)) = attic.put("/doc", body.clone(), t(i)) {
                acked.insert("/doc".into(), body);
            }
            if i % 2 == 1 && engine.tick(attic, t(i)).is_err() {
                return;
            }
        }
        let body = b"sidecar".to_vec();
        if let Ok(Ok(_)) = attic.put("/side", body.clone(), t(20)) {
            acked.insert("/side".into(), body);
        }
        let _ = engine.tick(attic, t(21));
    }
}

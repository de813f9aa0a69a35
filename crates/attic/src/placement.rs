//! Churn-aware shard placement over the fabric's [`PeerView`].
//!
//! §IV-A's availability story depends on *which* peers hold the shards:
//! "storing pieces with a variety of peers" only helps if those peers
//! are actually reachable when the restore happens. This module selects
//! backup peers through the gossip membership layer — ranked by observed
//! uptime and reputation, never placing two shards on one peer — and
//! re-places shards away from peers the failure detector has declared
//! dead ([`PlacedBackup::repair`]).

use crate::backup::{BackupError, BackupPlan, BackupSet};
use hpop_erasure::availability::heterogeneous_availability;
use hpop_fabric::{PeerId, PeerView, RankBy};
use hpop_netsim::time::SimTime;
use hpop_obs::SpanScope;
use hpop_resilience::{Deadline, RetryError, RetryPolicy};
use std::collections::BTreeSet;

/// Placement errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// The view has fewer alive peers than the plan needs shards.
    NotEnoughPeers {
        /// Shards the plan requires.
        needed: usize,
        /// Alive peers available.
        alive: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NotEnoughPeers { needed, alive } => {
                write!(f, "plan needs {needed} peers but only {alive} are alive")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// A backup plus the fabric peers assigned to hold each shard.
#[derive(Clone, Debug)]
pub struct PlacedBackup {
    /// `holders[i]` stores `set.shards[i]`.
    pub holders: Vec<PeerId>,
    plan: BackupPlan,
}

/// Picks one distinct alive peer per shard of `plan`, best
/// uptime-times-reputation first (the [`RankBy::Composite`] axis
/// already folds both in alongside capacity).
///
/// # Errors
///
/// [`PlacementError::NotEnoughPeers`] when the view's alive set is
/// smaller than the plan's shard count.
pub fn place_shards(view: &PeerView, plan: BackupPlan) -> Result<PlacedBackup, PlacementError> {
    let needed = plan.peers();
    let holders = view.select(needed, RankBy::Composite, &BTreeSet::new());
    if holders.len() < needed {
        return Err(PlacementError::NotEnoughPeers {
            needed,
            alive: holders.len(),
        });
    }
    Ok(PlacedBackup { holders, plan })
}

/// Places shards with budgeted retries: each attempt re-polls the
/// caller's `view_at` oracle (typically the fabric view after another
/// gossip round), so a placement blocked by transient churn succeeds
/// once enough peers are back — without ever sleeping past `deadline`.
/// `*now` advances by the backoff pauses taken.
///
/// # Errors
///
/// The last [`PlacementError`], wrapped in [`RetryError::Exhausted`]
/// or [`RetryError::DeadlineExceeded`] depending on what gave up first.
pub fn place_shards_with_retry(
    plan: BackupPlan,
    retry: &RetryPolicy,
    deadline: Deadline,
    now: &mut SimTime,
    mut view_at: impl FnMut(SimTime) -> PeerView,
) -> Result<PlacedBackup, RetryError<PlacementError>> {
    let spans = hpop_obs::spans();
    let root = spans.root();
    let scope = SpanScope::new(spans.clone(), root);
    let start_us = now.as_nanos() / 1_000;
    let out = retry
        .run_spanned(plan.peers() as u64, deadline, now, &scope, |_, at| {
            place_shards(&view_at(at), plan)
        })
        .result;
    spans.record(&root, "attic", "request", start_us, now.as_nanos() / 1_000);
    out
}

impl PlacedBackup {
    /// The plan this placement serves.
    pub fn plan(&self) -> BackupPlan {
        self.plan
    }

    /// Indices of shards whose holder the view no longer believes
    /// alive — the shards presumed lost to churn.
    pub fn lost_shards(&self, view: &PeerView) -> Vec<usize> {
        self.holders
            .iter()
            .enumerate()
            .filter(|(_, &p)| !view.is_alive(p))
            .map(|(i, _)| i)
            .collect()
    }

    /// Re-places shards held by dead peers onto the best surviving
    /// peers not already holding a shard, and marks the old copies lost
    /// in `set`. Returns the repaired shard indices.
    ///
    /// # Errors
    ///
    /// [`PlacementError::NotEnoughPeers`] when there are not enough
    /// alive non-holder peers to take over every lost shard; the
    /// placement is left unchanged so the caller can retry after the
    /// next gossip round.
    pub fn repair(
        &mut self,
        view: &PeerView,
        set: &mut BackupSet,
    ) -> Result<Vec<usize>, PlacementError> {
        let lost = self.lost_shards(view);
        if lost.is_empty() {
            return Ok(lost);
        }
        let exclude: BTreeSet<PeerId> = self.holders.iter().copied().collect();
        let replacements = view.select(lost.len(), RankBy::Composite, &exclude);
        if replacements.len() < lost.len() {
            return Err(PlacementError::NotEnoughPeers {
                needed: lost.len(),
                alive: replacements.len(),
            });
        }
        for (&shard, &peer) in lost.iter().zip(&replacements) {
            set.lose_peer(shard);
            self.holders[shard] = peer;
        }
        Ok(lost)
    }

    /// [`PlacedBackup::repair`] with budgeted retries: when too few
    /// spare peers are alive, back off and re-poll `view_at` instead of
    /// failing outright — churned peers often return within a gossip
    /// round or two. The placement is only mutated by the attempt that
    /// succeeds; `*now` advances by the backoff pauses taken.
    ///
    /// # Errors
    ///
    /// The last [`PlacementError`], wrapped by how the retry gave up.
    pub fn repair_with_retry(
        &mut self,
        set: &mut BackupSet,
        retry: &RetryPolicy,
        deadline: Deadline,
        now: &mut SimTime,
        mut view_at: impl FnMut(SimTime) -> PeerView,
    ) -> Result<Vec<usize>, RetryError<PlacementError>> {
        let spans = hpop_obs::spans();
        let root = spans.root();
        let scope = SpanScope::new(spans.clone(), root);
        let start_us = now.as_nanos() / 1_000;
        let out = retry
            .run_spanned(
                0x005e_9a12 ^ self.holders.len() as u64,
                deadline,
                now,
                &scope,
                |_, at| self.repair(&view_at(at), set),
            )
            .result;
        spans.record(&root, "attic", "request", start_us, now.as_nanos() / 1_000);
        out
    }

    /// A *degraded read*: restores the blob using only shards whose
    /// holders the view currently believes alive. With an RS(k, m)
    /// plan any k reachable holders suffice; neither the set nor the
    /// placement is mutated (marking shards lost is the repair path's
    /// job — a read must not amplify churn into data loss).
    ///
    /// # Errors
    ///
    /// The underlying [`BackupError`] when fewer than k holders are
    /// reachable or the surviving data fails its integrity check.
    pub fn restore_degraded(
        &self,
        view: &PeerView,
        set: &BackupSet,
        key: &[u8; 32],
        label: &str,
    ) -> Result<Vec<u8>, BackupError> {
        let mut reachable = set.clone();
        let mut masked = 0usize;
        for (i, &holder) in self.holders.iter().enumerate() {
            if !view.is_alive(holder) {
                reachable.lose_peer(i);
                masked += 1;
            }
        }
        let res = reachable.restore(key, label);
        if res.is_ok() && masked > 0 {
            hpop_obs::metrics().counter("attic.restore.degraded").incr();
        }
        res
    }

    /// Expected availability of this placement given each holder's
    /// fabric-observed uptime fraction — the churn-aware counterpart of
    /// [`BackupPlan::availability`], which assumes one homogeneous
    /// failure probability.
    pub fn availability(&self, view: &PeerView) -> f64 {
        let uptimes = view.uptimes_of(&self.holders);
        let k = match self.plan {
            BackupPlan::Replication { .. } => 1,
            BackupPlan::Erasure { data, .. } => data as usize,
        };
        heterogeneous_availability(&uptimes, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_fabric::{Advertisement, PeerEntry, PeerState};

    fn entry(id: u64, uptime: f64, state: PeerState) -> PeerEntry {
        PeerEntry {
            id: PeerId(id),
            state,
            advert: Advertisement::default(),
            uptime_fraction: uptime,
            reputation: 1.0,
        }
    }

    fn view_of(ups: &[(u64, f64, PeerState)]) -> PeerView {
        PeerView::new(
            ups.iter()
                .map(|&(id, up, state)| entry(id, up, state))
                .collect(),
        )
    }

    #[test]
    fn placement_prefers_high_uptime_distinct_peers() {
        let v = view_of(&[
            (0, 0.5, PeerState::Alive),
            (1, 0.99, PeerState::Alive),
            (2, 0.9, PeerState::Alive),
            (3, 0.99, PeerState::Dead),
        ]);
        let placed = place_shards(&v, BackupPlan::Replication { copies: 2 }).unwrap();
        assert_eq!(placed.holders, vec![PeerId(1), PeerId(2)]);
    }

    #[test]
    fn too_few_alive_peers_is_an_error() {
        let v = view_of(&[(0, 0.9, PeerState::Alive), (1, 0.9, PeerState::Dead)]);
        assert_eq!(
            place_shards(&v, BackupPlan::Erasure { data: 2, parity: 1 })
                .err()
                .unwrap(),
            PlacementError::NotEnoughPeers {
                needed: 3,
                alive: 1
            }
        );
    }

    #[test]
    fn repair_moves_dead_holders_to_survivors() {
        let key = [9u8; 32];
        let mut set = BackupSet::create(
            b"the archive",
            &key,
            "gen1",
            BackupPlan::Erasure { data: 2, parity: 2 },
        )
        .unwrap();
        let v0 = view_of(&[
            (0, 0.9, PeerState::Alive),
            (1, 0.9, PeerState::Alive),
            (2, 0.9, PeerState::Alive),
            (3, 0.9, PeerState::Alive),
            (4, 0.8, PeerState::Alive),
        ]);
        let mut placed = place_shards(&v0, set.plan()).unwrap();
        let dead = placed.holders[1];
        // The fabric later declares one holder dead.
        let v1 = view_of(&[
            (0, 0.9, PeerState::Alive),
            (
                1,
                0.9,
                if dead == PeerId(1) {
                    PeerState::Dead
                } else {
                    PeerState::Alive
                },
            ),
            (
                2,
                0.9,
                if dead == PeerId(2) {
                    PeerState::Dead
                } else {
                    PeerState::Alive
                },
            ),
            (
                3,
                0.9,
                if dead == PeerId(3) {
                    PeerState::Dead
                } else {
                    PeerState::Alive
                },
            ),
            (4, 0.8, PeerState::Alive),
        ]);
        let repaired = placed.repair(&v1, &mut set).unwrap();
        assert_eq!(repaired, vec![1]);
        assert!(!placed.holders.contains(&dead));
        assert_eq!(placed.lost_shards(&v1), Vec::<usize>::new());
        // RS(2,2) still restores with one shard re-placed (treated lost).
        assert_eq!(set.restore(&key, "gen1").unwrap(), b"the archive");
    }

    #[test]
    fn a_real_fabric_view_moves_shards_off_a_dead_holder_and_takes_it_back() {
        use hpop_fabric::{Fabric, FabricConfig};
        let mut fabric = Fabric::new(FabricConfig::default());
        for _ in 0..8 {
            fabric.join(Advertisement::default());
        }
        let observer = PeerId(0);
        fabric.run_rounds(8);
        let key = [9u8; 32];
        let plan = BackupPlan::Erasure { data: 2, parity: 2 };
        let mut set = BackupSet::create(b"the archive", &key, "gen1", plan).unwrap();
        let mut placed = place_shards(&fabric.view(observer), plan).unwrap();
        let victim = placed.holders[1];
        assert_ne!(victim, observer);

        fabric.set_up(victim, false);
        fabric.run_rounds(40);
        let view = fabric.view(observer);
        assert_eq!(placed.lost_shards(&view), vec![1]);
        assert_eq!(placed.repair(&view, &mut set).unwrap(), vec![1]);
        assert!(!placed.holders.contains(&victim));
        assert_eq!(set.restore(&key, "gen1").unwrap(), b"the archive");
        // A plan that needs every peer cannot use the dead one…
        let everyone = BackupPlan::Replication { copies: 8 };
        assert_eq!(
            place_shards(&view, everyone).err().unwrap(),
            PlacementError::NotEnoughPeers {
                needed: 8,
                alive: 7
            }
        );

        // …until it rejoins.
        fabric.set_up(victim, true);
        fabric.run_rounds(12);
        let back = place_shards(&fabric.view(observer), everyone).unwrap();
        assert!(back.holders.contains(&victim));
    }

    #[test]
    fn repair_fails_cleanly_without_spare_peers() {
        let key = [9u8; 32];
        let mut set =
            BackupSet::create(b"x", &key, "l", BackupPlan::Replication { copies: 2 }).unwrap();
        let v0 = view_of(&[(0, 0.9, PeerState::Alive), (1, 0.9, PeerState::Alive)]);
        let mut placed = place_shards(&v0, set.plan()).unwrap();
        let v1 = view_of(&[(0, 0.9, PeerState::Dead), (1, 0.9, PeerState::Alive)]);
        let before = placed.holders.clone();
        assert!(placed.repair(&v1, &mut set).is_err());
        assert_eq!(placed.holders, before);
    }

    #[test]
    fn placement_retry_recovers_when_peers_return() {
        // First poll: only 2 alive; later polls: all 4 back.
        let sparse = view_of(&[
            (0, 0.9, PeerState::Alive),
            (1, 0.9, PeerState::Alive),
            (2, 0.9, PeerState::Dead),
            (3, 0.9, PeerState::Dead),
        ]);
        let full = view_of(&[
            (0, 0.9, PeerState::Alive),
            (1, 0.9, PeerState::Alive),
            (2, 0.9, PeerState::Alive),
            (3, 0.9, PeerState::Alive),
        ]);
        let mut polls = 0;
        let mut now = SimTime::ZERO;
        let placed = place_shards_with_retry(
            BackupPlan::Erasure { data: 2, parity: 1 },
            &RetryPolicy::default(),
            Deadline::UNBOUNDED,
            &mut now,
            |_| {
                polls += 1;
                if polls < 3 {
                    sparse.clone()
                } else {
                    full.clone()
                }
            },
        )
        .unwrap();
        assert_eq!(placed.holders.len(), 3);
        assert_eq!(polls, 3);
        // Two backoff pauses were actually waited.
        assert!(now > SimTime::ZERO);
    }

    #[test]
    fn placement_retry_respects_deadline() {
        let sparse = view_of(&[(0, 0.9, PeerState::Alive)]);
        let mut now = SimTime::ZERO;
        let deadline = Deadline::after(now, hpop_netsim::time::SimDuration::from_millis(10));
        let err = place_shards_with_retry(
            BackupPlan::Erasure { data: 2, parity: 1 },
            &RetryPolicy::default(),
            deadline,
            &mut now,
            |_| sparse.clone(),
        )
        .unwrap_err();
        assert!(matches!(err, RetryError::DeadlineExceeded(_)));
        assert!(now.as_nanos() <= deadline.expires_at().as_nanos());
    }

    #[test]
    fn repair_retry_waits_out_transient_churn() {
        let key = [9u8; 32];
        let mut set = BackupSet::create(
            b"the archive",
            &key,
            "gen1",
            BackupPlan::Erasure { data: 2, parity: 1 },
        )
        .unwrap();
        let v0 = view_of(&[
            (0, 0.9, PeerState::Alive),
            (1, 0.9, PeerState::Alive),
            (2, 0.9, PeerState::Alive),
        ]);
        let mut placed = place_shards(&v0, set.plan()).unwrap();
        // Holder 0 dies and no spare exists — until peer 3 joins on the
        // third poll.
        let degraded = view_of(&[
            (0, 0.9, PeerState::Dead),
            (1, 0.9, PeerState::Alive),
            (2, 0.9, PeerState::Alive),
        ]);
        let recovered = view_of(&[
            (0, 0.9, PeerState::Dead),
            (1, 0.9, PeerState::Alive),
            (2, 0.9, PeerState::Alive),
            (3, 0.9, PeerState::Alive),
        ]);
        let mut polls = 0;
        let mut now = SimTime::ZERO;
        let repaired = placed
            .repair_with_retry(
                &mut set,
                &RetryPolicy::default(),
                Deadline::UNBOUNDED,
                &mut now,
                |_| {
                    polls += 1;
                    if polls < 3 {
                        degraded.clone()
                    } else {
                        recovered.clone()
                    }
                },
            )
            .unwrap();
        assert_eq!(repaired.len(), 1);
        assert!(placed.holders.contains(&PeerId(3)));
        assert_eq!(set.restore(&key, "gen1").unwrap(), b"the archive");
    }

    #[test]
    fn degraded_read_serves_from_any_k_of_n() {
        let key = [9u8; 32];
        let set = BackupSet::create(
            b"the archive",
            &key,
            "gen1",
            BackupPlan::Erasure { data: 2, parity: 2 },
        )
        .unwrap();
        let v0 = view_of(&[
            (0, 0.9, PeerState::Alive),
            (1, 0.9, PeerState::Alive),
            (2, 0.9, PeerState::Alive),
            (3, 0.9, PeerState::Alive),
        ]);
        let placed = place_shards(&v0, set.plan()).unwrap();
        // Two of the four holders churn away: k = 2 survivors suffice.
        let degraded = view_of(&[
            (0, 0.9, PeerState::Dead),
            (1, 0.9, PeerState::Alive),
            (2, 0.9, PeerState::Dead),
            (3, 0.9, PeerState::Alive),
        ]);
        assert_eq!(
            placed
                .restore_degraded(&degraded, &set, &key, "gen1")
                .unwrap(),
            b"the archive"
        );
        // The read mutated nothing: every shard is still present.
        assert_eq!(set.surviving_peers(), 4);
        // Below k reachable holders the read fails cleanly.
        let dead = view_of(&[
            (0, 0.9, PeerState::Dead),
            (1, 0.9, PeerState::Dead),
            (2, 0.9, PeerState::Dead),
            (3, 0.9, PeerState::Alive),
        ]);
        assert!(placed.restore_degraded(&dead, &set, &key, "gen1").is_err());
        assert_eq!(set.surviving_peers(), 4);
    }

    #[test]
    fn availability_uses_per_holder_uptimes() {
        let v = view_of(&[(0, 0.9, PeerState::Alive), (1, 0.6, PeerState::Alive)]);
        let placed = place_shards(&v, BackupPlan::Replication { copies: 2 }).unwrap();
        // Replication: unavailable only if both are down.
        let expect = 1.0 - (1.0 - 0.9) * (1.0 - 0.6);
        assert!((placed.availability(&v) - expect).abs() < 1e-12);
    }
}

//! Churn-aware shard placement over the fabric's [`PeerView`].
//!
//! §IV-A's availability story depends on *which* peers hold the shards:
//! "storing pieces with a variety of peers" only helps if those peers
//! are actually reachable when the restore happens. This module selects
//! backup peers through the gossip membership layer — ranked by observed
//! uptime and reputation, never placing two shards on one peer — and
//! re-places shards away from peers the failure detector has declared
//! dead ([`PlacedBackup::repair`]).

use crate::backup::{BackupPlan, BackupSet};
use hpop_erasure::availability::heterogeneous_availability;
use hpop_fabric::{PeerId, PeerView, RankBy};
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
    fn availability_uses_per_holder_uptimes() {
        let v = view_of(&[(0, 0.9, PeerState::Alive), (1, 0.6, PeerState::Alive)]);
        let placed = place_shards(&v, BackupPlan::Replication { copies: 2 }).unwrap();
        // Replication: unavailable only if both are down.
        let expect = 1.0 - (1.0 - 0.9) * (1.0 - 0.6);
        assert!((placed.availability(&v) - expect).abs() < 1e-12);
    }
}

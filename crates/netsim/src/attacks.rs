//! Seeded adversarial-accounting campaigns.
//!
//! [`crate::faults`] models *accidents* — crashes, churn, loss,
//! partitions — as time windows in one plan. This module models
//! *adversaries*: coordinated Sybil/collusion campaigns against the
//! NoCDN accounting plane. A campaign is a set of static roles, not
//! windows, so it is a plan of its own, seeded the same way a
//! [`FaultPlan`](crate::faults::FaultPlan) is — fully determined at
//! construction from `(config, n)`, node-indexed seed streams so
//! growing the population never reshuffles earlier nodes' roles, and a
//! passive-oracle query surface the campaign executor drives against.
//! An [`AttackPlan`] composes freely with a `FaultPlan` on the same
//! population: the chaos preset can rage while a Sybil swarm farms
//! usage records (experiment E25 runs exactly that overlay).
//!
//! The campaign taxonomy follows the accounting threat model
//! (PAPER.md §IV-B, CAPnet in PAPERS.md):
//!
//! - **Sybil swarm** — one attacker mints many fake *client* identities
//!   whose page views are real protocol traffic but whose demand is
//!   synthetic; every record lands on colluding peers.
//! - **Collusion at scale** — attacker-controlled peers and clients
//!   countersign records for transfers that never happened, several
//!   fabrications per real serve.
//! - **Record laundering** — fabrications are *mixed* into genuine
//!   traffic at a fraction tuned to keep per-peer payment rates near
//!   the honest baseline, dodging anomaly scoring.
//! - **Adaptive** — the attacker knows the detector's threshold and
//!   throttles fabrication to stay a configured headroom below it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which campaign the colluding clique runs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum CampaignKind {
    /// Each colluding peer is fed by this many minted Sybil client
    /// identities, each generating synthetic (but real-protocol) load.
    SybilSwarm {
        /// Fake client identities per colluding peer.
        sybils_per_peer: u32,
    },
    /// For every real serve, a colluding peer uploads this many
    /// additional fabricated records countersigned by colluding
    /// clients.
    CollusionAtScale {
        /// Fabricated records per genuine one.
        fabricated_per_real: u32,
    },
    /// Fabrications are laundered into genuine traffic: of every
    /// 10 000 records a colluder uploads, this many are fake — chosen
    /// to keep its payment rate under the anomaly detector's nose.
    RecordLaundering {
        /// Fabricated fraction in basis points (of 10 000).
        fabricated_fraction_bp: u32,
    },
    /// The attacker knows the anomaly threshold and fabricates just
    /// enough to sit this far below it.
    Adaptive {
        /// Headroom below the detection threshold, in basis points:
        /// 2 000 means "stay 20% under the flagging ratio".
        headroom_bp: u32,
    },
}

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct AttackConfig {
    /// The campaign the clique runs.
    pub campaign: CampaignKind,
    /// Fraction of the peer population the attacker controls.
    pub attacker_fraction: f64,
    /// Seed for role assignment.
    pub seed: u64,
}

impl AttackConfig {
    /// The E25 default: a tenth of the peers collude, Sybil-swarm
    /// campaign with 8 minted clients per colluding peer.
    pub fn sybil_preset(seed: u64) -> AttackConfig {
        AttackConfig {
            campaign: CampaignKind::SybilSwarm { sybils_per_peer: 8 },
            attacker_fraction: 0.10,
            seed,
        }
    }
}

/// A fully materialized campaign over `n` peers: who colludes, which
/// Sybil client identities exist, and how much each colluder fabricates.
#[derive(Clone, Debug)]
pub struct AttackPlan {
    campaign: CampaignKind,
    colluders: Vec<usize>,
    is_colluder: Vec<bool>,
}

/// Sybil client identities live far above any real client id so the
/// two populations can never alias.
pub const SYBIL_CLIENT_BASE: u64 = 1 << 40;

impl AttackPlan {
    /// Materializes the campaign roles. Each node draws from its own
    /// seed stream (exactly like
    /// [`FaultPlan::generate`](crate::faults::FaultPlan::generate)), so
    /// growing `n` appends roles without reshuffling existing ones.
    pub fn generate(n: usize, cfg: AttackConfig) -> AttackPlan {
        let mut colluders = Vec::new();
        let mut is_colluder = vec![false; n];
        for (node, colludes) in is_colluder.iter_mut().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                cfg.seed ^ 0xa77c ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            if rng.gen::<f64>() < cfg.attacker_fraction {
                colluders.push(node);
                *colludes = true;
            }
        }
        AttackPlan {
            campaign: cfg.campaign,
            colluders,
            is_colluder,
        }
    }

    /// The campaign being run.
    pub fn campaign(&self) -> CampaignKind {
        self.campaign
    }

    /// Whether `node` is attacker-controlled.
    pub fn is_colluder(&self, node: usize) -> bool {
        self.is_colluder.get(node).copied().unwrap_or(false)
    }

    /// The colluding nodes, ascending.
    pub fn colluders(&self) -> &[usize] {
        &self.colluders
    }

    /// Number of attacker-controlled peers.
    pub fn clique_size(&self) -> usize {
        self.colluders.len()
    }

    /// The minted Sybil client identities attached to colluding `node`
    /// (empty for honest nodes and non-Sybil campaigns). Deterministic:
    /// identity `k` of node `i` is always the same u64.
    pub fn sybil_clients(&self, node: usize) -> Vec<u64> {
        if !self.is_colluder(node) {
            return Vec::new();
        }
        match self.campaign {
            CampaignKind::SybilSwarm { sybils_per_peer } => (0..sybils_per_peer as u64)
                .map(|k| SYBIL_CLIENT_BASE + (node as u64) * 10_000 + k)
                .collect(),
            _ => Vec::new(),
        }
    }

    /// How many records a colluding peer fabricates given that it
    /// legitimately earned `real_records` this epoch. The Sybil
    /// campaign fabricates nothing (its fraud is synthetic *demand*,
    /// not forged records); the others forge outright.
    pub fn fabricated_records(&self, node: usize, real_records: u64) -> u64 {
        if !self.is_colluder(node) {
            return 0;
        }
        match self.campaign {
            CampaignKind::SybilSwarm { .. } => 0,
            CampaignKind::CollusionAtScale {
                fabricated_per_real,
            } => real_records * fabricated_per_real as u64,
            CampaignKind::RecordLaundering {
                fabricated_fraction_bp,
            } => {
                // fake / (real + fake) = bp/10000  ⇒  fake = real·bp/(10000−bp)
                // (rounded up: a colluder with any real traffic always
                // launders at least one record).
                let bp = fabricated_fraction_bp.min(9_999) as u64;
                (real_records * bp).div_ceil(10_000 - bp)
            }
            CampaignKind::Adaptive { headroom_bp } => {
                // The detector flags rate ratios above ~threshold 1.8–3.
                // Staying `headroom` below a ratio of 2 means each fake
                // record must be matched by enough real ones:
                // fake ≤ real · (1 − headroom) under a 2× flagging bar.
                let keep = 10_000u64.saturating_sub(headroom_bp as u64);
                (real_records * keep).div_ceil(10_000)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_growth_stable() {
        let cfg = AttackConfig::sybil_preset(42);
        let a = AttackPlan::generate(50, cfg);
        let b = AttackPlan::generate(50, cfg);
        assert_eq!(a.colluders(), b.colluders());
        // Growing the population appends, never reshuffles.
        let large = AttackPlan::generate(100, cfg);
        assert_eq!(
            a.colluders(),
            &large.colluders()[..a.clique_size()],
            "existing roles reshuffled by growth"
        );
        // A different seed picks a different clique.
        let c = AttackPlan::generate(50, AttackConfig::sybil_preset(43));
        assert_ne!(a.colluders(), c.colluders());
    }

    #[test]
    fn attacker_fraction_is_respected() {
        let plan = AttackPlan::generate(
            2_000,
            AttackConfig {
                campaign: CampaignKind::SybilSwarm { sybils_per_peer: 4 },
                attacker_fraction: 0.25,
                seed: 7,
            },
        );
        let frac = plan.clique_size() as f64 / 2_000.0;
        assert!((frac - 0.25).abs() < 0.05, "clique fraction {frac}");
    }

    #[test]
    fn sybil_identities_are_disjoint_from_real_clients() {
        let plan = AttackPlan::generate(30, AttackConfig::sybil_preset(9));
        let node = plan.colluders()[0];
        let ids = plan.sybil_clients(node);
        assert_eq!(ids.len(), 8);
        assert!(ids.iter().all(|&id| id >= SYBIL_CLIENT_BASE));
        // Different colluders never share an identity.
        if plan.clique_size() > 1 {
            let other = plan.sybil_clients(plan.colluders()[1]);
            assert!(ids.iter().all(|id| !other.contains(id)));
        }
        // Honest nodes have none.
        let honest = (0..30).find(|&i| !plan.is_colluder(i)).unwrap();
        assert!(plan.sybil_clients(honest).is_empty());
    }

    #[test]
    fn fabrication_volumes_follow_the_campaign() {
        let mk = |campaign| {
            AttackPlan::generate(
                10,
                AttackConfig {
                    campaign,
                    attacker_fraction: 1.0,
                    seed: 1,
                },
            )
        };
        let sybil = mk(CampaignKind::SybilSwarm { sybils_per_peer: 4 });
        assert_eq!(sybil.fabricated_records(0, 100), 0);

        let collusion = mk(CampaignKind::CollusionAtScale {
            fabricated_per_real: 5,
        });
        assert_eq!(collusion.fabricated_records(0, 100), 500);

        // 2000 bp = 20% of uploads fake: 100 real → 25 fake (25/125).
        let laundering = mk(CampaignKind::RecordLaundering {
            fabricated_fraction_bp: 2_000,
        });
        assert_eq!(laundering.fabricated_records(0, 100), 25);

        let adaptive = mk(CampaignKind::Adaptive { headroom_bp: 2_000 });
        assert_eq!(adaptive.fabricated_records(0, 100), 80);

        // Honest nodes fabricate nothing under any campaign.
        let mixed = AttackPlan::generate(
            200,
            AttackConfig {
                campaign: CampaignKind::CollusionAtScale {
                    fabricated_per_real: 3,
                },
                attacker_fraction: 0.1,
                seed: 3,
            },
        );
        let honest = (0..200).find(|&i| !mixed.is_colluder(i)).unwrap();
        assert_eq!(mixed.fabricated_records(honest, 100), 0);
    }
}

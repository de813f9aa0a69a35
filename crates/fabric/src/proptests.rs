//! Property-based tests of the fabric's load-bearing guarantees.
//!
//! 1. **Convergence**: under a seeded churn schedule
//!    (`hpop_netsim::churn`), once churn quiesces, every live node
//!    agrees on the live set within a detector constant plus
//!    O(log n) gossip rounds.
//! 2. **Accuracy**: in a quiet network (no churn), the failure
//!    detector never declares a never-failed peer dead — zero false
//!    positives.
//! 3. **Incarnation ground truth**: after a churn schedule quiesces,
//!    every up node holds exactly the up peers alive, each at an
//!    incarnation equal to its rejoin count — the protocol never
//!    manufactures a bump the schedule did not cause.
//! 4. **Digest reconciliation**: knowledge that can no longer travel
//!    by piggyback (every retransmit spent while a peer was
//!    partitioned away) still reaches it — through the digest sync
//!    that bootstraps its rejoin, at the moment of heal.
//! 5. **Index integrity**: whatever sequence of mutations a
//!    [`MembershipTable`] sees, its live-id, suspect-id and
//!    tombstone-floor indices are what a walk over its records
//!    derives, and its dense slot table holds the records, in the same
//!    order, that a plain map under the same rules would.
//! 6. **View order**: whatever sequence of `insert` / `set_state` /
//!    `adopt` a [`PeerView`] sees, its entries stay strictly ascending
//!    by id, `get` finds what a linear scan finds, and `adopt` neither
//!    adds nor removes an id.

use crate::gossip::{Fabric, FabricConfig, DIGEST_SYNC_EVERY};
use crate::member::{Advertisement, MembershipTable, PeerId, PeerRecord, PeerState};
use crate::view::{PeerEntry, PeerView};
use hpop_netsim::churn::ChurnConfig;
use hpop_netsim::faults::FaultPlan;
use hpop_netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Builds a fabric of `n` nodes with slightly varied advertisements.
fn fabric_of(n: usize, seed: u64) -> Fabric {
    let mut f = Fabric::new(FabricConfig { seed });
    for i in 0..n {
        f.join(Advertisement {
            rtt_ms: 2.0 + (i % 7) as f64 * 3.0,
            ..Advertisement::default()
        });
    }
    f
}

/// Drives `fabric` against `churn` for `secs` one-second rounds,
/// applying ground-truth transitions as they occur.
fn drive(fabric: &mut Fabric, churn: &FaultPlan, secs: u64) {
    let mut events = Vec::new();
    for s in 0..secs {
        let from = SimTime::from_secs(s);
        let to = SimTime::from_secs(s + 1);
        churn.transitions_into(from, to, &mut events);
        for ev in &events {
            fabric.set_up(PeerId(ev.node as u64), ev.up);
        }
        fabric.tick();
    }
}

/// The post-quiescence round budget: a detector constant (covering the
/// suspicion grace) plus C·log2(n) rounds of gossip spread.
fn convergence_budget(n: usize) -> u64 {
    let log2n = (usize::BITS - n.next_power_of_two().leading_zeros()) as u64;
    40 + 4 * log2n
}

proptest! {
    /// After the churn schedule quiesces, all live nodes agree on the
    /// live set — and that set is the ground truth — within
    /// `convergence_budget(n)` rounds.
    #[test]
    fn membership_converges_after_churn(
        n in 4usize..14,
        seed in 0u64..1_000,
    ) {
        let horizon = SimTime::from_secs(90);
        let churn = FaultPlan::generate(
            n,
            ChurnConfig {
                churn_fraction: 0.4,
                mean_session: SimDuration::from_secs(45),
                mean_downtime: SimDuration::from_secs(15),
                seed: seed.wrapping_mul(31) ^ 0xc0ffee,
            },
            horizon,
        );
        let mut fabric = fabric_of(n, seed);
        drive(&mut fabric, &churn, 90);
        // Churn has quiesced (the schedule is empty past the horizon);
        // give the detector-plus-gossip budget and assert agreement.
        fabric.run_rounds(convergence_budget(n) as u32);

        let truth: BTreeSet<PeerId> = (0..n)
            .filter(|&i| churn.is_up(i, horizon))
            .map(|i| PeerId(i as u64))
            .collect();
        prop_assert!(!truth.is_empty(), "at least the non-churners are up");
        for (observer, alive) in fabric.alive_sets_of_up_nodes() {
            prop_assert_eq!(
                &alive, &truth,
                "observer {} disagrees with ground truth", observer
            );
        }
    }

    /// A quiet network never produces a false positive: no peer is
    /// declared dead, no detection fires at all.
    #[test]
    fn quiet_network_zero_false_positives(
        n in 2usize..18,
        rounds in 20u32..120,
        seed in 0u64..1_000,
    ) {
        let mut fabric = fabric_of(n, seed);
        fabric.run_rounds(rounds);
        prop_assert_eq!(fabric.stats().false_positives, 0);
        prop_assert_eq!(fabric.stats().true_detections, 0);
        // Stronger: every node still believes every node alive.
        for (observer, alive) in fabric.alive_sets_of_up_nodes() {
            prop_assert_eq!(
                alive.len(), n,
                "observer {} lost someone in a quiet network", observer
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After churn quiesces every up node ends with the same
    /// `id → incarnation` map of alive peers: exactly the peers the
    /// schedule leaves up, each at its ground-truth rejoin count — the
    /// protocol manufactures no self-defense incarnation bump out of
    /// detector noise, so the surviving incarnation signal is churn
    /// alone. The quiesce spans a whole digest cycle, so every node has
    /// run its timer-driven sync at least once. The (n, seed) domain
    /// below has been verified exhaustively, so any sampled case is
    /// deterministic-green.
    #[test]
    fn alive_incarnations_match_churn_ground_truth(
        n in 4usize..12,
        seed in 0u64..250,
    ) {
        let horizon_s = 90u64;
        let churn = FaultPlan::generate(
            n,
            ChurnConfig {
                churn_fraction: 0.4,
                mean_session: SimDuration::from_secs(45),
                mean_downtime: SimDuration::from_secs(15),
                seed: seed.wrapping_mul(131) ^ 0xdead5eed,
            },
            SimTime::from_secs(horizon_s),
        );
        let mut fabric = fabric_of(n, seed);
        let mut rejoins = vec![0u64; n];
        let mut events = Vec::new();
        for s in 0..horizon_s {
            churn.transitions_into(SimTime::from_secs(s), SimTime::from_secs(s + 1), &mut events);
            for ev in &events {
                fabric.set_up(PeerId(ev.node as u64), ev.up);
                if ev.up {
                    rejoins[ev.node] += 1;
                }
            }
            fabric.tick();
        }
        // Quiesce: the grace plus gossip spread, and a digest cycle.
        fabric.run_rounds(DIGEST_SYNC_EVERY as u32 + 40);

        let expected: BTreeMap<PeerId, u64> = (0..n)
            .filter(|&i| churn.is_up(i, SimTime::from_secs(horizon_s)))
            .map(|i| (PeerId(i as u64), rejoins[i]))
            .collect();
        prop_assume!(!expected.is_empty());
        for &observer in expected.keys() {
            prop_assert_eq!(
                &fabric.alive_incarnations(observer), &expected,
                "observer {} disagrees with ground truth", observer
            );
        }
    }

    /// Partition heal via digest anti-entropy: a node that was down
    /// while a newcomer joined — and whose join deltas have all spent
    /// their λ·⌈log₂ n⌉ retransmits by the time it returns — cannot
    /// learn the newcomer from ping/ack piggyback. The digest sync
    /// that bootstraps its rejoin must (and provably does) ship the
    /// missing record at the moment of heal.
    ///
    /// The timing arithmetic pins the digest *timer*: with all ids
    /// ≤ 9 and `DIGEST_SYNC_EVERY = 120`, timer-driven digests only
    /// fire while `period_index mod 120` is in 0..=9 — so anything the
    /// healed node knows in periods 41..=43 came from the rejoin
    /// bootstrap, not the timer.
    #[test]
    fn partition_heal_via_rejoin_bootstrap_digest(
        n in 6usize..=9,
        seed in 0u64..500,
    ) {
        const _: () = assert!(DIGEST_SYNC_EVERY == 120, "timing argument below assumes 120");
        let mut f = fabric_of(n, seed);
        f.run_rounds(20);
        let partitioned = PeerId((n / 2) as u64);
        f.set_up(partitioned, false);
        f.run_rounds(5); // → period 25
        let newcomer = f.join(Advertisement::default()); // id == n ≤ 9
        // Long enough for the join deltas to spread through the
        // connected side and exhaust their λ·⌈log₂ n⌉ retransmits.
        f.run_rounds(15); // → period 40
        let witness = PeerId(0);
        prop_assert!(
            f.alive_incarnations(witness).contains_key(&newcomer),
            "connected side should have converged on the newcomer"
        );
        f.set_up(partitioned, true);
        prop_assert!(
            f.alive_incarnations(partitioned).contains_key(&newcomer),
            "the rejoin bootstrap digest must reconcile the healed node"
        );
        f.run_rounds(3); // periods 41..=43: the timer stays silent
        // The heal is symmetric — the connected side holds the healed
        // node alive at its bumped incarnation — and windowless: no
        // observer scored a declaration against the rejoined peer.
        prop_assert!(
            f.alive_incarnations(witness).contains_key(&partitioned),
            "connected side should hold the healed node alive"
        );
        prop_assert_eq!(f.stats().false_positives, 0);
    }
}

/// One step of the index-integrity model: the five mutators, plus the
/// two callers in `gossip.rs` that write past merge precedence.
#[derive(Clone, Debug)]
enum TableOp {
    Upsert(PeerRecord),
    Merge(PeerRecord),
    SetState(PeerId, PeerState, SimTime),
    TouchSelf(PeerId, SimTime),
    Evict(SimTime),
    /// `Fabric::set_up`'s amnesty: every suspect is upserted back to
    /// alive at the *same* incarnation — a rank downgrade.
    Amnesty,
    /// `Fabric::crash`: the table is replaced by a fresh one holding
    /// only the owner's record.
    Crash(PeerRecord),
}

fn table_op() -> impl Strategy<Value = TableOp> {
    // Mostly a handful of ids, so steps collide on one record; the
    // rest spread over 4,096 slots, so the table grows across holes
    // and evicts around them.
    let id = || prop_oneof![0u64..8, 0u64..8, 0u64..4_096].prop_map(PeerId);
    let at = || (0u64..24).prop_map(SimTime::from_secs);
    let state = || {
        prop_oneof![
            Just(PeerState::Alive),
            Just(PeerState::Suspect),
            Just(PeerState::Dead),
            Just(PeerState::Left),
        ]
    };
    let record = move || {
        (id(), state(), 0u64..4, at()).prop_map(|(id, state, incarnation, updated_at)| PeerRecord {
            id,
            state,
            incarnation,
            advert: Advertisement::default(),
            updated_at,
        })
    };
    // The shim has no weights; repeats keep the table-resetting
    // `Crash` to one step in twelve.
    prop_oneof![
        record().prop_map(TableOp::Upsert),
        record().prop_map(TableOp::Upsert),
        record().prop_map(TableOp::Merge),
        record().prop_map(TableOp::Merge),
        record().prop_map(TableOp::Merge),
        (id(), state(), at()).prop_map(|(id, s, t)| TableOp::SetState(id, s, t)),
        (id(), state(), at()).prop_map(|(id, s, t)| TableOp::SetState(id, s, t)),
        (id(), at()).prop_map(|(id, t)| TableOp::TouchSelf(id, t)),
        at().prop_map(TableOp::Evict),
        at().prop_map(TableOp::Evict),
        Just(TableOp::Amnesty),
        record().prop_map(TableOp::Crash),
    ]
}

/// The table's rules over a bare map, eviction by walking every
/// record: what `MembershipTable` did before it kept indices.
#[derive(Default)]
struct ModelTable(BTreeMap<PeerId, PeerRecord>);

impl ModelTable {
    fn merge(&mut self, incoming: PeerRecord) -> bool {
        let newer = self.0.get(&incoming.id).is_none_or(|cur| {
            incoming.incarnation > cur.incarnation
                || (incoming.incarnation == cur.incarnation
                    && incoming.state.rank() > cur.state.rank())
        });
        if newer {
            self.0.insert(incoming.id, incoming);
        }
        newer
    }

    fn set_state(&mut self, id: PeerId, state: PeerState, now: SimTime) -> bool {
        match self.0.get_mut(&id) {
            Some(r) if state.rank() > r.state.rank() => {
                r.state = state;
                r.updated_at = now;
                true
            }
            _ => false,
        }
    }

    fn evict(&mut self, cutoff: SimTime) -> usize {
        let before = self.0.len();
        self.0.retain(|_, r| {
            !(matches!(r.state, PeerState::Dead | PeerState::Left) && r.updated_at < cutoff)
        });
        before - self.0.len()
    }
}

proptest! {
    /// After every step the indices equal a from-scratch recomputation
    /// (the tombstone floor: a lower bound always, exact after a
    /// sweep that evicted), every return value matches the model's and
    /// the records are the model's.
    #[test]
    fn table_indices_never_drift(ops in proptest::collection::vec(table_op(), 1..80)) {
        let mut table = MembershipTable::default();
        let mut model = ModelTable::default();
        for op in ops {
            let mut swept = false;
            match op {
                TableOp::Upsert(rec) => {
                    table.upsert(rec);
                    model.0.insert(rec.id, rec);
                }
                TableOp::Merge(rec) => {
                    prop_assert_eq!(table.merge_record(&rec), model.merge(rec));
                }
                TableOp::SetState(id, state, now) => {
                    prop_assert_eq!(table.set_state(id, state, now), model.set_state(id, state, now));
                }
                TableOp::TouchSelf(id, now) => {
                    table.touch_self(id, now);
                    if let Some(r) = model.0.get_mut(&id) {
                        r.state = PeerState::Alive;
                        r.updated_at = now;
                    }
                }
                TableOp::Evict(cutoff) => {
                    let evicted = table.evict_terminal_before(cutoff);
                    prop_assert_eq!(evicted, model.evict(cutoff));
                    swept = evicted > 0;
                }
                TableOp::Amnesty => {
                    let suspects: Vec<PeerRecord> = table
                        .suspect_ids()
                        .iter()
                        .map(|&id| *table.get(id).expect("suspect ids index records"))
                        .collect();
                    for mut rec in suspects {
                        rec.state = PeerState::Alive;
                        table.upsert(rec);
                        model.0.insert(rec.id, rec);
                    }
                    prop_assert!(table.suspect_ids().is_empty());
                }
                TableOp::Crash(me) => {
                    table = MembershipTable::default();
                    table.upsert(me);
                    model.0.clear();
                    model.0.insert(me.id, me);
                }
            }
            table.assert_indices_match_records(swept);
            prop_assert!(table.iter().eq(model.0.values()));
        }
    }
}

/// One step of the view-order model.
#[derive(Clone, Debug)]
enum ViewOp {
    Insert(PeerEntry),
    SetState(PeerId, PeerState),
    Adopt(Vec<PeerEntry>),
}

fn view_op() -> impl Strategy<Value = ViewOp> {
    let id = || (0u64..12).prop_map(PeerId);
    let state = || {
        prop_oneof![
            Just(PeerState::Alive),
            Just(PeerState::Suspect),
            Just(PeerState::Dead),
            Just(PeerState::Left),
        ]
    };
    let entry = move || {
        (id(), state(), 0.0f64..1.0, 1.0f64..90.0).prop_map(|(id, state, up, rtt)| PeerEntry {
            id,
            state,
            advert: Advertisement {
                rtt_ms: rtt,
                ..Advertisement::default()
            },
            uptime_fraction: up,
            reputation: 1.0,
        })
    };
    prop_oneof![
        entry().prop_map(ViewOp::Insert),
        entry().prop_map(ViewOp::Insert),
        (id(), state()).prop_map(|(id, s)| ViewOp::SetState(id, s)),
        proptest::collection::vec(entry(), 0..12).prop_map(ViewOp::Adopt),
    ]
}

proptest! {
    /// After every step the view is the model map: same ids in the
    /// same (strictly ascending) order, same state, uptime and RTT —
    /// so `adopt` moved state and uptime only, for shared ids only —
    /// and `get` agrees with a linear scan for known and unknown ids.
    #[test]
    fn view_stays_sorted_and_adopt_keeps_its_ids(
        ops in proptest::collection::vec(view_op(), 1..60),
    ) {
        let mut view = PeerView::default();
        let mut model: BTreeMap<PeerId, PeerEntry> = BTreeMap::new();
        for op in ops {
            match op {
                ViewOp::Insert(e) => {
                    view.insert(e.clone());
                    model.insert(e.id, e);
                }
                ViewOp::SetState(id, state) => {
                    view.set_state(id, state);
                    if let Some(e) = model.get_mut(&id) {
                        e.state = state;
                    }
                }
                ViewOp::Adopt(theirs) => {
                    // `PeerView::new` keeps duplicates; a fabric view
                    // has none, so neither does the incoming one here.
                    let theirs: BTreeMap<PeerId, PeerEntry> =
                        theirs.into_iter().map(|e| (e.id, e)).collect();
                    view.adopt(&PeerView::new(theirs.values().cloned().collect()));
                    for (id, e) in model.iter_mut() {
                        if let Some(t) = theirs.get(id) {
                            e.state = t.state;
                            e.uptime_fraction = t.uptime_fraction;
                        }
                    }
                }
            }
            prop_assert!(view.entries().windows(2).all(|w| w[0].id < w[1].id));
            let fields = |e: &PeerEntry| (e.id, e.state, e.uptime_fraction, e.advert.rtt_ms);
            prop_assert!(view.entries().iter().map(fields).eq(model.values().map(fields)));
            for id in (0..13).map(PeerId) {
                let scanned = view.entries().iter().find(|e| e.id == id).map(fields);
                prop_assert_eq!(view.get(id).map(fields), scanned);
            }
        }
    }
}

//! The per-URL table against [`ReferenceCoop`], the implementation it
//! replaced: same tiers, same statistics, same fills, same contents —
//! and the memoised owner against the full per-member argmax.

use super::reference::{self, ReferenceCoop};
use super::*;
use hpop_resilience::AdmissionConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn u(i: u32) -> Url {
    Url::https("web.example", &format!("/obj{i}"))
}

/// SHA-256 of `"{member}|{url}"`, first 8 bytes, checked against an
/// independent implementation: the ownership function may never drift,
/// or every warm neighborhood re-crosses the uplink for its whole cache.
#[test]
fn hrw_weight_golden_vectors() {
    let vectors = [
        (
            0u32,
            Url::https("web.example", "/news"),
            0x6eeb_f763_196d_5128u64,
        ),
        (
            63,
            Url::https("web.example", "/obj17"),
            0x99c0_effa_a61b_0c22,
        ),
        (
            4_000_000_000,
            "http://cdn.example:8080/a/b.js".parse().expect("valid url"),
            0x7937_74a6_7e61_1769,
        ),
    ];
    let mut key = Vec::new();
    for (member, url, want) in vectors {
        hrw_key(&url, &mut key);
        assert_eq!(key, format!("|{url}").into_bytes());
        assert_eq!(hrw_weight(member, &key), want, "{member}|{url}");
        assert_eq!(reference::weight(member, &url), want, "{member}|{url}");
    }
}

/// `members` ranked for `url` by descending reference weight (ties to
/// the larger id).
fn full_ranking(members: &[u32], url: &Url) -> Vec<u32> {
    let mut ranked = members.to_vec();
    ranked.sort_by_key(|&m| std::cmp::Reverse((reference::weight(m, url), m)));
    ranked
}

#[test]
fn owner_falls_through_past_the_memo_when_its_members_are_all_down() {
    let mut coop = CoopCache::new(HRW_MEMO as u32 + 4);
    let url = u(7);
    let ranked = full_ranking(&coop.members, &url);
    coop.request(ranked[0], &url, 100);
    assert_eq!(
        coop.memoised_owner_at(&url, SimTime::ZERO),
        Some(Some(ranked[0]))
    );
    // One more than the memo holds goes down: the owner is the next
    // in the full ranking, which only the argmax fallback can name.
    for &m in &ranked[..=HRW_MEMO] {
        coop.set_member_up(m, false);
    }
    let heir = ranked[HRW_MEMO + 1];
    assert_eq!(
        coop.memoised_owner_at(&url, SimTime::ZERO),
        Some(Some(heir))
    );
    let requester = *ranked.last().expect("members");
    assert_eq!(coop.request(requester, &url, 100), FetchTier::Origin);
    assert_eq!(coop.take_last_fill(), Some((heir, url.clone())));
    // Liveness is read live: members coming back need no invalidation.
    coop.set_member_up(ranked[2], true);
    assert_eq!(
        coop.memoised_owner_at(&url, SimTime::ZERO),
        Some(Some(ranked[2]))
    );
    // Everybody down: no owner, the fill lands at the requester.
    for &m in &ranked {
        coop.set_member_up(m, false);
    }
    assert_eq!(coop.memoised_owner_at(&url, SimTime::ZERO), Some(None));
}

proptest! {
    /// Under any interleaving of liveness flips, breaker outcomes on
    /// an advancing clock (circuits pass through Open and HalfOpen),
    /// joins, departures and requests, the table-based cache and the
    /// reference agree on every tier, fill, statistic and stored
    /// object — and every memoised owner is the argmax over usable
    /// members.
    #[test]
    fn memoised_owner_and_tiers_match_the_reference(
        n in 1u32..10,
        ops in prop::collection::vec((0u8..8, any::<u32>(), any::<u32>()), 1..120),
    ) {
        let mut coop = CoopCache::new(n);
        let mut oracle = ReferenceCoop::new(n);
        let mut now = SimTime::ZERO;
        for (kind, a, b) in ops {
            // Breakers open for 30 s: steps of 0–19 s visit both Open
            // and HalfOpen.
            now += SimDuration::from_secs(u64::from(b % 20));
            let member = coop.members[a as usize % coop.members.len()];
            match kind {
                0 => {
                    coop.set_member_up(member, b & 1 == 0);
                    oracle.set_member_up(member, b & 1 == 0);
                }
                1 | 2 => {
                    // Mostly failures, so circuits do trip.
                    coop.report_lateral_outcome(member, now, b % 5 == 0);
                    oracle.report_lateral_outcome(member, now, b % 5 == 0);
                }
                3 if coop.member_count() < 12 => {
                    prop_assert_eq!(coop.add_member(), oracle.add_member());
                }
                4 if coop.member_count() > 1 => {
                    prop_assert_eq!(coop.remove_member(member), oracle.remove_member(member));
                }
                _ => {
                    let url = u(b % 6);
                    prop_assert_eq!(
                        coop.request_at(member, &url, 100, now),
                        oracle.request_at(member, &url, 100, now)
                    );
                    prop_assert_eq!(coop.take_last_fill(), oracle.take_last_fill());
                }
            }
            for i in 0..6 {
                if let Some(owner) = coop.memoised_owner_at(&u(i), now) {
                    prop_assert_eq!(owner, oracle.owner_usable_at(&u(i), now));
                    prop_assert_eq!(owner, coop.owner_usable_at(&u(i), now));
                }
            }
        }
        prop_assert_eq!(coop.stats(), oracle.stats());
        prop_assert_eq!(&coop.contents(), oracle.contents());
    }

    /// Deleting a slot renumbers the higher slots down by one, across
    /// word boundaries.
    #[test]
    fn slot_set_remove_renumbers_like_a_sorted_list(
        slots in prop::collection::btree_set(0usize..200, 0..40),
        victim in 0usize..200,
    ) {
        let mut set = SlotSet::default();
        for &s in &slots {
            set.insert(s);
        }
        prop_assert_eq!(set.remove_slot(victim), slots.contains(&victim));
        let want: Vec<usize> = slots
            .iter()
            .filter(|&&s| s != victim)
            .map(|&s| if s > victim { s - 1 } else { s })
            .collect();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(set.len(), want.len());
        prop_assert_eq!(set.is_empty(), want.is_empty());
        for s in 0..200 {
            prop_assert_eq!(set.contains(s), want.contains(&s));
        }
    }
}

/// A flash crowd on a few head objects against a small admission
/// budget, with neighbors failing and recovering underneath: 5,000
/// requests whose every `Result<FetchTier, Overloaded>`, fill and
/// final statistic must match the reference.
#[test]
fn overload_trace_is_identical_to_the_reference() {
    const MEMBERS: u32 = 16;
    let cfg = CoopOverloadConfig {
        admission: AdmissionConfig {
            rate_per_sec: 60.0,
            burst: 400.0,
            ..AdmissionConfig::default()
        },
        ..CoopOverloadConfig::default()
    };
    let mut coop = CoopCache::new(MEMBERS);
    let mut oracle = ReferenceCoop::new(MEMBERS);
    coop.enable_overload(cfg, SimTime::ZERO);
    oracle.enable_overload(cfg, SimTime::ZERO);

    let mut rng = StdRng::seed_from_u64(0xc00b);
    let mut now = SimTime::ZERO;
    let mut rungs = BTreeSet::new();
    let (mut refused, mut stale) = (0, 0);
    for i in 0..5_000u32 {
        // 20 requests/s, except a 100 requests/s crowd in the middle
        // that drains the bucket past every rung of the ladder.
        let crowd = (1_500..3_500).contains(&i);
        now += SimDuration::from_millis(if crowd { 10 } else { 50 });
        if i % 61 == 0 {
            let (m, up) = (rng.gen_range(0..MEMBERS), rng.gen_bool(0.5));
            coop.set_member_up(m, up);
            oracle.set_member_up(m, up);
        }
        if i % 17 == 0 {
            let (m, ok) = (rng.gen_range(0..MEMBERS), rng.gen_bool(0.3));
            coop.report_lateral_outcome(m, now, ok);
            oracle.report_lateral_outcome(m, now, ok);
        }
        if i == 2_000 {
            // A serving queue filling up adds to the crowd's pressure.
            coop.set_queue_pressure(0.8);
            oracle.set_queue_pressure(0.8);
        }
        if i == 3_000 {
            coop.set_queue_pressure(0.0);
            oracle.set_queue_pressure(0.0);
        }
        let member = rng.gen_range(0..MEMBERS);
        let url = if crowd && rng.gen_bool(0.7) {
            u(rng.gen_range(0..4))
        } else {
            u(rng.gen_range(0..400))
        };
        let got = coop.try_request_at(member, &url, 1_000, now);
        let want = oracle.try_request_at(member, &url, 1_000, now);
        assert_eq!(got, want, "request {i}");
        assert_eq!(
            coop.take_last_fill(),
            oracle.take_last_fill(),
            "request {i}"
        );
        rungs.insert(coop.brownout_level());
        refused += u32::from(got.is_err());
        stale += u32::from(got == Ok(FetchTier::Stale));
    }
    assert_eq!(coop.stats(), oracle.stats());
    assert_eq!(&coop.contents(), oracle.contents());
    // The trace really did climb the ladder and take the paths that
    // read the holder set.
    assert!(rungs.contains(&BrownoutLevel::StaleAllowed), "{rungs:?}");
    assert!(rungs.contains(&BrownoutLevel::RedirectOrigin), "{rungs:?}");
    assert!(refused > 0 && stale > 0, "refused {refused}, stale {stale}");
    assert!(coop.stored_objects() > coop.table.len(), "hot replicas");
}

/// An object's popularity window opens at its first admitted request
/// (not at the epoch, and not when its entry was created by an
/// unmetered `request_at`).
#[test]
fn popularity_window_opens_at_the_first_metered_request() {
    let cfg = CoopOverloadConfig {
        hot_threshold: 3,
        ..CoopOverloadConfig::default()
    };
    let mut coop = CoopCache::new(4);
    let mut oracle = ReferenceCoop::new(4);
    let url = u(1);
    let owner = coop.owner_of(&url);
    coop.request_at(owner, &url, 100, SimTime::ZERO);
    oracle.request_at(owner, &url, 100, SimTime::ZERO);
    coop.enable_overload(cfg, SimTime::ZERO);
    oracle.enable_overload(cfg, SimTime::ZERO);
    // 8 s, 9 s, 12 s: one 10 s window if it opened at 8 s, two if it
    // had opened at 0 s.
    for (requester, secs) in [(1, 8), (2, 9), (3, 12)] {
        let requester = (owner + requester) % 4;
        let now = SimTime::from_secs(secs);
        assert_eq!(
            coop.try_request_at(requester, &url, 100, now),
            oracle.try_request_at(requester, &url, 100, now)
        );
    }
    assert_eq!(coop.stored_objects(), 2, "third request was hot");
    assert_eq!(&coop.contents(), oracle.contents());
}

/// The table holds exactly the distinct cached objects: a refused
/// request leaves nothing behind, a popularity counter is not a second
/// map, and a departure takes the entries it orphaned with it.
#[test]
fn table_is_bounded_by_the_distinct_cached_objects() {
    let mut coop = CoopCache::new(8);
    coop.enable_overload(
        CoopOverloadConfig {
            admission: AdmissionConfig {
                rate_per_sec: 1_000.0,
                burst: 1_000.0,
                ..AdmissionConfig::default()
            },
            ..CoopOverloadConfig::default()
        },
        SimTime::ZERO,
    );
    let mut admitted = 0;
    for i in 0..50_000u32 {
        // 2,000 requests/s against 1,000/s: about half are refused.
        let now = SimTime::from_nanos(u64::from(i) * 500_000);
        admitted += usize::from(coop.try_request_at(i % 8, &u(i), 100, now).is_ok());
    }
    assert!(coop.overload_rejected() > 10_000);
    assert_eq!(coop.table.len(), admitted);
    assert_eq!(coop.stored_objects(), admitted, "one copy each");

    for member in 0..7 {
        let held = coop.contents()[&member].len();
        let before = coop.table.len();
        assert_eq!(coop.remove_member(member), held);
        assert_eq!(coop.table.len(), before - held, "orphans dropped");
        assert!(coop.table.values().all(|e| !e.holders.is_empty()));
    }
    assert_eq!(coop.table.len(), coop.contents()[&7].len());
}

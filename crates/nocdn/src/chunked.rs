//! Chunked multi-peer downloads.
//!
//! §IV-B ("Leveraging Redundancy"): "clients could download objects in
//! chunks (e.g., using HTTP range requests) from disparate peers instead
//! of as entire objects … These options both spread the load and lower
//! the chance that one problematic peer — be it malicious or overloaded
//! — will have a large overall impact on the client." One such download
//! is a `ChunkFetch` machine (`fetch.rs`); [`ResilientFetcher::fetch`]
//! drives it against a peer map and an origin.

use crate::body::Body;
use crate::fetch::{ChunkFetch, Effect};
use crate::origin::{slice_range, ContentProvider};
use crate::peer::{NoCdnPeer, PeerId};
use hpop_crypto::sha256::Digest;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_obs::SpanTracer;
use hpop_resilience::{AdmissionBank, AdmissionConfig, BreakerBank, Deadline, Hedge};
use std::collections::BTreeMap;

/// The outcome of a chunked fetch.
#[derive(Clone, Debug, Default)]
pub struct ChunkedReport {
    /// Bytes obtained per peer (verified object only).
    pub bytes_per_peer: BTreeMap<u32, u64>,
    /// Chunks re-fetched from the origin (peer bad or range corrupt).
    pub fallback_chunks: usize,
    /// Chunks where a hedged second request was launched.
    pub hedged_chunks: usize,
    /// Peers whose chunks failed the reassembly integrity check
    /// (deduplicated) — the caller reports these to the directory
    /// ledger.
    pub corrupt_peers: Vec<u32>,
    /// Whether the assembled object verified against the whole-object
    /// hash.
    pub verified: bool,
}

/// A chunked-fetch client with the full resilience stack — per-peer
/// circuit breakers and admission, budgeted retries under a
/// [`Deadline`], hedged second requests that stand down under
/// saturation, and origin fallback — run by one `ChunkFetch` per
/// fetch. [`ResilientFetcher::default`] builds one with every breaker
/// closed, the hedge cold and per-peer admission at [`AdmissionConfig::default`].
#[derive(Clone, Debug)]
pub struct ResilientFetcher {
    /// Per-peer circuit breakers (keyed by raw peer id).
    pub breakers: BreakerBank<u32>,
    /// Per-peer admission: token-bucket rate + AIMD concurrency caps,
    /// so one saturated peer is routed around instead of queued on. A
    /// caller that needs other caps replaces the bank.
    pub admission: AdmissionBank<u32>,
    /// The p99-informed hedge trigger, warmed by observed latencies and
    /// gated off by the fetcher's own breaker-bank and admission
    /// saturation.
    pub hedge: Hedge,
    /// Causal span tracer. Each [`ResilientFetcher::fetch`] opens one
    /// root `"request"` span and nests `"transfer"` / `"retry"` /
    /// `"hedge"` / `"verify"` / `"origin_fallback"` children under it.
    /// Defaults to a disabled tracer, which costs one atomic load per
    /// fetch.
    pub spans: SpanTracer,
}

impl Default for ResilientFetcher {
    fn default() -> ResilientFetcher {
        ResilientFetcher {
            breakers: BreakerBank::default(),
            admission: AdmissionBank::new(AdmissionConfig::default()),
            hedge: Hedge::default(),
            spans: SpanTracer::new(1),
        }
    }
}

impl ResilientFetcher {
    /// Fetches one object in `n_chunks` range requests with breakers,
    /// retries, hedging and origin fallback, as the sync driver of a
    /// `ChunkFetch`: a peer transfer is answered from `peers` in the
    /// time `latency_of` gives (experiments derive the oracle from the
    /// fault plan), an origin transfer from `origin` in no time, and each
    /// sleep advances `*now`. An empty `peer_order` is not an error:
    /// every chunk falls back to the origin.
    ///
    /// # Panics
    ///
    /// Panics if the object is unknown at the origin.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch(
        &mut self,
        path: &str,
        n_chunks: usize,
        expected: &Digest,
        peer_order: &[PeerId],
        peers: &mut BTreeMap<PeerId, NoCdnPeer>,
        origin: &mut ContentProvider,
        deadline: Deadline,
        now: &mut SimTime,
        latency_of: &dyn Fn(PeerId) -> SimDuration,
    ) -> (ChunkedReport, Body) {
        let len = origin
            .peek_object(path)
            .unwrap_or_else(|| panic!("unknown object {path}"))
            .len() as u64;
        let host = origin.host().to_owned();
        let mut fetch = ChunkFetch::new(self, path, len, n_chunks, expected, peer_order, deadline);
        let mut effect = fetch.start(*now);
        loop {
            effect = match effect {
                Effect::Peer(p, range) => {
                    // A peer serves the whole object from its cache and the
                    // client takes the range (peers are plain proxies).
                    let body = peers
                        .get_mut(&p)
                        .and_then(|peer| peer.serve(&host, path, origin));
                    fetch.on_transfer(*now, body.map(|b| slice_range(&b, &range)), latency_of(p))
                }
                Effect::Origin(range) => {
                    let body = match range {
                        Some(r) => origin.fetch_range(path, &r),
                        None => origin.fetch_object(path),
                    };
                    fetch.on_transfer(*now, body, SimDuration::ZERO)
                }
                Effect::Sleep(pause) => {
                    *now += pause;
                    fetch.on_wake(*now)
                }
                Effect::Done(report, body) => return (report, body),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::PeerBehavior;
    use hpop_crypto::sha256::Sha256;

    fn setup(behaviors: &[PeerBehavior]) -> (ContentProvider, BTreeMap<PeerId, NoCdnPeer>, Digest) {
        let mut origin = ContentProvider::new("cdn.example");
        let body: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let digest = Sha256::digest(&body);
        origin.put_object("/big.bin", body);
        let peers = behaviors
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                (
                    PeerId(i as u32),
                    NoCdnPeer::with_behavior(PeerId(i as u32), b),
                )
            })
            .collect();
        (origin, peers, digest)
    }

    fn order(n: u32) -> Vec<PeerId> {
        (0..n).map(PeerId).collect()
    }

    /// One fetch by a fresh fetcher at time zero with no deadline and
    /// `latency_of`; returns the report, the object and the end time.
    fn fetch_with(
        origin: &mut ContentProvider,
        peers: &mut BTreeMap<PeerId, NoCdnPeer>,
        digest: &Digest,
        n_chunks: usize,
        order: &[PeerId],
        latency_of: &dyn Fn(PeerId) -> SimDuration,
    ) -> (ChunkedReport, Body, SimTime) {
        let mut now = SimTime::ZERO;
        let (report, body) = resilient().fetch(
            "/big.bin",
            n_chunks,
            digest,
            order,
            peers,
            origin,
            Deadline::UNBOUNDED,
            &mut now,
            latency_of,
        );
        (report, body, now)
    }

    #[test]
    fn spreads_load_across_peers() {
        let (mut origin, mut peers, digest) = setup(&[PeerBehavior::Honest; 4]);
        let (report, body, _) = fetch_with(
            &mut origin,
            &mut peers,
            &digest,
            8,
            &order(4),
            &flat_latency,
        );
        assert!(report.verified);
        assert_eq!(body.len(), 100_000);
        assert_eq!(report.bytes_per_peer.len(), 4);
        // Each peer served ~2 chunks = ~25 KB.
        for (&p, &b) in &report.bytes_per_peer {
            assert!((20_000..30_000).contains(&b), "peer {p} served {b}");
        }
    }

    #[test]
    fn one_corrupting_peer_costs_only_its_chunks() {
        let (mut origin, mut peers, digest) = setup(&[
            PeerBehavior::Honest,
            PeerBehavior::CorruptsContent,
            PeerBehavior::Honest,
            PeerBehavior::Honest,
        ]);
        let (report, body, _) = fetch_with(
            &mut origin,
            &mut peers,
            &digest,
            8,
            &order(4),
            &flat_latency,
        );
        assert!(report.verified);
        assert_eq!(body.len(), 100_000);
        // Peer 1's chunks were repaired; it earned nothing.
        assert!(!report.bytes_per_peer.contains_key(&1));
        // Honest peers were still credited for their verified chunks.
        assert_eq!(report.bytes_per_peer.len(), 3);
        // Only the corrupted chunks fell back.
        assert_eq!(report.fallback_chunks, 2);
    }

    #[test]
    fn unresponsive_peer_only_delays_its_chunks() {
        let (mut origin, mut peers, digest) =
            setup(&[PeerBehavior::Honest, PeerBehavior::Unresponsive]);
        let (report, body, now) = fetch_with(
            &mut origin,
            &mut peers,
            &digest,
            4,
            &order(2),
            &flat_latency,
        );
        assert!(report.verified);
        assert_eq!(body.len(), 100_000);
        // The dead peer's chunks were retried on the live one after a
        // backoff pause each: four 1 ms chunks took longer than 4 ms.
        assert_eq!(report.fallback_chunks, 0);
        assert_eq!(report.bytes_per_peer.len(), 1);
        assert!(now > SimTime::ZERO + SimDuration::from_millis(4), "{now:?}");
    }

    #[test]
    fn fallback_chunks_charge_the_origin_their_ranges_only() {
        let (mut origin, mut peers, digest) = setup(&[
            PeerBehavior::Honest,
            PeerBehavior::Unresponsive,
            PeerBehavior::Honest,
        ]);
        // Warm the honest caches so the fetches cost the origin nothing
        // but the fallbacks.
        for p in [0, 2] {
            let peer = peers.get_mut(&PeerId(p)).unwrap();
            peer.serve("cdn.example", "/big.bin", &mut origin).unwrap();
        }
        // 7 chunks round-robin over 3 peers: chunks 1 and 4 land on the
        // dead peer, and a budget shorter than any backoff pause sends
        // them to the origin.
        let ranges = hpop_http::range::ByteRange::split(100_000, 7);
        let fallen = ranges[1].len() + ranges[4].len();

        let before = origin.origin_bytes;
        let mut now = SimTime::ZERO;
        let (report, _) = resilient().fetch(
            "/big.bin",
            7,
            &digest,
            &order(3),
            &mut peers,
            &mut origin,
            Deadline::after(now, SimDuration::from_millis(10)),
            &mut now,
            &flat_latency,
        );
        assert!(report.verified);
        assert_eq!(report.fallback_chunks, 2);
        assert_eq!(origin.origin_bytes - before, fallen);

        // With nobody to ask, all 7 fall back.
        let before = origin.origin_bytes;
        let (report, _, _) = fetch_with(&mut origin, &mut peers, &digest, 7, &[], &flat_latency);
        assert_eq!(report.fallback_chunks, 7);
        assert_eq!(origin.origin_bytes - before, 100_000);
    }

    #[test]
    fn whole_object_path_matches_chunked_result() {
        let (mut origin, mut peers, digest) = setup(&[PeerBehavior::Honest]);
        let (_, body, _) = fetch_with(
            &mut origin,
            &mut peers,
            &digest,
            1,
            &order(1),
            &flat_latency,
        );
        assert_eq!(
            body.to_vec(),
            origin.peek_object("/big.bin").unwrap().to_vec()
        );
    }

    #[test]
    fn truncating_peer_repaired_not_panicking() {
        let (mut origin, mut peers, digest) =
            setup(&[PeerBehavior::Honest, PeerBehavior::Truncates]);
        let (report, body, _) = fetch_with(
            &mut origin,
            &mut peers,
            &digest,
            4,
            &order(2),
            &flat_latency,
        );
        assert!(report.verified);
        assert_eq!(body.len(), 100_000);
        assert_eq!(
            body.to_vec(),
            origin.peek_object("/big.bin").unwrap().to_vec()
        );
        assert!(report.corrupt_peers.contains(&1));
    }

    /// Repair blames by offset in the chunks as taken, in order. Eight
    /// 12,500-byte chunks rotate over an honest peer, a truncating one,
    /// a corrupting one and another honest one. The truncating peer
    /// holds only the object's first half, so its chunk 1 is whole and
    /// its chunk 5 is empty. The empty chunk shifts chunk 7 past the
    /// end of what was taken, so honest peer 3 is blamed with the two
    /// bad ones. These values were captured from the reassembled-copy
    /// comparison at commit e4a4aff.
    #[test]
    fn repair_blames_a_short_chunk_and_what_it_shifts() {
        let (mut origin, mut peers, digest) = setup(&[
            PeerBehavior::Honest,
            PeerBehavior::Truncates,
            PeerBehavior::CorruptsContent,
            PeerBehavior::Honest,
        ]);
        let (report, body, _) = fetch_with(
            &mut origin,
            &mut peers,
            &digest,
            8,
            &order(4),
            &flat_latency,
        );
        assert!(report.verified);
        assert_eq!(
            body.to_vec(),
            origin.peek_object("/big.bin").unwrap().to_vec()
        );
        assert_eq!(report.corrupt_peers, vec![2, 1, 3]);
        assert_eq!(report.fallback_chunks, 4);
        assert_eq!(
            report.bytes_per_peer,
            BTreeMap::from([(0, 25_000), (1, 12_500), (3, 12_500)])
        );
    }

    // --- ResilientFetcher ---

    fn flat_latency(_: PeerId) -> SimDuration {
        SimDuration::from_millis(1)
    }

    fn resilient() -> ResilientFetcher {
        ResilientFetcher::default()
    }

    #[test]
    fn resilient_retries_around_unresponsive_peer_without_origin() {
        let (mut origin, mut peers, digest) = setup(&[
            PeerBehavior::Honest,
            PeerBehavior::Unresponsive,
            PeerBehavior::Honest,
            PeerBehavior::Honest,
        ]);
        let mut f = resilient();
        let mut now = SimTime::ZERO;
        let (report, body) = f.fetch(
            "/big.bin",
            8,
            &digest,
            &order(4),
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now,
            &flat_latency,
        );
        assert!(report.verified);
        assert_eq!(body.len(), 100_000);
        // The dead peer's chunks were *retried against other peers*,
        // not surrendered to the origin.
        assert_eq!(report.fallback_chunks, 0);
        assert!(!report.bytes_per_peer.contains_key(&1));
        // Retrying cost simulated backoff time.
        assert!(now > SimTime::ZERO);
    }

    #[test]
    fn resilient_breaker_opens_on_repeat_offender() {
        let (mut origin, mut peers, digest) = setup(&[
            PeerBehavior::Honest,
            PeerBehavior::Unresponsive,
            PeerBehavior::Honest,
        ]);
        let mut f = resilient();
        let mut now = SimTime::ZERO;
        for _ in 0..3 {
            let (report, _) = f.fetch(
                "/big.bin",
                6,
                &digest,
                &order(3),
                &mut peers,
                &mut origin,
                Deadline::UNBOUNDED,
                &mut now,
                &flat_latency,
            );
            assert!(report.verified);
        }
        use hpop_resilience::BreakerState;
        assert_ne!(f.breakers.state(1, now), BreakerState::Closed);
    }

    #[test]
    fn resilient_corrupt_peer_feeds_breaker_and_report() {
        let (mut origin, mut peers, digest) = setup(&[
            PeerBehavior::Honest,
            PeerBehavior::CorruptsContent,
            PeerBehavior::Honest,
            PeerBehavior::Honest,
        ]);
        // Round-robin over four peers hands the corrupt one exactly
        // `FAILURE_THRESHOLD` chunks.
        use hpop_resilience::breaker::FAILURE_THRESHOLD;
        let chunks = 4 * FAILURE_THRESHOLD as usize;
        let mut f = resilient();
        let mut now = SimTime::ZERO;
        let (report, body) = f.fetch(
            "/big.bin",
            chunks,
            &digest,
            &order(4),
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now,
            &flat_latency,
        );
        assert!(report.verified, "page must never fail");
        assert_eq!(body.len(), 100_000);
        assert_eq!(report.corrupt_peers, vec![1]);
        // The corrupt chunks were repaired against the origin and the
        // breaker took every failure — the circuit is now open.
        use hpop_resilience::BreakerState;
        assert_eq!(f.breakers.state(1, now), BreakerState::Open);
        // The next fetch routes nothing through the tripped peer.
        let (r2, _) = f.fetch(
            "/big.bin",
            8,
            &digest,
            &order(4),
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now,
            &flat_latency,
        );
        assert!(r2.verified);
        assert!(r2.corrupt_peers.is_empty());
        assert!(!r2.bytes_per_peer.contains_key(&1));
    }

    #[test]
    fn resilient_hedges_slow_peer() {
        let (mut origin, mut peers, digest) = setup(&[PeerBehavior::Honest; 3]);
        let mut f = resilient();
        // Peer 0 serves at a crawl (beyond the cold 500 ms trigger);
        // the others are fast.
        let latency = |p: PeerId| {
            if p.0 == 0 {
                SimDuration::from_secs(5)
            } else {
                SimDuration::from_millis(2)
            }
        };
        let mut now = SimTime::ZERO;
        let (report, body) = f.fetch(
            "/big.bin",
            6,
            &digest,
            &order(3),
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now,
            &latency,
        );
        assert!(report.verified);
        assert_eq!(body.len(), 100_000);
        assert!(report.hedged_chunks >= 1, "{report:?}");
        // The hedge capped the slow peer's chunk latency: total elapsed
        // is far below 2 chunks x 5 s.
        assert!(now < SimTime::from_secs(5));
    }

    #[test]
    fn hedged_load_stays_flat_during_burst() {
        // Regression for hedging amplification: once the fetcher's own
        // per-peer admission is saturated, a burst of slow fetches must
        // not fire a single hedge — the second-request load stays flat
        // at zero instead of doubling exactly when the peers can least
        // afford it.
        let (mut origin, mut peers, digest) = setup(&[PeerBehavior::Honest; 3]);
        // Every peer is slow: far past the 500 ms cold trigger.
        let slow = |_: PeerId| SimDuration::from_secs(5);
        // Two-token peer buckets refilling at one token per 1,000 s.
        let mut f = resilient();
        f.admission = AdmissionBank::new(AdmissionConfig {
            rate_per_sec: 0.001,
            burst: 2.0,
            ..AdmissionConfig::default()
        });
        let mut now = SimTime::ZERO;
        let mut fetch = |f: &mut ResilientFetcher, now: &mut SimTime| {
            let (r, body) = f.fetch(
                "/big.bin",
                1,
                &digest,
                &order(3),
                &mut peers,
                &mut origin,
                Deadline::UNBOUNDED,
                now,
                &slow,
            );
            assert!(r.verified);
            assert_eq!(body.len(), 100_000);
            r
        };

        // Idle peers: the slow primary is hedged as usual.
        let idle = fetch(&mut f, &mut now);
        assert_eq!(idle.hedged_chunks, 1, "{idle:?}");

        // Flash crowd: each fetch drains a bucket, so the bank reads
        // saturated while peers still admit primaries (and would admit
        // a second request).
        let (mut hedged_during_burst, mut peer_served) = (0, 0);
        for _ in 0..5 {
            let r = fetch(&mut f, &mut now);
            hedged_during_burst += r.hedged_chunks;
            peer_served += usize::from(!r.bytes_per_peer.is_empty());
        }
        assert_eq!(hedged_during_burst, 0, "hedges fired into a burst");
        assert_eq!(
            peer_served, 4,
            "peers kept serving until their buckets ran dry"
        );

        // Recovery: the buckets refill and hedging resumes.
        now += SimDuration::from_secs(3_600);
        let after = fetch(&mut f, &mut now);
        assert_eq!(after.hedged_chunks, 1, "{after:?}");
    }

    #[test]
    fn admission_caps_rotate_past_saturated_peer() {
        let (mut origin, mut peers, digest) = setup(&[PeerBehavior::Honest; 3]);
        // Peer buckets: 2-token burst, glacial refill — after two
        // serves a peer is rate-capped and must be rotated past.
        let mut f = resilient();
        f.admission = AdmissionBank::new(AdmissionConfig {
            rate_per_sec: 0.1,
            burst: 2.0,
            ..AdmissionConfig::default()
        });
        let mut now = SimTime::ZERO;
        let (report, body) = f.fetch(
            "/big.bin",
            6,
            &digest,
            &order(3),
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now,
            &flat_latency,
        );
        assert!(report.verified);
        assert_eq!(body.len(), 100_000);
        // 6 chunks across 3 peers with a per-peer burst of 2: every
        // peer served at most 2 chunks, nobody was hammered past its
        // cap.
        assert_eq!(report.fallback_chunks, 0);
        assert_eq!(report.bytes_per_peer.len(), 3);
        let max_chunk = 100_000u64.div_ceil(6) + 6;
        for (&p, &b) in &report.bytes_per_peer {
            assert!(b <= 2 * max_chunk, "peer {p} over its 2-chunk cap: {b}");
        }
    }

    #[test]
    fn resilient_empty_peer_order_is_all_origin_not_panic() {
        let (mut origin, mut peers, digest) = setup(&[PeerBehavior::Honest]);
        let mut f = resilient();
        let mut now = SimTime::ZERO;
        let (report, body) = f.fetch(
            "/big.bin",
            4,
            &digest,
            &[],
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now,
            &flat_latency,
        );
        assert!(report.verified);
        assert_eq!(body.len(), 100_000);
        assert_eq!(report.fallback_chunks, 4);
    }

    #[test]
    fn resilient_fetch_emits_well_formed_span_tree() {
        let (mut origin, mut peers, digest) = setup(&[
            PeerBehavior::Honest,
            PeerBehavior::Unresponsive,
            PeerBehavior::Honest,
        ]);
        let mut f = resilient();
        let tracer = SpanTracer::new(1024);
        tracer.enable();
        f.spans = tracer.clone();
        let mut now = SimTime::ZERO;
        let (report, _) = f.fetch(
            "/big.bin",
            6,
            &digest,
            &order(3),
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now,
            &flat_latency,
        );
        assert!(report.verified);
        let (trees, malformed) = hpop_obs::build_traces(&tracer.take());
        assert_eq!(malformed, 0);
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.root().stage, "request");
        // The whole fetch latency is attributed across stages exactly.
        let attrib = tree.attribution();
        let sum: u64 = attrib.values().sum();
        assert_eq!(sum, tree.duration_us());
        assert!(attrib.contains_key("transfer"), "{attrib:?}");
        // The dead peer forced backoff pauses, so retry time shows up.
        assert!(attrib.get("retry").copied().unwrap_or(0) > 0, "{attrib:?}");
        // Stage labels are drawn from the documented vocabulary.
        for stage in attrib.keys() {
            assert!(
                [
                    "request",
                    "transfer",
                    "retry",
                    "hedge",
                    "verify",
                    "origin_fallback"
                ]
                .contains(&stage.as_str()),
                "unexpected stage {stage}"
            );
        }
        // A disabled tracer records nothing for the same fetch.
        let mut quiet = resilient();
        let silent = SpanTracer::new(1024);
        quiet.spans = silent.clone();
        let mut now2 = SimTime::ZERO;
        quiet.fetch(
            "/big.bin",
            6,
            &digest,
            &order(3),
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now2,
            &flat_latency,
        );
        assert!(silent.take().is_empty());
    }

    #[test]
    fn resilient_hedged_fetch_nests_hedge_spans() {
        let (mut origin, mut peers, digest) = setup(&[PeerBehavior::Honest; 3]);
        let mut f = resilient();
        let tracer = SpanTracer::new(1024);
        tracer.enable();
        f.spans = tracer.clone();
        let latency = |p: PeerId| {
            if p.0 == 0 {
                SimDuration::from_secs(5)
            } else {
                SimDuration::from_millis(2)
            }
        };
        let mut now = SimTime::ZERO;
        let (report, _) = f.fetch(
            "/big.bin",
            6,
            &digest,
            &order(3),
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now,
            &latency,
        );
        assert!(report.hedged_chunks >= 1);
        let (trees, malformed) = hpop_obs::build_traces(&tracer.take());
        assert_eq!(malformed, 0, "hedge spans must nest inside their chunk");
        let attrib = trees[0].attribution();
        assert!(attrib.get("hedge").copied().unwrap_or(0) > 0, "{attrib:?}");
    }

    #[test]
    fn resilient_truncating_peer_detected_and_repaired() {
        let (mut origin, mut peers, digest) =
            setup(&[PeerBehavior::Honest, PeerBehavior::Truncates]);
        let mut f = resilient();
        let mut now = SimTime::ZERO;
        let (report, body) = f.fetch(
            "/big.bin",
            4,
            &digest,
            &order(2),
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now,
            &flat_latency,
        );
        assert!(report.verified);
        assert_eq!(body.len(), 100_000);
        assert!(report.corrupt_peers.contains(&1));
    }
}

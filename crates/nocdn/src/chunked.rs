//! Chunked multi-peer downloads.
//!
//! §IV-B ("Leveraging Redundancy"): "clients could download objects in
//! chunks (e.g., using HTTP range requests) from disparate peers instead
//! of as entire objects … These options both spread the load and lower
//! the chance that one problematic peer — be it malicious or overloaded
//! — will have a large overall impact on the client."

use crate::origin::{slice_range, ContentProvider};
use crate::peer::{NoCdnPeer, PeerId};
use bytes::Bytes;
use hpop_crypto::sha256::{Digest, Sha256};
use hpop_http::range::ByteRange;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_obs::{event, HistogramHandle, SpanScope, SpanTracer};
use hpop_resilience::{retry, AdmissionBank, AdmissionConfig, BreakerBank, Deadline, Hedge};
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

/// Fetches one object in `n` range chunks, each from the next peer in
/// `peers` (round-robin). Chunks from bad peers are detected by the
/// whole-object hash; on failure the object is re-fetched chunk-by-chunk
/// with per-chunk comparison against the origin (the "problematic peer"
/// containment the paper wants: only the bad chunk is re-fetched).
///
/// # Panics
///
/// Panics if `peers` is empty or the object is unknown at the origin.
pub fn fetch_chunked(
    path: &str,
    n_chunks: usize,
    expected: &Digest,
    peer_order: &[PeerId],
    peers: &mut BTreeMap<PeerId, NoCdnPeer>,
    origin: &mut ContentProvider,
) -> (ChunkedReport, Bytes) {
    assert!(!peer_order.is_empty(), "need at least one peer");
    let (mut asm, ranges) = match Assembly::begin(path, n_chunks, expected, origin) {
        Ok(planned) => planned,
        Err(empty) => return empty,
    };
    let host = origin.host().to_owned();
    for (i, range) in ranges.iter().enumerate() {
        let peer_id = peer_order[i % peer_order.len()];
        // A peer serves the whole object from its cache and the client
        // takes the range (peers are plain proxies honoring Range).
        let chunk = peers
            .get_mut(&peer_id)
            .and_then(|p| p.serve(&host, path, origin))
            .map(|body| slice_range(&body, range));
        match chunk {
            Some(c) => {
                asm.push(range, Some(peer_id), &c);
                event!(
                    hpop_obs::spans(),
                    0,
                    "nocdn",
                    "chunk.fetch",
                    path = path,
                    peer = peer_id.0,
                    bytes = c.len() as u64
                );
            }
            None => asm.fall_back(range, origin),
        }
    }
    let verify_hist = hpop_obs::metrics().histogram("nocdn.chunk.verify_ns");
    asm.finish(origin, Some(&verify_hist), |_| {})
}

/// A chunked fetch in progress: the chunks assembled so far and where
/// each came from. [`fetch_chunked`] and [`ResilientFetcher::fetch`]
/// differ only in how they source a chunk; planning the ranges, the
/// origin fallback and the verify → repair → re-verify tail are here.
struct Assembly<'a> {
    path: &'a str,
    expected: &'a Digest,
    assembled: Vec<u8>,
    sources: Vec<(ByteRange, Option<PeerId>)>,
    report: ChunkedReport,
}

impl<'a> Assembly<'a> {
    /// Plans the fetch of `path` as `n_chunks` ranges to source in
    /// order. A zero-length object has nothing to fetch: its finished
    /// result is the `Err`.
    ///
    /// # Panics
    ///
    /// Panics if the object is unknown at the origin.
    fn begin(
        path: &'a str,
        n_chunks: usize,
        expected: &'a Digest,
        origin: &ContentProvider,
    ) -> Result<(Assembly<'a>, Vec<ByteRange>), (ChunkedReport, Bytes)> {
        let total = origin
            .peek_object(path)
            .unwrap_or_else(|| panic!("unknown object {path}"))
            .len() as u64;
        let mut report = ChunkedReport::default();
        if total == 0 {
            report.verified = Sha256::digest(b"").ct_eq(expected);
            return Err((report, Bytes::new()));
        }
        let asm = Assembly {
            path,
            expected,
            assembled: Vec::with_capacity(total as usize),
            sources: Vec::new(),
            report,
        };
        Ok((asm, ByteRange::split(total, n_chunks)))
    }

    /// Appends the next chunk, served by `src` (`None`: the origin).
    fn push(&mut self, range: &ByteRange, src: Option<PeerId>, chunk: &[u8]) {
        let m = hpop_obs::metrics();
        m.counter(match src {
            Some(_) => "nocdn.chunks.from_peer",
            None => "nocdn.chunks.from_origin",
        })
        .incr();
        m.histogram("nocdn.chunk.bytes").record(chunk.len() as u64);
        self.assembled.extend_from_slice(chunk);
        self.sources.push((*range, src));
    }

    /// Origin fallback for a chunk no peer delivered: the origin serves
    /// (and is charged for) just that range.
    fn fall_back(&mut self, range: &ByteRange, origin: &mut ContentProvider) {
        let chunk = origin
            .fetch_range(self.path, range)
            .expect("begin() saw the object");
        self.push(range, None, &chunk);
        self.report.fallback_chunks += 1;
    }

    /// Whole-object verification over the multi-peer reassembly — the
    /// only check that catches cross-chunk corruption — timed into
    /// `verify_hist` when given. On failure the chunks are compared
    /// against the authentic object (the "problematic peer" containment
    /// the paper wants: only the bad chunk is replaced, only honest
    /// peers are credited), `on_corrupt_chunk` hears of each bad chunk's
    /// peer, and the repaired object is verified again.
    fn finish(
        self,
        origin: &mut ContentProvider,
        verify_hist: Option<&HistogramHandle>,
        mut on_corrupt_chunk: impl FnMut(PeerId),
    ) -> (ChunkedReport, Bytes) {
        let Assembly {
            path,
            expected,
            assembled,
            sources,
            mut report,
        } = self;
        let verify_timer = verify_hist.map(HistogramHandle::time);
        let whole_ok = Sha256::digest(&assembled).ct_eq(expected);
        drop(verify_timer);
        event!(
            hpop_obs::spans(),
            0,
            "nocdn",
            "chunk.verify",
            path = path,
            ok = whole_ok,
            chunks = sources.len() as u64
        );
        if whole_ok {
            hpop_obs::metrics().counter("nocdn.verify.ok").incr();
            for (range, src) in &sources {
                if let Some(p) = src {
                    *report.bytes_per_peer.entry(p.0).or_default() += range.len();
                }
            }
            report.verified = true;
            return (report, Bytes::from(assembled));
        }

        hpop_obs::metrics().counter("nocdn.verify.failed").incr();
        let authentic = origin.fetch_object(path).expect("begin() saw the object");
        let mut repaired = Vec::with_capacity(authentic.len());
        for (range, src) in &sources {
            let start = range.start as usize;
            let end = (range.end + 1) as usize;
            let truth = &authentic[start..end];
            // `get` (not indexing): a misbehaving peer may have served a
            // short body, leaving the assembly truncated mid-chunk.
            if assembled.get(start..end) == Some(truth) {
                if let Some(p) = src {
                    *report.bytes_per_peer.entry(p.0).or_default() += range.len();
                }
            } else {
                hpop_obs::metrics().counter("nocdn.chunks.repaired").incr();
                if let Some(p) = src {
                    on_corrupt_chunk(*p);
                    if !report.corrupt_peers.contains(&p.0) {
                        report.corrupt_peers.push(p.0);
                    }
                }
                report.fallback_chunks += 1;
            }
            repaired.extend_from_slice(truth);
        }
        // Re-verify the *whole object* after reassembly from repaired
        // chunks — per-chunk equality against the origin is necessary but
        // not sufficient (it cannot catch misassembly across boundaries).
        report.verified = Sha256::digest(&repaired).ct_eq(expected);
        (report, Bytes::from(repaired))
    }
}

/// A chunked-fetch client with the full resilience stack: per-peer
/// circuit breakers gate selection, per-peer admission controllers cap
/// the rate and concurrency any single peer is asked for, failed range
/// requests retry with budgeted backoff ([`retry::run`]) under a
/// [`Deadline`],
/// tail-latency stragglers get a hedged second request to another peer
/// (suppressed while the system is saturated, so hedges cannot amplify
/// a flash crowd), and any chunk no admitted peer can deliver falls
/// back to the origin — a page load never fails, it only degrades to
/// origin bytes. [`ResilientFetcher::default`] builds one with every
/// breaker closed, the hedge cold and per-peer admission at
/// [`AdmissionConfig::default`].
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
    /// retries, hedging and origin fallback. `latency_of` is the
    /// caller's latency oracle for a peer (experiments derive it from
    /// the fault plan: slow peers report proportionally longer service
    /// times). The clock `*now` advances by backoff pauses and by each
    /// winning chunk's service latency.
    ///
    /// Unlike [`fetch_chunked`], an empty `peer_order` is not an error:
    /// every chunk simply falls back to the origin.
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
    ) -> (ChunkedReport, Bytes) {
        let (mut asm, ranges) = match Assembly::begin(path, n_chunks, expected, origin) {
            Ok(planned) => planned,
            Err(empty) => return empty,
        };
        let host = origin.host().to_owned();
        let ResilientFetcher {
            breakers,
            admission,
            hedge,
            spans,
        } = self;
        let root_ctx = spans.root();
        let fetch_start_us = now.as_nanos() / 1_000;
        for (i, range) in ranges.iter().enumerate() {
            // One rotation cursor per chunk, shared across retry
            // attempts so each attempt moves on to the next admitted
            // peer instead of hammering the same one.
            let mut cursor = i;
            let mut hedged = false;
            let chunk_start_us = now.as_nanos() / 1_000;
            let chunk_ctx = spans.child(&root_ctx);
            let chunk_scope = SpanScope::new(spans.clone(), chunk_ctx);
            let hedge_scope = chunk_scope.clone();
            let outcome = retry::run(i as u64, deadline, now, &chunk_scope, |_, at| {
                let mut primary = None;
                for _ in 0..peer_order.len() {
                    let pid = peer_order[cursor % peer_order.len()];
                    cursor += 1;
                    if !breakers.allow(pid.0, at) {
                        continue;
                    }
                    // Per-peer admission: a peer at its rate or
                    // concurrency cap is rotated past, not queued on.
                    if admission.try_admit(pid.0, at).is_err() {
                        continue;
                    }
                    primary = Some(pid);
                    break;
                }
                let Some(p) = primary else {
                    // No admitted peer this attempt (all circuits open,
                    // all caps hit, or none recruited) — let the retry
                    // policy decide whether a breaker half-opens or a
                    // bucket refills before giving up.
                    return Err(());
                };
                let body_p = peers
                    .get_mut(&p)
                    .and_then(|peer| peer.serve(&host, path, origin));
                let Some(body) = body_p else {
                    breakers.record(p.0, at, false);
                    admission.complete(p.0, true);
                    return Err(());
                };
                breakers.record(p.0, at, true);
                admission.complete(p.0, false);
                let lat_p = latency_of(p);
                let trigger = hedge.trigger();
                let mut elapsed = lat_p;
                let mut winner = p;
                let mut chunk = slice_range(&body, range);
                // The primary would outlive the p99 trigger: launch a
                // hedged copy against the next admitted peer and keep
                // whichever completes first, charging the loser's bytes
                // as hedge waste.
                let mut fired_this_attempt = false;
                // The hedge is a load amplifier: before firing, check
                // the saturation this fetcher can see locally (breaker
                // trips + admission pressure) — a saturated
                // neighborhood gets no second requests.
                let local_sat = breakers.saturation(at).max(admission.saturation(at));
                if lat_p >= trigger && hedge.allow_fire(local_sat) {
                    let mut secondary = None;
                    for _ in 0..peer_order.len() {
                        let pid = peer_order[cursor % peer_order.len()];
                        cursor += 1;
                        if pid != p
                            && breakers.allow(pid.0, at)
                            && admission.try_admit(pid.0, at).is_ok()
                        {
                            secondary = Some(pid);
                            break;
                        }
                    }
                    if let Some(s) = secondary {
                        hedged = true;
                        fired_this_attempt = true;
                        let body_s = peers
                            .get_mut(&s)
                            .and_then(|peer| peer.serve(&host, path, origin));
                        match body_s {
                            Some(bs) => {
                                breakers.record(s.0, at, true);
                                admission.complete(s.0, false);
                                let completion_s = trigger + latency_of(s);
                                hedge.account_fired(range.len());
                                if completion_s < elapsed {
                                    elapsed = completion_s;
                                    winner = s;
                                    chunk = slice_range(&bs, range);
                                }
                            }
                            None => {
                                breakers.record(s.0, at, false);
                                admission.complete(s.0, true);
                                hedge.account_fired(0);
                            }
                        }
                    }
                }
                if fired_this_attempt {
                    // The hedged copy ran from the trigger point to the
                    // chunk's resolution (elapsed >= trigger on every
                    // hedged path).
                    hedge_scope.record(
                        "nocdn",
                        "hedge",
                        (at + trigger).as_nanos() / 1_000,
                        (at + elapsed.max(trigger)).as_nanos() / 1_000,
                    );
                }
                hedge.record(elapsed);
                Ok((winner, chunk, elapsed))
            });
            if hedged {
                asm.report.hedged_chunks += 1;
            }
            match outcome {
                Ok((src, chunk, elapsed)) => {
                    *now += elapsed;
                    spans.record(
                        &chunk_ctx,
                        "nocdn",
                        "transfer",
                        chunk_start_us,
                        now.as_nanos() / 1_000,
                    );
                    asm.push(range, Some(src), &chunk);
                }
                Err(_) => {
                    // Origin fallback: never a failed page.
                    spans.record(
                        &chunk_ctx,
                        "nocdn",
                        "origin_fallback",
                        chunk_start_us,
                        now.as_nanos() / 1_000,
                    );
                    asm.fall_back(range, origin);
                }
            }
        }

        // Verify is instantaneous in sim time, so its span is
        // zero-width: it marks *where* verification sat on the request
        // path without inventing latency the simulation never charged.
        let verify_us = now.as_nanos() / 1_000;
        spans.record_child(&root_ctx, "nocdn", "verify", verify_us, verify_us);
        let fetched = asm.finish(origin, None, |p| breakers.record(p.0, *now, false));
        spans.record(
            &root_ctx,
            "nocdn",
            "request",
            fetch_start_us,
            now.as_nanos() / 1_000,
        );
        fetched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::PeerBehavior;

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

    #[test]
    fn spreads_load_across_peers() {
        let (mut origin, mut peers, digest) = setup(&[PeerBehavior::Honest; 4]);
        let (report, body) =
            fetch_chunked("/big.bin", 8, &digest, &order(4), &mut peers, &mut origin);
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
        let (report, body) =
            fetch_chunked("/big.bin", 8, &digest, &order(4), &mut peers, &mut origin);
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
        let (report, body) =
            fetch_chunked("/big.bin", 4, &digest, &order(2), &mut peers, &mut origin);
        assert!(report.verified);
        assert_eq!(body.len(), 100_000);
        assert_eq!(report.fallback_chunks, 2);
        assert_eq!(report.bytes_per_peer.len(), 1);
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
        // dead peer and fall back.
        let ranges = ByteRange::split(100_000, 7);
        let fallen = ranges[1].len() + ranges[4].len();

        let before = origin.origin_bytes;
        let (report, _) = fetch_chunked("/big.bin", 7, &digest, &order(3), &mut peers, &mut origin);
        assert!(report.verified);
        assert_eq!(report.fallback_chunks, 2);
        assert_eq!(origin.origin_bytes - before, fallen);

        // The resilient path with nobody to ask falls back on all 7.
        let before = origin.origin_bytes;
        let mut now = SimTime::ZERO;
        let (report, _) = resilient().fetch(
            "/big.bin",
            7,
            &digest,
            &[],
            &mut peers,
            &mut origin,
            Deadline::UNBOUNDED,
            &mut now,
            &flat_latency,
        );
        assert_eq!(report.fallback_chunks, 7);
        assert_eq!(origin.origin_bytes - before, 100_000);
    }

    #[test]
    fn whole_object_path_matches_chunked_result() {
        let (mut origin, mut peers, digest) = setup(&[PeerBehavior::Honest]);
        let (_, body) = fetch_chunked("/big.bin", 1, &digest, &order(1), &mut peers, &mut origin);
        assert_eq!(&body[..], &origin.peek_object("/big.bin").unwrap()[..]);
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn empty_peer_order_panics() {
        let (mut origin, mut peers, digest) = setup(&[PeerBehavior::Honest]);
        fetch_chunked("/big.bin", 4, &digest, &[], &mut peers, &mut origin);
    }

    #[test]
    fn truncating_peer_repaired_not_panicking() {
        let (mut origin, mut peers, digest) =
            setup(&[PeerBehavior::Honest, PeerBehavior::Truncates]);
        let (report, body) =
            fetch_chunked("/big.bin", 4, &digest, &order(2), &mut peers, &mut origin);
        assert!(report.verified);
        assert_eq!(body.len(), 100_000);
        assert!(report.corrupt_peers.contains(&1));
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

//! [`ChunkFetch`]: one chunked multi-peer download as a machine that
//! acts only on what it is handed — the time, and each transfer's body
//! (or nothing) and elapsed time. What it wants of the world is an
//! [`Effect`]; [`ResilientFetcher::fetch`] is its sync driver.
//!
//! Each attempt at a chunk asks the next peer in rotation that its
//! breaker and admission let through, one cursor per chunk across
//! attempts. A primary slower than the hedge trigger gets a hedged copy
//! from the next such peer, and the first to complete wins. A failed
//! attempt backs off ([`Backoff`]); a chunk whose retries run out comes
//! from the origin. The object is then verified whole, and a corrupt
//! one repaired against the origin's copy.
//!
//! The chunks stay the buffers they arrived in: each is hashed into the
//! whole-object digest as it is taken, and the verified object is those
//! chunks in order, never a reassembled copy.

use crate::body::Body;
use crate::chunked::{ChunkedReport, ResilientFetcher};
use crate::peer::PeerId;
use bytes::Bytes;
use hpop_crypto::sha256::{Digest, Sha256};
use hpop_http::range::ByteRange;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_obs::{event, TraceCtx};
use hpop_resilience::{Backoff, Deadline};

/// What a [`ChunkFetch`] asks of its driver.
#[derive(Debug)]
pub enum Effect {
    /// Transfer `range` of the object from a peer.
    Peer(PeerId, ByteRange),
    /// Transfer `range` of the object from the origin, or the whole
    /// object when `None`.
    Origin(Option<ByteRange>),
    /// Wake the fetch after this long.
    Sleep(SimDuration),
    /// The fetch is over.
    Done(ChunkedReport, Body),
}

/// What a [`ChunkFetch`] waits on.
#[derive(Debug)]
enum Wait {
    /// The current chunk's primary transfer, from this peer.
    Primary(PeerId),
    /// The hedged copy from the second peer, fired at the trigger (the
    /// last field) into the first peer's transfer, which delivered its
    /// chunk in the given time.
    Hedge(PeerId, PeerId, Bytes, SimDuration, SimDuration),
    /// The pause before the current chunk's next attempt.
    Backoff,
    /// The winning transfer's elapsed time, its chunk taken.
    Arrival,
    /// The origin's copy of the current chunk.
    Fallback,
    /// The origin's copy of the whole object.
    Repair,
}

/// One chunked fetch in progress.
pub struct ChunkFetch<'a> {
    fetcher: &'a mut ResilientFetcher,
    path: &'a str,
    expected: &'a Digest,
    peer_order: &'a [PeerId],
    deadline: Deadline,
    ranges: Vec<ByteRange>,
    /// The chunks so far, their running digest, and the peer each came
    /// from (`None`: the origin); the current chunk is
    /// `ranges[sources.len()]`.
    chunks: Body,
    digest: Sha256,
    sources: Vec<Option<PeerId>>,
    report: ChunkedReport,
    root: TraceCtx,
    start_us: u64,
    /// The current chunk's rotation cursor, retry state, span and start.
    cursor: usize,
    backoff: Backoff,
    chunk_ctx: TraceCtx,
    chunk_start_us: u64,
    wait: Wait,
}

fn us(t: SimTime) -> u64 {
    t.as_nanos() / 1_000
}

impl<'a> ChunkFetch<'a> {
    /// A fetch of the `len`-byte object at `path` in `n_chunks` ranges
    /// from `peer_order`, verified against `expected`, whose pauses stay
    /// inside `deadline`.
    pub fn new(
        fetcher: &'a mut ResilientFetcher,
        path: &'a str,
        len: u64,
        n_chunks: usize,
        expected: &'a Digest,
        peer_order: &'a [PeerId],
        deadline: Deadline,
    ) -> ChunkFetch<'a> {
        let ranges = if len == 0 {
            Vec::new()
        } else {
            ByteRange::split(len, n_chunks)
        };
        ChunkFetch {
            fetcher,
            path,
            expected,
            peer_order,
            deadline,
            chunks: Body::with_capacity(ranges.len()),
            digest: Sha256::new(),
            sources: Vec::with_capacity(ranges.len()),
            ranges,
            report: ChunkedReport::default(),
            root: TraceCtx::NONE,
            start_us: 0,
            cursor: 0,
            backoff: Backoff::new(0),
            chunk_ctx: TraceCtx::NONE,
            chunk_start_us: 0,
            wait: Wait::Arrival,
        }
    }

    /// Starts the fetch at `now`. A zero-length object has nothing to
    /// fetch and no spans.
    pub fn start(&mut self, now: SimTime) -> Effect {
        if self.ranges.is_empty() {
            self.report.verified = Sha256::digest(b"").ct_eq(self.expected);
            return Effect::Done(std::mem::take(&mut self.report), Body::default());
        }
        self.root = self.fetcher.spans.root();
        self.start_us = us(now);
        self.next_chunk(now)
    }

    /// The transfer asked for last, at `now`, delivered `body` (`None`:
    /// nothing) in `took`.
    ///
    /// # Panics
    ///
    /// Panics if no transfer is outstanding, or the origin delivered
    /// nothing.
    pub fn on_transfer(&mut self, now: SimTime, body: Option<Bytes>, took: SimDuration) -> Effect {
        match std::mem::replace(&mut self.wait, Wait::Arrival) {
            Wait::Primary(p) => {
                self.outcome(p, now, body.is_some());
                let Some(chunk) = body else {
                    return self.failed(now);
                };
                // A hedge amplifies load: none while the fetcher's own
                // breakers or admission read saturated.
                let (f, trigger) = (&self.fetcher, self.fetcher.hedge.trigger());
                let saturation = f.breakers.saturation(now).max(f.admission.saturation(now));
                if took >= trigger && self.fetcher.hedge.allow_fire(saturation) {
                    if let Some(s) = self.pick(Some(p), now) {
                        self.wait = Wait::Hedge(p, s, chunk, took, trigger);
                        return Effect::Peer(s, self.range());
                    }
                }
                self.won(p, chunk, took, now)
            }
            Wait::Hedge(p, s, chunk, p_took, trigger) => {
                self.outcome(s, now, body.is_some());
                let fired = body.as_ref().map_or(0, |_| self.range().len());
                self.fetcher.hedge.account_fired(fired);
                let (winner, chunk, took) = match body {
                    Some(b) if trigger + took < p_took => (s, b, trigger + took),
                    _ => (p, chunk, p_took),
                };
                self.report.hedged_chunks += 1;
                // The hedged copy ran from the trigger to the chunk's end.
                self.chunk_child("nocdn", "hedge", now + trigger, now + took.max(trigger));
                self.won(winner, chunk, took, now)
            }
            Wait::Fallback => {
                self.push(None, body.expect("the origin serves its objects"));
                self.report.fallback_chunks += 1;
                self.next_chunk(now)
            }
            Wait::Repair => self.repair(now, body.expect("the origin serves its objects")),
            Wait::Backoff | Wait::Arrival => panic!("no transfer outstanding"),
        }
    }

    /// The sleep asked for last is over at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the fetch is not asleep.
    pub fn on_wake(&mut self, now: SimTime) -> Effect {
        match self.wait {
            Wait::Backoff => self.attempt(now),
            Wait::Arrival => self.next_chunk(now),
            _ => panic!("the fetch is not asleep"),
        }
    }

    fn range(&self) -> ByteRange {
        self.ranges[self.sources.len()]
    }

    fn next_chunk(&mut self, now: SimTime) -> Effect {
        let i = self.sources.len();
        if i == self.ranges.len() {
            return self.verify(now);
        }
        self.cursor = i;
        self.backoff = Backoff::new(i as u64);
        self.chunk_ctx = self.fetcher.spans.child(&self.root);
        self.chunk_start_us = us(now);
        self.attempt(now)
    }

    fn attempt(&mut self, now: SimTime) -> Effect {
        match self.pick(None, now) {
            Some(p) => {
                self.wait = Wait::Primary(p);
                Effect::Peer(p, self.range())
            }
            // No admitted peer (all circuits open, all caps hit, or none
            // recruited): the retry policy decides whether to wait for a
            // breaker to half-open or a bucket to refill.
            None => self.failed(now),
        }
    }

    /// The next peer in rotation, other than `except`, that its breaker
    /// and then its admission let through at `now`; a peer at its rate
    /// or concurrency cap is rotated past, not queued on.
    fn pick(&mut self, except: Option<PeerId>, now: SimTime) -> Option<PeerId> {
        let (f, n) = (&mut *self.fetcher, self.peer_order.len());
        for _ in 0..n {
            let p = self.peer_order[self.cursor % n];
            self.cursor += 1;
            let allowed = Some(p) != except && f.breakers.allow(p.0, now);
            if allowed && f.admission.try_admit(p.0, now).is_ok() {
                return Some(p);
            }
        }
        None
    }

    /// Feeds a peer transfer's outcome to its breaker and admission.
    fn outcome(&mut self, p: PeerId, now: SimTime, ok: bool) {
        self.fetcher.breakers.record(p.0, now, ok);
        self.fetcher.admission.complete(p.0, !ok);
    }

    /// The current attempt failed at `now`: back off, or fall back to
    /// the origin.
    fn failed(&mut self, now: SimTime) -> Effect {
        match self.backoff.failed(self.deadline, now) {
            Ok(pause) => {
                self.chunk_child("resilience", "retry", now, now + pause);
                self.wait = Wait::Backoff;
                Effect::Sleep(pause)
            }
            Err(_) => {
                self.chunk_span("origin_fallback", now);
                self.wait = Wait::Fallback;
                Effect::Origin(Some(self.range()))
            }
        }
    }

    /// `p`'s `chunk` won the current chunk, `took` after `now`.
    fn won(&mut self, p: PeerId, chunk: Bytes, took: SimDuration, now: SimTime) -> Effect {
        self.fetcher.hedge.record(took);
        self.backoff.succeeded();
        self.chunk_span("transfer", now + took);
        self.push(Some(p), chunk);
        self.wait = Wait::Arrival;
        Effect::Sleep(took)
    }

    /// Records the current chunk's own span, `stage`, from its start to
    /// `end`.
    fn chunk_span(&self, stage: &str, end: SimTime) {
        let (ctx, start) = (&self.chunk_ctx, self.chunk_start_us);
        self.fetcher
            .spans
            .record(ctx, "nocdn", stage, start, us(end));
    }

    /// Records a `stage` child of the current chunk over `start..end`.
    fn chunk_child(&self, service: &str, stage: &str, start: SimTime, end: SimTime) {
        let ctx = &self.chunk_ctx;
        self.fetcher
            .spans
            .record_child(ctx, service, stage, us(start), us(end));
    }

    fn push(&mut self, src: Option<PeerId>, chunk: Bytes) {
        let m = hpop_obs::metrics();
        let from = src.map_or("nocdn.chunks.from_origin", |_| "nocdn.chunks.from_peer");
        m.counter(from).incr();
        m.histogram("nocdn.chunk.bytes").record(chunk.len() as u64);
        self.digest.update(&chunk);
        self.chunks.push(chunk);
        self.sources.push(src);
    }

    /// Whole-object verification of the chunks in order — the only
    /// check that catches cross-chunk corruption. Instantaneous in sim
    /// time, so its span is zero-width: it marks where verification sat
    /// on the request path without inventing latency.
    fn verify(&mut self, now: SimTime) -> Effect {
        let (spans, at) = (&self.fetcher.spans, us(now));
        spans.record_child(&self.root, "nocdn", "verify", at, at);
        let ok = std::mem::take(&mut self.digest)
            .finalize()
            .ct_eq(self.expected);
        event!(
            hpop_obs::spans(),
            0,
            "nocdn",
            "chunk.verify",
            path = self.path,
            ok = ok,
            chunks = self.sources.len() as u64
        );
        if !ok {
            hpop_obs::metrics().counter("nocdn.verify.failed").incr();
            self.wait = Wait::Repair;
            return Effect::Origin(None);
        }
        hpop_obs::metrics().counter("nocdn.verify.ok").incr();
        for (range, src) in self.ranges.iter().zip(&self.sources) {
            if let Some(p) = src {
                *self.report.bytes_per_peer.entry(p.0).or_default() += range.len();
            }
        }
        self.report.verified = true;
        let body = std::mem::take(&mut self.chunks);
        self.done(now, body)
    }

    /// Compares each chunk's range of the chunks as taken, in order,
    /// with the same range of the `authentic` object: only the bad
    /// chunks are replaced, only honest peers are credited, and each
    /// bad chunk's peer takes a breaker failure. A short chunk shifts
    /// every later byte, so the chunks after it compare unequal too.
    /// The repaired object is the origin's copy, verified again —
    /// per-chunk equality is necessary but not sufficient (it cannot
    /// catch misassembly across boundaries).
    fn repair(&mut self, now: SimTime, authentic: Bytes) -> Effect {
        for (range, src) in self.ranges.iter().zip(&self.sources) {
            let (start, end) = (range.start as usize, (range.end + 1) as usize);
            let report = &mut self.report;
            if self.chunks.matches_at(start, &authentic[start..end]) {
                if let Some(p) = src {
                    *report.bytes_per_peer.entry(p.0).or_default() += range.len();
                }
            } else {
                hpop_obs::metrics().counter("nocdn.chunks.repaired").incr();
                if let Some(p) = src {
                    self.fetcher.breakers.record(p.0, now, false);
                    if !report.corrupt_peers.contains(&p.0) {
                        report.corrupt_peers.push(p.0);
                    }
                }
                report.fallback_chunks += 1;
            }
        }
        let len = self.ranges.last().map_or(0, |r| r.end as usize + 1);
        let repaired = authentic.slice(..len);
        self.report.verified = Sha256::digest(&repaired).ct_eq(self.expected);
        self.done(now, repaired.into())
    }

    fn done(&mut self, now: SimTime, body: Body) -> Effect {
        let (spans, end) = (&self.fetcher.spans, us(now));
        spans.record(&self.root, "nocdn", "request", self.start_us, end);
        Effect::Done(std::mem::take(&mut self.report), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_obs::SpanTracer;
    use hpop_resilience::retry;

    const LEN: u64 = 1_000;

    fn object() -> (Bytes, Digest) {
        let body: Bytes = (0..LEN as u32).map(|i| (i % 251) as u8).collect();
        let digest = Sha256::digest(&body);
        (body, digest)
    }

    fn order(n: u32) -> Vec<PeerId> {
        (0..n).map(PeerId).collect()
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn slice(body: &Bytes, r: ByteRange) -> Option<Bytes> {
        Some(body.slice(r.start as usize..=r.end as usize))
    }

    #[test]
    fn failed_primary_backs_off_to_the_next_peer() {
        let (body, digest) = object();
        let mut f = ResilientFetcher::default();
        let tracer = SpanTracer::new(64);
        tracer.enable();
        f.spans = tracer.clone();
        let order = order(3);
        let mut fetch = ChunkFetch::new(&mut f, "/o", LEN, 2, &digest, &order, Deadline::UNBOUNDED);
        let t0 = SimTime::ZERO;
        let Effect::Peer(PeerId(0), r0) = fetch.start(t0) else {
            panic!("chunk 0 starts at peer 0")
        };
        let Effect::Sleep(pause) = fetch.on_transfer(t0, None, ms(1)) else {
            panic!("a failed primary backs off")
        };
        assert_eq!(pause, retry::delay(0, 0));
        let t1 = t0 + pause;
        let Effect::Peer(next, r) = fetch.on_wake(t1) else {
            panic!("the retry asks a peer")
        };
        assert_eq!((next, r), (PeerId(1), r0), "the cursor moved on");
        // The pause is one `retry` span under the chunk.
        let retries: Vec<_> = tracer
            .recent()
            .into_iter()
            .filter(|s| s.stage == "retry")
            .collect();
        assert_eq!(retries.len(), 1, "{retries:?}");
        assert_eq!(retries[0].duration_us(), pause.as_nanos() / 1_000);
        // The retry delivers; the fetch sleeps out its latency.
        let Effect::Sleep(lat) = fetch.on_transfer(t1, slice(&body, r0), ms(3)) else {
            panic!("a delivered chunk arrives after its latency")
        };
        assert_eq!(lat, ms(3));
    }

    #[test]
    fn slow_primary_is_hedged_on_a_different_peer() {
        let (body, digest) = object();
        let mut f = ResilientFetcher::default();
        let order = order(3);
        let mut fetch = ChunkFetch::new(&mut f, "/o", LEN, 1, &digest, &order, Deadline::UNBOUNDED);
        let t0 = SimTime::ZERO;
        let Effect::Peer(p, r) = fetch.start(t0) else {
            panic!("the chunk asks a peer")
        };
        // Slower than the cold 500 ms trigger.
        let Effect::Peer(s, hedged) = fetch.on_transfer(t0, slice(&body, r), ms(5_000)) else {
            panic!("a straggler is hedged")
        };
        assert_ne!(s, p);
        assert_eq!(hedged, r);
        // The hedge, fired at the trigger, finishes first and wins.
        let Effect::Sleep(won) = fetch.on_transfer(t0, slice(&body, r), ms(2)) else {
            panic!("the winner arrives")
        };
        assert_eq!(won, ms(502));
        let Effect::Done(report, got) = fetch.on_wake(t0 + won) else {
            panic!("one chunk, one fetch")
        };
        assert!(report.verified);
        assert_eq!(report.hedged_chunks, 1);
        assert_eq!(report.bytes_per_peer.keys().collect::<Vec<_>>(), [&s.0]);
        assert_eq!(got.to_vec(), body.to_vec());
    }

    #[test]
    fn corrupt_reassembly_repairs_from_one_whole_object_transfer() {
        let (body, digest) = object();
        let mut f = ResilientFetcher::default();
        let order = order(2);
        let mut fetch = ChunkFetch::new(&mut f, "/o", LEN, 2, &digest, &order, Deadline::UNBOUNDED);
        let mut now = SimTime::ZERO;
        let mut effect = fetch.start(now);
        let mut whole = 0;
        let (report, got) = loop {
            effect = match effect {
                Effect::Peer(p, r) => {
                    let mut chunk = slice(&body, r).unwrap().to_vec();
                    if p == PeerId(1) {
                        chunk[0] ^= 0xFF;
                    }
                    fetch.on_transfer(now, Some(chunk.into()), ms(1))
                }
                Effect::Origin(None) => {
                    whole += 1;
                    fetch.on_transfer(now, Some(body.clone()), SimDuration::ZERO)
                }
                Effect::Origin(Some(r)) => panic!("no chunk falls back: {r:?}"),
                Effect::Sleep(d) => {
                    now += d;
                    fetch.on_wake(now)
                }
                Effect::Done(report, got) => break (report, got),
            };
        };
        assert_eq!(whole, 1);
        assert!(report.verified);
        assert_eq!(got.to_vec(), body.to_vec());
        assert_eq!(report.corrupt_peers, vec![1]);
        assert_eq!(report.fallback_chunks, 1);
        assert_eq!(report.bytes_per_peer.keys().collect::<Vec<_>>(), [&0]);
    }

    #[test]
    fn deadline_too_short_for_the_pause_sends_the_chunk_to_the_origin() {
        let (body, digest) = object();
        let mut f = ResilientFetcher::default();
        let order = order(2);
        // The budget ran out long before the fetch starts.
        let deadline = Deadline::after(SimTime::ZERO, ms(1_000));
        let mut fetch = ChunkFetch::new(&mut f, "/o", LEN, 2, &digest, &order, deadline);
        let now = SimTime::ZERO + ms(100_000);
        // The first attempt still runs: only pauses are budgeted.
        let Effect::Peer(PeerId(0), r0) = fetch.start(now) else {
            panic!("the first attempt runs on a dead budget")
        };
        let Effect::Origin(Some(r)) = fetch.on_transfer(now, None, ms(1)) else {
            panic!("no time to back off: the origin serves the chunk")
        };
        assert_eq!(r, r0);
        let Effect::Peer(PeerId(1), _) =
            fetch.on_transfer(now, slice(&body, r0), SimDuration::ZERO)
        else {
            panic!("the next chunk asks the next peer")
        };
    }
}

//! Recruited HPoP peers: reverse proxies with caches.
//!
//! §IV-B: "Each NoCDN peer acts as a normal reverse proxy when
//! processing user requests — i.e., the peer serves the requested object
//! from its cache if available or, if not, obtains the object from the
//! origin server, forwards it to the user, and caches it locally …
//! standard Apache in reverse proxy mode with virtual hosting — to allow
//! a peer to sign up for content delivery with multiple content
//! providers."
//!
//! Since "users must explicitly sign up to become a peer … there is more
//! danger that an attacker would sign up with an intent of corrupting
//! the content", peers carry a [`PeerBehavior`] the integrity and
//! accounting experiments exercise.

use crate::accounting::UsageRecord;
use crate::origin::ContentProvider;
use bytes::Bytes;
use hpop_crypto::puzzle::{self, PuzzleChallenge, PuzzleParams, PuzzleProof};
use hpop_obs::{CounterHandle, HistogramHandle};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Identifies a recruited peer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PeerId(pub u32);

impl hpop_durability::codec::Wire for PeerId {
    fn put(&self, w: &mut hpop_durability::codec::ByteWriter) {
        w.u32(self.0);
    }
    fn take(r: &mut hpop_durability::codec::ByteReader<'_>) -> Option<PeerId> {
        r.u32().map(PeerId)
    }
}

/// How a peer behaves (the threat model of §IV-B).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PeerBehavior {
    /// Faithful reverse proxy.
    #[default]
    Honest,
    /// Corrupts every object it serves (content-integrity attack).
    CorruptsContent,
    /// Serves honestly but inflates the byte counts of the usage records
    /// it uploads by this factor (accounting attack).
    InflatesUsage(u32),
    /// Offline/unresponsive (failure injection).
    Unresponsive,
    /// Serves only the first half of every object (truncation fault:
    /// same-prefix bytes, so only length/hash checks reveal it).
    Truncates,
    /// Serves honestly to real clients, but also participates in an
    /// attack campaign: it countersigns fabricated usage records that
    /// colluding (often Sybil) clients mint for traffic that never
    /// happened. The serving path is indistinguishable from
    /// [`PeerBehavior::Honest`] — the fraud is entirely in the
    /// accounting plane, which is what makes the campaign hard to catch
    /// without the accountability puzzle (experiment E25).
    Colluding,
}

/// A recruited HPoP acting as an edge server.
#[derive(Clone, Debug)]
pub struct NoCdnPeer {
    id: PeerId,
    behavior: PeerBehavior,
    /// host → path → cached object (virtual hosting: many providers on
    /// one appliance). Two levels, so a lookup borrows both names.
    cache: BTreeMap<String, BTreeMap<String, Bytes>>,
    /// Usage records accumulated from clients, pending upload.
    pending_records: Vec<UsageRecord>,
    /// Bytes this peer actually served to clients (ground truth the
    /// accounting experiment compares reported bytes against).
    pub bytes_served: u64,
    /// Cache hits / misses.
    pub cache_hits: u64,
    /// Cache misses (origin fills).
    pub cache_misses: u64,
    /// Data bytes this peer walked solving accountability puzzles (the
    /// attacker/honest work currency experiment E25 budgets).
    pub puzzle_work_bytes: u64,
}

impl NoCdnPeer {
    /// Creates an honest peer.
    pub fn new(id: PeerId) -> NoCdnPeer {
        NoCdnPeer {
            id,
            behavior: PeerBehavior::Honest,
            cache: BTreeMap::new(),
            pending_records: Vec::new(),
            bytes_served: 0,
            cache_hits: 0,
            cache_misses: 0,
            puzzle_work_bytes: 0,
        }
    }

    /// Creates a peer with an explicit behavior.
    pub fn with_behavior(id: PeerId, behavior: PeerBehavior) -> NoCdnPeer {
        NoCdnPeer {
            behavior,
            ..NoCdnPeer::new(id)
        }
    }

    /// The peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The peer's configured behavior.
    pub fn behavior(&self) -> PeerBehavior {
        self.behavior
    }

    /// Serves an object for `host`/`path` as a reverse proxy: cache hit,
    /// or origin fill then cache. Returns `None` when unresponsive or
    /// the origin lacks the object.
    pub fn serve(&mut self, host: &str, path: &str, origin: &mut ContentProvider) -> Option<Bytes> {
        if self.behavior == PeerBehavior::Unresponsive {
            return None;
        }
        let m = serve_metrics();
        let body = match self.cached(host, path).cloned() {
            Some(b) => {
                self.cache_hits += 1;
                m.cache_hit.incr();
                b
            }
            None => {
                let b = origin.fetch_object(path)?;
                self.cache_misses += 1;
                m.cache_miss.incr();
                let objects = self.cache.entry(host.to_owned()).or_default();
                objects.insert(path.to_owned(), b.clone());
                b
            }
        };
        let out = match self.behavior {
            PeerBehavior::CorruptsContent => corrupt(&body),
            PeerBehavior::Truncates => body.slice(..body.len() / 2),
            _ => body,
        };
        self.bytes_served += out.len() as u64;
        m.serve_bytes.record(out.len() as u64);
        Some(out)
    }

    /// The cached copy of `host`'s `path`.
    fn cached(&self, host: &str, path: &str) -> Option<&Bytes> {
        self.cache.get(host)?.get(path)
    }

    /// Accepts a client's signed usage record for later upload.
    pub fn accept_record(&mut self, record: UsageRecord) {
        self.pending_records.push(record);
    }

    /// Uploads accumulated records to the provider (returning them),
    /// applying the inflation attack if configured. "The NoCDN peers
    /// accumulate usage records and periodically upload them to the
    /// content provider for payment."
    pub fn upload_records(&mut self) -> Vec<UsageRecord> {
        let mut records = std::mem::take(&mut self.pending_records);
        if let PeerBehavior::InflatesUsage(factor) = self.behavior {
            for r in &mut records {
                // The peer can alter the claimed bytes — but not re-sign,
                // since the signing key belongs to the client+provider.
                r.bytes *= factor as u64;
            }
        }
        records
    }

    /// Solves the accountability puzzle over the peer's cached copies
    /// of `paths` (sorted order, the provider's canonical concatenation,
    /// walked in place) under `challenge`. Returns `None` when any
    /// object is not cached — a peer that never held the bytes cannot
    /// produce a proof, which is the entire defense. The data bytes walked are charged to
    /// [`NoCdnPeer::puzzle_work_bytes`].
    pub fn prove_serve(
        &mut self,
        host: &str,
        paths: &[String],
        challenge: &PuzzleChallenge,
        params: &PuzzleParams,
    ) -> Option<PuzzleProof> {
        let claim = self.claim(host, paths.iter().map(String::as_str))?;
        let (proof, work) = puzzle::solve(challenge, &claim[..], params);
        self.puzzle_work_bytes += work.data_bytes;
        Some(proof)
    }

    /// The claim a proof walks: the cached copies of `host`'s `paths`
    /// in sorted path order, each the buffer it is cached in. `None`
    /// when any of them is not cached. Reads only, so the loader can
    /// solve several peers' puzzles at once and charge the work after.
    pub(crate) fn claim<'p>(
        &self,
        host: &str,
        paths: impl IntoIterator<Item = &'p str>,
    ) -> Option<Vec<&[u8]>> {
        let mut sorted: Vec<&str> = paths.into_iter().collect();
        sorted.sort_unstable();
        sorted
            .into_iter()
            .map(|path| Some(&self.cached(host, path)?[..]))
            .collect()
    }

    /// Number of cached objects.
    pub fn cache_len(&self) -> usize {
        self.cache.values().map(BTreeMap::len).sum()
    }
}

/// The metrics every [`NoCdnPeer::serve`] feeds, looked up once.
struct ServeMetrics {
    cache_hit: CounterHandle,
    cache_miss: CounterHandle,
    serve_bytes: HistogramHandle,
}

fn serve_metrics() -> &'static ServeMetrics {
    static HANDLES: OnceLock<ServeMetrics> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let m = hpop_obs::metrics();
        ServeMetrics {
            cache_hit: m.counter("nocdn.peer.cache_hit"),
            cache_miss: m.counter("nocdn.peer.cache_miss"),
            serve_bytes: m.histogram("nocdn.serve.bytes"),
        }
    })
}

/// Deterministic corruption: flip one byte in every 4 KiB block (so any
/// range-request chunk of the object is affected), same length — only
/// hash checks can catch it.
fn corrupt(body: &Bytes) -> Bytes {
    if body.is_empty() {
        return Bytes::from_static(b"\xff");
    }
    let mut v = body.to_vec();
    let mut i = 0;
    while i < v.len() {
        v[i] ^= 0xff;
        i += 4096;
    }
    Bytes::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> ContentProvider {
        let mut p = ContentProvider::new("news.example");
        p.put_object("/a.css", vec![1u8; 100]);
        p
    }

    #[test]
    fn cache_fill_then_hit() {
        let mut o = origin();
        let mut peer = NoCdnPeer::new(PeerId(1));
        let b1 = peer.serve("news.example", "/a.css", &mut o).unwrap();
        assert_eq!(b1.len(), 100);
        assert_eq!(o.origin_requests, 1);
        let _ = peer.serve("news.example", "/a.css", &mut o).unwrap();
        // Second request: no extra origin traffic.
        assert_eq!(o.origin_requests, 1);
        assert_eq!((peer.cache_hits, peer.cache_misses), (1, 1));
        assert_eq!(peer.bytes_served, 200);
        assert_eq!(peer.cache_len(), 1);
    }

    #[test]
    fn virtual_hosting_separates_providers() {
        let mut o1 = origin();
        let mut o2 = ContentProvider::new("video.example");
        o2.put_object("/a.css", vec![2u8; 50]);
        let mut peer = NoCdnPeer::new(PeerId(1));
        let b1 = peer.serve("news.example", "/a.css", &mut o1).unwrap();
        let b2 = peer.serve("video.example", "/a.css", &mut o2).unwrap();
        assert_ne!(b1, b2);
        assert_eq!(peer.cache_len(), 2);
    }

    #[test]
    fn corrupting_peer_alters_bytes() {
        let mut o = origin();
        let mut peer = NoCdnPeer::with_behavior(PeerId(2), PeerBehavior::CorruptsContent);
        let b = peer.serve("news.example", "/a.css", &mut o).unwrap();
        assert_ne!(&b[..], &[1u8; 100][..]);
        assert_eq!(b.len(), 100); // same size — only hashes reveal it
    }

    #[test]
    fn unresponsive_peer_serves_nothing() {
        let mut o = origin();
        let mut peer = NoCdnPeer::with_behavior(PeerId(3), PeerBehavior::Unresponsive);
        assert!(peer.serve("news.example", "/a.css", &mut o).is_none());
        assert_eq!(o.origin_requests, 0);
    }

    #[test]
    fn prove_serve_requires_cached_bytes() {
        let mut o = origin();
        let mut peer = NoCdnPeer::new(PeerId(5));
        let chal = PuzzleChallenge([7u8; 32]);
        let params = PuzzleParams::default();
        let paths = vec!["/a.css".to_owned()];
        // Never served → nothing cached → no proof possible.
        assert!(peer
            .prove_serve("news.example", &paths, &chal, &params)
            .is_none());
        peer.serve("news.example", "/a.css", &mut o).unwrap();
        let proof = peer
            .prove_serve("news.example", &paths, &chal, &params)
            .unwrap();
        assert!(peer.puzzle_work_bytes > 0);
        let (ok, _) = puzzle::verify(&chal, &[1u8; 100][..], &proof, &params);
        assert!(ok, "proof verifies against the authentic bytes");
    }

    #[test]
    fn inflation_alters_uploaded_records_only() {
        let mut peer = NoCdnPeer::with_behavior(PeerId(4), PeerBehavior::InflatesUsage(10));
        peer.accept_record(UsageRecord::unsigned_for_tests(PeerId(4), 100));
        let up = peer.upload_records();
        assert_eq!(up[0].bytes, 1000);
        // A second upload has nothing left.
        assert!(peer.upload_records().is_empty());
    }
}

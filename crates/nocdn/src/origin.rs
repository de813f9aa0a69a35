//! The content provider's origin: object store, page catalog, and the
//! byte counters the offload experiment (E4) reads.

use bytes::Bytes;
use hpop_crypto::sha256::{Digest, Sha256};
use hpop_http::range::ByteRange;
use std::collections::BTreeMap;

/// A web page: one container object plus recursively embedded objects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageSpec {
    /// The container object's path (`"/index.html"`).
    pub container: String,
    /// Embedded object paths (images, scripts, stylesheets …).
    pub embedded: Vec<String>,
}

impl PageSpec {
    /// All object paths of the page, container first.
    pub fn objects(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.container.as_str()).chain(self.embedded.iter().map(String::as_str))
    }

    /// Number of objects (container + embedded).
    pub fn object_count(&self) -> usize {
        1 + self.embedded.len()
    }
}

/// The bytes of `body` that `range` covers, clamped to the body (what a
/// server honoring `Range` returns).
pub(crate) fn slice_range(body: &Bytes, range: &ByteRange) -> Bytes {
    let end = (range.end + 1).min(body.len() as u64) as usize;
    body.slice((range.start as usize).min(end)..end)
}

/// The origin server of one content provider.
#[derive(Clone, Debug)]
pub struct ContentProvider {
    host: String,
    objects: BTreeMap<String, Bytes>,
    /// SHA-256 of each object version a wrapper has needed so far.
    /// Filled on first use, not on publish: hashing a whole catalogue
    /// up front would charge every object, viewed or not, to set-up.
    digests: BTreeMap<String, Digest>,
    pages: BTreeMap<String, PageSpec>,
    /// Bytes served directly by the origin (full objects).
    pub origin_bytes: u64,
    /// Bytes of wrapper pages served (the only mandatory origin traffic
    /// under NoCDN).
    pub wrapper_bytes: u64,
    /// Object fetches answered (cache-fill requests from peers count).
    pub origin_requests: u64,
}

impl ContentProvider {
    /// Creates a provider serving `host`.
    pub fn new(host: impl Into<String>) -> ContentProvider {
        ContentProvider {
            host: host.into(),
            objects: BTreeMap::new(),
            digests: BTreeMap::new(),
            pages: BTreeMap::new(),
            origin_bytes: 0,
            wrapper_bytes: 0,
            origin_requests: 0,
        }
    }

    /// The provider's host name (virtual-hosting key on peers).
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Publishes an object, or a new version of one.
    pub fn put_object(&mut self, path: impl Into<String>, body: impl Into<Bytes>) {
        let path = path.into();
        self.digests.remove(&path);
        self.objects.insert(path, body.into());
    }

    /// The SHA-256 of the object's current version — what a wrapper
    /// page tells the loader to verify against. Hashed once per
    /// version: the first call after a publish computes it, later
    /// calls read it back.
    pub fn object_digest(&mut self, path: &str) -> Option<Digest> {
        if let Some(&known) = self.digests.get(path) {
            return Some(known);
        }
        let digest = Sha256::digest(self.objects.get(path)?);
        self.digests.insert(path.to_owned(), digest);
        Some(digest)
    }

    /// The current versions of those of `paths` whose digest no wrapper
    /// has needed yet, each once, with their bytes: what a page's first
    /// view must hash. Paths the provider does not publish are skipped.
    pub(crate) fn unhashed<'p>(
        &self,
        paths: impl IntoIterator<Item = &'p str>,
    ) -> Vec<(&'p str, Bytes)> {
        let mut out: Vec<(&str, Bytes)> = Vec::new();
        for path in paths {
            if self.digests.contains_key(path) || out.iter().any(|&(seen, _)| seen == path) {
                continue;
            }
            if let Some(body) = self.objects.get(path) {
                out.push((path, body.clone()));
            }
        }
        out
    }

    /// Records `digest` as the SHA-256 of `path`'s current version, as
    /// hashed from the bytes [`ContentProvider::unhashed`] handed out.
    pub(crate) fn record_digest(&mut self, path: &str, digest: Digest) {
        self.digests.insert(path.to_owned(), digest);
    }

    /// Publishes a page (its objects must already exist).
    ///
    /// # Panics
    ///
    /// Panics if any referenced object is missing.
    pub fn put_page(&mut self, page: PageSpec) {
        for o in page.objects() {
            assert!(
                self.objects.contains_key(o),
                "page references missing object {o}"
            );
        }
        self.pages.insert(page.container.clone(), page);
    }

    /// Looks a page up by its container path.
    pub fn page(&self, container: &str) -> Option<&PageSpec> {
        self.pages.get(container)
    }

    /// An object's bytes without counting traffic (hashing, tests).
    pub fn peek_object(&self, path: &str) -> Option<&Bytes> {
        self.objects.get(path)
    }

    /// Serves an object from the origin, counting the traffic. This is
    /// the path peers use for cache fills and loaders use as integrity
    /// fallback.
    pub fn fetch_object(&mut self, path: &str) -> Option<Bytes> {
        let body = self.objects.get(path)?.clone();
        self.origin_requests += 1;
        self.origin_bytes += body.len() as u64;
        Some(body)
    }

    /// Serves one byte range of an object from the origin, counting
    /// only the range: the path a chunked fetch takes when a single
    /// chunk falls back. The range is clamped to the object.
    pub fn fetch_range(&mut self, path: &str, range: &ByteRange) -> Option<Bytes> {
        let chunk = slice_range(self.objects.get(path)?, range);
        self.origin_requests += 1;
        self.origin_bytes += chunk.len() as u64;
        Some(chunk)
    }

    /// Records the service of a wrapper page of `bytes` size.
    pub fn count_wrapper(&mut self, bytes: u64) {
        self.wrapper_bytes += bytes;
    }

    /// Total bytes of all objects of a page (what the origin would have
    /// served without NoCDN).
    pub fn page_bytes(&self, container: &str) -> Option<u64> {
        let page = self.pages.get(container)?;
        Some(
            page.objects()
                .filter_map(|o| self.objects.get(o))
                .map(|b| b.len() as u64)
                .sum(),
        )
    }

    /// Number of published objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider() -> ContentProvider {
        let mut p = ContentProvider::new("news.example");
        p.put_object("/index.html", vec![b'h'; 2_000]);
        p.put_object("/style.css", vec![b'c'; 10_000]);
        p.put_object("/hero.jpg", vec![b'j'; 500_000]);
        p.put_page(PageSpec {
            container: "/index.html".into(),
            embedded: vec!["/style.css".into(), "/hero.jpg".into()],
        });
        p
    }

    #[test]
    fn page_bytes_sum_objects() {
        let p = provider();
        assert_eq!(p.page_bytes("/index.html"), Some(512_000));
        assert_eq!(p.page_bytes("/missing"), None);
        assert_eq!(p.page("/index.html").unwrap().object_count(), 3);
    }

    #[test]
    fn fetch_counts_traffic_but_peek_does_not() {
        let mut p = provider();
        let _ = p.peek_object("/hero.jpg").unwrap();
        assert_eq!(p.origin_bytes, 0);
        let b = p.fetch_object("/hero.jpg").unwrap();
        assert_eq!(b.len(), 500_000);
        assert_eq!(p.origin_bytes, 500_000);
        assert_eq!(p.origin_requests, 1);
        assert!(p.fetch_object("/nope").is_none());
        assert_eq!(p.origin_requests, 1);
    }

    #[test]
    fn fetch_range_counts_the_range_not_the_object() {
        let mut p = provider();
        let chunk = p
            .fetch_range("/hero.jpg", &ByteRange::new(100, 299))
            .unwrap();
        assert_eq!(&chunk[..], &p.peek_object("/hero.jpg").unwrap()[100..300]);
        assert_eq!((p.origin_bytes, p.origin_requests), (200, 1));
        // Clamped to the object, like a server honoring Range.
        let tail = p.fetch_range("/index.html", &ByteRange::new(1_990, 5_000));
        assert_eq!(tail.unwrap().len(), 10);
        assert_eq!((p.origin_bytes, p.origin_requests), (210, 2));
        assert!(p.fetch_range("/nope", &ByteRange::new(0, 0)).is_none());
        assert_eq!(p.origin_requests, 2);
    }

    #[test]
    #[should_panic(expected = "missing object")]
    fn pages_must_reference_real_objects() {
        let mut p = ContentProvider::new("h");
        p.put_object("/a", "x");
        p.put_page(PageSpec {
            container: "/a".into(),
            embedded: vec!["/ghost.png".into()],
        });
    }

    #[test]
    fn a_republished_object_gets_a_fresh_digest() {
        let mut p = ContentProvider::new("example.com");
        assert_eq!(p.object_digest("/a"), None);
        p.put_object("/a", "one");
        assert_eq!(p.object_digest("/a"), Some(Sha256::digest(b"one")));
        assert_eq!(p.object_digest("/a"), Some(Sha256::digest(b"one")));
        p.put_object("/a", "two");
        assert_eq!(p.object_digest("/a"), Some(Sha256::digest(b"two")));
    }

    #[test]
    fn wrapper_counting() {
        let mut p = provider();
        p.count_wrapper(1_500);
        p.count_wrapper(1_500);
        assert_eq!(p.wrapper_bytes, 3_000);
        assert_eq!(p.object_count(), 3);
    }
}

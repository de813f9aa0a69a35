//! What the two attic workloads share: the keyspace, request
//! construction, the seeded op mix, and the oracle that knows what
//! every response must be.

use crate::harness::OpDigest;
use bytes::Bytes;
use hpop_http::message::{Method, Request, Response, StatusCode};
use hpop_http::url::Url;
use rand::rngs::StdRng;
use rand::Rng;

/// Versions a key may accumulate before the next write deletes it
/// first, so the store (and every snapshot of it) stays bounded.
pub const MAX_VERSIONS: u32 = 8;

/// Keys per directory; PROPFIND Depth 1 lists one directory.
pub const KEYS_PER_DIR: usize = 16;

/// Path of key `key` under `root` (`""` or `"/c0"`).
pub fn key_path(root: &str, key: usize) -> String {
    format!(
        "{root}/d{:02}/k{:02}",
        key / KEYS_PER_DIR,
        key % KEYS_PER_DIR
    )
}

/// Path of the directory holding `key`.
pub fn dir_path(root: &str, dir: usize) -> String {
    format!("{root}/d{dir:02}")
}

/// A request for `path` on the attic's host.
pub fn request(method: Method, path: &str) -> Request {
    Request::new(method, Url::new("http", "attic.home", path))
}

/// A PUT of `body` to `path`.
pub fn put(path: &str, body: Bytes) -> Request {
    Request::put(Url::new("http", "attic.home", path), body)
}

/// Folds what identifies a request into `digest`: verb, path, the
/// headers, the body's length and its head (bodies differ only there).
pub fn digest_request(digest: &mut OpDigest, req: &Request) {
    digest.feed_bytes(req.method.as_str().as_bytes());
    digest.feed_bytes(req.url.path().as_bytes());
    for (name, value) in req.headers.iter() {
        digest.feed_bytes(name.as_bytes());
        digest.feed_bytes(value.as_bytes());
    }
    digest.feed(req.body.len() as u64);
    digest.feed_bytes(&req.body[..req.body.len().min(16)]);
}

/// Bodies: a fixed seeded filler with a counter stamped at the front,
/// so every version of every key hashes to a different ETag without
/// the generator drawing a kilobyte of randomness per op.
#[derive(Clone, Debug)]
pub struct Bodies {
    filler: Vec<u8>,
    counter: u64,
}

impl Bodies {
    /// Bodies of `len` bytes.
    pub fn new(rng: &mut StdRng, len: usize) -> Bodies {
        Bodies {
            filler: (0..len).map(|_| rng.gen::<u8>()).collect(),
            counter: 0,
        }
    }

    /// The next body; never repeats.
    pub fn next(&mut self) -> Bytes {
        self.counter += 1;
        let mut body = self.filler.clone();
        body[..8].copy_from_slice(&self.counter.to_le_bytes());
        Bytes::from(body)
    }
}

/// A batch's op kinds: exactly `counts[i].1` of each `counts[i].0`, in
/// seeded random order. Every batch gets the same multiset, so batches
/// differ only in order and in which keys they touch.
pub fn shuffled_mix<K: Copy>(rng: &mut StdRng, counts: &[(K, usize)]) -> Vec<K> {
    let mut out: Vec<K> = counts
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

/// What the client was last told about one key.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Acked {
    /// ETag in the response to the last acknowledged PUT.
    etag: String,
    len: usize,
    versions: u32,
}

/// The ETag-of-last-PUT oracle: tracks, per key, the last write the
/// server acknowledged, and judges every later response against it. A
/// response is wrong when its status is not the one that state calls
/// for, or when a GET's ETag or length is not the last acknowledged
/// PUT's.
#[derive(Clone, Debug)]
pub struct Oracle {
    keys: Vec<Option<Acked>>,
}

impl Oracle {
    /// An oracle over `keys` absent keys.
    pub fn new(keys: usize) -> Oracle {
        Oracle {
            keys: vec![None; keys],
        }
    }

    /// Versions the server holds for `key` (0 when absent).
    pub fn versions(&self, key: usize) -> u32 {
        self.keys[key].as_ref().map_or(0, |a| a.versions)
    }

    /// Whether `key` currently exists.
    pub fn present(&self, key: usize) -> bool {
        self.keys[key].is_some()
    }

    /// Keys that currently exist among `range`.
    pub fn present_in(&self, range: std::ops::Range<usize>) -> usize {
        self.keys[range].iter().filter(|k| k.is_some()).count()
    }

    /// Judges the response to a PUT of `len` bytes and, when it is an
    /// acknowledgement, records it.
    pub fn on_put(&mut self, key: usize, len: usize, resp: &Response) -> bool {
        let due = if self.present(key) {
            StatusCode::NO_CONTENT
        } else {
            StatusCode::CREATED
        };
        let Some(etag) = resp.headers.get("etag") else {
            return false;
        };
        if !resp.status.is_success() {
            return false;
        }
        let versions = self.versions(key) + 1;
        self.keys[key] = Some(Acked {
            etag: etag.to_owned(),
            len,
            versions,
        });
        resp.status == due
    }

    /// Judges the response to a GET.
    pub fn on_get(&self, key: usize, resp: &Response) -> bool {
        match &self.keys[key] {
            Some(acked) => {
                resp.status == StatusCode::OK
                    && resp.headers.get("etag") == Some(acked.etag.as_str())
                    && resp.body.len() == acked.len
            }
            None => resp.status == StatusCode::NOT_FOUND,
        }
    }

    /// Judges the response to a DELETE and forgets the key.
    pub fn on_delete(&mut self, key: usize, resp: &Response) -> bool {
        let due = if self.present(key) {
            StatusCode::NO_CONTENT
        } else {
            StatusCode::NOT_FOUND
        };
        self.keys[key] = None;
        resp.status == due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn acked(status: StatusCode, etag: &str) -> Response {
        Response::new(status).with_header("etag", etag)
    }

    fn got(etag: &str, len: usize) -> Response {
        Response::ok(vec![0u8; len]).with_header("etag", etag)
    }

    #[test]
    fn get_must_carry_the_etag_of_the_last_acknowledged_put() {
        let mut o = Oracle::new(2);
        assert!(
            o.on_get(0, &Response::not_found()),
            "absent key: 404 is due"
        );
        assert!(
            !o.on_get(0, &got("\"x\"", 4)),
            "absent key must not be served"
        );

        assert!(o.on_put(0, 4, &acked(StatusCode::CREATED, "\"v1\"")));
        assert!(o.on_get(0, &got("\"v1\"", 4)));
        assert!(!o.on_get(0, &got("\"v0\"", 4)), "stale ETag");
        assert!(!o.on_get(0, &got("\"v1\"", 3)), "truncated body");
        assert!(!o.on_get(0, &Response::not_found()), "lost write");

        // The second PUT supersedes the first.
        assert!(o.on_put(0, 5, &acked(StatusCode::NO_CONTENT, "\"v2\"")));
        assert!(
            !o.on_get(0, &got("\"v1\"", 4)),
            "the old version is now wrong"
        );
        assert!(o.on_get(0, &got("\"v2\"", 5)));
        assert_eq!(o.versions(0), 2);
        assert!(
            o.on_get(1, &Response::not_found()),
            "other keys are untouched"
        );
    }

    #[test]
    fn put_and_delete_statuses_follow_presence() {
        let mut o = Oracle::new(1);
        assert!(
            !o.on_put(0, 1, &acked(StatusCode::NO_CONTENT, "\"a\"")),
            "first PUT creates"
        );
        // The acknowledgement still counts: the server said it stored it.
        assert!(o.present(0));
        assert!(
            !o.on_put(0, 1, &acked(StatusCode::CREATED, "\"b\"")),
            "second PUT overwrites"
        );
        assert!(
            !o.on_put(0, 1, &Response::new(StatusCode::NO_CONTENT)),
            "no ETag, no ack"
        );
        assert!(!o.on_put(0, 1, &acked(StatusCode::SERVICE_UNAVAILABLE, "\"c\"")));
        assert!(
            o.on_get(0, &got("\"b\"", 1)),
            "refused writes change nothing"
        );
        assert!(o.on_delete(0, &Response::new(StatusCode::NO_CONTENT)));
        assert!(!o.present(0));
        assert!(o.on_delete(0, &Response::not_found()));
        assert!(!o.on_delete(0, &Response::new(StatusCode::NO_CONTENT)));
    }

    #[test]
    fn mix_is_exact_and_seeded() {
        let counts = [('g', 85), ('p', 5), ('w', 10)];
        let a = shuffled_mix(&mut StdRng::seed_from_u64(1), &counts);
        let b = shuffled_mix(&mut StdRng::seed_from_u64(1), &counts);
        let c = shuffled_mix(&mut StdRng::seed_from_u64(2), &counts);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for (kind, n) in counts {
            assert_eq!(c.iter().filter(|&&k| k == kind).count(), n);
        }
    }

    #[test]
    fn bodies_never_repeat() {
        let mut b = Bodies::new(&mut StdRng::seed_from_u64(3), 64);
        let (x, y) = (b.next(), b.next());
        assert_eq!(x.len(), 64);
        assert_ne!(x, y);
        assert_eq!(x[8..], y[8..]);
    }

    #[test]
    fn paths_are_stable() {
        assert_eq!(key_path("", 17), "/d01/k01");
        assert_eq!(key_path("/c1", 255), "/c1/d15/k15");
        assert_eq!(dir_path("/c0", 3), "/c0/d03");
    }
}

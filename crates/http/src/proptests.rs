//! Property-based tests of the HTTP substrate.

use crate::cache::FreshnessPolicy;
use crate::h1::{self, MAX_HEADER_BYTES};
use crate::message::{Headers, Method, Request, Response, StatusCode};
use crate::range::ByteRange;
use crate::url::Url;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// What an HTTP/1.1 head is made of, so noise drawn from it reaches the
/// start-line, header-line and `Content-Length` checks, not just the
/// first byte.
const HEAD_ALPHABET: &[u8] = b"GETPUHADOSL /HTP1.0123456789:-\r\n content-length";

/// Bytes off the wire: raw noise; noise over [`HEAD_ALPHABET`]; a valid
/// start line (and possibly a `Content-Length` name) followed by noise;
/// and noise just over the header cap, which has no complete head.
fn wire_bytes() -> impl Strategy<Value = Vec<u8>> {
    let starts = prop_oneof![
        Just(&b"GET / HTTP/1.1\r\n"[..]),
        Just(&b"PUT /f HTTP/1.1\r\ncontent-length: "[..]),
        Just(&b"HTTP/1.1 200 OK\r\n"[..]),
        Just(&b"HTTP/1.1 207 Multi-Status\r\ncontent-length:"[..]),
    ];
    prop_oneof![
        vec(any::<u8>(), 0..96),
        vec(0..HEAD_ALPHABET.len(), 0..256)
            .prop_map(|ix| ix.into_iter().map(|i| HEAD_ALPHABET[i]).collect()),
        (starts, vec(0..HEAD_ALPHABET.len(), 0..64)).prop_map(|(start, ix)| {
            let mut buf = start.to_vec();
            buf.extend(ix.into_iter().map(|i| HEAD_ALPHABET[i]));
            buf
        }),
        vec(any::<u8>(), MAX_HEADER_BYTES - 4..MAX_HEADER_BYTES + 64),
    ]
}

/// Header names the model proptest draws from: names the services use
/// (kept borrowed), names they do not (kept on the heap), and names
/// that sort between and around them.
const HEADER_NAMES: [&str; 12] = [
    "etag",
    "host",
    "content-length",
    "if-none-match",
    "if-match",
    "lock-token",
    "x-lock-owner",
    "a",
    "x-custom",
    "if-matches",
    "zz-last",
    "content-lengths",
];

/// Where the head of `buf` ends, if it has arrived.
fn head_len(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Header sets the encoder writes verbatim: lower-case names (never
/// `content-length`, which the encoder derives from the body) and
/// values with no surrounding whitespace, which the decoder trims.
fn headers() -> impl Strategy<Value = Vec<(String, String)>> {
    vec(("[a-z][a-z0-9-]{0,10}", "[!-~]([ -~]{0,14}[!-~])?"), 0..5)
}

fn method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Get),
        Just(Method::Put),
        Just(Method::Delete),
        Just(Method::PropFind),
        Just(Method::PropPatch),
        Just(Method::Lock),
    ]
}

/// `headers` as the decoder hands them back: plus the `content-length`
/// the encoder always writes.
fn with_length(mut headers: Headers, body: &[u8]) -> Headers {
    headers.set("content-length", body.len().to_string());
    headers
}

proptest! {
    /// Any URL built from sane parts survives a display/parse round trip.
    #[test]
    fn url_roundtrip(
        host in "[a-z][a-z0-9.-]{0,20}[a-z0-9]",
        path in "(/[a-zA-Z0-9._-]{1,12}){0,5}",
        port in proptest::option::of(1u16..),
    ) {
        let mut u = Url::https(&host, if path.is_empty() { "/" } else { &path });
        if let Some(p) = port {
            u = u.with_port(p);
        }
        let parsed: Url = u.to_string().parse().expect("displayed URLs parse");
        prop_assert_eq!(parsed, u);
    }

    /// Range splitting covers `total` exactly, contiguously, in order.
    #[test]
    fn range_split_partitions(total in 1u64..1_000_000, n in 1usize..64) {
        let ranges = ByteRange::split(total, n);
        prop_assert!(!ranges.is_empty());
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges.last().expect("non-empty").end, total - 1);
        let sum: u64 = ranges.iter().map(ByteRange::len).sum();
        prop_assert_eq!(sum, total);
        for w in ranges.windows(2) {
            prop_assert_eq!(w[1].start, w[0].end + 1);
        }
        prop_assert!(ranges.len() <= n);
    }

    /// Range header formatting round-trips.
    #[test]
    fn range_header_roundtrip(start in 0u64..1_000_000, len in 1u64..1_000_000) {
        let r = ByteRange::new(start, start + len - 1);
        prop_assert_eq!(ByteRange::parse(&format!("bytes={r}")), Some(r));
        prop_assert_eq!(ByteRange::parse(&r.to_header()), Some(r));
    }

    /// Header names are case-insensitive and last-write-wins.
    #[test]
    fn headers_case_insensitivity(
        name in "[A-Za-z][A-Za-z0-9-]{0,15}",
        v1 in "[ -~]{0,20}",
        v2 in "[ -~]{0,20}",
    ) {
        let mut h = Headers::new();
        h.set(&name, v1);
        h.set(&name.to_ascii_uppercase(), v2.clone());
        prop_assert_eq!(h.len(), 1);
        prop_assert_eq!(h.get(&name.to_ascii_lowercase()), Some(v2.as_str()));
    }

    /// Cache-Control parse/format round-trips on the supported subset.
    #[test]
    fn freshness_policy_roundtrip(
        max_age in proptest::option::of(0u64..1_000_000),
        no_store in any::<bool>(),
        no_cache in any::<bool>(),
    ) {
        let p = FreshnessPolicy {
            max_age: max_age.map(hpop_netsim::time::SimDuration::from_secs),
            no_store,
            no_cache,
        };
        prop_assert_eq!(FreshnessPolicy::parse(&p.to_header()), p);
    }

    /// Neither decoder panics on any bytes. Each returns an error,
    /// `Ok(None)` or a message no longer than its input, and never asks
    /// for more bytes once `MAX_HEADER_BYTES` have arrived without a
    /// complete head: the read buffer in front of it stays bounded.
    #[test]
    fn decoders_survive_arbitrary_bytes(buf in wire_bytes()) {
        let head_within_cap = head_len(&buf).is_some_and(|n| n <= MAX_HEADER_BYTES);
        let outcomes = [
            h1::decode_request(&buf).map(|m| m.map(|(_, used)| used)),
            h1::decode_response(&buf).map(|m| m.map(|(_, used)| used)),
        ];
        for outcome in outcomes {
            match outcome {
                Err(_) => {}
                Ok(None) => prop_assert!(buf.len() <= MAX_HEADER_BYTES || head_within_cap),
                Ok(Some(used)) => prop_assert!(head_within_cap && used <= buf.len()),
            }
        }
    }

    /// An encoded request cut at every byte boundary asks for more on
    /// each strict prefix, and the whole of it decodes to the same
    /// method, path, headers and body.
    #[test]
    fn request_decodes_only_when_whole(
        method in method(),
        path in "(/[a-zA-Z0-9._-]{1,8}){1,3}",
        headers in headers(),
        body in vec(any::<u8>(), 0..48),
    ) {
        let mut req = Request::new(method, Url::http("attic.home", &path));
        for (name, value) in headers {
            req.headers.set(&name, value);
        }
        req.body = body.clone().into();
        let wire = h1::encode_request(&req);
        for cut in 0..wire.len() {
            prop_assert!(h1::decode_request(&wire[..cut]).expect("a prefix is not an error").is_none());
        }
        let (back, used) = h1::decode_request(&wire).expect("well-formed").expect("complete");
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(back.method, req.method);
        prop_assert_eq!(back.url.path(), path.as_str());
        prop_assert_eq!(back.headers, with_length(req.headers, &body));
        prop_assert_eq!(&back.body[..], &body[..]);
    }

    /// The response mirror of `request_decodes_only_when_whole`.
    #[test]
    fn response_decodes_only_when_whole(
        status in 100u16..600,
        headers in headers(),
        body in vec(any::<u8>(), 0..48),
    ) {
        let mut resp = Response::new(StatusCode(status));
        for (name, value) in headers {
            resp.headers.set(&name, value);
        }
        resp.body = body.clone().into();
        let wire = h1::encode_response(&resp);
        for cut in 0..wire.len() {
            prop_assert!(h1::decode_response(&wire[..cut]).expect("a prefix is not an error").is_none());
        }
        let (back, used) = h1::decode_response(&wire).expect("well-formed").expect("complete");
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(back.status, resp.status);
        prop_assert_eq!(back.headers, with_length(resp.headers, &body));
        prop_assert_eq!(&back.body[..], &body[..]);
    }

    /// `Headers` is a sorted map of lower-cased names: random calls
    /// over mixed-case known and unknown names answer as a
    /// `BTreeMap<String, String>` does, it iterates in the map's order,
    /// and a request and a response carrying it encode to the bytes
    /// the map's `format!`-built encoding has.
    #[test]
    fn headers_match_a_sorted_map(
        calls in vec((0..4u8, 0..HEADER_NAMES.len(), any::<u8>(), "[!-~]{0,6}"), 0..40),
        status in 100u16..600,
        body in vec(any::<u8>(), 0..24),
    ) {
        let mut headers = Headers::new();
        let mut model: BTreeMap<String, String> = BTreeMap::new();
        for (call, name, case, value) in calls {
            // Each letter upper-cased or not as `case`'s bits say.
            let name: String = HEADER_NAMES[name]
                .chars()
                .enumerate()
                .map(|(i, c)| if case >> (i % 8) & 1 == 1 { c.to_ascii_uppercase() } else { c })
                .collect();
            let key = name.to_ascii_lowercase();
            match call {
                0 => {
                    headers.set(&name, value.clone());
                    model.insert(key, value);
                }
                1 => prop_assert_eq!(headers.get(&name), model.get(&key).map(String::as_str)),
                2 => prop_assert_eq!(headers.remove(&name), model.remove(&key)),
                _ => prop_assert_eq!(headers.contains(&name), model.contains_key(&key)),
            }
            prop_assert_eq!(headers.len(), model.len());
        }
        let order: Vec<(&str, &str)> = model.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        prop_assert_eq!(headers.iter().collect::<Vec<_>>(), order);

        let lines: String = model
            .iter()
            .filter(|(k, _)| *k != "content-length")
            .map(|(k, v)| format!("{k}: {v}\r\n"))
            .collect();
        let tail = format!("content-length: {}\r\n\r\n", body.len());
        let mut req = Request::new(Method::Lock, Url::http("attic.home", "/d/f"));
        req.headers = headers.clone();
        req.body = body.clone().into();
        let mut want = format!("LOCK /d/f HTTP/1.1\r\n{lines}{tail}").into_bytes();
        want.extend_from_slice(&body);
        prop_assert_eq!(h1::encode_request(&req), want);
        let mut resp = Response::new(StatusCode(status));
        resp.headers = headers;
        resp.body = body.clone().into();
        let code = StatusCode(status);
        let mut want = format!("HTTP/1.1 {} {}\r\n{lines}{tail}", code.0, code.reason()).into_bytes();
        want.extend_from_slice(&body);
        prop_assert_eq!(h1::encode_response(&resp), want);
    }
}

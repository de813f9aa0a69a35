//! HTTP request/response messages with the WebDAV method set.

use crate::url::Url;
use bytes::Bytes;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// An HTTP method, including the WebDAV extensions the data attic uses
/// (§IV-A: "WebDAV further mediates access from multiple clients through
/// file locking").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // variants are the method names themselves
pub enum Method {
    Get,
    Head,
    Put,
    Post,
    Delete,
    Options,
    // WebDAV (RFC 4918)
    PropFind,
    PropPatch,
    MkCol,
    Copy,
    Move,
    Lock,
    Unlock,
}

impl Method {
    /// True for methods that cannot modify server state.
    pub fn is_safe(self) -> bool {
        matches!(
            self,
            Method::Get | Method::Head | Method::Options | Method::PropFind
        )
    }

    /// Parses the canonical token (`"PROPFIND"` etc.). Method tokens
    /// are case-sensitive per RFC 9110; `None` for unknown tokens.
    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "PUT" => Method::Put,
            "POST" => Method::Post,
            "DELETE" => Method::Delete,
            "OPTIONS" => Method::Options,
            "PROPFIND" => Method::PropFind,
            "PROPPATCH" => Method::PropPatch,
            "MKCOL" => Method::MkCol,
            "COPY" => Method::Copy,
            "MOVE" => Method::Move,
            "LOCK" => Method::Lock,
            "UNLOCK" => Method::Unlock,
            _ => return None,
        })
    }

    /// The canonical token (`"PROPFIND"` etc.).
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Put => "PUT",
            Method::Post => "POST",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
            Method::PropFind => "PROPFIND",
            Method::PropPatch => "PROPPATCH",
            Method::MkCol => "MKCOL",
            Method::Copy => "COPY",
            Method::Move => "MOVE",
            Method::Lock => "LOCK",
            Method::Unlock => "UNLOCK",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP status code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct StatusCode(pub u16);

#[allow(missing_docs)] // constants mirror the RFC names
impl StatusCode {
    pub const OK: StatusCode = StatusCode(200);
    pub const CREATED: StatusCode = StatusCode(201);
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    pub const PARTIAL_CONTENT: StatusCode = StatusCode(206);
    pub const MULTI_STATUS: StatusCode = StatusCode(207);
    pub const NOT_MODIFIED: StatusCode = StatusCode(304);
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    pub const UNAUTHORIZED: StatusCode = StatusCode(401);
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    pub const METHOD_NOT_ALLOWED: StatusCode = StatusCode(405);
    pub const CONFLICT: StatusCode = StatusCode(409);
    pub const PRECONDITION_FAILED: StatusCode = StatusCode(412);
    pub const UNSUPPORTED_MEDIA_TYPE: StatusCode = StatusCode(415);
    pub const RANGE_NOT_SATISFIABLE: StatusCode = StatusCode(416);
    pub const LOCKED: StatusCode = StatusCode(423);
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    pub const BAD_GATEWAY: StatusCode = StatusCode(502);
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// True for 2xx codes.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// The standard reason phrase (a subset; unknown codes say "Unknown").
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            206 => "Partial Content",
            207 => "Multi-Status",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            412 => "Precondition Failed",
            415 => "Unsupported Media Type",
            416 => "Range Not Satisfiable",
            423 => "Locked",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// Every header name the services set or read, lower-case and in
/// byte order: [`Headers`] keeps one of these as a borrowed `&'static
/// str`, and only a name not listed here is lower-cased onto the heap.
const KNOWN_NAMES: [&str; 32] = [
    "accept",
    "age",
    "allow",
    "authorization",
    "cache-control",
    "connection",
    "content-length",
    "content-range",
    "content-type",
    "dav",
    "depth",
    "destination",
    "etag",
    "expires",
    "host",
    "if-match",
    "if-none-match",
    "last-modified",
    "location",
    "lock-token",
    "overwrite",
    "range",
    "retry-after",
    "timeout",
    "x-attic-origin",
    "x-damaged",
    "x-fault",
    "x-lock-holder",
    "x-lock-owner",
    "x-lock-scope",
    "x-sim-time",
    "x-version",
];

/// How the lower-case name `stored` sorts against `name` lower-cased,
/// without lower-casing `name` anywhere.
fn cmp_lowered(stored: &str, name: &str) -> Ordering {
    let lowered = name.bytes().map(|b| b.to_ascii_lowercase());
    stored.bytes().cmp(lowered)
}

/// `name` as [`Headers`] keeps it: lower-case, borrowed when it is one
/// of [`KNOWN_NAMES`].
fn key_of(name: &str) -> Cow<'static, str> {
    match KNOWN_NAMES.binary_search_by(|known| cmp_lowered(known, name)) {
        Ok(i) => Cow::Borrowed(KNOWN_NAMES[i]),
        Err(_) => Cow::Owned(name.to_ascii_lowercase()),
    }
}

/// Case-insensitive header map (names are lower-cased on insert): a
/// `Vec` sorted by name, so it iterates in name order as a sorted map
/// does, and a lookup lower-cases nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(Cow<'static, str>, String)>,
}

impl Headers {
    /// An empty header set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `name` is, or would go.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|(stored, _)| cmp_lowered(stored, name))
    }

    /// Sets a header, replacing any previous value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        match self.find(name) {
            Ok(i) => self.entries[i].1 = value.into(),
            Err(i) => self.entries.insert(i, (key_of(name), value.into())),
        }
    }

    /// Gets a header value.
    pub fn get(&self, name: &str) -> Option<&str> {
        let i = self.find(name).ok()?;
        Some(&self.entries[i].1)
    }

    /// Removes a header, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<String> {
        let i = self.find(name).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// True if the header is present.
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Iterates over `(name, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (&**k, v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no headers are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// `n` in decimal, spelled without the formatting machinery.
pub(crate) fn push_decimal(out: &mut Vec<u8>, n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// A `Content-Length` value for a body of `len` bytes.
fn content_length(len: usize) -> String {
    let mut out = Vec::with_capacity(20);
    push_decimal(&mut out, len as u64);
    String::from_utf8(out).expect("decimal digits are ASCII")
}

/// An HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// The target URL.
    pub url: Url,
    /// Request headers.
    pub headers: Headers,
    /// Request body.
    pub body: Bytes,
}

impl Request {
    /// Creates a bodiless request; the `Host:` header is set from the URL.
    pub fn new(method: Method, url: Url) -> Request {
        let mut headers = Headers::new();
        headers.set("host", url.host().to_owned());
        Request {
            method,
            url,
            headers,
            body: Bytes::new(),
        }
    }

    /// Convenience: `GET url`.
    pub fn get(url: Url) -> Request {
        Request::new(Method::Get, url)
    }

    /// Convenience: `PUT url` with a body.
    pub fn put(url: Url, body: impl Into<Bytes>) -> Request {
        let mut r = Request::new(Method::Put, url);
        r.body = body.into();
        r
    }

    /// Builder-style header setter.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.set(name, value);
        self
    }

    /// The `Host:` header (present by construction).
    pub fn host(&self) -> &str {
        self.headers.get("host").unwrap_or_else(|| self.url.host())
    }

    /// Total approximate wire size: request line + headers + body. Used
    /// by the simulator to size transfers.
    pub fn wire_size(&self) -> u64 {
        let line = self.method.as_str().len() + self.url.path().len() + 12;
        let hdrs: usize = self
            .headers
            .iter()
            .map(|(k, v)| k.len() + v.len() + 4)
            .sum();
        (line + hdrs + 2) as u64 + self.body.len() as u64
    }
}

/// An HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    /// The status code.
    pub status: StatusCode,
    /// Response headers.
    pub headers: Headers,
    /// Response body.
    pub body: Bytes,
}

impl Response {
    /// Creates a response with a status and empty body.
    pub fn new(status: StatusCode) -> Response {
        Response {
            status,
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// Convenience: `200 OK` with a body.
    pub fn ok(body: impl Into<Bytes>) -> Response {
        let mut r = Response::new(StatusCode::OK);
        r.body = body.into();
        r.headers
            .set("content-length", content_length(r.body.len()));
        r
    }

    /// Convenience: `404 Not Found`.
    pub fn not_found() -> Response {
        Response::new(StatusCode::NOT_FOUND)
    }

    /// Builder-style header setter.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.set(name, value);
        self
    }

    /// Builder-style body setter (also sets `Content-Length`).
    pub fn with_body(mut self, body: impl Into<Bytes>) -> Response {
        self.body = body.into();
        self.headers
            .set("content-length", content_length(self.body.len()));
        self
    }

    /// Total approximate wire size: status line + headers + body.
    pub fn wire_size(&self) -> u64 {
        let line = 15;
        let hdrs: usize = self
            .headers
            .iter()
            .map(|(k, v)| k.len() + v.len() + 4)
            .sum();
        (line + hdrs + 2) as u64 + self.body.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn methods_classified() {
        assert!(Method::Get.is_safe());
        assert!(Method::PropFind.is_safe());
        assert!(!Method::Put.is_safe());
        assert!(!Method::Lock.is_safe());
        assert_eq!(Method::MkCol.as_str(), "MKCOL");
    }

    #[test]
    fn method_parse_round_trips() {
        for m in [
            Method::Get,
            Method::Head,
            Method::Put,
            Method::Post,
            Method::Delete,
            Method::Options,
            Method::PropFind,
            Method::PropPatch,
            Method::MkCol,
            Method::Copy,
            Method::Move,
            Method::Lock,
            Method::Unlock,
        ] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("get"), None);
        assert_eq!(Method::parse("BREW"), None);
    }

    #[test]
    fn status_codes() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::PARTIAL_CONTENT.is_success());
        assert!(!StatusCode::NOT_MODIFIED.is_success());
        assert_eq!(StatusCode::LOCKED.to_string(), "423 Locked");
        assert_eq!(StatusCode(599).reason(), "Unknown");
    }

    #[test]
    fn headers_case_insensitive() {
        let mut h = Headers::new();
        h.set("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert!(h.contains("CONTENT-TYPE"));
        h.set("content-TYPE", "application/json");
        assert_eq!(h.len(), 1);
        assert_eq!(h.remove("Content-Type"), Some("application/json".into()));
        assert!(h.is_empty());
    }

    #[test]
    fn known_names_are_lower_case_and_sorted() {
        assert!(KNOWN_NAMES.windows(2).all(|w| w[0] < w[1]));
        assert!(KNOWN_NAMES
            .iter()
            .all(|n| !n.bytes().any(|b| b.is_ascii_uppercase())));
        // A known name is borrowed however it is spelled; others are not.
        for name in ["ETag", "etag", "If-None-Match"] {
            assert!(matches!(key_of(name), Cow::Borrowed(_)), "{name}");
        }
        assert!(matches!(key_of("X-Custom"), Cow::Owned(ref n) if n == "x-custom"));
    }

    #[test]
    fn decimals_spell_like_display() {
        for n in [0u64, 7, 10, 99, 100, 65_536, u64::MAX] {
            let mut out = Vec::new();
            push_decimal(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
    }

    #[test]
    fn request_sets_host() {
        let r = Request::get(Url::https("attic.example", "/files/a.txt"));
        assert_eq!(r.host(), "attic.example");
        assert_eq!(r.method, Method::Get);
        assert!(r.wire_size() > 20);
    }

    #[test]
    fn put_carries_body() {
        let r = Request::put(Url::https("h", "/f"), &b"data"[..]);
        assert_eq!(&r.body[..], b"data");
        assert!(r.wire_size() >= 4);
    }

    #[test]
    fn response_builders() {
        let r = Response::ok("hello");
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.headers.get("content-length"), Some("5"));
        let r = Response::new(StatusCode::NOT_MODIFIED).with_header("etag", "\"v3\"");
        assert_eq!(r.headers.get("etag"), Some("\"v3\""));
        assert_eq!(Response::not_found().status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn wire_sizes_track_payload() {
        let small = Response::ok("x").wire_size();
        let big = Response::ok(vec![0u8; 1000]).wire_size();
        assert!(big > small + 900);
    }
}

//! HTTP/1.1 wire framing: encode/decode [`Request`] and [`Response`]
//! to and from bytes.
//!
//! The netsim fabric passes message *structs* around; a real socket
//! passes bytes. This module is the boundary the `attic-daemon` adapter
//! sits on: request-line + header block + `Content-Length`-delimited
//! body, CRLF line endings, no chunked transfer (the attic always knows
//! its body sizes up front). Decoders are incremental — they return
//! `Ok(None)` when the buffer does not yet hold a complete message, so
//! a read loop can keep appending bytes and retrying.

use crate::message::{push_decimal, Headers, Method, Request, Response, StatusCode};
use crate::url::Url;
use bytes::Bytes;
use std::sync::Arc;

/// Why a byte stream failed to parse as HTTP/1.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The start line is not valid HTTP/1.1.
    BadStartLine,
    /// A header line is missing the `:` separator or is not UTF-8.
    BadHeader,
    /// `Content-Length` is present but unparseable.
    BadContentLength,
    /// An unsupported method token.
    BadMethod,
    /// The header block or the declared body exceeds its hard cap
    /// (defense against unbounded buffers).
    TooLarge,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameError::BadStartLine => "malformed start line",
            FrameError::BadHeader => "malformed header",
            FrameError::BadContentLength => "malformed content-length",
            FrameError::BadMethod => "unsupported method",
            FrameError::TooLarge => "header block or body too large",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FrameError {}

/// Hard cap on the header block; a home appliance has no business
/// accepting megabyte header sections.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Hard cap on a declared body. `Content-Length` comes straight off
/// the socket: unbounded, it lets a peer grow the read buffer without
/// limit, and a body of 4 GiB or more could not be journaled behind
/// the codec's `u32` length prefix. Far above anything the attic is
/// sent in one request, far below `u32::MAX`.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Appends the header lines of `headers` but `Content-Length`, then
/// the one `body` has, the blank line and `body`.
fn push_headers_and_body(out: &mut Vec<u8>, headers: &Headers, body: &[u8]) {
    for (name, value) in headers.iter() {
        if name == "content-length" {
            continue;
        }
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"content-length: ");
    push_decimal(out, body.len() as u64);
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

/// Serializes a request for the wire. `Content-Length` is always
/// emitted (0 for bodiless requests) so the peer never needs
/// read-until-close.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + req.body.len());
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.url.path().as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    push_headers_and_body(&mut out, &req.headers, &req.body);
    out
}

/// Serializes a response for the wire (mirror of [`encode_request`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + resp.body.len());
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(&mut out, u64::from(resp.status.0));
    out.push(b' ');
    out.extend_from_slice(resp.status.reason().as_bytes());
    out.extend_from_slice(b"\r\n");
    push_headers_and_body(&mut out, &resp.headers, &resp.body);
    out
}

/// Finds the end of the header block (`\r\n\r\n`), if present.
fn header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Splits the head off the front of `buf`: the start line, the header
/// lines after it, and the offset the body starts at. `Ok(None)` until
/// the blank line has arrived.
fn split_head(buf: &[u8]) -> Result<Option<(&str, &str, usize)>, FrameError> {
    let Some(head_len) = header_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(FrameError::TooLarge);
        }
        return Ok(None);
    };
    if head_len > MAX_HEADER_BYTES {
        return Err(FrameError::TooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_len - 4]).map_err(|_| FrameError::BadHeader)?;
    let (start, rest) = head.split_once("\r\n").unwrap_or((head, ""));
    Ok(Some((start, rest, head_len)))
}

/// A parsed header block: every header but `Host`, the last `Host`
/// value (left for the caller to store, so a request can share it with
/// its URL), and the offset the message ends at.
type Head<'a> = (Headers, Option<&'a str>, usize);

/// Parses the header lines and bounds the body they declare, or
/// `Ok(None)` while `buf` does not hold the whole body yet.
fn parse_headers<'a>(
    block: &'a str,
    head_len: usize,
    buf: &[u8],
) -> Result<Option<Head<'a>>, FrameError> {
    let mut headers = Headers::new();
    let (mut host, mut content_length) = (None, 0usize);
    for line in block.split("\r\n").filter(|l| !l.is_empty()) {
        let (name, value) = line.split_once(':').ok_or(FrameError::BadHeader)?;
        let name = name.trim();
        let value = value.trim();
        if name.is_empty() {
            return Err(FrameError::BadHeader);
        }
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| FrameError::BadContentLength)?;
        }
        if name.eq_ignore_ascii_case("host") {
            host = Some(value);
        } else {
            headers.set(name, value);
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(FrameError::TooLarge);
    }
    let total = head_len
        .checked_add(content_length)
        .ok_or(FrameError::TooLarge)?;
    Ok((buf.len() >= total).then_some((headers, host, total)))
}

/// Attempts to decode one request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a complete message is
/// present, `Ok(None)` when more bytes are needed.
///
/// # Errors
///
/// [`FrameError`] on malformed or oversized input — the connection
/// should be answered `400` and closed.
pub fn decode_request(buf: &[u8]) -> Result<Option<(Request, usize)>, FrameError> {
    let Some((start, rest, head_len)) = split_head(buf)? else {
        return Ok(None);
    };
    let mut parts = start.split(' ');
    let method = parts.next().ok_or(FrameError::BadStartLine)?;
    let target = parts.next().ok_or(FrameError::BadStartLine)?;
    let version = parts.next().ok_or(FrameError::BadStartLine)?;
    if parts.next().is_some() || version != "HTTP/1.1" || !target.starts_with('/') {
        return Err(FrameError::BadStartLine);
    }
    let method = Method::parse(method).ok_or(FrameError::BadMethod)?;
    let Some((mut headers, host, total)) = parse_headers(rest, head_len, buf)? else {
        return Ok(None);
    };
    let url = match host {
        Some("") => return Err(FrameError::BadHeader),
        Some(host) => {
            let host = Arc::<str>::from(host);
            headers.set_shared("host", Arc::clone(&host));
            Url::with_shared_host("http", host, target)
        }
        None => Url::new("http", "localhost", target),
    };
    Ok(Some((
        Request {
            method,
            url,
            headers,
            body: Bytes::copy_from_slice(&buf[head_len..total]),
        },
        total,
    )))
}

/// Attempts to decode one response from the front of `buf` (mirror of
/// [`decode_request`]).
///
/// # Errors
///
/// [`FrameError`] on malformed or oversized input.
pub fn decode_response(buf: &[u8]) -> Result<Option<(Response, usize)>, FrameError> {
    let Some((start, rest, head_len)) = split_head(buf)? else {
        return Ok(None);
    };
    let code = start
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or(FrameError::BadStartLine)?;
    let Some((mut headers, host, total)) = parse_headers(rest, head_len, buf)? else {
        return Ok(None);
    };
    if let Some(host) = host {
        headers.set("host", host);
    }
    Ok(Some((
        Response {
            status: StatusCode(code),
            headers,
            body: Bytes::copy_from_slice(&buf[head_len..total]),
        },
        total,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(p: &str) -> Url {
        Url::new("http", "attic.home", p)
    }

    #[test]
    fn request_round_trips() {
        let req = Request::put(url("/docs/a.txt"), &b"hello"[..])
            .with_header("if-match", "\"abc\"")
            .with_header("depth", "0");
        let wire = encode_request(&req);
        let (back, consumed) = decode_request(&wire).unwrap().expect("complete");
        assert_eq!(consumed, wire.len());
        assert_eq!(back.method, Method::Put);
        assert_eq!(back.url.path(), "/docs/a.txt");
        assert_eq!(back.headers.get("if-match"), Some("\"abc\""));
        assert_eq!(back.headers.get("depth"), Some("0"));
        assert_eq!(&back.body[..], b"hello");
    }

    /// A decoded request holds its host once: the `Host` header and the
    /// URL share the text.
    #[test]
    fn decoded_host_is_shared_with_the_url() {
        let wire = b"GET /f HTTP/1.1\r\nHost: attic.home\r\n\r\n";
        let (req, _) = decode_request(wire).unwrap().expect("complete");
        let header = req.headers.get("host").unwrap();
        assert_eq!((header, req.url.host()), ("attic.home", "attic.home"));
        assert!(std::ptr::eq(header, req.url.host()));
    }

    #[test]
    fn response_round_trips() {
        let resp = Response::ok("body bytes").with_header("etag", "\"xyz\"");
        let wire = encode_response(&resp);
        let (back, consumed) = decode_response(&wire).unwrap().expect("complete");
        assert_eq!(consumed, wire.len());
        assert_eq!(back.status, StatusCode::OK);
        assert_eq!(back.headers.get("etag"), Some("\"xyz\""));
        assert_eq!(&back.body[..], b"body bytes");
    }

    #[test]
    fn partial_messages_ask_for_more() {
        let wire = encode_request(&Request::put(url("/f"), &b"0123456789"[..]));
        // Any strict prefix is incomplete, never an error.
        for cut in [0, 1, wire.len() / 2, wire.len() - 1] {
            assert!(decode_request(&wire[..cut]).unwrap().is_none());
        }
        // Trailing pipelined bytes are left unconsumed.
        let mut two = wire.clone();
        two.extend_from_slice(&wire);
        let (_, consumed) = decode_request(&two).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert_eq!(
            decode_request(b"BREW /pot HTTP/1.1\r\n\r\n").unwrap_err(),
            FrameError::BadMethod
        );
        assert_eq!(
            decode_request(b"GET /x HTTP/0.9\r\n\r\n").unwrap_err(),
            FrameError::BadStartLine
        );
        assert_eq!(
            decode_request(b"GET relative HTTP/1.1\r\n\r\n").unwrap_err(),
            FrameError::BadStartLine
        );
        assert_eq!(
            decode_request(b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n").unwrap_err(),
            FrameError::BadHeader
        );
        // A URL has a host: a present but empty one is malformed, not a
        // panic.
        for empty in [
            &b"GET /x HTTP/1.1\r\nhost:\r\n\r\n"[..],
            b"GET /x HTTP/1.1\r\nHost:  \r\n\r\n",
        ] {
            assert_eq!(decode_request(empty).unwrap_err(), FrameError::BadHeader);
        }
        assert_eq!(
            decode_request(b"GET /x HTTP/1.1\r\ncontent-length: soup\r\n\r\n").unwrap_err(),
            FrameError::BadContentLength
        );
        let huge = vec![b'a'; MAX_HEADER_BYTES + 10];
        assert_eq!(decode_request(&huge).unwrap_err(), FrameError::TooLarge);
    }

    #[test]
    fn webdav_verbs_frame() {
        let req = Request::new(Method::PropFind, url("/d")).with_header("depth", "infinity");
        let wire = encode_request(&req);
        assert!(wire.starts_with(b"PROPFIND /d HTTP/1.1\r\n"));
        let (back, _) = decode_request(&wire).unwrap().unwrap();
        assert_eq!(back.method, Method::PropFind);
    }

    /// `Content-Length` is attacker-chosen: a value that would overflow
    /// `head_len + content_length`, and any declared body over the cap,
    /// is refused from the header alone — for requests and responses
    /// alike — rather than indexed with or buffered towards.
    #[test]
    fn hostile_content_length_is_refused_not_trusted() {
        for declared in [usize::MAX, MAX_BODY_BYTES + 1] {
            let req = format!("PUT /f HTTP/1.1\r\ncontent-length: {declared}\r\n\r\nxy");
            assert_eq!(
                decode_request(req.as_bytes()).unwrap_err(),
                FrameError::TooLarge
            );
            let resp = format!("HTTP/1.1 200 OK\r\ncontent-length: {declared}\r\n\r\nxy");
            assert_eq!(
                decode_response(resp.as_bytes()).unwrap_err(),
                FrameError::TooLarge
            );
        }
    }

    #[test]
    fn body_at_the_cap_frames_and_leaves_the_pipeline_intact() {
        let big = Request::put(url("/big"), vec![7u8; MAX_BODY_BYTES]);
        let mut wire = encode_request(&big);
        let first_len = wire.len();
        wire.extend_from_slice(&encode_request(&Request::new(Method::Get, url("/next"))));
        let (first, consumed) = decode_request(&wire).unwrap().expect("complete");
        assert_eq!((first.body.len(), consumed), (MAX_BODY_BYTES, first_len));
        let (next, rest) = decode_request(&wire[consumed..])
            .unwrap()
            .expect("complete");
        assert_eq!((next.url.path(), consumed + rest), ("/next", wire.len()));
    }
}

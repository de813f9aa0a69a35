//! WebDAV property XML: the 207 Multi-Status document and the
//! `PROPFIND`/`PROPPATCH` request bodies (RFC 4918 §9.1, §14).
//!
//! The paper's attic is a WebDAV server, and real WebDAV clients speak
//! property XML: a `PROPFIND` carries an optional body selecting
//! properties, and the server answers `207 Multi-Status` — one
//! `<D:response>` per resource, each holding `<D:propstat>` groups that
//! pair a set of properties with the status that applies to them (found
//! properties under `200 OK`, unknown ones under `404 Not Found`).
//!
//! Both directions live here: one encoder, `MultiStatusWriter`, which
//! appends escaped XML into a single buffer — the server streams each
//! `PROPFIND` / `PROPPATCH` answer through it, and
//! [`MultiStatus::to_xml`] encodes a built document with it — and a
//! small parser ([`MultiStatus::parse`],
//! [`PropfindBody::parse`]) sufficient for round-tripping our own
//! documents and reading client requests. The parser accepts the `D:`
//! namespace prefix (or none) and the five standard XML entities.

use hpop_http::message::StatusCode;

/// Appends `s` to `out` with the five XML metacharacters escaped, for
/// text content and attribute values alike. Scans bytes and copies each
/// run between metacharacters whole: every metacharacter is ASCII, so
/// every cut falls on a character boundary.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&apos;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends `n` in decimal, without going through `fmt`.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Reverses the escaping the Multi-Status writer applies. Unknown
/// entities are left verbatim.
pub fn xml_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let known = [
            ("&amp;", '&'),
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&quot;", '"'),
            ("&apos;", '\''),
        ];
        match known.iter().find(|(e, _)| rest.starts_with(e)) {
            Some((entity, ch)) => {
                out.push(*ch);
                rest = &rest[entity.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// The value of one WebDAV property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PropValue {
    /// Ordinary text content (`<D:getetag>"abc"</D:getetag>`).
    Text(String),
    /// The collection marker (`<D:resourcetype><D:collection/></D:resourcetype>`).
    Collection,
    /// An empty element (`<D:resourcetype/>`; also used in `propname`
    /// listings and 404 propstats, where only the name is reported).
    Empty,
}

/// One `<D:propstat>`: a set of properties sharing a status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Propstat {
    /// The HTTP status applying to every property in this group.
    pub status: StatusCode,
    /// `(name, value)` pairs; names carry no namespace prefix.
    pub props: Vec<(String, PropValue)>,
}

/// One `<D:response>`: a resource and its property statuses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DavResponse {
    /// The resource URI (path, possibly with a `?version=` suffix).
    pub href: String,
    /// Property groups, one per distinct status.
    pub propstats: Vec<Propstat>,
}

/// A `207 Multi-Status` document body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiStatus {
    /// Per-resource responses, in the order they will be emitted.
    pub responses: Vec<DavResponse>,
}

impl MultiStatus {
    /// Encodes the document through `MultiStatusWriter`. Every text
    /// node and href is escaped; an empty `Text` value is encoded as an
    /// open/close pair so it stays distinguishable from
    /// [`PropValue::Empty`] on re-parse.
    pub fn to_xml(&self) -> String {
        let mut w = MultiStatusWriter::with_capacity(256);
        for r in &self.responses {
            w.open_response(&r.href, None);
            for ps in &r.propstats {
                w.open_propstat();
                for (name, value) in &ps.props {
                    match value {
                        PropValue::Text(t) => w.text(name, t),
                        PropValue::Collection => w.collection(name),
                        PropValue::Empty => w.empty(name),
                    }
                }
                w.close_propstat(ps.status);
            }
            w.close_response();
        }
        w.finish()
    }

    /// Parses a Multi-Status document produced by [`MultiStatus::to_xml`]
    /// (or an equivalent one from another server). Returns `None` on any
    /// structural violation.
    pub fn parse(xml: &str) -> Option<MultiStatus> {
        let mut toks = Tokenizer::new(xml);
        toks.expect_open("multistatus")?;
        let mut responses = Vec::new();
        loop {
            match toks.next()? {
                Token::Open("response") => responses.push(parse_response(&mut toks)?),
                Token::Close("multistatus") => break,
                _ => return None,
            }
        }
        Some(MultiStatus { responses })
    }
}

/// The one Multi-Status encoder: the document is appended into a single
/// `String` as the caller walks its resources, one element per call, so
/// nothing is built per property first. The caller pairs the calls:
/// `open_response`, then per status group `open_propstat`, the
/// properties, `close_propstat`; then `close_response`. Property names
/// are element names and are written as given; every href and text value
/// is escaped.
pub(crate) struct MultiStatusWriter {
    xml: String,
}

impl MultiStatusWriter {
    /// A document with room for about `bytes` bytes, its XML declaration
    /// and `<D:multistatus>` already written.
    pub(crate) fn with_capacity(bytes: usize) -> MultiStatusWriter {
        let mut xml = String::with_capacity(bytes);
        xml.push_str("<?xml version=\"1.0\" encoding=\"utf-8\"?>\n");
        xml.push_str("<D:multistatus xmlns:D=\"DAV:\">\n");
        MultiStatusWriter { xml }
    }

    /// Opens a `<D:response>` for `href`, or for `href?version=N` when
    /// `version` is `Some(N)`.
    pub(crate) fn open_response(&mut self, href: &str, version: Option<usize>) {
        self.xml.push_str("<D:response>\n<D:href>");
        push_escaped(&mut self.xml, href);
        if let Some(n) = version {
            self.xml.push_str("?version=");
            push_decimal(&mut self.xml, n as u64);
        }
        self.xml.push_str("</D:href>\n");
    }

    /// Opens a `<D:propstat>` group.
    pub(crate) fn open_propstat(&mut self) {
        self.xml.push_str("<D:propstat>\n<D:prop>\n");
    }

    /// `<D:name>text</D:name>`, the text escaped.
    pub(crate) fn text(&mut self, name: &str, text: &str) {
        self.open_element(name);
        push_escaped(&mut self.xml, text);
        self.close_element(name);
    }

    /// `<D:name>n</D:name>`.
    pub(crate) fn number(&mut self, name: &str, n: u64) {
        self.open_element(name);
        push_decimal(&mut self.xml, n);
        self.close_element(name);
    }

    /// `<D:name><D:collection/></D:name>`.
    pub(crate) fn collection(&mut self, name: &str) {
        self.open_element(name);
        self.xml.push_str("<D:collection/>");
        self.close_element(name);
    }

    /// `<D:name/>`.
    pub(crate) fn empty(&mut self, name: &str) {
        self.xml.push_str("<D:");
        self.xml.push_str(name);
        self.xml.push_str("/>\n");
    }

    /// Closes the open `<D:propstat>` with the status its properties
    /// share.
    pub(crate) fn close_propstat(&mut self, status: StatusCode) {
        self.xml.push_str("</D:prop>\n<D:status>HTTP/1.1 ");
        push_decimal(&mut self.xml, u64::from(status.0));
        self.xml.push(' ');
        self.xml.push_str(status.reason());
        self.xml.push_str("</D:status>\n</D:propstat>\n");
    }

    /// Closes the open `<D:response>`.
    pub(crate) fn close_response(&mut self) {
        self.xml.push_str("</D:response>\n");
    }

    /// Closes the document and hands it over.
    pub(crate) fn finish(mut self) -> String {
        self.xml.push_str("</D:multistatus>\n");
        self.xml
    }

    fn open_element(&mut self, name: &str) {
        self.xml.push_str("<D:");
        self.xml.push_str(name);
        self.xml.push('>');
    }

    fn close_element(&mut self, name: &str) {
        self.xml.push_str("</D:");
        self.xml.push_str(name);
        self.xml.push_str(">\n");
    }
}

fn parse_response(toks: &mut Tokenizer<'_>) -> Option<DavResponse> {
    toks.expect_open("href")?;
    let href = match toks.next()? {
        Token::Text(t) => {
            if toks.next()? != Token::Close("href") {
                return None;
            }
            t
        }
        Token::Close("href") => String::new(),
        _ => return None,
    };
    let mut propstats = Vec::new();
    loop {
        match toks.next()? {
            Token::Open("propstat") => propstats.push(parse_propstat(toks)?),
            Token::Close("response") => break,
            _ => return None,
        }
    }
    Some(DavResponse { href, propstats })
}

fn parse_propstat(toks: &mut Tokenizer<'_>) -> Option<Propstat> {
    toks.expect_open("prop")?;
    let mut props = Vec::new();
    loop {
        match toks.next()? {
            Token::Close("prop") => break,
            Token::SelfClose(name) => props.push((name.to_owned(), PropValue::Empty)),
            Token::Open(name) => {
                let value = match toks.next()? {
                    Token::Text(t) => {
                        if toks.next()? != Token::Close(name) {
                            return None;
                        }
                        PropValue::Text(t)
                    }
                    Token::Close(n) if n == name => PropValue::Text(String::new()),
                    Token::SelfClose("collection") => {
                        if toks.next()? != Token::Close(name) {
                            return None;
                        }
                        PropValue::Collection
                    }
                    _ => return None,
                };
                props.push((name.to_owned(), value));
            }
            _ => return None,
        }
    }
    toks.expect_open("status")?;
    let status = match toks.next()? {
        Token::Text(line) => parse_status_line(&line)?,
        _ => return None,
    };
    if toks.next()? != Token::Close("status") {
        return None;
    }
    if toks.next()? != Token::Close("propstat") {
        return None;
    }
    Some(Propstat { status, props })
}

fn parse_status_line(line: &str) -> Option<StatusCode> {
    let rest = line.trim().strip_prefix("HTTP/1.1 ")?;
    let code: u16 = rest.split_whitespace().next()?.parse().ok()?;
    Some(StatusCode(code))
}

/// What a `PROPFIND` request body asks for (RFC 4918 §9.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PropfindBody {
    /// `<D:allprop/>` or an empty body: every live property.
    AllProp,
    /// `<D:propname/>`: names only, no values.
    PropName,
    /// `<D:prop>` with an explicit list of property names.
    Props(Vec<String>),
}

impl PropfindBody {
    /// Parses a propfind body; an empty (or whitespace-only) body means
    /// `allprop` per the RFC. Returns `None` on malformed XML.
    pub fn parse(body: &str) -> Option<PropfindBody> {
        if body.trim().is_empty() {
            return Some(PropfindBody::AllProp);
        }
        let mut toks = Tokenizer::new(body);
        toks.expect_open("propfind")?;
        let mode = match toks.next()? {
            Token::SelfClose("allprop") => PropfindBody::AllProp,
            Token::SelfClose("propname") => PropfindBody::PropName,
            Token::Open("allprop") => {
                if toks.next()? != Token::Close("allprop") {
                    return None;
                }
                PropfindBody::AllProp
            }
            Token::Open("propname") => {
                if toks.next()? != Token::Close("propname") {
                    return None;
                }
                PropfindBody::PropName
            }
            Token::Open("prop") => {
                let mut names = Vec::new();
                loop {
                    match toks.next()? {
                        Token::SelfClose(n) => names.push(n.to_owned()),
                        Token::Open(n) => {
                            if toks.next()? != Token::Close(n) {
                                return None;
                            }
                            names.push(n.to_owned());
                        }
                        Token::Close("prop") => break,
                        _ => return None,
                    }
                }
                PropfindBody::Props(names)
            }
            _ => return None,
        };
        if toks.next()? != Token::Close("propfind") {
            return None;
        }
        Some(mode)
    }

    /// Encodes the request body (used by tests and the conformance
    /// suite's client side).
    pub fn to_xml(&self) -> String {
        let inner = match self {
            PropfindBody::AllProp => "<D:allprop/>".to_owned(),
            PropfindBody::PropName => "<D:propname/>".to_owned(),
            PropfindBody::Props(names) => {
                let mut s = String::from("<D:prop>");
                for n in names {
                    s.push_str(&format!("<D:{n}/>"));
                }
                s.push_str("</D:prop>");
                s
            }
        };
        format!(
            "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n<D:propfind xmlns:D=\"DAV:\">{inner}</D:propfind>\n"
        )
    }
}

/// Property names a `PROPPATCH` body touches (inside `<D:set>` /
/// `<D:remove>`); the attic exposes live properties only, so every one
/// of these is answered with `403 Forbidden` in the Multi-Status.
pub fn proppatch_prop_names(body: &str) -> Option<Vec<String>> {
    let mut toks = Tokenizer::new(body);
    toks.expect_open("propertyupdate")?;
    let mut names = Vec::new();
    let mut depth = 1usize;
    // Names are whatever appears directly inside a <D:prop> element.
    let mut in_prop = false;
    loop {
        match toks.next()? {
            Token::Open("prop") => {
                in_prop = true;
                depth += 1;
            }
            Token::Close("prop") => {
                in_prop = false;
                depth -= 1;
            }
            Token::Open(_) => depth += 1,
            Token::Close("propertyupdate") => break,
            Token::Close(_) => {
                depth = depth.checked_sub(1)?;
            }
            Token::SelfClose(n) => {
                if in_prop {
                    names.push(n.to_owned());
                }
            }
            Token::Text(_) => {}
        }
    }
    Some(names)
}

/// A minimal XML pull tokenizer for the WebDAV subset: tags (with an
/// optional `D:` prefix that is stripped), text nodes, self-closing
/// elements. Comments, CDATA and processing instructions other than the
/// leading `<?xml …?>` are not supported — the attic never emits them.
#[derive(Debug)]
struct Tokenizer<'a> {
    rest: &'a str,
}

#[derive(Debug, PartialEq, Eq)]
enum Token<'a> {
    Open(&'a str),
    Close(&'a str),
    SelfClose(&'a str),
    Text(String),
}

/// Strips an optional namespace prefix (`D:foo` → `foo`).
fn local_name(name: &str) -> &str {
    match name.split_once(':') {
        Some((_, local)) => local,
        None => name,
    }
}

impl<'a> Tokenizer<'a> {
    fn new(s: &'a str) -> Tokenizer<'a> {
        Tokenizer { rest: s }
    }

    /// The next token, skipping whitespace-only text and the XML
    /// declaration. `None` at end of input or on malformed markup.
    fn next(&mut self) -> Option<Token<'a>> {
        loop {
            self.rest = self.rest.trim_start();
            if self.rest.is_empty() {
                return None;
            }
            if let Some(after) = self.rest.strip_prefix("<?") {
                let end = after.find("?>")?;
                self.rest = &after[end + 2..];
                continue;
            }
            if let Some(after) = self.rest.strip_prefix("</") {
                let end = after.find('>')?;
                let name = local_name(after[..end].trim());
                self.rest = &after[end + 1..];
                return Some(Token::Close(name));
            }
            if let Some(after) = self.rest.strip_prefix('<') {
                let end = after.find('>')?;
                let raw = after[..end].trim();
                self.rest = &after[end + 1..];
                if let Some(inner) = raw.strip_suffix('/') {
                    let name = inner.split_whitespace().next()?;
                    return Some(Token::SelfClose(local_name(name)));
                }
                // Attributes (e.g. xmlns:D="DAV:") are skipped.
                let name = raw.split_whitespace().next()?;
                return Some(Token::Open(local_name(name)));
            }
            // Text node: up to the next tag.
            let end = self.rest.find('<').unwrap_or(self.rest.len());
            let (text, rest) = self.rest.split_at(end);
            self.rest = rest;
            let text = text.trim();
            if !text.is_empty() {
                return Some(Token::Text(xml_unescape(text)));
            }
        }
    }

    /// Requires the next token to open `name`.
    fn expect_open(&mut self, name: &str) -> Option<()> {
        match self.next()? {
            Token::Open(n) if n == name => Some(()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        push_escaped(&mut out, s);
        out
    }

    #[test]
    fn escape_round_trip() {
        let hairy = "a&b<c>d\"e'f &amp; <D:fake/> ünï&cödé";
        assert_eq!(xml_unescape(&escaped(hairy)), hairy);
        assert_eq!(escaped("plain"), "plain");
        assert_eq!(escaped("'&'"), "&apos;&amp;&apos;");
        // Unknown entities survive verbatim.
        assert_eq!(xml_unescape("&bogus; &"), "&bogus; &");
    }

    #[test]
    fn multistatus_round_trips() {
        let ms = MultiStatus {
            responses: vec![
                DavResponse {
                    href: "/docs/a&b.txt".into(),
                    propstats: vec![
                        Propstat {
                            status: StatusCode::OK,
                            props: vec![
                                ("displayname".into(), PropValue::Text("a&b.txt".into())),
                                ("getetag".into(), PropValue::Text("\"abc\"".into())),
                                ("resourcetype".into(), PropValue::Empty),
                            ],
                        },
                        Propstat {
                            status: StatusCode::NOT_FOUND,
                            props: vec![("missingprop".into(), PropValue::Empty)],
                        },
                    ],
                },
                DavResponse {
                    href: "/docs".into(),
                    propstats: vec![Propstat {
                        status: StatusCode::OK,
                        props: vec![("resourcetype".into(), PropValue::Collection)],
                    }],
                },
            ],
        };
        let xml = ms.to_xml();
        assert!(xml.contains("HTTP/1.1 404 Not Found"));
        assert!(xml.contains("a&amp;b.txt"));
        let back = MultiStatus::parse(&xml).expect("parses");
        assert_eq!(back, ms);
    }

    #[test]
    fn empty_text_distinct_from_empty_element() {
        let ms = MultiStatus {
            responses: vec![DavResponse {
                href: "/f".into(),
                propstats: vec![Propstat {
                    status: StatusCode::OK,
                    props: vec![
                        ("a".into(), PropValue::Text(String::new())),
                        ("b".into(), PropValue::Empty),
                    ],
                }],
            }],
        };
        let back = MultiStatus::parse(&ms.to_xml()).expect("parses");
        assert_eq!(back, ms);
    }

    #[test]
    fn propfind_bodies() {
        assert_eq!(PropfindBody::parse(""), Some(PropfindBody::AllProp));
        assert_eq!(PropfindBody::parse("  \n"), Some(PropfindBody::AllProp));
        let allprop =
            "<?xml version=\"1.0\"?><D:propfind xmlns:D=\"DAV:\"><D:allprop/></D:propfind>";
        assert_eq!(PropfindBody::parse(allprop), Some(PropfindBody::AllProp));
        let named =
            "<D:propfind xmlns:D=\"DAV:\"><D:prop><D:getetag/><D:resourcetype/></D:prop></D:propfind>";
        assert_eq!(
            PropfindBody::parse(named),
            Some(PropfindBody::Props(vec![
                "getetag".into(),
                "resourcetype".into()
            ]))
        );
        // No-prefix documents parse too.
        let bare = "<propfind><propname/></propfind>";
        assert_eq!(PropfindBody::parse(bare), Some(PropfindBody::PropName));
        // Round-trip through our own encoder.
        for body in [
            PropfindBody::AllProp,
            PropfindBody::PropName,
            PropfindBody::Props(vec!["getetag".into(), "version-list".into()]),
        ] {
            assert_eq!(PropfindBody::parse(&body.to_xml()), Some(body));
        }
        assert_eq!(PropfindBody::parse("<not-propfind/>"), None);
        assert_eq!(PropfindBody::parse("<D:propfind><D:prop>"), None);
    }

    #[test]
    fn proppatch_names_extracted() {
        let body = "<?xml version=\"1.0\"?>\
            <D:propertyupdate xmlns:D=\"DAV:\">\
            <D:set><D:prop><D:color/><D:rank/></D:prop></D:set>\
            <D:remove><D:prop><D:stale/></D:prop></D:remove>\
            </D:propertyupdate>";
        assert_eq!(
            proppatch_prop_names(body),
            Some(vec!["color".into(), "rank".into(), "stale".into()])
        );
        assert_eq!(proppatch_prop_names("<garbage"), None);
    }

    #[test]
    fn malformed_documents_rejected() {
        assert_eq!(MultiStatus::parse(""), None);
        assert_eq!(MultiStatus::parse("<D:multistatus>"), None);
        assert_eq!(
            MultiStatus::parse("<D:multistatus><D:bogus/></D:multistatus>"),
            None
        );
        let truncated = "<D:multistatus><D:response><D:href>/x</D:href>";
        assert_eq!(MultiStatus::parse(truncated), None);
    }
}

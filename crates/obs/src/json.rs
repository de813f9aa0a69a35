//! A small, dependency-free JSON value model, writer and parser.
//!
//! The build environment has no route to crates.io, so serde is not
//! available; this module provides the subset the observability layer
//! needs: a [`Value`] tree, compact and pretty writers with full string
//! escaping, and a strict recursive-descent parser.
//!
//! Numbers are `f64`; integers round-trip exactly up to 2^53, far above
//! any counter an experiment produces.

use std::fmt::Write as _;

/// A JSON document node. Object keys keep insertion order so exported
/// snapshots are byte-stable across runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object. Panics on non-objects.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) -> &mut Value {
        let Value::Obj(entries) = self else {
            panic!("Value::set on non-object");
        };
        let key = key.into();
        let value = value.into();
        if let Some(e) = entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 = value;
        } else {
            entries.push((key, value));
        }
        self
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's entries, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(e) => Some(e),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view (numbers with no fractional part).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Human-readable two-space-indented encoding.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d)
                })
            }
            Value::Obj(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                    write_string(out, &entries[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    entries[i].1.write(out, indent, d);
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Arr(v)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n as f64)
            }
        }
    )*}
}
from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32);

/// Where and why parsing stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so without a cap a file of `[`s overflows the stack and aborts
/// the process; the deepest document this workspace writes nests 6.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected). Nesting deeper than 128 levels is an
/// error, not a stack overflow.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = ParserState {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct ParserState<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl ParserState<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain UTF-8 bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(self.err(format!("bad escape \\{}", c as char))),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let mut v = Value::obj();
        v.set("name", "exp_nocdn_offload");
        v.set("count", 42u64);
        v.set("ratio", 0.375f64);
        v.set("ok", true);
        v.set("none", Value::Null);
        v.set(
            "arr",
            Value::Arr(vec![Value::from(1u32), Value::from("two"), Value::Null]),
        );
        for encoded in [v.to_json(), v.to_json_pretty()] {
            assert_eq!(parse(&encoded).expect("parses"), v);
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}f/ü".into());
        assert_eq!(parse(&v.to_json()).expect("parses"), v);
    }

    #[test]
    fn integers_stay_integers() {
        let v = Value::from(9_007_199_254_740_992u64); // 2^53
        assert_eq!(v.to_json(), "9007199254740992");
        assert_eq!(parse("123").expect("parses").as_u64(), Some(123));
        assert_eq!(parse("-1.5e3").expect("parses").as_f64(), Some(-1500.0));
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut v = Value::obj();
        v.set("k", 1u32);
        v.set("k", 2u32);
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(2));
        assert_eq!(v.entries().map(|e| e.len()), Some(1));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("truthy").is_err());
    }

    /// 100,000 unclosed `[`s on a test thread's 2 MiB stack: refused at
    /// the nesting cap, where an uncapped recursion overflows the stack
    /// and aborts. Nesting at the cap still parses.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).expect_err("100,000 levels are refused");
        assert_eq!(err.at, MAX_DEPTH);
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&objects).map_err(|e| e.at), Err(5 * MAX_DEPTH));
    }

    /// JSON fragments the soup below strings together: every bracket,
    /// separator and literal, escapes good and bad, and numbers.
    const TOKENS: [&str; 16] = [
        "[",
        "]",
        "{",
        "}",
        ":",
        ",",
        " ",
        "\"k\"",
        "\"\\u12\"",
        "\"\\ud800\\n\"",
        "1",
        "-2.5e3",
        "true",
        "nul",
        "\\",
        "\u{e9}",
    ];

    proptest::proptest! {
        /// Bytes off a disk or a socket: arbitrary bytes (as the `&str`
        /// a reader would hand over) and arbitrary soups of JSON tokens,
        /// nested as deep as they like, parse or fail without a panic,
        /// and a failure points inside the input.
        #[test]
        fn parse_never_panics_on_arbitrary_input(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
            soup in proptest::collection::vec(0..TOKENS.len(), 0..400),
        ) {
            let soup: String = soup.into_iter().map(|t| TOKENS[t]).collect();
            for input in [String::from_utf8_lossy(&bytes).into_owned(), soup] {
                if let Err(e) = parse(&input) {
                    proptest::prop_assert!(e.at <= input.len(), "{e} past {}", input.len());
                }
            }
        }
    }

    #[test]
    fn parses_nested_whitespace() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").expect("parses");
        assert_eq!(v.get("a").and_then(Value::items).map(|i| i.len()), Some(2));
    }
}

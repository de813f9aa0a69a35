//! The one little-endian byte codec: WAL records, snapshots, every
//! durable adopter's op and state encodings, and the gossip wire.
//!
//! Two layers. [`ByteWriter`] / [`ByteReader`] move primitives —
//! explicit field order, no self-description, `Option`-returning reads
//! so torn or rotted input degrades to `None` instead of panicking.
//! [`Wire`] names a type's layout once, for both directions, and is
//! implemented here for the primitives and the standard collections so
//! an adopter only spells the fields of its own types. The layout rules
//! are fixed: integers and float bit patterns little-endian, strings
//! and byte strings behind a `u32` length, `Option` behind a `u8` tag,
//! collections behind a `u64` count, enums behind a `u8` tag
//! ([`wire!`](crate::wire)). Whole-buffer decodes end in
//! [`ByteReader::finish`], the one place trailing bytes are rejected.

use bytes::Bytes;
use hpop_netsim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes an f64 as its IEEE-754 bit pattern (byte-exact across
    /// encode/decode, unlike any decimal round trip).
    #[inline]
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Writes an f32 as its IEEE-754 bit pattern.
    #[inline]
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.u32(v.to_bits())
    }

    /// Writes a u32 length prefix followed by the raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `v` is 4 GiB or longer: the prefix cannot carry the
    /// length, and a wrapped one would journal a frame that decodes
    /// as something else. Inputs are capped far below this where they
    /// enter the program (`hpop_http::h1::MAX_BODY_BYTES`).
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(u32::try_from(v.len()).expect("byte field fits the u32 length prefix"));
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Writes `v` in its [`Wire`] layout.
    pub fn put<T: Wire>(&mut self, v: &T) -> &mut Self {
        v.put(self);
        self
    }
}

/// Appends to an existing buffer (its contents are kept), so a caller
/// that reuses one scratch `Vec` per message encodes without
/// allocating: `mem::take` it in, [`ByteWriter::into_bytes`] it back.
impl From<Vec<u8>> for ByteWriter {
    fn from(buf: Vec<u8>) -> ByteWriter {
        ByteWriter { buf }
    }
}

/// Reader over an encoded slice: each read consumes from the front.
#[derive(Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { rest: buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Reads an f64 from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a u32-length-prefixed byte slice.
    #[inline]
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let (head, rest) = self.rest.split_at_checked(len)?;
        self.rest = rest;
        Some(head)
    }

    /// Reads an f32 from its bit pattern.
    #[inline]
    pub fn f32(&mut self) -> Option<f32> {
        self.u32().map(f32::from_bits)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).ok()
    }

    /// Reads one `T` in its [`Wire`] layout.
    pub fn get<T: Wire>(&mut self) -> Option<T> {
        T::take(self)
    }

    /// Reads `n` consecutive items (the count has already been read,
    /// in whatever width the format gives it). `n` comes from the
    /// input, so it is checked before anything is reserved: every
    /// [`Wire`] encoding is at least one byte, so a count above the
    /// bytes left cannot be honest, and the up-front reservation is
    /// capped besides.
    pub fn seq<T: Wire>(&mut self, n: u64) -> Option<Vec<T>> {
        let n = usize::try_from(n).ok().filter(|&n| n <= self.remaining())?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(T::take(self)?);
        }
        Some(out)
    }

    /// Ends a whole-buffer decode: `Some(value)` only if every byte was
    /// consumed. Trailing bytes mean the input was not what the caller
    /// thinks it is.
    pub fn finish<T>(self, value: T) -> Option<T> {
        (self.remaining() == 0).then_some(value)
    }
}

/// A type with one fixed byte layout, written once for both directions.
///
/// `take` must read exactly what `put` wrote, and an encoding is never
/// empty ([`ByteReader::seq`] bounds counts by the bytes left).
pub trait Wire: Sized {
    /// Appends `self` to `w`.
    fn put(&self, w: &mut ByteWriter);
    /// Reads one value from the front of `r`; `None` on truncated or
    /// invalid input.
    fn take(r: &mut ByteReader<'_>) -> Option<Self>;
}

/// `v` alone in a fresh buffer — a journal op or a state snapshot.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    v.put(&mut w);
    w.into_bytes()
}

/// The inverse of [`encode`]: one `T` and nothing after it.
pub fn decode<T: Wire>(bytes: &[u8]) -> Option<T> {
    let mut r = ByteReader::new(bytes);
    let v = T::take(&mut r)?;
    r.finish(v)
}

/// The integer widths: `ByteWriter::u32(v)`, `ByteReader::u32()` and
/// `impl Wire for u32`, little-endian, from one definition.
macro_rules! le_ints {
    ($($ty:ident),+) => {
        impl ByteWriter {$(
            #[doc = concat!("Writes a little-endian ", stringify!($ty), ".")]
            #[inline]
            pub fn $ty(&mut self, v: $ty) -> &mut Self {
                self.buf.extend_from_slice(&v.to_le_bytes());
                self
            }
        )+}
        impl ByteReader<'_> {$(
            #[doc = concat!("Reads a little-endian ", stringify!($ty), ".")]
            #[inline]
            pub fn $ty(&mut self) -> Option<$ty> {
                let (raw, rest) = self.rest.split_first_chunk()?;
                self.rest = rest;
                Some($ty::from_le_bytes(*raw))
            }
        )+}
        wire_primitive!($($ty),+);
    };
}

macro_rules! wire_primitive {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, w: &mut ByteWriter) {
                w.$ty(*self);
            }
            #[inline]
            fn take(r: &mut ByteReader<'_>) -> Option<$ty> {
                r.$ty()
            }
        }
    )+};
}
le_ints!(u8, u16, u32, u64, u128);
wire_primitive!(f32, f64);

impl Wire for String {
    fn put(&self, w: &mut ByteWriter) {
        w.str(self);
    }
    fn take(r: &mut ByteReader<'_>) -> Option<String> {
        r.str()
    }
}

impl Wire for Bytes {
    fn put(&self, w: &mut ByteWriter) {
        w.bytes(self);
    }
    fn take(r: &mut ByteReader<'_>) -> Option<Bytes> {
        r.bytes().map(Bytes::copy_from_slice)
    }
}

/// A key, tag or digest: length-prefixed like any byte string, and
/// rejected on decode unless the length is exactly 32.
impl Wire for [u8; 32] {
    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        w.bytes(self);
    }
    #[inline]
    fn take(r: &mut ByteReader<'_>) -> Option<[u8; 32]> {
        r.bytes()?.try_into().ok()
    }
}

impl Wire for SimTime {
    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        w.u64(self.as_nanos());
    }
    #[inline]
    fn take(r: &mut ByteReader<'_>) -> Option<SimTime> {
        r.u64().map(SimTime::from_nanos)
    }
}

impl Wire for SimDuration {
    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        w.u64(self.as_nanos());
    }
    #[inline]
    fn take(r: &mut ByteReader<'_>) -> Option<SimDuration> {
        r.u64().map(SimDuration::from_nanos)
    }
}

macro_rules! wire_tuple {
    ($($field:ident),+) => {
        impl<$($field: Wire),+> Wire for ($($field,)+) {
            #[allow(non_snake_case)]
            fn put(&self, w: &mut ByteWriter) {
                let ($($field,)+) = self;
                $(w.put($field);)+
            }
            fn take(r: &mut ByteReader<'_>) -> Option<Self> {
                Some(($(r.get::<$field>()?,)+))
            }
        }
    };
}
wire_tuple!(A, B);
wire_tuple!(A, B, C);

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            None => w.u8(0),
            Some(v) => w.u8(1).put(v),
        };
    }
    fn take(r: &mut ByteReader<'_>) -> Option<Option<T>> {
        match r.u8()? {
            0 => Some(None),
            1 => r.get().map(Some),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.u64(self.len() as u64);
        for item in self {
            w.put(item);
        }
    }
    fn take(r: &mut ByteReader<'_>) -> Option<Vec<T>> {
        let n = r.u64()?;
        r.seq(n)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, w: &mut ByteWriter) {
        w.u64(self.len() as u64);
        for (k, v) in self {
            w.put(k).put(v);
        }
    }
    fn take(r: &mut ByteReader<'_>) -> Option<BTreeMap<K, V>> {
        let n = r.u64()?;
        (0..n).map(|_| r.get()).collect()
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.u64(self.len() as u64);
        for v in self {
            w.put(v);
        }
    }
    fn take(r: &mut ByteReader<'_>) -> Option<BTreeSet<T>> {
        let n = r.u64()?;
        (0..n).map(|_| r.get()).collect()
    }
}

/// Implements [`Wire`] from one declaration of a type's layout, so the
/// two directions cannot drift apart:
///
/// - `wire!(struct T { a, b })` — the named fields, in the order listed
///   (which need not be the order the struct declares them in);
/// - `wire!(enum T { A = 0, B { x, y } = 1 })` — a `u8` tag, then the
///   variant's listed fields. An unknown tag decodes to `None`, so a
///   retired tag is reserved simply by leaving it out.
///
/// ```
/// use hpop_durability::{codec, wire};
/// #[derive(Debug, PartialEq)]
/// enum Light { Off, Dim { percent: u8 } }
/// wire!(enum Light { Off = 0, Dim { percent } = 2 });
/// assert_eq!(codec::encode(&Light::Dim { percent: 40 }), [2, 40]);
/// assert_eq!(codec::decode::<Light>(&[1]), None);
/// ```
#[macro_export]
macro_rules! wire {
    (struct $ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, w: &mut $crate::codec::ByteWriter) {
                $(w.put(&self.$field);)+
            }
            fn take(r: &mut $crate::codec::ByteReader<'_>) -> Option<$ty> {
                $(let $field = r.get()?;)+
                Some($ty { $($field),+ })
            }
        }
    };
    (enum $ty:ident { $($variant:ident $({ $($field:ident),+ })? = $tag:literal),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, w: &mut $crate::codec::ByteWriter) {
                match self {
                    $($ty::$variant $({ $($field),+ })? => {
                        w.u8($tag);
                        $($(w.put($field);)+)?
                    })+
                }
            }
            fn take(r: &mut $crate::codec::ByteReader<'_>) -> Option<$ty> {
                match r.u8()? {
                    $($tag => Some($ty::$variant $({ $($field: r.get()?),+ })?),)+
                    _ => None,
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type() {
        let mut w = ByteWriter::new();
        w.u8(7)
            .u16(0xBEEF)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX - 1)
            .u128(u128::MAX / 3)
            .f64(-0.1)
            .f32(12.5)
            .bytes(b"payload")
            .str("héllo");
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u16(), Some(0xBEEF));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.u128(), Some(u128::MAX / 3));
        assert_eq!(r.f64(), Some(-0.1));
        assert_eq!(r.f32(), Some(12.5));
        assert_eq!(r.bytes(), Some(&b"payload"[..]));
        assert_eq!(r.str().as_deref(), Some("héllo"));
        assert_eq!(r.finish(()), Some(()));
    }

    type Nested = BTreeMap<String, Vec<(Option<SimTime>, BTreeSet<u32>)>>;

    #[test]
    fn wire_collections_round_trip_and_reject_trailing_bytes() {
        let mut v = Nested::new();
        v.insert("a".into(), vec![(None, BTreeSet::new())]);
        v.insert(
            "b".into(),
            vec![(Some(SimTime::from_secs(3)), BTreeSet::from([9, 4]))],
        );
        let mut buf = encode(&v);
        assert_eq!(decode::<Nested>(&buf), Some(v));
        buf.push(0);
        assert_eq!(decode::<Nested>(&buf), None);
        assert_eq!(decode::<[u8; 32]>(&encode(&vec![7u8; 31])), None);
    }

    /// A count read from the input is never trusted: one that the
    /// remaining bytes cannot back is refused before any reservation
    /// (an unchecked `with_capacity(u64::MAX)` would abort).
    #[test]
    fn dishonest_counts_are_refused_before_reserving() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX).u64(1);
        let buf = w.into_bytes();
        assert_eq!(decode::<Vec<u64>>(&buf), None);
        assert_eq!(decode::<BTreeMap<u64, u64>>(&buf), None);
        assert_eq!(ByteReader::new(&buf[8..]).seq::<u8>(9), None);
        assert_eq!(
            ByteReader::new(&buf[8..]).seq::<u8>(8).map(|v| v.len()),
            Some(8)
        );
    }

    #[test]
    fn truncated_input_reads_none_not_panic() {
        let mut w = ByteWriter::new();
        w.bytes(b"four");
        let buf = w.into_bytes();
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(r.bytes().is_none(), "cut at {cut} should underflow");
        }
    }
}

//! Wire encoding of gossip messages.
//!
//! The fabric is a deterministic simulation, but its byte accounting
//! must be honest: `fabric.gossip.bytes` is the serialized size of
//! every message the protocol would put on the aggregation link, not a
//! `records × constant` estimate. This module defines the three
//! message shapes and their exact layouts; the gossip layer encodes
//! each message into a reusable scratch buffer and charges `buf.len()`.
//!
//! Fields are written and read with the shared little-endian codec
//! (`hpop_durability::codec`); only the message framing — tag bytes,
//! narrow counts patched in place — is particular to this module.
//! Layouts:
//!
//! - **Ping / ack** (`TAG_PING` / `TAG_ACK`): `tag(1) sender(8)
//!   incarnation(8) delta_count(1)` followed by up to 255 piggybacked
//!   records. The header doubles as a heartbeat: it proves the sender
//!   is alive at its stated incarnation.
//! - **Digest** (`TAG_DIGEST`): `tag(1) sender(8) entry_count(2)`
//!   followed by `(id(8) incarnation(8) state_rank(1))` per known
//!   peer — just enough for the receiver to decide, under SWIM
//!   precedence, which full records it must send back.
//! - **Records** (`TAG_RECORDS`): `tag(1) sender(8) record_count(2)`
//!   followed by full records — the digest reply: only the records
//!   the digest showed the other side to be missing or holding stale.
//!
//! A record is `id(8) incarnation(8) state(1) storage_bytes(8)
//! uplink_mbps(f32) cache_slots(4) rtt_ms(f32) updated_at(8)` =
//! [`RECORD_BYTES`] bytes. Advertised floats travel as `f32`: the
//! ranking inputs need ~3 significant digits, not 15.
//!
//! `Frame::parse` is the one reader: the gossip layer applies what it
//! reads from the bytes it charged, and [`decode_message`] collects the
//! same items into owned values.

use crate::member::{Advertisement, PeerId, PeerRecord, PeerState};
use hpop_durability::codec::{self, ByteReader, ByteWriter, Wire};
use hpop_durability::wire;

/// Tag byte of a probe message.
pub const TAG_PING: u8 = 1;
/// Tag byte of a probe acknowledgement.
pub const TAG_ACK: u8 = 2;
/// Tag byte of an anti-entropy digest.
pub const TAG_DIGEST: u8 = 3;
/// Tag byte of a full-record payload (the digest reply).
pub const TAG_RECORDS: u8 = 4;

/// Serialized size of one ping/ack header.
pub const PING_HEADER_BYTES: usize = 1 + 8 + 8 + 1;
/// Serialized size of a digest or records header.
pub const LIST_HEADER_BYTES: usize = 1 + 8 + 2;
/// Serialized size of one digest entry.
pub const DIGEST_ENTRY_BYTES: usize = 8 + 8 + 1;
/// Serialized size of one full membership record.
pub const RECORD_BYTES: usize = 8 + 8 + 1 + 8 + 4 + 4 + 4 + 8;

wire! { enum PeerState { Alive = 0, Suspect = 1, Dead = 2, Left = 3, } }

impl Wire for PeerId {
    fn put(&self, w: &mut ByteWriter) {
        w.u64(self.0);
    }
    #[inline]
    fn take(r: &mut ByteReader<'_>) -> Option<PeerId> {
        r.u64().map(PeerId)
    }
}

impl Wire for PeerRecord {
    fn put(&self, w: &mut ByteWriter) {
        w.put(&self.id)
            .u64(self.incarnation)
            .put(&self.state)
            .u64(self.advert.storage_bytes)
            .f32(self.advert.uplink_mbps as f32)
            .u32(self.advert.cache_slots)
            .f32(self.advert.rtt_ms as f32)
            .put(&self.updated_at);
    }
    #[inline]
    fn take(r: &mut ByteReader<'_>) -> Option<PeerRecord> {
        let (id, incarnation, state) = (r.get()?, r.get()?, r.get()?);
        let advert = Advertisement {
            storage_bytes: r.get()?,
            uplink_mbps: r.f32()? as f64,
            cache_slots: r.get()?,
            rtt_ms: r.f32()? as f64,
        };
        Some(PeerRecord {
            id,
            state,
            incarnation,
            advert,
            updated_at: r.get()?,
        })
    }
}

/// Appends to `buf` through the shared writer. The buffer is moved in
/// and back, not copied, so encoding into the gossip layer's reused
/// scratch `Vec` allocates nothing per message.
fn append(buf: &mut Vec<u8>, fields: impl FnOnce(&mut ByteWriter)) {
    let mut w = ByteWriter::from(std::mem::take(buf));
    fields(&mut w);
    *buf = w.into_bytes();
}

/// Starts a ping/ack message; piggybacked records follow via
/// [`push_record`], which maintains the count byte.
pub fn begin_ping(buf: &mut Vec<u8>, tag: u8, sender: PeerId, incarnation: u64) {
    buf.clear();
    append(buf, |w| {
        w.u8(tag).put(&sender).u64(incarnation).u8(0);
    });
}

/// Starts a digest or records message; entries follow via
/// [`push_record`] / [`push_digest_entry`], which maintain the count.
pub fn begin_list(buf: &mut Vec<u8>, tag: u8, sender: PeerId) {
    buf.clear();
    append(buf, |w| {
        w.u8(tag).put(&sender).u16(0);
    });
}

fn bump_count(buf: &mut [u8]) {
    match buf[0] {
        TAG_PING | TAG_ACK => buf[PING_HEADER_BYTES - 1] += 1,
        _ => {
            let at = LIST_HEADER_BYTES - 2;
            let n = u16::from_le_bytes([buf[at], buf[at + 1]]) + 1;
            buf[at..at + 2].copy_from_slice(&n.to_le_bytes());
        }
    }
}

/// Appends one full record to a started message.
pub fn push_record(buf: &mut Vec<u8>, rec: &PeerRecord) {
    bump_count(buf);
    append(buf, |w| {
        w.put(rec);
    });
}

/// Appends one digest entry to a started digest message.
pub fn push_digest_entry(buf: &mut Vec<u8>, id: PeerId, incarnation: u64, state: PeerState) {
    bump_count(buf);
    append(buf, |w| {
        w.put(&(id, incarnation, state));
    });
}

/// One message read in place: its header, and its items still as bytes.
/// Parsing is all or nothing, so a receiver can apply items as it walks
/// them and never meets a bad one halfway through.
pub(crate) struct Frame<'a> {
    /// `TAG_PING`, `TAG_ACK`, `TAG_DIGEST` or `TAG_RECORDS`.
    pub tag: u8,
    /// Who sent it.
    pub sender: PeerId,
    /// A ping or ack's heartbeat incarnation (0 for other messages).
    pub incarnation: u64,
    records: &'a [u8],
    entries: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Reads one whole message. Returns `None` on truncation, an
    /// unknown tag, an item that does not decode, or trailing bytes.
    #[inline]
    pub fn parse(data: &'a [u8]) -> Option<Frame<'a>> {
        let mut r = ByteReader::new(data);
        let (tag, sender) = (r.u8()?, r.get()?);
        let (incarnation, count, width) = match tag {
            TAG_PING | TAG_ACK => (r.u64()?, usize::from(r.u8()?), RECORD_BYTES),
            TAG_RECORDS => (0, usize::from(r.u16()?), RECORD_BYTES),
            TAG_DIGEST => (0, usize::from(r.u16()?), DIGEST_ENTRY_BYTES),
            _ => return None,
        };
        let (items, digest) = (&data[data.len() - r.remaining()..], tag == TAG_DIGEST);
        let frame = Frame {
            tag,
            sender,
            incarnation,
            records: if digest { &[] } else { items },
            entries: if digest { items } else { &[] },
        };
        // The iterators skip items that do not decode: count the rest.
        let decoded = frame.records().count() + frame.entries().count();
        (items.len() == count * width && decoded == count).then_some(frame)
    }

    /// The records a ping, ack or records message carries, in order.
    #[inline]
    pub fn records(&self) -> impl Iterator<Item = PeerRecord> + 'a {
        items::<_, RECORD_BYTES>(self.records)
    }

    /// A digest's `(id, incarnation, state)` entries, in order.
    #[inline]
    pub fn entries(&self) -> impl Iterator<Item = (PeerId, u64, PeerState)> + 'a {
        items::<_, DIGEST_ENTRY_BYTES>(self.entries)
    }
}

/// Each `W`-byte item of `items` that decodes. The width is a constant
/// so that every field read of an inlined decoder has a known bound.
fn items<'a, T: Wire + 'a, const W: usize>(items: &'a [u8]) -> impl Iterator<Item = T> + 'a {
    let (whole, _) = items.as_chunks::<W>();
    whole.iter().filter_map(|item| codec::decode(item))
}

/// Decoded view of one message, its items collected.
#[derive(Debug, PartialEq)]
pub enum Message {
    /// A probe or its acknowledgement with piggybacked deltas.
    Ping {
        /// `TAG_PING` or `TAG_ACK`.
        tag: u8,
        /// Who sent it.
        sender: PeerId,
        /// The sender's current incarnation (heartbeat payload).
        incarnation: u64,
        /// Piggybacked delta records.
        deltas: Vec<PeerRecord>,
    },
    /// An anti-entropy digest: `(id, incarnation, state)` per peer.
    Digest {
        /// Who sent it.
        sender: PeerId,
        /// One summary entry per known peer.
        entries: Vec<(PeerId, u64, PeerState)>,
    },
    /// Full records (the digest reply).
    Records {
        /// Who sent it.
        sender: PeerId,
        /// The records shipped.
        records: Vec<PeerRecord>,
    },
}

/// Decodes a whole message through [`Frame::parse`]. Returns `None` on
/// truncation, an unknown tag, or trailing garbage.
pub fn decode_message(data: &[u8]) -> Option<Message> {
    let frame = Frame::parse(data)?;
    let sender = frame.sender;
    Some(match frame.tag {
        TAG_DIGEST => Message::Digest {
            sender,
            entries: frame.entries().collect(),
        },
        TAG_RECORDS => Message::Records {
            sender,
            records: frame.records().collect(),
        },
        tag => Message::Ping {
            tag,
            sender,
            incarnation: frame.incarnation,
            deltas: frame.records().collect(),
        },
    })
}

/// A ping with two records and a one-entry digest as the hand-written
/// encoders of commit 1fe8abc laid them out.
#[cfg(test)]
pub(crate) const GOLDEN_PING: &[u8] = b"\x01\t\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x02\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xc0\x01\x00\x00\x00\x00\x00zC@\x00\x00\x00\x00\x00HA\x00\xb4!P\x1f\x01\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\xc0\x01\x00\x00\x00\x00\x00zC@\x00\x00\x00\x00\x00HA\x00\xb4!P\x1f\x01\x00\x00";
#[cfg(test)]
pub(crate) const GOLDEN_DIGEST: &[u8] = b"\x03\x04\x00\x00\x00\x00\x00\x00\x00\x01\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x02";

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_netsim::time::SimTime;

    fn rec(id: u64, state: PeerState, inc: u64) -> PeerRecord {
        PeerRecord {
            id: PeerId(id),
            state,
            incarnation: inc,
            advert: Advertisement {
                storage_bytes: 7 * 1024 * 1024 * 1024,
                uplink_mbps: 250.0,
                cache_slots: 64,
                rtt_ms: 12.5,
            },
            updated_at: SimTime::from_secs(1234),
        }
    }

    #[test]
    fn ping_roundtrip_with_deltas() {
        let mut buf = Vec::new();
        begin_ping(&mut buf, TAG_PING, PeerId(9), 3);
        push_record(&mut buf, &rec(1, PeerState::Alive, 0));
        push_record(&mut buf, &rec(2, PeerState::Suspect, 5));
        assert_eq!(buf.len(), PING_HEADER_BYTES + 2 * RECORD_BYTES);
        let Some(Message::Ping {
            tag,
            sender,
            incarnation,
            deltas,
        }) = decode_message(&buf)
        else {
            panic!("ping should decode");
        };
        assert_eq!((tag, sender, incarnation), (TAG_PING, PeerId(9), 3));
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].id, PeerId(1));
        assert_eq!(deltas[1].state, PeerState::Suspect);
        assert_eq!(deltas[1].incarnation, 5);
        // f32 carriage is exact for these advertised values.
        assert_eq!(deltas[0].advert.rtt_ms, 12.5);
        assert_eq!(deltas[0].advert.uplink_mbps, 250.0);
        assert_eq!(deltas[0].updated_at, SimTime::from_secs(1234));
    }

    #[test]
    fn empty_ping_is_header_only() {
        let mut buf = Vec::new();
        begin_ping(&mut buf, TAG_ACK, PeerId(0), 0);
        assert_eq!(buf.len(), PING_HEADER_BYTES);
        assert!(matches!(
            decode_message(&buf),
            Some(Message::Ping { tag: TAG_ACK, deltas, .. }) if deltas.is_empty()
        ));
    }

    #[test]
    fn digest_roundtrip() {
        let mut buf = Vec::new();
        begin_list(&mut buf, TAG_DIGEST, PeerId(4));
        for i in 0..300u64 {
            push_digest_entry(&mut buf, PeerId(i), i * 2, PeerState::Alive);
        }
        assert_eq!(buf.len(), LIST_HEADER_BYTES + 300 * DIGEST_ENTRY_BYTES);
        let Some(Message::Digest { sender, entries }) = decode_message(&buf) else {
            panic!("digest should decode");
        };
        assert_eq!(sender, PeerId(4));
        assert_eq!(entries.len(), 300);
        assert_eq!(entries[299], (PeerId(299), 598, PeerState::Alive));
    }

    #[test]
    fn records_roundtrip() {
        let mut buf = Vec::new();
        begin_list(&mut buf, TAG_RECORDS, PeerId(7));
        push_record(&mut buf, &rec(3, PeerState::Dead, 2));
        let Some(Message::Records { sender, records }) = decode_message(&buf) else {
            panic!("records should decode");
        };
        assert_eq!(sender, PeerId(7));
        assert_eq!(records[0].state, PeerState::Dead);
    }

    #[test]
    fn truncation_and_bad_tags_rejected() {
        let mut buf = Vec::new();
        begin_ping(&mut buf, TAG_PING, PeerId(1), 0);
        push_record(&mut buf, &rec(1, PeerState::Alive, 0));
        assert!(decode_message(&buf[..buf.len() - 1]).is_none());
        assert!(decode_message(&[]).is_none());
        assert!(decode_message(&[99]).is_none());
        // Trailing garbage is rejected too.
        buf.push(0);
        assert!(decode_message(&buf).is_none());
    }

    /// The format is frozen: today's codec writes and reads those bytes.
    #[test]
    fn byte_format_is_frozen() {
        let records = [rec(1, PeerState::Alive, 0), rec(2, PeerState::Suspect, 5)];
        let mut buf = Vec::new();
        begin_ping(&mut buf, TAG_PING, PeerId(9), 3);
        records.iter().for_each(|r| push_record(&mut buf, r));
        assert_eq!(buf, GOLDEN_PING);
        let ping = Message::Ping {
            tag: TAG_PING,
            sender: PeerId(9),
            incarnation: 3,
            deltas: records.to_vec(),
        };
        assert_eq!(decode_message(GOLDEN_PING), Some(ping));

        begin_list(&mut buf, TAG_DIGEST, PeerId(4));
        push_digest_entry(&mut buf, PeerId(1), 2, PeerState::Dead);
        assert_eq!(buf, GOLDEN_DIGEST);
        let digest = Message::Digest {
            sender: PeerId(4),
            entries: vec![(PeerId(1), 2, PeerState::Dead)],
        };
        assert_eq!(decode_message(GOLDEN_DIGEST), Some(digest));
    }

    proptest::proptest! {
        /// Gossip arrives from the network: arbitrary bytes, and every
        /// truncation and corruption of a valid message, decode to
        /// `None` or a value — never a panic.
        #[test]
        fn decode_is_total(noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
            let _ = decode_message(&noise);
            for valid in [GOLDEN_PING, GOLDEN_DIGEST] {
                for at in 0..valid.len() {
                    assert_eq!(decode_message(&valid[..at]), None);
                    let mut rotted = valid.to_vec();
                    rotted[at] ^= noise.get(at).map_or(0xFF, |n| n | 1);
                    let _ = decode_message(&rotted);
                }
            }
        }
    }
}

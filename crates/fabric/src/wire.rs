//! Wire encoding of gossip messages.
//!
//! The fabric is a deterministic simulation, but its byte accounting
//! must be honest: `fabric.gossip.bytes` is the serialized size of
//! every message the protocol would put on the aggregation link, not a
//! `records × constant` estimate. This module defines the three
//! message shapes and their exact layouts; the gossip layer encodes
//! each message into a reusable scratch buffer and charges `buf.len()`.
//!
//! All integers are little-endian. Layouts:
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
//! The simulation applies the sender's in-memory records directly
//! (zero-copy within one process); the codec below is validated by
//! round-trip tests so the byte counts correspond to a format that
//! really can carry the protocol.

use crate::member::{Advertisement, PeerId, PeerRecord, PeerState};
use hpop_netsim::time::SimTime;

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

fn state_code(s: PeerState) -> u8 {
    match s {
        PeerState::Alive => 0,
        PeerState::Suspect => 1,
        PeerState::Dead => 2,
        PeerState::Left => 3,
    }
}

fn state_from_code(c: u8) -> Option<PeerState> {
    Some(match c {
        0 => PeerState::Alive,
        1 => PeerState::Suspect,
        2 => PeerState::Dead,
        3 => PeerState::Left,
        _ => return None,
    })
}

/// Starts a ping/ack message; piggybacked records follow via
/// [`push_record`], which maintains the count byte.
pub fn begin_ping(buf: &mut Vec<u8>, tag: u8, sender: PeerId, incarnation: u64) {
    buf.clear();
    buf.push(tag);
    buf.extend_from_slice(&sender.0.to_le_bytes());
    buf.extend_from_slice(&incarnation.to_le_bytes());
    buf.push(0);
}

/// Starts a digest or records message; entries follow via
/// [`push_record`] / [`push_digest_entry`], which maintain the count.
pub fn begin_list(buf: &mut Vec<u8>, tag: u8, sender: PeerId) {
    buf.clear();
    buf.push(tag);
    buf.extend_from_slice(&sender.0.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes());
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
    buf.extend_from_slice(&rec.id.0.to_le_bytes());
    buf.extend_from_slice(&rec.incarnation.to_le_bytes());
    buf.push(state_code(rec.state));
    buf.extend_from_slice(&rec.advert.storage_bytes.to_le_bytes());
    buf.extend_from_slice(&(rec.advert.uplink_mbps as f32).to_le_bytes());
    buf.extend_from_slice(&rec.advert.cache_slots.to_le_bytes());
    buf.extend_from_slice(&(rec.advert.rtt_ms as f32).to_le_bytes());
    buf.extend_from_slice(&rec.updated_at.as_nanos().to_le_bytes());
}

/// Appends one digest entry to a started digest message.
pub fn push_digest_entry(buf: &mut Vec<u8>, id: PeerId, incarnation: u64, state: PeerState) {
    bump_count(buf);
    buf.extend_from_slice(&id.0.to_le_bytes());
    buf.extend_from_slice(&incarnation.to_le_bytes());
    buf.push(state_code(state));
}

fn take<const N: usize>(data: &mut &[u8]) -> Option<[u8; N]> {
    if data.len() < N {
        return None;
    }
    let (head, rest) = data.split_at(N);
    *data = rest;
    Some(head.try_into().expect("split_at guarantees length"))
}

/// Decodes one record from the front of `data`, advancing it.
pub fn decode_record(data: &mut &[u8]) -> Option<PeerRecord> {
    let id = PeerId(u64::from_le_bytes(take::<8>(data)?));
    let incarnation = u64::from_le_bytes(take::<8>(data)?);
    let state = state_from_code(take::<1>(data)?[0])?;
    let storage_bytes = u64::from_le_bytes(take::<8>(data)?);
    let uplink_mbps = f32::from_le_bytes(take::<4>(data)?) as f64;
    let cache_slots = u32::from_le_bytes(take::<4>(data)?);
    let rtt_ms = f32::from_le_bytes(take::<4>(data)?) as f64;
    let updated_at = SimTime::from_nanos(u64::from_le_bytes(take::<8>(data)?));
    Some(PeerRecord {
        id,
        state,
        incarnation,
        advert: Advertisement {
            storage_bytes,
            uplink_mbps,
            cache_slots,
            rtt_ms,
        },
        updated_at,
    })
}

/// Decoded view of one message, for tests and debugging.
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

/// Decodes a whole message. Returns `None` on truncation, an unknown
/// tag, or trailing garbage.
pub fn decode_message(mut data: &[u8]) -> Option<Message> {
    let data = &mut data;
    let tag = take::<1>(data)?[0];
    let sender = PeerId(u64::from_le_bytes(take::<8>(data)?));
    let msg = match tag {
        TAG_PING | TAG_ACK => {
            let incarnation = u64::from_le_bytes(take::<8>(data)?);
            let n = take::<1>(data)?[0] as usize;
            let mut deltas = Vec::with_capacity(n);
            for _ in 0..n {
                deltas.push(decode_record(data)?);
            }
            Message::Ping {
                tag,
                sender,
                incarnation,
                deltas,
            }
        }
        TAG_DIGEST => {
            let n = u16::from_le_bytes(take::<2>(data)?) as usize;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let id = PeerId(u64::from_le_bytes(take::<8>(data)?));
                let inc = u64::from_le_bytes(take::<8>(data)?);
                let state = state_from_code(take::<1>(data)?[0])?;
                entries.push((id, inc, state));
            }
            Message::Digest { sender, entries }
        }
        TAG_RECORDS => {
            let n = u16::from_le_bytes(take::<2>(data)?) as usize;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(decode_record(data)?);
            }
            Message::Records { sender, records }
        }
        _ => return None,
    };
    if !data.is_empty() {
        return None;
    }
    Some(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}

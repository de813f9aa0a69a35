//! [`NodeRuntime`]: one appliance's side of the SWIM protocol, a
//! machine that acts only on what it is handed — the period's start and
//! end, its round, and the bytes of each message addressed to it. What
//! it wants of the world goes into an [`Outbox`]: messages to send,
//! self-incarnation bumps to write through, `Dead` declarations to
//! score. It learns that a peer is up only by hearing from it.

use crate::by_id::{self, ById};
use crate::gossip::DIGEST_SYNC_EVERY;
use crate::member::{fresher, Advertisement, MembershipTable, PeerId, PeerRecord, PeerState};
use crate::wire;
use hpop_durability::codec;
use hpop_netsim::time::{SimDuration, SimTime};
use rand::Rng;
use std::collections::VecDeque;

/// Hard cap on a node's piggyback queue; beyond it the oldest delta is
/// dropped (digest anti-entropy will repair whatever gets lost).
pub(crate) const QUEUE_CAP: usize = 1024;
/// Protocol period: one gossip round per period.
pub(crate) const PERIOD: SimDuration = SimDuration::from_secs(1);
/// Periods a suspect may linger unrefuted before being declared dead.
const SUSPECT_PERIODS: u64 = 2;
/// Periods after which terminal (dead/left) records are evicted from
/// membership tables.
const EVICT_AFTER_PERIODS: u64 = 300;
/// λ in the per-delta retransmit bound λ·⌈log₂ n⌉.
const RETRANSMIT_FACTOR: u32 = 3;
/// Byte budget of one serialized ping/ack including piggybacked deltas.
pub(crate) const PIGGYBACK_BUDGET_BYTES: usize = 512;
// A ping's one-byte record count holds whatever the budget admits.
const _: () =
    assert!((PIGGYBACK_BUDGET_BYTES - wire::PING_HEADER_BYTES) / wire::RECORD_BYTES <= 255);

/// `⌈log₂ n⌉`-scaled retransmit bound for one queued delta.
pub(crate) fn retransmit_limit(table_len: usize) -> u32 {
    let n = table_len.max(2) as u32;
    let ceil_log2 = 32 - (n - 1).leading_zeros();
    RETRANSMIT_FACTOR * ceil_log2
}

/// Piggyback queue: recently-changed peers in FIFO order, each with
/// its remaining retransmit credit. `credit` is indexed by `PeerId.0`
/// and 0 means "not queued", so an id sits in `order` exactly when its
/// credit is non-zero, and re-arming a queued id is one store.
#[derive(Clone, Debug, Default)]
pub(crate) struct Piggyback {
    pub(crate) order: VecDeque<PeerId>,
    pub(crate) credit: Vec<u32>,
}

impl Piggyback {
    /// (Re-)arms `id` with `limit` sends (`limit` ≥ 1). A queued id
    /// keeps its place; a new one goes to the back, first dropping the
    /// front when the queue is at [`QUEUE_CAP`].
    pub(crate) fn arm(&mut self, id: PeerId, limit: u32) {
        let at = by_id::slot(id);
        if at >= self.credit.len() {
            self.credit.resize(at + 1, 0);
        }
        if self.credit[at] == 0 {
            if self.order.len() >= QUEUE_CAP {
                let oldest = self.order.pop_front().expect("queue at cap");
                self.credit[by_id::slot(oldest)] = 0;
            }
            self.order.push_back(id);
        }
        self.credit[at] = limit;
    }

    /// Takes the front id off the queue with its credit.
    pub(crate) fn pop(&mut self) -> Option<(PeerId, u32)> {
        let id = self.order.pop_front()?;
        Some((id, std::mem::take(&mut self.credit[by_id::slot(id)])))
    }

    /// Queues a just-popped `id` at the back with `credit` sends left.
    pub(crate) fn push(&mut self, id: PeerId, credit: u32) {
        self.order.push_back(id);
        self.credit[by_id::slot(id)] = credit;
    }
}

/// What a node asks of the world, emptied by the driver. Buffers are
/// reused, so steady-state rounds allocate nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct Outbox {
    /// Destination and bytes of each message; the first `sent` are in
    /// flight, newest last, and the rest are spare buffers.
    msgs: Vec<(PeerId, Vec<u8>)>,
    sent: usize,
    /// Self-incarnation bumps to write through, in the order made.
    pub(crate) bumps: Vec<(PeerId, u64)>,
    /// Peers declared `Dead`, in the order declared.
    pub(crate) dead: Vec<PeerId>,
}

impl Outbox {
    /// Sends `dst` what `write` puts into a cleared buffer; an empty
    /// message is not sent.
    pub(crate) fn send(&mut self, dst: PeerId, write: impl FnOnce(&mut Vec<u8>)) {
        if self.sent == self.msgs.len() {
            self.msgs.push((dst, Vec::new()));
        }
        let (to, buf) = &mut self.msgs[self.sent];
        *to = dst;
        buf.clear();
        write(buf);
        self.sent += usize::from(!buf.is_empty());
    }

    /// Swaps the newest message in flight into `into`; returns its
    /// destination.
    pub(crate) fn take(&mut self, into: &mut Vec<u8>) -> Option<PeerId> {
        self.sent = self.sent.checked_sub(1)?;
        let (dst, buf) = &mut self.msgs[self.sent];
        std::mem::swap(buf, into);
        Some(*dst)
    }

    /// Gives each spare buffer, and `inbox`, room for `bytes`.
    pub(crate) fn reserve(&mut self, bytes: usize, inbox: &mut Vec<u8>) {
        let spare = self.msgs[self.sent..].iter_mut().map(|(_, buf)| buf);
        for buf in spare.chain([inbox]) {
            buf.clear();
            buf.reserve(bytes);
        }
    }
}

/// One appliance's protocol state: its own record plus everything it
/// believes and suspects about others.
#[derive(Clone, Debug)]
pub(crate) struct NodeRuntime {
    id: PeerId,
    table: MembershipTable,
    suspect_since: ById<SimTime>,
    queue: Piggyback,
    /// The peer last pinged or sent a digest, until it is heard from.
    waiting_on: Option<PeerId>,
    /// The last round's `(candidates, k, target)`, for the pick audit.
    #[cfg(test)]
    pub(crate) last_pick: Option<(usize, usize, PeerId)>,
}

impl NodeRuntime {
    /// A node that knows only itself, alive at incarnation 0, holding its
    /// record as every receiver decodes it (the advert through `f32`).
    pub(crate) fn new(id: PeerId, advert: Advertisement, now: SimTime) -> NodeRuntime {
        let me = codec::encode(&PeerRecord::alive(id, advert, now));
        let mut table = MembershipTable::default();
        table.upsert(codec::decode(&me).expect("a record decodes as encoded"));
        NodeRuntime {
            id,
            table,
            suspect_since: ById::default(),
            queue: Piggyback::default(),
            waiting_on: None,
            #[cfg(test)]
            last_pick: None,
        }
    }

    /// What this node believes about the membership.
    pub(crate) fn table(&self) -> &MembershipTable {
        &self.table
    }

    /// Deltas waiting to be piggybacked.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.order.len()
    }

    /// A period starts: the node's own record is stamped `now`.
    pub(crate) fn touch(&mut self, now: SimTime) {
        self.table.touch_self(self.id, now);
    }

    /// The node's round: it contacts one live acquaintance, the k-th in
    /// id order (itself skipped, `k` drawn from `rng`), with a ping —
    /// or, on its staggered digest period, a digest.
    pub(crate) fn on_tick(&mut self, period: u64, rng: &mut impl Rng, out: &mut Outbox) {
        self.waiting_on = None;
        let live = self.table.live_ids();
        let me = live.binary_search(&self.id).ok();
        let others = live.len() - usize::from(me.is_some());
        let pick = (others > 0).then(|| {
            let k = rng.gen_range(0..others);
            (k, live[k + usize::from(me.is_some_and(|pos| k >= pos))])
        });
        #[cfg(test)]
        {
            self.last_pick = pick.map(|(k, target)| (others, k, target));
        }
        if let Some((_, target)) = pick {
            let digest = period % DIGEST_SYNC_EVERY == self.id.0 % DIGEST_SYNC_EVERY;
            self.contact(target, digest, out);
        }
    }

    /// Pings `target` (or sends it a digest) and waits on it.
    pub(crate) fn contact(&mut self, target: PeerId, digest: bool, out: &mut Outbox) {
        self.waiting_on = Some(target);
        if digest {
            out.send(target, |msg| encode_digest(&self.table, self.id, msg));
        } else {
            out.send(target, |msg| self.encode_ping(wire::TAG_PING, msg));
        }
    }

    /// The round is over: a target still waited on never answered and
    /// is suspected; then the failure detector runs.
    pub(crate) fn end_round(&mut self, now: SimTime, out: &mut Outbox) {
        if let Some(silent) = self.waiting_on.take() {
            // Only an Alive record rises to Suspect.
            if self.table.set_state(silent, PeerState::Suspect, now) {
                self.suspect_since.get_or_insert(silent, now);
                self.enqueue_delta(silent);
            }
        }
        self.assess(now, out);
    }

    /// A period ends: terminal records past the eviction horizon go.
    pub(crate) fn end_period(&mut self, now: SimTime) {
        let horizon = PERIOD.as_nanos().saturating_mul(EVICT_AFTER_PERIODS);
        let cutoff = SimTime::from_nanos(now.as_nanos().saturating_sub(horizon));
        self.table.evict_terminal_before(cutoff);
    }

    /// The node comes back up above both its own incarnation and
    /// `persisted` (the highest it wrote through), refuting every
    /// suspicion or death certificate about it, even ones a crash made
    /// it forget.
    pub(crate) fn rejoin(&mut self, now: SimTime, persisted: u64, out: &mut Outbox) {
        let mine = self.table.get(self.id).expect("self record").incarnation;
        self.announce(mine.max(persisted).saturating_add(1), now, out);
        // Amnesty epoch: silence observed while this node was itself
        // down is not evidence of anyone's death. Stale suspicions
        // restart from now — otherwise a rebooted observer
        // mass-suspects every peer it does not contact in its first
        // round back. Records still held as Suspect are demoted back to
        // Alive at the same incarnation (direct upsert — merge
        // precedence would refuse a rank downgrade); any peer that
        // really died stays refutable, and fresher remote evidence
        // re-wins on the next merge.
        self.suspect_since.clear();
        while let Some(&p) = self.table.suspect_ids().first() {
            let mut rec = *self.table.get(p).expect("suspect ids index records");
            rec.state = PeerState::Alive;
            self.table.upsert(rec);
        }
    }

    /// Re-announces this node alive at `incarnation`, stamped `now`, and
    /// hands the bump out to be written through (a crash cannot undo it).
    fn announce(&mut self, incarnation: u64, now: SimTime, out: &mut Outbox) {
        let mut me = *self.table.get(self.id).expect("self record");
        (me.incarnation, me.state, me.updated_at) = (incarnation, PeerState::Alive, now);
        self.table.upsert(me);
        self.enqueue_delta(self.id);
        out.bumps.push((self.id, incarnation));
    }

    /// Receives `msg`, acting only on what it decodes: records merge
    /// (any about an id at or past `issued` dropped), a ping or ack's
    /// header is a heartbeat, a ping is acked, a digest answered. Any
    /// message ends a wait on its sender; a digest from a peer not waited
    /// on also gets this node's digest and starts a wait, so a sync is at
    /// most four messages and no two nodes trade digests forever.
    pub(crate) fn on_message(&mut self, now: SimTime, issued: u64, msg: &[u8], out: &mut Outbox) {
        let Some(frame) = wire::Frame::parse(msg) else {
            return;
        };
        let sender = frame.sender;
        let awaited = self.waiting_on.take_if(|p| *p == sender).is_some();
        if frame.tag == wire::TAG_DIGEST {
            // The answer is sent first, so the sender's answer to this
            // node's digest is drawn up before either is applied.
            out.send(sender, |m| answer_digest(&self.table, self.id, &frame, m));
            if !awaited {
                out.send(sender, |msg| encode_digest(&self.table, self.id, msg));
                self.waiting_on = Some(sender);
            }
            return;
        }
        // Records merge BEFORE the header heartbeat. The header carries
        // only an incarnation; synthesizing an alive record from it
        // copies the record we already hold, and doing that first would
        // let the copy win merge precedence over a same-incarnation
        // delta carrying the sender's own record.
        for rec in frame.records() {
            self.apply_record(now, issued, rec, out);
        }
        if frame.tag == wire::TAG_RECORDS || sender == self.id {
            return;
        }
        // The header proves the sender alive at its incarnation. A
        // sender we have never heard of carries no advertisement, so we
        // wait for its record to arrive as a delta or digest answer
        // instead of fabricating one.
        if let Some(cur) = self.table.get(sender) {
            let news = frame.incarnation > cur.incarnation
                || (frame.incarnation == cur.incarnation && cur.state != PeerState::Alive);
            if news {
                let mut rec = *cur;
                rec.state = PeerState::Alive;
                rec.incarnation = frame.incarnation;
                rec.updated_at = now;
                self.table.upsert(rec);
                self.enqueue_delta(sender);
            }
            self.suspect_since.remove(sender);
        }
        if frame.tag == wire::TAG_PING {
            out.send(sender, |msg| self.encode_ping(wire::TAG_ACK, msg));
        }
    }

    /// Merges one gossiped record, re-queuing it for relay when it
    /// changed the local belief. A record about this node itself
    /// triggers SWIM self-defense instead of a merge.
    fn apply_record(&mut self, now: SimTime, issued: u64, rec: PeerRecord, out: &mut Outbox) {
        if rec.id.0 >= issued {
            return;
        }
        if rec.id == self.id {
            // Someone believes something non-alive about me: refute by
            // bumping my incarnation past theirs.
            let mine = self.table.get(self.id).expect("self record").incarnation;
            if rec.state != PeerState::Alive && rec.incarnation >= mine {
                self.announce(rec.incarnation.saturating_add(1), now, out);
            }
            return;
        }
        if self.table.merge_record(&rec) {
            self.enqueue_delta(rec.id);
            // Grace runs from when the suspicion was *raised* (the
            // origin's timestamp), not from when it arrived here.
            if rec.state == PeerState::Suspect {
                self.suspect_since.get_or_insert(rec.id, rec.updated_at);
            } else {
                self.suspect_since.remove(rec.id);
            }
        }
    }

    /// The failure detector: a suspect is declared dead once the grace
    /// period from the *origin* of the suspicion has passed.
    fn assess(&mut self, now: SimTime, out: &mut Outbox) {
        let grace = PERIOD.saturating_mul(SUSPECT_PERIODS);
        for &id in self.table.suspect_ids() {
            // A suspicion learned second-hand carries its origin time
            // on the record itself.
            let since = match self.suspect_since.get(id) {
                Some(&raised) => raised,
                None => {
                    let rec = self.table.get(id).expect("suspect ids index records");
                    rec.updated_at
                }
            };
            if id != self.id && now.saturating_since(since) >= grace {
                out.dead.push(id);
            }
        }
        out.dead.retain(|&id| {
            let declared = self.table.set_state(id, PeerState::Dead, now);
            if declared {
                self.suspect_since.remove(id);
                self.enqueue_delta(id);
            }
            declared
        });
    }

    /// (Re-)arms the piggyback credit for `id`.
    pub(crate) fn enqueue_delta(&mut self, id: PeerId) {
        let limit = retransmit_limit(self.table.len());
        self.queue.arm(id, limit);
    }

    /// Serializes a ping/ack into `msg`, draining up to a budget's worth
    /// of piggyback queue into it.
    pub(crate) fn encode_ping(&mut self, tag: u8, msg: &mut Vec<u8>) {
        let incarnation = self.table.get(self.id).map_or(0, |r| r.incarnation);
        wire::begin_ping(msg, tag, self.id, incarnation);
        for _ in 0..self.queue.order.len() {
            if msg.len() + wire::RECORD_BYTES > PIGGYBACK_BUDGET_BYTES {
                break;
            }
            let (pid, remaining) = self.queue.pop().expect("loop bound");
            let Some(rec) = self.table.get(pid) else {
                continue; // evicted since it was queued
            };
            wire::push_record(msg, rec);
            if remaining > 1 {
                self.queue.push(pid, remaining - 1);
            }
        }
    }
}

/// Test-only reads of the state the fabric's frozen digest covers.
#[cfg(test)]
impl NodeRuntime {
    pub(crate) fn suspect_since(&self) -> &ById<SimTime> {
        &self.suspect_since
    }

    pub(crate) fn queue(&self) -> &Piggyback {
        &self.queue
    }

    pub(crate) fn waiting_on(&self) -> Option<PeerId> {
        self.waiting_on
    }
}

/// Serializes `sender`'s digest of `table` into `msg`: one
/// `(id, incarnation, state)` entry per record, in id order.
pub(crate) fn encode_digest(table: &MembershipTable, sender: PeerId, msg: &mut Vec<u8>) {
    wire::begin_list(msg, wire::TAG_DIGEST, sender);
    for rec in table.iter() {
        wire::push_digest_entry(msg, rec.id, rec.incarnation, rec.state);
    }
}

/// Answers a digest from `sender`'s `table`: `out` gets a records
/// message with each record the digest lacks or holds stale, in id
/// order, or stays empty. Digests list ids ascending: one merge walk.
pub(crate) fn answer_digest(
    table: &MembershipTable,
    sender: PeerId,
    digest: &wire::Frame,
    out: &mut Vec<u8>,
) {
    let mut theirs = digest.entries();
    let mut next = theirs.next();
    for rec in table.iter() {
        while next.is_some_and(|(id, ..)| id < rec.id) {
            next = theirs.next();
        }
        let stale = match next {
            Some((id, inc, state)) if id == rec.id => {
                next = theirs.next();
                fresher((rec.incarnation, rec.state), (inc, state))
            }
            _ => true,
        };
        if stale {
            if out.is_empty() {
                wire::begin_list(out, wire::TAG_RECORDS, sender);
            }
            wire::push_record(out, rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimTime = SimTime::from_secs(7);

    /// Two nodes that know only themselves.
    fn pair() -> [NodeRuntime; 2] {
        [0, 1].map(|i| NodeRuntime::new(PeerId(i), Advertisement::default(), SimTime::ZERO))
    }

    /// Carries every message in flight between `nodes`, newest first as
    /// the fabric does, except those `lost` picks: `(destination, tag)`
    /// of each, in delivery order.
    fn carry(
        nodes: &mut [NodeRuntime; 2],
        out: &mut Outbox,
        lost: impl Fn(PeerId, u8) -> bool,
    ) -> Vec<(PeerId, u8)> {
        let (mut log, mut msg) = (Vec::new(), Vec::new());
        while let Some(dst) = out.take(&mut msg) {
            log.push((dst, msg[0]));
            assert!(log.len() <= 8, "the exchange does not end: {log:?}");
            if !lost(dst, msg[0]) {
                nodes[by_id::slot(dst)].on_message(T, 2, &msg, out);
            }
        }
        log
    }

    #[test]
    fn a_digest_sync_is_four_messages_and_the_reply_digest_is_not_answered_with_a_third() {
        let (a, b) = (PeerId(0), PeerId(1));
        let mut nodes = pair();
        let mut out = Outbox::default();
        nodes[0].contact(b, true, &mut out);
        let log = carry(&mut nodes, &mut out, |_, _| false);
        let (digest, records) = (wire::TAG_DIGEST, wire::TAG_RECORDS);
        // Each side lacks the other, so both answers carry a record.
        assert_eq!(log, [(b, digest), (a, digest), (b, records), (a, records)]);
        for node in &nodes {
            assert_eq!(node.table().len(), 2);
            assert_eq!(node.waiting_on(), None);
        }
        // Synced, the second sync's answers are empty and not sent.
        nodes[1].contact(a, true, &mut out);
        assert_eq!(
            carry(&mut nodes, &mut out, |_, _| false),
            [(a, digest), (b, digest)]
        );
    }

    #[test]
    fn an_ack_clears_the_wait_and_a_lost_one_suspects_the_target_and_nothing_else() {
        let (a, b) = (PeerId(0), PeerId(1));
        let mut nodes = pair();
        let mut out = Outbox::default();
        nodes[0].contact(b, true, &mut out);
        carry(&mut nodes, &mut out, |_, _| false);

        nodes[0].contact(b, false, &mut out);
        assert_eq!(nodes[0].waiting_on(), Some(b));
        let log = carry(&mut nodes, &mut out, |_, _| false);
        assert_eq!(log, [(b, wire::TAG_PING), (a, wire::TAG_ACK)]);
        assert_eq!(nodes[0].waiting_on(), None);
        let before: Vec<PeerRecord> = nodes[0].table().iter().copied().collect();
        nodes[0].end_round(T, &mut out);
        let after: Vec<PeerRecord> = nodes[0].table().iter().copied().collect();
        assert_eq!(after, before, "an answered probe suspects no one");

        nodes[0].contact(b, false, &mut out);
        let log = carry(&mut nodes, &mut out, |_, tag| tag == wire::TAG_ACK);
        assert_eq!(log, [(b, wire::TAG_PING), (a, wire::TAG_ACK)]);
        assert_eq!(nodes[0].waiting_on(), Some(b));
        let queued = nodes[0].queue_len();
        nodes[0].end_round(T, &mut out);
        let after: Vec<PeerRecord> = nodes[0].table().iter().copied().collect();
        let mut suspected = before[1];
        (suspected.state, suspected.updated_at) = (PeerState::Suspect, T);
        assert_eq!(after, [before[0], suspected]);
        assert_eq!(nodes[0].suspect_since().get(b), Some(&T));
        assert_eq!(nodes[0].waiting_on(), None);
        assert!(
            nodes[0].queue_len() <= queued + 1,
            "only the suspicion is queued"
        );
        assert_eq!((out.sent, out.bumps.len(), out.dead.len()), (0, 0, 0));
    }

    /// A death certificate about the node at the last incarnation there
    /// is cannot be outbid, and refuting it does not overflow.
    #[test]
    fn self_defense_saturates_at_the_last_incarnation() {
        let mut nodes = pair();
        let mut forged = *nodes[0].table().get(PeerId(0)).expect("self record");
        (forged.state, forged.incarnation) = (PeerState::Dead, u64::MAX);
        let mut msg = Vec::new();
        wire::begin_list(&mut msg, wire::TAG_RECORDS, PeerId(1));
        wire::push_record(&mut msg, &forged);
        let mut out = Outbox::default();
        nodes[0].on_message(T, 2, &msg, &mut out);
        let me = nodes[0].table().get(PeerId(0)).expect("self record");
        assert_eq!((me.state, me.incarnation), (PeerState::Alive, u64::MAX));
        assert_eq!(out.bumps, [(PeerId(0), u64::MAX)]);
    }

    /// Neither node waits on the other when a forged digest arrives, yet
    /// the trade of digests it starts ends: each node waits on the peer
    /// it sent its own digest to, and answers that peer's digest with
    /// records alone.
    #[test]
    fn a_forged_digest_between_two_idle_nodes_ends() {
        let (a, b) = (PeerId(0), PeerId(1));
        let mut nodes = pair();
        let mut out = Outbox::default();
        out.send(a, |msg| encode_digest(nodes[1].table(), b, msg));
        let log = carry(&mut nodes, &mut out, |_, _| false);
        let (digest, records) = (wire::TAG_DIGEST, wire::TAG_RECORDS);
        // The forged digest, `a`'s digest, `b`'s digest; then `a`'s
        // answer to it, `b`'s answer to `a`'s, `a`'s to the forgery.
        let expected = [(a, digest), (b, digest), (a, digest)];
        assert_eq!(log[..3], expected);
        assert_eq!(log[3..], [(b, records), (a, records), (b, records)]);
        assert!(nodes.iter().all(|node| node.table().len() == 2));
    }
}

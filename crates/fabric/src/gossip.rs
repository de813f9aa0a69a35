//! [`Fabric`]: the SWIM-style gossip layer, simulated deterministically.
//!
//! Every protocol period each *up* appliance pings one acquaintance; the
//! ack proves the target alive at its stated incarnation. Membership
//! *changes* ride piggybacked on pings and acks, each retransmitted at
//! most `RETRANSMIT_FACTOR · ⌈log₂ n⌉` times under a per-message byte
//! budget, so steady-state traffic is O(n) headers per round, not the
//! O(n²) records of full-table push-pull. **Digest anti-entropy** on a
//! slow timer (every [`DIGEST_SYNC_EVERY`] periods, staggered by id)
//! still guarantees convergence: two nodes swap `(id, incarnation,
//! state)` digests and ship only the records one side lacks. A ping
//! that goes unanswered makes its target `Suspect`; after
//! `SUSPECT_PERIODS` unrefuted it is declared `Dead`. Records merge
//! under SWIM precedence, so a peer that comes back bumps its
//! incarnation past every suspicion and death certificate about it.
//!
//! **A node and its driver.** Each appliance's protocol is a
//! `NodeRuntime` (`crate::node`), a machine that acts only on the
//! messages it receives. `Fabric` is its sync driver: one loop carries
//! an exchange's first message and every reply, newest first, charging
//! each one's serialized length (see [`crate::wire`]) to
//! `fabric.gossip.bytes` (and to `delta_bytes` or `digest_bytes`); the
//! receiver gets those bytes and nothing else. The loop drops a message
//! addressed to a down appliance, the one way a message is lost, and a
//! prober still waiting when its round ends suspects its target. A tick
//! costs O(up nodes plus records that changed) (DESIGN §7) and, in
//! steady state, allocates nothing.
//!
//! Ids are bounded by what `join` issued (densely, so an id is a slot
//! in every per-peer `ById` table): a node drops a record about any
//! other id, so no gossiped id can grow a table.
//!
//! A churn schedule drives the fabric from outside: [`Fabric::set_up`]
//! (or [`Fabric::crash`], which also wipes the appliance's memory) at
//! transition times and [`Fabric::tick`] once per period. Ground truth
//! ([`GroundTruth`]) stays in the driver, which reads it to drop
//! messages and to *score the detector*: detection latency lands in
//! `fabric.detect.latency_ms`, and a declaration against a peer that is
//! up counts as `fabric.detect.false_positive`, with no rejoin-window
//! exemption. A rejoining peer re-announces above every incarnation it
//! ever announced (an attached [`crate::persist::IncarnationStore`]
//! keeps that across crashes), syncs with one up peer and pings the
//! rest, so stale death declarations cannot land after a rejoin.

use crate::by_id::ById;
use crate::member::{Advertisement, PeerId};
use crate::node::{NodeRuntime, Outbox, PERIOD};
use crate::persist::IncarnationStore;
use crate::reputation::{ReputationLedger, Violation};
use crate::view::{PeerEntry, PeerView};
use crate::wire;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_obs::{CounterHandle, HistogramHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Digest anti-entropy cadence in periods: a node initiates one digest
/// sync whenever `period_index ≡ id.0` modulo this value, so syncs
/// stagger across the membership.
pub const DIGEST_SYNC_EVERY: u64 = 120;

/// What [`Fabric::new`] takes: the seed of every random choice the
/// layer makes. The protocol's timing and budgets are constants beside
/// the node that reads them.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// Seed for every random choice the layer makes.
    pub seed: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig { seed: 0x5eedfab }
    }
}

/// Ground-truth uptime accounting for one peer.
#[derive(Clone, Copy, Debug)]
struct Uptime {
    joined_at: SimTime,
    up_since: Option<SimTime>,
    total_up: SimDuration,
}

impl Uptime {
    fn fraction(&self, now: SimTime) -> f64 {
        let lifetime = now.saturating_since(self.joined_at).as_secs_f64();
        if lifetime <= 0.0 {
            return 1.0;
        }
        let mut up = self.total_up.as_secs_f64();
        if let Some(since) = self.up_since {
            up += now.saturating_since(since).as_secs_f64();
        }
        (up / lifetime).clamp(0.0, 1.0)
    }
}

/// Ground truth the fabric scores its own detector against: who is
/// physically up, uptime accounting, and the start of any ongoing
/// downtime (the detection-latency anchor).
#[derive(Clone, Debug, Default)]
struct GroundTruth {
    up: ById<()>,
    uptime: ById<Uptime>,
    /// Currently-down peers → when they went down.
    open_down: ById<SimTime>,
}

impl GroundTruth {
    fn join(&mut self, id: PeerId, now: SimTime) {
        self.up.insert(id, ());
        self.uptime.insert(
            id,
            Uptime {
                joined_at: now,
                up_since: Some(now),
                total_up: SimDuration::ZERO,
            },
        );
    }
}

/// Counters the experiments and property tests read back.
#[derive(Clone, Debug, Default)]
pub struct FabricStats {
    /// Serialized bytes of every gossip message shipped.
    pub gossip_bytes: u64,
    /// Subset of `gossip_bytes`: piggybacked delta payload on pings/acks.
    pub delta_bytes: u64,
    /// Subset of `gossip_bytes`: digest messages and their record replies.
    pub digest_bytes: u64,
    /// Digest anti-entropy syncs initiated.
    pub digest_syncs: u64,
    /// Gossip contacts performed (probe round-trips and digest syncs).
    pub exchanges: u64,
    /// `Dead` declarations that matched ground truth.
    pub true_detections: u64,
    /// `Dead` declarations against a peer that was physically up when
    /// declared. There is no rejoin-window exemption: a declaration
    /// that lands after its subject rejoined counts here.
    pub false_positives: u64,
    /// Per-declaration latencies (ms) from the down-transition to each
    /// observer's declaration.
    pub detection_latency_ms: Vec<f64>,
}

/// Cached handles into the global metrics registry so the tick path
/// never re-hashes metric names.
#[derive(Clone)]
struct FabricMetrics {
    gossip_bytes: CounterHandle,
    delta_bytes: CounterHandle,
    digest_bytes: CounterHandle,
    digest_syncs: CounterHandle,
    false_positive: CounterHandle,
    latency_ms: HistogramHandle,
    queue_depth: HistogramHandle,
}

impl FabricMetrics {
    fn new() -> FabricMetrics {
        let m = hpop_obs::metrics();
        FabricMetrics {
            gossip_bytes: m.counter("fabric.gossip.bytes"),
            delta_bytes: m.counter("fabric.gossip.delta_bytes"),
            digest_bytes: m.counter("fabric.gossip.digest_bytes"),
            digest_syncs: m.counter("fabric.gossip.digest_syncs"),
            false_positive: m.counter("fabric.detect.false_positive"),
            latency_ms: m.histogram("fabric.detect.latency_ms"),
            queue_depth: m.histogram("fabric.gossip.piggyback.depth"),
        }
    }
}

impl fmt::Debug for FabricMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FabricMetrics { .. }")
    }
}

/// The gossip membership layer over a set of appliances.
#[derive(Clone, Debug)]
pub struct Fabric {
    now: SimTime,
    /// Protocol periods elapsed (drives the staggered digest timer).
    period_index: u64,
    rng: StdRng,
    /// Every joined node's runtime; a node is never removed.
    nodes: ById<NodeRuntime>,
    truth: GroundTruth,
    ledger: ReputationLedger,
    stats: FabricStats,
    metrics: FabricMetrics,
    /// What the nodes ask of the world, in flight.
    outbox: Outbox,
    /// Reused buffers, taken and put back: the up ids, a rejoin's
    /// introducers, and the message being delivered.
    ids: Vec<PeerId>,
    introducers: Vec<PeerId>,
    inbox: Vec<u8>,
    /// Optional write-through persistence of self-incarnation numbers
    /// (one map keyed by peer id stands in for each appliance's own
    /// NVRAM). Attached, a crashed peer rejoins above everything it
    /// ever announced; absent, it relies on the self-defense race.
    inc_store: Option<IncarnationStore>,
    /// Re-derive every probe pick by [`candidates_by_scan`] and assert
    /// the two agree.
    #[cfg(test)]
    audit_picks: bool,
}

impl Fabric {
    /// An empty fabric starting at the sim epoch.
    pub fn new(cfg: FabricConfig) -> Fabric {
        Fabric {
            rng: StdRng::seed_from_u64(cfg.seed),
            now: SimTime::ZERO,
            period_index: 0,
            nodes: ById::default(),
            truth: GroundTruth::default(),
            ledger: ReputationLedger::new(),
            stats: FabricStats::default(),
            metrics: FabricMetrics::new(),
            outbox: Outbox::default(),
            ids: Vec::new(),
            introducers: Vec::new(),
            inbox: Vec::new(),
            inc_store: None,
            #[cfg(test)]
            audit_picks: false,
        }
    }

    /// Attaches persistent incarnation storage: every self-incarnation
    /// bump any member announces is written through, and a rejoin
    /// resumes above the persisted maximum. This is what keeps a
    /// [`Fabric::crash`]-then-rejoin windowless even though the crashed
    /// appliance forgot its own incarnation.
    pub fn attach_incarnation_store(&mut self, store: IncarnationStore) {
        self.inc_store = Some(store);
    }

    /// Detaches the incarnation store (e.g. to restart it through its
    /// own simulated disk). Persistence stops until re-attached.
    pub fn take_incarnation_store(&mut self) -> Option<IncarnationStore> {
        self.inc_store.take()
    }

    /// The current sim time as seen by the fabric.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of peers ever joined.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no peer has joined.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 0
    }

    /// Ground truth: is this peer physically up?
    pub fn is_up(&self, id: PeerId) -> bool {
        self.truth.up.contains(id)
    }

    /// A new appliance joins (initially up). It bootstraps from one
    /// random up introducer with a digest sync (the newcomer pulls the
    /// whole membership, the introducer learns it back and relays its
    /// record); everyone else hears through subsequent gossip.
    pub fn join(&mut self, advert: Advertisement) -> PeerId {
        let id = PeerId(self.nodes.len() as u64);
        self.nodes
            .insert(id, NodeRuntime::new(id, advert, self.now));
        self.truth.join(id, self.now);
        // The joiner holds the highest id, so the others are the first
        // `up - 1` up ids.
        let others = self.truth.up.len() - 1;
        if others > 0 {
            let intro = self.truth.up.ids().nth(self.rng.gen_range(0..others));
            let intro = intro.expect("`others` up ids precede the joiner");
            self.nodes[id].contact(intro, true, &mut self.outbox);
            self.exchange();
        }
        id
    }

    /// Flips a peer's ground-truth liveness (driven by the churn
    /// schedule). Coming back up bumps the peer's incarnation past both
    /// its in-memory value and anything it ever persisted, so its
    /// re-announcement refutes every suspicion or death certificate
    /// circulating about it — including ones a crash made it forget.
    pub fn set_up(&mut self, id: PeerId, up: bool) {
        let Some(acc) = self.truth.uptime.get_mut(id) else {
            return;
        };
        if up && !self.truth.up.contains(id) {
            acc.up_since = Some(self.now);
            self.truth.up.insert(id, ());
            self.truth.open_down.remove(id);
            let persisted = self.inc_store.as_ref().map_or(0, |s| s.get(id));
            self.nodes[id].rejoin(self.now, persisted, &mut self.outbox);
            self.settle();
            // Re-announce through EVERY up peer so the bump outraces
            // in-flight death declarations everywhere at once: this
            // broadcast, plus persisted incarnations, closes the old
            // "rejoin window". The first contact is a digest sync, so a
            // crash-wiped table re-bootstraps the membership (and meets
            // any death certificate about itself, which the pings then
            // refute). Each exchange ends before the next ping is made.
            let mut intros = std::mem::take(&mut self.introducers);
            intros.clear();
            intros.extend(self.truth.up.ids().filter(|&p| p != id));
            for (k, &target) in intros.iter().enumerate() {
                self.nodes[id].contact(target, k == 0, &mut self.outbox);
                self.exchange();
            }
            self.introducers = intros;
        } else if !up && self.truth.up.remove(id).is_some() {
            if let Some(since) = acc.up_since.take() {
                acc.total_up += self.now.saturating_since(since);
            }
            self.truth.open_down.insert(id, self.now);
        }
    }

    /// Simulates a power-loss crash: the appliance goes down AND loses
    /// its whole node state, its own incarnation included; only its
    /// advertisement (configuration) survives. A later `set_up(id,
    /// true)` is an *amnesiac* rejoin: with an attached
    /// [`IncarnationStore`] the peer resumes above every incarnation it
    /// ever announced; without one it restarts at 1 and must win the
    /// self-defense race against its own death certificates.
    pub fn crash(&mut self, id: PeerId) {
        self.set_up(id, false);
        if let Some(node) = self.nodes.get_mut(id) {
            let advert = node.table().get(id).map(|r| r.advert).unwrap_or_default();
            *node = NodeRuntime::new(id, advert, self.now);
        }
    }

    /// Advances the clock one protocol period, stamps every up node (so
    /// one that acks before its own round sends this period's stamp),
    /// then runs their rounds in id order. Returns the new sim time.
    pub fn tick(&mut self) -> SimTime {
        self.now += PERIOD;
        self.period_index += 1;
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        ids.extend(self.truth.up.ids());
        for &id in &ids {
            self.nodes[id].touch(self.now);
        }
        for &id in &ids {
            self.round_for(id);
        }
        for &id in &ids {
            self.nodes[id].end_period(self.now);
        }
        self.ids = ids;
        self.now
    }

    /// Runs `n` ticks back to back.
    pub fn run_rounds(&mut self, n: u32) {
        for _ in 0..n {
            self.tick();
        }
    }

    fn round_for(&mut self, id: PeerId) {
        let node = &mut self.nodes[id];
        self.metrics.queue_depth.record(node.queue_len() as u64);
        #[cfg(test)]
        let by_scan = self
            .audit_picks
            .then(|| candidates_by_scan(node.table(), id));
        node.on_tick(self.period_index, &mut self.rng, &mut self.outbox);
        #[cfg(test)]
        if let Some(by_scan) = by_scan {
            let pick = node.last_pick.map(|(others, k, target)| {
                assert_eq!(by_scan.len(), others);
                (by_scan[k], target)
            });
            assert!(pick.is_some() || by_scan.is_empty());
            assert!(pick.is_none_or(|(scanned, target)| scanned == target));
        }
        self.exchange();
        self.nodes[id].end_round(self.now, &mut self.outbox);
        self.settle();
    }

    /// Carries the exchange a node opened: every message in flight,
    /// newest first, until none is left; replies join the flight.
    fn exchange(&mut self) {
        let mut msg = std::mem::take(&mut self.inbox);
        let mut opening = true;
        while let Some(dst) = self.outbox.take(&mut msg) {
            if std::mem::take(&mut opening) {
                self.stats.exchanges += 1;
                if msg[0] == wire::TAG_DIGEST {
                    self.stats.digest_syncs += 1;
                    self.metrics.digest_syncs.incr();
                }
            }
            self.deliver(dst, &msg);
        }
        // Room for the largest message, an answer about every issued id,
        // so the buffers grow with the membership, not sync by sync.
        let most = wire::LIST_HEADER_BYTES + self.nodes.len() * wire::RECORD_BYTES;
        self.outbox.reserve(most, &mut msg);
        self.inbox = msg;
    }

    /// Charges `msg`, then delivers it unless `dst` is down: the one loss.
    fn deliver(&mut self, dst: PeerId, msg: &[u8]) {
        let len = msg.len() as u64;
        self.stats.gossip_bytes += len;
        self.metrics.gossip_bytes.add(len);
        if let Some(&(wire::TAG_PING | wire::TAG_ACK)) = msg.first() {
            let payload = len.saturating_sub(wire::PING_HEADER_BYTES as u64);
            self.stats.delta_bytes += payload;
            self.metrics.delta_bytes.add(payload);
        } else {
            self.stats.digest_bytes += len;
            self.metrics.digest_bytes.add(len);
        }
        if self.truth.up.contains(dst) {
            let issued = self.nodes.len() as u64;
            self.nodes[dst].on_message(self.now, issued, msg, &mut self.outbox);
            self.settle();
        }
    }

    /// Does what the last node asked: writes its bumps through (a failure
    /// degrades the next rejoin to the self-defense race, it does not
    /// halt gossip) and scores its declarations: true if the subject is
    /// down right now, else false — a rejoin resumes above every death
    /// certificate, so one landing after it is a detector bug.
    fn settle(&mut self) {
        for &(id, inc) in &self.outbox.bumps {
            if let Some(store) = self.inc_store.as_mut() {
                let _ = store.record(id, inc);
            }
        }
        self.outbox.bumps.clear();
        for &subject in &self.outbox.dead {
            if let Some(&down_at) = self.truth.open_down.get(subject) {
                let latency_ms = self.now.saturating_since(down_at).as_millis_f64();
                self.stats.true_detections += 1;
                self.stats.detection_latency_ms.push(latency_ms);
                self.metrics.latency_ms.record(latency_ms.round() as u64);
            } else {
                self.stats.false_positives += 1;
                self.metrics.false_positive.incr();
            }
        }
        self.outbox.dead.clear();
    }

    /// The membership as one observer currently believes it, joined
    /// with the shared ledger and ground-truth uptime accounting.
    ///
    /// Returns an empty view for unknown observers.
    pub fn view(&self, observer: PeerId) -> PeerView {
        let Some(node) = self.nodes.get(observer) else {
            return PeerView::default();
        };
        let entries = node
            .table()
            .iter()
            .map(|r| PeerEntry {
                id: r.id,
                state: r.state,
                advert: r.advert,
                uptime_fraction: self.uptime_fraction(r.id),
                reputation: self.ledger.score(r.id),
            })
            .collect();
        PeerView::new(entries)
    }

    /// Ground-truth fraction of its lifetime this peer has been up.
    pub fn uptime_fraction(&self, id: PeerId) -> f64 {
        self.truth
            .uptime
            .get(id)
            .map_or(0.0, |u| u.fraction(self.now))
    }

    /// Read access to the shared reputation ledger.
    pub fn ledger(&self) -> &ReputationLedger {
        &self.ledger
    }

    /// Records a service-observed violation on the shared ledger.
    pub fn record_violation(&mut self, id: PeerId, kind: Violation) -> f64 {
        self.ledger.record_violation(id, kind)
    }

    /// Detector/gossip statistics so far.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// The ids every *up* node currently believes alive, per node —
    /// the convergence witness the property tests assert on.
    pub fn alive_sets_of_up_nodes(&self) -> Vec<(PeerId, BTreeSet<PeerId>)> {
        self.truth
            .up
            .ids()
            .map(|id| (id, self.nodes[id].table().alive_ids().into_iter().collect()))
            .collect()
    }

    /// The `id → incarnation` map of peers one up node believes alive
    /// (empty for unknown or down observers) — the witness the
    /// convergence property compares against the churn schedule.
    pub fn alive_incarnations(&self, observer: PeerId) -> BTreeMap<PeerId, u64> {
        if !self.truth.up.contains(observer) {
            return BTreeMap::new();
        }
        self.nodes[observer]
            .table()
            .iter()
            .filter(|r| r.state.is_alive())
            .map(|r| (r.id, r.incarnation))
            .collect()
    }
}

/// The probe candidates as the tick listed them before the table kept
/// its live-id index — every record walked, terminal ones and the
/// prober filtered out. The reference `round_for` audits its indexed
/// pick against.
#[cfg(test)]
fn candidates_by_scan(table: &crate::member::MembershipTable, prober: PeerId) -> Vec<PeerId> {
    use crate::member::PeerState::{Dead, Left};
    table
        .iter()
        .filter(|r| r.id != prober && !matches!(r.state, Dead | Left))
        .map(|r| r.id)
        .collect()
}

/// What a digest sync between tables `a` and `b` ships each way —
/// `(a's records for b, b's records for a)`, each in id order — as the
/// sync chose it before each side answered the other's digest: one
/// merge walk over both tables. The reference `answer_digest` is
/// checked against.
#[cfg(test)]
fn reconcile_by_scan(
    a: &crate::member::MembershipTable,
    b: &crate::member::MembershipTable,
) -> (
    Vec<crate::member::PeerRecord>,
    Vec<crate::member::PeerRecord>,
) {
    let (mut send_to_b, mut send_to_a) = (Vec::new(), Vec::new());
    let mut ia = a.iter().peekable();
    let mut ib = b.iter().peekable();
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(ra), Some(rb)) => match ra.id.cmp(&rb.id) {
                std::cmp::Ordering::Less => {
                    send_to_b.push(**ra);
                    ia.next();
                }
                std::cmp::Ordering::Greater => {
                    send_to_a.push(**rb);
                    ib.next();
                }
                std::cmp::Ordering::Equal => {
                    let (a_claim, b_claim) =
                        ((ra.incarnation, ra.state), (rb.incarnation, rb.state));
                    if crate::member::fresher(a_claim, b_claim) {
                        send_to_b.push(**ra);
                    } else if crate::member::fresher(b_claim, a_claim) {
                        send_to_a.push(**rb);
                    }
                    ia.next();
                    ib.next();
                }
            },
            (Some(ra), None) => {
                send_to_b.push(**ra);
                ia.next();
            }
            (None, Some(rb)) => {
                send_to_a.push(**rb);
                ib.next();
            }
            (None, None) => return (send_to_b, send_to_a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_id;
    use crate::member::{MembershipTable, PeerRecord, PeerState};
    use crate::node::{
        answer_digest, encode_digest, retransmit_limit, Piggyback, PIGGYBACK_BUDGET_BYTES,
        QUEUE_CAP,
    };
    use std::collections::VecDeque;

    fn fabric_of(n: u64) -> Fabric {
        let mut f = Fabric::new(FabricConfig::default());
        for _ in 0..n {
            f.join(Advertisement::default());
        }
        f
    }

    #[test]
    fn membership_spreads_to_all_nodes() {
        let mut f = fabric_of(16);
        f.run_rounds(8); // ~2·log2(16)
        for (_, alive) in f.alive_sets_of_up_nodes() {
            assert_eq!(alive.len(), 16, "every node should know all 16 alive");
        }
    }

    #[test]
    fn dead_peer_is_detected_and_agreed_on() {
        let mut f = fabric_of(12);
        f.run_rounds(8);
        let victim = PeerId(3);
        f.set_up(victim, false);
        f.run_rounds(40);
        for (id, alive) in f.alive_sets_of_up_nodes() {
            assert!(
                !alive.contains(&victim),
                "node {id} still believes {victim} alive"
            );
        }
        assert!(f.stats().true_detections >= 1);
        assert_eq!(f.stats().false_positives, 0);
        let lat = &f.stats().detection_latency_ms;
        assert!(!lat.is_empty());
        // Probe-failure suspicion detects within seconds of sim time.
        assert!(lat.iter().all(|&ms| ms < 60_000.0), "{lat:?}");
    }

    #[test]
    fn rejoin_refutes_death_certificate() {
        let mut f = fabric_of(10);
        f.run_rounds(8);
        let victim = PeerId(2);
        f.set_up(victim, false);
        f.run_rounds(40);
        f.set_up(victim, true);
        f.run_rounds(12);
        let mut seen_alive = 0;
        for (_, alive) in f.alive_sets_of_up_nodes() {
            if alive.contains(&victim) {
                seen_alive += 1;
            }
        }
        assert_eq!(seen_alive, 10, "rejoin should spread to every node");
    }

    #[test]
    fn quiet_network_has_no_false_positives() {
        let mut f = fabric_of(20);
        f.run_rounds(200);
        assert_eq!(f.stats().false_positives, 0);
        assert_eq!(f.stats().true_detections, 0);
    }

    #[test]
    fn view_reflects_beliefs_and_ledger() {
        let mut f = fabric_of(6);
        f.run_rounds(6);
        f.record_violation(PeerId(1), Violation::Integrity);
        let v = f.view(PeerId(0));
        assert_eq!(v.len(), 6);
        assert!(v.is_alive(PeerId(1)));
        assert!(v.get(PeerId(1)).unwrap().reputation < 1.0);
        assert_eq!(f.ledger().violations(PeerId(1)), 1);
    }

    #[test]
    fn uptime_fraction_tracks_downtime() {
        let mut f = fabric_of(2);
        f.run_rounds(50);
        assert!((f.uptime_fraction(PeerId(0)) - 1.0).abs() < 1e-9);
        f.set_up(PeerId(1), false);
        f.run_rounds(50);
        let up = f.uptime_fraction(PeerId(1));
        assert!((up - 0.5).abs() < 0.02, "expected ~0.5, got {up}");
    }

    #[test]
    fn gossip_bytes_accumulate() {
        let mut f = fabric_of(8);
        f.run_rounds(5);
        assert!(f.stats().gossip_bytes > 0);
        assert!(f.stats().exchanges > 0);
    }

    #[test]
    fn piggyback_respects_byte_budget() {
        let budget = PIGGYBACK_BUDGET_BYTES;
        let mut node = NodeRuntime::new(PeerId(0), Advertisement::default(), SimTime::ZERO);
        let mut records = Vec::new();
        wire::begin_list(&mut records, wire::TAG_RECORDS, PeerId(1));
        for i in 1..40u64 {
            let rec = PeerRecord::alive(PeerId(i), Advertisement::default(), SimTime::ZERO);
            wire::push_record(&mut records, &rec);
        }
        node.on_message(SimTime::ZERO, 40, &records, &mut Outbox::default());
        node.enqueue_delta(PeerId(0));
        let mut msg = Vec::new();
        node.encode_ping(wire::TAG_PING, &mut msg);
        assert!(msg.len() <= budget, "{} > {budget}", msg.len());
        let max_deltas = (budget - wire::PING_HEADER_BYTES) / wire::RECORD_BYTES;
        let frame = wire::Frame::parse(&msg).expect("an encoded ping parses");
        assert_eq!(frame.records().count(), max_deltas);
        assert!(node.queue_len() > 0, "unsent deltas stay queued");
    }

    /// The credit-indexed queue against the one it replaced — a
    /// `VecDeque<(PeerId, u32)>` re-armed by a linear find — under a
    /// seeded mix of re-arms and sends over more distinct ids than
    /// `QUEUE_CAP`, so the at-cap drop of the front runs too: the same
    /// ids, in the same order, with the same credits, after every step.
    #[test]
    fn piggyback_matches_the_linear_find_queue() {
        fn arm_by_find(q: &mut VecDeque<(PeerId, u32)>, id: PeerId, limit: u32) {
            if let Some(entry) = q.iter_mut().find(|(p, _)| *p == id) {
                entry.1 = limit;
                return;
            }
            if q.len() >= QUEUE_CAP {
                q.pop_front();
            }
            q.push_back((id, limit));
        }
        let mut rng = StdRng::seed_from_u64(0x9166);
        let (mut queue, mut model) = (Piggyback::default(), VecDeque::new());
        let mut dropped_at_cap = false;
        for _ in 0..6_000 {
            if rng.gen_range(0..10) < 7 {
                let id = PeerId(rng.gen_range(0..1_500));
                let limit = rng.gen_range(1..6);
                let queued = queue.credit.get(by_id::slot(id)).is_some_and(|&c| c > 0);
                dropped_at_cap |= model.len() == QUEUE_CAP && !queued;
                queue.arm(id, limit);
                arm_by_find(&mut model, id, limit);
            } else if let Some((id, credit)) = queue.pop() {
                assert_eq!(model.pop_front(), Some((id, credit)));
                if credit > 1 {
                    queue.push(id, credit - 1);
                    model.push_back((id, credit - 1));
                }
            }
            let held = queue
                .order
                .iter()
                .map(|&p| (p, queue.credit[by_id::slot(p)]));
            assert!(held.eq(model.iter().copied()));
            let queued = queue.credit.iter().filter(|&&c| c > 0).count();
            assert_eq!(queued, queue.order.len(), "non-zero credit means queued");
        }
        assert!(dropped_at_cap, "the run must overflow the queue");
    }

    #[test]
    fn retransmit_limit_scales_with_log_n() {
        assert_eq!(retransmit_limit(2), 3);
        assert_eq!(retransmit_limit(16), 12);
        assert_eq!(retransmit_limit(100), 21);
        assert_eq!(retransmit_limit(0), 3); // clamped to n=2
    }

    #[test]
    fn rejoin_leaves_no_detection_window() {
        // One period down raises suspicions (probe failures) without
        // the grace expiring; the rejoin broadcast must refute them
        // before any observer declares — there is no scoring exemption
        // left to hide a late declaration behind.
        let mut f = fabric_of(10);
        f.run_rounds(8);
        let victim = PeerId(2);
        f.set_up(victim, false);
        f.tick();
        f.set_up(victim, true);
        f.run_rounds(30);
        assert_eq!(f.stats().false_positives, 0);
        for (id, alive) in f.alive_sets_of_up_nodes() {
            assert!(
                alive.contains(&victim),
                "node {id} missing rejoined {victim}"
            );
        }
    }

    #[test]
    fn crashed_peer_with_persisted_incarnation_rejoins_cleanly() {
        use hpop_durability::DurabilityConfig;
        use hpop_netsim::storage::SimDisk;

        let mut f = fabric_of(10);
        let store =
            IncarnationStore::open(SimDisk::new(9), "inc", DurabilityConfig::default()).unwrap();
        f.attach_incarnation_store(store);
        f.run_rounds(8);
        let victim = PeerId(4);
        // Raise the victim's incarnation through a few flap cycles so
        // a post-crash rejoin at 0 would genuinely lose merges.
        for _ in 0..3 {
            f.set_up(victim, false);
            f.run_rounds(1);
            f.set_up(victim, true);
            f.run_rounds(4);
        }
        let pre_crash_inc = f.alive_incarnations(victim)[&victim];
        assert!(pre_crash_inc >= 3);
        // Power loss: runtime state gone, the world declares it dead.
        f.crash(victim);
        f.run_rounds(40);
        assert!(f.stats().true_detections >= 1);
        f.set_up(victim, true);
        let rejoined_inc = f.alive_incarnations(victim)[&victim];
        assert!(
            rejoined_inc > pre_crash_inc,
            "rejoined at {rejoined_inc}, pre-crash was {pre_crash_inc}"
        );
        f.run_rounds(12);
        for (id, alive) in f.alive_sets_of_up_nodes() {
            assert!(alive.contains(&victim), "node {id} missing {victim}");
        }
        assert_eq!(f.stats().false_positives, 0);
    }

    #[test]
    fn amnesiac_rejoin_without_store_recovers_via_self_defense() {
        let mut f = fabric_of(8);
        f.run_rounds(8);
        let victim = PeerId(3);
        for _ in 0..2 {
            f.set_up(victim, false);
            f.tick();
            f.set_up(victim, true);
            f.run_rounds(4);
        }
        f.crash(victim);
        f.run_rounds(40);
        // No store attached: the victim rejoins at incarnation 1 —
        // below the circulating death certificates — but the bootstrap
        // digest sync hands it its own `Dead` record, the self-defense
        // bump jumps past it, and the rest of the broadcast spreads
        // the refutation.
        f.set_up(victim, true);
        f.run_rounds(12);
        for (id, alive) in f.alive_sets_of_up_nodes() {
            assert!(alive.contains(&victim), "node {id} missing {victim}");
        }
        assert_eq!(f.stats().false_positives, 0);
    }

    #[test]
    fn digest_sync_reconciles_divergent_tables() {
        // Latecomers whose join deltas have long expired are still
        // learned through the digest timer.
        let mut f = fabric_of(6);
        f.run_rounds(5);
        let newcomer = f.join(Advertisement::default());
        // Enough rounds for at least two digest cycles at every node.
        f.run_rounds(2 * DIGEST_SYNC_EVERY as u32);
        for (id, alive) in f.alive_sets_of_up_nodes() {
            assert!(alive.contains(&newcomer), "node {id} missing {newcomer}");
        }
    }

    #[test]
    fn delta_and_digest_bytes_are_split_out() {
        let mut f = fabric_of(10);
        f.set_up(PeerId(4), false);
        f.run_rounds(2 * DIGEST_SYNC_EVERY as u32);
        let s = f.stats();
        assert!(s.delta_bytes > 0, "churn should produce piggyback bytes");
        assert!(s.digest_syncs > 0, "digest timer should have fired");
        assert!(s.digest_bytes > 0);
        assert!(s.gossip_bytes >= s.delta_bytes + s.digest_bytes);
    }

    /// FNV-1a over everything the tick path can influence: the clock,
    /// ground truth, `FabricStats`, and every node's full table,
    /// suspicion clocks and piggyback queue (ids and credits, in
    /// queue order).
    fn state_digest(f: &Fabric) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        feed(f.now.as_nanos());
        feed(f.period_index);
        for id in f.truth.up.ids() {
            feed(id.0);
        }
        let s = &f.stats;
        for v in [
            s.gossip_bytes,
            s.delta_bytes,
            s.digest_bytes,
            s.digest_syncs,
            s.exchanges,
            s.true_detections,
            s.false_positives,
        ] {
            feed(v);
        }
        for ms in &s.detection_latency_ms {
            feed(ms.to_bits());
        }
        for (id, node) in f.nodes.iter() {
            feed(id.0);
            feed(node.table().len() as u64);
            for r in node.table().iter() {
                feed(r.id.0);
                feed(u64::from(r.state.rank()));
                feed(r.incarnation);
                feed(r.advert.storage_bytes);
                feed(r.advert.uplink_mbps.to_bits());
                feed(u64::from(r.advert.cache_slots));
                feed(r.advert.rtt_ms.to_bits());
                feed(r.updated_at.as_nanos());
            }
            feed(node.suspect_since().len() as u64);
            for (p, at) in node.suspect_since().iter() {
                feed(p.0);
                feed(at.as_nanos());
            }
            feed(node.queue_len() as u64);
            for &p in &node.queue().order {
                let credit = node.queue().credit[by_id::slot(p)];
                feed(p.0);
                feed(u64::from(credit));
            }
        }
        h
    }

    /// The whole observable state after a seeded n = 256 run is frozen:
    /// paper-preset churn, a power-loss crash with an amnesiac rejoin,
    /// four digest-sync cycles and tombstone eviction (500 periods, so
    /// some churner stays down past `EVICT_AFTER_PERIODS`). The constant
    /// was captured on the tick that held every tuning knob in a config
    /// struct, from this same script; a tick that draws a different probe
    /// target, declares in a different order or evicts at a different
    /// period cannot reproduce it. Every pick is also re-derived by the
    /// old table walk (`audit_picks`), and every table's indices are
    /// checked against its records after every period — which covers
    /// the two callers that bypass merge precedence: `set_up`'s amnesty
    /// downgrade and `crash()`'s wholesale table replacement.
    #[test]
    fn tick_frozen() {
        use hpop_netsim::churn::{ChurnConfig, ChurnSchedule};
        const N: usize = 256;
        const SECS: u64 = 500;
        let horizon = SimTime::from_secs(SECS);
        let churn = ChurnSchedule::generate(N, ChurnConfig::paper_preset(0x601d), horizon);
        let mut f = Fabric::new(FabricConfig { seed: 0x601d });
        for i in 0..N {
            f.join(Advertisement {
                rtt_ms: 2.0 + (i % 7) as f64 * 3.0,
                ..Advertisement::default()
            });
        }
        f.audit_picks = true;
        // A peer the schedule never touches, so the scripted events
        // below are the only transitions it sees.
        let crashed = (0..N)
            .find(|&i| churn.uptime_fraction(i, horizon) >= 1.0)
            .map(|i| PeerId(i as u64))
            .unwrap();
        for s in 0..SECS {
            for ev in churn.transitions_in(SimTime::from_secs(s), SimTime::from_secs(s + 1)) {
                f.set_up(PeerId(ev.node as u64), ev.up);
            }
            match s {
                100 => f.crash(crashed),
                160 => f.set_up(crashed, true), // no store: amnesiac rejoin
                _ => {}
            }
            f.tick();
            for (_, node) in f.nodes.iter() {
                node.table().assert_indices_match_records(false);
            }
        }
        let s = f.stats();
        assert!(s.digest_syncs as usize >= 4 * N, "four digest cycles");
        assert!(s.true_detections > 0 && s.false_positives == 0);
        let tombstones_evicted = (0..N as u64)
            .filter(|&i| !f.is_up(PeerId(i)))
            .any(|i| f.nodes[crashed].table().get(PeerId(i)).is_none());
        assert!(tombstones_evicted, "the run must exercise eviction");
        assert_eq!(state_digest(&f), 0x8f71_4cf5_c75d_4868);
    }

    /// Membership at the scale of a city block. Release-only (CI runs
    /// `cargo test --release -p hpop-fabric -- --ignored`): seconds
    /// optimised, minutes not.
    ///
    /// The bound is 500 rounds, not the proptests'
    /// `convergence_budget`: a fresh suspicion queues FIFO behind up
    /// to `QUEUE_CAP` join deltas still being retransmitted, so the
    /// last observer hears of the death hundreds of rounds late (see
    /// ROADMAP item 7(a), least-transmitted-first piggyback ordering).
    #[test]
    #[ignore = "n = 1,024; run with --release"]
    fn one_failure_among_1024_is_agreed_on() {
        const N: u64 = 1024;
        let mut f = fabric_of(N);
        let victim = PeerId(N / 2);
        f.set_up(victim, false);
        f.run_rounds(500);
        assert_eq!(f.stats().false_positives, 0);
        let truth: BTreeSet<PeerId> = (0..N).map(PeerId).filter(|&p| p != victim).collect();
        for (observer, alive) in f.alive_sets_of_up_nodes() {
            assert!(
                alive == truth,
                "observer {observer} disagrees with ground truth"
            );
        }
    }

    /// Per node: members, and the id slots each per-peer table spans.
    fn footprint(f: &Fabric) -> Vec<[usize; 5]> {
        f.nodes
            .iter()
            .map(|(_, n)| {
                [
                    n.table().len(),
                    n.table().span(),
                    n.suspect_since().span(),
                    n.queue_len(),
                    n.queue().credit.len(),
                ]
            })
            .collect()
    }

    /// Delivers `msg` to `dst` as if it came off the wire, through the
    /// driver's loop: replies are charged and carried like any others.
    fn receive(f: &mut Fabric, dst: PeerId, msg: &[u8]) {
        f.outbox.send(dst, |buf| buf.extend_from_slice(msg));
        f.exchange();
    }

    /// A gossiped record about an id this fabric never issued is
    /// dropped before it reaches a table, so no id off the wire can
    /// grow one — not even `u64::MAX`, which a slot table could never
    /// reach. (An ack, so the receiver sends nothing back and its
    /// queue stays as it was.) An unsolicited digest from an id never
    /// issued, or from a down peer, is answered with the receiver's
    /// records and its own digest, and both go nowhere: the driver
    /// drops them, so nothing past those two messages is charged.
    #[test]
    fn records_about_unissued_ids_grow_no_table() {
        let mut f = fabric_of(4);
        f.run_rounds(4);
        let before = footprint(&f);
        let mut msg = Vec::new();
        wire::begin_ping(&mut msg, wire::TAG_ACK, PeerId(1), 0);
        for id in [u64::MAX, f.len() as u64] {
            let mut forged = PeerRecord::alive(PeerId(id), Advertisement::default(), f.now());
            forged.state = PeerState::Suspect;
            forged.incarnation = 9;
            wire::push_record(&mut msg, &forged);
        }
        let frame = wire::Frame::parse(&msg).expect("the forged ack parses");
        assert_eq!(frame.records().count(), 2);
        let charged = f.stats().gossip_bytes;
        receive(&mut f, PeerId(0), &msg);
        let reply = f.stats().gossip_bytes - charged - msg.len() as u64;
        assert!(reply == 0, "an ack is not answered");
        assert_eq!(footprint(&f), before);

        f.set_up(PeerId(3), false);
        let members = f.nodes[PeerId(0)].table().len();
        // An empty digest: the answer carries every record the receiver
        // holds, and its own digest an entry for each.
        let answer = wire::LIST_HEADER_BYTES + members * wire::RECORD_BYTES;
        let digest = wire::LIST_HEADER_BYTES + members * wire::DIGEST_ENTRY_BYTES;
        let held = |f: &Fabric| {
            let node = &f.nodes[PeerId(3)];
            let records: Vec<PeerRecord> = node.table().iter().copied().collect();
            (records, node.queue().order.clone())
        };
        for sender in [PeerId(u64::MAX), PeerId(3)] {
            let down = held(&f);
            wire::begin_list(&mut msg, wire::TAG_DIGEST, sender);
            let charged = f.stats().gossip_bytes;
            receive(&mut f, PeerId(0), &msg);
            let sent = f.stats().gossip_bytes - charged;
            assert_eq!(sent as usize, msg.len() + answer + digest, "from {sender}");
            assert_eq!(footprint(&f), before);
            assert_eq!(held(&f), down, "the down peer heard nothing");
        }
    }

    /// Adverts are quantized through `f32` once, at join, so the table
    /// the joiner keeps and every table its record reaches over the
    /// wire hold the same value — even one `f32` cannot represent.
    #[test]
    fn every_view_holds_the_advert_the_wire_carries() {
        let mut f = fabric_of(5);
        let advert = Advertisement {
            rtt_ms: 0.1,
            uplink_mbps: 333.3,
            ..Advertisement::default()
        };
        let id = f.join(advert);
        f.run_rounds(8);
        let carried = Advertisement {
            rtt_ms: f64::from(0.1f32),
            uplink_mbps: f64::from(333.3f32),
            ..advert
        };
        assert_ne!(carried, advert, "0.1 ms is not an f32");
        for observer in (0..f.len() as u64).map(PeerId) {
            let seen = f.view(observer).get(id).map(|e| e.advert);
            assert_eq!(seen, Some(carried), "{observer}'s view of {id}");
        }
    }

    /// A membership table holding `records` (a later one for an id
    /// replaces an earlier one).
    fn table_of(records: &[PeerRecord]) -> MembershipTable {
        let mut table = MembershipTable::default();
        for &rec in records {
            table.upsert(rec);
        }
        table
    }

    fn record() -> impl proptest::strategy::Strategy<Value = PeerRecord> {
        use proptest::prelude::*;
        let state = prop_oneof![
            Just(PeerState::Alive),
            Just(PeerState::Suspect),
            Just(PeerState::Dead),
            Just(PeerState::Left),
        ];
        (0u64..24, state, 0u64..4, 0u64..50, 1u32..90).prop_map(
            |(id, state, incarnation, at, rtt)| PeerRecord {
                id: PeerId(id),
                state,
                incarnation,
                advert: Advertisement {
                    rtt_ms: f64::from(rtt) / 4.0,
                    ..Advertisement::default()
                },
                updated_at: SimTime::from_secs(at),
            },
        )
    }

    /// The records `holder` ships in answer to `digest_of`'s digest,
    /// decoded off the wire.
    fn answered(holder: &MembershipTable, digest_of: &MembershipTable) -> Vec<PeerRecord> {
        let (mut digest, mut answer) = (Vec::new(), Vec::new());
        encode_digest(digest_of, PeerId(0), &mut digest);
        let digest = wire::Frame::parse(&digest).expect("an encoded digest parses");
        answer_digest(holder, PeerId(1), &digest, &mut answer);
        wire::Frame::parse(&answer).map_or(Vec::new(), |f| f.records().collect())
    }

    proptest::proptest! {
        /// Each side of a digest sync draws up its answer from its own
        /// table and the other side's decoded digest; both answers are
        /// the records, in the order, that one walk over both tables
        /// chose.
        #[test]
        fn digest_answers_match_the_two_table_walk(
            a in proptest::collection::vec(record(), 0..24),
            b in proptest::collection::vec(record(), 0..24),
        ) {
            let (a, b) = (table_of(&a), table_of(&b));
            let (to_b, to_a) = reconcile_by_scan(&a, &b);
            proptest::prop_assert_eq!(answered(&a, &b), to_b);
            proptest::prop_assert_eq!(answered(&b, &a), to_a);
        }

        /// Gossip arrives from the network: arbitrary bytes, and every
        /// truncation and one-byte rot of a valid ping, digest and
        /// records message, delivered to a running fabric's nodes (and
        /// to one it never issued), panic nowhere and grow no table:
        /// every node keeps its members, and no per-peer table spans an
        /// id slot past the ids the fabric issued.
        #[test]
        fn delivered_bytes_grow_no_table(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
        ) {
            let mut f = fabric_of(4);
            f.run_rounds(8);
            let n = f.len();
            let members: Vec<usize> = footprint(&f).iter().map(|p| p[0]).collect();
            let mut records = Vec::new();
            wire::begin_list(&mut records, wire::TAG_RECORDS, PeerId(2));
            for id in [1, 3] {
                let mut rec = PeerRecord::alive(PeerId(id), Advertisement::default(), f.now());
                rec.state = PeerState::Dead;
                rec.incarnation = 7;
                wire::push_record(&mut records, &rec);
            }
            // Forged digests: from an id never issued and from a down
            // peer. What they draw goes nowhere, and the exchange ends.
            f.set_up(PeerId(3), false);
            let mut forged = [Vec::new(), Vec::new()];
            for (msg, sender) in forged.iter_mut().zip([u64::MAX, 3]) {
                wire::begin_list(msg, wire::TAG_DIGEST, PeerId(sender));
                wire::push_digest_entry(msg, PeerId(1), 2, PeerState::Dead);
            }
            let mut dst = 0;
            // Checked after every delivery, so a record that slips past
            // the id guard fails here while its id is still small.
            let mut deliver = |f: &mut Fabric, msg: &[u8]| {
                dst = (dst + 1) % (n + 1);
                receive(f, PeerId(dst as u64), msg);
                for (p, &held) in footprint(f).iter().zip(&members) {
                    assert_eq!(p[0], held, "a node gained or lost a member");
                    assert!(p[1] <= n && p[2] <= n && p[4] <= n, "{p:?} spans past {n} ids");
                }
            };
            let [unissued, down] = &forged;
            for valid in [wire::GOLDEN_PING, wire::GOLDEN_DIGEST, &records, unissued, down] {
                for at in 0..valid.len() {
                    deliver(&mut f, &valid[..at]);
                    let mut rotted = valid.to_vec();
                    rotted[at] ^= noise.get(at).map_or(0xFF, |n| n | 1);
                    deliver(&mut f, &rotted);
                }
            }
            deliver(&mut f, &noise);
        }
    }

    #[test]
    fn unknown_observer_views_nothing() {
        let f = fabric_of(3);
        assert!(f.view(PeerId(99)).is_empty());
    }
}

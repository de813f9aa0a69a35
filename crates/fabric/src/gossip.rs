//! [`Fabric`]: the SWIM-style gossip layer, simulated deterministically.
//!
//! Every protocol period each *up* appliance probes one acquaintance
//! with a ping; the ack proves the target alive at its stated
//! incarnation. Membership *changes* (joins, suspicions, refutations,
//! deaths) ride piggybacked on those pings/acks: each node keeps a
//! bounded queue of recently-changed records and retransmits each at
//! most `retransmit_factor · ⌈log₂ n⌉` times under a per-message byte
//! budget ([`FabricConfig::piggyback_budget_bytes`]). Because only
//! changes travel, steady-state traffic is O(n) headers per round
//! instead of the O(n²) records of full-table push-pull. Convergence
//! after partitions is still guaranteed by **digest anti-entropy** on a
//! slow timer: every `digest_sync_every` periods (staggered by node id)
//! a node swaps `(id, incarnation, state)` digests with one target and
//! only the records one side is missing are shipped. Failure detection
//! is probe-driven: a ping into a dead appliance goes unanswered, the
//! prober marks the target [`PeerState::Suspect`], and the suspicion
//! piggybacks outward; after `suspect_periods` without refutation the
//! suspect is declared [`PeerState::Dead`].
//!
//! Records carry incarnation numbers and merge under SWIM precedence
//! (`MembershipTable::merge_record`); a peer that comes back bumps its
//! incarnation, which overrides suspicion and death certificates
//! everywhere it propagates.
//!
//! Byte accounting is honest: every message is really serialized (see
//! [`crate::wire`]) into a reusable scratch buffer and its exact length
//! is charged to `fabric.gossip.bytes` (piggyback payload split out
//! into `fabric.gossip.delta_bytes`, digest traffic into
//! `fabric.gossip.digest_bytes`). The tick path is allocation-free in
//! steady state: the up-id list, record staging and the wire buffer
//! all live in reusable scratch storage.
//!
//! **What a tick costs.** O(up nodes + records that changed), not
//! O(n²): a node's round reads no more of its table than it must. The
//! probe target is the k-th entry of the table's live-id index (one
//! `gen_range` over the same id order a full walk would list, so the
//! RNG stream is what it always was); `assess` walks the suspect-id
//! index, empty in a quiet network; eviction asks the tombstone floor
//! and returns unless a record can be past the cutoff. What is left
//! per node is a constant number of ordered-map lookups plus one per
//! piggybacked delta (≤ budget / [`wire::RECORD_BYTES`] each way).
//! Only a digest sync — one node in `digest_sync_every` per period —
//! and the rejoin bootstrap walk whole tables, as reconciliation must.
//!
//! **Who owns which invariant.** `MembershipTable` owns "the indices
//! describe the records": its five mutators are the only writers of
//! either. `Nodes` owns "a node's id is its position". This module
//! owns the protocol around them: a node's own record stays alive in
//! its own table (only the owner writes it, always as alive), and the
//! piggyback queue holds an id at most once (`enqueue_delta` re-arms
//! the entry it finds).
//!
//! The fabric is driven from outside: a churn schedule (see
//! `hpop_netsim::churn`) calls [`Fabric::set_up`] at transition times
//! (or [`Fabric::crash`] for a power-loss restart that also wipes the
//! appliance's in-memory state) and [`Fabric::tick`] once per period.
//! Ground truth stays inside the fabric ([`GroundTruth`] below), which
//! is what lets it *score its own detector*: detection latency
//! (down-transition → first `Dead` declaration) lands in the
//! `fabric.detect.latency_ms` histogram, and any declaration against a
//! peer that is physically up counts as
//! `fabric.detect.false_positive` — with no rejoin-window exemption. A
//! rejoining peer re-announces at an incarnation above every record
//! circulating about it (its historical maximum survives crashes when
//! an [`crate::persist::IncarnationStore`] is attached), bootstraps
//! its table with a digest sync and broadcasts the refutation to every
//! up peer, so stale death declarations cannot land after a rejoin in
//! the first place.

use crate::member::{Advertisement, MembershipTable, PeerId, PeerRecord, PeerState};
use crate::persist::IncarnationStore;
use crate::reputation::{ReputationLedger, Violation};
use crate::view::{PeerEntry, PeerView};
use crate::wire;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_obs::{CounterHandle, HistogramHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Hard cap on a node's piggyback queue; beyond it the oldest delta is
/// dropped (digest anti-entropy will repair whatever gets lost).
const QUEUE_CAP: usize = 1024;

/// Tuning knobs of the gossip layer.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// Protocol period: one gossip round per period.
    pub period: SimDuration,
    /// Periods a suspect may linger unrefuted before being declared dead.
    pub suspect_periods: u32,
    /// Periods after which terminal (dead/left) records are evicted
    /// from membership tables.
    pub evict_after_periods: u32,
    /// λ in the per-delta retransmit bound λ·⌈log₂ n⌉.
    pub retransmit_factor: u32,
    /// Byte budget of one serialized ping/ack including piggybacked
    /// deltas.
    pub piggyback_budget_bytes: usize,
    /// Digest anti-entropy cadence in periods: a node
    /// initiates one digest sync whenever `period_index ≡ id.0`
    /// modulo this value, so syncs stagger across the membership.
    pub digest_sync_every: u64,
    /// Seed for every random choice the layer makes.
    pub seed: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            period: SimDuration::from_secs(1),
            suspect_periods: 2,
            evict_after_periods: 300,
            retransmit_factor: 3,
            piggyback_budget_bytes: 512,
            digest_sync_every: 120,
            seed: 0x5eedfab,
        }
    }
}

/// `⌈log₂ n⌉`-scaled retransmit bound for one queued delta.
fn retransmit_limit(lambda: u32, table_len: usize) -> u32 {
    let n = table_len.max(2) as u32;
    let ceil_log2 = 32 - (n - 1).leading_zeros();
    (lambda * ceil_log2).max(1)
}

/// Per-node runtime state: the node's own record plus everything it
/// believes and suspects about others.
#[derive(Clone, Debug)]
struct NodeRuntime {
    table: MembershipTable,
    suspect_since: BTreeMap<PeerId, SimTime>,
    /// Piggyback queue: recently-changed peers with remaining
    /// retransmit credit.
    queue: VecDeque<(PeerId, u32)>,
}

impl NodeRuntime {
    fn new() -> NodeRuntime {
        NodeRuntime {
            table: MembershipTable::new(),
            suspect_since: BTreeMap::new(),
            queue: VecDeque::new(),
        }
    }
}

/// Every joined node's runtime, indexed by `PeerId.0`: [`Fabric::join`]
/// hands out dense ids and a node is never removed, so the position is
/// the key and a lookup is a bounds check.
#[derive(Clone, Debug, Default)]
struct Nodes(Vec<NodeRuntime>);

impl Nodes {
    fn len(&self) -> usize {
        self.0.len()
    }

    /// The id the next [`Nodes::push`] will be stored under.
    fn next_id(&self) -> PeerId {
        PeerId(self.0.len() as u64)
    }

    fn push(&mut self, node: NodeRuntime) {
        self.0.push(node);
    }

    fn get(&self, id: PeerId) -> Option<&NodeRuntime> {
        self.0.get(usize::try_from(id.0).ok()?)
    }

    fn get_mut(&mut self, id: PeerId) -> Option<&mut NodeRuntime> {
        self.0.get_mut(usize::try_from(id.0).ok()?)
    }

    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (PeerId, &NodeRuntime)> {
        (0u64..).map(PeerId).zip(&self.0)
    }
}

impl std::ops::Index<PeerId> for Nodes {
    type Output = NodeRuntime;

    fn index(&self, id: PeerId) -> &NodeRuntime {
        self.get(id).expect("joined peers have nodes")
    }
}

/// (Re-)arms the piggyback credit for `id` on this node's queue.
fn enqueue_delta(node: &mut NodeRuntime, id: PeerId, lambda: u32) {
    let limit = retransmit_limit(lambda, node.table.len());
    if let Some(entry) = node.queue.iter_mut().find(|(p, _)| *p == id) {
        entry.1 = limit;
        return;
    }
    if node.queue.len() >= QUEUE_CAP {
        node.queue.pop_front();
    }
    node.queue.push_back((id, limit));
}

/// Serializes a ping/ack from `sender` into `msg`, draining up to a
/// budget's worth of piggyback queue into it (and into `deltas` for
/// in-process application). Returns the sender's incarnation.
fn encode_ping(
    node: &mut NodeRuntime,
    sender: PeerId,
    tag: u8,
    budget: usize,
    msg: &mut Vec<u8>,
    deltas: &mut Vec<PeerRecord>,
) -> u64 {
    deltas.clear();
    let incarnation = node.table.get(sender).map_or(0, |r| r.incarnation);
    wire::begin_ping(msg, tag, sender, incarnation);
    for _ in 0..node.queue.len() {
        if deltas.len() == u8::MAX as usize || msg.len() + wire::RECORD_BYTES > budget {
            break;
        }
        let (pid, remaining) = node.queue.pop_front().expect("loop bound");
        let Some(rec) = node.table.get(pid) else {
            continue; // evicted since it was queued
        };
        wire::push_record(msg, rec);
        deltas.push(*rec);
        if remaining > 1 {
            node.queue.push_back((pid, remaining - 1));
        }
    }
    incarnation
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
    up: BTreeSet<PeerId>,
    uptime: BTreeMap<PeerId, Uptime>,
    /// Currently-down peers → when they went down.
    open_down: BTreeMap<PeerId, SimTime>,
}

impl GroundTruth {
    fn join(&mut self, id: PeerId, now: SimTime) {
        self.up.insert(id);
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

/// Reusable buffers for the tick path: taken with `mem::take`, cleared,
/// used, and put back, so steady-state rounds allocate nothing.
#[derive(Clone, Debug, Default)]
struct Scratch {
    ids: Vec<PeerId>,
    introducers: Vec<PeerId>,
    recs_a: Vec<PeerRecord>,
    recs_b: Vec<PeerRecord>,
    to_kill: Vec<PeerId>,
    msg: Vec<u8>,
}

/// The gossip membership layer over a set of appliances.
#[derive(Clone, Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    now: SimTime,
    /// Protocol periods elapsed (drives the staggered digest timer).
    period_index: u64,
    rng: StdRng,
    nodes: Nodes,
    truth: GroundTruth,
    ledger: ReputationLedger,
    stats: FabricStats,
    metrics: FabricMetrics,
    scratch: Scratch,
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
            cfg,
            now: SimTime::ZERO,
            period_index: 0,
            nodes: Nodes::default(),
            truth: GroundTruth::default(),
            ledger: ReputationLedger::new(),
            stats: FabricStats::default(),
            metrics: FabricMetrics::new(),
            scratch: Scratch::default(),
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

    /// Best-effort write-through of a self-incarnation bump. A
    /// persistence failure degrades the next rejoin to the legacy
    /// self-defense race instead of halting gossip.
    fn persist_incarnation(&mut self, id: PeerId, inc: u64) {
        if let Some(store) = self.inc_store.as_mut() {
            let _ = store.record(id, inc);
        }
    }

    /// The current sim time as seen by the fabric.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The config in force.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
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
        self.truth.up.contains(&id)
    }

    /// A new appliance joins (initially up). It bootstraps from one
    /// random up introducer with a digest sync (the newcomer pulls the
    /// whole membership, the introducer learns it back and relays its
    /// record); everyone else hears through subsequent gossip.
    pub fn join(&mut self, advert: Advertisement) -> PeerId {
        let id = self.nodes.next_id();
        let mut node = NodeRuntime::new();
        node.table.upsert(PeerRecord::alive(id, advert, self.now));
        self.nodes.push(node);
        self.truth.join(id, self.now);
        let mut intros = std::mem::take(&mut self.scratch.introducers);
        intros.clear();
        intros.extend(self.truth.up.iter().copied().filter(|&p| p != id));
        let intro = (!intros.is_empty()).then(|| intros[self.rng.gen_range(0..intros.len())]);
        self.scratch.introducers = intros;
        if let Some(intro) = intro {
            self.digest_sync(id, intro);
        }
        id
    }

    /// Flips a peer's ground-truth liveness (driven by the churn
    /// schedule). Coming back up bumps the peer's incarnation past both
    /// its in-memory value and anything it ever persisted, so its
    /// re-announcement refutes every suspicion or death certificate
    /// circulating about it — including ones a crash made it forget.
    pub fn set_up(&mut self, id: PeerId, up: bool) {
        let Some(acc) = self.truth.uptime.get_mut(&id) else {
            return;
        };
        if up && !self.truth.up.contains(&id) {
            acc.up_since = Some(self.now);
            self.truth.up.insert(id);
            self.truth.open_down.remove(&id);
            let persisted = self.inc_store.as_ref().map_or(0, |s| s.get(id));
            let lambda = self.cfg.retransmit_factor;
            let node = self.nodes.get_mut(id).expect("joined peers have nodes");
            let mut me = node
                .table
                .get(id)
                .copied()
                .unwrap_or_else(|| PeerRecord::alive(id, Advertisement::default(), self.now));
            me.incarnation = me.incarnation.max(persisted) + 1;
            me.state = PeerState::Alive;
            me.updated_at = self.now;
            let new_inc = me.incarnation;
            node.table.upsert(me);
            // Amnesty epoch: silence observed while this node was
            // itself down is not evidence of anyone's death. Stale
            // suspicions restart from now — otherwise a rebooted
            // observer mass-suspects every peer it does not contact in
            // its first round back. Records
            // still held as Suspect are demoted back to Alive at the
            // same incarnation (direct upsert — merge precedence would
            // refuse a rank downgrade); any peer that really died
            // stays refutable, and fresher remote evidence re-wins on
            // the next merge.
            node.suspect_since.clear();
            let mut demoted = std::mem::take(&mut self.scratch.recs_a);
            demoted.clear();
            demoted.extend(
                node.table
                    .suspect_ids()
                    .iter()
                    .filter_map(|&p| node.table.get(p).copied()),
            );
            for rec in demoted.iter_mut() {
                rec.state = PeerState::Alive;
                node.table.upsert(*rec);
            }
            self.scratch.recs_a = demoted;
            enqueue_delta(node, id, lambda);
            self.persist_incarnation(id, new_inc);
            // Re-announce through EVERY up peer so the incarnation
            // bump outraces in-flight death declarations everywhere at
            // once — this broadcast, plus persisted incarnations, is
            // what closes the old "rejoin window" without a scoring
            // exemption. The first contact is a digest sync
            // so a crash-wiped table re-bootstraps the membership (and
            // learns of any circulating death certificate about
            // itself, triggering an immediate self-defense bump that
            // the remaining probes then spread).
            let mut intros = std::mem::take(&mut self.scratch.introducers);
            intros.clear();
            intros.extend(self.truth.up.iter().copied().filter(|&p| p != id));
            for (k, &target) in intros.iter().enumerate() {
                if k == 0 {
                    self.digest_sync(id, target);
                } else {
                    self.probe(id, target);
                }
            }
            self.scratch.introducers = intros;
        } else if !up && self.truth.up.remove(&id) {
            if let Some(since) = acc.up_since.take() {
                acc.total_up += self.now.saturating_since(since);
            }
            self.truth.open_down.insert(id, self.now);
        }
    }

    /// Re-announces `id`'s advertisement at a bumped incarnation while
    /// it stays up — the overload-control hook. A saturated appliance
    /// derates its advertised capacity
    /// ([`Advertisement::derated`]) so [`PeerView`] capacity ranking
    /// routes *new* work around it, then restores the full
    /// advertisement when the flash crowd passes. The incarnation bump
    /// is what makes the new advertisement win SWIM merge precedence
    /// on every observer — the exact mechanism rejoin refutation
    /// already uses, so no wire-format change is needed.
    ///
    /// No-op for peers that are down or never joined (a down peer's
    /// next `set_up` re-announces whatever its table holds).
    ///
    /// [`PeerView`]: crate::view::PeerView
    pub fn re_advertise(&mut self, id: PeerId, advert: Advertisement) {
        if !self.truth.up.contains(&id) {
            return;
        }
        let persisted = self.inc_store.as_ref().map_or(0, |s| s.get(id));
        let lambda = self.cfg.retransmit_factor;
        let Some(node) = self.nodes.get_mut(id) else {
            return;
        };
        let mut me = node
            .table
            .get(id)
            .copied()
            .unwrap_or_else(|| PeerRecord::alive(id, advert, self.now));
        me.incarnation = me.incarnation.max(persisted) + 1;
        me.state = PeerState::Alive;
        me.advert = advert;
        me.updated_at = self.now;
        let new_inc = me.incarnation;
        node.table.upsert(me);
        enqueue_delta(node, id, lambda);
        self.persist_incarnation(id, new_inc);
        // Push the update through every up peer immediately: an
        // overload signal that trickles out over many rounds arrives
        // after the crowd it was meant to deflect.
        let mut intros = std::mem::take(&mut self.scratch.introducers);
        intros.clear();
        intros.extend(self.truth.up.iter().copied().filter(|&p| p != id));
        for &target in intros.iter() {
            self.probe(id, target);
        }
        self.scratch.introducers = intros;
    }

    /// Convenience wrapper: re-announces `id` at `factor` of its
    /// *currently advertised* capacity. Escalating overload can call
    /// this repeatedly (the derating compounds); recovery should call
    /// [`Fabric::re_advertise`] with the appliance's full configured
    /// advertisement.
    pub fn derate(&mut self, id: PeerId, factor: f64) {
        let Some(current) = self
            .nodes
            .get(id)
            .and_then(|n| n.table.get(id))
            .map(|r| r.advert)
        else {
            return;
        };
        self.re_advertise(id, current.derated(factor));
    }

    /// Simulates a power-loss crash: the appliance goes down AND loses
    /// every piece of in-memory state — membership table, suspicion
    /// clocks, piggyback queue, its own incarnation. Only
    /// the advertisement survives (it is configuration, not runtime
    /// state). A later `set_up(id, true)` is then an *amnesiac*
    /// rejoin: with an attached [`IncarnationStore`] the peer resumes
    /// above every incarnation it ever announced; without one it
    /// restarts at 1 and must win the self-defense race against its
    /// own death certificates.
    pub fn crash(&mut self, id: PeerId) {
        self.set_up(id, false);
        let now = self.now;
        if let Some(node) = self.nodes.get_mut(id) {
            let advert = node.table.get(id).map(|r| r.advert).unwrap_or_default();
            let mut fresh = NodeRuntime::new();
            fresh.table.upsert(PeerRecord::alive(id, advert, now));
            *node = fresh;
        }
    }

    /// Advances the clock one protocol period and runs a gossip round
    /// for every up node. Returns the new sim time.
    pub fn tick(&mut self) -> SimTime {
        self.now += self.cfg.period;
        self.period_index += 1;
        let mut ids = std::mem::take(&mut self.scratch.ids);
        ids.clear();
        ids.extend(self.truth.up.iter().copied());
        for &id in &ids {
            if let Some(node) = self.nodes.get_mut(id) {
                node.table.touch_self(id, self.now);
            }
        }
        for &id in &ids {
            self.round_for(id);
        }
        let cutoff_periods = self.cfg.evict_after_periods as u64;
        let cutoff = SimTime::from_nanos(
            self.now
                .as_nanos()
                .saturating_sub(self.cfg.period.as_nanos().saturating_mul(cutoff_periods)),
        );
        for &id in &ids {
            if let Some(node) = self.nodes.get_mut(id) {
                node.table.evict_terminal_before(cutoff);
            }
        }
        self.scratch.ids = ids;
        self.now
    }

    /// Runs `n` ticks back to back.
    pub fn run_rounds(&mut self, n: u32) {
        for _ in 0..n {
            self.tick();
        }
    }

    fn round_for(&mut self, id: PeerId) {
        let Some(node) = self.nodes.get(id) else {
            return;
        };
        self.metrics.queue_depth.record(node.queue.len() as u64);
        // SWIM probes a single non-terminal acquaintance per protocol
        // period — deltas ride the ping and the ack, so dissemination
        // needs no extra contacts. The target is the k-th live id in
        // id order, the prober itself skipped.
        let live = node.table.live_ids();
        let me = live.binary_search(&id).ok();
        let others = live.len() - usize::from(me.is_some());
        let pick = (others > 0).then(|| {
            let k = self.rng.gen_range(0..others);
            (k, live[k + usize::from(me.is_some_and(|pos| k >= pos))])
        });
        #[cfg(test)]
        if self.audit_picks {
            let by_scan = candidates_by_scan(&node.table, id);
            assert_eq!(by_scan.len(), others);
            assert_eq!(
                pick.map(|(k, _)| by_scan[k]),
                pick.map(|(_, target)| target)
            );
        }
        if let Some((_, target)) = pick {
            let every = self.cfg.digest_sync_every.max(1);
            if self.period_index % every == id.0 % every {
                self.digest_sync(id, target);
            } else {
                // A down target doesn't answer; probe() suspects it on
                // the spot.
                self.probe(id, target);
            }
        }
        self.assess(id);
    }

    fn account_ping(&mut self, len: usize) {
        let payload = (len - wire::PING_HEADER_BYTES) as u64;
        self.stats.gossip_bytes += len as u64;
        self.stats.delta_bytes += payload;
        self.metrics.gossip_bytes.add(len as u64);
        self.metrics.delta_bytes.add(payload);
    }

    fn account_digest(&mut self, len: usize) {
        self.stats.gossip_bytes += len as u64;
        self.stats.digest_bytes += len as u64;
        self.metrics.gossip_bytes.add(len as u64);
        self.metrics.digest_bytes.add(len as u64);
    }

    /// One probe round-trip `a → b → a` with piggybacked deltas. An
    /// unanswered probe raises suspicion immediately: in a
    /// loss-free simulation the only reason a ping goes unanswered is
    /// that the target is really down.
    fn probe(&mut self, a: PeerId, b: PeerId) {
        let budget = self.cfg.piggyback_budget_bytes;
        let lambda = self.cfg.retransmit_factor;
        let mut msg = std::mem::take(&mut self.scratch.msg);
        let mut deltas = std::mem::take(&mut self.scratch.recs_a);
        let Some(node_a) = self.nodes.get_mut(a) else {
            self.scratch.msg = msg;
            self.scratch.recs_a = deltas;
            return;
        };
        let inc_a = encode_ping(node_a, a, wire::TAG_PING, budget, &mut msg, &mut deltas);
        self.account_ping(msg.len());
        self.stats.exchanges += 1;
        if !self.truth.up.contains(&b) {
            self.suspect_from_probe(a, b);
        } else {
            self.apply_ping(b, a, inc_a, &deltas, lambda);
            let node_b = self.nodes.get_mut(b).expect("up peers have nodes");
            let inc_b = encode_ping(node_b, b, wire::TAG_ACK, budget, &mut msg, &mut deltas);
            self.account_ping(msg.len());
            self.apply_ping(a, b, inc_b, &deltas, lambda);
        }
        self.scratch.msg = msg;
        self.scratch.recs_a = deltas;
    }

    /// Marks an unresponsive probe target suspect and queues the
    /// suspicion for dissemination.
    fn suspect_from_probe(&mut self, observer: PeerId, target: PeerId) {
        let now = self.now;
        let lambda = self.cfg.retransmit_factor;
        let Some(node) = self.nodes.get_mut(observer) else {
            return;
        };
        let alive = node
            .table
            .get(target)
            .is_some_and(|r| r.state == PeerState::Alive);
        if alive && node.table.set_state(target, PeerState::Suspect, now) {
            node.suspect_since.entry(target).or_insert(now);
            enqueue_delta(node, target, lambda);
        }
    }

    /// Ingests a ping/ack at `dst`: the header is a heartbeat for the
    /// sender, the piggybacked deltas merge under SWIM precedence.
    fn apply_ping(
        &mut self,
        dst: PeerId,
        sender: PeerId,
        sender_inc: u64,
        deltas: &[PeerRecord],
        lambda: u32,
    ) {
        let now = self.now;
        // Deltas merge BEFORE the header heartbeat. The header carries
        // only an incarnation; synthesizing an alive record from it
        // copies the advertisement we already hold, and doing that
        // first would let the copy win merge precedence over a
        // same-incarnation delta carrying the sender's *new*
        // advertisement (re-announced capacity would never propagate).
        for rec in deltas {
            self.apply_record(dst, *rec, lambda);
        }
        if let Some(node) = self.nodes.get_mut(dst) {
            // The header proves the sender alive at `sender_inc`. A
            // sender we have never heard of carries no advertisement,
            // so we wait for its record to arrive as a delta or digest
            // reply instead of fabricating one.
            if let Some(cur) = node.table.get(sender) {
                let fresher = sender_inc > cur.incarnation
                    || (sender_inc == cur.incarnation && cur.state != PeerState::Alive);
                if fresher {
                    let mut rec = *cur;
                    rec.state = PeerState::Alive;
                    rec.incarnation = sender_inc;
                    rec.updated_at = now;
                    node.table.upsert(rec);
                    enqueue_delta(node, sender, lambda);
                }
                node.suspect_since.remove(&sender);
            }
        }
    }

    /// Merges one gossiped record at `dst`, re-queuing it
    /// for relay when it changed the local belief. A record about
    /// `dst` itself triggers SWIM self-defense instead of a merge.
    fn apply_record(&mut self, dst: PeerId, rec: PeerRecord, lambda: u32) {
        let now = self.now;
        let Some(node) = self.nodes.get_mut(dst) else {
            return;
        };
        if rec.id == dst {
            // Someone believes something non-alive about me: refute by
            // bumping my incarnation past theirs (and persist the bump
            // so not even a crash can roll me back under it).
            let mut bumped = None;
            if rec.state != PeerState::Alive {
                let mut me = *node.table.get(dst).expect("self record");
                if rec.incarnation >= me.incarnation {
                    me.incarnation = rec.incarnation + 1;
                    me.state = PeerState::Alive;
                    me.updated_at = now;
                    node.table.upsert(me);
                    enqueue_delta(node, dst, lambda);
                    bumped = Some(me.incarnation);
                }
            }
            if let Some(inc) = bumped {
                self.persist_incarnation(dst, inc);
            }
            return;
        }
        if node.table.merge_record(&rec) {
            enqueue_delta(node, rec.id, lambda);
            match rec.state {
                // Grace runs from when the suspicion was *raised* (the
                // origin's timestamp), not from when it arrived here.
                PeerState::Suspect => {
                    node.suspect_since.entry(rec.id).or_insert(rec.updated_at);
                }
                _ => {
                    node.suspect_since.remove(&rec.id);
                }
            }
        }
    }

    /// Digest anti-entropy between `a` and `b`: swap per-peer
    /// `(id, incarnation, state)` summaries, then ship only the records
    /// each side is missing or holds stale.
    fn digest_sync(&mut self, a: PeerId, b: PeerId) {
        let lambda = self.cfg.retransmit_factor;
        let mut msg = std::mem::take(&mut self.scratch.msg);
        let Some(node_a) = self.nodes.get(a) else {
            self.scratch.msg = msg;
            return;
        };
        wire::begin_list(&mut msg, wire::TAG_DIGEST, a);
        for rec in node_a.table.iter() {
            wire::push_digest_entry(&mut msg, rec.id, rec.incarnation, rec.state);
        }
        self.account_digest(msg.len());
        self.stats.exchanges += 1;
        self.stats.digest_syncs += 1;
        self.metrics.digest_syncs.incr();
        if !self.truth.up.contains(&b) {
            self.suspect_from_probe(a, b);
            self.scratch.msg = msg;
            return;
        }
        let node_b = self.nodes.get(b).expect("up peers have nodes");
        wire::begin_list(&mut msg, wire::TAG_DIGEST, b);
        for rec in node_b.table.iter() {
            wire::push_digest_entry(&mut msg, rec.id, rec.incarnation, rec.state);
        }
        self.account_digest(msg.len());
        // Merge-join the two id-sorted tables: whatever one side holds
        // fresher (or exclusively) goes to the other.
        let mut send_to_b = std::mem::take(&mut self.scratch.recs_a);
        let mut send_to_a = std::mem::take(&mut self.scratch.recs_b);
        send_to_b.clear();
        send_to_a.clear();
        {
            let node_a = self.nodes.get(a).expect("checked above");
            let node_b = self.nodes.get(b).expect("checked above");
            let mut ia = node_a.table.iter().peekable();
            let mut ib = node_b.table.iter().peekable();
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
                            if fresher(ra, rb) {
                                send_to_b.push(**ra);
                            } else if fresher(rb, ra) {
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
                    (None, None) => break,
                }
            }
        }
        for (sender, recs) in [(a, &send_to_b), (b, &send_to_a)] {
            if !recs.is_empty() {
                wire::begin_list(&mut msg, wire::TAG_RECORDS, sender);
                for rec in recs.iter() {
                    wire::push_record(&mut msg, rec);
                }
                self.account_digest(msg.len());
            }
        }
        for &rec in &send_to_b {
            self.apply_record(b, rec, lambda);
        }
        for &rec in &send_to_a {
            self.apply_record(a, rec, lambda);
        }
        self.scratch.msg = msg;
        self.scratch.recs_a = send_to_b;
        self.scratch.recs_b = send_to_a;
    }

    /// Applies the failure detector for one observer: a suspect is
    /// declared dead once the grace period from the *origin* of the
    /// suspicion has passed.
    fn assess(&mut self, observer: PeerId) {
        let now = self.now;
        let grace = self
            .cfg
            .period
            .saturating_mul(self.cfg.suspect_periods as u64);
        let lambda = self.cfg.retransmit_factor;
        let mut to_kill = std::mem::take(&mut self.scratch.to_kill);
        to_kill.clear();
        if let Some(node) = self.nodes.get(observer) {
            for &id in node.table.suspect_ids() {
                if id == observer {
                    continue;
                }
                // A suspicion learned second-hand carries its origin
                // time on the record itself.
                let since = match node.suspect_since.get(&id) {
                    Some(&raised) => raised,
                    None => {
                        let rec = node.table.get(id).expect("suspect ids index records");
                        rec.updated_at
                    }
                };
                if now.saturating_since(since) >= grace {
                    to_kill.push(id);
                }
            }
        }
        for &id in &to_kill {
            let node = self.nodes.get_mut(observer).expect("observer exists");
            if node.table.set_state(id, PeerState::Dead, now) {
                node.suspect_since.remove(&id);
                enqueue_delta(node, id, lambda);
                self.score_declaration(id);
            }
        }
        self.scratch.to_kill = to_kill;
    }

    /// Scores one `Dead` declaration against ground truth: either the
    /// subject is genuinely down right now, or this is a false
    /// positive. There is no third category any more — rejoining peers
    /// resume above every circulating death certificate (persisted
    /// incarnations + the rejoin broadcast), so a declaration landing
    /// after its subject came back is a detector bug, not an artifact
    /// to excuse.
    fn score_declaration(&mut self, subject: PeerId) {
        if let Some(&down_at) = self.truth.open_down.get(&subject) {
            let latency_ms = self.now.saturating_since(down_at).as_millis_f64();
            self.stats.true_detections += 1;
            self.stats.detection_latency_ms.push(latency_ms);
            self.metrics.latency_ms.record(latency_ms.round() as u64);
        } else {
            self.stats.false_positives += 1;
            self.metrics.false_positive.incr();
        }
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
            .table
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
            .get(&id)
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
            .iter()
            .map(|&id| {
                let set: BTreeSet<PeerId> = self.nodes[id].table.alive_ids().into_iter().collect();
                (id, set)
            })
            .collect()
    }

    /// The `id → incarnation` map of peers one up node believes alive
    /// (empty for unknown or down observers) — the witness the
    /// convergence property compares against the churn schedule.
    pub fn alive_incarnations(&self, observer: PeerId) -> BTreeMap<PeerId, u64> {
        if !self.truth.up.contains(&observer) {
            return BTreeMap::new();
        }
        self.nodes[observer]
            .table
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
fn candidates_by_scan(table: &MembershipTable, prober: PeerId) -> Vec<PeerId> {
    table
        .iter()
        .filter(|r| r.id != prober && !matches!(r.state, PeerState::Dead | PeerState::Left))
        .map(|r| r.id)
        .collect()
}

/// SWIM freshness order: does `x` carry strictly newer knowledge than
/// `y` about the same peer?
fn fresher(x: &PeerRecord, y: &PeerRecord) -> bool {
    x.incarnation > y.incarnation
        || (x.incarnation == y.incarnation && x.state.rank() > y.state.rank())
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn derated_peer_is_demoted_by_capacity_ranking() {
        use crate::view::RankBy;
        let mut f = fabric_of(8);
        f.run_rounds(8);
        let overloaded = PeerId(5);
        let observer = PeerId(0);
        let before = f.view(observer).ranked(RankBy::Capacity);
        assert!(before.contains(&overloaded));

        // The saturated appliance re-announces at 10% capacity; the
        // incarnation bump makes it win merge precedence everywhere.
        f.derate(overloaded, 0.1);
        f.run_rounds(8);
        let ranked = f.view(observer).ranked(RankBy::Capacity);
        assert_eq!(
            ranked.last(),
            Some(&overloaded),
            "derated peer should sink to the bottom of capacity ranking"
        );
        assert!(
            ranked.contains(&overloaded),
            "derated, not dead: it stays selectable"
        );
        let seen = f.view(observer);
        let entry = seen.entries().iter().find(|e| e.id == overloaded).unwrap();
        assert!((entry.advert.uplink_mbps - 100.0).abs() < 1e-6);

        // Recovery restores the full advertisement and the ranking.
        f.re_advertise(overloaded, Advertisement::default());
        f.run_rounds(8);
        let seen = f.view(observer);
        let entry = seen.entries().iter().find(|e| e.id == overloaded).unwrap();
        assert!((entry.advert.uplink_mbps - 1000.0).abs() < 1e-6);
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
        let budget = FabricConfig::default().piggyback_budget_bytes;
        let mut node = NodeRuntime::new();
        for i in 0..40u64 {
            let rec = PeerRecord::alive(PeerId(i), Advertisement::default(), SimTime::ZERO);
            node.table.upsert(rec);
            enqueue_delta(&mut node, PeerId(i), 3);
        }
        let mut msg = Vec::new();
        let mut deltas = Vec::new();
        encode_ping(
            &mut node,
            PeerId(0),
            wire::TAG_PING,
            budget,
            &mut msg,
            &mut deltas,
        );
        assert!(msg.len() <= budget, "{} > {budget}", msg.len());
        let max_deltas = (budget - wire::PING_HEADER_BYTES) / wire::RECORD_BYTES;
        assert_eq!(deltas.len(), max_deltas);
        assert!(!node.queue.is_empty(), "unsent deltas stay queued");
    }

    #[test]
    fn retransmit_limit_scales_with_log_n() {
        assert_eq!(retransmit_limit(3, 2), 3);
        assert_eq!(retransmit_limit(3, 16), 12);
        assert_eq!(retransmit_limit(3, 100), 21);
        assert_eq!(retransmit_limit(3, 0), 3); // clamped to n=2
        assert_eq!(retransmit_limit(0, 100), 1); // at least one send
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
        f.run_rounds(2 * FabricConfig::default().digest_sync_every as u32);
        for (id, alive) in f.alive_sets_of_up_nodes() {
            assert!(alive.contains(&newcomer), "node {id} missing {newcomer}");
        }
    }

    #[test]
    fn delta_and_digest_bytes_are_split_out() {
        let mut f = fabric_of(10);
        f.set_up(PeerId(4), false);
        f.run_rounds(2 * FabricConfig::default().digest_sync_every as u32);
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
        for id in &f.truth.up {
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
            feed(node.table.len() as u64);
            for r in node.table.iter() {
                feed(r.id.0);
                feed(u64::from(r.state.rank()));
                feed(r.incarnation);
                feed(r.advert.storage_bytes);
                feed(r.advert.uplink_mbps.to_bits());
                feed(u64::from(r.advert.cache_slots));
                feed(r.advert.rtt_ms.to_bits());
                feed(r.updated_at.as_nanos());
            }
            feed(node.suspect_since.len() as u64);
            for (p, at) in &node.suspect_since {
                feed(p.0);
                feed(at.as_nanos());
            }
            feed(node.queue.len() as u64);
            for &(p, credit) in &node.queue {
                feed(p.0);
                feed(u64::from(credit));
            }
        }
        h
    }

    /// The whole observable state after a seeded n = 256 run is frozen:
    /// paper-preset churn, a power-loss crash with an amnesiac rejoin,
    /// a derate and its recovery, three digest-sync cycles and
    /// tombstone eviction (a short `evict_after_periods` so churners'
    /// longer downtimes outlive their tombstones). The constant was
    /// captured on the tick that walked every table three times per
    /// node; a tick that draws a different probe target, declares in a
    /// different order or evicts at a different period cannot
    /// reproduce it. Every pick is also re-derived by that walk
    /// (`audit_picks`), and every table's indices are checked against
    /// its records after every period — which covers the two callers
    /// that bypass merge precedence: `set_up`'s amnesty downgrade and
    /// `crash()`'s wholesale table replacement.
    #[test]
    fn tick_frozen() {
        use hpop_netsim::churn::{ChurnConfig, ChurnSchedule};
        const N: usize = 256;
        const SECS: u64 = 400;
        let horizon = SimTime::from_secs(SECS);
        let churn = ChurnSchedule::generate(N, ChurnConfig::paper_preset(0x601d), horizon);
        let mut f = Fabric::new(FabricConfig {
            evict_after_periods: 100,
            seed: 0x601d,
            ..FabricConfig::default()
        });
        for i in 0..N {
            f.join(Advertisement {
                rtt_ms: 2.0 + (i % 7) as f64 * 3.0,
                ..Advertisement::default()
            });
        }
        f.audit_picks = true;
        // Two peers the schedule never touches, so the scripted events
        // below are the only transitions they see.
        let mut stable = (0..N)
            .filter(|&i| churn.uptime_fraction(i, horizon) >= 1.0)
            .map(|i| PeerId(i as u64));
        let (crashed, derated) = (stable.next().unwrap(), stable.next().unwrap());
        for s in 0..SECS {
            for ev in churn.transitions_in(SimTime::from_secs(s), SimTime::from_secs(s + 1)) {
                f.set_up(PeerId(ev.node as u64), ev.up);
            }
            match s {
                100 => f.crash(crashed),
                160 => f.set_up(crashed, true), // no store: amnesiac rejoin
                200 => f.derate(derated, 0.25),
                260 => f.re_advertise(derated, Advertisement::default()),
                _ => {}
            }
            f.tick();
            for (_, node) in f.nodes.iter() {
                node.table.assert_indices_match_records(false);
            }
        }
        let s = f.stats();
        assert!(s.digest_syncs as usize >= 3 * N, "three digest cycles");
        assert!(s.true_detections > 0 && s.false_positives == 0);
        let tombstones_evicted = (0..N as u64)
            .filter(|&i| !f.is_up(PeerId(i)))
            .any(|i| f.nodes[crashed].table.get(PeerId(i)).is_none());
        assert!(tombstones_evicted, "the run must exercise eviction");
        assert_eq!(state_digest(&f), 0x5474_2723_8d65_ac9c);
    }

    /// Membership at the scale of a city block. Release-only (CI runs
    /// `cargo test --release -p hpop-fabric -- --ignored`): seconds
    /// optimised, minutes not.
    ///
    /// The bound is 500 rounds, not the proptests'
    /// `convergence_budget`: a fresh suspicion queues FIFO behind up
    /// to `QUEUE_CAP` join deltas still being retransmitted, so the
    /// last observer hears of the death hundreds of rounds late (see
    /// ROADMAP, "suspicion queues behind join deltas").
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

    #[test]
    fn unknown_observer_views_nothing() {
        let f = fabric_of(3);
        assert!(f.view(PeerId(99)).is_empty());
    }
}

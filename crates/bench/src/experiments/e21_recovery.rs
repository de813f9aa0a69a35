//! E21 — recovery: crash-consistent durability across the stack.
//!
//! Three legs, all on deterministic counters (no wall clock), so the
//! committed `BENCH_recovery.json` is byte-identical across `--stable`
//! runs:
//!
//! - **E21a** — recovery cost vs snapshot cadence: how many WAL ops a
//!   restart replays, and how many bytes it reads off the device, as a
//!   function of `snapshot_every_ops` over a fixed workload.
//! - **E21b** — settlement durability under the E20 chaos preset: the
//!   same crash schedule that drives the chaos experiment power-cuts
//!   NoCDN providers mid-I/O. After every recovery each acked
//!   settlement is re-uploaded and must bounce as a replay.
//! - **E21c** — fabric rejoin without the detector exemption: graceful
//!   leaves, amnesiac crashes, and crashes with a persisted
//!   [`IncarnationStore`] all reconverge with zero false positives —
//!   there is no "rejoin window" to excuse anymore.
//!
//! Headline counters (enforced by `check_snapshot --budget`):
//!
//! - `recovery.committed.survived_bp >= 10000` — every acked settlement
//!   survives every crash (basis points; 10000 = 100%).
//! - `recovery.replayed_nonce.accepted <= 0` — a recovered provider
//!   never double-credits a replayed record.
//! - `recovery.fabric.false_positives <= 0` — rejoins across all three
//!   modes score no detector false positives.
//! - `recovery.replay.ops` / `recovery.replay.bytes` — ceilings on the
//!   replay work of the snapshot-cadence-256 recovery leg.
//! - `recovery.settle.max_replay_ops` — a ceiling on the ops any one
//!   E21b recovery replays, however often its provider crashed.

use crate::experiments::e20_chaos::standard_mixes;
use crate::table::Table;
use hpop_crypto::nonce::Nonce;
use hpop_durability::{wire, DurabilityConfig, Journal, Machine};
use hpop_fabric::{Advertisement, Fabric, FabricConfig, IncarnationStore};
use hpop_netsim::faults::FaultPlan;
use hpop_netsim::storage::SimDisk;
use hpop_netsim::time::SimTime;
use hpop_nocdn::accounting::RejectReason;
use hpop_nocdn::durable::DurableAccounting;
use hpop_nocdn::peer::PeerId as NoCdnPeerId;
use hpop_nocdn::UsageRecord;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------- E21a

/// Minimal keyed-counter service: just enough state for the recovery
/// machine to have something to snapshot and replay, with op and
/// snapshot sizes that are easy to reason about.
#[derive(Clone, Debug, Default)]
struct KvState {
    map: BTreeMap<u64, u64>,
}

wire! { struct KvState { map } }

impl Machine for KvState {
    type Op = (u64, u64);
    type Outcome = ();

    fn run(&mut self, (k, v): (u64, u64)) {
        self.map.insert(k, v);
    }
}

/// What one clean-shutdown-free restart cost at a given cadence.
pub struct ReplayCost {
    /// `snapshot_every_ops` used for the run (0 = never snapshot).
    pub snapshot_every: u64,
    /// Ops committed before the power cut.
    pub ops: u64,
    /// `through_seq` of the snapshot recovery started from.
    pub snapshot_through: u64,
    /// Committed WAL ops replayed on top of it.
    pub ops_replayed: u64,
    /// Bytes read off the device during recovery.
    pub bytes_read: u64,
}

/// Commits `ops` keyed-counter writes at the given snapshot cadence,
/// cuts power, restarts, and reports what recovery had to do.
pub fn replay_cost(ops: u64, snapshot_every: u64, seed: u64) -> ReplayCost {
    let cfg = DurabilityConfig {
        snapshot_every_ops: snapshot_every,
        ..DurabilityConfig::default()
    };
    let mut store: Journal<KvState> =
        Journal::open(SimDisk::new(seed), "kv", cfg).expect("fresh open");
    for i in 0..ops {
        store.run((i % 97, i)).expect("no faults armed");
    }
    let mut disk = store.into_disk();
    disk.restart();
    let store: Journal<KvState> = Journal::open(disk, "kv", cfg).expect("recovery");
    let rec = store.last_recovery();
    ReplayCost {
        snapshot_every,
        ops,
        snapshot_through: rec.snapshot_through,
        ops_replayed: rec.ops_replayed,
        bytes_read: rec.bytes_read,
    }
}

/// E21a — replay work after a restart, per snapshot cadence. The
/// cadence-256 row publishes the budget-enforced `recovery.replay.*`
/// ceilings.
pub fn replay_cost_table(ops: u64, seed: u64) -> Table {
    let mut t = Table::new(
        "E21a",
        format!("recovery replay cost vs snapshot cadence ({ops} committed ops)"),
        &[
            "snapshot every",
            "ops",
            "snapshot seq",
            "ops replayed",
            "recovery bytes read",
        ],
    );
    let metrics = hpop_obs::metrics();
    for every in [0u64, 64, 256, 1024] {
        let r = replay_cost(ops, every, seed);
        if every == 256 {
            metrics.counter("recovery.replay.ops").add(r.ops_replayed);
            metrics.counter("recovery.replay.bytes").add(r.bytes_read);
        }
        t.push(vec![
            if every == 0 {
                "never".into()
            } else {
                every.to_string()
            },
            r.ops.to_string(),
            r.snapshot_through.to_string(),
            r.ops_replayed.to_string(),
            r.bytes_read.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------- E21b

/// One provider appliance: a live accounting process, or powered-off
/// platters waiting for the crash window to end.
enum Slot {
    Up(Box<DurableAccounting>),
    Down(SimDisk),
}

/// Outcome of one settlement-durability run (one fault mix).
#[derive(Clone, Debug, Default)]
pub struct SettleChaosResult {
    /// Settlements acked (`execute` returned `Ok`) before any crash.
    pub acked: u64,
    /// Power cuts taken mid-I/O.
    pub crashes: u64,
    /// Recoveries (crash windows that ended inside the horizon).
    pub recoveries: u64,
    /// Replay probes: acked records re-uploaded after a recovery.
    pub probes: u64,
    /// Probes correctly bounced as [`RejectReason::Replay`].
    pub replays_rejected: u64,
    /// Probes *accepted* — a double credit. Must stay zero.
    pub replays_accepted: u64,
    /// Probes bounced for any other reason (lost issuance state).
    pub other_rejects: u64,
    /// Recoveries whose payable-bytes totals disagreed with the acked
    /// history. Must stay zero.
    pub payable_mismatches: u64,
    /// WAL ops replayed across all recoveries.
    pub replay_ops: u64,
    /// Most WAL ops any one recovery replayed.
    pub max_replay_ops: u64,
    /// Bytes read off devices across all recoveries.
    pub replay_bytes: u64,
}

impl SettleChaosResult {
    /// Acked-settlement survival in basis points (10000 = 100%): the
    /// fraction of replay probes that were correctly rejected. Vacuously
    /// 10000 when the mix produced no recoveries to probe.
    pub fn survived_bp(&self) -> u64 {
        if self.probes == 0 {
            return 10_000;
        }
        self.replays_rejected * 10_000 / self.probes
    }
}

/// Drives `n` durable accounting providers for `secs` sim-seconds under
/// `plan`'s crash schedule. Every second each up provider issues a
/// short-term key and settles one signed usage record (acked = durable).
/// When the plan crashes a node, power is cut *mid-append* — the armed
/// [`SimDisk`] tears whatever I/O step is in flight. When the window
/// ends the provider recovers and every previously acked record is
/// re-uploaded: each must bounce as a replay, and per-peer payable
/// bytes must match the acked history exactly.
///
/// When `headline` is set the run publishes the budget-enforced
/// `recovery.committed.survived_bp` and `recovery.replayed_nonce.accepted`
/// counters — only one mix per process may claim them.
pub fn run_settlement_chaos(
    n: usize,
    secs: u64,
    plan: &FaultPlan,
    seed: u64,
    headline: bool,
) -> SettleChaosResult {
    const MASTER: [u8; 32] = [0x5e; 32];
    let cfg = DurabilityConfig {
        max_segment_bytes: 16 * 1024,
        snapshot_every_ops: 128,
    };
    let mut slots: Vec<Slot> = (0..n)
        .map(|i| {
            let disk = SimDisk::new(seed.wrapping_add(i as u64).wrapping_mul(0x9e37));
            Slot::Up(Box::new(
                DurableAccounting::open(disk, "acct", cfg).expect("fresh open"),
            ))
        })
        .collect();
    let mut acked: Vec<Vec<UsageRecord>> = vec![Vec::new(); n];
    let mut expected: Vec<BTreeMap<NoCdnPeerId, u64>> = vec![BTreeMap::new(); n];
    let mut res = SettleChaosResult::default();
    // Continuous SLO: payable-bytes mismatches found during recoveries
    // must sum to zero in every closed window, evaluated as sim time
    // advances — not just once at the end. Only the headline mix feeds
    // the (global) series so the three mixes' overlapping sim clocks
    // don't pollute each other.
    const SLO_WINDOW_US: u64 = 60_000_000;
    let mismatch_series = headline
        .then(|| hpop_obs::series_registry().series("recovery.payable.mismatch", SLO_WINDOW_US));
    let mut slo = headline.then(|| {
        let mut m = hpop_obs::SloMonitor::new(hpop_obs::series_registry().clone());
        m.add(hpop_obs::SloSpec {
            name: "recovery.payable-mismatch".into(),
            kind: hpop_obs::SloKind::ZeroSum {
                series: "recovery.payable.mismatch".into(),
            },
        });
        m
    });
    // Clients used for the ops a power cut tears away, kept disjoint
    // from the workload's so a committed-but-unacked issuance (legal:
    // at most one per crash) can never skew the payable accounting.
    let mut torn_client = u64::MAX;

    for t in 0..secs {
        let now = SimTime::from_secs(t);
        for node in 0..n {
            let crashed = !plan.is_up(node, now);
            match (&mut slots[node], crashed) {
                (Slot::Up(acct), true) => {
                    // Power cut: arm the device a few steps ahead (the
                    // offset walks the crash point across the WAL
                    // appends and snapshot I/O) and keep issuing into
                    // it until an op tears.
                    let at = acct.disk().steps() + 1 + t % 5;
                    acct.disk_mut().arm_crash(at);
                    let peer = NoCdnPeerId((t % 3) as u32 + 1);
                    while acct.issue(torn_client, peer, 1, &MASTER).is_ok() {
                        torn_client -= 1;
                    }
                    res.crashes += 1;
                    let slot = std::mem::replace(&mut slots[node], Slot::Down(SimDisk::new(0)));
                    let Slot::Up(acct) = slot else { unreachable!() };
                    slots[node] = Slot::Down(acct.into_disk());
                }
                (Slot::Down(_), false) => {
                    let slot = std::mem::replace(&mut slots[node], Slot::Down(SimDisk::new(0)));
                    let Slot::Down(mut disk) = slot else {
                        unreachable!()
                    };
                    disk.restart();
                    let mut acct =
                        Box::new(DurableAccounting::open(disk, "acct", cfg).expect("recovery"));
                    res.recoveries += 1;
                    res.replay_ops += acct.last_recovery().ops_replayed;
                    res.max_replay_ops = res.max_replay_ops.max(acct.last_recovery().ops_replayed);
                    res.replay_bytes += acct.last_recovery().bytes_read;
                    // Every record this provider ever acked is
                    // re-uploaded — the at-most-once contract says each
                    // must bounce as a replay, never double-credit.
                    for rec in &acked[node] {
                        res.probes += 1;
                        match acct.settle(rec).expect("no fault armed during probe") {
                            Err(RejectReason::Replay) => res.replays_rejected += 1,
                            Ok(()) => res.replays_accepted += 1,
                            Err(_) => res.other_rejects += 1,
                        }
                    }
                    let intact = expected[node]
                        .iter()
                        .all(|(peer, want)| acct.accounting().payable_bytes(*peer) == *want);
                    if !intact {
                        res.payable_mismatches += 1;
                    }
                    if let Some(s) = &mismatch_series {
                        s.record(now.as_nanos() / 1_000, u64::from(!intact));
                    }
                    slots[node] = Slot::Up(acct);
                }
                (Slot::Up(acct), false) => {
                    // Normal service: one issuance + one settlement.
                    let client = ((node as u64) << 32) | t;
                    let peer = NoCdnPeerId((t % 3) as u32 + 1);
                    let bytes = 600 + (t % 5) * 100;
                    let key = acct.issue(client, peer, bytes, &MASTER).expect("up disk");
                    let rec =
                        UsageRecord::sign(&key, peer, client, bytes, 1, Nonce(client as u128));
                    let verdict = acct.settle(&rec).expect("up disk");
                    assert_eq!(verdict, Ok(()), "fresh nonce within issued work");
                    res.acked += 1;
                    acked[node].push(rec);
                    *expected[node].entry(peer).or_insert(0) += bytes;
                }
                (Slot::Down(_), true) => {}
            }
        }
        if let Some(m) = &mut slo {
            m.poll(SimTime::from_secs(t + 1).as_nanos() / 1_000);
        }
    }

    if headline {
        let metrics = hpop_obs::metrics();
        metrics
            .counter("recovery.committed.survived_bp")
            .add(res.survived_bp());
        metrics
            .counter("recovery.replayed_nonce.accepted")
            .add(res.replays_accepted);
        metrics.counter("recovery.settle.probes").add(res.probes);
        if let Some(mut m) = slo {
            m.finish(SimTime::from_secs(secs).as_nanos() / 1_000);
            metrics
                .counter("slo.breach.windows")
                .add(m.breaches().len() as u64);
            metrics
                .counter("slo.windows.evaluated")
                .add(m.windows_evaluated());
            crate::harness::stash_slo_breaches(m.breaches().to_vec());
        }
    }
    res
}

/// E21b — settlement durability per fault mix (the E20 mixes: quiet
/// baseline, crash/restart schedule, full chaos preset). The chaos row
/// claims the budget-enforced headline counters, and the most ops any
/// one recovery of any mix replayed is the budget-enforced
/// `recovery.settle.max_replay_ops`: a provider that restarts more
/// often than its snapshot cadence must still snapshot, so no recovery
/// replays the whole history.
pub fn settlement_table(n: usize, secs: u64, seed: u64) -> Table {
    let mut t = Table::new(
        "E21b",
        format!("settlement durability under power cuts ({n} providers, {secs} s)"),
        &[
            "fault mix",
            "acked",
            "crashes",
            "recoveries",
            "replay probes",
            "replays accepted",
            "survived (bp)",
            "payable mismatches",
            "replayed ops",
            "recovery bytes",
        ],
    );
    let horizon = SimTime::from_secs(secs);
    let mut max_replay_ops = 0;
    for m in standard_mixes(n, horizon, seed) {
        let r = run_settlement_chaos(n, secs, &m.plan, seed, m.name == "chaos");
        max_replay_ops = max_replay_ops.max(r.max_replay_ops);
        t.push(vec![
            m.name.to_string(),
            r.acked.to_string(),
            r.crashes.to_string(),
            r.recoveries.to_string(),
            r.probes.to_string(),
            r.replays_accepted.to_string(),
            r.survived_bp().to_string(),
            r.payable_mismatches.to_string(),
            r.replay_ops.to_string(),
            r.replay_bytes.to_string(),
        ]);
    }
    hpop_obs::metrics()
        .counter("recovery.settle.max_replay_ops")
        .add(max_replay_ops);
    t
}

// ---------------------------------------------------------------- E21c

/// How the victim node leaves and returns in the fabric leg.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejoinMode {
    /// Clean down/up: the node keeps its in-memory incarnation.
    Graceful,
    /// [`Fabric::crash`] with no store: full amnesia, recovery rides on
    /// the rejoin bootstrap digest + self-defense bump alone.
    CrashAmnesia,
    /// [`Fabric::crash`] with an attached [`IncarnationStore`]: the
    /// persisted incarnation lets the node rejoin above every stale
    /// death certificate immediately. The store itself is power-cycled
    /// mid-run to prove the NVRAM survives too.
    CrashPersisted,
}

impl RejoinMode {
    fn label(self) -> &'static str {
        match self {
            RejoinMode::Graceful => "graceful leave",
            RejoinMode::CrashAmnesia => "crash (amnesia)",
            RejoinMode::CrashPersisted => "crash (persisted inc)",
        }
    }
}

/// Outcome of one fabric-rejoin run.
pub struct FabricRecoveryResult {
    /// Down/up cycles driven.
    pub cycles: u32,
    /// Death declarations matching real downtime.
    pub true_detections: u64,
    /// Declarations against an up peer — must stay zero, with no
    /// rejoin-window exemption to hide behind.
    pub false_positives: u64,
    /// Every up node ends agreeing on the full membership.
    pub converged: bool,
    /// The victim's incarnation as the rest of the fabric sees it.
    pub victim_incarnation: u64,
}

/// Cycles one victim node down and back `cycles` times in an
/// `n`-appliance fabric, using `mode`'s leave/return semantics, and
/// reports detector accuracy.
pub fn run_fabric_recovery(
    n: usize,
    cycles: u32,
    mode: RejoinMode,
    seed: u64,
) -> FabricRecoveryResult {
    let mut f = Fabric::new(FabricConfig { seed });
    for i in 0..n {
        f.join(Advertisement {
            rtt_ms: 2.0 + (i % 5) as f64 * 3.0,
            ..Advertisement::default()
        });
    }
    if mode == RejoinMode::CrashPersisted {
        let store = IncarnationStore::open(
            SimDisk::new(seed ^ 0x1c),
            "inc",
            DurabilityConfig::default(),
        )
        .expect("fresh store");
        f.attach_incarnation_store(store);
    }
    f.run_rounds(20);
    let victim = hpop_fabric::PeerId((n / 2) as u64);
    for c in 0..cycles {
        match mode {
            RejoinMode::Graceful => f.set_up(victim, false),
            _ => f.crash(victim),
        }
        f.run_rounds(30);
        if mode == RejoinMode::CrashPersisted && c == cycles / 2 {
            // Power-cycle the NVRAM itself: the persisted incarnations
            // must come back off the platters.
            let store = f.take_incarnation_store().expect("attached above");
            let mut disk = store.into_disk();
            disk.restart();
            let store = IncarnationStore::open(disk, "inc", DurabilityConfig::default())
                .expect("store recovery");
            f.attach_incarnation_store(store);
        }
        f.set_up(victim, true);
        f.run_rounds(10);
    }
    f.run_rounds(20);

    let truth: BTreeSet<hpop_fabric::PeerId> =
        (0..n).map(|i| hpop_fabric::PeerId(i as u64)).collect();
    let converged = f
        .alive_sets_of_up_nodes()
        .iter()
        .all(|(_, alive)| alive == &truth);
    let victim_incarnation = f
        .alive_incarnations(hpop_fabric::PeerId(0))
        .get(&victim)
        .copied()
        .unwrap_or(0);
    FabricRecoveryResult {
        cycles,
        true_detections: f.stats().true_detections,
        false_positives: f.stats().false_positives,
        converged,
        victim_incarnation,
    }
}

/// E21c — detector accuracy across rejoin modes. All three rows feed
/// the budget-enforced `recovery.fabric.false_positives` counter.
pub fn fabric_table(n: usize, cycles: u32, seed: u64) -> Table {
    let mut t = Table::new(
        "E21c",
        format!("fabric rejoin accuracy without the rejoin-window exemption ({n} nodes, {cycles} cycles)"),
        &[
            "rejoin mode",
            "cycles",
            "true detections",
            "false positives",
            "converged",
            "victim incarnation",
        ],
    );
    let metrics = hpop_obs::metrics();
    for mode in [
        RejoinMode::Graceful,
        RejoinMode::CrashAmnesia,
        RejoinMode::CrashPersisted,
    ] {
        let r = run_fabric_recovery(n, cycles, mode, seed);
        metrics
            .counter("recovery.fabric.false_positives")
            .add(r.false_positives);
        metrics
            .counter("recovery.fabric.true_detections")
            .add(r.true_detections);
        t.push(vec![
            mode.label().to_string(),
            r.cycles.to_string(),
            r.true_detections.to_string(),
            r.false_positives.to_string(),
            if r.converged { "yes" } else { "NO" }.to_string(),
            r.victim_incarnation.to_string(),
        ]);
    }
    t
}

/// Default-scale run (the committed artifact).
pub fn run_default() -> Vec<Table> {
    vec![
        replay_cost_table(2000, 0xe21d),
        settlement_table(10, 600, 0xe21d),
        fabric_table(16, 12, 0xe21d),
    ]
}

/// Reduced scale for CI smoke runs.
pub fn run_smoke() -> Vec<Table> {
    vec![
        replay_cost_table(200, 0xe21d),
        settlement_table(6, 150, 0xe21d),
        fabric_table(8, 4, 0xe21d),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_netsim::faults::FaultConfig;

    #[test]
    fn replay_cost_shrinks_with_snapshot_cadence() {
        let never = replay_cost(500, 0, 3);
        assert_eq!(never.ops_replayed, 500, "no snapshot: replay everything");
        assert_eq!(never.snapshot_through, 0);
        let often = replay_cost(500, 64, 3);
        assert!(often.snapshot_through > 0);
        assert!(often.ops_replayed < 64);
        assert!(often.bytes_read < never.bytes_read);
    }

    /// The committed-artifact scale: the chaos preset actually crashes
    /// providers, every acked settlement survives, and no replayed
    /// nonce is ever double-credited.
    #[test]
    fn settlement_survives_the_chaos_preset() {
        let plan = FaultPlan::generate(
            10,
            FaultConfig::chaos_preset(0xe21d),
            SimTime::from_secs(600),
        );
        let r = run_settlement_chaos(10, 600, &plan, 0xe21d, false);
        assert!(r.crashes > 0, "chaos preset must power-cut providers");
        assert!(r.recoveries > 0, "crash windows must end inside horizon");
        assert!(r.probes > 0, "recoveries must probe acked records");
        assert_eq!(r.replays_accepted, 0, "double credit");
        assert_eq!(r.other_rejects, 0, "lost issuance state");
        assert_eq!(r.payable_mismatches, 0);
        assert_eq!(r.survived_bp(), 10_000);
    }

    #[test]
    fn settlement_chaos_is_deterministic() {
        let plan = FaultPlan::generate(
            6,
            FaultConfig::chaos_preset(0x5eed),
            SimTime::from_secs(150),
        );
        let a = run_settlement_chaos(6, 150, &plan, 0x5eed, false);
        let b = run_settlement_chaos(6, 150, &plan, 0x5eed, false);
        assert_eq!(a.acked, b.acked);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.replay_bytes, b.replay_bytes);
    }

    /// Replay at scale: thousands of settled records survive a power
    /// cut, and the recovered NonceRegistry bounces the *entire* acked
    /// history — replayed three full passes — without double-crediting
    /// a byte. Settle is idempotent across repeated recovery, not just
    /// for the single probe pass the chaos run performs.
    #[test]
    fn nonce_registry_replay_at_scale_is_idempotent() {
        const MASTER: [u8; 32] = [0x1d; 32];
        const RECORDS: u64 = 2_000;
        let cfg = DurabilityConfig {
            max_segment_bytes: 64 * 1024,
            snapshot_every_ops: 256,
        };
        let disk = SimDisk::new(0x5ca1e);
        let mut acct = DurableAccounting::open(disk, "acct", cfg).expect("fresh open");
        let mut acked = Vec::new();
        for i in 0..RECORDS {
            let peer = NoCdnPeerId((i % 7) as u32);
            let bytes = 500 + i % 900;
            let key = acct.issue(i, peer, bytes, &MASTER).expect("issue");
            let rec = UsageRecord::sign(&key, peer, i, bytes, 1, Nonce(i as u128));
            assert_eq!(acct.settle(&rec).expect("settle"), Ok(()));
            acked.push(rec);
        }
        let payable: Vec<u64> = (0..7)
            .map(|p| acct.accounting().payable_bytes(NoCdnPeerId(p)))
            .collect();

        // Two crash/recover cycles; after each, the full history is
        // replayed multiple times.
        for cycle in 0..2 {
            let mut disk = acct.into_disk();
            disk.restart();
            acct = DurableAccounting::open(disk, "acct", cfg).expect("recovery");
            for pass in 0..3 {
                for rec in &acked {
                    assert_eq!(
                        acct.settle(rec).expect("probe"),
                        Err(RejectReason::Replay),
                        "cycle {cycle} pass {pass} double-credited"
                    );
                }
            }
            for (p, want) in payable.iter().enumerate() {
                assert_eq!(
                    acct.accounting().payable_bytes(NoCdnPeerId(p as u32)),
                    *want,
                    "cycle {cycle}: payable drifted for peer {p}"
                );
            }
        }
    }

    #[test]
    fn all_rejoin_modes_are_false_positive_free() {
        for mode in [
            RejoinMode::Graceful,
            RejoinMode::CrashAmnesia,
            RejoinMode::CrashPersisted,
        ] {
            let r = run_fabric_recovery(10, 4, mode, 0xfab);
            assert_eq!(r.false_positives, 0, "{mode:?} scored a false positive");
            assert!(r.true_detections > 0, "{mode:?} downtime went undetected");
            assert!(r.converged, "{mode:?} failed to reconverge");
            assert!(r.victim_incarnation >= 4, "{mode:?} incarnation too low");
        }
    }
}

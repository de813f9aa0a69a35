//! E23 — the attic's WebDAV surface: adapter parity, daemon
//! throughput, and lifecycle reclamation.
//!
//! The ports-and-adapters refactor claims the netsim attic and the
//! real-socket `attic-daemon` are the same server. This experiment
//! holds that to account three ways:
//!
//! - **E23a** runs the WebDAV conformance suite (every verb, PROPFIND
//!   at all depths, version listing, preconditions) through both
//!   adapters and compares the canonical transcripts byte-for-byte,
//!   then measures requests/sec on each (wall-clock; pinned to 0 under
//!   `--stable`).
//! - **E23b** runs the lifecycle engine over a journaled attic with a
//!   mixed expiry/retention policy and reports what it reclaimed.
//! - **E23c** replays the lifecycle workload under a full crash matrix
//!   — a crash armed at every disk I/O step — and counts acked current
//!   versions lost (the budget pins this to zero).
//!
//! Budget-enforced counters: `attic.conformance.passed >= 54` with
//! `attic.conformance.failed = 0` and
//! `attic.conformance.transcript_mismatch = 0`;
//! `attic.lifecycle.reclaimed_bytes >= 10240`;
//! `attic.crash.acked_current_lost = 0` over
//! `attic.crash.scenarios >= 30` with
//! `attic.crash.compactions_survived >= 1`.

use crate::harness::ExpOptions;
use crate::table::Table;
use hpop_attic::{
    run_suite, AtticBackend, AtticDaemon, ConformanceOutcome, DaemonConfig, DavCore, DurableAttic,
    LifecycleEngine, LifecyclePolicy, LifecycleReport, LifecycleRule, SimTransport, TcpTransport,
    VolatileBackend,
};
use hpop_core::auth::TokenVerifier;
use hpop_durability::DurabilityConfig;
use hpop_netsim::storage::SimDisk;
use hpop_netsim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

fn verifier() -> TokenVerifier {
    TokenVerifier::new([7u8; 32])
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// One parity + throughput run.
pub struct ConformanceLeg {
    /// Suite outcome through the in-process netsim adapter.
    pub sim: ConformanceOutcome,
    /// Suite outcome through the daemon over loopback TCP.
    pub daemon: ConformanceOutcome,
    /// Whether the two canonical transcripts were byte-identical.
    pub identical: bool,
    /// Netsim adapter requests/sec (0 under `--stable`).
    pub sim_rps: u64,
    /// Daemon requests/sec over loopback (0 under `--stable`).
    pub daemon_rps: u64,
}

/// Runs the conformance suite through both adapters and, unless
/// `stable`, times `iters` fresh-state suite repetitions on each to get
/// a requests/sec figure.
pub fn run_conformance(iters: u32, stable: bool) -> ConformanceLeg {
    let mut server = DavCore::new(VolatileBackend::new(), verifier());
    let sim = run_suite(&mut SimTransport::new(&mut server));

    let core = DavCore::new(VolatileBackend::new(), verifier());
    let handle = AtticDaemon::spawn(DaemonConfig::default(), core).expect("bind loopback");
    let mut tcp = TcpTransport::connect(handle.addr()).expect("connect loopback");
    let daemon = run_suite(&mut tcp);
    drop(tcp);
    handle.stop();

    let identical = sim.transcript == daemon.transcript;
    let (sim_rps, daemon_rps) = if stable {
        (0, 0)
    } else {
        (time_sim_suite(iters), time_daemon_suite(iters))
    };
    ConformanceLeg {
        sim,
        daemon,
        identical,
        sim_rps,
        daemon_rps,
    }
}

/// Requests/sec of the in-process adapter: `iters` suite runs, each
/// against a fresh attic.
fn time_sim_suite(iters: u32) -> u64 {
    let started = Instant::now();
    let mut requests = 0u64;
    for _ in 0..iters {
        let mut server = DavCore::new(VolatileBackend::new(), verifier());
        let out = run_suite(&mut SimTransport::new(&mut server));
        requests += u64::from(out.steps);
    }
    rps(requests, started)
}

/// Requests/sec over loopback TCP: one daemon, a fresh connection and
/// backend per suite run (the daemon serves a single shared core, so
/// state is reset by respawning).
fn time_daemon_suite(iters: u32) -> u64 {
    let started = Instant::now();
    let mut requests = 0u64;
    for _ in 0..iters {
        let core = DavCore::new(VolatileBackend::new(), verifier());
        let handle = AtticDaemon::spawn(DaemonConfig::default(), core).expect("bind loopback");
        let mut tcp = TcpTransport::connect(handle.addr()).expect("connect loopback");
        let out = run_suite(&mut tcp);
        drop(tcp);
        handle.stop();
        requests += u64::from(out.steps);
    }
    rps(requests, started)
}

fn rps(requests: u64, started: Instant) -> u64 {
    let us = (started.elapsed().as_micros() as u64).max(1);
    requests * 1_000_000 / us
}

/// E23a — adapter parity and throughput.
pub fn conformance_table(iters: u32, stable: bool) -> Table {
    let leg = run_conformance(iters, stable);
    let metrics = hpop_obs::metrics();
    metrics
        .counter("attic.conformance.steps")
        .add(u64::from(leg.sim.steps) + u64::from(leg.daemon.steps));
    metrics
        .counter("attic.conformance.passed")
        .add(u64::from(leg.sim.passed) + u64::from(leg.daemon.passed));
    metrics
        .counter("attic.conformance.failed")
        .add((leg.sim.failures.len() + leg.daemon.failures.len()) as u64);
    metrics
        .counter("attic.conformance.transcript_mismatch")
        .add(u64::from(!leg.identical));
    metrics.counter("attic.rps.netsim").add(leg.sim_rps);
    metrics.counter("attic.rps.daemon").add(leg.daemon_rps);

    let mut table = Table::new(
        "E23a",
        format!(
            "WebDAV conformance through both adapters ({} steps each; \
             throughput over {iters} suite iterations)",
            leg.sim.steps
        ),
        &["adapter", "passed", "failed", "requests/sec"],
    );
    table.push(vec![
        leg.sim.adapter.into(),
        leg.sim.passed.to_string(),
        leg.sim.failures.len().to_string(),
        leg.sim_rps.to_string(),
    ]);
    table.push(vec![
        leg.daemon.adapter.into(),
        leg.daemon.passed.to_string(),
        leg.daemon.failures.len().to_string(),
        leg.daemon_rps.to_string(),
    ]);
    table.push(vec![
        "transcripts identical".into(),
        leg.identical.to_string(),
        String::new(),
        String::new(),
    ]);
    table
}

/// The mixed retention policy both lifecycle legs use: `/media` keeps
/// one superseded version per object, `/scratch` expires whole objects
/// a minute after their last write.
fn demo_policy() -> LifecyclePolicy {
    LifecyclePolicy::new(vec![
        LifecycleRule::for_prefix("/media").keep_noncurrent(1),
        LifecycleRule::for_prefix("/scratch").expire_after(SimDuration::from_secs(60)),
    ])
}

/// Seeds the deterministic lifecycle workload: 8 media objects with 6
/// versions of 256 B each, 4 scratch objects of 512 B written at t=0.
fn seed_workload(attic: &mut DurableAttic) {
    attic.mkcol("/media").expect("disk").expect("mkcol");
    attic.mkcol("/scratch").expect("disk").expect("mkcol");
    for obj in 0..8u64 {
        for ver in 0..6u64 {
            attic
                .put(
                    &format!("/media/clip{obj}"),
                    &vec![ver as u8; 256],
                    t(obj * 6 + ver),
                )
                .expect("disk")
                .expect("put");
        }
    }
    for obj in 0..4u64 {
        attic
            .put(&format!("/scratch/tmp{obj}"), &vec![0xAB; 512], t(0))
            .expect("disk")
            .expect("put");
    }
}

/// E23b — what the lifecycle engine reclaims on the journaled attic.
///
/// Fully deterministic: 8 × 4 = 32 noncurrent versions of 256 B pruned
/// plus 4 × 512 B scratch objects expired = 10 240 B reclaimed.
pub fn lifecycle_table() -> Table {
    let mut attic = DurableAttic::open(SimDisk::new(0xE23), "attic", DurabilityConfig::default())
        .expect("open journal");
    seed_workload(&mut attic);
    let before = attic.store().total_bytes();
    let mut engine = LifecycleEngine::new(demo_policy());
    engine.tick(&mut attic, t(100)).expect("tick");
    // A second tick at the same instant must be a no-op (idempotence).
    let second = engine.tick(&mut attic, t(100)).expect("tick");
    let report: LifecycleReport = engine.report();

    let metrics = hpop_obs::metrics();
    metrics
        .counter("attic.lifecycle.reclaimed_bytes")
        .add(report.reclaimed_bytes);
    metrics
        .counter("attic.lifecycle.pruned_versions")
        .add(report.pruned_versions);
    metrics
        .counter("attic.lifecycle.expired_objects")
        .add(report.expired_objects);
    metrics
        .counter("attic.lifecycle.second_tick_reclaimed")
        .add(second.reclaimed_bytes);

    let mut table = Table::new(
        "E23b",
        format!(
            "lifecycle reclamation on the journaled attic \
             ({before} B before, {} B after)",
            attic.store().total_bytes()
        ),
        &["measure", "value"],
    );
    table.push(vec![
        "expired objects".into(),
        report.expired_objects.to_string(),
    ]);
    table.push(vec![
        "pruned noncurrent versions".into(),
        report.pruned_versions.to_string(),
    ]);
    table.push(vec![
        "reclaimed bytes".into(),
        report.reclaimed_bytes.to_string(),
    ]);
    table.push(vec![
        "second-tick reclaimed bytes (idempotence)".into(),
        second.reclaimed_bytes.to_string(),
    ]);
    table
}

/// Outcome of the crash sweep.
pub struct CrashLeg {
    /// Crash points exercised (one per disk I/O step of the baseline).
    pub scenarios: u64,
    /// Acked current versions missing or corrupted after recovery.
    pub acked_lost: u64,
    /// Scenarios where a compaction had already landed when the crash
    /// hit and the shrunken history survived recovery.
    pub compactions_survived: u64,
}

/// E23c — the crash matrix: replay the put/tick workload with a crash
/// armed at every disk step, recover, and audit every acked write.
pub fn run_crash_matrix() -> CrashLeg {
    let policy = demo_policy();
    let baseline_steps = {
        let mut attic =
            DurableAttic::open(SimDisk::new(0xC0), "attic", DurabilityConfig::default())
                .expect("open journal");
        let mut engine = LifecycleEngine::new(policy.clone());
        drive_crash_workload(&mut attic, &mut engine, &mut BTreeMap::new());
        attic.disk().steps()
    };

    let mut leg = CrashLeg {
        scenarios: 0,
        acked_lost: 0,
        compactions_survived: 0,
    };
    for crash_at in 1..=baseline_steps {
        let mut attic =
            DurableAttic::open(SimDisk::new(0xC0), "attic", DurabilityConfig::default())
                .expect("open journal");
        let mut engine = LifecycleEngine::new(policy.clone());
        attic.disk_mut().arm_crash(crash_at);
        let mut acked: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        drive_crash_workload(&mut attic, &mut engine, &mut acked);

        let mut disk = attic.into_disk();
        disk.restart();
        let recovered = DurableAttic::open(disk, "attic", DurabilityConfig::default())
            .expect("recovery never fails");
        leg.scenarios += 1;
        for (path, body) in &acked {
            match recovered.store().get(path) {
                Ok(v) if v.body[..] == body[..] => {}
                _ => leg.acked_lost += 1,
            }
        }
        if recovered
            .store()
            .history("/media/clip0")
            .map(|h| h.len() <= 2)
            .unwrap_or(false)
        {
            leg.compactions_survived += 1;
        }
    }
    leg
}

/// Interleaves acked puts with lifecycle ticks, recording only writes
/// whose acknowledgement made it back to the caller.
fn drive_crash_workload(
    attic: &mut DurableAttic,
    engine: &mut LifecycleEngine,
    acked: &mut BTreeMap<String, Vec<u8>>,
) {
    if attic.mkcol("/media").is_err() || attic.mkcol("/scratch").is_err() {
        return;
    }
    for i in 0..5u64 {
        let body = vec![b'a' + i as u8; 128];
        if let Ok(Ok(_)) = attic.put("/media/clip0", &body, t(i)) {
            acked.insert("/media/clip0".into(), body);
        }
        let body = vec![b'A' + i as u8; 96];
        if let Ok(Ok(_)) = attic.put("/media/clip1", &body, t(i)) {
            acked.insert("/media/clip1".into(), body);
        }
        if i % 2 == 1 && engine.tick(attic, t(i)).is_err() {
            return;
        }
    }
    let body = vec![0xCD; 64];
    if let Ok(Ok(_)) = attic.put("/scratch/tmp", &body, t(6)) {
        acked.insert("/scratch/tmp".into(), body);
    }
    // The final tick runs at t=90, where the /scratch expire-after-60s
    // rule dooms tmp (last write t=6). A crash during that tick may
    // land on either side of the journaled delete, so the object's
    // post-recovery state is legitimately unspecified — drop it from
    // the audit. Losing a /media current version is still a failure.
    acked.remove("/scratch/tmp");
    let _ = engine.tick(attic, t(90));
}

/// E23c table + counters.
pub fn crash_table() -> Table {
    let leg = run_crash_matrix();
    let metrics = hpop_obs::metrics();
    metrics.counter("attic.crash.scenarios").add(leg.scenarios);
    metrics
        .counter("attic.crash.acked_current_lost")
        .add(leg.acked_lost);
    metrics
        .counter("attic.crash.compactions_survived")
        .add(leg.compactions_survived);

    let mut table = Table::new(
        "E23c",
        "lifecycle crash matrix: crash at every disk step, recover, audit acked writes".to_string(),
        &["measure", "value"],
    );
    table.push(vec!["crash scenarios".into(), leg.scenarios.to_string()]);
    table.push(vec![
        "acked current versions lost".into(),
        leg.acked_lost.to_string(),
    ]);
    table.push(vec![
        "compactions survived".into(),
        leg.compactions_survived.to_string(),
    ]);
    table
}

/// Default-scale run. The lifecycle and crash legs are
/// exact-deterministic at every scale; only the throughput iteration
/// count varies.
pub fn run_default(opts: &ExpOptions) -> Vec<Table> {
    vec![
        conformance_table(40, opts.stable),
        lifecycle_table(),
        crash_table(),
    ]
}

/// Reduced scale for CI smoke runs (run *without* `--stable` so the
/// requests/sec columns are measured for real; the budget floors are on
/// the deterministic legs, which are identical to the full run).
pub fn run_smoke(opts: &ExpOptions) -> Vec<Table> {
    vec![
        conformance_table(4, opts.stable),
        lifecycle_table(),
        crash_table(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: both adapters pass every step and the
    /// transcripts match byte-for-byte.
    #[test]
    fn adapters_agree_and_pass() {
        let leg = run_conformance(1, true);
        assert_eq!(leg.sim.failures, Vec::<String>::new());
        assert_eq!(leg.daemon.failures, Vec::<String>::new());
        assert_eq!(leg.sim.passed, leg.sim.steps);
        assert!(leg.identical, "adapter transcripts diverged");
    }

    /// The lifecycle leg's arithmetic is exact: 32 pruned versions of
    /// 256 B plus 4 expired 512 B objects.
    #[test]
    fn lifecycle_reclaims_exactly() {
        let mut attic =
            DurableAttic::open(SimDisk::new(0xE23), "attic", DurabilityConfig::default()).unwrap();
        seed_workload(&mut attic);
        let mut engine = LifecycleEngine::new(demo_policy());
        engine.tick(&mut attic, t(100)).unwrap();
        let report = engine.report();
        assert_eq!(report.pruned_versions, 32);
        assert_eq!(report.expired_objects, 4);
        assert_eq!(report.reclaimed_bytes, 32 * 256 + 4 * 512);
    }

    /// Zero acked losses across the full crash sweep, with at least one
    /// crash landing after a compaction.
    #[test]
    fn crash_matrix_is_lossless() {
        let leg = run_crash_matrix();
        assert!(leg.scenarios >= 30, "matrix too small: {}", leg.scenarios);
        assert_eq!(leg.acked_lost, 0);
        assert!(leg.compactions_survived > 0);
    }
}

//! The names this benchmark is allowed to print: workloads,
//! end-to-end metrics with their regression bounds, and per-layer
//! metrics with the end-to-end metric each is predicted to move.
//! `BENCHMARK.json` is generated from this file (`perf list --json`)
//! and a unit test keeps the two in step.

/// Which way is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadInfo {
    /// The name given to `--workload`.
    pub name: &'static str,
    /// One line: why it exists.
    pub why: &'static str,
}

pub const ATTIC_LOOPBACK: &str = "attic_loopback";
pub const ATTIC_DURABLE_WRITE: &str = "attic_durable_write";
pub const NOCDN_PAGELOAD: &str = "nocdn_pageload";
pub const METRO_FLOWS: &str = "metro_flows";
pub const COOP_NEIGHBORHOOD: &str = "coop_neighborhood";

/// The five workloads, in the order `perf all` runs them.
pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: ATTIC_LOOPBACK,
        why: "The only real-socket path: attic daemon over 2 keep-alive loopback connections; \
              thread-per-connection, Mutex<DavCore>, accept poll and h1 framing do the work",
    },
    WorkloadInfo {
        name: ATTIC_DURABLE_WRITE,
        why: "The same WebDAV engine in-process over the WAL-journaled backend; Persistent::execute, \
              snapshots and ETag hashing dominate, daemon and h1 are bypassed",
    },
    WorkloadInfo {
        name: NOCDN_PAGELOAD,
        why: "NoCDN verify-and-account path under chaos faults: SHA-256 verify, chunk assembly, \
              resilience gates, puzzle proofs and the accounting WAL; no sockets, no flow engine",
    },
    WorkloadInfo {
        name: METRO_FLOWS,
        why: "The flow engine alone on a 100k-home metro with a standing pool and cancel churn; \
              no service code runs",
    },
    WorkloadInfo {
        name: COOP_NEIGHBORHOOD,
        why: "Internet@home shared path: 64-member coop cache under overload control with gossip \
              membership under churn; no crypto, WAL or socket",
    },
];

/// An end-to-end metric: reported on every workload, with a bound.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// The end-to-end metrics. Only metrics that are defined, non-zero and
/// host-measured on all five workloads can carry a bound here; the
/// workload-scoped outcomes (simulated latency, offload, write
/// amplification, recovery and connect time, failed ops) are listed
/// first among the per-layer metrics instead.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median of three set-ups in a run (construct, seed, warm up; not the cargo build), steadied like ops_per_s",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "operations per wall-second of an undisturbed box: lower-quartile batch of 25, each batch's time less steal and scaled by the reference loops",
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "process CPU time (utime+stime, all threads) per operation: lower-quartile batch of 25, each less steal and scaled by the reference loops",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        what: "VmHWM at the end of the measured window (includes the 32 MiB table of the benchmark's memory reference loop)",
    },
];

/// Which pass a per-layer value is taken from when both ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Must be identical in both passes for a given seed; a mismatch
    /// fails the run.
    Exact,
    /// Host-time value that tracing would distort: from the untraced
    /// pass.
    Untraced,
    /// Needs spans or an isolated micro-measurement: traced pass only.
    Traced,
}

/// A per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Workloads that define it; empty means all five.
    pub on: &'static [&'static str],
    /// The end-to-end metric it should move, and where. Everywhere
    /// else the prediction is no change.
    pub moves: &'static str,
}

impl Layer {
    /// Whether `workload` defines this metric.
    pub fn defined_on(&self, workload: &str) -> bool {
        self.on.is_empty() || self.on.contains(&workload)
    }
}

use Better::{Higher, Lower};
use Source::{Exact, Traced, Untraced};

const AL: &[&str] = &[ATTIC_LOOPBACK];
const AD: &[&str] = &[ATTIC_DURABLE_WRITE];
const NO: &[&str] = &[NOCDN_PAGELOAD];
const ME: &[&str] = &[METRO_FLOWS];
const CO: &[&str] = &[COOP_NEIGHBORHOOD];
const ALL: &[&str] = &[];

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    on: &'static [&'static str],
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
        on,
        moves,
    }
}

const MV_AL: &str = "ops_per_s, cpu_us_per_op, connect_us_p50 on attic_loopback only";
const MV_DAV: &str = "ops_per_s, cpu_us_per_op on attic_loopback and attic_durable_write";
const MV_AD: &str = "ops_per_s, cpu_us_per_op, write_amp_x1000, recovery_ms on attic_durable_write";
const MV_DUR: &str =
    "attic_durable_write (all four), and nocdn_pageload's issue+settle share only (expect < 5 %)";
const MV_NO: &str = "ops_per_s, cpu_us_per_op on nocdn_pageload";
const MV_NO_COUNT: &str =
    "must not move; if it does, sim_p99_ms and offload_bp on nocdn_pageload move too";
const MV_SHA: &str =
    "nocdn_pageload most (two hashes per delivered byte), attic_durable_write a little (ETag)";
const MV_ME: &str = "ops_per_s, cpu_us_per_op, peak_rss_mb on metro_flows only";
const MV_ME_COUNT: &str = "must stay identical under any engine speed-up";
const MV_CO: &str = "ops_per_s, cpu_us_per_op, peak_rss_mb on coop_neighborhood";
const MV_CO_COUNT: &str = "fixes offload_bp on coop_neighborhood";
const MV_OBS: &str = "cpu_us_per_op on all five, most on attic_durable_write";
const MV_OUTCOME: &str = "is itself a user-visible outcome of its workload";

/// Every per-layer metric. The first block holds the workload-scoped
/// outcomes; the rest are layer = crate.module.
pub const LAYERS: &[Layer] = &[
    // --- workload-scoped outcomes -----------------------------------
    l("failed_ops_bp", "bp", Lower, Exact, ALL, "must be 0 on the seed; a run with failures exits non-zero"),
    l("ops", "count", Higher, Exact, ALL, "operations in the measured window (fixed by seed and --seconds)"),
    l("bench.op_stream_digest", "count", Higher, Exact, ALL,
      "48-bit digest of the generated op sequence: fixed by seed and --seconds, differs between seeds"),
    l("window_s", "s", Lower, Untraced, ALL, "wall time of the measured window; follows ops_per_s"),
    l("sim_p50_ms", "ms", Lower, Exact, &[NOCDN_PAGELOAD, METRO_FLOWS], MV_OUTCOME),
    l("sim_p99_ms", "ms", Lower, Exact, &[NOCDN_PAGELOAD, METRO_FLOWS], MV_OUTCOME),
    l("sim_tail_pct_x100", "count", Higher, Exact, &[NOCDN_PAGELOAD, METRO_FLOWS],
      "the percentile sim_p99_ms really is: 9900 only with >= 1000 samples, else the highest with ten beyond"),
    l("sim_samples", "count", Higher, Exact, &[NOCDN_PAGELOAD, METRO_FLOWS], "sample count behind sim_p50_ms / sim_p99_ms"),
    l("offload_bp", "bp", Higher, Exact, &[NOCDN_PAGELOAD, COOP_NEIGHBORHOOD], MV_OUTCOME),
    l("write_amp_x1000", "x1000", Lower, Exact, &[ATTIC_DURABLE_WRITE, NOCDN_PAGELOAD], MV_OUTCOME),
    l("recovery_ms", "ms", Lower, Untraced, AD, MV_OUTCOME),
    l("connect_us_p50", "us", Lower, Untraced, AL, MV_OUTCOME),
    // --- attic_loopback ----------------------------------------------
    l("attic.daemon.rtt_get_p50_us", "us", Lower, Traced, AL, MV_AL),
    l("attic.daemon.rtt_put_p50_us", "us", Lower, Traced, AL, MV_AL),
    l("attic.daemon.rtt_p99_us", "us", Lower, Traced, AL, MV_AL),
    l("attic.daemon.connect_p99_us", "us", Lower, Untraced, AL, MV_AL),
    l("attic.daemon.requests", "count", Higher, Exact, AL, "must not move"),
    l("attic.daemon.connections", "count", Higher, Exact, AL, "must not move"),
    l("attic.daemon.overload_rejects", "count", Lower, Exact, AL, "must stay 0"),
    l("attic.daemon.bad_frames", "count", Lower, Exact, AL, "must stay 0"),
    l("http.h1.encode_request_ns", "ns", Lower, Traced, AL, MV_AL),
    l("http.h1.decode_response_ns", "ns", Lower, Traced, AL, MV_AL),
    l("http.h1.decode_request_ns", "ns", Lower, Traced, AL, MV_AL),
    l("attic.webdav.serve_get_ns", "ns", Lower, Traced, AL, MV_DAV),
    l("attic.webdav.serve_put_ns", "ns", Lower, Traced, AL, MV_DAV),
    l("attic.webdav.serve_propfind_ns", "ns", Lower, Traced, AL, MV_AL),
    l("http.h1.encode_response_ns", "ns", Lower, Traced, AL, MV_AL),
    l("attic.daemon.overhead_us", "us", Lower, Traced, AL, MV_AL),
    // --- attic_durable_write -----------------------------------------
    l("attic.webdav.put_ns", "ns", Lower, Traced, AD, MV_AD),
    l("attic.webdav.get_ns", "ns", Lower, Traced, AD, MV_DAV),
    l("attic.webdav.lock_ns", "ns", Lower, Traced, AD, MV_AD),
    l("attic.webdav.copy_move_ns", "ns", Lower, Traced, AD, MV_AD),
    l("attic.webdav.delete_ns", "ns", Lower, Traced, AD, MV_AD),
    l("durability.ops_committed", "count", Higher, Exact, AD, "must not move"),
    l("durability.disk_steps_per_op_x1000", "x1000", Lower, Exact, AD, MV_DUR),
    l("durability.bytes_per_op", "bytes", Lower, Exact, AD, MV_DUR),
    l("durability.snapshots", "count", Lower, Exact, AD, MV_DUR),
    l("durability.recovery.ops_replayed", "count", Lower, Exact, AD, "recovery_ms on attic_durable_write"),
    l("durability.recovery.torn_tails", "count", Lower, Exact, AD, "must stay 0 (no crash is injected)"),
    l("durability.persistent.execute_ns", "ns", Lower, Traced, AD, MV_DUR),
    l("durability.persistent.snapshot_ns", "ns", Lower, Traced, AD, MV_DUR),
    l("crypto.sha256.ns_per_byte_x1000", "x1000", Lower, Traced, &[ATTIC_DURABLE_WRITE, NOCDN_PAGELOAD], MV_SHA),
    l("attic.durable.allocs_per_op_x1000", "x1000", Lower, Untraced, AD, MV_AD),
    // --- nocdn_pageload ----------------------------------------------
    l("nocdn.select.assign_ns", "ns", Lower, Traced, NO, MV_NO),
    l("nocdn.wrapper.generate_ns", "ns", Lower, Traced, NO, MV_NO),
    l("nocdn.loader.load_ns", "ns", Lower, Traced, NO, MV_NO),
    l("nocdn.chunked.fetch_ns", "ns", Lower, Traced, NO, MV_NO),
    l("nocdn.peer.upload_records_ns", "ns", Lower, Traced, NO, MV_NO),
    l("nocdn.durable.issue_ns", "ns", Lower, Traced, NO, MV_NO),
    l("nocdn.durable.settle_ns", "ns", Lower, Traced, NO, MV_NO),
    l("nocdn.loader.corrupted", "count", Lower, Exact, NO, MV_NO_COUNT),
    l("nocdn.loader.unavailable", "count", Lower, Exact, NO, MV_NO_COUNT),
    l("nocdn.chunked.hedged_chunks", "count", Lower, Exact, NO, MV_NO_COUNT),
    l("nocdn.chunked.fallback_chunks", "count", Lower, Exact, NO, MV_NO_COUNT),
    l("nocdn.chunked.corrupt_peers", "count", Lower, Exact, NO, MV_NO_COUNT),
    l("nocdn.accounting.settled", "count", Higher, Exact, NO, MV_NO_COUNT),
    l("nocdn.accounting.rejected", "count", Lower, Exact, NO, "must stay 0: every record in this workload is honest"),
    l("nocdn.accounting.puzzle_verify_bytes", "bytes", Lower, Exact, NO, MV_NO_COUNT),
    l("crypto.hmac.sign_ns", "ns", Lower, Traced, NO, MV_NO),
    l("crypto.puzzle.prove_ns_per_kib", "ns", Lower, Traced, NO, MV_NO),
    l("crypto.puzzle.verify_ns_per_kib", "ns", Lower, Traced, NO, MV_NO),
    l("resilience.admission.try_acquire_ns", "ns", Lower, Traced, NO, "nocdn_pageload and coop_neighborhood, a little"),
    l("resilience.breaker.allow_ns", "ns", Lower, Traced, NO, MV_NO),
    l("resilience.hedge.decide_ns", "ns", Lower, Traced, NO, MV_NO),
    l("nocdn.allocs_per_op", "count", Lower, Untraced, NO, MV_NO),
    l("nocdn.alloc_bytes_per_op", "bytes", Lower, Untraced, NO, "cpu_us_per_op, peak_rss_mb on nocdn_pageload"),
    // --- metro_flows -------------------------------------------------
    l("netsim.presets.metro_build_ms", "ms", Lower, Untraced, ME, "setup_s on metro_flows"),
    l("netsim.start_transfer_ns", "ns", Lower, Traced, ME, MV_ME),
    l("netsim.cancel_transfer_ns", "ns", Lower, Traced, ME, MV_ME),
    l("netsim.run_until_ns_per_event", "ns", Lower, Traced, ME, MV_ME),
    l("netsim.flow_events", "count", Higher, Exact, ME, MV_ME_COUNT),
    l("netsim.engine_events", "count", Lower, Exact, ME, MV_ME_COUNT),
    l("netsim.flows_resolved_per_event_x1000", "x1000", Lower, Exact, ME, MV_ME_COUNT),
    l("netsim.links_touched_per_event_x1000", "x1000", Lower, Exact, ME, MV_ME_COUNT),
    l("netsim.fill_rounds_per_event_x1000", "x1000", Lower, Exact, ME, MV_ME_COUNT),
    l("netsim.full_resolves", "count", Lower, Exact, ME, MV_ME_COUNT),
    l("netsim.heap_pushes_per_event_x1000", "x1000", Lower, Exact, ME, MV_ME_COUNT),
    l("netsim.allocs_per_event_x1000", "x1000", Lower, Untraced, ME, MV_ME),
    l("netsim.sim_s_per_wall_s_x1000", "x1000", Higher, Untraced, ME, "is ops_per_s / flow events per sim-s"),
    l("netsim.calendar.push_pop_ns", "ns", Lower, Traced, ME, MV_ME),
    l("obs.trace.dropped", "count", Lower, Exact, ME, "must stay 0: the global tracer is off"),
    // --- coop_neighborhood -------------------------------------------
    l("internet-home.coop.try_request_ns", "ns", Lower, Traced, CO, MV_CO),
    l("internet-home.coop.apply_view_ns", "ns", Lower, Traced, CO, MV_CO),
    l("internet-home.coop.local_hits", "count", Higher, Exact, CO, MV_CO_COUNT),
    l("internet-home.coop.neighbor_hits", "count", Higher, Exact, CO, MV_CO_COUNT),
    l("internet-home.coop.stale_hits", "count", Higher, Exact, CO, MV_CO_COUNT),
    l("internet-home.coop.origin_fetches", "count", Lower, Exact, CO, MV_CO_COUNT),
    l("internet-home.coop.overload_rejected", "count", Lower, Exact, CO, "must stay 0: the crowd is sized to brown out, not to reject"),
    l("internet-home.coop.allocs_per_op_x1000", "x1000", Lower, Untraced, CO, MV_CO),
    l("fabric.gossip.tick_ns", "ns", Lower, Traced, CO, MV_CO),
    l("fabric.gossip.bytes_per_tick", "bytes", Lower, Exact, CO, "must not move unless the wire format does"),
    l("fabric.gossip.view_ns", "ns", Lower, Traced, CO, MV_CO),
    l("fabric.wire.encode_ns", "ns", Lower, Traced, CO, MV_CO),
    l("fabric.wire.decode_ns", "ns", Lower, Traced, CO, MV_CO),
    l("resilience.brownout.transitions", "count", Lower, Exact, CO, MV_CO_COUNT),
    // --- every workload ----------------------------------------------
    l("obs.metrics.counter_lookup_ns", "ns", Lower, Traced, ALL, MV_OBS),
    l("obs.hist.record_ns", "ns", Lower, Traced, ALL, MV_OBS),
    l("bench.driver_ns_per_op", "ns", Lower, Traced, ALL, "generator + checker cost, so it can be subtracted"),
    l("bench.ops_per_s_raw", "1/s", Higher, Untraced, ALL, "ops_per_s before steal and machine-speed correction"),
    l("bench.cpu_us_per_op_raw", "us", Lower, Untraced, ALL, "cpu_us_per_op before steal and machine-speed correction"),
    l("bench.steal_bp", "bp", Lower, Untraced, ALL, "share of the window the hypervisor stole (all vCPUs); host noise, not code"),
    l("bench.slowdown_cache_x1000", "x1000", Lower, Untraced, ALL, "cache-resident reference loop time / nominal, mean over batches; host noise, not code"),
    l("bench.slowdown_memory_x1000", "x1000", Lower, Untraced, ALL, "memory-bound reference loop time / nominal, mean over batches; host noise, not code"),
    l("bench.trace_overhead_bp", "bp", Lower, Traced, ALL, "ops_per_s difference between the untraced and the traced pass"),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Looks a per-layer metric up by name.
pub fn layer(name: &str) -> Option<&'static Layer> {
    LAYERS.iter().find(|m| m.name == name)
}

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpop_obs::json::{self, Value};
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(
                valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound <= 0.25 && seen.insert(m.name));
        }
        for m in LAYERS {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.on.iter().all(|w| workload(w).is_some()));
        }
        assert!(LAYERS.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    fn names_in(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::items)
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    }

    /// `BENCHMARK.json` at the repo root must list exactly this catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = v
            .entries()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            names_in(&v, "workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names_in(&v, "end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names_in(&v, "per_layer"),
            LAYERS.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, j) in END_TO_END
            .iter()
            .zip(v.get("end_to_end").and_then(Value::items).unwrap())
        {
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
    }
}

//! # hpop-obs — structured observability for the HPoP stack
//!
//! The paper's evaluation style is observational: the CCZ study (§II)
//! and every service sketch (§IV) argue from per-second rates,
//! percentiles and event traces. This crate is the substrate that lets
//! every other crate produce those artifacts uniformly:
//!
//! - [`registry::MetricsRegistry`] — named counters, gauges and
//!   log-linear-bucket histograms (p50/p90/p99), cheaply cloneable and
//!   shardable across threads.
//! - [`trace`] — a structured trace layer: the [`event!`] macro records
//!   `(sim_time, service, topic, fields)` tuples into a bounded ring
//!   buffer with pluggable sinks ([`sink::MemorySink`] for tests,
//!   [`sink::JsonlSink`] for experiments). A disabled tracer costs one
//!   relaxed atomic load per event site.
//! - [`span`] — causal tracing: a [`span::TraceCtx`] propagated through
//!   messages ties every stage of a request (queue, transfer, retry,
//!   hedge, verify, origin fallback) into one span tree over sim time;
//!   [`critical_path`] walks those trees and attributes a slow
//!   request's latency to the stages actually on its critical path.
//! - [`series`] / [`slo`] — windowed time-series keyed to sim time and
//!   declarative SLO monitors (burn-rate floors, latency ceilings,
//!   zero-sum invariants) evaluated continuously, with breach windows
//!   recorded in the snapshot.
//! - [`snapshot::Snapshot`] — a stable JSON schema for experiment
//!   results; every `exp <name>` run exports one as `BENCH_<exp>.json`.
//!
//! The crate is dependency-free beyond `std` + `parking_lot` (the build
//! environment is offline), so JSON encoding/decoding is provided by
//! the in-tree [`json`] module rather than serde.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical_path;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod series;
pub mod sink;
pub mod slo;
pub mod snapshot;
pub mod span;

#[cfg(test)]
mod proptests;
pub mod trace;

pub use critical_path::{attribute_slow, build_traces, AttributionReport, TraceTree};
pub use hist::Histogram;
pub use metrics::{Cdf, Counter};
pub use registry::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};
pub use series::{SeriesHandle, SeriesRegistry, WindowAgg};
pub use slo::{SloBreach, SloKind, SloMonitor, SloSpec};
pub use snapshot::{HistogramSummary, SeriesSummary, Snapshot};
pub use span::{SpanRecord, SpanScope, SpanTracer, TraceCtx};
pub use trace::{SpanGuard, TraceEvent, Tracer};

use std::sync::OnceLock;

/// The process-wide tracer used by service hot paths.
///
/// Starts disabled (events cost one atomic load); experiment binaries
/// enable it and attach sinks. Library tests should prefer their own
/// [`Tracer`] instances to avoid cross-test interference.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(trace::DEFAULT_RING_CAPACITY))
}

/// The process-wide metrics registry used by service hot paths
/// (attic lock mediation, NoCDN chunk fetch/verify, DCol subflow
/// scheduling, Internet@home prefetch hits/misses).
///
/// Experiment binaries snapshot this registry into `BENCH_<exp>.json`;
/// unit tests asserting on counts should read deltas, since the
/// registry is shared across a test binary's threads.
pub fn metrics() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// The process-wide causal span tracer.
///
/// Starts disabled: every root/child/record call short-circuits to the
/// null context for ~a relaxed atomic load, so always-on call sites in
/// service crates (attic placement, DCol detours, co-op ladders) cost
/// nothing outside traced experiments. Experiment binaries enable it
/// (optionally sampled) and drain span trees for critical-path
/// attribution. Unit tests should prefer their own [`SpanTracer`]
/// instances to avoid cross-test interference.
pub fn spans() -> &'static SpanTracer {
    static GLOBAL: OnceLock<SpanTracer> = OnceLock::new();
    GLOBAL.get_or_init(|| SpanTracer::new(span::DEFAULT_SPAN_CAPACITY))
}

/// The process-wide windowed time-series registry.
///
/// Experiments record sim-time-keyed samples here (delivery burn rate,
/// fabric detect latency, accounting mismatch); the bench harness folds
/// every series into the snapshot's `series` section, and SLO monitors
/// evaluate over the same windows.
pub fn series_registry() -> &'static SeriesRegistry {
    static GLOBAL: OnceLock<SeriesRegistry> = OnceLock::new();
    GLOBAL.get_or_init(SeriesRegistry::new)
}

/// SplitMix64's output function: a cheap, deterministic, high-quality
/// 64-bit mix. Seeded coins that must not correlate with their
/// sequential inputs draw through it — span sampling over trace ids,
/// retry jitter over attempt numbers, the chaos experiment's loss coin.
///
/// ```
/// assert_eq!(hpop_obs::mix(0), 0xE220_A839_7B1D_CDAF);
/// ```
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Records a structured trace event if the tracer is enabled.
///
/// Field values are **not evaluated** when the tracer is disabled, so
/// sites in hot loops cost one relaxed atomic load.
///
/// ```
/// let tracer = hpop_obs::Tracer::new(64);
/// tracer.enable();
/// hpop_obs::event!(tracer, 1_500_000, "nocdn", "chunk.verify", size = 4096u64, ok = true);
/// assert_eq!(tracer.recent().len(), 1);
/// ```
#[macro_export]
macro_rules! event {
    ($tracer:expr, $time_us:expr, $service:expr, $topic:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let __t = &$tracer;
        if __t.is_enabled() {
            __t.record($crate::trace::TraceEvent {
                sim_time_us: $time_us,
                service: ::std::string::String::from($service),
                topic: ::std::string::String::from($topic),
                fields: vec![$((
                    ::std::string::String::from(stringify!($key)),
                    $crate::json::Value::from($val),
                )),*],
            });
        }
    }};
}

/// Times the enclosing scope into a histogram (wall-clock nanoseconds),
/// for instrumenting hot paths like lock mediation or chunk verify.
///
/// ```
/// let reg = hpop_obs::MetricsRegistry::new();
/// let hist = reg.histogram("attic.lock.mediate_ns");
/// {
///     let _guard = hpop_obs::span!(hist);
///     // ... the work being timed ...
/// }
/// assert_eq!(reg.histogram("attic.lock.mediate_ns").count(), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($hist:expr) => {
        $crate::SpanGuard::new(&$hist)
    };
}

//! # hpop-obs — structured observability for the HPoP stack
//!
//! The paper's evaluation style is observational: the CCZ study (§II)
//! and every service sketch (§IV) argue from per-second rates,
//! percentiles and event traces. This crate is the substrate that lets
//! every other crate produce those artifacts uniformly:
//!
//! - [`registry::MetricsRegistry`] — named counters, gauges and
//!   log-linear-bucket histograms (p50/p90/p99), cheaply cloneable and
//!   shardable across threads; [`HistogramHandle::time`] times a scope
//!   into one in wall-clock nanoseconds.
//! - [`span`] — the one trace stream: a [`span::TraceCtx`] propagated
//!   through messages ties every stage of a request (queue, transfer,
//!   retry, hedge, verify, origin fallback) into one span tree over sim
//!   time; [`critical_path`] walks those trees and attributes a slow
//!   request's latency to the stages actually on its critical path. The
//!   [`event!`] macro records a flat `(sim_time, service, topic,
//!   fields)` event into the same bounded ring as a zero-length span.
//!   A disabled tracer costs one relaxed atomic load per site.
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
pub mod registry;
pub mod series;
pub mod slo;
pub mod snapshot;
pub mod span;

#[cfg(test)]
mod proptests;

pub use critical_path::{attribute_slow, build_traces, AttributionReport, TraceTree};
pub use hist::Histogram;
pub use registry::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry, Timer};
pub use series::{SeriesHandle, SeriesRegistry, WindowAgg};
pub use slo::{SloBreach, SloKind, SloMonitor, SloSpec};
pub use snapshot::{HistogramSummary, SeriesSummary, Snapshot};
pub use span::{SpanRecord, SpanTracer, TraceCtx};

use std::sync::OnceLock;

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

/// The process-wide span tracer: causal spans and [`event!`]s alike.
///
/// Starts disabled: every root/child/record call and every event site
/// short-circuits for ~a relaxed atomic load, so always-on call sites in
/// service crates (attic lock mediation, DCol detours, co-op ladders,
/// flow completion) cost nothing outside traced runs. `exp --trace`
/// enables it and writes the buffered spans as JSONL. Unit tests should
/// prefer their own [`SpanTracer`] instances to avoid cross-test
/// interference.
pub fn spans() -> &'static SpanTracer {
    static GLOBAL: OnceLock<SpanTracer> = OnceLock::new();
    GLOBAL.get_or_init(|| SpanTracer::new(span::DEFAULT_SPAN_CAPACITY))
}

/// An alias of [`spans`] kept for its one caller, `perf`'s `metro_flows`
/// workload (`tracer().dropped()`); the `benchmark` change that next
/// touches `perf/` deletes it (ROADMAP item 1(d)).
#[doc(hidden)]
pub fn tracer() -> &'static SpanTracer {
    spans()
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

/// Records an event on a [`SpanTracer`] if it is enabled: a zero-length
/// root span at `time_us` whose stage is the topic and which carries the
/// fields ([`SpanTracer::event`]).
///
/// Field values are **not evaluated** when the tracer is disabled, so
/// sites in hot loops cost one relaxed atomic load.
///
/// ```
/// let tracer = hpop_obs::SpanTracer::new(64);
/// tracer.enable();
/// hpop_obs::event!(tracer, 1_500_000, "nocdn", "chunk.verify", size = 4096u64, ok = true);
/// let spans = tracer.recent();
/// assert_eq!((spans[0].start_us, spans[0].end_us), (1_500_000, 1_500_000));
/// assert_eq!(spans[0].fields.len(), 2);
/// ```
#[macro_export]
macro_rules! event {
    ($tracer:expr, $time_us:expr, $service:expr, $topic:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let __t: &$crate::SpanTracer = &$tracer;
        if __t.is_enabled() {
            __t.event(
                $service,
                $topic,
                $time_us,
                vec![$((stringify!($key), $crate::json::Value::from($val))),*],
            );
        }
    }};
}

/// The flat-event half of the trace stream, end to end: [`event!`] sites
/// recording into a [`SpanTracer`].
#[cfg(test)]
mod trace {
    mod tests {
        use crate::SpanTracer;

        #[test]
        fn disabled_tracer_records_nothing_via_macro() {
            let t = SpanTracer::new(8);
            let mut evaluated = false;
            crate::event!(
                t,
                0,
                "svc",
                "topic",
                x = {
                    evaluated = true;
                    1u64
                }
            );
            assert!(!evaluated, "fields must not be evaluated when disabled");
            assert!(t.recent().is_empty());
        }

        #[test]
        fn ring_is_bounded_and_drops_oldest() {
            let t = SpanTracer::new(3);
            t.enable();
            for i in 0..5u64 {
                crate::event!(t, i, "svc", "tick", i = i);
            }
            let recent = t.recent();
            assert_eq!(recent.len(), 3);
            assert_eq!(recent[0].start_us, 2);
            assert_eq!(t.dropped(), 2);
        }
    }
}

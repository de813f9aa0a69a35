//! One pass of one workload: set up (several times, for a median),
//! warm up, run 25 equal batches, and fill a [`Report`].
//!
//! A pass runs in a process of its own (`perf pass …`), so the global
//! `hpop_obs::metrics()` registry, the allocator counters, CPU time and
//! `VmHWM` all belong to exactly one workload.

use crate::alloc;
use crate::catalog::{self, Source};
use crate::micro;
use crate::stats;
use crate::steady::{Interval, Meter, Profile, CACHE, MEMORY};
use crate::trace::{merge_totals, NameTotal, Recorder};
use hpop_obs::json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Batches the measured window is cut into. Every batch has the same
/// op count and op mix, so the lower-quartile estimator compares like
/// with like.
pub const BATCHES: usize = 25;

/// Root span of one operation; its self time is the driver's own cost
/// (generator + checker + recorder).
pub const OP_SPAN: &str = "bench.op";

/// Spans written to the trace file. The per-layer numbers are computed
/// from every span in memory; the file is for reading, not for
/// arithmetic, and three million rows help nobody.
const TRACE_FILE_SPAN_LIMIT: usize = 100_000;

/// A running digest of the generated operation sequence, so that "same
/// seed, same ops; other seed, other ops" is a number two runs can
/// compare. One multiply per word: cheap enough for 16M flow starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpDigest(u64);

impl Default for OpDigest {
    fn default() -> OpDigest {
        OpDigest(0xcbf2_9ce4_8422_2325)
    }
}

impl OpDigest {
    /// Folds one word of an operation's description in.
    #[inline]
    pub fn feed(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(23);
    }

    /// Folds a byte string in, eight bytes at a time.
    pub fn feed_bytes(&mut self, bytes: &[u8]) {
        self.feed(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.feed(u64::from_le_bytes(word));
        }
    }

    /// Combines the digests of independent streams (client threads).
    pub fn merge(&mut self, other: OpDigest) {
        self.0 ^= other.0.rotate_left(17);
    }

    /// The digest as a metric: 48 bits, exact in an `f64`.
    pub fn value(self) -> f64 {
        (self.0 >> 16) as f64
    }
}

/// What one pass was asked to do.
#[derive(Clone, Debug)]
pub struct PassConfig {
    pub seed: u64,
    /// Target length of the measured window on the reference box; op
    /// counts are `nominal rate × seconds`, so the sequence is fixed by
    /// `(seed, seconds)` and never by how fast the code runs.
    pub seconds: f64,
    pub traced: bool,
    /// How many times to set up (the last one is measured).
    pub setups: usize,
    /// Where the traced pass writes its spans.
    pub trace_file: Option<String>,
}

/// What one batch did.
#[derive(Clone, Copy, Debug, Default)]
pub struct Batch {
    pub ops: u64,
    /// Wrong answers, refusals and errors — see each workload's rules.
    pub failed: u64,
}

/// The measured window, handed to [`Workload::finish`].
#[derive(Debug)]
pub struct Window {
    pub ops: u64,
    pub wall: Duration,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    pub traced: bool,
    pub seed: u64,
    /// Per-span-name totals over the window (empty when untraced).
    pub totals: BTreeMap<&'static str, NameTotal>,
}

impl Window {
    /// Mean self time (ns) of the spans called `span`, or 0.
    pub fn self_ns(&self, span: &str) -> f64 {
        self.totals.get(span).map_or(0.0, NameTotal::mean_self_ns)
    }
}

/// Named values of one pass.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric. The name must be in the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            catalog::layer(name).is_some() || catalog::end_to_end(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.metrics.insert(name, value);
    }

    /// Records the mean self time of a span name as a `*_ns` metric
    /// (traced passes only; untraced passes have no spans).
    pub fn set_self_ns(&mut self, name: &'static str, span: &str, w: &Window) {
        if w.traced {
            self.set(name, w.self_ns(span));
        }
    }

    /// The pass's result as the JSON object the parent process reads.
    pub fn to_json(&self) -> Value {
        let mut metrics = Value::obj();
        for (name, value) in &self.metrics {
            metrics.set(*name, *value);
        }
        let mut v = Value::obj();
        v.set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        v
    }
}

/// A workload: a fixed, seeded operation sequence over public APIs.
pub trait Workload: Sized {
    /// How the workload's time follows the machine's (see `steady`).
    const PROFILE: Profile;

    /// Builds the system under test, seeds it and warms it up.
    fn setup(cfg: &PassConfig) -> Self;

    /// Called once, immediately before the first batch: take the
    /// baseline of every counter the workload reports as a delta.
    fn begin_window(&mut self);

    /// Runs batch `index` (0-based) of [`BATCHES`].
    fn run_batch(&mut self, index: usize) -> Batch;

    /// Every recorder the workload writes spans into (one per thread).
    fn recorders(&mut self) -> Vec<&mut Recorder>;

    /// Reads counters, checks end-state invariants (adding to
    /// `report.failed`), replays layers in isolation when traced, and
    /// names the results. Tears the system down.
    fn finish(self, window: &Window, report: &mut Report);
}

/// Runs one pass of `W`.
pub fn run_pass<W: Workload>(cfg: &PassConfig) -> Report {
    let mut meter = Meter::new();
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut built = None;
    for _ in 0..cfg.setups.max(1) {
        // Tear the previous instance down first: two daemons or two
        // 100k-home cities at once would distort both time and memory.
        drop(built.take());
        let (w, took) = meter.measure(|| W::setup(cfg));
        built = Some(w);
        setup_s.push(took.steady_wall(&W::PROFILE).as_secs_f64());
    }
    let mut w = built.expect("at least one set-up");
    for r in w.recorders() {
        r.clear();
    }
    w.begin_window();

    let (calls0, bytes0) = alloc::counts();
    let t0 = Instant::now();
    let mut batches: Vec<(u64, Interval)> = Vec::with_capacity(BATCHES);
    let mut total = Batch::default();
    for index in 0..BATCHES {
        let (b, took) = meter.measure(|| w.run_batch(index));
        batches.push((b.ops, took));
        total.ops += b.ops;
        total.failed += b.failed;
    }
    let wall = t0.elapsed();
    let (calls1, bytes1) = alloc::counts();
    let peak_rss = stats::peak_rss_mib();
    let mut totals = BTreeMap::new();
    let mut rows = Vec::new();
    let recorders = w.recorders();
    let rows_each = TRACE_FILE_SPAN_LIMIT / recorders.len().max(1);
    for (thread, r) in recorders.into_iter().enumerate() {
        merge_totals(&mut totals, &r.totals());
        if cfg.trace_file.is_some() {
            rows.extend(r.to_json_rows(thread as u32, rows_each));
        }
    }
    let window = Window {
        ops: total.ops,
        wall,
        alloc_calls: calls1 - calls0,
        alloc_bytes: bytes1 - bytes0,
        traced: cfg.traced,
        seed: cfg.seed,
        totals,
    };

    let mut report = Report {
        attempted: total.ops,
        failed: total.failed,
        ..Report::default()
    };
    report.set("setup_s", stats::median(&setup_s));
    let ops = total.ops.max(1) as f64;
    // One estimator for wall and CPU time, steadied and raw: the
    // lower-quartile batch, which the neighbours disturbed least.
    let quartile_rate = |time: &dyn Fn(&Interval) -> Duration| {
        let timed: Vec<(u64, Duration)> = batches.iter().map(|(o, i)| (*o, time(i))).collect();
        stats::lower_quartile_ops_per_s(&timed)
    };
    let sum = |time: &dyn Fn(&Interval) -> Duration| {
        batches
            .iter()
            .map(|(_, i)| time(i).as_secs_f64())
            .sum::<f64>()
    };
    report.set("ops_per_s", quartile_rate(&|i| i.steady_wall(&W::PROFILE)));
    report.set(
        "cpu_us_per_op",
        1e6 / quartile_rate(&|i| i.steady_cpu(&W::PROFILE)),
    );
    report.set("bench.ops_per_s_raw", quartile_rate(&|i| i.wall));
    report.set("bench.cpu_us_per_op_raw", sum(&|i| i.cpu) * 1e6 / ops);
    report.set(
        "bench.steal_bp",
        sum(&|i| i.steal) * 10_000.0 / sum(&|i| i.wall),
    );
    let mean_slowdown = |which| {
        batches.iter().map(|(_, i)| i.slowdown(which)).sum::<f64>() * 1000.0 / BATCHES as f64
    };
    report.set("bench.slowdown_cache_x1000", mean_slowdown(CACHE));
    report.set("bench.slowdown_memory_x1000", mean_slowdown(MEMORY));
    report.set("peak_rss_mb", peak_rss);
    report.set("ops", total.ops as f64);
    report.set("window_s", wall.as_secs_f64());
    if cfg.traced {
        let driver = window.totals.get(OP_SPAN).map_or(0, |t| t.self_ns);
        report.set(
            "bench.driver_ns_per_op",
            driver as f64 / total.ops.max(1) as f64,
        );
        micro::obs_layers(&mut report);
    }
    w.finish(&window, &mut report);
    report.set(
        "failed_ops_bp",
        report.failed as f64 * 10_000.0 / report.attempted.max(1) as f64,
    );

    if let Some(path) = &cfg.trace_file {
        write_trace(path, cfg, &window, &batches, rows);
    }
    report
}

fn write_trace(
    path: &str,
    cfg: &PassConfig,
    window: &Window,
    batches: &[(u64, Interval)],
    rows: Vec<Value>,
) {
    let batch_rows = batches
        .iter()
        .map(|(ops, i)| {
            let mut row = Value::obj();
            row.set("ops", *ops)
                .set("wall_us", i.wall.as_micros() as u64)
                .set("cpu_us", i.cpu.as_micros() as u64)
                .set("steal_us", i.steal.as_micros() as u64)
                .set(
                    "cache_loop_before_us",
                    i.reference[0][CACHE].as_micros() as u64,
                )
                .set(
                    "cache_loop_after_us",
                    i.reference[1][CACHE].as_micros() as u64,
                )
                .set(
                    "memory_loop_before_us",
                    i.reference[0][MEMORY].as_micros() as u64,
                )
                .set(
                    "memory_loop_after_us",
                    i.reference[1][MEMORY].as_micros() as u64,
                );
            row
        })
        .collect();
    let mut layers = Value::obj();
    for (name, t) in &window.totals {
        let mut row = Value::obj();
        row.set("spans", t.count)
            .set("self_ns", t.self_ns)
            .set("total_ns", t.total_ns);
        layers.set(*name, row);
    }
    let recorded: u64 = window.totals.values().map(|t| t.count).sum();
    let mut doc = Value::obj();
    doc.set("seed", cfg.seed)
        .set("seconds", cfg.seconds)
        .set("ops", window.ops)
        .set("spans_recorded", recorded)
        .set("spans_written", rows.len() as u64)
        .set("batches", Value::Arr(batch_rows))
        .set("self_time_by_name", layers)
        .set("spans", Value::Arr(rows));
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, doc.to_json()) {
        eprintln!("perf: cannot write trace {path}: {e}");
        std::process::exit(2);
    }
}

/// Checks a report against the catalog: every metric `workload`
/// defines for this kind of pass is present, and nothing else is.
/// Returns the names that are missing or unexpected.
pub fn audit(workload: &str, traced: bool, report: &Report) -> Vec<String> {
    let mut problems = Vec::new();
    for m in catalog::LAYERS {
        let due = m.defined_on(workload)
            && (traced || m.source != Source::Traced)
            // Filled in by the parent, which sees both passes.
            && m.name != "bench.trace_overhead_bp";
        let present = report.metrics.contains_key(m.name);
        if due && !present {
            problems.push(format!("missing {}", m.name));
        }
        if present && !m.defined_on(workload) {
            problems.push(format!("unexpected {}", m.name));
        }
    }
    for m in &catalog::END_TO_END {
        if !report.metrics.contains_key(m.name) {
            problems.push(format!("missing {}", m.name));
        }
    }
    problems
}

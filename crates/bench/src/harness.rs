//! The one way an experiment runs.
//!
//! The `exp` runner hands every row of the experiment table to [`run`],
//! which makes the whole suite behave uniformly:
//!
//! - **Quiet by default.** Tables are not printed; they land (with a
//!   snapshot of the global metrics registry) in `BENCH_<exp>.json`.
//!   `--verbose` re-enables the human-readable table output.
//! - **Structured tracing.** The global tracer is enabled for the run,
//!   so instrumented hot paths (lock mediation, chunk verify, subflow
//!   scheduling, prefetch serving) record events; `--trace <path>`
//!   attaches a JSONL sink that streams them to disk.
//! - **Stable results schema.** The JSON artifact is an
//!   [`hpop_obs::Snapshot`] (schema v1): counters, gauges, histogram
//!   summaries (p50/p90/p99) plus the experiment tables under
//!   `extra.tables`.

use crate::table::Table;
use hpop_obs::json::Value;
use hpop_obs::sink::JsonlSink;
use hpop_obs::{event, AttributionReport, HistogramSummary, SloBreach, Snapshot};
use std::sync::Mutex;
use std::time::Instant;

/// Latency attribution deposited by the running experiment, folded into
/// the snapshot by [`run`].
static PENDING_ATTRIBUTION: Mutex<Option<AttributionReport>> = Mutex::new(None);

/// SLO breach windows deposited by the running experiment.
static PENDING_BREACHES: Mutex<Vec<SloBreach>> = Mutex::new(Vec::new());

/// Deposits the critical-path attribution report for the snapshot the
/// harness is about to write (schema v2 `latency_attribution`).
pub fn stash_attribution(report: AttributionReport) {
    *PENDING_ATTRIBUTION.lock().unwrap() = Some(report);
}

/// Deposits SLO breach windows for the snapshot the harness is about to
/// write (schema v2 `slo_breaches`); accumulates across calls.
pub fn stash_slo_breaches(breaches: Vec<SloBreach>) {
    PENDING_BREACHES.lock().unwrap().extend(breaches);
}

/// The `exp` runner's flags.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpOptions {
    /// Run the experiment's reduced CI preset (`--smoke`).
    pub smoke: bool,
    /// Re-enable human-readable table output (`--verbose` / `-v`).
    pub verbose: bool,
    /// Print tables as GitHub Markdown instead of aligned text
    /// (`--markdown`, implies nothing about quietness).
    pub markdown: bool,
    /// Stream trace events to this JSONL file (`--trace <path>`).
    pub trace_path: Option<String>,
    /// Override the snapshot path (`--out <path>`; default
    /// `BENCH_<exp>.json` in the working directory).
    pub out_path: Option<String>,
    /// Pin wall-clock values to zero (`--stable`) — the `exp.wall_ms`
    /// gauge and the timings of every `*_ns` span histogram (their
    /// sample counts stay) — so that two runs of a deterministic
    /// experiment produce byte-identical snapshots, as committed
    /// artifacts like `BENCH_chaos.json` require.
    pub stable: bool,
}

impl ExpOptions {
    /// The flags [`ExpOptions::parse`] accepts, for usage text.
    pub const USAGE: &'static str =
        "[--smoke] [--stable] [--verbose|-v] [--markdown] [--trace <path>] [--out <path>]";

    /// Parses the arguments that follow the experiment name.
    ///
    /// # Errors
    ///
    /// An argument that is not one of the flags above, or `--trace` /
    /// `--out` without a value: a typo such as `--stabel` must not
    /// quietly write an un-pinned snapshot.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<ExpOptions, String> {
        let mut args = args.into_iter();
        let mut opts = ExpOptions::default();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a path"));
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--verbose" | "-v" => opts.verbose = true,
                "--markdown" => opts.markdown = true,
                "--stable" => opts.stable = true,
                "--trace" => opts.trace_path = Some(value()?),
                "--out" => opts.out_path = Some(value()?),
                _ => return Err(format!("unknown argument `{arg}`")),
            }
        }
        Ok(opts)
    }
}

/// Runs one experiment end to end: enables tracing when `--trace` asks
/// for it, executes `produce`, folds the tables, the global metrics
/// registry, trace-drop accounting and any stashed v2 sections into a
/// [`Snapshot`], and writes it to `BENCH_<exp>.json` (or
/// `opts.out_path`). Returns the snapshot.
pub fn run(
    exp: &str,
    opts: &ExpOptions,
    produce: impl FnOnce(&ExpOptions) -> Vec<Table>,
) -> Snapshot {
    let tracer = hpop_obs::tracer();
    // Only a run that asked for a trace pays for one: an enabled
    // tracer builds every instrumented call's event into the ring
    // whether or not a sink will ever read it.
    if let Some(path) = &opts.trace_path {
        match JsonlSink::create(path) {
            Ok(sink) => {
                tracer.add_sink(Box::new(sink));
                tracer.enable();
            }
            Err(e) => eprintln!("exp {exp}: cannot open trace file {path}: {e}"),
        }
    }
    event!(tracer, 0, "bench", "exp.start", experiment = exp);

    let started = Instant::now();
    let tables = produce(opts);
    let wall_ms = if opts.stable {
        0.0
    } else {
        started.elapsed().as_secs_f64() * 1e3
    };

    let metrics = hpop_obs::metrics();
    metrics.gauge("exp.wall_ms").set(wall_ms);
    metrics.counter("exp.tables").add(tables.len() as u64);
    // Ring-overflow accounting: every snapshot says how much telemetry
    // was *lost*, so a suspiciously clean run can be told apart from a
    // run that silently dropped its evidence.
    let trace_dropped = metrics.counter("obs.trace.dropped");
    trace_dropped.add(tracer.dropped().saturating_sub(trace_dropped.get()));
    let span_dropped = metrics.counter("obs.span.dropped");
    span_dropped.add(
        hpop_obs::spans()
            .dropped()
            .saturating_sub(span_dropped.get()),
    );
    let rows_hist = metrics.histogram("exp.table.rows");
    for table in &tables {
        metrics.counter("exp.rows").add(table.len() as u64);
        rows_hist.record(table.len() as u64);
        event!(
            tracer,
            0,
            "bench",
            "exp.table",
            id = table.id,
            title = table.title.as_str(),
            rows = table.len() as u64
        );
    }

    let mut snap = metrics.snapshot(exp);
    if opts.stable {
        // `hpop_obs::span!` guards record wall-clock nanoseconds; by
        // convention those histograms (and only those) end in `_ns`.
        for (_, h) in snap
            .histograms
            .iter_mut()
            .filter(|(name, _)| name.ends_with("_ns"))
        {
            *h = HistogramSummary {
                count: h.count,
                min: 0,
                max: 0,
                mean: 0.0,
                p50: 0,
                p90: 0,
                p99: 0,
                saturated: 0,
            };
        }
    }
    snap.set_series(hpop_obs::series_registry());
    if let Some(report) = PENDING_ATTRIBUTION.lock().unwrap().take() {
        snap.latency_attribution = Some(report);
    }
    snap.slo_breaches
        .append(&mut PENDING_BREACHES.lock().unwrap());
    snap.set_extra(
        "tables",
        Value::Arr(tables.iter().map(table_to_value).collect()),
    );

    let out = opts
        .out_path
        .clone()
        .unwrap_or_else(|| format!("BENCH_{exp}.json"));
    if let Err(e) = snap.write_to(&out) {
        eprintln!("exp {exp}: cannot write {out}: {e}");
        std::process::exit(1);
    }
    event!(tracer, 0, "bench", "exp.complete", path = out.as_str());
    tracer.flush();

    if opts.verbose {
        for table in &tables {
            if opts.markdown {
                println!("{}", table.to_markdown());
            } else {
                println!("{table}");
            }
        }
        eprintln!("wrote {out}");
    }
    snap
}

/// A table as a JSON value: `{"id", "title", "headers", "rows"}`.
fn table_to_value(t: &Table) -> Value {
    Value::Obj(vec![
        ("id".into(), Value::Str(t.id.into())),
        ("title".into(), Value::Str(t.title.clone())),
        (
            "headers".into(),
            Value::Arr(t.headers.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "rows".into(),
            Value::Arr(
                t.rows
                    .iter()
                    .map(|r| Value::Arr(r.iter().cloned().map(Value::Str).collect()))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn tiny_table() -> Table {
        let mut t = Table::new("T1", "tiny", &["k", "v"]);
        t.push(vec!["a".into(), "1".into()]);
        t.push(vec!["b".into(), "2".into()]);
        t
    }

    #[test]
    fn snapshot_written_and_parses_back() {
        let dir = std::env::temp_dir().join(format!("hpop_harness_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_harness_unit.json");
        let opts = ExpOptions {
            out_path: Some(out.to_string_lossy().into_owned()),
            ..ExpOptions::default()
        };
        let snap = run("harness_unit", &opts, |_| vec![tiny_table()]);
        assert!(
            !hpop_obs::tracer().is_enabled(),
            "a run without --trace must not pay for trace events"
        );
        assert_eq!(snap.counters["obs.trace.dropped"], 0);
        assert!(snap.counters["exp.tables"] >= 1);
        assert!(snap.histograms.contains_key("exp.table.rows"));

        let loaded = Snapshot::load(&out).unwrap();
        assert_eq!(loaded.experiment, "harness_unit");
        assert!(loaded.counters.contains_key("exp.tables"));
        let h = &loaded.histograms["exp.table.rows"];
        assert!(h.count >= 1 && h.p50 >= 1 && h.p99 >= h.p50);
        let tables = loaded
            .extra
            .iter()
            .find(|(k, _)| k == "tables")
            .map(|(_, v)| v.clone())
            .unwrap();
        match tables {
            Value::Arr(ts) => assert!(!ts.is_empty()),
            other => panic!("tables should be an array, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn parse(args: &[&str]) -> Result<ExpOptions, String> {
        ExpOptions::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn options_parse_every_flag() {
        assert_eq!(parse(&[]), Ok(ExpOptions::default()));
        let all = parse(&[
            "--smoke",
            "--stable",
            "-v",
            "--markdown",
            "--trace",
            "t.jsonl",
            "--out",
            "o.json",
        ]);
        assert_eq!(
            all,
            Ok(ExpOptions {
                smoke: true,
                verbose: true,
                markdown: true,
                trace_path: Some("t.jsonl".into()),
                out_path: Some("o.json".into()),
                stable: true,
            })
        );
        assert!(parse(&["--verbose"]).unwrap().verbose);
    }

    #[test]
    fn options_reject_typos_strays_and_missing_values() {
        assert!(parse(&["--stabel"]).unwrap_err().contains("--stabel"));
        assert!(parse(&["--stable", "chaos"]).unwrap_err().contains("chaos"));
        assert!(parse(&["--out"]).unwrap_err().contains("--out"));
        assert!(parse(&["--stable", "--trace"])
            .unwrap_err()
            .contains("--trace"));
    }
}

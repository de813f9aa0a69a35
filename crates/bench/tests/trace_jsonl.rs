//! `exp --trace <path>`: an experiment run through the harness writes
//! every span and event of the run as one JSON object per line.
//!
//! This is its own test binary because `--trace` enables the
//! process-wide span tracer, which must not leak into other tests.

use hpop_bench::experiments::e08_dcol_detour;
use hpop_bench::harness::{self, ExpOptions};
use hpop_netsim::units::MB;
use hpop_obs::json::{self, Value};

fn str_at<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

#[test]
fn exp_trace_writes_spans_and_events_as_jsonl() {
    let dir = std::env::temp_dir().join(format!("hpop_trace_jsonl_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let opts = ExpOptions {
        trace_path: Some(trace.to_string_lossy().into_owned()),
        out_path: Some(
            dir.join("BENCH_dcol_detour.json")
                .to_string_lossy()
                .into_owned(),
        ),
        ..ExpOptions::default()
    };
    let snap = harness::run("dcol_detour", &opts, |_| {
        vec![e08_dcol_detour::scheduler_table(MB)]
    });
    assert_eq!(snap.counters["obs.span.dropped"], 0);

    let text = std::fs::read_to_string(&trace).unwrap();
    let spans: Vec<Value> = text
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();

    let start = spans
        .iter()
        .find(|s| str_at(s, "stage") == Some("exp.start"))
        .expect("an exp.start event");
    assert_eq!(start.get("parent").and_then(Value::as_u64), Some(0));
    assert_eq!(start.get("start_us"), start.get("end_us"));
    let experiment = start.get("fields").and_then(|f| str_at(f, "experiment"));
    assert_eq!(experiment, Some("dcol_detour"));

    // The DCol session's causal root, which only an enabled global
    // span tracer records.
    assert!(spans
        .iter()
        .any(|s| str_at(s, "service") == Some("dcol") && str_at(s, "stage") == Some("request")));
    std::fs::remove_dir_all(&dir).ok();
}

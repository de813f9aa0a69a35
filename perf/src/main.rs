//! `perf` — the repo's benchmark of record.
//!
//! Five named workloads, four bounded end-to-end metrics, ~100
//! per-layer metrics and a traced run. See `README.md` beside this
//! crate for what each workload is for and what it bypasses.
//!
//! Two command-line shapes:
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1     the driver's contract
//! perf run W | all | list | selfcheck                    for people
//! ```
//!
//! Either way each pass of a workload runs in a child process of its
//! own (`perf pass …`): the global `hpop_obs::metrics()` registry, the
//! allocator counters, CPU time and `VmHWM` then belong to one workload.

mod alloc;
mod catalog;
mod harness;
mod micro;
mod stats;
mod steady;
mod trace;
mod workloads;

use catalog::{Better, Source, END_TO_END, LAYERS, WORKLOADS};
use harness::PassConfig;
use hpop_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Default seed (the issue's).
const DEFAULT_SEED: u64 = 11;
/// Default length of the measured window, seconds.
const DEFAULT_SECONDS: f64 = 10.0;
/// `--smoke` divides op counts by this.
const SMOKE_DIVISOR: f64 = 20.0;
/// Set-ups per untraced pass; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str = "\
usage:
  perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
  perf run <workload> [--seed N] [--seconds S] [--smoke] [--trace out.json]
  perf all [--seed N] [--seconds S] [--smoke] [--trace-dir DIR]
  perf list [--json]
  perf selfcheck [--workload W] [--runs N] [--seed N] [--seconds S]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perf: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `--flag value` pairs plus positionals.
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(args: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            positional: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    out.flags.insert(name.to_owned(), "1".to_owned());
                }
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.flags.insert(name.to_owned(), value.clone());
                }
                None => out.positional.push(a.clone()),
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v}")),
            None => Ok(default),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.get("seconds", DEFAULT_SECONDS)?;
        if !(s > 0.0 && s <= 600.0) {
            return Err(format!("--seconds out of range: {s}"));
        }
        Ok(if self.flags.contains_key("smoke") {
            s / SMOKE_DIVISOR
        } else {
            s
        })
    }

    fn workload(&self, name: &str) -> Result<&'static str, String> {
        catalog::workload(name)
            .map(|w| w.name)
            .ok_or_else(|| format!("unknown workload {name} (try `perf list`)"))
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(first) = args.first() else {
        return Err("no command".into());
    };
    if first.starts_with("--") {
        return contract(&Args::parse(args, &[])?);
    }
    let rest = Args::parse(&args[1..], &["smoke", "json"])?;
    match first.as_str() {
        "pass" => pass(&rest),
        "burn" => burn(),
        "run" => {
            let name = rest.positional.first().ok_or("run needs a workload")?;
            let w = rest.workload(name)?;
            let trace = rest.flags.get("trace").cloned();
            Ok(human_run(
                w,
                rest.get("seed", DEFAULT_SEED)?,
                rest.seconds()?,
                trace,
            ))
        }
        "all" => {
            let mut worst = ExitCode::SUCCESS;
            for w in &WORKLOADS {
                let trace = rest
                    .flags
                    .get("trace-dir")
                    .map(|d| format!("{d}/{}.json", w.name));
                if human_run(
                    w.name,
                    rest.get("seed", DEFAULT_SEED)?,
                    rest.seconds()?,
                    trace,
                ) != ExitCode::SUCCESS
                {
                    worst = ExitCode::FAILURE;
                }
            }
            Ok(worst)
        }
        "list" => {
            if rest.flags.contains_key("json") {
                print!("{}", benchmark_json().to_json_pretty());
            } else {
                list();
            }
            Ok(ExitCode::SUCCESS)
        }
        "selfcheck" => selfcheck(&rest),
        other => Err(format!("unknown command {other}")),
    }
}

// ---------------------------------------------------------------------
// One pass, in this process (the child side).

fn pass(args: &Args) -> Result<ExitCode, String> {
    let name = args.positional.first().ok_or("pass needs a workload")?;
    let workload = args.workload(name)?;
    let cfg = PassConfig {
        seed: args.get("seed", DEFAULT_SEED)?,
        seconds: args.get("seconds", DEFAULT_SECONDS)?,
        traced: args.get("traced", 0u8)? != 0,
        setups: args.get("setups", 1usize)?,
        trace_file: args.flags.get("trace-file").cloned(),
    };
    let report = workloads::run(workload, &cfg);
    let problems = harness::audit(workload, cfg.traced, &report);
    if !problems.is_empty() {
        return Err(format!(
            "{workload}: catalog mismatch: {}",
            problems.join(", ")
        ));
    }
    println!("{}", report.to_json().to_json());
    Ok(ExitCode::SUCCESS)
}

/// Spins until killed, or until the parent is gone (re-parented to
/// init), so that a crashed pass cannot leave spinners behind. See
/// `attic_loopback::Burners` for why this exists.
fn burn() -> Result<ExitCode, String> {
    let parent = || {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let after = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
        after
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|p| p.parse::<u32>().ok())
    };
    let born_to = parent();
    let mut x = 1u64;
    loop {
        for _ in 0..50_000_000u32 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        if parent() != born_to {
            return Ok(ExitCode::SUCCESS);
        }
    }
}

// ---------------------------------------------------------------------
// Orchestration (the parent side).

/// What a child pass printed.
#[derive(Clone, Debug, Default)]
struct PassResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn spawn_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
    trace_file: Option<&str>,
) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["pass", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .args(["--setups", &setups.to_string()]);
    if let Some(path) = trace_file {
        cmd.args(["--trace-file", path]);
    }
    // `output` waits for the child, so no process outlives this call.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} pass failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("pass printed nothing")?;
    let v = json::parse(line).map_err(|e| format!("pass printed bad JSON: {e:?}"))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("pass result lacks {k}"))
    };
    let mut result = PassResult {
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics: BTreeMap::new(),
    };
    for (name, value) in v
        .get("metrics")
        .and_then(Value::entries)
        .ok_or("no metrics")?
    {
        result
            .metrics
            .insert(name.clone(), value.as_f64().ok_or("non-numeric metric")?);
    }
    Ok(result)
}

/// Both passes of one workload, merged by the catalog's rules.
struct Outcome {
    attempted: u64,
    failed: u64,
    end_to_end: BTreeMap<String, f64>,
    /// Only what the workload defines and the passes that ran provide.
    layers: BTreeMap<String, f64>,
    /// Exact metrics on which the two passes disagree.
    mismatches: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }
}

fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    untraced_setups: usize,
    trace_file: Option<&str>,
) -> Result<Outcome, String> {
    let untraced = spawn_pass(workload, seed, seconds, false, untraced_setups, None)?;
    let traced = match trace_file {
        Some(path) => Some(spawn_pass(workload, seed, seconds, true, 1, Some(path))?),
        None => None,
    };
    let mut out = Outcome {
        attempted: untraced.attempted,
        failed: untraced.failed + traced.as_ref().map_or(0, |t| t.failed),
        end_to_end: BTreeMap::new(),
        layers: BTreeMap::new(),
        mismatches: Vec::new(),
    };
    for m in &END_TO_END {
        // End-to-end metrics always come from the untraced pass.
        out.end_to_end
            .insert(m.name.to_owned(), untraced.metrics[m.name]);
    }
    for m in LAYERS.iter().filter(|m| m.defined_on(workload)) {
        let u = untraced.metrics.get(m.name).copied();
        let t = traced.as_ref().and_then(|t| t.metrics.get(m.name).copied());
        let value = match m.source {
            Source::Exact => {
                if let (Some(u), Some(t)) = (u, t) {
                    if u != t {
                        out.mismatches
                            .push(format!("{}: untraced {u} != traced {t}", m.name));
                    }
                }
                u
            }
            Source::Untraced => u,
            Source::Traced => t,
        };
        if let Some(v) = value {
            out.layers.insert(m.name.to_owned(), v);
        }
    }
    if let Some(t) = &traced {
        let (u, t) = (untraced.metrics["ops_per_s"], t.metrics["ops_per_s"]);
        out.layers
            .insert("bench.trace_overhead_bp".to_owned(), (u - t) / u * 10_000.0);
    }
    Ok(out)
}

/// Where trace files go when the caller did not say: beside the
/// executable, i.e. inside the build directory, which is ignored.
fn default_trace_path(workload: &str, seed: u64) -> String {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("traces")))
        .unwrap_or_else(|| "traces".into());
    dir.join(format!("{workload}-{seed}.json"))
        .to_string_lossy()
        .into_owned()
}

/// The driver's contract: one JSON object on the last line of stdout.
fn contract(args: &Args) -> Result<ExitCode, String> {
    let name = args.flags.get("workload").ok_or("--workload is required")?;
    let workload = args.workload(name)?;
    let seed = args.get("seed", DEFAULT_SEED)?;
    let seconds = args.seconds()?;
    let traced = args.get("trace", 0u8)? != 0;
    let trace_path = traced.then(|| default_trace_path(workload, seed));
    let setups = if traced { 1 } else { SETUPS };
    let outcome = measure(workload, seed, seconds, setups, trace_path.as_deref())?;

    let mut metrics = Value::obj();
    if traced {
        for m in LAYERS {
            // Every per-layer name, every time: a layer this workload
            // never reaches did no work, which reads 0.
            let value = outcome.layers.get(m.name).copied().unwrap_or(0.0);
            metrics.set(m.name, metric_json(value, m.unit));
        }
    } else {
        for m in &END_TO_END {
            metrics.set(m.name, metric_json(outcome.end_to_end[m.name], m.unit));
        }
    }
    for mismatch in &outcome.mismatches {
        eprintln!("perf: exact metric differs between passes: {mismatch}");
    }
    let mut result = Value::obj();
    result
        .set("correct", outcome.correct())
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    println!("{}", result.to_json());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn metric_json(value: f64, unit: &str) -> Value {
    let mut v = Value::obj();
    v.set("value", value).set("unit", unit);
    v
}

// ---------------------------------------------------------------------
// For people.

fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "rustc unknown".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("nproc={nproc} {rustc} profile={profile}")
}

fn human_run(workload: &'static str, seed: u64, seconds: f64, trace: Option<String>) -> ExitCode {
    println!(
        "== {workload}  seed={seed} seconds={seconds}  [{}]",
        host_fingerprint()
    );
    let outcome = match measure(workload, seed, seconds, SETUPS, trace.as_deref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("  {:<42} {:>16}  unit", "end-to-end metric", "value");
    for m in &END_TO_END {
        println!(
            "  {:<42} {:>16.4}  {}",
            m.name, outcome.end_to_end[m.name], m.unit
        );
    }
    println!("  {:<42} {:>16}  unit", "per-layer metric", "value");
    for m in LAYERS {
        if let Some(v) = outcome.layers.get(m.name) {
            println!("  {:<42} {:>16.4}  {}", m.name, v, m.unit);
        }
    }
    if trace.is_none() {
        println!("  (span-derived and isolated per-layer metrics need --trace <file>)");
    }
    println!(
        "  attempted={} failed={} correct={}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for m in &outcome.mismatches {
        println!("  EXACT METRIC DIFFERS BETWEEN PASSES: {m}");
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<22} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (all workloads; bound = allowed worsening):");
    for m in &END_TO_END {
        println!(
            "  {:<16} {:<5} {:<7} bound {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nper-layer metrics (-> the end-to-end metric each should move):");
    for m in LAYERS {
        let on = if m.on.is_empty() {
            "all".to_owned()
        } else {
            m.on.join(",")
        };
        println!(
            "  {:<42} {:<6} {:<7} {:<9} [{}]\n      -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            format!("{:?}", m.source).to_lowercase(),
            on,
            m.moves
        );
    }
}

/// `BENCHMARK.json`, generated from the catalog.
fn benchmark_json() -> Value {
    let strs = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::from(*s)).collect());
    let mut v = Value::obj();
    v.set(
        "command",
        strs(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "perf/Cargo.toml",
            "--",
        ]),
    );
    v.set("paths", strs(&["perf"]));
    v.set("run_seconds", DEFAULT_SECONDS as u64);
    v.set(
        "workloads",
        Value::Arr(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Value::obj();
                    o.set("name", w.name).set("why", w.why);
                    o
                })
                .collect(),
        ),
    );
    v.set(
        "end_to_end",
        Value::Arr(
            END_TO_END
                .iter()
                .map(|m| {
                    let mut o = Value::obj();
                    o.set("name", m.name)
                        .set("unit", m.unit)
                        .set("better", m.better.as_str())
                        .set("bound", m.bound);
                    o
                })
                .collect(),
        ),
    );
    v.set(
        "per_layer",
        Value::Arr(
            LAYERS
                .iter()
                .map(|m| {
                    let mut o = Value::obj();
                    o.set("name", m.name)
                        .set("unit", m.unit)
                        .set("better", m.better.as_str());
                    o
                })
                .collect(),
        ),
    );
    v
}

/// Two sets of runs of the same code must agree within the benchmark's
/// own bounds, and every exact metric must repeat exactly.
fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    let runs: usize = args.get("runs", 5)?;
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let seed = args.get("seed", DEFAULT_SEED)?;
    let seconds = args.seconds()?;
    let only = args
        .flags
        .get("workload")
        .map(|w| args.workload(w))
        .transpose()?;
    println!(
        "selfcheck: 2 sets x {runs} runs, seed={seed} seconds={seconds}  [{}]",
        host_fingerprint()
    );
    println!(
        "{:<20} {:<14} {:>34} {:>34} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "set A  q1 / median / q3",
        "set B  q1 / median / q3",
        "spread",
        "gap",
        "bound"
    );
    let mut ok = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut sets: [Vec<PassResult>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for _ in 0..runs {
                set.push(spawn_pass(w.name, seed, seconds, false, SETUPS, None)?);
            }
        }
        for m in &END_TO_END {
            let col = |set: &[PassResult]| -> Vec<f64> {
                set.iter().map(|r| r.metrics[m.name]).collect()
            };
            let (a, b) = (
                stats::quartiles(&col(&sets[0])),
                stats::quartiles(&col(&sets[1])),
            );
            // Signed so that positive means set B is worse than set A.
            let raw = (b.1 - a.1) / a.1;
            let gap = if m.better == Better::Higher {
                -raw
            } else {
                raw
            };
            let spread = ((a.2 - a.0) / a.1).max((b.2 - b.0) / b.1);
            let pass = gap.abs() <= m.bound;
            ok &= pass;
            let cell = |q: (f64, f64, f64)| format!("{:.4} / {:.4} / {:.4}", q.0, q.1, q.2);
            println!(
                "{:<20} {:<14} {:>34} {:>34} {:>6.1}% {:>+6.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                cell(a),
                cell(b),
                spread * 100.0,
                gap * 100.0,
                m.bound * 100.0,
                if pass { "ok" } else { "GAP EXCEEDS BOUND" }
            );
        }
        let all: Vec<&PassResult> = sets.iter().flatten().collect();
        let mut exact_ok = all.iter().all(|r| r.failed == 0);
        for m in LAYERS
            .iter()
            .filter(|m| m.source == Source::Exact && m.defined_on(w.name))
        {
            let first = all[0].metrics.get(m.name);
            if all.iter().any(|r| r.metrics.get(m.name) != first) {
                println!(
                    "{:<20} {:<14} differs between runs of one seed",
                    w.name, m.name
                );
                exact_ok = false;
            }
        }
        println!(
            "{:<20} exact metrics across {} runs: {}",
            w.name,
            all.len(),
            if exact_ok {
                "identical, 0 failed ops"
            } else {
                "NOT IDENTICAL"
            }
        );
        ok &= exact_ok;
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_benchmark_json_is_within_the_contract_limits() {
        let v = benchmark_json();
        let text = v.to_json_pretty();
        assert!(text.len() < 64 * 1024);
        let cmd = v.get("command").and_then(Value::items).unwrap();
        assert!(cmd.len() <= 32);
        for part in cmd {
            let s = part.as_str().unwrap();
            assert!(s.len() <= 200 && !s.starts_with('/') && !s.contains(".."));
        }
        let secs = v.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&secs));
    }

    #[test]
    fn flags_parse_in_both_shapes() {
        let a: Vec<String> = [
            "--workload",
            "metro_flows",
            "--seed",
            "5",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = Args::parse(&a, &[]).unwrap();
        assert_eq!(args.get("seed", 0u64).unwrap(), 5);
        assert_eq!(args.seconds().unwrap(), 2.0);
        assert!(args.workload("metro_flows").is_ok());
        assert!(args.workload("nope").is_err());
        let b: Vec<String> = ["attic_loopback", "--smoke"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&b, &["smoke"]).unwrap();
        assert_eq!(args.positional, ["attic_loopback"]);
        assert_eq!(args.seconds().unwrap(), DEFAULT_SECONDS / SMOKE_DIVISOR);
        assert!(Args::parse(&["--seed".to_string()], &[]).is_err());
    }
}

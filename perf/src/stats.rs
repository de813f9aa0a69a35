//! Estimators and host probes shared by every workload.
//!
//! The box this runs on is shared: a CPU-bound loop moves by tens of
//! percent between back-to-back runs, and interference only ever makes
//! a batch slower. So throughput is taken from the lower quartile of
//! per-batch cost, tails are reported only as far as the sample
//! supports them, and CPU time comes from `/proc/self/stat` rather
//! than from the wall clock.

use std::time::Duration;

/// Nearest-rank selection on an ascending slice: the smallest value
/// with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile (in hundredths of a percent, at most 9900)
/// that still leaves at least ten samples beyond it, or `None` when the
/// sample cannot support any tail at all (fewer than 20 samples).
pub fn supported_tail_pct_x100(samples: usize) -> Option<u32> {
    if samples < 20 {
        return None;
    }
    // Ten samples beyond the selected rank: rank <= n - 10.
    let q = (samples - 10) as f64 / samples as f64;
    let pct = (q * 10_000.0).floor() as u32;
    Some(pct.min(9_900))
}

/// Median and supported tail of `samples` (sorted in place).
/// Returns `(p50, tail, tail_pct_x100)`; with too few samples for any
/// tail the maximum is returned and the percentile reads 0.
pub fn median_and_tail(samples: &mut [f64]) -> (f64, f64, u32) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let p50 = nearest_rank(samples, 0.5);
    match supported_tail_pct_x100(samples.len()) {
        Some(pct) => (p50, nearest_rank(samples, f64::from(pct) / 10_000.0), pct),
        None => (p50, samples[samples.len() - 1], 0),
    }
}

/// Operations per wall-second from per-batch `(ops, wall)` pairs: the
/// lower quartile of per-op cost, inverted. Interference only ever
/// slows a batch, so the fast quarter is the least contaminated view
/// of what the code costs; with equal op counts this is exactly
/// `batch_ops / lower-quartile batch wall time`.
///
/// # Panics
///
/// Panics when there are no batches or a batch did no work.
pub fn lower_quartile_ops_per_s(batches: &[(u64, Duration)]) -> f64 {
    let mut ns_per_op: Vec<f64> = batches
        .iter()
        .map(|&(ops, wall)| {
            assert!(ops > 0, "a batch did no work");
            wall.as_nanos() as f64 / ops as f64
        })
        .collect();
    ns_per_op.sort_by(|a, b| a.partial_cmp(b).expect("finite batch costs"));
    1e9 / nearest_rank(&ns_per_op, 0.25).max(1e-3)
}

/// Median of unsorted values (upper median for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    v[v.len() / 2]
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the rule the benchmark's acceptance
/// check uses, so `selfcheck` must agree with it.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Process CPU time (user + system) parsed from the text of
/// `/proc/<pid>/stat`. The command name may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Kernel clock ticks per second. Linux has reported 100 to user space
/// on every architecture since 2.6 regardless of the kernel's own HZ.
const USER_HZ: u64 = 100;

/// CPU time this process has used so far, all threads.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    let ticks = parse_stat_cpu_ticks(&stat).expect("well-formed /proc/self/stat");
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    parse_vm_hwm_kib(&status).expect("VmHWM present") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn lower_quartile_ignores_slow_batches() {
        // 8 batches of 1000 ops: six take 100 ms, two were interfered with.
        let mut b = vec![(1000u64, ms(100)); 6];
        b.push((1000, ms(300)));
        b.push((1000, ms(900)));
        assert_eq!(lower_quartile_ops_per_s(&b).round(), 10_000.0);
    }

    #[test]
    fn lower_quartile_is_per_op_when_batches_differ_in_size() {
        // Same cost per op, different op counts: the answer must not move.
        let b = [
            (500u64, ms(50)),
            (1000, ms(100)),
            (2000, ms(200)),
            (4000, ms(400)),
        ];
        assert_eq!(lower_quartile_ops_per_s(&b).round(), 10_000.0);
    }

    #[test]
    fn lower_quartile_picks_the_quarter_rank() {
        let b: Vec<(u64, Duration)> = (1..=8).map(|i| (1_000_000, ms(i * 1000))).collect();
        // ceil(0.25 * 8) = 2nd fastest batch: 2 s per million ops.
        assert_eq!(lower_quartile_ops_per_s(&b).round(), 500_000.0);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 needs 1000 samples: 990th value leaves exactly ten beyond.
        assert_eq!(supported_tail_pct_x100(1000), Some(9900));
        assert_eq!(supported_tail_pct_x100(5000), Some(9900));
        // 999 samples cannot support p99 ...
        assert!(supported_tail_pct_x100(999).unwrap() < 9900);
        // ... 275 samples support p96, 100 support p90, 20 the median.
        assert_eq!(supported_tail_pct_x100(275), Some(9636));
        assert_eq!(supported_tail_pct_x100(100), Some(9000));
        assert_eq!(supported_tail_pct_x100(20), Some(5000));
        assert_eq!(supported_tail_pct_x100(19), None);
    }

    #[test]
    fn median_and_tail_leaves_ten_beyond() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p50, tail, pct) = median_and_tail(&mut v);
        assert_eq!(p50, 100.0);
        assert_eq!(pct, 9500);
        assert_eq!(tail, 190.0);
        let mut few = vec![3.0, 1.0, 2.0];
        assert_eq!(median_and_tail(&mut few), (2.0, 3.0, 0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            (15.0, 30.0, 45.0)
        );
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let stat = "4242 (perf) run) S 1 4242 4242 0 -1 4194304 1000 0 0 0 \
                    731 52 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 52));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tperf\n"), None);
    }

    #[test]
    fn live_probes_read_this_process() {
        assert!(peak_rss_mib() > 0.5);
        let before = process_cpu();
        let mut x = 0u64;
        while process_cpu() == before {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        assert!(process_cpu() > before);
    }
}

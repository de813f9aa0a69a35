//! Host time on a shared VM, made steady enough to compare commits.
//!
//! Two things move wall and CPU time here by 10–30 % between
//! back-to-back runs of identical code, and neither is the code:
//!
//! - **Steal.** The hypervisor deschedules a vCPU; the guest's clocks
//!   keep running. `/proc/stat` reports it, in ticks.
//! - **Speed.** With no steal at all a fixed loop still runs 10–25 %
//!   slower for minutes at a time (a neighbour on the sibling
//!   hyper-thread, frequency). A reference loop run right before and
//!   right after an interval sees the same machine the interval saw.
//!
//! So every timed interval is reported as what it would have taken on
//! the undisturbed reference box: stolen time subtracted, the rest
//! scaled by `nominal reference time ÷ observed reference time`. The
//! raw values are reported next to the steadied ones.

use crate::stats;
use std::time::{Duration, Instant};

/// What the reference loops (`[cache, memory]`) take on the reference
/// box when nothing else runs. Only fixes the scale of the steadied numbers; every
/// comparison is between runs on one machine.
pub const REFERENCE_NOMINAL: [Duration; 2] =
    [Duration::from_micros(3_500), Duration::from_micros(6_000)];

/// A steadied interval is never reported shorter than this share of
/// its raw length: past that the corrections are not to be trusted.
const MAX_CORRECTION: f64 = 0.5;

/// Fixed pieces of work that belong to the benchmark, not to the system
/// under test. Two of them, because a neighbour slows cache-resident and
/// memory-bound code by different amounts:
///
/// - *cache*: an LCG walking a 256 KiB table (multiplies, dependent
///   loads that mostly hit L2);
/// - *memory*: a pointer chase around one random cycle through a 32 MiB
///   table (every step a dependent load that misses L2). The table is
///   resident in every pass, so `peak_rss_mb` includes its 32 MiB.
#[derive(Debug)]
pub struct ReferenceLoop {
    table: Vec<u64>,
    chain: Vec<u32>,
    at: u32,
}

/// Which reference loop.
pub const CACHE: usize = 0;
/// Which reference loop.
pub const MEMORY: usize = 1;
impl ReferenceLoop {
    const CACHE_STEPS: usize = 1_600_000;
    const CHAIN_ENTRIES: usize = 8 << 20;
    const MEMORY_STEPS: usize = 40_000;

    pub fn new() -> ReferenceLoop {
        // Sattolo's algorithm: one cycle through every entry, so the
        // chase never falls into a short loop that would fit in cache.
        let mut chain: Vec<u32> = (0..Self::CHAIN_ENTRIES as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..chain.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chain.swap(i, (x % i as u64) as usize);
        }
        ReferenceLoop {
            table: vec![1u64; 32 * 1024],
            chain,
            at: 0,
        }
    }

    /// Runs both loops once: `[cache, memory]` durations.
    pub fn run(&mut self) -> [Duration; 2] {
        let t = Instant::now();
        let n = self.table.len();
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..Self::CACHE_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 33) as usize % n;
            self.table[i] = self.table[i].wrapping_add(x).rotate_left(7);
        }
        std::hint::black_box(&mut self.table);
        let cache = t.elapsed();
        let t = Instant::now();
        let mut at = self.at;
        for _ in 0..Self::MEMORY_STEPS {
            at = self.chain[at as usize];
        }
        self.at = std::hint::black_box(at);
        [cache, t.elapsed()]
    }
}

/// Stolen time summed over all CPUs, in ticks, from the text of
/// `/proc/stat`.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

fn steal_now() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").expect("procfs is mounted");
    // Ticks are 1/100 s (USER_HZ). A kernel without steal accounting
    // has no such column: nothing stolen that we can see.
    Duration::from_millis(parse_steal_ticks(&stat).unwrap_or(0) * 10)
}

/// How a workload responds to the machine: set per workload, from
/// runs of unchanged code under varying interference.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// vCPUs the workload keeps busy (threads that never sleep). Steal
    /// is summed over all vCPUs; a closed loop spread over `busy` of
    /// them loses about `steal / busy` of wall time.
    pub busy_cpus: f64,
    /// Its time goes as `cache slowdown ^ cache × memory slowdown ^
    /// memory`: how much of it behaves like each reference loop.
    pub cache: f64,
    pub memory: f64,
}

/// One timed interval with everything needed to steady it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Interval {
    pub wall: Duration,
    /// Process CPU time (all threads) used during the interval.
    pub cpu: Duration,
    /// Time stolen from any vCPU during the interval.
    pub steal: Duration,
    /// Reference loops (`[cache, memory]`) right before and right after.
    pub reference: [[Duration; 2]; 2],
}

impl Interval {
    /// How much slower than nominal reference loop `which` ran around
    /// this interval (1.0 = nominal).
    pub fn slowdown(&self, which: usize) -> f64 {
        let mean = (self.reference[0][which] + self.reference[1][which]).as_secs_f64() / 2.0;
        (mean / REFERENCE_NOMINAL[which].as_secs_f64()).max(1e-3)
    }

    fn scale(&self, p: &Profile) -> f64 {
        self.slowdown(CACHE).powf(p.cache) * self.slowdown(MEMORY).powf(p.memory)
    }

    /// Wall time on the undisturbed reference box.
    pub fn steady_wall(&self, p: &Profile) -> Duration {
        let raw = self.wall.as_secs_f64();
        let unstolen = raw - self.steal.as_secs_f64() / p.busy_cpus.max(1.0);
        Duration::from_secs_f64((unstolen / self.scale(p)).max(raw * MAX_CORRECTION))
    }

    /// CPU time on the undisturbed reference box. Whether the guest
    /// charges a descheduled vCPU's time to the task that was running on
    /// it was measured both ways on this box, so no steal is subtracted
    /// from CPU time; instead it is capped at what the `busy` vCPUs can
    /// have delivered once the stolen time is taken out. Either way the
    /// result is the time the code really ran.
    pub fn steady_cpu(&self, p: &Profile) -> Duration {
        let delivered = self.wall.as_secs_f64() * p.busy_cpus.max(1.0) - self.steal.as_secs_f64();
        let raw = self.cpu.as_secs_f64();
        Duration::from_secs_f64((raw.min(delivered) / self.scale(p)).max(raw * MAX_CORRECTION))
    }
}

/// Times intervals, running the reference loop around each.
#[derive(Debug)]
pub struct Meter {
    reference: ReferenceLoop,
    /// The last reference run and when it ended: back-to-back
    /// intervals share the run between them.
    last: Option<(Instant, [Duration; 2])>,
}

impl Meter {
    pub fn new() -> Meter {
        Meter {
            reference: ReferenceLoop::new(),
            last: None,
        }
    }

    /// Runs `f` and measures it.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> (R, Interval) {
        let before = match self.last {
            Some((ended, took)) if ended.elapsed() < Duration::from_millis(2) => took,
            _ => self.reference.run(),
        };
        let steal0 = steal_now();
        let cpu0 = stats::process_cpu();
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed();
        let cpu = stats::process_cpu().saturating_sub(cpu0);
        let steal = steal_now().saturating_sub(steal0);
        let after = self.reference.run();
        self.last = Some((Instant::now(), after));
        let interval = Interval {
            wall,
            cpu,
            steal,
            reference: [before, after],
        };
        (out, interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    const ONE_CPU: Profile = Profile {
        busy_cpus: 1.0,
        cache: 1.0,
        memory: 0.0,
    };

    #[test]
    fn steal_column_is_the_eighth_value() {
        let stat = "cpu  56242 0 25707 343865 9337 0 6169 27214 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(27_214));
        assert_eq!(parse_steal_ticks("cpu  1 2 3 4\n"), None);
        assert_eq!(parse_steal_ticks("intr 5\n"), None);
    }

    #[test]
    fn an_undisturbed_interval_is_reported_as_measured() {
        let i = Interval {
            wall: ms(400),
            cpu: ms(380),
            steal: ms(0),
            reference: [REFERENCE_NOMINAL; 2],
        };
        assert_eq!(i.steady_wall(&ONE_CPU), ms(400));
        assert_eq!(i.steady_cpu(&ONE_CPU), ms(380));
    }

    #[test]
    fn stolen_time_is_taken_out_and_a_slow_machine_scaled_back() {
        // 100 ms stolen, then the cache loop ran 25 % slow.
        let slow = |f: f64| {
            [
                REFERENCE_NOMINAL[CACHE].mul_f64(f),
                REFERENCE_NOMINAL[MEMORY],
            ]
        };
        let i = Interval {
            wall: ms(600),
            cpu: ms(600),
            steal: ms(100),
            reference: [slow(1.2), slow(1.3)],
        };
        assert!((i.slowdown(CACHE) - 1.25).abs() < 1e-9);
        assert!((i.slowdown(MEMORY) - 1.0).abs() < 1e-9);
        assert_eq!(i.steady_wall(&ONE_CPU).as_millis(), 400);
        assert_eq!(i.steady_cpu(&ONE_CPU).as_millis(), 400);
        // A guest that does not charge stolen time to the task reports
        // 500 ms of CPU for the same interval: same answer.
        let uncharged = Interval { cpu: ms(500), ..i };
        assert_eq!(uncharged.steady_cpu(&ONE_CPU).as_millis(), 400);
        // Two busy vCPUs: a closed loop loses half the summed steal.
        let two = Profile {
            busy_cpus: 2.0,
            ..ONE_CPU
        };
        assert_eq!(i.steady_wall(&two).as_millis(), 440);
        // A workload that only follows the memory loop is not scaled.
        let memory_bound = Profile {
            busy_cpus: 1.0,
            cache: 0.0,
            memory: 1.0,
        };
        assert_eq!(i.steady_wall(&memory_bound).as_millis(), 500);
    }

    #[test]
    fn corrections_are_capped() {
        let i = Interval {
            wall: ms(100),
            cpu: ms(100),
            steal: ms(500),
            reference: [REFERENCE_NOMINAL; 2],
        };
        assert_eq!(i.steady_wall(&ONE_CPU), ms(50));
        assert_eq!(i.steady_cpu(&ONE_CPU), ms(50));
    }

    #[test]
    fn meter_measures_and_shares_reference_runs() {
        let mut m = Meter::new();
        let (x, a) = m.measure(|| 7);
        let (_, b) = m.measure(|| std::thread::sleep(ms(1)));
        assert_eq!(x, 7);
        assert!(a.reference.iter().flatten().all(|r| *r > Duration::ZERO));
        assert_eq!(
            b.reference[0], a.reference[1],
            "back-to-back intervals share a run"
        );
        assert!(b.wall >= ms(1));
    }

    #[test]
    fn the_memory_chain_is_one_cycle() {
        let r = ReferenceLoop::new();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = r.chain[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, r.chain.len());
    }
}

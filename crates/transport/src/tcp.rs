//! TCP configuration and analytic performance math.
//!
//! §IV-D: "over a 1 Gbps network path with a 50 msec RTT a TCP connection
//! will require 10 RTTs and over 14 MB of data before utilizing the
//! available capacity." [`slow_start_rampup`] reproduces that arithmetic
//! exactly; [`transfer_duration`] extends it to whole transfers, and
//! [`mathis_throughput`] bounds steady-state rate under loss.

use hpop_netsim::time::SimDuration;
use hpop_netsim::units::Bandwidth;

/// Maximum segment size in bytes (1460 for Ethernet-framed IPv4).
pub const MSS: u32 = 1460;

/// TCP endpoint parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpConfig {
    /// Initial congestion window in segments (RFC 6928 allows 10).
    pub init_cwnd_segments: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            init_cwnd_segments: 10,
        }
    }
}

impl TcpConfig {
    /// The paper's era: a conservative initial window of 4 segments
    /// (pre-RFC 6928 kernels), making ramp-up even slower.
    pub fn conservative() -> Self {
        TcpConfig {
            init_cwnd_segments: 4,
        }
    }

    /// Initial congestion window in bytes.
    pub fn init_cwnd_bytes(&self) -> u64 {
        MSS as u64 * self.init_cwnd_segments as u64
    }
}

/// The result of a slow-start ramp-up computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RampUp {
    /// Round trips of exponential growth before the window covers the
    /// bandwidth-delay product.
    pub rtts: u32,
    /// Bytes transferred *before* the connection reaches full rate.
    pub bytes_before_full: u64,
    /// Wall-clock time spent ramping (`rtts × rtt`).
    pub time_to_full: SimDuration,
    /// The bandwidth-delay product the window had to reach.
    pub bdp_bytes: u64,
}

/// Computes how long (RTTs, bytes) a slow-starting connection needs
/// before it can utilize a path of capacity `target` and round-trip time
/// `rtt` (§IV-D's headline arithmetic).
///
/// ```
/// use hpop_transport::tcp::{slow_start_rampup, TcpConfig};
/// use hpop_netsim::prelude::*;
///
/// // The paper's example: 1 Gbps, 50 ms RTT.
/// let r = slow_start_rampup(&TcpConfig::default(), SimDuration::from_millis(50), Bandwidth::gbps(1.0));
/// assert_eq!(r.rtts, 9);                       // ~10 RTTs incl. the first window
/// assert!(r.bytes_before_full > 7_000_000);    // megabytes spent ramping
/// ```
pub fn slow_start_rampup(cfg: &TcpConfig, rtt: SimDuration, target: Bandwidth) -> RampUp {
    let bdp = target.bdp_bytes(rtt).ceil() as u64;
    let mut cwnd = cfg.init_cwnd_bytes();
    let mut sent = 0u64;
    let mut rtts = 0u32;
    while cwnd < bdp {
        sent += cwnd;
        cwnd = cwnd.saturating_mul(2);
        rtts += 1;
        if rtts > 64 {
            break; // window doubled past any real BDP; safety valve
        }
    }
    RampUp {
        rtts,
        bytes_before_full: sent,
        time_to_full: rtt * rtts as u64,
        bdp_bytes: bdp,
    }
}

/// Analytic duration of a `bytes`-long transfer over a clean path
/// (`bottleneck` capacity, `rtt` round-trip), including slow-start:
/// each RTT carries one congestion window until the window reaches the
/// BDP, after which the transfer proceeds at line rate.
///
/// Does not include connection establishment; add one `rtt` for the
/// SYN exchange if modeling a cold connection.
pub fn transfer_duration(
    cfg: &TcpConfig,
    bytes: u64,
    rtt: SimDuration,
    bottleneck: Bandwidth,
) -> SimDuration {
    if bytes == 0 {
        return SimDuration::ZERO;
    }
    let bdp = bottleneck.bdp_bytes(rtt).max(1.0) as u64;
    let mut cwnd = cfg.init_cwnd_bytes().min(bdp.max(1));
    let mut remaining = bytes;
    let mut elapsed = SimDuration::ZERO;
    // Exponential phase: one window per RTT.
    while cwnd < bdp {
        if remaining <= cwnd {
            // Final partial window: serialization of what's left plus the
            // propagation to the receiver (half RTT).
            return elapsed + bottleneck.time_to_send(remaining).min(rtt) + rtt / 2;
        }
        remaining -= cwnd;
        elapsed += rtt;
        cwnd = (cwnd * 2).min(bdp);
    }
    // Line-rate phase.
    elapsed + bottleneck.time_to_send(remaining) + rtt / 2
}

/// The Mathis et al. steady-state throughput bound for a loss rate `p`:
/// `rate = (MSS / RTT) * sqrt(3/2) / sqrt(p)`. Returns `None` for `p = 0`
/// (unbounded; the path capacity governs instead).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1)` or `rtt` is zero.
pub fn mathis_throughput(mss: u32, rtt: SimDuration, p: f64) -> Option<Bandwidth> {
    assert!(
        (0.0..1.0).contains(&p),
        "loss probability out of range: {p}"
    );
    assert!(!rtt.is_zero(), "rtt must be positive");
    if p == 0.0 {
        return None;
    }
    let rate_bytes = mss as f64 / rtt.as_secs_f64() * (1.5f64).sqrt() / p.sqrt();
    Some(Bandwidth::from_bps(rate_bytes * 8.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS: f64 = 1e9;

    #[test]
    fn paper_rampup_example() {
        // 1 Gbps * 50 ms = 6.25 MB BDP. From 14.6 KB, doubling: 9 RTTs.
        let r = slow_start_rampup(
            &TcpConfig::default(),
            SimDuration::from_millis(50),
            Bandwidth::gbps(1.0),
        );
        assert_eq!(r.bdp_bytes, 6_250_000);
        assert_eq!(r.rtts, 9);
        // Bytes sent during ramp: 14600 * (2^9 - 1) = 7,458,600.
        assert_eq!(r.bytes_before_full, 14_600 * 511);
        assert_eq!(r.time_to_full, SimDuration::from_millis(450));
    }

    #[test]
    fn paper_rampup_conservative_iw() {
        // With the era's IW4 the paper's "over 14 MB" figure emerges:
        // total data touched before full rate = sent + BDP ≈ 12-14 MB.
        let r = slow_start_rampup(
            &TcpConfig::conservative(),
            SimDuration::from_millis(50),
            Bandwidth::gbps(1.0),
        );
        assert_eq!(r.rtts, 11);
        let total = r.bytes_before_full + r.bdp_bytes;
        assert!(
            total > 14_000_000,
            "ramp consumed {total} bytes; paper says >14MB"
        );
    }

    #[test]
    fn zero_rtt_path_needs_no_ramp() {
        let r = slow_start_rampup(
            &TcpConfig::default(),
            SimDuration::ZERO,
            Bandwidth::gbps(1.0),
        );
        assert_eq!(r.rtts, 0);
        assert_eq!(r.bytes_before_full, 0);
    }

    #[test]
    fn small_transfer_never_reaches_line_rate() {
        let cfg = TcpConfig::default();
        let rtt = SimDuration::from_millis(50);
        let bw = Bandwidth::gbps(1.0);
        // A 100 KB transfer: ~3 windows (14.6 + 29.2 + 58.4 KB > 100 KB).
        let d = transfer_duration(&cfg, 100_000, rtt, bw);
        // Mostly RTT-bound: between 2 and 3.5 RTTs.
        let rtts = d.as_secs_f64() / rtt.as_secs_f64();
        assert!(rtts > 2.0 && rtts < 3.5, "took {rtts} RTTs");
        // The achieved rate is a tiny fraction of 1 Gbps — the paper's
        // point about why CCZ users never see their capacity.
        let rate = 100_000.0 * 8.0 / d.as_secs_f64();
        assert!(rate < 0.01 * GBPS, "rate {rate}");
    }

    #[test]
    fn huge_transfer_approaches_line_rate() {
        let cfg = TcpConfig::default();
        let rtt = SimDuration::from_millis(50);
        let bw = Bandwidth::gbps(1.0);
        let bytes = 10_000_000_000u64; // 10 GB
        let d = transfer_duration(&cfg, bytes, rtt, bw);
        let rate = bytes as f64 * 8.0 / d.as_secs_f64();
        assert!(rate > 0.98 * GBPS, "rate {rate}");
    }

    #[test]
    fn duration_monotonic_in_bytes() {
        let cfg = TcpConfig::default();
        let rtt = SimDuration::from_millis(20);
        let bw = Bandwidth::mbps(100.0);
        let mut last = SimDuration::ZERO;
        for bytes in [1u64, 10_000, 100_000, 1_000_000, 10_000_000] {
            let d = transfer_duration(&cfg, bytes, rtt, bw);
            assert!(d >= last, "bytes={bytes}");
            last = d;
        }
    }

    #[test]
    fn zero_bytes_is_instant() {
        assert_eq!(
            transfer_duration(
                &TcpConfig::default(),
                0,
                SimDuration::from_millis(50),
                Bandwidth::gbps(1.0)
            ),
            SimDuration::ZERO
        );
    }

    #[test]
    fn mathis_shape() {
        let rtt = SimDuration::from_millis(50);
        let r1 = mathis_throughput(1460, rtt, 0.01).unwrap();
        let r2 = mathis_throughput(1460, rtt, 0.04).unwrap();
        // Quadrupling loss halves throughput.
        assert!((r1.bits_per_sec() / r2.bits_per_sec() - 2.0).abs() < 1e-9);
        assert!(mathis_throughput(1460, rtt, 0.0).is_none());
    }

    #[test]
    #[should_panic(expected = "loss probability out of range")]
    fn mathis_validates_loss() {
        let _ = mathis_throughput(1460, SimDuration::from_millis(1), 1.0);
    }
}

//! Typed units: bandwidth and byte sizes.

use crate::time::SimDuration;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// One kilobyte (10^3 bytes).
pub const KB: u64 = 1_000;
/// One megabyte (10^6 bytes).
pub const MB: u64 = 1_000_000;
/// One gigabyte (10^9 bytes).
pub const GB: u64 = 1_000_000_000;

/// A data rate in bits per second.
///
/// The paper reasons in link-capacity units (1 Gbps homes, 10 Gbps
/// aggregation); this newtype keeps bits and bytes from being confused.
///
/// ```
/// use hpop_netsim::units::Bandwidth;
/// let fiber = Bandwidth::gbps(1.0);
/// assert_eq!(fiber.bits_per_sec(), 1e9);
/// assert_eq!(fiber.bytes_per_sec(), 1.25e8);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Constructs a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is negative or non-finite.
    pub fn from_bps(bps: f64) -> Self {
        assert!(bps.is_finite() && bps >= 0.0, "invalid bandwidth: {bps}");
        Bandwidth(bps)
    }

    /// Megabits per second.
    pub fn mbps(m: f64) -> Self {
        Self::from_bps(m * 1e6)
    }

    /// Gigabits per second.
    pub fn gbps(g: f64) -> Self {
        Self::from_bps(g * 1e9)
    }

    /// The rate in bits per second.
    pub fn bits_per_sec(self) -> f64 {
        self.0
    }

    /// The rate in bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }

    /// The rate in megabits per second (reporting convenience).
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Time needed to serialize `bytes` at this rate.
    ///
    /// Returns [`SimDuration::MAX`] for zero bandwidth (the transfer never
    /// finishes), and [`SimDuration::ZERO`] for zero bytes.
    pub fn time_to_send(self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        if self.0 <= 0.0 {
            return SimDuration::MAX;
        }
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.0)
    }

    /// The bandwidth-delay product, in bytes — how much data must be in
    /// flight to keep a path of this capacity and the given RTT full.
    /// Central to the paper's §IV-D ramp-up argument.
    pub fn bdp_bytes(self, rtt: SimDuration) -> f64 {
        self.bytes_per_sec() * rtt.as_secs_f64()
    }

    /// The smaller of two rates.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth::from_bps(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth::from_bps(self.0 / rhs)
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2}Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2}Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.2}Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0}bps", self.0)
        }
    }
}

/// Formats a byte count with a human-readable unit (reporting helper).
pub fn format_bytes(bytes: u64) -> String {
    if bytes >= GB {
        format!("{:.2}GB", bytes as f64 / GB as f64)
    } else if bytes >= MB {
        format!("{:.2}MB", bytes as f64 / MB as f64)
    } else if bytes >= KB {
        format!("{:.2}KB", bytes as f64 / KB as f64)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_serialization_time() {
        // 125 MB at 1 Gbps takes exactly 1 second.
        let t = Bandwidth::gbps(1.0).time_to_send(125 * MB);
        assert_eq!(t, SimDuration::from_secs(1));
    }

    #[test]
    fn zero_bandwidth_never_finishes() {
        assert_eq!(Bandwidth::ZERO.time_to_send(1), SimDuration::MAX);
        assert_eq!(Bandwidth::ZERO.time_to_send(0), SimDuration::ZERO);
    }

    #[test]
    fn bdp_matches_paper_example() {
        // §IV-D: 1 Gbps at 50 ms RTT needs ~6.25 MB in flight per RTT.
        let bdp = Bandwidth::gbps(1.0).bdp_bytes(SimDuration::from_millis(50));
        assert!((bdp - 6.25e6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn negative_bandwidth_rejected() {
        let _ = Bandwidth::from_bps(-5.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bandwidth::gbps(10.0).to_string(), "10.00Gbps");
        assert_eq!(Bandwidth::mbps(0.5).to_string(), "500.00Kbps");
        assert_eq!(format_bytes(14 * MB), "14.00MB");
    }

    #[test]
    fn arithmetic_saturates_at_zero() {
        let d = Bandwidth::mbps(1.0) - Bandwidth::mbps(2.0);
        assert_eq!(d, Bandwidth::ZERO);
    }
}

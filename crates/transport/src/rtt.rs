//! Smoothed round-trip-time estimation (RFC 6298's SRTT).
//!
//! MPTCP's default scheduler picks the subflow with the lowest smoothed
//! RTT — which is precisely the knob §IV-C's client turns by delaying
//! subflow-level ACKs. The estimator here is what both the server model
//! and the client steering logic consult.

use hpop_netsim::time::SimDuration;

/// EWMA smoothed-RTT estimator with RFC 6298's gain (α = 1/8). The
/// window model has no retransmission timer, so RTTVAR and the RTO are
/// not kept.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SrttEstimator {
    srtt: Option<SimDuration>,
}

impl SrttEstimator {
    /// A fresh estimator with no samples.
    pub fn new() -> Self {
        SrttEstimator { srtt: None }
    }

    /// Feeds one RTT measurement.
    pub fn observe(&mut self, sample: SimDuration) {
        self.srtt = Some(match self.srtt {
            None => sample,
            // srtt = 7/8 srtt + 1/8 sample
            Some(srtt) => {
                SimDuration::from_nanos((srtt.as_nanos() / 8) * 7 + sample.as_nanos() / 8)
            }
        });
    }

    /// The smoothed RTT, or `None` before the first sample.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = SrttEstimator::new();
        assert_eq!(e.srtt(), None);
        e.observe(SimDuration::from_millis(40));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(40)));
    }

    #[test]
    fn converges_to_stable_rtt() {
        let mut e = SrttEstimator::new();
        for _ in 0..100 {
            e.observe(SimDuration::from_millis(30));
        }
        let srtt = e.srtt().unwrap().as_millis_f64();
        assert!((srtt - 30.0).abs() < 0.5, "srtt {srtt}");
    }

    #[test]
    fn tracks_rtt_inflation() {
        // The §IV-C steering scenario: the client starts delaying ACKs by
        // 50 ms; the server's estimate rises toward the inflated value.
        let mut e = SrttEstimator::new();
        for _ in 0..20 {
            e.observe(SimDuration::from_millis(30));
        }
        for _ in 0..100 {
            e.observe(SimDuration::from_millis(80));
        }
        let srtt = e.srtt().unwrap().as_millis_f64();
        assert!(srtt > 75.0, "srtt only rose to {srtt}");
    }
}

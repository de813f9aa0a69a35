//! The workload generator's random source.

/// xorshift64* — deterministic, seedable, no deps. The experiment
/// drivers and micro-benches draw their workloads from it, so a seed
/// pins a committed snapshot's op sequence.
pub struct XorShift64(u64);

impl XorShift64 {
    /// A generator whose sequence is a function of `seed` alone.
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64(seed ^ 0x9E3779B97F4A7C15 | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform-ish in `[0, n)` (modulo bias is irrelevant at workload
    /// sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequence is part of the committed snapshots' contract
    /// (`BENCH_overload.json` replays byte-identically from it).
    #[test]
    fn sequence_is_pinned() {
        let mut r = XorShift64::new(24);
        let first: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            [0x97ba212f3b2fbd6c, 0x2255c0590331519c, 0x04952dc4fa8a8de3]
        );
        assert!(XorShift64::new(7).unit() < 1.0);
        assert!(XorShift64::new(7).below(10) < 10);
    }
}

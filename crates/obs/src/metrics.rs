//! Value-type measurement helpers: [`Counter`] and [`Cdf`].
//!
//! They live here so every crate (not just the simulator) shares one
//! vocabulary. The paper's CCZ study reports
//! per-second rate percentiles — [`Cdf`] reproduces that style of
//! result directly.

use std::fmt;

/// A monotonically increasing event/byte counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An empirical distribution supporting quantiles and exceedance
/// fractions — `fraction_above(x)` answers the paper's "CCZ users exceed
/// 10 Mbps only 0.1% of the time" style of question directly.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
    dirty: bool,
}

impl Cdf {
    /// An empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a distribution from an iterator of samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut c = Cdf::new();
        for s in samples {
            c.push(s);
        }
        c
    }

    /// Adds a sample. Non-finite samples are ignored.
    pub fn push(&mut self, v: f64) {
        if v.is_finite() {
            self.sorted.push(v);
            self.dirty = true;
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if self.dirty {
            self.sorted
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.dirty = false;
        }
    }

    /// The `q`-quantile (q in `[0,1]`), by nearest-rank; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        self.ensure_sorted();
        if self.sorted.is_empty() {
            return None;
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// The median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Fraction of samples strictly greater than `x`; zero when empty.
    pub fn fraction_above(&mut self, x: f64) -> f64 {
        self.ensure_sorted();
        if self.sorted.is_empty() {
            return 0.0;
        }
        let first_above = self.sorted.partition_point(|&v| v <= x);
        (self.sorted.len() - first_above) as f64 / self.sorted.len() as f64
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.to_string(), "42");
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn cdf_quantiles() {
        let mut c = Cdf::from_samples((1..=100).map(f64::from));
        assert_eq!(c.quantile(0.5), Some(50.0));
        assert_eq!(c.quantile(0.99), Some(99.0));
        assert_eq!(c.quantile(1.0), Some(100.0));
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert!((c.fraction_above(90.0) - 0.1).abs() < 1e-12);
        assert_eq!(c.mean(), 50.5);
    }

    #[test]
    fn cdf_ignores_non_finite() {
        let mut c = Cdf::new();
        c.push(f64::NAN);
        c.push(f64::INFINITY);
        c.push(1.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.median(), Some(1.0));
    }

    #[test]
    fn empty_cdf() {
        let mut c = Cdf::new();
        assert_eq!(c.quantile(0.5), None);
        assert_eq!(c.fraction_above(0.0), 0.0);
        assert_eq!(c.mean(), 0.0);
    }
}

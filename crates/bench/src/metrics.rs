//! The CCZ study's rate metrics (E1) over an ascending sample of
//! per-second rates.

/// The nearest-rank `q`-quantile of ascending `sorted`; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    let last = sorted.len().checked_sub(1);
    last.map_or(0.0, |last| sorted[rank.saturating_sub(1).min(last)])
}

/// The fraction of ascending `sorted` strictly above `x` — the study's
/// "exceeds 10 Mbps 0.1% of the time"; 0 when empty.
pub fn fraction_above(sorted: &[f64], x: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    (sorted.len() - sorted.partition_point(|&v| v <= x)) as f64 / sorted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_quantiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert!((fraction_above(&sorted, 90.0) - 0.1).abs() < 1e-12);
        // Strictly above: a sample equal to `x` does not count.
        assert_eq!(fraction_above(&sorted, 100.0), 0.0);
        assert_eq!(fraction_above(&sorted, 0.0), 1.0);
    }

    #[test]
    fn empty_cdf() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(fraction_above(&[], 0.0), 0.0);
    }
}

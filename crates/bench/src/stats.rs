//! Order statistics over the experiments' latency samples.

/// The `q`-quantile (nearest rank) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!(percentile(&v, 0.0) <= percentile(&v, 1.0));
    }
}

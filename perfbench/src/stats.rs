//! Order statistics used by the report: nearest-rank percentiles, medians
//! and the tail percentile the report may state for a sample.

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`: the
/// smallest value with at least `p` % of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// 1-based nearest rank of the `p`-th percentile in `n` values,
/// `ceil(p * n / 100)`; multiplying first keeps whole ranks exact.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Median as the nearest-rank 50th percentile, so it is always one of
/// the measured values.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(values, 50.0)
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples above it, with its value. `None` below forty
/// samples, where that percentile would be no tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 40 {
        return None;
    }
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| values.len() - rank(p, values.len()) >= 10)
        .map(|p| (p, nearest_rank(values, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_member_of_the_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 10.0), 1.0);
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 51.0), 6.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0, 4.0], 75.0), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 39]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
    }
}

//! Order statistics: medians, nearest-rank percentiles and the quartiles
//! the run-to-run spread is judged by.

/// Sorts a copy of `v` (total order, NaN last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 1-based nearest rank of percentile `p` over `n` samples: the smallest
/// rank whose cumulative share is at least `p`%.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest of `candidates` (ascending percentiles) that leaves at
/// least `min_beyond` samples beyond it, or `None` when even the lowest
/// does not: a tail is only reported where enough samples back it.
pub fn highest_supported(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= min_beyond)
}

/// Median (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads here match the ones an external checker computes.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(v);
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        // 10 samples: p95 is the 10th value, p50 the 5th.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 95.0), 10.0);
        assert_eq!(percentile(&ten, 50.0), 5.0);
    }

    #[test]
    fn tail_needs_samples_beyond_it() {
        // p95 over 400 samples is rank 380: exactly 20 beyond.
        assert_eq!(beyond(400, 95.0), 20);
        assert_eq!(beyond(399, 95.0), 19);
        assert_eq!(
            highest_supported(400, &[50.0, 90.0, 95.0, 99.0], 20),
            Some(95.0)
        );
        assert_eq!(
            highest_supported(2000, &[50.0, 90.0, 95.0, 99.0], 20),
            Some(99.0)
        );
        assert_eq!(
            highest_supported(100, &[50.0, 90.0, 95.0, 99.0], 10),
            Some(90.0)
        );
        assert_eq!(highest_supported(15, &[90.0, 95.0], 10), None);
        assert_eq!(highest_supported(0, &[50.0], 0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 1], n=4) == [0.25, 2.5, 4.75]
        assert_eq!(quartiles(&[4.0, 1.0]), (0.25, 2.5, 4.75));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}

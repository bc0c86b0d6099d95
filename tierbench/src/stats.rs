//! Order statistics over benchmark samples.

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile, `p` in (0, 100]: the smallest sample with at
/// least `p` % of the samples at or below it. Always a measured sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    Some(sorted(values)[rank(values.len(), p) - 1])
}

/// Nearest-rank median (the lower middle sample for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Whether percentile `p` of `n` samples has at least [`TAIL_SAMPLES`]
/// samples beyond it: p50 needs 20 samples, p90 needs 100, p99 1000.
pub fn reportable(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= TAIL_SAMPLES
}

/// Quartiles `(q1, median, q3)` by Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones computed from the result lines.
/// `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_samples() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.5), Some(1.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(percentile(&v, 101.0), None);
    }

    #[test]
    fn tail_rule_sets_the_sample_count_per_percentile() {
        assert!(!reportable(19, 50.0));
        assert!(reportable(20, 50.0));
        assert!(!reportable(99, 90.0));
        assert!(reportable(100, 90.0));
        assert!(!reportable(999, 99.0));
        assert!(reportable(1000, 99.0));
        assert!(!reportable(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}

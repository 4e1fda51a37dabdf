//! Order statistics shared by the workloads and `compare`.

/// A request that failed or was not answered within this many
/// milliseconds of its due instant counts as failed, and its latency is
/// censored at this value.
pub const CENSOR_MS: f64 = 5_000.0;

/// Nearest-rank percentile of `values` (`q` in `(0, 1]`): the smallest
/// sample with at least `q · n` samples at or below it. `None` for an
/// empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Samples strictly above the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// `true` when the `q` percentile of `n` samples has at least ten
/// samples beyond it — the highest percentile worth reporting.
pub fn percentile_is_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method); `None` below two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Position (n + 1) · i / 4, split into whole and fractional part.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Latencies with every failed request censored at [`CENSOR_MS`].
/// `answered[i]` is `Some(ms)` when request `i` came back in time.
pub fn censored(answered: &[Option<f64>]) -> Vec<f64> {
    answered
        .iter()
        .map(|l| l.map_or(CENSOR_MS, |ms| ms.min(CENSOR_MS)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(percentile_is_supported(200, 0.95));
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert!(!percentile_is_supported(199, 0.95));
        assert!(percentile_is_supported(1000, 0.99));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn failures_are_censored_at_the_timeout() {
        let lat = censored(&[Some(1.0), None, Some(9_000.0), Some(4_999.0)]);
        assert_eq!(lat, vec![1.0, CENSOR_MS, CENSOR_MS, 4_999.0]);
        // A censored failure dominates the tail: one failure in twenty
        // moves the p95 to the timeout.
        let mut answered = vec![Some(1.0); 19];
        answered.push(None);
        assert_eq!(percentile(&censored(&answered), 0.95), Some(1.0));
        answered.push(None);
        assert_eq!(percentile(&censored(&answered), 0.95), Some(CENSOR_MS));
    }
}

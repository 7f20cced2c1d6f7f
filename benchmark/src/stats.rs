//! Order statistics over measured samples.

/// The median of `values` (mean of the middle two for an even count);
/// `0.0` for no samples, which is how an absent per-layer metric reads.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value at quantile `q` (nearest rank) of samples sorted ascending;
/// `0` for no samples.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method) — the rule the benchmark's driver
/// applies to ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, clamped and interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// The interquartile distance of `values` as a share of their median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 45, 50], n=4) == [15.0, 30.0, 47.5]
        assert_eq!(quartiles(&[50.0, 10.0, 30.0, 20.0, 45.0]), (15.0, 47.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}

//! Order statistics over timing samples.

/// Sorts in place; timing samples are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
}

/// Percentile `p` in `0..=100` of ascending `sorted`, interpolating
/// linearly between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so `--compare` judges spread the
/// way the contract's driver does. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let len = v.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&sorted, 0.0), 10.0);
        assert_eq!(percentile(&sorted, 100.0), 50.0);
        assert_eq!(percentile(&sorted, 10.0), 14.0);
        assert_eq!(percentile(&sorted, 95.0), 48.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    }
}

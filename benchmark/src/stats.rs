//! Order statistics the benchmark reports: nearest-rank percentiles with
//! the "ten samples beyond" rule, and the quartile spread the acceptance
//! rule is written in.

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it. `sorted` must be ascending and
/// non-empty.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile out of range");
    let rank = (sorted.len() * pct as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank position of `pct`: how much of
/// the tail stands behind the reported value.
pub fn samples_beyond(len: usize, pct: u32) -> usize {
    len - (len * pct as usize).div_ceil(100).max(1).min(len)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    v
}

/// Median with the midpoint rule for even counts (Python's
/// `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them, so a spread computed here is the spread the driver
/// computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len() as i64;
    assert!(len >= 2, "quartiles need two values");
    let cut = |i: i64| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = i * (len + 1) - j * 4;
        (v[(j - 1) as usize] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 91), 10.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(percentile(&v, 1), 1.0);
        assert_eq!(percentile(&[7.0], 95), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 300 samples sits at rank 285: fifteen samples beyond.
        assert_eq!(samples_beyond(300, 95), 15);
        // p99 needs a thousand samples.
        assert_eq!(samples_beyond(999, 99), 9);
        assert_eq!(samples_beyond(1000, 99), 10);
        // Forty samples carry p75 and nothing higher.
        assert_eq!(samples_beyond(40, 75), 10);
        assert_eq!(samples_beyond(40, 90), 4);
        assert_eq!(samples_beyond(39, 75), 9);
        assert_eq!(samples_beyond(1, 50), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[20.0, 10.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((quartile_spread(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn median_midpoint() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

//! Estimators. The host's noise is one-sided (it only slows), so rates are
//! taken from the fastest slice and latencies as order statistics.

/// Value at quantile `q` of an ascending sample (nearest rank).
fn at(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ascending(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of a non-empty sample (the mean of the middle two when even, as
/// Python's `statistics.median`).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = ascending(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest quantile not above `want` that still has at least ten
/// samples beyond it, and its value: `(0.95, p95)` from 200 samples on,
/// a lower quantile for fewer (the median below 20).
pub fn high_percentile(samples: &[f64], want: f64) -> (f64, f64) {
    let sorted = ascending(samples);
    let n = sorted.len();
    let beyond = |q: f64| n - ((q * n as f64).ceil() as usize).clamp(1, n);
    let mut q = want;
    while q > 0.5 && beyond(q) < 10 {
        q -= 0.05;
    }
    let q = q.max(0.5);
    (q, at(&sorted, q))
}

/// Operations per second of the fastest slice: `ops` were done in each.
pub fn best_slice_rate(ops: usize, slice_walls_s: &[f64]) -> f64 {
    let fastest = slice_walls_s.iter().copied().fold(f64::INFINITY, f64::min);
    ops as f64 / fastest
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method); needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let sorted = ascending(values);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the median
/// (0 for fewer than two values or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 200 samples: exactly ten lie beyond the 190th.
        assert_eq!(high_percentile(&ramp(200), 0.95), (0.95, 190.0));
        // 199 samples: only nine lie beyond p95, so the helper steps down.
        let (q, v) = high_percentile(&ramp(199), 0.95);
        assert!(q < 0.95 && 199.0 - v >= 10.0, "q {q} v {v}");
        // Tiny samples fall back to the median.
        assert_eq!(high_percentile(&ramp(8), 0.95), (0.5, 4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn best_slice_takes_the_fastest_wall() {
        assert_eq!(best_slice_rate(100, &[2.0, 0.5, 1.0]), 200.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}

//! Distance metrics.

use crate::dist::Dist;

/// Which norm to use between points. The paper allows "any absolute norm
/// ||p − q||" (§1.5); these are the standard choices.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Metric {
    /// L2 norm.
    #[default]
    Euclidean,
    /// Squared L2: same ordering as L2 without the square root — a common
    /// implementation choice for nearest-neighbor work since ranking is all
    /// that matters.
    SquaredEuclidean,
    /// L1 norm.
    Manhattan,
    /// L∞ norm.
    Chebyshev,
    /// General Minkowski p-norm (`p ≥ 1`).
    Minkowski(f64),
    /// Number of differing coordinates.
    Hamming,
}

impl Metric {
    /// Distance between two equal-length `f64` slices.
    ///
    /// # Panics
    /// If the slices have different lengths, or `Minkowski(p)` with `p < 1`.
    pub fn distance(&self, a: &[f64], b: &[f64]) -> Dist {
        assert_eq!(a.len(), b.len(), "dimension mismatch: {} vs {}", a.len(), b.len());
        match *self {
            Metric::Euclidean => Dist::from_f64(sum_sq(a, b).sqrt()),
            Metric::SquaredEuclidean => Dist::from_f64(sum_sq(a, b)),
            Metric::Manhattan => Dist::from_f64(a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()),
            Metric::Chebyshev => {
                Dist::from_f64(a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max))
            }
            Metric::Minkowski(p) => {
                assert!(p >= 1.0, "Minkowski exponent must be >= 1, got {p}");
                let s: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs().powf(p)).sum();
                Dist::from_f64(s.powf(1.0 / p))
            }
            Metric::Hamming => {
                Dist::from_u64(a.iter().zip(b).filter(|(x, y)| x != y).count() as u64)
            }
        }
    }
}

#[inline]
fn sum_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 3] = [0.0, 0.0, 0.0];
    const B: [f64; 3] = [3.0, 4.0, 0.0];

    #[test]
    fn euclidean() {
        assert_eq!(Metric::Euclidean.distance(&A, &B).as_f64(), 5.0);
    }

    #[test]
    fn squared_euclidean_monotone_with_euclidean() {
        let c = [1.0, 1.0, 1.0];
        let d1 = Metric::Euclidean.distance(&A, &B);
        let d2 = Metric::Euclidean.distance(&A, &c);
        let s1 = Metric::SquaredEuclidean.distance(&A, &B);
        let s2 = Metric::SquaredEuclidean.distance(&A, &c);
        assert_eq!(d1 < d2, s1 < s2);
    }

    #[test]
    fn manhattan() {
        assert_eq!(Metric::Manhattan.distance(&A, &B).as_f64(), 7.0);
    }

    #[test]
    fn chebyshev() {
        assert_eq!(Metric::Chebyshev.distance(&A, &B).as_f64(), 4.0);
    }

    #[test]
    fn minkowski_matches_l1_l2_extremes() {
        let l1 = Metric::Minkowski(1.0).distance(&A, &B).as_f64();
        let l2 = Metric::Minkowski(2.0).distance(&A, &B).as_f64();
        assert!((l1 - 7.0).abs() < 1e-9);
        assert!((l2 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn hamming_counts_differences() {
        assert_eq!(Metric::Hamming.distance(&A, &B).as_u64(), 2);
        assert_eq!(Metric::Hamming.distance(&A, &A).as_u64(), 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = Metric::Euclidean.distance(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "Minkowski exponent")]
    fn bad_minkowski_panics() {
        let _ = Metric::Minkowski(0.5).distance(&A, &B);
    }
}

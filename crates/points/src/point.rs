//! Point types.

use crate::dist::Dist;
use crate::metric::Metric;

/// Anything with a distance to another value of the same type.
///
/// Implementations must be symmetric (`d(a,b) = d(b,a)`) and satisfy
/// `d(a,a) = 0`; all the provided ones also satisfy the triangle inequality
/// for the true metrics (squared Euclidean being the usual
/// ranking-equivalent exception).
pub trait Point: Clone + Send + Sync + 'static {
    /// Distance under `metric`.
    fn distance(&self, other: &Self, metric: Metric) -> Dist;

    /// The number of components (coordinates, words) two points must agree
    /// on for [`Point::distance`] between them to be defined; 0 for types
    /// that come in one shape only.
    fn shape(&self) -> usize {
        0
    }

    /// False when the point has a coordinate no distance can be computed
    /// from (a NaN or an infinity); always true for types without one.
    fn is_finite(&self) -> bool {
        true
    }
}

/// A point on the integer line — the paper's experimental workload
/// (each process draws 2²² values in `[0, 2³² − 1]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScalarPoint(pub u64);

impl Point for ScalarPoint {
    fn distance(&self, other: &Self, metric: Metric) -> Dist {
        match metric {
            Metric::Hamming => Dist::from_u64(u64::from(self.0 != other.0)),
            Metric::SquaredEuclidean => {
                let d = self.0.abs_diff(other.0);
                Dist::from_u64(d.saturating_mul(d))
            }
            // Euclidean = Manhattan = Chebyshev = Minkowski on a line.
            _ => Dist::from_u64(self.0.abs_diff(other.0)),
        }
    }
}

/// A dense vector in `R^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct VecPoint(pub Box<[f64]>);

impl VecPoint {
    /// Build from any iterable of coordinates.
    pub fn new(coords: impl Into<Vec<f64>>) -> Self {
        VecPoint(coords.into().into_boxed_slice())
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.0.len()
    }
}

impl Point for VecPoint {
    fn distance(&self, other: &Self, metric: Metric) -> Dist {
        metric.distance(&self.0, &other.0)
    }

    fn shape(&self) -> usize {
        self.dims()
    }

    fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }
}

/// A bit string, e.g. a binary fingerprint; distance is Hamming weight of
/// the XOR regardless of the requested metric (the only norm that makes
/// sense on bits).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitsPoint(pub Box<[u64]>);

impl BitsPoint {
    /// Build from 64-bit words.
    pub fn new(words: impl Into<Vec<u64>>) -> Self {
        BitsPoint(words.into().into_boxed_slice())
    }
}

impl Point for BitsPoint {
    fn distance(&self, other: &Self, _metric: Metric) -> Dist {
        assert_eq!(self.0.len(), other.0.len(), "bit-length mismatch");
        let d: u64 =
            self.0.iter().zip(other.0.iter()).map(|(a, b)| (a ^ b).count_ones() as u64).sum();
        Dist::from_u64(d)
    }

    fn shape(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_distance_is_abs_diff() {
        let a = ScalarPoint(10);
        let b = ScalarPoint(3);
        assert_eq!(a.distance(&b, Metric::Euclidean).as_u64(), 7);
        assert_eq!(b.distance(&a, Metric::Euclidean).as_u64(), 7);
        assert_eq!(a.distance(&a, Metric::Euclidean), Dist::ZERO);
    }

    #[test]
    fn scalar_hamming_is_equality() {
        let a = ScalarPoint(10);
        let b = ScalarPoint(3);
        assert_eq!(a.distance(&b, Metric::Hamming).as_u64(), 1);
        assert_eq!(a.distance(&a, Metric::Hamming).as_u64(), 0);
    }

    #[test]
    fn scalar_squared_saturates() {
        let a = ScalarPoint(0);
        let b = ScalarPoint(u64::MAX);
        assert_eq!(a.distance(&b, Metric::SquaredEuclidean), Dist::from_u64(u64::MAX));
    }

    #[test]
    fn vec_point_distance() {
        let a = VecPoint::new(vec![0.0, 0.0]);
        let b = VecPoint::new(vec![3.0, 4.0]);
        assert_eq!(a.distance(&b, Metric::Euclidean).as_f64(), 5.0);
        assert_eq!(a.dims(), 2);
    }

    #[test]
    fn bits_point_hamming() {
        let a = BitsPoint::new(vec![0b1010, 0]);
        let b = BitsPoint::new(vec![0b0110, 1]);
        assert_eq!(a.distance(&b, Metric::Hamming).as_u64(), 3);
        assert_eq!(a.distance(&a, Metric::Euclidean).as_u64(), 0);
    }

    #[test]
    fn shape_is_the_component_count() {
        assert_eq!(ScalarPoint(7).shape(), 0);
        assert_eq!(VecPoint::new(vec![1.0, 2.0, 3.0]).shape(), 3);
        assert_eq!(BitsPoint::new(vec![0, 1]).shape(), 2);
    }

    #[test]
    fn symmetry_holds_for_all_types() {
        let a = VecPoint::new(vec![1.0, 2.0, -3.0]);
        let b = VecPoint::new(vec![-4.0, 0.5, 9.0]);
        for m in [
            Metric::Euclidean,
            Metric::SquaredEuclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Minkowski(3.0),
            Metric::Hamming,
        ] {
            assert_eq!(a.distance(&b, m), b.distance(&a, m), "{m:?}");
        }
    }
}

//! Total-ordered distance values.

/// A distance encoded so that the *encoding's* integer order equals the
/// distance order — the protocols can then treat distances as opaque
/// `u64` keys, exactly as the paper assumes ("all distances are polynomial
/// in n", §2).
///
/// Two encoding families exist and must not be mixed within one dataset
/// (a dataset has a single point type and metric, so this holds by
/// construction):
///
/// * [`Dist::from_u64`] — integer distances, stored verbatim. Used by
///   [`crate::ScalarPoint`] and [`crate::BitsPoint`].
/// * [`Dist::from_f64`] — non-negative finite floats, stored via their IEEE
///   754 bit pattern, whose unsigned order matches numeric order on
///   non-negative values. Used by [`crate::VecPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dist(u64);

impl Dist {
    /// Zero distance (identical points), valid in both families.
    pub const ZERO: Dist = Dist(0);
    /// The largest encodable distance.
    pub const MAX: Dist = Dist(u64::MAX);

    /// Encode an integer distance.
    #[inline]
    pub fn from_u64(d: u64) -> Dist {
        Dist(d)
    }

    /// Encode a non-negative finite float distance.
    ///
    /// # Panics
    /// If `d` is negative or not finite — a distance function returning
    /// either is a bug worth failing loudly on.
    #[inline]
    pub fn from_f64(d: f64) -> Dist {
        assert!(d.is_finite() && d >= 0.0, "invalid distance {d}");
        Dist(d.to_bits())
    }

    /// Raw ordered encoding (also the wire representation).
    #[inline]
    pub fn encoding(self) -> u64 {
        self.0
    }

    /// Rebuild from a wire encoding.
    #[inline]
    pub fn from_encoding(bits: u64) -> Dist {
        Dist(bits)
    }

    /// Decode an integer-family distance.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Decode a float-family distance.
    #[inline]
    pub fn as_f64(self) -> f64 {
        f64::from_bits(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_family_orders() {
        assert!(Dist::from_u64(3) < Dist::from_u64(5));
        assert_eq!(Dist::from_u64(0), Dist::ZERO);
        assert!(Dist::from_u64(u64::MAX) <= Dist::MAX);
    }

    #[test]
    fn f64_family_orders() {
        let ds = [0.0, 1e-300, 0.5, 1.0, 2.5, 1e300];
        for w in ds.windows(2) {
            assert!(Dist::from_f64(w[0]) < Dist::from_f64(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(Dist::from_f64(0.0), Dist::ZERO);
    }

    #[test]
    fn f64_roundtrip() {
        let d = Dist::from_f64(123.456);
        assert_eq!(d.as_f64(), 123.456);
        let e = Dist::from_encoding(d.encoding());
        assert_eq!(d, e);
    }

    #[test]
    #[should_panic(expected = "invalid distance")]
    fn negative_distance_rejected() {
        let _ = Dist::from_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid distance")]
    fn nan_distance_rejected() {
        let _ = Dist::from_f64(f64::NAN);
    }

    #[test]
    fn ordering_matches_encoding_order() {
        let a = Dist::from_u64(10);
        let b = Dist::from_u64(20);
        assert_eq!(a.cmp(&b), a.encoding().cmp(&b.encoding()));
    }
}

//! Ordered keys exchanged by the distributed protocols.

use std::fmt::Debug;

use crate::dist::Dist;
use crate::id::PointId;

/// A totally ordered, copyable value small enough to ship over a
/// bandwidth-limited link; the protocols in `knn-core` are generic over this.
///
/// `BITS` is the wire size used for bandwidth accounting — the model assumes
/// keys are `O(log n)` bits (§2 of the paper: transfer ids and distances,
/// never the points themselves).
pub trait Key: Copy + Ord + Send + Sync + Debug + 'static {
    /// Wire size of one key in bits.
    const BITS: u64;
}

impl Key for u32 {
    const BITS: u64 = 32;
}

impl Key for u64 {
    const BITS: u64 = 64;
}

impl Key for i64 {
    const BITS: u64 = 64;
}

/// The key the ℓ-NN algorithms select on: distance to the query, with the
/// point id as a tiebreaker. Making keys distinct even for duplicate points
/// is exactly the paper's device for handling non-distinct inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DistKey {
    /// Distance from the query (most significant in the ordering).
    pub dist: Dist,
    /// Tie-breaking unique point id.
    pub id: PointId,
}

impl DistKey {
    /// Construct a key.
    #[inline]
    pub fn new(dist: Dist, id: PointId) -> Self {
        DistKey { dist, id }
    }
}

impl Key for DistKey {
    const BITS: u64 = 128;
}

/// A key with an order-preserving embedding into `u128` — what the
/// *value-domain* algorithms (binary search over distances, \[3, 18\]) need
/// beyond comparisons. Implementations must satisfy
/// `a <= b  ⟺  a.to_ordinal() <= b.to_ordinal()`.
pub trait NumericKey: Key {
    /// Order-preserving embedding.
    fn to_ordinal(self) -> u128;
}

impl NumericKey for u32 {
    fn to_ordinal(self) -> u128 {
        self as u128
    }
}

impl NumericKey for u64 {
    fn to_ordinal(self) -> u128 {
        self as u128
    }
}

impl NumericKey for DistKey {
    fn to_ordinal(self) -> u128 {
        ((self.dist.encoding() as u128) << 64) | self.id.0 as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_dominates_order() {
        let a = DistKey::new(Dist::from_u64(1), PointId(999));
        let b = DistKey::new(Dist::from_u64(2), PointId(0));
        assert!(a < b);
    }

    #[test]
    fn id_breaks_ties() {
        let a = DistKey::new(Dist::from_u64(5), PointId(1));
        let b = DistKey::new(Dist::from_u64(5), PointId(2));
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn key_bits() {
        assert_eq!(<u64 as Key>::BITS, 64);
        assert_eq!(<DistKey as Key>::BITS, 128);
    }

    #[test]
    fn ordinal_preserves_order() {
        let keys = [
            DistKey::new(Dist::from_u64(0), PointId(0)),
            DistKey::new(Dist::from_u64(0), PointId(u64::MAX)),
            DistKey::new(Dist::from_u64(1), PointId(0)),
            DistKey::new(Dist::from_u64(u64::MAX), PointId(7)),
        ];
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
            assert!(w[0].to_ordinal() < w[1].to_ordinal());
        }
    }
}

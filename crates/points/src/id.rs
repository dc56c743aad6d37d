//! Random unique point identifiers.

use rand::{rngs::StdRng, RngExt, SeedableRng};

/// A point identifier.
///
/// The paper (§2) assigns each point a random number in `[1, n³]`, unique
/// with high probability, and uses ids to break ties between points at equal
/// distance from the query. We draw 64-bit ids, unique with probability
/// `≥ 1 − n²/2⁶⁴` by the birthday bound, and additionally guarantee
/// uniqueness *within one assigner* by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PointId(pub u64);

/// Deterministic generator of unique random [`PointId`]s.
///
/// Ids are random (so they carry no positional information an adversary
/// could exploit) yet unique by construction. The 64-bit id is laid out as
/// `[stream:10][counter:30][random:24]`: distinct *streams* (e.g. one per
/// machine generating data independently) and distinct counter values can
/// never collide, while the 24 random low bits keep tie-breaking unbiased.
#[derive(Debug)]
pub struct IdAssigner {
    rng: StdRng,
    stream: u64,
    counter: u64,
}

impl IdAssigner {
    /// A fresh assigner on stream 0.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0)
    }

    /// A fresh assigner for `stream` (e.g. the generating machine's index).
    ///
    /// # Panics
    /// If `stream >= 1024`.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        assert!(stream < (1 << 10), "IdAssigner stream must be < 1024");
        IdAssigner {
            rng: StdRng::seed_from_u64(seed ^ 0x0B10_C1D5_u64 ^ stream.wrapping_mul(0x9E37_79B9)),
            stream,
            counter: 0,
        }
    }

    /// Next unique id.
    pub fn next_id(&mut self) -> PointId {
        let c = self.counter;
        self.counter += 1;
        assert!(self.counter < (1 << 30), "IdAssigner exhausted");
        let lo: u64 = self.rng.random_range(0..(1u64 << 24));
        PointId((self.stream << 54) | (c << 24) | lo)
    }

    /// Assign `n` unique ids.
    pub fn assign(&mut self, n: usize) -> Vec<PointId> {
        (0..n).map(|_| self.next_id()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_unique() {
        let mut a = IdAssigner::new(7);
        let ids = a.assign(10_000);
        let set: HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
    }

    #[test]
    fn ids_are_deterministic_per_seed() {
        let x = IdAssigner::new(3).assign(16);
        let y = IdAssigner::new(3).assign(16);
        let z = IdAssigner::new(4).assign(16);
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn ids_look_random_in_low_bits() {
        // All-zero low bits for every id would mean the RNG is not wired in.
        let mut a = IdAssigner::new(1);
        let ids = a.assign(64);
        assert!(ids.iter().any(|id| id.0 & ((1 << 24) - 1) != 0));
    }

    #[test]
    fn streams_never_collide() {
        let mut set = HashSet::new();
        for stream in 0..8 {
            // Same seed on purpose: uniqueness must come from the layout.
            let mut a = IdAssigner::with_stream(42, stream);
            for id in a.assign(1000) {
                assert!(set.insert(id), "collision at stream {stream}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "stream must be")]
    fn stream_range_checked() {
        let _ = IdAssigner::with_stream(0, 1024);
    }
}

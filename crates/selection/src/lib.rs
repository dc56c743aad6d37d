//! # knn-selection — sequential selection algorithms
//!
//! The paper reduces ℓ-nearest-neighbors to the *selection problem*: find
//! the ℓ-smallest of n values (§1.2, citing CLRS). This crate provides the
//! sequential selection toolbox the distributed layer builds on:
//!
//! * [`quickselect()`] — randomized in-place selection, expected `O(n)`; the
//!   sequential analogue of the paper's Algorithm 1.
//! * [`median_of_medians()`] — the deterministic worst-case `O(n)` algorithm
//!   (Blum–Floyd–Pratt–Rivest–Tarjan) the paper cites via CLRS \[5\].
//! * [`select_nth`] — introselect: randomized pivots with a deterministic
//!   fallback, the production entry point.
//! * [`heap`] — bounded-heap streaming top-ℓ, `O(n log ℓ)`, used by every
//!   machine to truncate its local set to its ℓ best (Algorithm 2, step 2).
//! * [`weighted_median()`] — the weighted median of medians underlying the
//!   Saukas–Song deterministic distributed baseline \[16\].
//! * [`floyd_rivest_select`] — Floyd–Rivest SELECT, the strongest
//!   sequential competitor, for the substrate benchmarks.
//!
//! All functions operate on `T: Ord + Copy` — in this workspace keys are
//! 128-bit `(distance, id)` pairs, so copying is cheaper than chasing
//! references.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod floyd_rivest;
pub mod heap;
pub mod median_of_medians;
pub mod partition;
pub mod quickselect;
pub mod reference;
pub mod weighted_median;

pub use floyd_rivest::floyd_rivest_select;
pub use heap::{smallest_k, TopK};
pub use median_of_medians::median_of_medians;
pub use quickselect::quickselect;
pub use weighted_median::{weighted_median, WeightedMedianError};

use rand::RngExt;

/// Introselect: randomized quickselect with a deterministic
/// median-of-medians fallback once the recursion misbehaves, guaranteeing
/// worst-case `O(n)` while keeping quickselect's constants on typical data.
///
/// After the call, `data[n]` is the value with rank `n` (0-based) and
/// everything before it is `≤` it, everything after `≥` it.
///
/// # Panics
/// If `n >= data.len()`.
pub fn select_nth<T: Ord + Copy, R: RngExt>(data: &mut [T], n: usize, rng: &mut R) {
    quickselect::select_with_depth_limit(data, n, rng);
}

/// The ℓ smallest values of `data`, ascending. Convenience wrapper choosing
/// between the heap (`ℓ ≪ n`) and select-then-sort strategies.
pub fn smallest_k_sorted<T: Ord + Copy, R: RngExt>(data: &[T], k: usize, rng: &mut R) -> Vec<T> {
    if k == 0 || data.is_empty() {
        return Vec::new();
    }
    if k >= data.len() {
        let mut all = data.to_vec();
        all.sort_unstable();
        return all;
    }
    // Heuristic: k log k work for the heap vs a full copy + linear select.
    if k < data.len() / 8 {
        smallest_k(data.iter().copied(), k)
    } else {
        let mut copy = data.to_vec();
        select_nth(&mut copy, k - 1, rng);
        copy.truncate(k);
        copy.sort_unstable();
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn smallest_k_sorted_matches_sort() {
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u64> = (0..500).map(|_| rng.random_range(0..100)).collect();
        let mut expected = data.clone();
        expected.sort_unstable();
        for k in [0, 1, 7, 63, 250, 499, 500, 600] {
            let got = smallest_k_sorted(&data, k, &mut rng);
            assert_eq!(got, expected[..k.min(data.len())], "k = {k}");
        }
    }

    #[test]
    fn select_nth_places_rank() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut data: Vec<u64> = (0..1000).rev().collect();
        select_nth(&mut data, 123, &mut rng);
        assert_eq!(data[123], 123);
        assert!(data[..123].iter().all(|&x| x <= 123));
        assert!(data[124..].iter().all(|&x| x >= 123));
    }
}

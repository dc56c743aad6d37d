//! # knn-selection — the sequential selection kernels the protocols call
//!
//! The paper reduces ℓ-nearest-neighbors to the *selection problem*: find
//! the ℓ-smallest of n values (§1.2, citing CLRS). Algorithm 2 needs two
//! local operations from it: a machine's top-ℓ (step 1) and one rank read
//! by the leader (step 3), which reads it with std's `select_nth_unstable`.
//! This crate holds what is left:
//!
//! * [`heap`] — bounded-heap streaming top-ℓ, `O(n log ℓ)`, used by every
//!   machine to truncate its local set to its ℓ best (Algorithm 2, step 2)
//!   and by the k-d tree's search.
//! * [`weighted_median()`] — the weighted median of medians underlying the
//!   Saukas–Song deterministic distributed baseline \[16\].
//!
//! All functions operate on `T: Ord + Copy` — in this workspace keys are
//! 128-bit `(distance, id)` pairs, so copying is cheaper than chasing
//! references.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heap;
pub mod weighted_median;

pub use heap::{smallest_k, TopK};
pub use weighted_median::{weighted_median, WeightedMedianError};

/// The `k` smallest values of `data`, ascending: std `select_nth_unstable`
/// on a copy, then a sort of the `k` kept.
///
/// **Frozen name.** Nothing in this workspace calls it: the frozen
/// benchmark package (`ledger/`) times it, and passes a generator, so
/// `rng` is accepted and unused. It goes in the next `[benchmark]` refresh
/// (ROADMAP), where that row can time [`smallest_k`] instead.
pub fn smallest_k_sorted<T: Ord + Copy, R>(data: &[T], k: usize, _rng: &mut R) -> Vec<T> {
    if k == 0 {
        return Vec::new();
    }
    let mut copy = data.to_vec();
    if k < copy.len() {
        copy.select_nth_unstable(k - 1);
        copy.truncate(k);
    }
    copy.sort_unstable();
    copy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_k_sorted_matches_sort() {
        let data: Vec<u64> = (0..500u64).map(|i| i * 37 % 100).collect();
        let mut expected = data.clone();
        expected.sort_unstable();
        for k in [0, 1, 7, 63, 250, 499, 500, 600] {
            let got = smallest_k_sorted(&data, k, &mut ());
            assert_eq!(got, expected[..k.min(data.len())], "k = {k}");
        }
    }
}

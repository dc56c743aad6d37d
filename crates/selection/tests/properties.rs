//! Property suite: both top-k entry points must agree with a full sort, on
//! random and on duplicate-heavy inputs, and `weighted_median` must match a
//! brute-force weighted-rank oracle.

use knn_selection::{smallest_k, smallest_k_sorted, weighted_median};
use proptest::prelude::*;

/// The `k` smallest values by full sort, ascending: the oracle.
fn smallest_k_by_sort(data: &[u64], k: usize) -> Vec<u64> {
    let mut copy = data.to_vec();
    copy.sort_unstable();
    copy.truncate(k);
    copy
}

/// Brute-force lower weighted median: smallest value whose at-or-below
/// weight reaches half the total. Mirrors the documented definition, not
/// the implementation.
fn weighted_median_oracle(items: &[(u64, u64)]) -> Option<u64> {
    let total: u64 = items.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return None;
    }
    let mut values: Vec<u64> = items.iter().map(|&(v, _)| v).collect();
    values.sort_unstable();
    values.dedup();
    values.into_iter().find(|&m| {
        let at_or_below: u64 = items.iter().filter(|&&(v, _)| v <= m).map(|&(_, w)| w).sum();
        2 * at_or_below >= total
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn top_k_variants_match_sort_oracle(
        data in proptest::collection::vec(any::<u64>(), 0..300),
        ties in proptest::collection::vec(0u64..8, 0..300),
        k in 0usize..350,
    ) {
        for input in [&data, &ties] {
            let expected = smallest_k_by_sort(input, k);
            prop_assert_eq!(&smallest_k(input.iter().copied(), k), &expected);
            prop_assert_eq!(&smallest_k_sorted(input, k, &mut ()), &expected);
        }
    }

    #[test]
    fn weighted_median_matches_brute_force_oracle(
        items in proptest::collection::vec((any::<u64>(), 0u64..50), 0..80),
    ) {
        let mut work = items.clone();
        let got = weighted_median(&mut work).ok();
        prop_assert_eq!(got, weighted_median_oracle(&items));
    }
}

#[test]
fn weighted_median_rejects_degenerate_inputs() {
    let mut empty: Vec<(u64, u64)> = Vec::new();
    assert!(weighted_median(&mut empty).is_err());
    let mut zero_weight = vec![(3u64, 0u64), (9, 0)];
    assert!(weighted_median(&mut zero_weight).is_err());
    assert_eq!(weighted_median_oracle(&[(3, 0), (9, 0)]), None);
}

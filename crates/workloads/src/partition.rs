//! Partitioning a global dataset across k machines.
//!
//! The model allows points to be "adversarially distributed" as long as
//! every machine holds `O(n/k)` of them — and for the selection protocols
//! even that balance is not required for correctness. These layouts let the
//! tests and benchmarks exercise both the friendly and the hostile cases.

use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

/// How a global dataset is laid out across machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Round-robin in input order: balanced, value-agnostic.
    RoundRobin,
    /// Uniform random assignment after a shuffle: balanced in expectation.
    Shuffled,
    /// Contiguous chunks of the *input order* — adversarial when the input
    /// is sorted (machine 0 then holds all the smallest values).
    Contiguous,
    /// Machine `i` receives a share proportional to `1/(i+1)`: heavily
    /// skewed sizes, stressing the "arbitrary distribution" claim.
    Skewed,
    /// Everything on machine 0; the rest start empty.
    OneMachine,
}

impl PartitionStrategy {
    /// Split `items` into exactly `k` shards according to the strategy.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn split<T>(self, items: Vec<T>, k: usize, seed: u64) -> Vec<Vec<T>> {
        assert!(k > 0, "cannot partition over zero machines");
        match self {
            PartitionStrategy::RoundRobin => split_round_robin(items, k),
            PartitionStrategy::Shuffled => {
                let mut items = items;
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5851_F42D_4C95_7F2D);
                items.shuffle(&mut rng);
                split_round_robin(items, k)
            }
            PartitionStrategy::Contiguous => split_contiguous(items, k),
            PartitionStrategy::Skewed => split_skewed(items, k),
            PartitionStrategy::OneMachine => {
                let mut shards: Vec<Vec<T>> = (0..k).map(|_| Vec::new()).collect();
                shards[0] = items;
                shards
            }
        }
    }
}

/// Deal items one at a time: shard sizes differ by at most 1.
pub fn split_round_robin<T>(items: Vec<T>, k: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let mut shards: Vec<Vec<T>> = (0..k).map(|_| Vec::with_capacity(n / k + 1)).collect();
    for (i, item) in items.into_iter().enumerate() {
        shards[i % k].push(item);
    }
    shards
}

/// Contiguous chunks in input order; sizes differ by at most 1.
pub fn split_contiguous<T>(items: Vec<T>, k: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let base = n / k;
    let extra = n % k;
    let mut shards = Vec::with_capacity(k);
    let mut it = items.into_iter();
    for i in 0..k {
        let take = base + usize::from(i < extra);
        shards.push(it.by_ref().take(take).collect());
    }
    shards
}

/// Harmonic shares: machine `i` gets a share proportional to `1/(i+1)`.
pub fn split_skewed<T>(items: Vec<T>, k: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let h: f64 = (1..=k).map(|i| 1.0 / i as f64).sum();
    let mut sizes: Vec<usize> =
        (0..k).map(|i| ((n as f64 / h) * (1.0 / (i + 1) as f64)).floor() as usize).collect();
    let assigned: usize = sizes.iter().sum();
    sizes[0] += n - assigned; // Remainder goes to the biggest shard.
    let mut shards = Vec::with_capacity(k);
    let mut it = items.into_iter();
    for size in sizes {
        shards.push(it.by_ref().take(size).collect());
    }
    shards
}

/// All strategies, for exhaustive test sweeps.
pub const ALL_STRATEGIES: [PartitionStrategy; 5] = [
    PartitionStrategy::RoundRobin,
    PartitionStrategy::Shuffled,
    PartitionStrategy::Contiguous,
    PartitionStrategy::Skewed,
    PartitionStrategy::OneMachine,
];

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn flatten_sorted(shards: &[Vec<u64>]) -> Vec<u64> {
        let mut all: Vec<u64> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn every_strategy_conserves_items() {
        let items: Vec<u64> = (0..103).collect();
        for s in ALL_STRATEGIES {
            let shards = s.split(items.clone(), 7, 42);
            assert_eq!(shards.len(), 7, "{s:?}");
            assert_eq!(flatten_sorted(&shards), items, "{s:?}");
        }
    }

    #[test]
    fn round_robin_is_balanced() {
        let shards = split_round_robin((0..100u64).collect(), 8);
        for s in &shards {
            assert!(s.len() == 12 || s.len() == 13);
        }
    }

    #[test]
    fn contiguous_keeps_order() {
        let shards = split_contiguous((0..10u64).collect(), 3);
        assert_eq!(shards[0], vec![0, 1, 2, 3]);
        assert_eq!(shards[1], vec![4, 5, 6]);
        assert_eq!(shards[2], vec![7, 8, 9]);
    }

    #[test]
    fn skewed_is_decreasing() {
        let shards = split_skewed((0..1000u64).collect(), 5);
        for w in shards.windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
        assert!(shards[0].len() > shards[4].len() * 2);
    }

    #[test]
    fn one_machine_hoards_everything() {
        let shards = PartitionStrategy::OneMachine.split((0..50u64).collect(), 4, 0);
        assert_eq!(shards[0].len(), 50);
        assert!(shards[1..].iter().all(|s| s.is_empty()));
    }

    #[test]
    fn shuffled_is_deterministic_per_seed() {
        let items: Vec<u64> = (0..64).collect();
        let a = PartitionStrategy::Shuffled.split(items.clone(), 4, 9);
        let b = PartitionStrategy::Shuffled.split(items.clone(), 4, 9);
        let c = PartitionStrategy::Shuffled.split(items, 4, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn more_machines_than_items() {
        for s in ALL_STRATEGIES {
            let shards = s.split(vec![1u64, 2], 5, 1);
            assert_eq!(shards.len(), 5);
            assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 2, "{s:?}");
        }
    }

    proptest! {
        #[test]
        fn prop_conservation(
            items in proptest::collection::vec(any::<u64>(), 0..200),
            k in 1usize..12,
            seed in any::<u64>(),
            strat_idx in 0usize..5,
        ) {
            let strat = ALL_STRATEGIES[strat_idx];
            let shards = strat.split(items.clone(), k, seed);
            prop_assert_eq!(shards.len(), k);
            let mut got: Vec<u64> = shards.into_iter().flatten().collect();
            let mut want = items;
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}

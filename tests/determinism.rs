//! Reproducibility: a run is a pure function of (data, seed, config).

use knn_repro::prelude::*;

fn cluster_with_seed(seed: u64) -> KnnCluster {
    let shards = ScalarWorkload { per_machine: 3000, lo: 0, hi: 1 << 28 }.generate(6, 1234);
    let mut cluster: KnnCluster = KnnCluster::builder().machines(6).seed(seed).build();
    cluster.load_shards(shards).unwrap();
    cluster
}

/// At ℓ = 40 every list goes whole and the run draws nothing; at ℓ = 100
/// the lists are sampled and Algorithm 1 draws pivots, so the seed is
/// what keeps the two runs equal.
#[test]
fn same_seed_same_everything() {
    let q = ScalarPoint(99_999_999);
    for ell in [40, 100] {
        let a = cluster_with_seed(42).query(&q, ell).unwrap();
        let b = cluster_with_seed(42).query(&q, ell).unwrap();
        assert_eq!(a.neighbors, b.neighbors, "ℓ = {ell}");
        assert_eq!(a.metrics, b.metrics, "ℓ = {ell}");
        assert_eq!(a.stats, b.stats, "ℓ = {ell}");
    }
}

#[test]
fn different_seed_same_answer_different_trace() {
    let q = ScalarPoint(99_999_999);
    // ℓ = 100 > 80 = ⌈12·log₂ 100⌉ samples: the candidate lists are
    // sampled and Algorithm 1 draws pivots (at ℓ ≤ 75 every list goes
    // whole, and the run draws nothing).
    let a = cluster_with_seed(42).query(&q, 100).unwrap();
    let b = cluster_with_seed(43).query(&q, 100).unwrap();
    // The answer is the answer...
    assert_eq!(a.neighbors, b.neighbors);
    // ...but the random pivots differ, so the execution trace should too
    // (equal traces for different seeds would mean the RNG is not wired).
    assert!(
        a.metrics.rounds != b.metrics.rounds || a.metrics.messages != b.metrics.messages,
        "seeds 42 and 43 produced identical traces"
    );
}

#[test]
fn repeated_queries_on_one_cluster_are_stable() {
    let cluster = cluster_with_seed(11);
    let q = ScalarPoint(1 << 27);
    let a = cluster.query(&q, 16).unwrap();
    let b = cluster.query(&q, 16).unwrap();
    assert_eq!(a.neighbors, b.neighbors);
    assert_eq!(a.metrics, b.metrics);
}

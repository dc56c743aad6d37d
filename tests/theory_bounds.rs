//! Statistical validation of the paper's theorems on measured executions.
//!
//! These are the checks the `paper` binary of `knn-bench` tabulates at
//! larger scale (`rounds_table`, `messages_table`, `lemma23`, `fig2`); here
//! they run at CI-friendly sizes with generous (but meaningful) envelopes.

use knn_repro::prelude::*;

fn run(k: usize, per_machine: usize, ell: usize, seed: u64) -> KnnAnswer {
    let shards =
        ScalarWorkload { per_machine, lo: 0, hi: 1 << 32 }.generate(k, seed.wrapping_mul(31));
    let mut cluster: KnnCluster = KnnCluster::builder().machines(k).seed(seed).build();
    cluster.load_shards(shards).unwrap();
    cluster.query(&ScalarPoint(1 << 31), ell).unwrap()
}

/// Theorem 2.4: O(log ℓ) rounds. The constant is implementation-specific;
/// what must hold is that rounds grow ~logarithmically: quadrupling ℓ
/// should add roughly a constant, never multiply.
#[test]
fn theorem_2_4_rounds_grow_logarithmically_in_ell() {
    let avg_rounds = |ell: usize| -> f64 {
        (0..5).map(|s| run(8, 4096, ell, s).metrics.rounds).sum::<u64>() as f64 / 5.0
    };
    let r256 = avg_rounds(256);
    let r1024 = avg_rounds(1024);
    assert!(
        r1024 < r256 * 2.0,
        "rounds should grow ~log ell: ell=256 -> {r256}, ell=1024 -> {r1024}"
    );
}

/// Theorem 2.4: round complexity is independent of k.
#[test]
fn theorem_2_4_rounds_independent_of_k() {
    let avg_rounds = |k: usize| -> f64 {
        (0..5).map(|s| run(k, 2048, 128, s).metrics.rounds).sum::<u64>() as f64 / 5.0
    };
    let r4 = avg_rounds(4);
    let r32 = avg_rounds(32);
    // 8x more machines: rounds should stay in the same ballpark.
    assert!(r32 < r4 * 2.0, "rounds must not scale with k: k=4 -> {r4}, k=32 -> {r32}");
}

/// Theorem 2.4: O(k log ℓ) messages — linear in k at fixed ℓ.
#[test]
fn theorem_2_4_messages_linear_in_k() {
    let avg_msgs = |k: usize| -> f64 {
        (0..5).map(|s| run(k, 2048, 128, s).metrics.messages).sum::<u64>() as f64 / 5.0
    };
    let m8 = avg_msgs(8);
    let m32 = avg_msgs(32);
    let ratio = m32 / m8;
    assert!(
        (2.0..8.0).contains(&ratio),
        "4x machines should give ~4x messages: {m8} -> {m32} (ratio {ratio:.2})"
    );
}

/// Lemma 2.3: pruning leaves at most 11ℓ candidates whp; the count round's
/// rollback should essentially never fire with the paper's constants at a
/// healthy n ≫ kℓ.
#[test]
fn lemma_2_3_survivor_bound_and_no_rollback() {
    let mut max_ratio = 0.0f64;
    for seed in 0..10 {
        let ans = run(16, 4096, 256, seed);
        let stats = ans.stats.expect("leader stats");
        assert!(!stats.rolled_back, "seed {seed} rolled back");
        assert!(stats.survivors >= 256);
        max_ratio = max_ratio.max(stats.survivors as f64 / 256.0);
    }
    assert!(max_ratio <= 11.0, "survivors/ell = {max_ratio} exceeds Lemma 2.3's bound");
}

/// §1.3: the simple method costs Θ(ℓ) rounds — it must scale linearly,
/// and Algorithm 2 must beat it beyond the crossover.
#[test]
fn simple_method_rounds_linear_and_beaten_past_crossover() {
    let k = 8;
    let shards = ScalarWorkload { per_machine: 1 << 14, lo: 0, hi: 1 << 32 }.generate(k, 3);
    let mut cluster: KnnCluster = KnnCluster::builder().machines(k).seed(2).build();
    cluster.load_shards(shards).unwrap();
    let q = ScalarPoint(1 << 31);

    let simple =
        |ell: usize| cluster.query_with(Algorithm::Simple, &q, ell).unwrap().report.metrics;
    let s512 = simple(512);
    let s2048 = simple(2048);
    let ratio = s2048.rounds as f64 / s512.rounds as f64;
    assert!((2.5..6.0).contains(&ratio), "4x ell should ~4x simple rounds, got {ratio:.2}");

    let fast = cluster.query_with(Algorithm::Knn, &q, 2048).unwrap().report.metrics;
    assert!(
        fast.rounds < s2048.rounds,
        "Algorithm 2 ({}) must beat simple ({}) at ell = 2048",
        fast.rounds,
        s2048.rounds
    );
    assert!(fast.messages < s2048.messages);
}

/// The embedded Algorithm 1 should need O(log ℓ) pivot iterations —
/// Theorem 2.2's expectation is ~3·log_{3/2}, i.e. well under 60 for the
/// post-pruning candidate sets here.
#[test]
fn theorem_2_2_iteration_count_envelope() {
    for seed in 0..10 {
        let ans = run(8, 4096, 512, seed);
        let stats = ans.stats.expect("stats");
        assert!(
            stats.select_iterations <= 60,
            "seed {seed}: {} iterations for ~11*512 candidates",
            stats.select_iterations
        );
    }
}

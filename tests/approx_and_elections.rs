//! Integration coverage for the approximate query path and leader-election
//! composition through the public API.

use knn_repro::prelude::*;

fn loaded(k: usize, election: ElectionKind) -> KnnCluster {
    let shards = ScalarWorkload { per_machine: 2000, lo: 0, hi: 1 << 24 }.generate(k, 17);
    let mut cluster: KnnCluster =
        KnnCluster::builder().machines(k).seed(5).election(election).build();
    cluster.load_shards(shards).unwrap();
    cluster
}

#[test]
fn approx_superset_on_every_engine() {
    let cluster = loaded(6, ElectionKind::Fixed);
    let q = ScalarPoint(1 << 23);
    let exact = cluster.query(&q, 100).unwrap();
    let approx = cluster.query_approx(&q, 100).unwrap();
    assert!(approx.neighbors.len() >= 100);
    assert_eq!(&approx.neighbors[..100], &exact.neighbors[..]);
    assert!(approx.metrics.rounds < exact.metrics.rounds);
    // The guarantee is on the answer itself, from both approx facades;
    // exact answers have none to report.
    assert_eq!(approx.contains_exact, Some(true));
    assert_eq!(exact.contains_exact, None);
    let batch = cluster.query_batch_approx(&[q], 100).unwrap();
    assert_eq!(batch.answers[0].contains_exact, Some(true));
    assert_eq!(&batch.answers[0].neighbors[..100], &exact.neighbors[..]);
    let batch = cluster.query_batch(&[q], 100).unwrap();
    assert_eq!(batch.answers[0].contains_exact, None);
}

#[test]
fn an_under_pruned_approx_answer_says_so() {
    // Pruning at the smallest of very few samples keeps far fewer than ℓ
    // candidates: the answer is no superset, and the caller can tell.
    use knn_repro::core::protocols::KnnParams;
    let shards = ScalarWorkload { per_machine: 2000, lo: 0, hi: 1 << 24 }.generate(6, 17);
    let params = KnnParams { sample_factor: 1, rank_factor: 1, harden: true };
    let mut cluster: KnnCluster =
        KnnCluster::builder().machines(6).seed(5).knn_params(params).build();
    cluster.load_shards(shards).unwrap();
    let q = ScalarPoint(1 << 23);
    let single = cluster.query_approx(&q, 100).unwrap();
    let batch = cluster.query_batch_approx(&[q], 100).unwrap();
    for answer in [&single, &batch.answers[0]] {
        assert!(answer.neighbors.len() < 100);
        assert_eq!(answer.contains_exact, Some(false));
    }
}

#[test]
fn approx_with_huge_ell_returns_everything() {
    let cluster = loaded(4, ElectionKind::Fixed);
    let approx = cluster.query_approx(&ScalarPoint(9), 1_000_000).unwrap();
    assert_eq!(approx.neighbors.len(), cluster.total_points());
}

#[test]
fn elected_leader_is_respected_by_the_protocol() {
    // With the flood election the leader varies by seed; the answer must
    // not, and the reported leader must match who coordinated.
    let mut leaders = std::collections::HashSet::new();
    let mut answers = Vec::new();
    for seed in 0..6 {
        let shards = ScalarWorkload { per_machine: 500, lo: 0, hi: 1 << 20 }.generate(5, 3);
        let mut cluster: KnnCluster =
            KnnCluster::builder().machines(5).seed(seed).election(ElectionKind::Flood).build();
        cluster.load_shards(shards).unwrap();
        let ans = cluster.query(&ScalarPoint(1 << 19), 9).unwrap();
        leaders.insert(ans.leader);
        answers.push(ans.neighbors.iter().map(|n| n.id).collect::<Vec<_>>());
        assert!(ans.election_metrics.is_some());
    }
    assert!(leaders.len() >= 2, "flood election should vary the leader across seeds");
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "answer independent of leader");
}

#[test]
fn election_cost_is_separated_from_query_cost() {
    let fixed = loaded(8, ElectionKind::Fixed);
    let star = loaded(8, ElectionKind::Star);
    let q = ScalarPoint(42);
    let a = fixed.query(&q, 20).unwrap();
    let b = star.query(&q, 20).unwrap();
    // Identical answers; the election cost is reported separately (the
    // main protocol's exact trace legitimately varies with the elected
    // leader's identity, since pivots are drawn from the leader's stream).
    assert_eq!(
        a.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
        b.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
    );
    assert_eq!(a.election_metrics, None);
    let em = b.report.election_metrics.unwrap();
    assert_eq!(em.messages, 14); // 2(k-1)
    assert_eq!(em.rounds, 2);
}

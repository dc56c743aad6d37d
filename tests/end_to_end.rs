//! End-to-end integration: workloads → partitions → distributed protocols
//! → answers, validated against the sequential brute-force oracle, for all
//! algorithms.

use knn_repro::points::brute_force_knn;
use knn_repro::prelude::*;

fn oracle_ids(shards: &[Dataset<ScalarPoint>], q: &ScalarPoint, ell: usize) -> Vec<PointId> {
    let all: Vec<Record<ScalarPoint>> = shards.iter().flat_map(|d| d.records.clone()).collect();
    brute_force_knn(&all, q, ell, Metric::Euclidean).into_iter().map(|(k, _)| k.id).collect()
}

#[test]
fn every_algorithm_on_every_engine_matches_brute_force() {
    let k = 6;
    let shards = ScalarWorkload { per_machine: 2000, lo: 0, hi: 1 << 20 }.generate(k, 31);
    let q = ScalarPoint(777_777);
    let ell = 50;
    let want = oracle_ids(&shards, &q, ell);

    let mut cluster: KnnCluster = KnnCluster::builder().machines(k).seed(9).build();
    cluster.load_shards(shards).unwrap();
    for algo in Algorithm::ALL {
        let ans = cluster.query_with(algo, &q, ell).unwrap();
        let got: Vec<PointId> = ans.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(got, want, "{algo:?}");
        assert_eq!(ans.neighbors.len(), ell);
    }
}

#[test]
fn vector_points_and_every_metric() {
    let data = GaussianMixture { dims: 3, clusters: 4, spread: 2.0, range: 10.0 }.generate(600, 5);
    let q = VecPoint::new(vec![0.5, -1.0, 2.0]);
    for metric in [
        Metric::Euclidean,
        Metric::SquaredEuclidean,
        Metric::Manhattan,
        Metric::Chebyshev,
        Metric::Minkowski(3.0),
    ] {
        let mut ids = IdAssigner::new(1);
        let dataset = Dataset::from_labeled(data.clone(), &mut ids);
        let all = dataset.records.clone();
        let want: Vec<PointId> =
            brute_force_knn(&all, &q, 9, metric).into_iter().map(|(k, _)| k.id).collect();

        let mut cluster: KnnCluster<VecPoint> =
            KnnCluster::builder().machines(7).seed(2).metric(metric).build();
        cluster.load(dataset, PartitionStrategy::Shuffled);
        let got: Vec<PointId> =
            cluster.query(&q, 9).unwrap().neighbors.iter().map(|n| n.id).collect();
        assert_eq!(got, want, "{metric:?}");
    }
}

#[test]
fn duplicate_points_resolved_by_ids() {
    // 100 copies of the same value: any ℓ of them is a valid answer set,
    // but the id tie-breaking must make it *one deterministic* set.
    let mut ids = IdAssigner::new(6);
    let data = Dataset::from_points(vec![ScalarPoint(42); 100], &mut ids);
    let mut all_ids: Vec<PointId> = data.records.iter().map(|r| r.id).collect();
    let mut cluster: KnnCluster = KnnCluster::builder().machines(4).seed(3).build();
    cluster.load(data, PartitionStrategy::RoundRobin);

    let a = cluster.query(&ScalarPoint(40), 10).unwrap();
    let b = cluster.query_with(Algorithm::Simple, &ScalarPoint(40), 10).unwrap();
    assert_eq!(a.neighbors, b.neighbors);
    assert_eq!(a.neighbors.len(), 10);
    // All distances are equal, so DistKey order degenerates to id order:
    // the answer must be exactly the 10 smallest ids, ascending.
    all_ids.sort_unstable();
    let got: Vec<PointId> = a.neighbors.iter().map(|n| n.id).collect();
    assert_eq!(got, all_ids[..10], "smallest ids win ties, in ascending order");
}

#[test]
fn bandwidth_affects_rounds_not_answers() {
    let k = 4;
    let shards = ScalarWorkload { per_machine: 1000, lo: 0, hi: 1 << 16 }.generate(k, 77);
    let q = ScalarPoint(4000);
    let run = |bits: Option<u64>| {
        let builder = KnnCluster::builder().machines(k).seed(5);
        let builder = match bits {
            Some(b) => builder.bandwidth_bits(b),
            None => builder.unlimited_bandwidth(),
        };
        let mut cluster: KnnCluster = builder.build();
        cluster.load_shards(shards.clone()).unwrap();
        cluster.query_with(Algorithm::Simple, &q, 64).unwrap()
    };
    let narrow = run(Some(256));
    let wide = run(Some(4096));
    let unlimited = run(None);
    assert_eq!(narrow.neighbors, wide.neighbors);
    assert_eq!(narrow.neighbors, unlimited.neighbors);
    assert!(narrow.metrics.rounds > wide.metrics.rounds);
    assert!(wide.metrics.rounds >= unlimited.metrics.rounds);
}

#[test]
fn ell_edge_cases_through_the_full_stack() {
    let shards = ScalarWorkload { per_machine: 50, lo: 0, hi: 1000 }.generate(3, 1);
    let mut cluster: KnnCluster = KnnCluster::builder().machines(3).seed(0).build();
    cluster.load_shards(shards).unwrap();
    let q = ScalarPoint(500);

    for algo in Algorithm::ALL {
        assert_eq!(cluster.query_with(algo, &q, 0).unwrap().neighbors.len(), 0, "{algo:?}");
        assert_eq!(cluster.query_with(algo, &q, 1).unwrap().neighbors.len(), 1, "{algo:?}");
        assert_eq!(cluster.query_with(algo, &q, 150).unwrap().neighbors.len(), 150, "{algo:?}");
        assert_eq!(cluster.query_with(algo, &q, 1000).unwrap().neighbors.len(), 150, "{algo:?}");
    }
}

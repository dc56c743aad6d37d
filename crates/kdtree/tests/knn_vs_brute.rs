//! The k-d tree must return exactly the linear scan's answer — same
//! neighbors, same order, same tie-breaks, same distance bits — over random
//! point sets in 1 through 8, 16 and 33 dimensions, for every supported
//! metric. 33 dimensions leave a remainder after any vector width the leaf
//! scan might use.

use knn_kdtree::KdTree;
use knn_points::{brute_force_knn, Dist, IdAssigner, Metric, PointId, Record, VecPoint};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const METRICS: [Metric; 6] = [
    Metric::Euclidean,
    Metric::SquaredEuclidean,
    Metric::Manhattan,
    Metric::Chebyshev,
    Metric::Minkowski(3.0),
    Metric::Hamming,
];

fn random_records(n: usize, dims: usize, seed: u64) -> Vec<Record<VecPoint>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = IdAssigner::new(seed);
    (0..n)
        .map(|_| Record {
            id: ids.next_id(),
            point: VecPoint::new(
                (0..dims).map(|_| rng.random_range(-50.0..50.0)).collect::<Vec<f64>>(),
            ),
            label: None,
        })
        .collect()
}

fn oracle(
    records: &[Record<VecPoint>],
    query: &[f64],
    ell: usize,
    metric: Metric,
) -> Vec<(Dist, PointId)> {
    brute_force_knn(records, &VecPoint::new(query.to_vec()), ell, metric)
        .into_iter()
        .map(|(key, _)| (key.dist, key.id))
        .collect()
}

fn check(n: usize, dims: usize, ell: usize, metric: Metric, seed: u64) {
    let records = random_records(n, dims, seed);
    let tree = KdTree::from_records(&records);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51DE_CAFE);
    for _ in 0..8 {
        let query: Vec<f64> = (0..dims).map(|_| rng.random_range(-60.0..60.0)).collect();
        let got = tree.knn(&query, ell, metric);
        let want = oracle(&records, &query, ell, metric);
        assert_eq!(
            got, want,
            "kdtree disagrees with brute force: n={n} dims={dims} ell={ell} metric={metric:?}"
        );
    }
}

#[test]
fn matches_brute_force_in_1_through_8_dimensions() {
    for dims in 1..=8 {
        for &n in &[1usize, 2, 17, 120] {
            for &ell in &[1usize, 4, 16] {
                check(n, dims, ell, Metric::Euclidean, dims as u64 * 1000 + n as u64);
            }
        }
    }
}

#[test]
fn matches_brute_force_in_16_and_33_dimensions() {
    for dims in [16usize, 33] {
        for &n in &[1usize, 40, 65, 700] {
            for &ell in &[1usize, 10, 64] {
                check(n, dims, ell, Metric::Euclidean, dims as u64 * 1000 + n as u64);
            }
        }
    }
}

#[test]
fn matches_brute_force_for_every_metric() {
    for (i, &metric) in METRICS.iter().enumerate() {
        for dims in [1usize, 3, 8, 16, 33] {
            check(80, dims, 5, metric, 7_000 + i as u64);
        }
    }
}

/// Points on a grid of four levels a side: coincident points and
/// `(distance, id)` ties are the common case, not the rare one. Every split
/// value is a grid level, so queries on the grid sit exactly on splitting
/// planes. The spacing is 0.3, not 1, so the squared sums round.
fn grid_records(n: usize, dims: usize, seed: u64) -> Vec<Record<VecPoint>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = IdAssigner::new(seed);
    (0..n)
        .map(|_| Record {
            id: ids.next_id(),
            point: VecPoint::new(grid_point(&mut rng, dims)),
            label: None,
        })
        .collect()
}

fn grid_point(rng: &mut StdRng, dims: usize) -> Vec<f64> {
    (0..dims).map(|_| f64::from(rng.random_range(0u32..4)) * 0.3).collect()
}

#[test]
fn grid_ties_and_split_plane_queries_match_brute_force_in_16_and_33_dimensions() {
    for dims in [16usize, 33] {
        for &n in &[1usize, 40, 600] {
            let records = grid_records(n, dims, 31 * dims as u64 + n as u64);
            let tree = KdTree::from_records(&records);
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut queries: Vec<Vec<f64>> =
                (0..3).map(|i| records[i * 7 % n].point.0.to_vec()).collect();
            queries.extend((0..3).map(|_| grid_point(&mut rng, dims)));
            for query in &queries {
                for metric in METRICS {
                    for &ell in &[1usize, 10, 64] {
                        assert_eq!(
                            tree.knn(query, ell, metric),
                            oracle(&records, query, ell, metric),
                            "n={n} dims={dims} ell={ell} metric={metric:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn ell_at_least_n_returns_everything_in_order() {
    for dims in [1usize, 4, 8] {
        let records = random_records(25, dims, 42 + dims as u64);
        let tree = KdTree::from_records(&records);
        let query = vec![0.0; dims];
        for ell in [25usize, 26, 1000] {
            let got = tree.knn(&query, ell, Metric::Euclidean);
            assert_eq!(got.len(), 25);
            assert_eq!(got, oracle(&records, &query, ell, Metric::Euclidean));
        }
    }
}

#[test]
fn duplicate_points_break_ties_by_id() {
    // Many coincident points: ordering must fall back to PointId, exactly
    // like the linear scan.
    let mut ids = IdAssigner::new(9);
    let records: Vec<Record<VecPoint>> = (0..40)
        .map(|i| Record {
            id: ids.next_id(),
            point: VecPoint::new(vec![(i % 4) as f64, 1.0]),
            label: None,
        })
        .collect();
    let tree = KdTree::from_records(&records);
    let query = [0.2, 1.0];
    for ell in [1usize, 7, 13, 40] {
        assert_eq!(
            tree.knn(&query, ell, Metric::Euclidean),
            oracle(&records, &query, ell, Metric::Euclidean),
            "tie-break divergence at ell={ell}"
        );
    }
}

#[test]
fn degenerate_inputs() {
    let tree = KdTree::from_records(&[]);
    assert!(tree.knn(&[1.0], 3, Metric::Euclidean).is_empty());

    let records = random_records(10, 2, 5);
    let tree = KdTree::from_records(&records);
    assert!(tree.knn(&[0.0, 0.0], 0, Metric::Euclidean).is_empty());

    // Points on a line embedded in 3-D (degenerate spread on two axes).
    let mut ids = IdAssigner::new(77);
    let line: Vec<Record<VecPoint>> = (0..30)
        .map(|i| Record {
            id: ids.next_id(),
            point: VecPoint::new(vec![i as f64, 0.0, 0.0]),
            label: None,
        })
        .collect();
    let tree = KdTree::from_records(&line);
    let query = [12.4, 0.0, 0.0];
    assert_eq!(tree.knn(&query, 4, Metric::Euclidean), oracle(&line, &query, 4, Metric::Euclidean));
}

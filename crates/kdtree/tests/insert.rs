//! `KdTree::insert` must leave a tree that answers exactly like the linear
//! scan over everything inserted so far — whatever order the points arrive
//! in, whether the tree started empty or bulk-built — and must stay
//! logarithmically deep under the orders that unbalance a plain k-d tree.

use knn_kdtree::KdTree;
use knn_points::{brute_force_knn, Dist, Metric, PointId, Record, VecPoint};
use proptest::prelude::*;

const METRICS: [Metric; 6] = [
    Metric::Euclidean,
    Metric::SquaredEuclidean,
    Metric::Manhattan,
    Metric::Chebyshev,
    Metric::Minkowski(3.0),
    Metric::Hamming,
];

fn record(id: u64, coords: Vec<f64>) -> Record<VecPoint> {
    Record { id: PointId(id), point: VecPoint::new(coords), label: None }
}

fn assert_matches_scan(tree: &KdTree, records: &[Record<VecPoint>], query: &[f64], ell: usize) {
    let q = VecPoint::new(query.to_vec());
    for metric in METRICS {
        let want: Vec<(Dist, PointId)> = brute_force_knn(records, &q, ell, metric)
            .into_iter()
            .map(|(key, _)| (key.dist, key.id))
            .collect();
        assert_eq!(tree.knn(query, ell, metric), want, "knn, {metric:?}, n = {}", records.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn prop_interleaved_inserts_match_brute_force(
        dims in 1usize..9,
        bulk in 0usize..40,
        // Coordinates on a coarse grid: duplicates and (dist, id) ties are
        // the common case, not the rare one.
        cells in proptest::collection::vec(0u32..4, 8..480),
        ell in 1usize..12,
    ) {
        let points: Vec<Vec<f64>> =
            cells.chunks_exact(dims).map(|c| c.iter().map(|&x| f64::from(x)).collect()).collect();
        // Ids descend so a later insert wins every distance tie.
        let n = points.len() as u64;
        let mut records: Vec<Record<VecPoint>> = Vec::new();
        let mut rest = points.iter().enumerate().map(|(i, p)| record(n - i as u64, p.clone()));
        records.extend(rest.by_ref().take(bulk));
        let mut tree = KdTree::from_records(&records);
        for (step, r) in rest.enumerate() {
            tree.insert(r.id, &r.point.0);
            records.push(r);
            prop_assert_eq!(tree.stats().len, records.len());
            // Query at a stored point (distance-0 ties) and off the grid.
            let stored = records[step * 7 % records.len()].point.0.to_vec();
            assert_matches_scan(&tree, &records, &stored, ell);
            assert_matches_scan(&tree, &records, &vec![1.5; dims], ell);
        }
    }
}

/// 16-d inserts interleaved with queries, most of them crowded into one
/// small corner of a bulk-built tree: the leaf there overflows and splits
/// again and again, and the tree must answer like the scan after each one.
#[test]
fn crowded_16d_inserts_overfill_one_leaf_and_match_brute_force() {
    const DIMS: usize = 16;
    let spread = |i: u64, scale: u64| -> Vec<f64> {
        (0..DIMS as u64).map(|j| ((i * (2 * j + 3) + j) % scale) as f64).collect()
    };
    let mut records: Vec<Record<VecPoint>> =
        (0..256u64).map(|i| record(1_000 + i, spread(i, 16))).collect();
    let mut tree = KdTree::from_records(&records);
    for i in 0..400u64 {
        // Nine of ten land on the corner's 2^16 grid points, often the same
        // one; ids descend so a later insert wins every distance tie.
        let coords = if i % 10 == 9 { spread(i * 13, 16) } else { spread(i, 2) };
        let r = record(999 - i, coords);
        tree.insert(r.id, &r.point.0);
        records.push(r);
        if i % 4 == 3 {
            assert_matches_scan(&tree, &records, &[0.5; DIMS], 12);
            assert_matches_scan(&tree, &records, &spread(i + 1, 2), 70);
        }
    }
    assert_eq!(tree.len(), 656);
}

fn ceil_log2(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

/// 4,096 points ascending on every axis — each lands at the far right of
/// whatever is there — appended to `tree`.
fn insert_ascending_and_check_depth(mut tree: KdTree, mut records: Vec<Record<VecPoint>>) {
    let base = records.len();
    for i in 0..4096usize {
        let r = record((base + i) as u64, vec![(base + i) as f64; 2]);
        tree.insert(r.id, &r.point.0);
        records.push(r);
        if (i + 1) % 256 == 0 {
            let n = records.len();
            let stats = tree.stats();
            assert_eq!(stats.len, n);
            assert!(stats.depth <= 2 * ceil_log2(n) + 2, "depth {} at n = {n}", stats.depth);
        }
    }
    assert_matches_scan(&tree, &records, &[(base + 4000) as f64 + 0.5, 17.0], 9);
}

#[test]
fn sorted_inserts_into_an_empty_tree_stay_shallow() {
    insert_ascending_and_check_depth(KdTree::from_records(&[]), Vec::new());
}

#[test]
fn sorted_inserts_appended_to_a_bulk_tree_stay_shallow() {
    let records: Vec<Record<VecPoint>> =
        (0..4096u64).map(|i| record(i, vec![i as f64, (i * 37 % 4096) as f64])).collect();
    insert_ascending_and_check_depth(KdTree::from_records(&records), records);
}

#[test]
fn identical_points_stay_shallow() {
    let mut tree = KdTree::from_records(&[]);
    for i in 0..2048u64 {
        tree.insert(PointId(i), &[1.0, 1.0, 1.0]);
    }
    let stats = tree.stats();
    assert_eq!(stats.len, 2048);
    assert!(stats.depth <= 2 * 11 + 2, "depth {}", stats.depth);
    let got = tree.knn(&[1.0, 1.0, 1.0], 5, Metric::Euclidean);
    assert_eq!(got.iter().map(|&(_, id)| id.0).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
}

#[test]
fn insert_into_an_empty_tree_adopts_the_dimensionality() {
    let mut tree = KdTree::build(vec![]);
    assert_eq!(tree.dims(), 0);
    tree.insert(PointId(3), &[1.0, 2.0, 3.0]);
    assert_eq!((tree.dims(), tree.len(), tree.stats().depth), (3, 1, 1));
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn insert_of_the_wrong_dimensionality_is_rejected() {
    let mut tree = KdTree::from_records(&[record(0, vec![1.0, 2.0])]);
    tree.insert(PointId(1), &[1.0]);
}

//! ℓ-NN queries.

use knn_points::{Dist, DistKey, Metric, PointId};

use crate::tree::KdTree;

impl KdTree {
    /// The ℓ nearest stored points to `query`, ascending by
    /// `(distance, id)`. Branch-and-bound with hyperplane pruning: a subtree
    /// is skipped when the axis gap to the splitting plane already exceeds
    /// the current ℓ-th best distance (valid for every Minkowski norm; for
    /// [`Metric::Hamming`] pruning is disabled and the search is exhaustive
    /// but still correct).
    ///
    /// # Panics
    /// If `query` has the wrong dimensionality for a non-empty tree.
    pub fn knn(&self, query: &[f64], ell: usize, metric: Metric) -> Vec<(Dist, PointId)> {
        if self.is_empty() || ell == 0 {
            return Vec::new();
        }
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        let mut best = knn_selection::TopK::<DistKey>::new(ell);
        self.knn_rec(self.root, query, metric, &mut best);
        best.into_sorted().into_iter().map(|k| (k.dist, k.id)).collect()
    }

    fn knn_rec(
        &self,
        node: i32,
        query: &[f64],
        metric: Metric,
        best: &mut knn_selection::TopK<DistKey>,
    ) {
        if node < 0 {
            return;
        }
        let n = self.nodes[node as usize];
        let coords = self.point(n.point);
        let d = metric.distance(query, coords);
        best.push(DistKey::new(d, self.ids[n.point as usize]));

        let axis = n.axis as usize;
        let gap = query[axis] - coords[axis];
        let (near, far) = if gap < 0.0 { (n.left, n.right) } else { (n.right, n.left) };
        self.knn_rec(near, query, metric, best);

        if let Some(bound) = plane_bound(gap, metric) {
            if let Some(worst) = best.threshold() {
                // Strict: at bound == worst.dist the far side can still hold
                // an equal-distance point with a smaller id, which wins the
                // (distance, id) tie-break the query contract promises.
                if bound > worst.dist {
                    return; // Far side cannot improve the current best ℓ.
                }
            }
        }
        self.knn_rec(far, query, metric, best);
    }
}

/// Lower bound on the distance from the query to *any* point on the far
/// side of the splitting plane, encoded consistently with `metric`'s
/// [`Dist`] family. `None` means "no usable bound" (Hamming).
fn plane_bound(gap: f64, metric: Metric) -> Option<Dist> {
    let g = gap.abs();
    match metric {
        Metric::SquaredEuclidean => Some(Dist::from_f64(g * g)),
        Metric::Hamming => None,
        _ => Some(Dist::from_f64(g)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_points::{brute_force_knn, IdAssigner, Record, VecPoint};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn random_records(n: usize, dims: usize, seed: u64) -> Vec<Record<VecPoint>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = IdAssigner::new(seed);
        (0..n)
            .map(|_| {
                let coords: Vec<f64> = (0..dims).map(|_| rng.random_range(-10.0..10.0)).collect();
                Record { id: ids.next_id(), point: VecPoint::new(coords), label: None }
            })
            .collect()
    }

    fn check_against_brute(n: usize, dims: usize, ell: usize, metric: Metric, seed: u64) {
        let records = random_records(n, dims, seed);
        let tree = KdTree::from_records(&records);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let q: Vec<f64> = (0..dims).map(|_| rng.random_range(-10.0..10.0)).collect();
        let got = tree.knn(&q, ell, metric);
        let expected = brute_force_knn(&records, &VecPoint::new(q), ell, metric);
        let got_ids: Vec<PointId> = got.iter().map(|&(_, id)| id).collect();
        let expected_ids: Vec<PointId> = expected.iter().map(|(k, _)| k.id).collect();
        assert_eq!(got_ids, expected_ids, "n={n} dims={dims} ell={ell} {metric:?}");
    }

    #[test]
    fn matches_brute_force_euclidean() {
        check_against_brute(300, 3, 10, Metric::Euclidean, 1);
    }

    #[test]
    fn matches_brute_force_all_metrics() {
        for (i, m) in [
            Metric::Euclidean,
            Metric::SquaredEuclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Minkowski(3.0),
            Metric::Hamming,
        ]
        .into_iter()
        .enumerate()
        {
            check_against_brute(150, 2, 7, m, 100 + i as u64);
        }
    }

    #[test]
    fn ell_larger_than_n_returns_all() {
        let records = random_records(5, 2, 2);
        let tree = KdTree::from_records(&records);
        let got = tree.knn(&[0.0, 0.0], 50, Metric::Euclidean);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn empty_tree_queries() {
        let tree = KdTree::build(vec![]);
        assert!(tree.knn(&[], 3, Metric::Euclidean).is_empty());
    }

    #[test]
    fn knn_one_dimensional() {
        check_against_brute(200, 1, 5, Metric::Euclidean, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_knn_matches_brute_force(
            n in 1usize..120,
            dims in 1usize..4,
            ell in 1usize..20,
            seed in 0u64..1000,
        ) {
            check_against_brute(n, dims, ell, Metric::Euclidean, seed);
        }
    }
}

//! ℓ-NN queries.

use knn_points::{Dist, DistKey, Metric, PointId};
use knn_selection::TopK;

use crate::tree::{KdTree, Leaf, Node, LEAF_MAX};

impl KdTree {
    /// The ℓ nearest stored points to `query`, ascending by
    /// `(distance, id)` — exactly the linear scan's answer, ties included.
    /// Branch-and-bound: [`Metric::Euclidean`] and
    /// [`Metric::SquaredEuclidean`] scan a leaf's points all at once and
    /// skip a subtree whose cell lies farther than the current ℓ-th best
    /// distance; the other Minkowski norms skip it on the gap to its
    /// splitting plane alone, and [`Metric::Hamming`], which no gap bounds,
    /// searches exhaustively.
    ///
    /// # Panics
    /// If `query` has the wrong dimensionality for a non-empty tree.
    pub fn knn(&self, query: &[f64], ell: usize, metric: Metric) -> Vec<(Dist, PointId)> {
        if self.is_empty() || ell == 0 {
            return Vec::new();
        }
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        let best = match metric {
            // An empty sum is −0.0 to `Metric::distance`; a 0-d tree takes
            // the generic scan, which computes it there.
            Metric::Euclidean | Metric::SquaredEuclidean if self.dims > 0 => {
                let mut search = L2Search {
                    query,
                    squared: metric == Metric::SquaredEuclidean,
                    offsets: vec![0.0; self.dims],
                    best: TopK::new(ell),
                    limit: f64::INFINITY,
                };
                search.visit(&self.root);
                search.best
            }
            _ => {
                let mut best = TopK::new(ell);
                visit_generic(&self.root, query, metric, &mut best, &mut vec![0.0; self.dims]);
                best
            }
        };
        best.into_sorted().into_iter().map(|k| (k.dist, k.id)).collect()
    }
}

/// The child on the query's side of a split at `gap = query[axis] − split`,
/// then the other one.
fn near_far(children: &[Node; 2], gap: f64) -> (&Node, &Node) {
    if gap < 0.0 {
        (&children[0], &children[1])
    } else {
        (&children[1], &children[0])
    }
}

/// A Euclidean or squared-Euclidean search. Both rank points by the squared
/// sum `Σⱼ (xⱼ − qⱼ)²`, added in `Metric::distance`'s order, so each
/// distance it reports is bit-identical to the linear scan's.
struct L2Search<'q> {
    query: &'q [f64],
    /// Report the squared sum itself, not its square root.
    squared: bool,
    /// Per axis, the squared gap from the query to the cell being visited
    /// (0 on axes where the query lies within the cell's extent).
    offsets: Vec<f64>,
    best: TopK<DistKey>,
    /// The largest squared sum that can still enter `best`: +∞ until `best`
    /// is full, then the one whose distance is the current ℓ-th best.
    limit: f64,
}

impl L2Search<'_> {
    fn visit(&mut self, node: &Node) {
        let (axis, split, children) = match node {
            Node::Leaf(leaf) => return self.scan(leaf),
            Node::Split { axis, split, children } => (*axis, *split, children),
        };
        let gap = self.query[axis] - split;
        let (near, far) = near_far(children, gap);
        self.visit(near);
        // The far cell lies across the split from the query, so its squared
        // gap on `axis` grows to `gap²` (Arya–Mount's incremental distance).
        // The bound is recomputed as a plain sum, never updated by
        // subtraction, so it carries no cancellation: every point x of the
        // far cell has |xⱼ − qⱼ| ≥ the cell's gap on every axis j, rounding
        // is monotone, and the bound adds its terms in the order the point's
        // sum does — so it never exceeds any point's computed sum. The
        // comparison is strict: a cell whose bound equals the limit can hold
        // a point at exactly the ℓ-th distance, which with a smaller id
        // still wins the `(distance, id)` tie-break the query contract
        // promises.
        let saved = self.offsets[axis];
        self.offsets[axis] = saved.max(gap * gap);
        let bound: f64 = self.offsets.iter().sum();
        let pruned = bound > self.limit;
        if !pruned {
            self.visit(far);
        }
        self.offsets[axis] = saved;
    }

    /// Offer every point of `leaf` to `best`, [`LEAF_MAX`] points at a time
    /// (all of them, unless they coincide on every axis): the squared sums
    /// of a chunk build up column by column, one lane per point, so the loop
    /// runs across points and each lane adds its terms in dimension order,
    /// exactly like `Metric::distance`. Sums above the limit are rejected
    /// before any square root or heap operation.
    fn scan(&mut self, leaf: &Leaf) {
        let n = leaf.ids.len();
        let mut sums = [0.0; LEAF_MAX];
        for start in (0..n).step_by(LEAF_MAX) {
            let lanes = &mut sums[..LEAF_MAX.min(n - start)];
            lanes.fill(0.0);
            for (j, &q) in self.query.iter().enumerate() {
                let column = &leaf.cols[j * leaf.stride + start..][..lanes.len()];
                for (sum, &x) in lanes.iter_mut().zip(column) {
                    *sum += (x - q) * (x - q);
                }
            }
            for (&sum, &id) in lanes.iter().zip(&leaf.ids[start..]) {
                // Not `<=`: a NaN sum must reach `Dist::from_f64` and fail
                // there, as it does in the linear scan.
                if sum > self.limit {
                    continue;
                }
                let dist = if self.squared { sum } else { sum.sqrt() };
                self.best.push(DistKey::new(Dist::from_f64(dist), id));
                if let Some(worst) = self.best.threshold() {
                    let worst = worst.dist.as_f64();
                    self.limit = if self.squared { worst } else { sqrt_limit(worst) };
                }
            }
        }
    }
}

/// The largest `s` with `s.sqrt() <= w`, for a finite `w >= 0`. A correctly
/// rounded square root is monotone, so for every sum `s`,
/// `s > sqrt_limit(w)` exactly when `s.sqrt() > w`: a squared sum is
/// compared with the ℓ-th distance without taking its root.
pub(crate) fn sqrt_limit(w: f64) -> f64 {
    let mut s = (w * w).min(f64::MAX);
    while s.sqrt() > w {
        s = s.next_down();
    }
    while s.next_up().sqrt() <= w {
        s = s.next_up();
    }
    s
}

/// Any other metric: each leaf point's distance through
/// [`Metric::distance`] on its gathered row, and the one-axis gap bound of
/// [`plane_bound`] to skip a far subtree.
fn visit_generic(
    node: &Node,
    query: &[f64],
    metric: Metric,
    best: &mut TopK<DistKey>,
    row: &mut [f64],
) {
    match node {
        Node::Leaf(leaf) => {
            for (i, &id) in leaf.ids.iter().enumerate() {
                for (j, x) in row.iter_mut().enumerate() {
                    *x = leaf.cols[j * leaf.stride + i];
                }
                best.push(DistKey::new(metric.distance(row, query), id));
            }
        }
        Node::Split { axis, split, children } => {
            let gap = query[*axis] - split;
            let (near, far) = near_far(children, gap);
            visit_generic(near, query, metric, best, row);
            if let (Some(bound), Some(worst)) = (plane_bound(gap, metric), best.threshold()) {
                // Strict: at bound == worst.dist the far side can still hold
                // an equal-distance point with a smaller id, which wins the
                // (distance, id) tie-break the query contract promises.
                if bound > worst.dist {
                    return; // Far side cannot improve the current best ℓ.
                }
            }
            visit_generic(far, query, metric, best, row);
        }
    }
}

/// Lower bound on the distance from the query to *any* point on the far
/// side of the splitting plane, for the metrics [`visit_generic`] serves
/// (a tree with splits has a dimension, so the Euclidean ones never come
/// here). `None` means "no usable bound" (Hamming).
fn plane_bound(gap: f64, metric: Metric) -> Option<Dist> {
    match metric {
        Metric::Hamming => None,
        _ => Some(Dist::from_f64(gap.abs())),
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

    /// `s <= sqrt_limit(w)` exactly when `s.sqrt() <= w`, checked at the
    /// limit, around it, and around `w²`, for random `w` and for the ulp
    /// neighbours of each.
    #[test]
    fn sqrt_limit_is_the_exact_square_root_threshold() {
        let mut rng = StdRng::seed_from_u64(0x5157);
        let mut ws = vec![0.0, f64::MIN_POSITIVE, 1.0, 2.0, 1e-300, 1e150, 1e300, f64::MAX];
        for _ in 0..2000 {
            let w = rng.random_range(0.0f64..1.0) * 10f64.powi(rng.random_range(-20..20));
            ws.extend([w, w.next_up(), w.next_down().max(0.0)]);
        }
        for w in ws {
            let t = sqrt_limit(w);
            let square = w * w;
            for s in [t, t.next_up(), t.next_down(), square, square.next_up(), square.next_down()] {
                if s >= 0.0 {
                    assert_eq!(s <= t, s.sqrt() <= w, "w = {w:e}, s = {s:e}, limit = {t:e}");
                }
            }
        }
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

//! ℓ-NN classification and regression — the applications that motivate the
//! paper (§1: "assign a label to q based on the labels of the K-nearest
//! points").

use knn_points::Label;

use crate::cluster::{KnnCluster, Neighbor};
use crate::error::CoreError;
use crate::local::IndexedPoint;

/// Majority vote over the neighbors' class labels; ties break toward the
/// smaller class id, unlabeled and regression-labeled neighbors are
/// ignored. `None` when no neighbor carries a class label.
pub fn majority_class(neighbors: &[Neighbor]) -> Option<u32> {
    let mut votes: Vec<(u32, usize)> = Vec::new();
    for n in neighbors {
        if let Some(Label::Class(c)) = n.label {
            match votes.iter_mut().find(|(cls, _)| *cls == c) {
                Some((_, count)) => *count += 1,
                None => votes.push((c, 1)),
            }
        }
    }
    votes.into_iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0))).map(|(c, _)| c)
}

/// Mean of the neighbors' value labels (the paper's regression rule);
/// `None` when no neighbor carries one.
pub fn mean_value(neighbors: &[Neighbor]) -> Option<f64> {
    let values: Vec<f64> = neighbors
        .iter()
        .filter_map(|n| match n.label {
            Some(Label::Value(v)) => Some(v),
            _ => None,
        })
        .collect();
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Rank-weighted mean: the `i`-th nearest labeled neighbor gets weight
/// `1/(i+1)`. A common refinement of the paper's plain-average rule;
/// rank-based (rather than raw-distance-based) weights keep the rule
/// well-defined for both integer and float distance families.
pub fn weighted_mean_value(neighbors: &[Neighbor]) -> Option<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    let mut rank = 0usize;
    for n in neighbors {
        if let Some(Label::Value(v)) = n.label {
            let w = 1.0 / (rank + 1) as f64;
            num += w * v;
            den += w;
            rank += 1;
        }
    }
    (den > 0.0).then(|| num / den)
}

/// An ℓ-NN classifier over a distributed dataset.
#[derive(Debug)]
pub struct KnnClassifier<P: IndexedPoint> {
    cluster: KnnCluster<P>,
    ell: usize,
}

impl<P: IndexedPoint> KnnClassifier<P> {
    /// Classify by majority vote over the `ell` nearest neighbors.
    pub fn new(cluster: KnnCluster<P>, ell: usize) -> Self {
        KnnClassifier { cluster, ell }
    }

    /// Predicted class for `q` (`None` when the data is unlabeled/empty).
    pub fn predict(&self, q: &P) -> Result<Option<u32>, CoreError> {
        Ok(majority_class(&self.cluster.query(q, self.ell)?.neighbors))
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &KnnCluster<P> {
        &self.cluster
    }
}

/// An ℓ-NN regressor over a distributed dataset.
#[derive(Debug)]
pub struct KnnRegressor<P: IndexedPoint> {
    cluster: KnnCluster<P>,
    ell: usize,
    weighted: bool,
}

impl<P: IndexedPoint> KnnRegressor<P> {
    /// Predict by plain mean of the `ell` nearest targets.
    pub fn new(cluster: KnnCluster<P>, ell: usize) -> Self {
        KnnRegressor { cluster, ell, weighted: false }
    }

    /// Use the rank-weighted mean ([`weighted_mean_value`]: the `i`-th
    /// nearest labeled neighbor weighs `1/(i+1)`) instead of the plain mean.
    pub fn weighted(mut self) -> Self {
        self.weighted = true;
        self
    }

    /// Predicted value for `q`.
    pub fn predict(&self, q: &P) -> Result<Option<f64>, CoreError> {
        let answer = self.cluster.query(q, self.ell)?;
        Ok(if self.weighted {
            weighted_mean_value(&answer.neighbors)
        } else {
            mean_value(&answer.neighbors)
        })
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &KnnCluster<P> {
        &self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_points::{Dist, PointId};

    fn nb(dist: u64, label: Option<Label>) -> Neighbor {
        Neighbor { id: PointId(dist), dist: Dist::from_u64(dist), machine: 0, label }
    }

    #[test]
    fn majority_vote_basic() {
        let ns = [
            nb(1, Some(Label::Class(2))),
            nb(2, Some(Label::Class(1))),
            nb(3, Some(Label::Class(2))),
        ];
        assert_eq!(majority_class(&ns), Some(2));
    }

    #[test]
    fn majority_vote_tie_breaks_low() {
        let ns = [nb(1, Some(Label::Class(5))), nb(2, Some(Label::Class(3)))];
        assert_eq!(majority_class(&ns), Some(3));
    }

    #[test]
    fn majority_ignores_value_labels_and_none() {
        let ns = [nb(1, Some(Label::Value(9.0))), nb(2, None)];
        assert_eq!(majority_class(&ns), None);
    }

    #[test]
    fn mean_value_basic() {
        let ns = [
            nb(1, Some(Label::Value(1.0))),
            nb(2, Some(Label::Value(3.0))),
            nb(3, Some(Label::Class(7))),
        ];
        assert_eq!(mean_value(&ns), Some(2.0));
        assert_eq!(mean_value(&[]), None);
    }

    #[test]
    fn weighted_mean_prefers_closer_points() {
        // Integer-family distances: 1 vs 9.
        let ns = [nb(1, Some(Label::Value(0.0))), nb(9, Some(Label::Value(10.0)))];
        let w = weighted_mean_value(&ns).unwrap();
        assert!(w < 5.0, "closer neighbor should dominate, got {w}");
    }
}

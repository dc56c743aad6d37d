//! The correctness oracle: a brute-force scan over a shadow dataset that
//! follows the inserts op by op, independent of the program's indices and
//! selection code.

use std::collections::{BinaryHeap, HashMap};

use knn_core::Neighbor;
use knn_points::{DistKey, Metric, Point, PointId};

use crate::workloads::Source;

/// The dataset as of any op: the generated records plus every inserted
/// point in insert order, with the id the cluster assigned.
pub struct Shadow<P> {
    pub base: Source<P>,
    pub inserted: Vec<(PointId, P)>,
}

impl<P: Point> Shadow<P> {
    /// `(id, point)` of everything present once `inserts` inserts are done.
    fn as_of(&self, inserts: usize) -> impl Iterator<Item = (PointId, &P)> {
        self.base
            .records()
            .map(|r| (r.id, &r.point))
            .chain(self.inserted[..inserts].iter().map(|(id, p)| (*id, p)))
    }

    /// The exact ℓ nearest neighbours of `query` as of `inserts` inserts,
    /// ascending by `(distance, id)`: one pass with a bounded max-heap.
    pub fn top(&self, query: &P, ell: usize, inserts: usize, metric: Metric) -> Vec<DistKey> {
        let mut heap: BinaryHeap<DistKey> = BinaryHeap::with_capacity(ell + 1);
        for (id, point) in self.as_of(inserts) {
            let key = DistKey::new(point.distance(query, metric), id);
            if heap.len() < ell {
                heap.push(key);
            } else if heap.peek().is_some_and(|worst| key < *worst) {
                heap.pop();
                heap.push(key);
            }
        }
        heap.into_sorted_vec()
    }

    /// `id -> (point, inserts done when it became visible)`.
    pub fn by_id(&self) -> HashMap<PointId, (&P, usize)> {
        let base = self.base.records().map(|r| (r.id, (&r.point, 0)));
        let inserted = self.inserted.iter().enumerate().map(|(i, (id, p))| (*id, (p, i + 1)));
        base.chain(inserted).collect()
    }
}

/// Verdict on one answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    pub wrong: bool,
    pub recall: f64,
}

/// Judge `answer` against the oracle's `truth`. On an exact backend any
/// difference is wrong. On an approximate one an answer is wrong only when
/// it is not genuine: an id that was not present as of the op, a distance
/// that is not that point's distance, a wrong length, or a bad order.
pub fn judge(
    answer: &[Neighbor],
    truth: &[DistKey],
    exact: bool,
    genuine: impl Fn(&Neighbor) -> bool,
) -> Verdict {
    let keys: Vec<DistKey> = answer.iter().map(|n| DistKey::new(n.dist, n.id)).collect();
    let hits = truth.iter().filter(|t| keys.contains(t)).count();
    let recall = if truth.is_empty() { 1.0 } else { hits as f64 / truth.len() as f64 };
    let wrong = if exact {
        keys != truth
    } else {
        keys.len() != truth.len()
            || !keys.windows(2).all(|w| w[0] < w[1])
            || !answer.iter().all(genuine)
    };
    Verdict { wrong, recall }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_core::Neighbor;
    use knn_points::{brute_force_knn, Dataset, Dist, IdAssigner, ScalarPoint};

    fn neighbor(key: DistKey) -> Neighbor {
        Neighbor { id: key.id, dist: key.dist, machine: 0, label: None }
    }

    #[test]
    fn shadow_top_matches_brute_force_and_follows_inserts() {
        let mut ids = IdAssigner::new(3);
        let values: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(7919) % 1000).collect();
        let data = Dataset::from_points(values.iter().map(|&v| ScalarPoint(v)).collect(), &mut ids);
        let records = data.records.clone();
        let shadow = Shadow {
            base: Source::Whole(data),
            inserted: vec![(PointId(u64::MAX - 1), ScalarPoint(500))],
        };
        let q = ScalarPoint(500);
        let want: Vec<DistKey> = brute_force_knn(&records, &q, 7, Metric::Euclidean)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(shadow.top(&q, 7, 0, Metric::Euclidean), want);
        let after = shadow.top(&q, 7, 1, Metric::Euclidean);
        assert_eq!(after[0], DistKey::new(Dist::from_u64(0), PointId(u64::MAX - 1)));
        assert_eq!(shadow.by_id()[&PointId(u64::MAX - 1)].1, 1);
    }

    #[test]
    fn judge_separates_wrong_from_inexact() {
        let key = |d: u64, id: u64| DistKey::new(Dist::from_u64(d), PointId(id));
        let truth = vec![key(1, 1), key(2, 2), key(3, 3)];
        let same: Vec<Neighbor> = truth.iter().copied().map(neighbor).collect();
        assert_eq!(judge(&same, &truth, true, |_| true), Verdict { wrong: false, recall: 1.0 });
        // A genuine but farther point: wrong on Exact, merely lower recall on NSW.
        let near_miss: Vec<Neighbor> =
            [key(1, 1), key(2, 2), key(4, 4)].into_iter().map(neighbor).collect();
        assert!(judge(&near_miss, &truth, true, |_| true).wrong);
        let v = judge(&near_miss, &truth, false, |_| true);
        assert!(!v.wrong && (v.recall - 2.0 / 3.0).abs() < 1e-12);
        // A fabricated neighbour or an unsorted answer is wrong on any backend.
        assert!(judge(&near_miss, &truth, false, |n| n.id != PointId(4)).wrong);
        let unsorted: Vec<Neighbor> =
            [key(2, 2), key(1, 1), key(3, 3)].into_iter().map(neighbor).collect();
        assert!(judge(&unsorted, &truth, false, |_| true).wrong);
    }
}

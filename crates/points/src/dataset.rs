//! Labeled datasets and the brute-force reference oracle.

use crate::id::{IdAssigner, PointId};
use crate::key::DistKey;
use crate::metric::Metric;
use crate::point::Point;

/// A training label: class for classification, value for regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Label {
    /// Categorical class.
    Class(u32),
    /// Real-valued target.
    Value(f64),
}

/// One training record: identified, located, optionally labeled.
#[derive(Debug, Clone, PartialEq)]
pub struct Record<P> {
    /// Unique id (see [`crate::IdAssigner`]).
    pub id: PointId,
    /// The point.
    pub point: P,
    /// Optional supervision.
    pub label: Option<Label>,
}

/// An in-memory dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset<P> {
    /// All records.
    pub records: Vec<Record<P>>,
}

impl<P: Point> Dataset<P> {
    /// Wrap existing records.
    pub fn new(records: Vec<Record<P>>) -> Self {
        Dataset { records }
    }

    /// Build from bare points, assigning fresh unique ids.
    pub fn from_points(points: Vec<P>, ids: &mut IdAssigner) -> Self {
        let records = points
            .into_iter()
            .map(|point| Record { id: ids.next_id(), point, label: None })
            .collect();
        Dataset { records }
    }

    /// Build from labeled points.
    pub fn from_labeled(points: Vec<(P, Label)>, ids: &mut IdAssigner) -> Self {
        let records = points
            .into_iter()
            .map(|(point, label)| Record { id: ids.next_id(), point, label: Some(label) })
            .collect();
        Dataset { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Look up a record by id (linear scan; test/diagnostic use).
    pub fn by_id(&self, id: PointId) -> Option<&Record<P>> {
        self.records.iter().find(|r| r.id == id)
    }
}

/// The sequential oracle: exact ℓ-nearest neighbors by full sort.
///
/// `O(n log n)`; used as ground truth in tests and as the reference the
/// paper reduces to ("compute all n distances, select the ℓ smallest",
/// §1.2). Ties are broken by point id, the same total order the distributed
/// protocols use, so results are always uniquely determined.
pub fn brute_force_knn<'a, P: Point>(
    records: &'a [Record<P>],
    query: &P,
    ell: usize,
    metric: Metric,
) -> Vec<(DistKey, &'a Record<P>)> {
    let mut keyed: Vec<(DistKey, &Record<P>)> =
        records.iter().map(|r| (DistKey::new(r.point.distance(query, metric), r.id), r)).collect();
    keyed.sort_by_key(|(k, _)| *k);
    keyed.truncate(ell);
    keyed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::ScalarPoint;

    fn dataset(values: &[u64]) -> Dataset<ScalarPoint> {
        let mut ids = IdAssigner::new(0);
        Dataset::from_points(values.iter().map(|&v| ScalarPoint(v)).collect(), &mut ids)
    }

    #[test]
    fn brute_force_finds_nearest() {
        let ds = dataset(&[10, 20, 30, 40, 50]);
        let nn = brute_force_knn(&ds.records, &ScalarPoint(24), 2, Metric::Euclidean);
        let vals: Vec<u64> = nn.iter().map(|(_, r)| r.point.0).collect();
        assert_eq!(vals, vec![20, 30]);
    }

    #[test]
    fn brute_force_truncates_to_available() {
        let ds = dataset(&[1, 2]);
        let nn = brute_force_knn(&ds.records, &ScalarPoint(0), 10, Metric::Euclidean);
        assert_eq!(nn.len(), 2);
    }

    #[test]
    fn ties_broken_by_id_deterministically() {
        // Two points at the same distance from the query.
        let ds = dataset(&[10, 30]);
        let a = brute_force_knn(&ds.records, &ScalarPoint(20), 1, Metric::Euclidean);
        let b = brute_force_knn(&ds.records, &ScalarPoint(20), 1, Metric::Euclidean);
        assert_eq!(a[0].1.id, b[0].1.id);
        let lo = ds.records.iter().map(|r| r.id).min().unwrap();
        assert_eq!(a[0].1.id, lo, "smaller id wins ties");
    }

    #[test]
    fn labels_survive_construction() {
        let mut ids = IdAssigner::new(1);
        let ds = Dataset::from_labeled(
            vec![(ScalarPoint(1), Label::Class(7)), (ScalarPoint(2), Label::Value(0.5))],
            &mut ids,
        );
        assert_eq!(ds.records[0].label, Some(Label::Class(7)));
        assert_eq!(ds.records[1].label, Some(Label::Value(0.5)));
        assert_eq!(ds.len(), 2);
        assert!(!ds.is_empty());
        assert!(ds.by_id(ds.records[1].id).is_some());
    }
}

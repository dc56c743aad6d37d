//! Tree representation — split nodes over bucketed, column-major leaves —
//! with widest-spread median construction and in-place insertion.

use knn_points::{PointId, Record, VecPoint};

/// Bucket size B: a build splits every node of more than B points. Swept on
/// the ledger's `kdtree.knn_us` row (one 16-d shard of the vector
/// workloads' shape, 2^14 points, ℓ = 10; 2-vCPU x86-64 host; one ledger
/// build per B, alternated, medians of 5–8 runs), with `LEAF_MAX` = 2B: a
/// query took 41 µs at B = 16, 30 at 32, 29 at 64 and 28 at 128, the last
/// two within the runs' spread. An earlier sweep on 4,096-point shards
/// found 64 the fastest end to end on `vector_exact_churn`, whose inserts
/// fill leaves towards `LEAF_MAX`.
pub(crate) const B: usize = 64;

/// An insert splits a leaf it takes past `LEAF_MAX` points. Twice B, so a
/// freshly built leaf takes at least B more points before it splits.
pub(crate) const LEAF_MAX: usize = 2 * B;

/// An insert that lands deeper than `DEPTH_FACTOR · ⌈log₂ ⌈2n / B⌉⌉` split
/// nodes triggers a partial rebuild.
const DEPTH_FACTOR: usize = 2;

/// Weight-balance ratio α = `ALPHA_NUM / ALPHA_DEN`: a split node is
/// unbalanced when one child holds more than α of its points. Every leaf of
/// a tree past B points holds at least B/2 of them (a build splits only
/// nodes of more than B points, at the median, and an overfull leaf is
/// rebuilt), so a leaf below balanced nodes only can sit at most
/// `log₁/α (2n / B)` deep; α must stay below `2^(−1/DEPTH_FACTOR)` ≈ 0.707
/// for that to be under the trigger depth, which is what guarantees a
/// too-deep insert an unbalanced ancestor to rebuild.
const ALPHA_NUM: usize = 7;
const ALPHA_DEN: usize = 10;

/// A point as the builder sees it: its id and a borrowed coordinate row.
type Row<'a> = (PointId, &'a [f64]);

/// A node of the tree. Every point under `children[0]` has
/// `coords[axis] <= split` and every point under `children[1]` has
/// `coords[axis] >= split`: a build puts the median and everything above it
/// right, and an insert goes right exactly when `coords[axis] >= split`.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// An internal node: the splitting axis and value, and both children.
    Split { axis: usize, split: f64, children: Box<[Node; 2]> },
    /// A bucket of points.
    Leaf(Leaf),
}

/// Up to [`LEAF_MAX`] points — more only when they all coincide, since no
/// split can separate them — stored column-major: coordinate `j` of the
/// leaf's point `i` is `cols[j * stride + i]`, so the leaf scan runs down
/// each column across all its points at once. A built leaf keeps room for
/// an eighth more points, so the first few inserts into it only append; an
/// insert into a full leaf widens its columns first.
#[derive(Debug, Clone, Default)]
pub(crate) struct Leaf {
    pub ids: Vec<PointId>,
    pub cols: Vec<f64>,
    pub stride: usize,
}

impl Leaf {
    fn new(rows: &[Row<'_>], dims: usize) -> Self {
        let stride = rows.len() + rows.len().div_ceil(8);
        let mut cols = Vec::with_capacity(dims * stride);
        for j in 0..dims {
            cols.extend(rows.iter().map(|(_, row)| row[j]));
            cols.resize((j + 1) * stride, 0.0);
        }
        let mut ids = Vec::with_capacity(stride);
        ids.extend(rows.iter().map(|&(id, _)| id));
        Leaf { ids, cols, stride }
    }

    /// Append one point, first widening full columns to twice their points
    /// (up to [`LEAF_MAX`], unless the leaf is already past it).
    fn push(&mut self, id: PointId, coords: &[f64]) {
        let n = self.ids.len();
        if n == self.stride {
            let stride = if n < LEAF_MAX { (2 * n).clamp(1, LEAF_MAX) } else { 2 * n };
            let mut cols = vec![0.0; coords.len() * stride];
            for (j, column) in cols.chunks_exact_mut(stride).enumerate() {
                column[..n].copy_from_slice(&self.cols[j * self.stride..][..n]);
            }
            (self.cols, self.stride) = (cols, stride);
            self.ids.reserve_exact(stride - n);
        }
        for (j, &x) in coords.iter().enumerate() {
            self.cols[j * self.stride + n] = x;
        }
        self.ids.push(id);
    }

    /// True when the leaf's first point equals `coords` on every axis.
    fn first_equals(&self, coords: &[f64]) -> bool {
        coords.iter().enumerate().all(|(j, &x)| self.cols[j * self.stride] == x)
    }
}

impl Node {
    /// Points under this node.
    fn len(&self) -> usize {
        match self {
            Node::Leaf(leaf) => leaf.ids.len(),
            Node::Split { children, .. } => children.iter().map(Node::len).sum(),
        }
    }

    /// Longest path from this node down to a leaf, both counted.
    fn depth(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Split { children, .. } => 1 + children.iter().map(Node::depth).max().unwrap_or(0),
        }
    }

    /// Append every point under this node to `ids` and, row-major, `coords`.
    fn gather(&self, dims: usize, ids: &mut Vec<PointId>, coords: &mut Vec<f64>) {
        match self {
            Node::Leaf(leaf) => {
                ids.extend_from_slice(&leaf.ids);
                for i in 0..leaf.ids.len() {
                    coords.extend((0..dims).map(|j| leaf.cols[j * leaf.stride + i]));
                }
            }
            Node::Split { children, .. } => {
                children.iter().for_each(|child| child.gather(dims, ids, coords))
            }
        }
    }

    /// Rebuild this subtree from the points it holds, median-split afresh.
    fn rebuild(&mut self, dims: usize) {
        let (mut ids, mut coords) = (Vec::new(), Vec::new());
        self.gather(dims, &mut ids, &mut coords);
        let mut rows: Vec<Row<'_>> =
            ids.iter().enumerate().map(|(i, &id)| (id, &coords[i * dims..][..dims])).collect();
        *self = build(&mut rows, dims);
    }
}

/// The child of a split at (`axis`, `split`) that an insert of `coords`
/// descends into: 1 (right) exactly when `coords[axis] >= split`.
fn side(coords: &[f64], axis: usize, split: f64) -> usize {
    usize::from(coords[axis] >= split)
}

/// Median-split `rows` on their axis of widest spread until every part fits
/// a leaf of [`B`], or coincides on every axis. Ties on the axis are broken
/// by id, so the tree is a function of the point set alone; the depth is at
/// most `⌈log₂ (n / B)⌉ + 1` whatever the distribution.
fn build(rows: &mut [Row<'_>], dims: usize) -> Node {
    if rows.len() > B {
        if let Some(axis) = widest_axis(rows) {
            let mid = rows.len() / 2;
            rows.select_nth_unstable_by(mid, |a, b| {
                a.1[axis].total_cmp(&b.1[axis]).then_with(|| a.0.cmp(&b.0))
            });
            let split = rows[mid].1[axis];
            let (lo, hi) = rows.split_at_mut(mid);
            let children = Box::new([build(lo, dims), build(hi, dims)]);
            return Node::Split { axis, split, children };
        }
    }
    Node::Leaf(Leaf::new(rows, dims))
}

/// The axis along which `rows` spread widest (the lowest on a tie), from
/// one pass over the rows; `None` when they coincide on every axis.
fn widest_axis(rows: &[Row<'_>]) -> Option<usize> {
    let (first, rest) = rows.split_first()?;
    let mut lo = first.1.to_vec();
    let mut hi = lo.clone();
    for (_, row) in rest {
        for ((lo, hi), &x) in lo.iter_mut().zip(&mut hi).zip(*row) {
            *lo = if x < *lo { x } else { *lo };
            *hi = if x > *hi { x } else { *hi };
        }
    }
    let mut widest = None;
    let mut spread = 0.0;
    for (j, (lo, hi)) in lo.iter().zip(&hi).enumerate() {
        if hi - lo > spread {
            spread = hi - lo;
            widest = Some(j);
        }
    }
    widest
}

/// Structural statistics of a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KdStats {
    /// Number of points.
    pub len: usize,
    /// Nodes on the longest root-to-leaf path, leaf included (1 for a tree
    /// of one leaf, 0 for empty).
    pub depth: usize,
}

/// A bucketed k-d tree over `f64` points: bulk-built balanced, then kept
/// balanced under [`KdTree::insert`] by rebuilding only the subtree an
/// insert unbalanced.
#[derive(Debug, Clone)]
pub struct KdTree {
    pub(crate) dims: usize,
    len: usize,
    pub(crate) root: Node,
}

impl KdTree {
    /// Build from `(id, coordinates)` pairs.
    ///
    /// Each node splits at the median along the axis its points spread
    /// widest on, into leaves of at most 64 points, so the tree is balanced
    /// (depth `⌈log₂ (n / 64)⌉ + 1`) no matter how adversarial the input
    /// distribution is.
    ///
    /// # Panics
    /// If points disagree on dimensionality.
    pub fn build(points: Vec<(PointId, Box<[f64]>)>) -> Self {
        Self::from_rows(points.iter().map(|(id, c)| (*id, &**c)))
    }

    /// Build from point records.
    pub fn from_records(records: &[Record<VecPoint>]) -> Self {
        Self::from_rows(records.iter().map(|r| (r.id, &*r.point.0)))
    }

    /// Median-split borrowed rows; the leaves hold the one copy of each
    /// coordinate.
    fn from_rows<'a>(rows: impl ExactSizeIterator<Item = Row<'a>>) -> Self {
        let len = rows.len();
        let mut rows: Vec<Row<'a>> = rows.collect();
        let dims = rows.first().map_or(0, |(_, c)| c.len());
        for (_, c) in &rows {
            assert_eq!(c.len(), dims, "dimension mismatch in k-d tree input");
        }
        KdTree { dims, len, root: build(&mut rows, dims) }
    }

    /// Add one point in place: descend from the root by the split
    /// coordinates and append it to the leaf reached — the cost of one
    /// descent, not one build. A leaf the point takes past 128 points is
    /// median-split where it stands, unless its points all coincide: then
    /// it stays one leaf, since no split could separate them. Queries need
    /// no change: their bounds hold whichever side an equal coordinate went
    /// to.
    ///
    /// A median-built tree only stays balanced until somebody inserts in
    /// sorted order, so a scapegoat rule keeps it so: an insert that lands
    /// too deep rebuilds the highest weight-unbalanced subtree on its path,
    /// which keeps the depth `O(log n)` at `O(log² n)` amortized work per
    /// insert.
    ///
    /// # Panics
    /// If `coords` has the wrong dimensionality for a non-empty tree.
    pub fn insert(&mut self, id: PointId, coords: &[f64]) {
        if self.is_empty() {
            self.dims = coords.len();
        }
        assert_eq!(coords.len(), self.dims, "dimension mismatch in k-d tree input");
        self.len += 1;

        // Split nodes passed on the way down.
        let mut depth = 0;
        let mut node = &mut self.root;
        while let Node::Split { axis, split, children } = node {
            node = &mut children[side(coords, *axis, *split)];
            depth += 1;
        }
        let Node::Leaf(leaf) = node else { unreachable!("the descent ends at a leaf") };
        // A leaf already past LEAF_MAX coincides on every axis; it stays
        // whole while the new point coincides with it too.
        let n = leaf.ids.len();
        let fits = n < LEAF_MAX || (n > LEAF_MAX && leaf.first_equals(coords));
        leaf.push(id, coords);
        if !fits {
            node.rebuild(self.dims);
        }

        let max_depth =
            DEPTH_FACTOR * (2 * self.len).div_ceil(B).next_power_of_two().trailing_zeros() as usize;
        if depth > max_depth {
            self.rebalance(coords, depth);
        }
    }

    /// Rebuild the highest subtree on the path of `depth` split nodes that
    /// `coords` descends from the root whose child on the path holds more
    /// than α of its points.
    fn rebalance(&mut self, coords: &[f64], depth: usize) {
        // Sizes down the path: the root holds every point, and a child holds
        // its parent's less its sibling's.
        let mut sizes = vec![self.len];
        let mut node = &self.root;
        for _ in 0..depth {
            let Node::Split { axis, split, children } = node else {
                unreachable!("the path passes split nodes only")
            };
            let right = side(coords, *axis, *split);
            sizes.push(sizes[sizes.len() - 1] - children[1 - right].len());
            node = &children[right];
        }
        let Some(top) = sizes.windows(2).position(|w| w[1] * ALPHA_DEN > w[0] * ALPHA_NUM) else {
            return;
        };
        let mut node = &mut self.root;
        for _ in 0..top {
            let Node::Split { axis, split, children } = node else {
                unreachable!("the path passes split nodes only")
            };
            node = &mut children[side(coords, *axis, *split)];
        }
        node.rebuild(self.dims);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the stored points (0 for an empty tree).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Structural statistics.
    pub fn stats(&self) -> KdStats {
        let depth = if self.is_empty() { 0 } else { self.root.depth() };
        KdStats { len: self.len, depth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[&[f64]]) -> Vec<(PointId, Box<[f64]>)> {
        coords
            .iter()
            .enumerate()
            .map(|(i, c)| (PointId(i as u64), c.to_vec().into_boxed_slice()))
            .collect()
    }

    #[test]
    fn build_empty_and_singleton() {
        let t = KdTree::build(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.stats(), KdStats { len: 0, depth: 0 });

        let t = KdTree::build(pts(&[&[1.0, 2.0]]));
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats().depth, 1);
        assert_eq!(t.dims(), 2);
    }

    #[test]
    fn median_split_is_balanced() {
        let n = 1024;
        let points: Vec<(PointId, Box<[f64]>)> = (0..n)
            .map(|i| (PointId(i as u64), vec![i as f64, (i * 37 % n) as f64].into_boxed_slice()))
            .collect();
        let t = KdTree::build(points);
        let stats = t.stats();
        assert_eq!(stats.len, n);
        // 1024 points in leaves of 64: four levels of splits over the leaves.
        assert_eq!(stats.depth, 5);
    }

    #[test]
    fn balanced_even_on_duplicate_coordinates() {
        let n = 512;
        let points: Vec<(PointId, Box<[f64]>)> =
            (0..n).map(|i| (PointId(i as u64), vec![1.0, 1.0].into_boxed_slice())).collect();
        let t = KdTree::build(points);
        // No split separates coincident points: one leaf holds them all.
        assert_eq!(t.stats().depth, 1);
    }

    #[test]
    fn leaves_are_column_major_and_split_past_leaf_max() {
        fn leaves(node: &Node, out: &mut Vec<Leaf>) {
            match node {
                Node::Leaf(leaf) => out.push(leaf.clone()),
                Node::Split { children, .. } => children.iter().for_each(|c| leaves(c, out)),
            }
        }
        let mut t = KdTree::build(vec![]);
        for i in 0..=LEAF_MAX as u64 {
            assert_eq!(t.stats().depth, usize::from(i > 0));
            t.insert(PointId(i), &[i as f64, -(i as f64)]);
        }
        let Node::Split { axis: 0, .. } = &t.root else { panic!("the full leaf splits on x") };
        let mut found = Vec::new();
        leaves(&t.root, &mut found);
        assert_eq!(found.iter().map(|leaf| leaf.ids.len()).sum::<usize>(), LEAF_MAX + 1);
        for leaf in found {
            // Split leaves are built with room for an eighth more points.
            let (n, stride) = (leaf.ids.len(), leaf.stride);
            assert!(n <= B && stride == n + n.div_ceil(8) && leaf.cols.len() == 2 * stride);
            for (i, id) in leaf.ids.iter().enumerate() {
                assert_eq!((leaf.cols[i], leaf.cols[stride + i]), (id.0 as f64, -(id.0 as f64)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mixed_dims_rejected() {
        let points = vec![
            (PointId(0), vec![1.0].into_boxed_slice()),
            (PointId(1), vec![1.0, 2.0].into_boxed_slice()),
        ];
        let _ = KdTree::build(points);
    }
}

//! Tree representation, median-split construction and in-place insertion.

use knn_points::{PointId, Record, VecPoint};

/// An insert that lands deeper than `DEPTH_FACTOR · ⌈log₂(n + 1)⌉` nodes
/// triggers a partial rebuild.
const DEPTH_FACTOR: usize = 2;

/// Weight-balance ratio α = `ALPHA_NUM / ALPHA_DEN`: a node is unbalanced
/// when one child holds more than α of its subtree. Along a path of balanced
/// nodes sizes shrink by α per level, so a node can sit at most
/// `log₁/α n + 1` deep; α must stay below `2^(−1/DEPTH_FACTOR)` ≈ 0.707 for
/// that to be under the trigger depth, which is what guarantees a too-deep
/// insert an unbalanced ancestor to rebuild.
const ALPHA_NUM: usize = 7;
const ALPHA_DEN: usize = 10;

/// Arena node: one point per node, children by index (`-1` = none).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// Index into the point arena.
    pub point: u32,
    /// Splitting axis at this node.
    pub axis: u8,
    /// Left child node index or -1.
    pub left: i32,
    /// Right child node index or -1.
    pub right: i32,
}

/// Structural statistics of a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KdStats {
    /// Number of points / nodes.
    pub len: usize,
    /// Longest root-to-leaf path (1 for a single node, 0 for empty).
    pub depth: usize,
}

/// A k-d tree over `f64` points: bulk-built balanced, then kept balanced
/// under [`KdTree::insert`] by rebuilding only the subtree an insert
/// unbalanced.
#[derive(Debug, Clone)]
pub struct KdTree {
    pub(crate) dims: usize,
    pub(crate) ids: Vec<PointId>,
    pub(crate) coords: Vec<f64>, // row-major: point i at coords[i*dims..][..dims]
    pub(crate) nodes: Vec<Node>,
    /// Subtree size of each node, itself included. Only `insert` reads it,
    /// so it lives beside `nodes` and the search's nodes stay 16 bytes.
    sizes: Vec<u32>,
    pub(crate) root: i32,
}

impl KdTree {
    /// Build from `(id, coordinates)` pairs.
    ///
    /// Splitting axes cycle with depth; the split point is the median along
    /// the axis, so the tree is balanced (depth `⌈log2 n⌉ + O(1)`) no matter
    /// how adversarial the input distribution is.
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

    /// Fill the arenas from borrowed rows — one copy of each coordinate —
    /// and median-split them.
    fn from_rows<'a>(rows: impl ExactSizeIterator<Item = (PointId, &'a [f64])>) -> Self {
        let n = rows.len();
        let mut rows = rows.peekable();
        let dims = rows.peek().map_or(0, |(_, c)| c.len());
        let mut ids = Vec::with_capacity(n);
        let mut coords = Vec::with_capacity(n * dims);
        for (id, c) in rows {
            assert_eq!(c.len(), dims, "dimension mismatch in k-d tree input");
            ids.push(id);
            coords.extend_from_slice(c);
        }
        let (nodes, sizes) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut tree = KdTree { dims, ids, coords, nodes, sizes, root: -1 };
        let mut order: Vec<u32> = (0..n as u32).collect();
        tree.root = tree.build_range(&mut order, 0, &mut Vec::new());
        tree
    }

    /// Median-split the arena points in `order` into a subtree whose root
    /// sits `depth` levels down; returns its node index. Nodes are written
    /// to the slots popped from `free`, and pushed onto the arena once those
    /// run out.
    fn build_range(&mut self, order: &mut [u32], depth: usize, free: &mut Vec<u32>) -> i32 {
        if order.is_empty() {
            return -1;
        }
        let axis = if self.dims == 0 { 0 } else { depth % self.dims };
        let mid = order.len() / 2;
        // Median split along the axis; ties broken by id for determinism.
        let dims = self.dims;
        let coords = &self.coords;
        let ids = &self.ids;
        order.select_nth_unstable_by(mid, |&a, &b| {
            let ca = coords[a as usize * dims + axis];
            let cb = coords[b as usize * dims + axis];
            ca.total_cmp(&cb).then_with(|| ids[a as usize].cmp(&ids[b as usize]))
        });
        let node = Node { point: order[mid], axis: axis as u8, left: -1, right: -1 };
        let size = order.len() as u32;
        let node_idx = match free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                self.sizes[slot as usize] = size;
                slot as usize
            }
            None => {
                self.nodes.push(node);
                self.sizes.push(size);
                self.nodes.len() - 1
            }
        };
        let (lo, rest) = order.split_at_mut(mid);
        let hi = &mut rest[1..];
        let left = self.build_range(lo, depth + 1, free);
        let right = self.build_range(hi, depth + 1, free);
        let node = &mut self.nodes[node_idx];
        node.left = left;
        node.right = right;
        node_idx as i32
    }

    /// Add one point in place: append it to the arenas, descend from the
    /// root by the split coordinates and hang a new node at the leaf
    /// reached — the cost of one search, not one build. Queries need no
    /// change: their plane bound holds whichever side an equal coordinate
    /// went to.
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
        let point = self.ids.len() as u32;
        self.ids.push(id);
        self.coords.extend_from_slice(coords);

        let log_n = (self.len() + 1).next_power_of_two().trailing_zeros() as usize;
        let max_depth = DEPTH_FACTOR * log_n;
        // Ancestors of the new node, root first, each with the side taken.
        let mut path: Vec<(i32, bool)> = Vec::with_capacity(max_depth);
        let mut at = self.root;
        while at >= 0 {
            self.sizes[at as usize] += 1;
            let node = self.nodes[at as usize];
            let split = self.coords[node.point as usize * self.dims + node.axis as usize];
            let left = coords[node.axis as usize] < split;
            path.push((at, left));
            at = if left { node.left } else { node.right };
        }
        let axis = if self.dims == 0 { 0 } else { path.len() % self.dims };
        let leaf = self.nodes.len() as i32;
        self.nodes.push(Node { point, axis: axis as u8, left: -1, right: -1 });
        self.sizes.push(1);
        self.set_child(path.last().copied(), leaf);

        if path.len() + 1 > max_depth {
            self.rebalance(&path);
        }
    }

    /// Point `parent`'s `left`/`right` link (the root link for `None`) at
    /// `child`.
    fn set_child(&mut self, parent: Option<(i32, bool)>, child: i32) {
        match parent {
            None => self.root = child,
            Some((p, true)) => self.nodes[p as usize].left = child,
            Some((p, false)) => self.nodes[p as usize].right = child,
        }
    }

    /// Rebuild the highest subtree on `path` (root first) whose child on the
    /// path outweighs α of it, median-split, into the arena slots it already
    /// occupies. (The new leaf below `path` weighs 1 and outweighs nothing.)
    fn rebalance(&mut self, path: &[(i32, bool)]) {
        let size = |step: &(i32, bool)| self.sizes[step.0 as usize] as usize;
        let Some(depth) =
            path.windows(2).position(|w| size(&w[1]) * ALPHA_DEN > size(&w[0]) * ALPHA_NUM)
        else {
            return;
        };
        let mut free = Vec::new();
        let mut order = Vec::new();
        let mut stack = vec![path[depth].0];
        while let Some(at) = stack.pop() {
            if at >= 0 {
                let node = self.nodes[at as usize];
                free.push(at as u32);
                order.push(node.point);
                stack.extend([node.left, node.right]);
            }
        }
        // Popped ascending, so the rebuilt subtree lies in the arena in the
        // order a search walks it, like a bulk-built one.
        free.sort_unstable_by(|a, b| b.cmp(a));
        let rebuilt = self.build_range(&mut order, depth, &mut free);
        self.set_child(depth.checked_sub(1).map(|parent| path[parent]), rebuilt);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality of the stored points (0 for an empty tree).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Coordinates of arena point `i`.
    #[inline]
    pub(crate) fn point(&self, i: u32) -> &[f64] {
        &self.coords[i as usize * self.dims..(i as usize + 1) * self.dims]
    }

    /// Structural statistics.
    pub fn stats(&self) -> KdStats {
        fn depth_of(tree: &KdTree, node: i32) -> usize {
            if node < 0 {
                return 0;
            }
            let n = tree.nodes[node as usize];
            1 + depth_of(tree, n.left).max(depth_of(tree, n.right))
        }
        KdStats { len: self.len(), depth: depth_of(self, self.root) }
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
        // Perfectly balanced depth for 1024 nodes is 11; allow +1 slack.
        assert!(stats.depth <= 12, "depth = {}", stats.depth);
    }

    #[test]
    fn balanced_even_on_duplicate_coordinates() {
        let n = 512;
        let points: Vec<(PointId, Box<[f64]>)> =
            (0..n).map(|i| (PointId(i as u64), vec![1.0, 1.0].into_boxed_slice())).collect();
        let t = KdTree::build(points);
        assert!(t.stats().depth <= 11, "depth = {}", t.stats().depth);
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

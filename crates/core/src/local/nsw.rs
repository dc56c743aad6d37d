//! Navigable-small-world (NSW) graph index: the approximate shard backend.
//!
//! A layered proximity graph in the HNSW style: each point draws a level
//! from a geometric distribution, lives in layers `0..=level`, and links to
//! its (approximate) nearest neighbors per layer. A query greedily descends
//! from the top layer's entry point, then runs a best-first search with an
//! `ef`-bounded result set on layer 0. Construction is *insert-as-query*:
//! adding a point first searches for it, then connects to what the search
//! found — so bulk load and [`crate::cluster::KnnCluster::insert`] on a live
//! cluster share this one code path, and a bulk-built graph is byte-identical
//! to one grown by inserting the same records in the same order.
//!
//! Two knobs trade recall for latency:
//!
//! * `m` — links per node per layer (layer 0 keeps `2m`). More links, better
//!   connectivity, slower inserts.
//! * `ef` — breadth of the best-first frontier. `ef_construction` bounds it
//!   during inserts, `ef_search` during queries; raising either raises
//!   recall. The knob saturates at exact: whenever the effective `ef` covers
//!   the whole shard (`ef ≥ n`), [`NswIndex::search`] degenerates to the
//!   brute-force scan, so `ef = n` is a *structural* exactness guarantee,
//!   not a statistical one.
//!
//! Everything is deterministic: levels come from a seeded `splitmix64` hash
//! of the point id (no RNG state threads through inserts), and every heap
//! and adjacency ordering uses the total `(distance, id)` order, so equal
//! builds yield equal graphs on any engine at any pool size.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use knn_points::{DistKey, Metric, Point, PointId, Record};

use super::brute_top;
use crate::splitmix64;

/// Level cap: with p = 1/2 per level, 24 layers cover ~16M points per shard.
const MAX_LEVEL: usize = 24;

/// Tuning knobs for [`NswIndex`]. `Default` is the serving configuration the
/// README's recall table is measured at (`m = 12`, `ef_construction = 96`,
/// `ef_search = 64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NswParams {
    /// Links kept per node per layer (layer 0 keeps `2m`). Must be ≥ 1.
    pub m: usize,
    /// Frontier breadth while inserting.
    pub ef_construction: usize,
    /// Frontier breadth while querying (raised to `ell` when smaller; a
    /// per-call override is available via [`NswIndex::search`]).
    pub ef_search: usize,
    /// Seed for the deterministic level draw. Two indices over the same
    /// records with the same seed are identical.
    pub level_seed: u64,
}

impl Default for NswParams {
    fn default() -> Self {
        NswParams { m: 12, ef_construction: 96, ef_search: 64, level_seed: 0x0005_eed0_95a1 }
    }
}

/// One graph node; `links[layer]` are neighbor node indices (positions into
/// the shard's record slice). `links.len()` is the node's level + 1.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    links: Vec<Vec<u32>>,
}

/// The per-shard NSW graph. Holds topology only — points stay in the shard's
/// `[Record<P>]`, and node `i` describes `records[i]`, so the index works for
/// *any* [`Point`] type (vectors, bit sets, scalars) without generics on the
/// struct itself.
#[derive(Debug, Clone, PartialEq)]
pub struct NswIndex {
    params: NswParams,
    metric: Metric,
    nodes: Vec<Node>,
    /// Entry point for descents: a node on the highest occupied layer.
    entry: u32,
    max_level: usize,
}

impl NswIndex {
    /// An empty index; grow it with [`NswIndex::insert`].
    pub fn new(params: NswParams, metric: Metric) -> Self {
        assert!(params.m >= 1, "NswParams::m must be >= 1");
        NswIndex { params, metric, nodes: Vec::new(), entry: 0, max_level: 0 }
    }

    /// Bulk construction — literally sequential insert-as-query over the
    /// records, so `build(records)` and an empty index grown by `insert`
    /// produce identical graphs (pinned by `tests/index_conformance.rs`).
    pub fn build<P: Point>(records: &[Record<P>], params: NswParams, metric: Metric) -> Self {
        let mut index = Self::new(params, metric);
        for pos in 0..records.len() {
            index.insert(records, pos);
        }
        index
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The knobs this index was built with.
    pub fn params(&self) -> NswParams {
        self.params
    }

    /// The metric distances were computed under at build time. Queries under
    /// any *other* metric cannot use the graph (its geometry is wrong for
    /// them) and must fall back to a scan — [`super::ShardIndex`] does.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Deterministic level draw: trailing ones of a `splitmix64` hash of the
    /// point id, i.e. geometric with p = 1/2 — no RNG state to thread, so
    /// the level of a point is a pure function of `(level_seed, id)`.
    fn level_for(&self, id: PointId) -> usize {
        (splitmix64(self.params.level_seed ^ id.0).trailing_ones() as usize).min(MAX_LEVEL)
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    fn key_to<P: Point>(&self, records: &[Record<P>], query: &P, node: u32) -> (DistKey, u32) {
        let r = &records[node as usize];
        (DistKey::new(r.point.distance(query, self.metric), r.id), node)
    }

    /// Best-first search on one layer: expand the closest unexpanded
    /// candidate until the frontier is provably worse than the `ef`-th best.
    /// Returns up to `ef` hits ascending by `(distance, id)`. Deterministic:
    /// both heaps order by `(DistKey, node)` and ids are unique per shard.
    fn search_layer<P: Point>(
        &self,
        records: &[Record<P>],
        query: &P,
        entries: &[(DistKey, u32)],
        ef: usize,
        layer: usize,
    ) -> Vec<(DistKey, u32)> {
        let mut visited = vec![false; self.nodes.len()];
        let mut frontier: BinaryHeap<Reverse<(DistKey, u32)>> = BinaryHeap::new();
        let mut best: BinaryHeap<(DistKey, u32)> = BinaryHeap::new();
        for &entry in entries {
            if !std::mem::replace(&mut visited[entry.1 as usize], true) {
                frontier.push(Reverse(entry));
                best.push(entry);
            }
        }
        while best.len() > ef {
            best.pop();
        }
        while let Some(Reverse(candidate)) = frontier.pop() {
            if best.len() >= ef && candidate > *best.peek().expect("best nonempty") {
                break;
            }
            for &neighbor in &self.nodes[candidate.1 as usize].links[layer] {
                if std::mem::replace(&mut visited[neighbor as usize], true) {
                    continue;
                }
                let keyed = self.key_to(records, query, neighbor);
                if best.len() < ef || keyed < *best.peek().expect("best nonempty") {
                    frontier.push(Reverse(keyed));
                    best.push(keyed);
                    if best.len() > ef {
                        best.pop();
                    }
                }
            }
        }
        let mut out = best.into_vec();
        out.sort_unstable();
        out
    }

    /// Index the next record: `pos` must equal [`NswIndex::len`] — the graph
    /// always covers a prefix `records[..len]` of the shard, which is what
    /// makes append-only live inserts race-free with concurrent reads of the
    /// already-indexed prefix.
    pub fn insert<P: Point>(&mut self, records: &[Record<P>], pos: usize) {
        assert_eq!(pos, self.nodes.len(), "NswIndex::insert must append the next unindexed record");
        let record = &records[pos];
        let level = self.level_for(record.id);
        let node = Node { links: vec![Vec::new(); level + 1] };
        if self.nodes.is_empty() {
            self.nodes.push(node);
            self.entry = pos as u32;
            self.max_level = level;
            return;
        }

        let query = &record.point;
        let mut entries = vec![self.key_to(records, query, self.entry)];
        // Greedy descent through the layers the new node will not join.
        for layer in (level + 1..=self.max_level).rev() {
            entries = self.search_layer(records, query, &entries, 1, layer);
        }
        // Insert-as-query: on each joined layer, what the search finds is
        // what the node links to (the m nearest of the ef_construction set).
        let top = level.min(self.max_level);
        let mut chosen: Vec<(usize, Vec<u32>)> = Vec::with_capacity(top + 1);
        for layer in (0..=top).rev() {
            let found =
                self.search_layer(records, query, &entries, self.params.ef_construction, layer);
            let neighbors = found.iter().take(self.params.m).map(|&(_, n)| n).collect();
            chosen.push((layer, neighbors));
            entries = found;
        }
        self.nodes.push(node);
        let new = pos as u32;
        for (layer, neighbors) in chosen {
            for neighbor in neighbors {
                self.nodes[new as usize].links[layer].push(neighbor);
                self.nodes[neighbor as usize].links[layer].push(new);
                let cap = self.max_links(layer);
                if self.nodes[neighbor as usize].links[layer].len() > cap {
                    self.prune(records, neighbor, layer, cap);
                }
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = new;
        }
    }

    /// Shrink an overfull adjacency list to the `cap` closest neighbors of
    /// the node's own point, by `(distance, id)` — deterministic eviction.
    fn prune<P: Point>(&mut self, records: &[Record<P>], node: u32, layer: usize, cap: usize) {
        let point = &records[node as usize].point;
        let mut keyed: Vec<(DistKey, u32)> = self.nodes[node as usize].links[layer]
            .iter()
            .map(|&n| self.key_to(records, point, n))
            .collect();
        keyed.sort_unstable();
        keyed.truncate(cap);
        self.nodes[node as usize].links[layer] = keyed.into_iter().map(|(_, n)| n).collect();
    }

    /// Approximate top-`ell` for `query`, ascending by `(distance, id)`,
    /// searched with frontier breadth `max(ef, ell)`.
    ///
    /// Every returned claim is *genuine* — a real `(distance, id)` of an
    /// indexed record under the build metric — the only approximation is
    /// which records make the cut. When the effective `ef` reaches the shard
    /// size the search degenerates to the exact brute-force scan, so
    /// `ef = n` guarantees parity with the oracle by construction.
    pub fn search<P: Point>(
        &self,
        records: &[Record<P>],
        query: &P,
        ell: usize,
        ef: usize,
    ) -> Vec<DistKey> {
        let n = self.nodes.len();
        if ell == 0 || n == 0 {
            return Vec::new();
        }
        let ef = ef.max(ell);
        if ef >= n {
            // The recall knob saturates at exact.
            return brute_top(&records[..n], query, ell, self.metric);
        }
        let mut entries = vec![self.key_to(records, query, self.entry)];
        for layer in (1..=self.max_level).rev() {
            entries = self.search_layer(records, query, &entries, 1, layer);
        }
        let found = self.search_layer(records, query, &entries, ef, 0);
        found.into_iter().take(ell).map(|(key, _)| key).collect()
    }
}

/// Fraction of `oracle` present in `got`, matched by exact `(distance, id)`
/// key (1.0 when the oracle is empty). Both inputs ascending; the usual
/// recall@ℓ when both hold ℓ entries.
pub fn recall(got: &[DistKey], oracle: &[DistKey]) -> f64 {
    if oracle.is_empty() {
        return 1.0;
    }
    let hits = oracle.iter().filter(|key| got.binary_search(key).is_ok()).count();
    hits as f64 / oracle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_points::{IdAssigner, ScalarPoint, VecPoint};

    fn vec_records(n: usize, dims: usize, seed: u64) -> Vec<Record<VecPoint>> {
        let mut ids = IdAssigner::new(seed);
        (0..n)
            .map(|i| {
                let coords: Vec<f64> = (0..dims)
                    .map(|d| {
                        let h = splitmix64(seed ^ (i as u64) << 8 ^ d as u64);
                        (h % 10_000) as f64 / 100.0
                    })
                    .collect();
                Record { id: ids.next_id(), point: VecPoint::new(coords), label: None }
            })
            .collect()
    }

    fn oracle<P: Point>(records: &[Record<P>], q: &P, ell: usize, metric: Metric) -> Vec<DistKey> {
        brute_top(records, q, ell, metric)
    }

    #[test]
    fn empty_and_zero_ell_are_empty() {
        let records = vec_records(10, 3, 1);
        let index = NswIndex::new(NswParams::default(), Metric::Euclidean);
        assert!(index.search(&records[..0], &records[0].point, 5, 16).is_empty());
        let index = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
        assert!(index.search(&records, &records[0].point, 0, 16).is_empty());
    }

    #[test]
    fn single_point_graph_answers() {
        let records = vec_records(1, 4, 2);
        let index = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
        let got = index.search(&records, &records[0].point, 3, 8);
        assert_eq!(got, oracle(&records, &records[0].point, 3, Metric::Euclidean));
    }

    #[test]
    fn bulk_build_equals_incremental_insert() {
        let records = vec_records(180, 6, 3);
        let bulk = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
        let mut grown = NswIndex::new(NswParams::default(), Metric::Euclidean);
        for pos in 0..records.len() {
            grown.insert(&records, pos);
        }
        assert_eq!(bulk, grown, "insert-as-query: bulk and incremental graphs must be identical");
    }

    #[test]
    fn ef_covering_the_shard_is_exact() {
        for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
            let records = vec_records(120, 5, 4);
            let index = NswIndex::build(&records, NswParams::default(), metric);
            let q = VecPoint::new(vec![50.0; 5]);
            for ell in [1usize, 7, 120, 300] {
                let got = index.search(&records, &q, ell, records.len());
                assert_eq!(got, oracle(&records, &q, ell, metric), "{metric:?} ell {ell}");
            }
        }
    }

    #[test]
    fn search_is_deterministic_and_sorted() {
        let records = vec_records(250, 8, 5);
        let index = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
        let q = VecPoint::new(vec![42.0; 8]);
        let a = index.search(&records, &q, 10, 64);
        let b = index.search(&records, &q, 10, 64);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly ascending (distance, id)");
    }

    #[test]
    fn default_ef_recall_is_high_on_clustered_vectors() {
        let records = vec_records(400, 6, 6);
        let params = NswParams::default();
        let index = NswIndex::build(&records, params, Metric::Euclidean);
        let mut total = 0.0;
        let queries = 20u64;
        for i in 0..queries {
            let q = VecPoint::new(
                (0..6u64)
                    .map(|d| (splitmix64(99 ^ (i << 4) ^ d) % 10_000) as f64 / 100.0)
                    .collect::<Vec<f64>>(),
            );
            let got = index.search(&records, &q, 10, params.ef_search);
            total += recall(&got, &oracle(&records, &q, 10, Metric::Euclidean));
        }
        let mean = total / queries as f64;
        assert!(mean >= 0.9, "mean recall {mean} below 0.9 at default ef");
    }

    #[test]
    fn works_on_scalar_points_too() {
        let mut ids = IdAssigner::new(7);
        let records: Vec<Record<ScalarPoint>> = (0..150u64)
            .map(|i| Record {
                id: ids.next_id(),
                point: ScalarPoint(splitmix64(i) % 5_000),
                label: None,
            })
            .collect();
        let index = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
        let got = index.search(&records, &ScalarPoint(2_500), 8, records.len());
        assert_eq!(got, oracle(&records, &ScalarPoint(2_500), 8, Metric::Euclidean));
    }

    #[test]
    fn recall_helper_counts_exact_key_matches() {
        let a = DistKey::new(knn_points::Dist::from_u64(1), PointId(1));
        let b = DistKey::new(knn_points::Dist::from_u64(2), PointId(2));
        let c = DistKey::new(knn_points::Dist::from_u64(3), PointId(3));
        assert_eq!(recall(&[a, b], &[a, c]), 0.5);
        assert_eq!(recall(&[], &[]), 1.0);
        assert_eq!(recall(&[a], &[]), 1.0);
        assert_eq!(recall(&[], &[a]), 0.0);
    }

    #[test]
    #[should_panic(expected = "append the next unindexed record")]
    fn insert_out_of_order_panics() {
        let records = vec_records(4, 2, 8);
        let mut index = NswIndex::new(NswParams::default(), Metric::Euclidean);
        index.insert(&records, 1);
    }
}

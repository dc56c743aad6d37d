//! Local (per-machine) computation helpers and shard indices.
//!
//! The model charges nothing for local computation and lets all k machines
//! do theirs at once; the wall-clock experiments charge for it, and here it
//! is most of a query. So it is a stage of its own: [`candidate_stage`]
//! computes every machine's candidates for every pending query once per
//! engine run, before the protocols are seated, on the ambient rayon pool;
//! the engine then only moves messages.
//!
//! One contract, two producers. Every protocol instance takes as input its
//! machine's **candidates: the shard's ℓ best, sorted ascending by
//! `(distance, id)`** — step 1 of the paper's Algorithm 2, and sufficient for
//! every protocol in this crate (any global top-ℓ member is in its machine's
//! local top-ℓ, and per-machine counts clamp without crossing the ℓ decision
//! boundary). Exactly two functions produce that input, and each is also the
//! truth its path's Byzantine audit holds the claims against:
//!
//! * [`brute_top`] — the paper's reduction with the truncation fused in: the
//!   distance of the query to *all* local points, `O(n)` time per query, but
//!   only the running ℓ best kept (`O(ℓ)` memory). The shards-only
//!   [`crate::runner::run_query`] path: the paper's full-scan setting, and
//!   the index-free reference the indices are measured against.
//! * [`ShardIndex::top`] — every [`crate::cluster::KnnCluster`] query,
//!   sequential or batched ([`crate::session::QuerySession`]), exact or
//!   approximate, through the index each cluster keeps per shard: an
//!   [`IndexedPoint`] **exact** structure, built at load time
//!   and updated in place on every [`crate::cluster::KnnCluster::insert`]
//!   (the dataset is *not* frozen after load, and a write costs one search,
//!   not one build): a sorted array for [`ScalarPoint`] (two columns under
//!   a cache-resident directory, `O(log n + ℓ)` a query), a bucketed k-d
//!   tree for [`VecPoint`], and the brute scan itself for [`BitsPoint`];
//!   or [`nsw::NswIndex`], an **approximate** navigable-small-world graph
//!   with insert-as-query construction,
//!   selected per cluster via [`IndexBackend::Nsw`]. It trades exactness
//!   for an `ef`/`m` recall ↔ latency dial (saturating at exact when `ef`
//!   covers the shard) and gives every point type — [`BitsPoint`] included
//!   — a sublinear serving path plus cheap online inserts.
//!
//! [`dist_keys`] is the unfused reduction — every distance, materialized —
//! kept for measurements and as the oracle the producers are tested against.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use kmachine::{EngineError, MachineId};
use knn_points::{BitsPoint, DistKey, Metric, Point, PointId, Record, ScalarPoint, VecPoint};
use rayon::prelude::*;

pub mod nsw;

pub use nsw::{recall, NswIndex, NswParams};

/// Distance keys of all records with respect to `query`: the reduction of
/// ℓ-NN to selection (§1.2 — "compute the distance of the query point to
/// all the points, then find the ℓ-smallest distance values").
pub fn dist_keys<P: Point>(records: &[Record<P>], query: &P, metric: Metric) -> Vec<DistKey> {
    records.iter().map(|r| DistKey::new(r.point.distance(query, metric), r.id)).collect()
}

/// The ℓ smallest distance keys by full scan, ascending by `(distance, id)`
/// — the index-free producer, `O(n)` per query but `O(ℓ)` memory.
pub fn brute_top<P: Point>(
    records: &[Record<P>],
    query: &P,
    ell: usize,
    metric: Metric,
) -> Vec<DistKey> {
    knn_selection::smallest_k(
        records.iter().map(|r| DistKey::new(r.point.distance(query, metric), r.id)),
        ell,
    )
}

/// Wall clock a stage must be worth before it goes to the pool; anything
/// cheaper runs inline on the calling thread. Measured on the 2-vCPU
/// development host: the rayon shim spawns and joins its threads per
/// operation (50–55 µs at pool 2 for 16 trivial items), and 16 cells
/// spinning for a fixed total, inline against forced onto pool 2, take
/// 52 / 74 µs at 50 µs of work, 102 / 100 at 100, 152 / 110 at 150,
/// 203 / 139 at 200 and 403 / 260 at 400 (medians of 2 000 stages). Break-even
/// is 100 µs; the threshold is twice that, where the pool is 1.46× ahead and
/// a costlier spawn (73–80 µs at pool 4) still repays. Below it sit a
/// one-query batch on 16 sorted-array shards of 2¹⁷ points (16 cells of
/// 1.2–1.7 µs at ℓ = 64, random queries) and the tier-1 suite's thousands
/// of 4-machine, 100-point queries.
const POOL_REPAYS: Duration = Duration::from_micros(200);

/// What one point of a [`brute_top`] scan costs at the least: 1.85 ns for a
/// [`ScalarPoint`] (the ledger's `local.scan_ns_per_point`), more for every
/// other point type (17.3 ns for a 16-dim [`VecPoint`]) — so a scan judged
/// worth the pool by this figure is, and one judged not worth it may still
/// be: that is left to the timed first cell.
const SCAN_NS_PER_POINT: u128 = 2;

/// The candidate stage: every alive machine's candidates for every pending
/// query, `result[i][j] = top(alive[i], j)` — step 1 of Algorithm 2 for the
/// whole engine run at once, before any protocol is seated.
///
/// The `alive.len() × queries` cells are independent and pure, so they run
/// on the ambient rayon pool and are assembled in cell order: the result is
/// the same bytes at any pool size. A stage too small to repay a pool
/// operation (200 µs of work) runs inline, and so does everything at pool
/// size 1. The first cell is timed and stands for the rest — unless
/// `scan_points`, the points the cells scan in total when they are full
/// scans ([`crate::runner::run_query`]; `None` when an index decides what a
/// cell visits), already prices the stage at the threshold by the cheapest
/// point's cost: then a few large cells go to the pool at once instead of
/// one of them waiting out the probe. Below that floor the probe decides,
/// so a costlier point type is not kept on one core by a scalar price.
///
/// Each cell runs behind a panic guard — [`Point::distance`] is user code,
/// and [`Metric::Minkowski`] below 1 asserts — so a panicking producer is
/// [`EngineError::WorkerPanic`] naming the lowest position in `alive` whose
/// cell panicked, exactly what the engine reports for a panicking protocol.
pub fn candidate_stage(
    alive: &[MachineId],
    queries: usize,
    scan_points: Option<usize>,
    top: impl Fn(MachineId, usize) -> Vec<DistKey> + Sync,
) -> Result<Vec<Vec<Vec<DistKey>>>, EngineError> {
    let cells = alive.len() * queries;
    let cell = |c: usize| {
        let machine = c / queries;
        catch_unwind(AssertUnwindSafe(|| top(alive[machine], c % queries)))
            .map_err(|_| EngineError::WorkerPanic { machine })
    };
    let mut done = Vec::with_capacity(cells);
    let repays = POOL_REPAYS.as_nanos();
    let pooled = cells > 1
        && rayon::current_num_threads() > 1
        && (scan_points.is_some_and(|points| points as u128 * SCAN_NS_PER_POINT >= repays) || {
            let start = Instant::now();
            done.push(cell(0));
            start.elapsed().as_nanos() * (cells - 1) as u128 >= repays
        });
    if pooled {
        done.extend((done.len()..cells).into_par_iter().map(cell).collect::<Vec<_>>());
    } else {
        done.extend((done.len()..cells).map(cell));
    }
    // Machine-major cell order: the first error is the lowest machine's.
    let mut done = done.into_iter();
    alive.iter().map(|_| done.by_ref().take(queries).collect::<Result<Vec<_>, _>>()).collect()
}

/// A point type with a per-shard **exact** index for repeated-query serving.
///
/// `build_index` runs per shard at [`crate::cluster::KnnCluster::load`]
/// time; `insert_index` absorbs each record appended afterwards (via
/// [`ShardIndex::insert`]); `index_top` answers "this shard's ℓ best
/// candidates" per query.
/// The contract is **exact parity with the brute-force scan**: `index_top`
/// must return precisely the ℓ smallest `(distance, id)` keys the full
/// [`dist_keys`] scan would yield, in ascending order — a cluster's queries
/// rely on this to answer exactly what the full-scan
/// [`crate::runner::run_query`] over the same shards would.
///
/// Custom point types can opt out of real indexing the way [`BitsPoint`]
/// does: `type Index = ()`, an empty `build_index`, and an `index_top` that
/// delegates to [`brute_top`] — three lines, always correct. The provided
/// `insert_index` rebuilds, which is right for any index; override it when
/// the structure can take one point in place.
pub trait IndexedPoint: Point {
    /// The index structure held per shard.
    type Index: Send + Sync + std::fmt::Debug;

    /// Build the shard's index from the full record set.
    fn build_index(records: &[Record<Self>]) -> Self::Index;

    /// Bring `index` up to date with the record just appended at
    /// `records[pos]` (the shard's new last element).
    fn insert_index(index: &mut Self::Index, records: &[Record<Self>], pos: usize) {
        debug_assert_eq!(pos + 1, records.len());
        *index = Self::build_index(records);
    }

    /// The shard's ℓ best candidates for `query`, ascending by
    /// `(distance, id)` and identical to the brute-force top-ℓ.
    fn index_top(
        index: &Self::Index,
        records: &[Record<Self>],
        query: &Self,
        ell: usize,
        metric: Metric,
    ) -> Vec<DistKey>;
}

/// Entries per directory block of a [`ScalarIndex`]. Measured on 16 shards
/// of 2¹⁷ points at ℓ = 64 (2 vCPUs): 16 and 32 read the same, 8 and 64
/// were slower. The directory is then 1/32 of the value column: 32 KiB for
/// a shard of 2¹⁷ points, small enough to stay in cache between queries.
const BLOCK: usize = 32;

/// Sorted-array index over the integer line: the 1-d specialization where a
/// binary search plus two-pointer expansion beats a k-d tree (and stays in
/// the exact `u64` distance domain, which an `f64` tree would not).
///
/// The `(value, id)` pairs sorted ascending, stored as two columns. A
/// search reads the directory `dir[b] = values[b · BLOCK]`, which stays in
/// cache, and then one block of `values`: two short binary searches instead
/// of one over the whole shard, whose late steps would each miss cache. The
/// walk that follows reads the value column for distances and the id column
/// only for the candidates it keeps. An insert shifts both columns and
/// rewrites the directory from its block on.
///
/// Duplicate-value correctness in [`IndexedPoint::index_top`] does *not*
/// come from visit order (the leftward walk sees equal values in descending
/// id order): it comes from the walk going on until a distance is strictly
/// above the ℓ-th, which admits every candidate tied with it, and from
/// sorting each equal-distance run by id after the walk.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarIndex {
    values: Vec<u64>,
    ids: Vec<PointId>,
    dir: Vec<u64>,
}

impl ScalarIndex {
    /// The first position whose value fails `below`, for a `below` that
    /// holds on a prefix of the values, as [`slice::partition_point`].
    fn partition_point(&self, below: impl Fn(u64) -> bool) -> usize {
        let Some(block) = self.dir.partition_point(|&v| below(v)).checked_sub(1) else {
            return 0;
        };
        let start = block * BLOCK;
        let end = (start + BLOCK).min(self.values.len());
        start + self.values[start..end].partition_point(|&v| below(v))
    }
}

impl IndexedPoint for ScalarPoint {
    type Index = ScalarIndex;

    fn build_index(records: &[Record<Self>]) -> ScalarIndex {
        let mut sorted: Vec<(u64, PointId)> = records.iter().map(|r| (r.point.0, r.id)).collect();
        sorted.sort_unstable();
        let values: Vec<u64> = sorted.iter().map(|&(v, _)| v).collect();
        let ids = sorted.iter().map(|&(_, id)| id).collect();
        let dir = values.iter().copied().step_by(BLOCK).collect();
        ScalarIndex { values, ids, dir }
    }

    /// One directory-guided search (value, then id within the equal-value
    /// run) and one shift per column, then the directory entries from the
    /// insert's block on: `O(n / BLOCK)` of them. Leaves exactly the index
    /// `build_index` would have built.
    fn insert_index(index: &mut ScalarIndex, records: &[Record<Self>], pos: usize) {
        let (value, id) = (records[pos].point.0, records[pos].id);
        let run = index.partition_point(|v| v < value)..index.partition_point(|v| v <= value);
        let at = run.start + index.ids[run].partition_point(|&held| held < id);
        index.values.insert(at, value);
        index.ids.insert(at, id);
        let block = at / BLOCK;
        index.dir.truncate(block);
        index.dir.extend(index.values[block * BLOCK..].iter().copied().step_by(BLOCK));
    }

    /// A directory-guided lower bound for the query, then a walk outward
    /// from it along the value column: its first min(ℓ, n) steps are the
    /// ℓ nearest, and it goes on while a distance ties the ℓ-th.
    /// `O(log n + ℓ)`, and the id column is read once per candidate kept.
    fn index_top(
        index: &ScalarIndex,
        records: &[Record<Self>],
        query: &Self,
        ell: usize,
        metric: Metric,
    ) -> Vec<DistKey> {
        if matches!(metric, Metric::Hamming) {
            // Hamming distance on the line is 0/1 — not monotone in
            // |value − query|, so the ordered expansion does not apply.
            return brute_top(records, query, ell, metric);
        }
        let values = &index.values;
        let n = values.len();
        if ell == 0 || n == 0 {
            return Vec::new();
        }
        // All non-Hamming scalar metrics encode monotonically in
        // |value − query| (see ScalarPoint::distance), so expanding outward
        // from the query's insertion point enumerates candidates in
        // non-decreasing distance order: O(log n + ℓ) per query.
        let mut right = index.partition_point(|v| v < query.0);
        let mut left = right;
        let dist = |at: usize| ScalarPoint(values[at]).distance(query, metric);
        // The walk's first min(ℓ, n) steps need no stopping test. Left of
        // `right` every value is below the query, from it on none.
        let (q, kept) = (query.0, ell.min(n));
        let mut out: Vec<DistKey> = Vec::with_capacity(kept);
        for _ in 0..kept {
            let from_left = left > 0 && (right == n || q - values[left - 1] <= values[right] - q);
            let at = if from_left {
                left -= 1;
                left
            } else {
                right += 1;
                right - 1
            };
            out.push(DistKey::new(dist(at), index.ids[at]));
        }
        // Then the walk goes on, on each side, until a distance is strictly
        // above the ℓ-th (none is below it): a candidate at the ℓ-th
        // distance can still have a smaller id than the ℓ-th entry.
        let last = out[kept - 1].dist;
        while left > 0 && dist(left - 1) == last {
            left -= 1;
            out.push(DistKey::new(last, index.ids[left]));
        }
        while right < n && dist(right) == last {
            out.push(DistKey::new(last, index.ids[right]));
            right += 1;
        }
        // The walk is in non-decreasing distance order, so only a run of
        // equal distances can be out of `(distance, id)` order. Only the
        // ℓ-th entry's run reaches past ℓ; when it does (a saturated
        // squared distance can tie out to the array's end), its smallest
        // ids are kept without sorting the rest of it.
        if out.len() > kept {
            let tail = out.partition_point(|key| key.dist < out[kept - 1].dist);
            out[tail..].select_nth_unstable(kept - 1 - tail);
            out.truncate(kept);
        }
        // Distinct values seldom tie, so the walk's order usually stands.
        if !out.is_sorted() {
            for run in out.chunk_by_mut(|a, b| a.dist == b.dist) {
                run.sort_unstable();
            }
        }
        out
    }
}

impl IndexedPoint for VecPoint {
    /// The k-d tree of the related-work baselines, reused as a *local*
    /// accelerator: the distributed protocols stay communication-light, and
    /// each machine answers its candidate-generation subproblem by
    /// branch-and-bound over leaves of up to 128 points. How much of the
    /// shard that visits depends on the dimension and the data: at 16
    /// dimensions on the vector workloads' mixture a query of ℓ = 10 costs
    /// about a fifth of a scan of the shard, with the same answer bit for
    /// bit.
    type Index = knn_kdtree::KdTree;

    fn build_index(records: &[Record<Self>]) -> knn_kdtree::KdTree {
        knn_kdtree::KdTree::from_records(records)
    }

    fn insert_index(index: &mut knn_kdtree::KdTree, records: &[Record<Self>], pos: usize) {
        index.insert(records[pos].id, &records[pos].point.0);
    }

    fn index_top(
        index: &knn_kdtree::KdTree,
        _records: &[Record<Self>],
        query: &Self,
        ell: usize,
        metric: Metric,
    ) -> Vec<DistKey> {
        index.knn(&query.0, ell, metric).into_iter().map(|(d, id)| DistKey::new(d, id)).collect()
    }
}

impl IndexedPoint for BitsPoint {
    /// Hamming space has no cheap exact index here; the scan is the index.
    type Index = ();

    fn build_index(_records: &[Record<Self>]) -> Self::Index {}

    fn index_top(
        _index: &(),
        records: &[Record<Self>],
        query: &Self,
        ell: usize,
        metric: Metric,
    ) -> Vec<DistKey> {
        brute_top(records, query, ell, metric)
    }
}

/// Which local index each shard builds — a per-cluster choice made on
/// [`crate::QueryOptions`] / [`crate::ClusterBuilder::index_backend`].
///
/// * [`IndexBackend::Exact`] (the default): the [`IndexedPoint`] index for
///   the point type — sorted array for scalars, k-d tree for vectors, brute
///   scan for bit points. Answers are exactly the brute-force top-ℓ.
/// * [`IndexBackend::Nsw`]: the [`NswIndex`] proximity graph — approximate
///   at small `ef` (recall measured by the `recall` bench bin), exact when
///   `ef` covers the shard, with `O(log n)`-ish online inserts for every
///   point type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IndexBackend {
    /// Exact per-type index with brute-force parity.
    #[default]
    Exact,
    /// Navigable-small-world graph with the given knobs.
    Nsw(NswParams),
}

impl IndexBackend {
    /// NSW backend with default knobs.
    pub fn nsw() -> Self {
        IndexBackend::Nsw(NswParams::default())
    }

    /// Short human-readable name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            IndexBackend::Exact => "exact",
            IndexBackend::Nsw(_) => "nsw",
        }
    }
}

/// The index a cluster holds per shard: the [`IndexBackend`] dispatch
/// between the exact [`IndexedPoint`] structure and the approximate
/// [`NswIndex`] graph. All serving-path candidate generation — including
/// the Byzantine audit's shard-local truth — goes through [`ShardIndex::top`]
/// so honest claims and recomputed truth always come from the same code
/// path, and [`ShardIndex::insert`] keeps the structure live as records are
/// appended.
#[derive(Debug)]
pub enum ShardIndex<P: IndexedPoint> {
    /// Exact index (brute-force parity guaranteed by [`IndexedPoint`]).
    Exact(P::Index),
    /// Approximate NSW graph (exact once `ef` covers the shard).
    Nsw(NswIndex),
}

impl<P: IndexedPoint> ShardIndex<P> {
    /// Build the selected index over a shard's records. `metric` only
    /// matters for [`IndexBackend::Nsw`], whose graph geometry is tied to
    /// the metric it was built under.
    pub fn build(records: &[Record<P>], backend: IndexBackend, metric: Metric) -> Self {
        match backend {
            IndexBackend::Exact => ShardIndex::Exact(P::build_index(records)),
            IndexBackend::Nsw(params) => ShardIndex::Nsw(NswIndex::build(records, params, metric)),
        }
    }

    /// Which backend this index is.
    pub fn backend(&self) -> IndexBackend {
        match self {
            ShardIndex::Exact(_) => IndexBackend::Exact,
            ShardIndex::Nsw(index) => IndexBackend::Nsw(index.params()),
        }
    }

    /// The shard's ℓ best candidates, ascending by `(distance, id)`.
    ///
    /// Exact backend: precisely the brute-force top-ℓ. NSW backend: the
    /// graph search at the configured `ef_search` (raised to `ell` when
    /// smaller) — but if `metric` differs from the build metric the graph
    /// does not apply and this falls back to the exact scan.
    pub fn top(
        &self,
        records: &[Record<P>],
        query: &P,
        ell: usize,
        metric: Metric,
    ) -> Vec<DistKey> {
        match self {
            ShardIndex::Exact(index) => P::index_top(index, records, query, ell, metric),
            ShardIndex::Nsw(index) => {
                if metric != index.metric() {
                    return brute_top(records, query, ell, metric);
                }
                index.search(records, query, ell, index.params().ef_search)
            }
        }
    }

    /// Absorb the record just appended at `records[pos]` (the shard's new
    /// last element). NSW inserts it through the same search path bulk
    /// construction uses; the exact index takes it through
    /// [`IndexedPoint::insert_index`] — in place for the sorted array and
    /// the k-d tree, a rebuild only for point types that do not override it.
    pub fn insert(&mut self, records: &[Record<P>], pos: usize) {
        match self {
            ShardIndex::Exact(index) => P::insert_index(index, records, pos),
            ShardIndex::Nsw(index) => index.insert(records, pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_points::IdAssigner;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn keys_carry_distance_and_id() {
        let mut ids = IdAssigner::new(0);
        let records: Vec<Record<ScalarPoint>> = [10u64, 30]
            .iter()
            .map(|&v| Record { id: ids.next_id(), point: ScalarPoint(v), label: None })
            .collect();
        let keys = dist_keys(&records, &ScalarPoint(12), Metric::Euclidean);
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].dist.as_u64(), 2);
        assert_eq!(keys[0].id, records[0].id);
        assert_eq!(keys[1].dist.as_u64(), 18);
    }

    /// A cell that says where it ran: `(machine, query)` as its one key.
    fn cell_key(machine: MachineId, query: usize) -> Vec<DistKey> {
        vec![DistKey::new(knn_points::Dist::from_u64(machine as u64), PointId(query as u64))]
    }

    fn with_pool<R>(n: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("pool").install(f)
    }

    /// Hints on either side of [`POOL_REPAYS`], and the timed path.
    const HINTS: [Option<usize>; 3] = [Some(0), Some(usize::MAX), None];

    #[test]
    fn stage_lays_cells_out_by_alive_position_then_query() {
        let alive = [4usize, 1, 7];
        let want: Vec<Vec<Vec<DistKey>>> =
            alive.iter().map(|&m| (0..5).map(|j| cell_key(m, j)).collect()).collect();
        for pool in [1, 2, 8] {
            for hint in HINTS {
                let got = with_pool(pool, || candidate_stage(&alive, 5, hint, cell_key));
                assert_eq!(got.as_ref(), Ok(&want), "pool {pool}, hint {hint:?}");
            }
        }
        assert_eq!(candidate_stage(&alive, 0, None, cell_key), Ok(vec![Vec::new(); 3]));
        assert_eq!(candidate_stage(&[], 5, None, cell_key), Ok(Vec::new()));
    }

    #[test]
    fn a_small_stage_never_leaves_the_calling_thread() {
        let caller = std::thread::current().id();
        let here = |m, j| {
            assert_eq!(std::thread::current().id(), caller, "cell ({m}, {j}) left the caller");
            cell_key(m, j)
        };
        let alive: Vec<MachineId> = (0..16).collect();
        // Known to scan next to nothing; and 16 cells that take no time.
        for hint in [Some(400), None] {
            with_pool(8, || candidate_stage(&alive, 1, hint, here)).expect("no cell panics");
        }
        // Pool size 1 is a plain loop whatever the stage is worth.
        with_pool(1, || candidate_stage(&alive, 4, Some(usize::MAX), here)).expect("no panics");
    }

    #[test]
    fn a_scan_priced_below_the_floor_is_still_timed_into_the_pool() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        // A hint of nothing to scan is a floor, not a verdict: 16 cells of
        // ≈ 100 µs each are worth the pool, and the first cell says so.
        let caller = std::thread::current().id();
        let (started, elsewhere) = (AtomicUsize::new(0), AtomicUsize::new(0));
        // On a busy host the caller could drain every cell before the pool's
        // second worker is scheduled, so after the timed first cell it
        // waits (up to a second in all) until a cell has run elsewhere.
        let deadline = Instant::now() + Duration::from_secs(1);
        let spin = |m, j| {
            let probe = started.fetch_add(1, Relaxed) == 0;
            let start = Instant::now();
            while start.elapsed() < Duration::from_micros(100) {
                std::hint::spin_loop();
            }
            if std::thread::current().id() != caller {
                elsewhere.fetch_add(1, Relaxed);
            } else if !probe {
                while elsewhere.load(Relaxed) == 0 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            cell_key(m, j)
        };
        let alive: Vec<MachineId> = (0..16).collect();
        with_pool(2, || candidate_stage(&alive, 1, Some(0), spin)).expect("no cell panics");
        assert!(elsewhere.into_inner() > 0, "every cell ran on the calling thread");
    }

    #[test]
    fn a_panicking_cell_is_a_typed_error_naming_the_lowest_position() {
        let alive = [3usize, 5, 6, 9];
        let top = |m: MachineId, j: usize| {
            assert!(!(m == 6 && j == 0 || m == 5 && j == 2), "cell ({m}, {j}) panics");
            cell_key(m, j)
        };
        for pool in [1, 2, 8] {
            for hint in HINTS {
                let got = with_pool(pool, || candidate_stage(&alive, 3, hint, top));
                // Machine 5 sits at position 1 of `alive`, ahead of machine 6.
                assert_eq!(got, Err(EngineError::WorkerPanic { machine: 1 }), "{pool} {hint:?}");
            }
        }
    }

    fn scalar_records(values: &[u64], seed: u64) -> Vec<Record<ScalarPoint>> {
        let mut ids = IdAssigner::new(seed);
        values
            .iter()
            .map(|&v| Record { id: ids.next_id(), point: ScalarPoint(v), label: None })
            .collect()
    }

    fn oracle<P: Point>(records: &[Record<P>], q: &P, ell: usize, metric: Metric) -> Vec<DistKey> {
        let mut keys = dist_keys(records, q, metric);
        keys.sort_unstable();
        keys.truncate(ell);
        keys
    }

    #[test]
    fn scalar_index_matches_brute_force_on_all_metrics() {
        let values: Vec<u64> = (0..300u64).map(|i| i.wrapping_mul(48271) % 1000).collect();
        let records = scalar_records(&values, 1);
        let index = ScalarPoint::build_index(&records);
        for metric in [
            Metric::Euclidean,
            Metric::SquaredEuclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Minkowski(3.0),
            Metric::Hamming,
        ] {
            for q in [0u64, 17, 500, 999, 2000] {
                for ell in [0usize, 1, 7, 300, 500] {
                    let got =
                        ScalarPoint::index_top(&index, &records, &ScalarPoint(q), ell, metric);
                    let want = oracle(&records, &ScalarPoint(q), ell, metric);
                    assert_eq!(got, want, "metric {metric:?} q {q} ell {ell}");
                }
            }
        }
    }

    #[test]
    fn scalar_index_breaks_duplicate_ties_by_id() {
        // Many duplicates at equal distance on both sides of the query.
        let records = scalar_records(&[5, 5, 5, 15, 15, 15, 10], 7);
        let index = ScalarPoint::build_index(&records);
        let q = ScalarPoint(10);
        for ell in 1..=7 {
            let got = ScalarPoint::index_top(&index, &records, &q, ell, Metric::Euclidean);
            assert_eq!(got, oracle(&records, &q, ell, Metric::Euclidean), "ell {ell}");
        }
    }

    #[test]
    fn scalar_index_handles_saturating_squared_distances() {
        let records = scalar_records(&[0, 1, u64::MAX - 1, u64::MAX], 3);
        let index = ScalarPoint::build_index(&records);
        for q in [0u64, u64::MAX / 2, u64::MAX] {
            let got = ScalarPoint::index_top(
                &index,
                &records,
                &ScalarPoint(q),
                3,
                Metric::SquaredEuclidean,
            );
            assert_eq!(got, oracle(&records, &ScalarPoint(q), 3, Metric::SquaredEuclidean), "{q}");
        }
    }

    #[test]
    fn vec_index_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ids = IdAssigner::new(4);
        let records: Vec<Record<VecPoint>> = (0..200)
            .map(|_| Record {
                id: ids.next_id(),
                point: VecPoint::new(vec![
                    rng.random_range(-5.0..5.0),
                    rng.random_range(-5.0..5.0),
                ]),
                label: None,
            })
            .collect();
        let index = VecPoint::build_index(&records);
        let q = VecPoint::new(vec![0.25, -1.5]);
        for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Hamming] {
            let got = VecPoint::index_top(&index, &records, &q, 9, metric);
            assert_eq!(got, oracle(&records, &q, 9, metric), "{metric:?}");
        }
    }

    #[test]
    fn bits_index_is_the_brute_scan() {
        let mut ids = IdAssigner::new(9);
        let records: Vec<Record<BitsPoint>> = (0..50u64)
            .map(|i| Record {
                id: ids.next_id(),
                point: BitsPoint::new(vec![i.wrapping_mul(0x9E3779B9)]),
                label: None,
            })
            .collect();
        BitsPoint::build_index(&records);
        let q = BitsPoint::new(vec![0xF0F0]);
        let got = BitsPoint::index_top(&(), &records, &q, 5, Metric::Hamming);
        assert_eq!(got, oracle(&records, &q, 5, Metric::Hamming));
    }

    #[test]
    fn empty_shard_yields_empty_candidates() {
        let records: Vec<Record<ScalarPoint>> = Vec::new();
        let index = ScalarPoint::build_index(&records);
        assert!(ScalarPoint::index_top(&index, &records, &ScalarPoint(1), 4, Metric::Euclidean)
            .is_empty());
        let vrecords: Vec<Record<VecPoint>> = Vec::new();
        let vindex = VecPoint::build_index(&vrecords);
        let q = VecPoint::new(vec![1.0, 2.0]);
        assert!(VecPoint::index_top(&vindex, &vrecords, &q, 4, Metric::Euclidean).is_empty());
    }

    #[test]
    fn shard_index_dispatch_and_metric_fallback() {
        let records = scalar_records(&[3, 9, 1, 14, 7, 7, 20], 11);
        let q = ScalarPoint(8);
        let want = oracle(&records, &q, 3, Metric::Euclidean);
        let exact =
            ShardIndex::<ScalarPoint>::build(&records, IndexBackend::Exact, Metric::Euclidean);
        assert_eq!(exact.backend(), IndexBackend::Exact);
        assert_eq!(exact.top(&records, &q, 3, Metric::Euclidean), want);
        let nsw =
            ShardIndex::<ScalarPoint>::build(&records, IndexBackend::nsw(), Metric::Euclidean);
        assert_eq!(nsw.backend().name(), "nsw");
        // ef_search (64) covers this tiny shard, so NSW is exact here.
        assert_eq!(nsw.top(&records, &q, 3, Metric::Euclidean), want);
        // A query under a different metric cannot use the graph: scan.
        let want_h = oracle(&records, &q, 3, Metric::Hamming);
        assert_eq!(nsw.top(&records, &q, 3, Metric::Hamming), want_h);
    }

    #[test]
    fn shard_index_insert_keeps_both_backends_current() {
        let mut records = scalar_records(&[50, 60, 70, 80], 12);
        let mut exact =
            ShardIndex::<ScalarPoint>::build(&records, IndexBackend::Exact, Metric::Euclidean);
        let mut nsw =
            ShardIndex::<ScalarPoint>::build(&records, IndexBackend::nsw(), Metric::Euclidean);
        let mut ids = IdAssigner::new(99);
        records.push(Record { id: ids.next_id(), point: ScalarPoint(61), label: None });
        exact.insert(&records, records.len() - 1);
        nsw.insert(&records, records.len() - 1);
        let q = ScalarPoint(61);
        let want = oracle(&records, &q, 2, Metric::Euclidean);
        assert_eq!(exact.top(&records, &q, 2, Metric::Euclidean), want);
        assert_eq!(nsw.top(&records, &q, 2, Metric::Euclidean), want);
    }

    /// `records` with every point but the last replaced: an index that
    /// answers from the originals after absorbing the last one cannot have
    /// been rebuilt from the slice it was handed.
    fn decoys<P: Point>(records: &[Record<P>], decoy: P) -> Vec<Record<P>> {
        let (last, rest) = records.split_last().unwrap();
        let mut out: Vec<Record<P>> =
            rest.iter().map(|r| Record { id: r.id, point: decoy.clone(), label: None }).collect();
        out.push(last.clone());
        out
    }

    #[test]
    fn scalar_and_vec_inserts_do_not_rebuild() {
        let records = scalar_records(&[40, 10, 30, 10, 20], 5);
        let mut index = ScalarPoint::build_index(&records[..4]);
        ScalarPoint::insert_index(&mut index, &decoys(&records, ScalarPoint(999)), 4);
        assert_eq!(index, ScalarPoint::build_index(&records));

        let mut ids = IdAssigner::new(6);
        let vrecords: Vec<Record<VecPoint>> = (0..9)
            .map(|i| Record {
                id: ids.next_id(),
                point: VecPoint::new(vec![f64::from(i), f64::from(i * i % 7)]),
                label: None,
            })
            .collect();
        let mut shard =
            ShardIndex::<VecPoint>::build(&vrecords[..8], IndexBackend::Exact, Metric::Euclidean);
        shard.insert(&decoys(&vrecords, VecPoint::new(vec![1e9, 1e9])), 8);
        let q = VecPoint::new(vec![3.5, 2.0]);
        let got = shard.top(&vrecords, &q, 9, Metric::Euclidean);
        assert_eq!(got, oracle(&vrecords, &q, 9, Metric::Euclidean));
    }

    #[test]
    fn descending_inserts_keep_every_directory_entry_current() {
        // Each value is the smallest yet, so each insert lands at position 0
        // and moves the first value of every block.
        let values: Vec<u64> = (0..5 * BLOCK as u64 + 3).rev().collect();
        let records = scalar_records(&values, 13);
        let mut index = ScalarPoint::build_index(&records[..1]);
        for pos in 1..records.len() {
            ScalarPoint::insert_index(&mut index, &records[..=pos], pos);
            assert_eq!(index, ScalarPoint::build_index(&records[..=pos]), "after {pos}");
        }
    }

    #[test]
    fn provided_insert_index_rebuilds_from_the_records() {
        /// An index that opts out of in-place inserts: a count of its points.
        #[derive(Debug, Clone)]
        struct Plain(u64);
        impl Point for Plain {
            fn distance(&self, other: &Self, _: Metric) -> knn_points::Dist {
                knn_points::Dist::from_u64(self.0.abs_diff(other.0))
            }
        }
        impl IndexedPoint for Plain {
            type Index = usize;
            fn build_index(records: &[Record<Self>]) -> usize {
                records.len()
            }
            fn index_top(
                _: &usize,
                records: &[Record<Self>],
                query: &Self,
                ell: usize,
                metric: Metric,
            ) -> Vec<DistKey> {
                brute_top(records, query, ell, metric)
            }
        }
        let mut ids = IdAssigner::new(8);
        let mut records: Vec<Record<Plain>> = Vec::new();
        let mut shard =
            ShardIndex::<Plain>::build(&records, IndexBackend::Exact, Metric::Euclidean);
        for v in [5u64, 1, 9] {
            records.push(Record { id: ids.next_id(), point: Plain(v), label: None });
            shard.insert(&records, records.len() - 1);
            assert!(matches!(shard, ShardIndex::Exact(n) if n == records.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_scalar_insert_equals_build_over_all(
            // A narrow value range makes duplicates the common case; up to
            // 300 values span about ten directory blocks.
            values in proptest::collection::vec(0u64..24, 1..300),
            bulk in 0usize..300,
            seed in 0u64..100,
        ) {
            let records = scalar_records(&values, seed);
            let bulk = bulk.min(records.len());
            let mut index = ScalarPoint::build_index(&records[..bulk]);
            for pos in bulk..records.len() {
                ScalarPoint::insert_index(&mut index, &records[..=pos], pos);
                prop_assert_eq!(&index, &ScalarPoint::build_index(&records[..=pos]));
            }
        }

        #[test]
        fn prop_scalar_index_equals_brute_force(
            values in proptest::collection::vec(any::<u64>(), 0..120),
            q in any::<u64>(),
            ell in 0usize..25,
            seed in 0u64..100,
        ) {
            let records = scalar_records(&values, seed);
            let index = ScalarPoint::build_index(&records);
            let got = ScalarPoint::index_top(&index, &records, &ScalarPoint(q), ell, Metric::Euclidean);
            prop_assert_eq!(got, oracle(&records, &ScalarPoint(q), ell, Metric::Euclidean));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Ties everywhere: values in `0..24` (so duplicates and equal gaps
        /// on both sides of the query are the rule), sometimes a few near
        /// `u64::MAX`; queries on, between and beyond them, near the top, and
        /// midway, where every squared distance saturates to one tie; every
        /// metric the sorted walk serves; ℓ from 0 past the shard's size.
        #[test]
        fn prop_scalar_index_equals_brute_force_on_ties(
            low in proptest::collection::vec(0u64..24, 0..80),
            high in proptest::collection::vec(0u64..24, 0..6),
            q in prop_oneof![
                0u64..30,
                (u64::MAX - 30)..=u64::MAX,
                (u64::MAX / 2 - 2)..(u64::MAX / 2 + 2),
            ],
            ell in 0usize..1000,
            metric in 0usize..5,
            seed in 0u64..100,
        ) {
            let metric = [
                Metric::Euclidean,
                Metric::SquaredEuclidean,
                Metric::Manhattan,
                Metric::Chebyshev,
                Metric::Minkowski(3.0),
            ][metric];
            let values: Vec<u64> =
                low.into_iter().chain(high.into_iter().map(|v| u64::MAX - v)).collect();
            let ell = ell % (values.len() + 6);
            let records = scalar_records(&values, seed);
            let index = ScalarPoint::build_index(&records);
            let got = ScalarPoint::index_top(&index, &records, &ScalarPoint(q), ell, metric);
            prop_assert_eq!(got, oracle(&records, &ScalarPoint(q), ell, metric), "{:?}", metric);
        }
    }
}

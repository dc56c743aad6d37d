//! The user-facing facade: a simulated k-machine cluster holding a
//! distributed dataset and answering ℓ-NN queries.

use std::time::Duration;

use kmachine::json::{JsonWriter, WriteJson};
use kmachine::{AdversaryPlan, BandwidthMode, FaultPlan, MachineId, RecoveryPlan};
use knn_points::{Dataset, Dist, Label, Metric, PointId, Record, ScalarPoint};
use knn_workloads::PartitionStrategy;

use crate::error::CoreError;
use crate::local::{IndexBackend, IndexedPoint, ShardIndex};
use crate::protocols::knn::{KnnParams, KnnStats};
use crate::report::Report;
use crate::runner::{
    check_shape, merge_answers, Algorithm, ElectionKind, QueryOptions, QueryOutcome, RetryPolicy,
};
use crate::session::{BatchOutcome, QuerySession};
use crate::splitmix64;

/// One answer point of an ℓ-NN query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The point's unique id.
    pub id: PointId,
    /// Its distance from the query.
    pub dist: Dist,
    /// The machine that holds it (data never leaves its machine — only
    /// ids and distances travel, the paper's privacy motivation).
    pub machine: MachineId,
    /// Its label, when the dataset is labeled.
    pub label: Option<Label>,
}

/// Result of an ℓ-NN query, with full cost accounting.
#[derive(Debug, Clone)]
pub struct KnnAnswer {
    /// The ℓ nearest neighbors, ascending by `(distance, id)`.
    pub neighbors: Vec<Neighbor>,
    /// Algorithm 2 diagnostics (sampling / pruning / iterations).
    pub stats: Option<KnnStats>,
    /// Costs and fault / recovery / audit accounting (also reachable
    /// through `Deref`: `answer.metrics`, `answer.degraded`, …), copied
    /// unchanged from the query's outcome: for a single query the report of
    /// the run that answered it, election cost included; inside a batch
    /// only the query's own share (see [`BatchAnswer`]). Its JSON is
    /// nested: a `"report"` object, not fields of the answer's own.
    pub report: Report,
}

/// Result of a batched query run: per-query answers plus the aggregate cost
/// of the one engine run that served them all.
///
/// Inside each per-query [`KnnAnswer`] the report carries only what is
/// attributable to that query: `metrics.rounds` is the round of the engine
/// run that answered it in which it completed, `metrics.messages` /
/// `metrics.bits` are the traffic attributed to its tag in that run,
/// `metrics.sends_per_machine` and `metrics.per_tag` are **empty**
/// (per-machine and per-tag traffic is accounted only on the aggregate),
/// `attempts` / `recovered` say which engine run answered it, `leader` is
/// the machine that coordinated it (the batch's queries spread over the
/// machines, so only some are led by the batch-level `leader`), and
/// `degraded`, `shards_used` mirror the batch-level values. Everything the
/// batch pays or suffers once — `wall`, `election_metrics`, `faults`,
/// `recovery`, `audit` — is reported once, on this struct, and stays zero /
/// `None` / empty per query. The serving loop builds each of these reports
/// once, as it keeps the query's answer
/// ([`crate::session::BatchOutcome::queries`]).
#[derive(Debug, Clone)]
pub struct BatchAnswer {
    /// Per-query answers, in input order.
    pub answers: Vec<KnnAnswer>,
    /// Costs and fault / recovery / audit accounting of the batch as a
    /// whole (also reachable through `Deref`: `batch.metrics`, …). Its
    /// JSON is nested, like [`KnnAnswer::report`].
    pub report: Report,
}

impl WriteJson for Neighbor {
    fn write_json(&self, w: &mut JsonWriter) {
        let Neighbor { id, dist, machine, label } = self;
        w.object(|w| {
            w.field("id", &id.0);
            w.field("dist", &dist.encoding());
            w.field("machine", machine);
            match label {
                Some(Label::Class(class)) => w.field("label", class),
                Some(Label::Value(value)) => w.field("label", value),
                None => w.field("label", &None::<u64>),
            }
        });
    }
}

kmachine::json_object!(KnnAnswer { neighbors, stats, report });

kmachine::json_object!(BatchAnswer { answers, report });

/// Builder for [`KnnCluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    k: usize,
    opts: QueryOptions,
    algorithm: Algorithm,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder { k: 4, opts: QueryOptions::default(), algorithm: Algorithm::Knn }
    }
}

impl ClusterBuilder {
    /// Same as [`KnnCluster::builder`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of machines (k ≥ 1).
    pub fn machines(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Master seed for all randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Link bandwidth in bits per round (the model's `B`).
    pub fn bandwidth_bits(mut self, bits: u64) -> Self {
        self.opts.bandwidth = BandwidthMode::Enforce { bits_per_round: bits };
        self
    }

    /// Remove the bandwidth constraint (messages still counted).
    pub fn unlimited_bandwidth(mut self) -> Self {
        self.opts.bandwidth = BandwidthMode::Unlimited;
        self
    }

    /// Distance metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.opts.metric = metric;
        self
    }

    /// Default query algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Leader election mode.
    pub fn election(mut self, election: ElectionKind) -> Self {
        self.opts.election = election;
        self
    }

    /// Algorithm 2 tunables.
    pub fn knn_params(mut self, params: KnnParams) -> Self {
        self.opts.params = params;
        self
    }

    /// Synthetic per-round latency, paid once per round.
    pub fn round_latency(mut self, latency: Duration) -> Self {
        self.opts.round_latency = latency;
        self
    }

    /// Deterministic fault injection for every query run: fail-stop
    /// crashes and lossy links (see [`FaultPlan`]). Elections stay
    /// fault-free, crashes are recovered by retrying over the surviving
    /// shards (answers come back flagged [`Report::degraded`]), and a
    /// link exhausting its retry budget surfaces as the typed error
    /// [`kmachine::EngineError::LinkDown`].
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.opts.faults = faults;
        self
    }

    /// Scheduled machine rejoins (see [`RecoveryPlan`]). A machine that
    /// crashes before its rejoin round is waited for and the query re-runs
    /// with it back, so answers and [`Report::metrics`] equal the fault-free
    /// run's and nothing is [`Report::degraded`]; the re-run shows in
    /// [`Report::attempts`] and the machine in [`Report::recovery`].
    pub fn recovery(mut self, recovery: RecoveryPlan) -> Self {
        self.opts.recovery = recovery;
        self
    }

    /// Deadline-bounded retry policy for fault-aware re-runs: attempt and
    /// simulated-round budgets (see [`RetryPolicy`]). Exhausting the budget surfaces as the typed error
    /// [`CoreError::DeadlineExceeded`].
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.opts.retry = retry;
        self
    }

    /// Deterministic Byzantine adversary for every query run: machines
    /// that lie about their candidates at the source (a lie entry must be
    /// for round 0), or links that corrupt payloads (see [`AdversaryPlan`]). Corruption is caught
    /// by per-link digest chains; lies are caught by the semantic audit
    /// (claims re-checked against the real shards). Caught machines are
    /// quarantined and the query re-runs on the honest survivors under the
    /// [`RetryPolicy`]; the work is reported on [`Report::audit`].
    /// Elections stay adversary-free, like [`Self::faults`].
    pub fn adversary(mut self, adversary: AdversaryPlan) -> Self {
        self.opts.adversary = adversary;
        self
    }

    /// Which local index each shard builds: [`IndexBackend::Exact`] (the
    /// default — brute-force parity) or [`IndexBackend::Nsw`] (the
    /// navigable-small-world graph with `ef`/`m` recall knobs and cheap
    /// [`KnnCluster::insert`]). It is the cluster's one candidate source:
    /// sequential and batched, exact and approximate queries all read it,
    /// so on either backend [`KnnCluster::query_batch`] answers exactly what
    /// sequential [`KnnCluster::query`] calls would — on NSW, both read the
    /// graph.
    pub fn index_backend(mut self, backend: IndexBackend) -> Self {
        self.opts.backend = backend;
        self
    }

    /// Finish building.
    pub fn build<P: IndexedPoint>(self) -> KnnCluster<P> {
        assert!(self.k >= 1, "cluster needs at least one machine");
        KnnCluster {
            shards: Vec::new(),
            ids: Vec::new(),
            labeled: Vec::new(),
            shard_indices: Vec::new(),
            opts: self.opts,
            algorithm: self.algorithm,
            k: self.k,
            next_id: 0,
        }
    }
}

/// A simulated k-machine cluster with a distributed dataset.
///
/// The default point type is the paper's experimental workload
/// ([`ScalarPoint`]); `KnnCluster::<VecPoint>::builder()` (or type
/// inference from [`KnnCluster::load`]) selects other point types.
#[derive(Debug)]
pub struct KnnCluster<P: IndexedPoint = ScalarPoint> {
    shards: Vec<Dataset<P>>,
    /// Per-shard `(id, record index)` column sorted by id, searched with
    /// [`find_id`]: resolves answers to labels, rejects duplicate-id
    /// inserts, and its last entries give [`Self::next_id`].
    ids: Vec<Vec<(PointId, usize)>>,
    /// Whether each shard holds a labeled record. [`Self::resolve`] reads
    /// the id column only for the neighbours of shards that do.
    labeled: Vec<bool>,
    /// Per-shard candidate-generation indices, built at load, kept current
    /// by [`Self::insert`], and read by every query (see [`ShardIndex`]).
    shard_indices: Vec<ShardIndex<P>>,
    opts: QueryOptions,
    algorithm: Algorithm,
    k: usize,
    /// Next id [`Self::insert`] hands out: one past the largest id loaded
    /// or inserted so far, so generated ids never collide with data ids.
    next_id: u64,
}

impl KnnCluster {
    /// Start building a cluster. The builder is point-type-agnostic:
    /// [`ClusterBuilder::build`] (or the dataset you load) fixes `P`.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }
}

impl<P: IndexedPoint> KnnCluster<P> {
    /// Number of machines.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total points loaded.
    pub fn total_points(&self) -> usize {
        self.shards.iter().map(Dataset::len).sum()
    }

    /// Points held by machine `i`.
    pub fn shard_len(&self, i: usize) -> usize {
        self.shards.get(i).map_or(0, Dataset::len)
    }

    /// The query options in effect.
    pub fn options(&self) -> &QueryOptions {
        &self.opts
    }

    /// Distribute a global dataset across the machines.
    ///
    /// Every point must be finite ([`knn_points::Point::is_finite`]). Unlike
    /// the inserts, a load does not check: a point with a NaN or infinite
    /// coordinate is stored, and every query whose search reaches it then
    /// fails with [`kmachine::EngineError::WorkerPanic`]. The same holds for
    /// [`Self::load_shards`].
    pub fn load(&mut self, data: Dataset<P>, strategy: PartitionStrategy) {
        let shards = strategy
            .split(data.records, self.k, self.opts.seed)
            .into_iter()
            .map(Dataset::new)
            .collect();
        self.load_shards_unchecked(shards);
    }

    /// Install per-machine shards directly (the "data is naturally
    /// distributed at k sites" scenario — hospitals, sensors, …).
    pub fn load_shards(&mut self, shards: Vec<Dataset<P>>) -> Result<(), CoreError> {
        if shards.len() != self.k {
            return Err(CoreError::ShardCount { expected: self.k, got: shards.len() });
        }
        self.load_shards_unchecked(shards);
        Ok(())
    }

    fn load_shards_unchecked(&mut self, shards: Vec<Dataset<P>>) {
        // Index construction is per-shard independent and embarrassingly
        // parallel: the sorted id columns and candidate-generation indices
        // (sorted arrays / k-d trees / NSW graphs) build concurrently on
        // the rayon pool. Each shard's build is internally sequential and
        // results are collected in shard order, so loading is deterministic
        // at any pool size. Every generator emits a shard's ids in
        // increasing order, so the column sort is a linear check.
        use rayon::prelude::*;
        let built: Vec<_> = shards
            .par_iter()
            .map(|d| {
                // The index first: the id column then reuses the memory its
                // build freed.
                let index = ShardIndex::build(&d.records, self.opts.backend, self.opts.metric);
                let mut labeled = false;
                let mut column: Vec<_> = d
                    .records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        labeled |= r.label.is_some();
                        (r.id, i)
                    })
                    .collect();
                column.sort_unstable();
                (index, column, labeled)
            })
            .collect();
        (self.shard_indices, self.ids, self.labeled) = (Vec::new(), Vec::new(), Vec::new());
        for (index, column, labeled) in built {
            self.shard_indices.push(index);
            self.ids.push(column);
            self.labeled.push(labeled);
        }
        self.next_id = self
            .ids
            .iter()
            .filter_map(|column| column.last())
            .map(|(id, _)| id.0.saturating_add(1))
            .max()
            .unwrap_or(0);
        self.shards = shards;
    }

    /// Insert one point into the live cluster: assign it a fresh id, route
    /// it to a deterministic shard, and absorb it into that shard's index —
    /// queries see it immediately, **no reload**. Returns the assigned id
    /// and hosting machine.
    ///
    /// Routing is a seeded hash of the id, so a cluster built with the same
    /// seed places the same stream of inserts identically at any pool
    /// size. Either backend absorbs the point at the cost of one
    /// search, not one build: [`IndexBackend::Nsw`] reuses the graph's
    /// search path, the exact sorted array shifts in place and the exact
    /// k-d tree appends to a leaf (splitting it when full, and rebuilding a
    /// subtree only when inserts have unbalanced it). A point whose
    /// [`knn_points::Point::shape`] differs from the loaded data is refused
    /// with [`CoreError::ShapeMismatch`], and one with a NaN or infinite
    /// coordinate with [`CoreError::NonFinitePoint`].
    pub fn insert(&mut self, point: P) -> Result<(PointId, MachineId), CoreError> {
        self.insert_labeled(point, None)
    }

    /// [`Self::insert`] with a label attached to the new record.
    pub fn insert_labeled(
        &mut self,
        point: P,
        label: Option<Label>,
    ) -> Result<(PointId, MachineId), CoreError> {
        if self.shards.is_empty() {
            return Err(CoreError::NotLoaded);
        }
        let id = PointId(self.next_id);
        let machine = (splitmix64(self.opts.seed ^ id.0) % self.k as u64) as MachineId;
        self.insert_record_into(machine, Record { id, point, label })?;
        Ok((id, machine))
    }

    /// Insert a caller-built record into a specific shard — the
    /// "data is naturally distributed" counterpart of [`Self::insert`],
    /// for callers that manage ids and placement themselves (and for
    /// replaying one cluster's insert stream into another verbatim).
    /// Rejects ids already present on any shard, points of the wrong shape
    /// and points with a non-finite coordinate, all before anything is
    /// touched.
    pub fn insert_record_into(
        &mut self,
        machine: MachineId,
        record: Record<P>,
    ) -> Result<(), CoreError> {
        if self.shards.is_empty() {
            return Err(CoreError::NotLoaded);
        }
        if machine >= self.k {
            return Err(CoreError::NoSuchMachine { machine, machines: self.k });
        }
        if self.ids.iter().any(|column| find_id(column, record.id).is_ok()) {
            return Err(CoreError::DuplicateId { id: record.id });
        }
        check_shape(&self.shards, &record.point)?;
        if !record.point.is_finite() {
            return Err(CoreError::NonFinitePoint);
        }
        self.next_id = self.next_id.max(record.id.0.saturating_add(1));
        let records = &mut self.shards[machine].records;
        let pos = records.len();
        // An id `insert` issued is above every held id, so this appends;
        // a caller's id below the maximum shifts the column's tail.
        let column = &mut self.ids[machine];
        let (Ok(at) | Err(at)) = find_id(column, record.id);
        column.insert(at, (record.id, pos));
        self.labeled[machine] |= record.label.is_some();
        records.push(record);
        // Keep the candidate index — and with it the Byzantine audit's
        // shard-local truth — current with the shard it summarizes.
        self.shard_indices[machine].insert(records, pos);
        Ok(())
    }

    /// Answer an ℓ-NN query with the cluster's default algorithm.
    pub fn query(&self, q: &P, ell: usize) -> Result<KnnAnswer, CoreError> {
        self.query_with(self.algorithm, q, ell)
    }

    /// Answer an *approximate* ℓ-NN query: Algorithm 2 stopped at its
    /// pruning decision ([`crate::protocols::KnnProtocol::prune_only`]) —
    /// one pruning pass, no iterated selection. Returns a superset of the
    /// exact ℓ-NN (≈1.75ℓ neighbors) in fewer rounds — ideal for
    /// majority-vote or averaging consumers. A prune that keeps fewer than
    /// ℓ rolls back to every candidate, so the superset is certain.
    /// [`KnnAnswer::stats`] is `Some`, with the survivor
    /// count of Lemma 2.3. It recovers from crashes and corrupt links like
    /// the exact queries, but runs **unaudited**: no semantic audit
    /// certifies its supersets.
    pub fn query_approx(&self, q: &P, ell: usize) -> Result<KnnAnswer, CoreError> {
        Ok(self.answer(self.session()?.run_one(q, ell, None)?))
    }

    /// Answer an ℓ-NN query with a specific algorithm: a per-call election,
    /// then the paper's per-query protocol over candidates read from the
    /// shard indices ([`ShardIndex::top`]). On the exact backend the answer
    /// and every counter equal the full-scan [`crate::runner::run_query`]'s.
    pub fn query_with(
        &self,
        algorithm: Algorithm,
        q: &P,
        ell: usize,
    ) -> Result<KnnAnswer, CoreError> {
        Ok(self.answer(self.session()?.run_one(q, ell, Some(algorithm))?))
    }

    /// Open a serving session: elect the leader **once** and reuse it for
    /// every batch the session runs. [`Self::query_batch`] opens a
    /// throwaway session per call; hold one of these to amortize the
    /// election across many batches.
    pub fn session(&self) -> Result<QuerySession<'_, P>, CoreError> {
        if self.shards.is_empty() {
            return Err(CoreError::NotLoaded);
        }
        QuerySession::new(&self.shards, &self.shard_indices, self.opts.clone())
    }

    /// Answer a batch of ℓ-NN queries with the cluster's default algorithm
    /// in **one engine run**: one leader election, one protocol instance
    /// per query multiplexed over the shared links, and per-shard indices
    /// (built at load) generating local candidates in `O(ℓ log n)`.
    ///
    /// The per-query answers are exactly what sequential [`Self::query`]
    /// calls would return; the costs are what batching saves.
    pub fn query_batch(&self, queries: &[P], ell: usize) -> Result<BatchAnswer, CoreError> {
        self.query_batch_with(self.algorithm, queries, ell)
    }

    /// Answer a batch of ℓ-NN queries with a specific algorithm.
    pub fn query_batch_with(
        &self,
        algorithm: Algorithm,
        queries: &[P],
        ell: usize,
    ) -> Result<BatchAnswer, CoreError> {
        let BatchOutcome { queries, report } =
            self.session()?.run_batch(queries, ell, algorithm)?;
        Ok(BatchAnswer { answers: queries.into_iter().map(|q| self.answer(q)).collect(), report })
    }

    /// Answer a batch of *approximate* ℓ-NN queries (pruning-only
    /// supersets, rolled back and reported as [`Self::query_approx`]'s) in
    /// one engine run.
    pub fn query_batch_approx(&self, queries: &[P], ell: usize) -> Result<BatchAnswer, CoreError> {
        let BatchOutcome { queries, report } = self.session()?.run_batch_approx(queries, ell)?;
        Ok(BatchAnswer { answers: queries.into_iter().map(|q| self.answer(q)).collect(), report })
    }

    /// Resolve one query's outcome into its answer: keys become labeled
    /// neighbors via the id columns (a neighbour on a shard with no labeled
    /// record is `label: None` without a search); the report is copied
    /// through unchanged.
    fn answer(&self, outcome: QueryOutcome) -> KnnAnswer {
        let QueryOutcome { local_keys, stats, report } = outcome;
        let neighbors = merge_answers(&local_keys)
            .into_iter()
            .map(|(key, machine)| {
                let column = &self.ids[machine];
                let label = self.labeled[machine]
                    .then(|| find_id(column, key.id).ok())
                    .flatten()
                    .and_then(|at| self.shards[machine].records[column[at].1].label);
                Neighbor { id: key.id, dist: key.dist, machine, label }
            })
            .collect();
        KnnAnswer { neighbors, stats, report }
    }
}

/// Where `id` sits in a column sorted by id, as [`slice::binary_search`]
/// reports it: `Ok(at)` when `column[at]` holds it, `Err(at)` for the
/// position that keeps the column sorted.
fn find_id(column: &[(PointId, usize)], id: PointId) -> Result<usize, usize> {
    column.binary_search_by_key(&id, |&(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmachine::json::to_string_pretty;
    use kmachine::{AuditMetrics, RunMetrics, TagMetrics};
    use knn_points::{IdAssigner, ScalarPoint};

    fn loaded_cluster(k: usize, n: u64) -> KnnCluster<ScalarPoint> {
        let mut ids = IdAssigner::new(0);
        let data = Dataset::from_labeled(
            (0..n).map(|i| (ScalarPoint(i * 10), Label::Class((i % 3) as u32))).collect(),
            &mut ids,
        );
        let mut cluster: KnnCluster<ScalarPoint> =
            KnnCluster::builder().machines(k).seed(3).build();

        cluster.load(data, PartitionStrategy::Shuffled);
        cluster
    }

    /// A batch renders every written type: its answers, their neighbors
    /// (each label form), stats and nested reports, and the batch report's
    /// microsecond `wall` and per-tag traffic.
    #[test]
    fn batch_answer_serializes_to_json() {
        let neighbor = |id, dist, machine, label| Neighbor {
            id: PointId(id),
            dist: Dist::from_u64(dist),
            machine,
            label,
        };
        let stats =
            KnnStats { sample_size: 32, prune_rank: 55, rolled_back: true, ..Default::default() };
        let answer = KnnAnswer {
            neighbors: vec![
                neighbor(7, 3, 0, Some(Label::Class(2))),
                neighbor(9, 5, 1, Some(Label::Value(0.5))),
                neighbor(4, 8, 1, None),
            ],
            stats: Some(stats),
            report: Report::healthy(RunMetrics::default(), 2, 1),
        };
        let metrics = RunMetrics {
            messages: 1,
            bits: 64,
            sends_per_machine: vec![1, 0],
            per_tag: vec![TagMetrics { messages: 1, bits: 64 }],
            ..Default::default()
        };
        let report = Report { wall: Duration::from_nanos(1500), ..Report::healthy(metrics, 2, 0) };
        let batch = BatchAnswer { answers: vec![answer], report };
        let want = r#"{
  "answers": [
    {
      "neighbors": [
        {
          "id": 7,
          "dist": 3,
          "machine": 0,
          "label": 2
        },
        {
          "id": 9,
          "dist": 5,
          "machine": 1,
          "label": 0.5
        },
        {
          "id": 4,
          "dist": 8,
          "machine": 1,
          "label": null
        }
      ],
      "stats": {
        "sample_size": 32,
        "prune_rank": 55,
        "total_candidates": 0,
        "survivors": 0,
        "rolled_back": true,
        "select_iterations": 0
      },
      "report": QUERY_REPORT
    }
  ],
  "report": {
    "metrics": {
      "rounds": 0,
      "messages": 1,
      "bits": 64,
      "sends_per_machine": [
        1,
        0
      ],
      "max_link_backlog_bits": 0,
      "delivered_after_done": 0,
      "per_tag": [
        {
          "messages": 1,
          "bits": 64
        }
      ]
    },
    "wall": "1.5µs",
    "leader": 0,
    "election_metrics": null,
    "faults": {
      "crashed": [],
      "dropped_messages": 0,
      "retransmitted_bits": 0
    },
    "recovery": {
      "checkpoint_bytes": 0,
      "rejoined": []
    },
    "audit": {
      "digests_verified": 0,
      "integrity_violations": 0,
      "audits_run": 0,
      "suspects_quarantined": 0
    },
    "degraded": false,
    "shards_used": 2,
    "recovered": false,
    "attempts": 1
  }
}"#;
        // The per-query report is the batch report's impl again, nested deeper.
        let query_report = to_string_pretty(&batch.answers[0].report).replace('\n', "\n      ");
        assert_eq!(to_string_pretty(&batch), want.replace("QUERY_REPORT", &query_report));
    }

    #[test]
    fn query_returns_sorted_labeled_neighbors() {
        let cluster = loaded_cluster(4, 100);
        let ans = cluster.query(&ScalarPoint(501), 5).unwrap();
        assert_eq!(ans.neighbors.len(), 5);
        assert!(ans.neighbors.windows(2).all(|w| (w[0].dist, w[0].id) < (w[1].dist, w[1].id)));
        assert!(ans.neighbors.iter().all(|n| n.label.is_some()));
        // Nearest to 501 among multiples of 10 is 500.
        assert_eq!(ans.neighbors[0].dist.as_u64(), 1);
    }

    #[test]
    fn unloaded_cluster_errors() {
        let cluster: KnnCluster<ScalarPoint> = KnnCluster::builder().machines(3).build();
        assert_eq!(cluster.query(&ScalarPoint(1), 2).unwrap_err(), CoreError::NotLoaded);
    }

    #[test]
    fn shard_count_mismatch_errors() {
        let mut cluster: KnnCluster<ScalarPoint> = KnnCluster::builder().machines(3).build();
        let err = cluster.load_shards(vec![Dataset::new(Vec::new())]).unwrap_err();
        assert_eq!(err, CoreError::ShardCount { expected: 3, got: 1 });
    }

    #[test]
    fn algorithms_agree_through_the_facade() {
        let cluster = loaded_cluster(5, 200);
        let q = ScalarPoint(777);
        let reference: Vec<PointId> = cluster
            .query_with(Algorithm::Simple, &q, 7)
            .unwrap()
            .neighbors
            .iter()
            .map(|n| n.id)
            .collect();
        for algo in Algorithm::ALL {
            let got: Vec<PointId> =
                cluster.query_with(algo, &q, 7).unwrap().neighbors.iter().map(|n| n.id).collect();
            assert_eq!(got, reference, "{algo:?}");
        }
    }

    #[test]
    fn approx_query_is_a_cheap_superset() {
        let cluster = loaded_cluster(6, 4000);
        let q = ScalarPoint(20_000);
        // ℓ = 100 > 80 = ⌈12·log₂ 100⌉: the candidate lists are sampled,
        // so the approximate query prunes (at ℓ ≤ 75 both queries finish at
        // the sampling stage, at the same cost).
        let exact = cluster.query(&q, 100).unwrap();
        let approx = cluster.query_approx(&q, 100).unwrap();
        assert!(approx.neighbors.len() >= exact.neighbors.len());
        // The exact answer is a prefix of the approximate superset.
        assert_eq!(
            &approx.neighbors[..100],
            &exact.neighbors[..],
            "approx must contain the exact answer as its prefix"
        );
        assert!(approx.metrics.rounds < exact.metrics.rounds);
        assert!(approx.neighbors.iter().all(|n| n.label.is_some()));
    }

    #[test]
    fn approx_path_is_unaudited_but_integrity_checked() {
        let mut ids = IdAssigner::new(0);
        let shards: Vec<Dataset<ScalarPoint>> = [0..200u64, 200..400, 400..600]
            .into_iter()
            .map(|r| Dataset::from_points(r.map(ScalarPoint).collect(), &mut ids))
            .collect();
        let cluster = |builder: ClusterBuilder, shards: Vec<Dataset<ScalarPoint>>| {
            let mut cluster: KnnCluster<ScalarPoint> = builder.machines(shards.len()).build();
            cluster.load_shards(shards).unwrap();
            cluster
        };
        let q = ScalarPoint(300);
        // A lie plan does not perturb the approx path (its supersets are
        // not the partition the audit certifies), so the answer matches the
        // adversary-free run and no audits are counted.
        let liar = KnnCluster::builder().adversary(AdversaryPlan::default().with_lie(1, 0));
        let out = cluster(liar, shards.clone()).query_approx(&q, 10).unwrap();
        let clean = cluster(KnnCluster::builder(), shards.clone()).query_approx(&q, 10).unwrap();
        assert_eq!(out.neighbors, clean.neighbors);
        assert_eq!(out.audit.audits_run, 0);
        assert_eq!(out.audit.suspects_quarantined, 0);
        assert!(out.audit.digests_verified > 0, "armed links still verify digests");
        // A corrupt link never yields a silent wrong answer either: the
        // digest chain catches it and — as on the batched approx path and
        // both exact paths — the sender is quarantined and the query re-runs
        // over the survivors.
        let corrupt =
            KnnCluster::builder().adversary(AdversaryPlan::default().with_corrupt_link(1, 0, 1000));
        let out = cluster(corrupt, shards.clone()).query_approx(&q, 10).unwrap();
        assert_eq!(out.audit.integrity_violations, 1);
        assert_eq!(out.audit.suspects_quarantined, 1);
        assert_eq!(out.audit.audits_run, 0, "still no semantic audit");
        assert!(out.degraded);
        assert_eq!(out.attempts, 2);
        assert!(
            out.neighbors.iter().all(|n| n.machine != 1),
            "the corrupting sender is quarantined"
        );
        let survivors = cluster(KnnCluster::builder(), vec![shards[0].clone(), shards[2].clone()]);
        let want = survivors.query_approx(&q, 10).unwrap();
        let keys = |a: &KnnAnswer| a.neighbors.iter().map(|n| (n.dist, n.id)).collect::<Vec<_>>();
        assert_eq!(keys(&out), keys(&want));
    }

    #[test]
    fn faulty_cluster_degrades_gracefully() {
        let mut cluster: KnnCluster<ScalarPoint> = KnnCluster::builder()
            .machines(4)
            .seed(3)
            .faults(FaultPlan::default().with_crash(1, 0))
            .build();
        let mut ids = IdAssigner::new(0);
        let data =
            Dataset::from_points((0..120u64).map(|i| ScalarPoint(i * 10)).collect(), &mut ids);
        cluster.load(data, PartitionStrategy::Shuffled);
        let ans = cluster.query(&ScalarPoint(501), 5).unwrap();
        assert!(ans.degraded);
        assert_eq!(ans.shards_used, 3);
        assert_eq!(ans.neighbors.len(), 5);
        assert!(ans.neighbors.iter().all(|n| n.machine != 1), "dead shards contribute nothing");
        // The healthy cluster is not degraded.
        let healthy = loaded_cluster(4, 100).query(&ScalarPoint(501), 5).unwrap();
        assert!(!healthy.degraded);
        assert_eq!(healthy.shards_used, 4);
        assert!(!healthy.faults.any());
    }

    #[test]
    fn rejoined_cluster_is_not_degraded() {
        let build = |recovery: RecoveryPlan| {
            let mut cluster: KnnCluster<ScalarPoint> = KnnCluster::builder()
                .machines(4)
                .seed(3)
                .bandwidth_bits(256)
                .recovery(recovery)
                .build();
            let mut ids = IdAssigner::new(0);
            let data =
                Dataset::from_points((0..120u64).map(|i| ScalarPoint(i * 10)).collect(), &mut ids);
            cluster.load(data, PartitionStrategy::Shuffled);
            cluster
        };
        let clean = build(RecoveryPlan::default());
        let healing = build(RecoveryPlan::default().with_rejoin(2, 1, 3));
        let queries: Vec<ScalarPoint> = (0..4).map(|i| ScalarPoint(i * 301)).collect();
        for algo in Algorithm::ALL {
            let want = clean.query_batch_with(algo, &queries, 5).unwrap();
            let got = healing.query_batch_with(algo, &queries, 5).unwrap();
            // The rejoined machine serves the re-run: answers and aggregate
            // costs equal the fault-free batch's, and nothing is degraded.
            assert!(!got.degraded, "{algo:?}");
            assert_eq!(got.shards_used, 4, "{algo:?}");
            assert!(got.recovered, "{algo:?}");
            assert_eq!(got.attempts, 2, "{algo:?}: the crashed run, then the re-run");
            assert_eq!(got.recovery.rejoined, vec![2], "{algo:?}");
            assert_eq!(got.metrics, want.metrics, "{algo:?}");
            for (a, b) in got.answers.iter().zip(&want.answers) {
                assert_eq!(a.neighbors, b.neighbors, "{algo:?}");
            }
            assert!(!want.recovered);
            assert!(want.recovery.rejoined.is_empty());
        }
    }

    #[test]
    fn byzantine_liar_is_caught_through_the_facade() {
        // Two clusters over the same 3-shard layout: one honest, one with
        // machine 1 lying. The Byzantine cluster must quarantine the liar
        // and return exactly the honest survivors' answer, with the audit
        // work reported.
        let load = |cluster: &mut KnnCluster<ScalarPoint>| {
            let mut ids = IdAssigner::new(0);
            let shards: Vec<Dataset<ScalarPoint>> = (0..3u64)
                .map(|m| {
                    Dataset::from_points(
                        (m * 100..(m + 1) * 100).map(ScalarPoint).collect(),
                        &mut ids,
                    )
                })
                .collect();
            cluster.load_shards(shards).unwrap();
        };
        let mut byz: KnnCluster<ScalarPoint> = KnnCluster::builder()
            .machines(3)
            .seed(3)
            .adversary(AdversaryPlan::default().with_lie(1, 0))
            .build();
        load(&mut byz);
        let ans = byz.query(&ScalarPoint(150), 5).unwrap();
        assert!(ans.degraded);
        assert_eq!(ans.shards_used, 2);
        assert!(ans.recovered);
        assert_eq!(ans.audit.suspects_quarantined, 1);
        assert!(ans.audit.audits_run >= 2);
        assert!(ans.neighbors.iter().all(|n| n.machine != 1), "liars contribute nothing");
        // The certified answer is the exact 5-NN of 150 over the honest
        // survivors' values {0..100} ∪ {200..300}: by (distance, id) that is
        // 200, 99, 201, 98, 202.
        assert_eq!(
            ans.neighbors.iter().map(|n| n.dist.as_u64()).collect::<Vec<_>>(),
            vec![50, 51, 51, 52, 52]
        );
        assert!(ans.neighbors.windows(2).all(|w| (w[0].dist, w[0].id) < (w[1].dist, w[1].id)));
        let batch = byz.query_batch(&[ScalarPoint(150)], 5).unwrap();
        assert_eq!(batch.audit.suspects_quarantined, 1);
        assert_eq!(
            batch.answers[0].neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
            ans.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
            "sequential and batched Byzantine recovery agree"
        );
        assert_eq!(
            batch.answers[0].audit,
            AuditMetrics::default(),
            "per-query copies stay empty; the batch reports its audit once"
        );
    }

    #[test]
    fn retry_budget_exhaustion_is_typed() {
        let mut cluster: KnnCluster<ScalarPoint> = KnnCluster::builder()
            .machines(4)
            .seed(3)
            .faults(FaultPlan::default().with_crash(1, 0))
            .retry(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() })
            .build();
        let mut ids = IdAssigner::new(0);
        let data =
            Dataset::from_points((0..120u64).map(|i| ScalarPoint(i * 10)).collect(), &mut ids);
        cluster.load(data, PartitionStrategy::Shuffled);
        let err = cluster.query_with(Algorithm::Knn, &ScalarPoint(501), 5).unwrap_err();
        assert!(
            matches!(err, CoreError::DeadlineExceeded { attempts: 1, .. }),
            "want DeadlineExceeded, got {err:?}"
        );
    }

    #[test]
    fn insert_serves_immediately_on_both_backends() {
        for backend in [IndexBackend::Exact, IndexBackend::nsw()] {
            let mut cluster: KnnCluster<ScalarPoint> =
                KnnCluster::builder().machines(4).seed(3).index_backend(backend).build();
            let mut ids = IdAssigner::new(0);
            let data =
                Dataset::from_points((0..100u64).map(|i| ScalarPoint(i * 10)).collect(), &mut ids);
            cluster.load(data, PartitionStrategy::Shuffled);
            // 503 is nearer to the query than any loaded multiple of 10.
            let (id, machine) =
                cluster.insert_labeled(ScalarPoint(503), Some(Label::Class(7))).unwrap();
            assert!(machine < 4);
            let ans = cluster.query_batch(&[ScalarPoint(502)], 3).unwrap();
            let top = &ans.answers[0].neighbors[0];
            assert_eq!(top.id, id, "{backend:?}: the inserted point wins, no reload");
            assert_eq!(top.machine, machine);
            assert_eq!(top.label, Some(Label::Class(7)));
            assert_eq!(top.dist.as_u64(), 1);
            // The sequential oracle path agrees.
            let seq = cluster.query(&ScalarPoint(502), 3).unwrap();
            assert_eq!(seq.neighbors[0].id, id);
            assert_eq!(cluster.total_points(), 101);
        }
    }

    #[test]
    fn insert_ids_are_fresh_and_routing_is_seeded() {
        let mut a = loaded_cluster(4, 50);
        let mut b = loaded_cluster(4, 50);
        for v in 0..20u64 {
            let (id_a, m_a) = a.insert(ScalarPoint(v * 3)).unwrap();
            let (id_b, m_b) = b.insert(ScalarPoint(v * 3)).unwrap();
            assert_eq!((id_a, m_a), (id_b, m_b), "same seed, same placement");
            assert!(a.shards[m_a].records.iter().filter(|r| r.id == id_a).count() == 1);
        }
        assert_eq!(a.total_points(), 70);
    }

    #[test]
    fn insert_validation_is_typed() {
        let mut empty: KnnCluster<ScalarPoint> = KnnCluster::builder().machines(3).build();
        assert_eq!(empty.insert(ScalarPoint(1)).unwrap_err(), CoreError::NotLoaded);
        let mut cluster = loaded_cluster(3, 30);
        let taken = cluster.shards[0].records[0].id;
        let dup = Record { id: taken, point: ScalarPoint(5), label: None };
        assert_eq!(
            cluster.insert_record_into(0, dup).unwrap_err(),
            CoreError::DuplicateId { id: taken }
        );
        let fresh = Record { id: PointId(u64::MAX - 1), point: ScalarPoint(5), label: None };
        assert_eq!(
            cluster.insert_record_into(9, fresh).unwrap_err(),
            CoreError::NoSuchMachine { machine: 9, machines: 3 }
        );
    }

    #[test]
    fn non_finite_insert_is_refused_and_the_cluster_still_answers() {
        use knn_points::VecPoint;
        let point = |i: u64| VecPoint::new(vec![(i % 17) as f64, (i * 7 % 13) as f64]);
        for backend in [IndexBackend::Exact, IndexBackend::nsw()] {
            let mut cluster: KnnCluster<VecPoint> =
                KnnCluster::builder().machines(4).seed(5).index_backend(backend).build();
            let mut ids = IdAssigner::new(5);
            let data = Dataset::from_points((0..200).map(point).collect(), &mut ids);
            cluster.load(data, PartitionStrategy::RoundRobin);
            let q = [VecPoint::new(vec![3.5, 1.0]), VecPoint::new(vec![0.0, 12.0])];
            let answers = |cluster: &KnnCluster<VecPoint>| {
                [5, 100, 250].map(|ell| {
                    let one = cluster.query(&q[0], ell).unwrap().neighbors;
                    let batch = cluster.query_batch(&q, ell).unwrap();
                    assert_eq!(batch.answers[0].neighbors, one, "{backend:?}, ell = {ell}");
                    (one, batch.answers[1].neighbors.clone())
                })
            };
            let before = (format!("{cluster:?}"), answers(&cluster));

            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let refused = CoreError::NonFinitePoint;
                assert_eq!(cluster.insert(VecPoint::new(vec![bad, 1.0])).unwrap_err(), refused);
                let labeled = cluster.insert_labeled(VecPoint::new(vec![1.0, bad]), None);
                assert_eq!(labeled.unwrap_err(), refused);
                for machine in 0..4 {
                    let point = VecPoint::new(vec![bad, bad]);
                    let record = Record { id: PointId(u64::MAX - 1), point, label: None };
                    assert_eq!(cluster.insert_record_into(machine, record).unwrap_err(), refused);
                }
            }
            assert_eq!(format!("{cluster:?}"), before.0, "{backend:?}: a refused insert is inert");
            assert_eq!(answers(&cluster), before.1, "{backend:?}");
            // A finite point still goes in and is found.
            let (id, _) = cluster.insert(q[0].clone()).unwrap();
            assert_eq!(cluster.query(&q[0], 1).unwrap().neighbors[0].id, id);
        }
    }

    #[test]
    fn wrong_shape_insert_is_refused_and_changes_nothing() {
        use knn_points::{BitsPoint, VecPoint};
        let point = |i: u64| VecPoint::new(vec![i as f64, (i * 7 % 13) as f64, (i % 5) as f64]);
        for backend in [IndexBackend::Exact, IndexBackend::nsw()] {
            let mut cluster: KnnCluster<VecPoint> =
                KnnCluster::builder().machines(4).seed(3).index_backend(backend).build();
            // Machine 3 starts empty: it takes its shape from the others.
            let mut shards: Vec<Dataset<VecPoint>> = (0..3u64)
                .map(|m| {
                    let mut ids = IdAssigner::with_stream(3, m);
                    Dataset::from_points((0..21).map(|i| point(m * 21 + i)).collect(), &mut ids)
                })
                .collect();
            shards.push(Dataset::new(Vec::new()));
            cluster.load_shards(shards).unwrap();
            let q = [VecPoint::new(vec![20.2, 6.1, 2.0])];
            let before = (format!("{cluster:?}"), cluster.query_batch(&q, 5).unwrap());

            let refused = CoreError::ShapeMismatch { expected: 3, got: 2 };
            assert_eq!(cluster.insert(VecPoint::new(vec![1.0, 2.0])).unwrap_err(), refused);
            for machine in 0..4 {
                let record =
                    Record { id: PointId(5000), point: VecPoint::new(vec![1.0, 2.0]), label: None };
                assert_eq!(cluster.insert_record_into(machine, record).unwrap_err(), refused);
            }
            assert_eq!(format!("{cluster:?}"), before.0, "{backend:?}: a refused insert is inert");
            let after = cluster.query_batch(&q, 5).unwrap();
            assert_eq!(after.answers[0].neighbors, before.1.answers[0].neighbors);

            let (id, _) = cluster.insert(q[0].clone()).unwrap();
            assert_eq!(cluster.total_points(), 64);
            assert_eq!(cluster.query_batch(&q, 5).unwrap().answers[0].neighbors[0].id, id);
        }

        let mut bits: KnnCluster<BitsPoint> = KnnCluster::builder().machines(2).build();
        let mut ids = IdAssigner::new(1);
        let words = (0..10u64).map(|i| BitsPoint::new(vec![i, !i])).collect();
        bits.load(Dataset::from_points(words, &mut ids), PartitionStrategy::RoundRobin);
        assert_eq!(
            bits.insert(BitsPoint::new(vec![1])).unwrap_err(),
            CoreError::ShapeMismatch { expected: 2, got: 1 }
        );
        assert_eq!(bits.total_points(), 10);
        bits.insert(BitsPoint::new(vec![1, 2])).unwrap();
    }

    #[test]
    fn wrong_shape_query_is_a_typed_error_on_every_path() {
        use knn_points::{BitsPoint, VecPoint};
        let point = |i: u64| VecPoint::new(vec![i as f64, (i * 7 % 13) as f64, (i % 5) as f64]);
        let refused = CoreError::ShapeMismatch { expected: 3, got: 2 };
        for backend in [IndexBackend::Exact, IndexBackend::nsw()] {
            let mut cluster: KnnCluster<VecPoint> =
                KnnCluster::builder().machines(3).seed(3).index_backend(backend).build();
            // Machine 0 holds nothing: the data's shape comes from the rest.
            let mut ids = IdAssigner::new(0);
            let data = Dataset::from_points((0..40).map(point).collect(), &mut ids);
            let mut shards = PartitionStrategy::RoundRobin.split(data.records, 2, 0);
            shards.insert(0, Vec::new());
            cluster.load_shards(shards.into_iter().map(Dataset::new).collect()).unwrap();
            let (good, bad) = (point(17), VecPoint::new(vec![1.0, 2.0]));
            for algo in Algorithm::ALL {
                assert_eq!(cluster.query_with(algo, &bad, 4).unwrap_err(), refused, "{algo:?}");
                // One bad query refuses the whole batch, wherever it sits.
                let batch = [good.clone(), bad.clone()];
                assert_eq!(cluster.query_batch_with(algo, &batch, 4).unwrap_err(), refused);
            }
            assert_eq!(cluster.query_approx(&bad, 4).unwrap_err(), refused);
            assert_eq!(cluster.query_batch_approx(&[bad], 4).unwrap_err(), refused);
            // The cluster keeps serving well-shaped queries.
            assert_eq!(cluster.query(&good, 4).unwrap().neighbors[0].dist.as_u64(), 0);
            assert_eq!(cluster.query_batch(&[good], 4).unwrap().answers[0].neighbors.len(), 4);
        }

        let mut bits: KnnCluster<BitsPoint> = KnnCluster::builder().machines(2).build();
        let mut ids = IdAssigner::new(1);
        let words = (0..10u64).map(|i| BitsPoint::new(vec![i, !i])).collect();
        bits.load(Dataset::from_points(words, &mut ids), PartitionStrategy::RoundRobin);
        let refused = CoreError::ShapeMismatch { expected: 2, got: 1 };
        assert_eq!(bits.query(&BitsPoint::new(vec![1]), 3).unwrap_err(), refused);
        assert_eq!(bits.query_batch(&[BitsPoint::new(vec![1])], 3).unwrap_err(), refused);
        assert_eq!(bits.query(&BitsPoint::new(vec![1, !1]), 3).unwrap().neighbors.len(), 3);
    }

    /// ℓ past the population (up to "everything": `usize::MAX`) answers
    /// every resident point on every path — no reservation, sample buffer or
    /// index search may be sized by ℓ itself.
    fn huge_ell_answers_everything<P: IndexedPoint>(points: Vec<P>, q: P) {
        let n = points.len();
        for backend in [IndexBackend::Exact, IndexBackend::nsw()] {
            let mut cluster: KnnCluster<P> =
                KnnCluster::builder().machines(4).seed(3).index_backend(backend).build();
            let mut ids = IdAssigner::new(0);
            cluster
                .load(Dataset::from_points(points.clone(), &mut ids), PartitionStrategy::Shuffled);
            for ell in [n + 1, 1 << 40, usize::MAX] {
                let all = |answer: &KnnAnswer, path: &str| {
                    assert_eq!(answer.neighbors.len(), n, "{backend:?} ell {ell} {path}");
                };
                all(&cluster.query(&q, ell).unwrap(), "query");
                all(
                    &cluster.query_batch(std::slice::from_ref(&q), ell).unwrap().answers[0],
                    "query_batch",
                );
                let approx = cluster.query_approx(&q, ell).unwrap();
                all(&approx, "query_approx");
                let approx = cluster.query_batch_approx(std::slice::from_ref(&q), ell).unwrap();
                all(&approx.answers[0], "query_batch_approx");
            }
        }
    }

    #[test]
    fn ell_beyond_the_population_answers_every_point_on_every_path() {
        use knn_points::{BitsPoint, VecPoint};
        huge_ell_answers_everything(
            (0..400u64).map(|i| ScalarPoint(i * 10)).collect(),
            ScalarPoint(7),
        );
        huge_ell_answers_everything(
            (0..200u64).map(|i| VecPoint::new(vec![i as f64, (i * 7 % 13) as f64])).collect(),
            VecPoint::new(vec![3.5, 2.0]),
        );
        huge_ell_answers_everything(
            (0..200u64).map(|i| BitsPoint::new(vec![i.wrapping_mul(0x9E37_79B9)])).collect(),
            BitsPoint::new(vec![0xF0F0]),
        );
    }

    #[test]
    fn accessors() {
        let cluster = loaded_cluster(4, 100);
        assert_eq!(cluster.k(), 4);
        assert_eq!(cluster.total_points(), 100);
        assert_eq!((0..4).map(|i| cluster.shard_len(i)).sum::<usize>(), 100);
        assert_eq!(cluster.shard_len(99), 0);
    }
}

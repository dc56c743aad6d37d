//! Batched query serving: one leader election, one engine run per batch,
//! indexed local candidate generation.
//!
//! A sequential [`crate::cluster::KnnCluster::query`] models the paper's
//! *per-query* cost exactly: every call elects a leader and builds k fresh
//! protocol instances. A serving system answering a stream of queries
//! against one loaded cluster (the paper's own §3 experimental setup, and
//! the PANDA \[14\] amortization argument) should pay neither per query —
//! which is what [`QuerySession`] provides:
//!
//! * the **leader is elected once per session** and reused by every query;
//! * a batch of m queries runs as **one engine run**: each machine
//!   multiplexes m protocol instances over its links via
//!   [`kmachine::mux::MuxProtocol`], so the per-run fixed rounds (round-0
//!   scheduling, completion broadcasts) are paid once and the instances
//!   pipeline through the shared bandwidth.
//!
//! Both read their candidates from the **per-shard indices**
//! ([`crate::local::ShardIndex`]: exact structures or the approximate NSW
//! graph, built at load and kept current by
//! [`crate::cluster::KnnCluster::insert`]) — `O(ℓ log n)` per query instead
//! of the `O(n)` full scan of the shards-only [`crate::runner::run_query`] —
//! and both run the one serving loop, so a batch answers exactly what the
//! same queries asked one at a time would.
//!
//! Per-query costs stay observable: message/bit totals are attributed by
//! query tag ([`kmachine::RunMetrics::per_tag`]) and each query reports the
//! round in which it completed.
//!
//! Every machine's candidates for every query of a batch are computed once,
//! on the rayon pool ([`crate::local::candidate_stage`]), before the
//! protocols are seated; the lockstep engine ([`kmachine::run_sync`]) then
//! runs the batch's message rounds.

use kmachine::{MachineId, RunMetrics};
use knn_points::{Dataset, DistKey};

use crate::error::CoreError;
use crate::local::{IndexedPoint, ShardIndex};
use crate::protocols::knn::KnnStats;
use crate::report::Report;
use crate::runner::{check_shape, elect, Algorithm, QueryOptions, Seating};

/// Per-query result inside a batch, before point resolution.
#[derive(Debug, Clone)]
pub struct BatchQueryOutcome {
    /// Per-machine answer keys (machine `i`'s members of the ℓ-NN set).
    pub local_keys: Vec<Vec<DistKey>>,
    /// Messages attributed to this query's tag.
    pub messages: u64,
    /// Bits attributed to this query's tag (tag framing included).
    pub bits: u64,
    /// Round of the batch run in which this query completed (max over
    /// machines).
    pub done_round: u64,
    /// Algorithm 2 diagnostics, the approximate path's included (`None`
    /// for the baselines).
    pub stats: Option<KnnStats>,
    /// Approx path only: whether the survivor set provably contains the
    /// exact ℓ-NN ([`KnnStats::contains_exact`]).
    pub contains_exact: Option<bool>,
    /// Which engine run answered this query (1 = the batch's first run).
    /// Greater than 1 marks a query that was lost to a crash and re-run on
    /// the surviving topology.
    pub attempts: u32,
    /// True when this query's answer needed recovery: it was re-planned
    /// onto survivors after a crash took its first answer with it.
    pub recovered: bool,
}

/// Result of one batched run of m queries.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-query outcomes, in input order.
    pub queries: Vec<BatchQueryOutcome>,
    /// Costs and fault / recovery / audit accounting of the batch as a
    /// whole (also reachable through `Deref`: `batch.metrics`, …).
    pub report: Report,
}

/// A serving session over a loaded, indexed cluster: elects the leader once
/// and answers query batches until dropped.
///
/// Borrowing the shards and indices keeps the session zero-copy; create one
/// with [`QuerySession::new`] or through
/// [`crate::cluster::KnnCluster::session`].
#[derive(Debug)]
pub struct QuerySession<'a, P: IndexedPoint> {
    shards: &'a [Dataset<P>],
    indices: &'a [ShardIndex<P>],
    opts: QueryOptions,
    leader: MachineId,
    election_metrics: Option<RunMetrics>,
}

impl<'a, P: IndexedPoint> QuerySession<'a, P> {
    /// Open a session: validate the layout and elect the leader (the only
    /// election this session will ever run).
    pub fn new(
        shards: &'a [Dataset<P>],
        indices: &'a [ShardIndex<P>],
        opts: QueryOptions,
    ) -> Result<Self, CoreError> {
        if shards.is_empty() {
            return Err(CoreError::EmptyCluster);
        }
        assert_eq!(shards.len(), indices.len(), "one index per shard");
        let (leader, election_metrics) = elect(shards.len(), &opts)?;
        Ok(QuerySession { shards, indices, opts, leader, election_metrics })
    }

    /// The session leader.
    pub fn leader(&self) -> MachineId {
        self.leader
    }

    /// Cost of the session's one-time election.
    pub fn election_metrics(&self) -> Option<&RunMetrics> {
        self.election_metrics.as_ref()
    }

    /// The options this session runs with.
    pub fn options(&self) -> &QueryOptions {
        &self.opts
    }

    /// This machine's indexed top-ℓ candidates for one query, straight from
    /// the shard index.
    fn top(&self, machine: usize, query: &P, ell: usize) -> Vec<DistKey> {
        self.indices[machine].top(&self.shards[machine].records, query, ell, self.opts.metric)
    }

    /// Answer `queries` (all at the same ℓ) in **one engine run** with
    /// `algorithm`, multiplexing one protocol instance per query on every
    /// machine. Answers are exactly what sequential
    /// [`crate::cluster::KnnCluster::query_with`] calls over the same shards
    /// and indices would return.
    pub fn run_batch(
        &self,
        queries: &[P],
        ell: usize,
        algorithm: Algorithm,
    ) -> Result<BatchOutcome, CoreError> {
        self.serve(queries, ell, Some(algorithm), true)
    }

    /// Answer `queries` approximately in one multiplexed engine run:
    /// Algorithm 2 stopped at its pruning decision
    /// ([`crate::protocols::KnnProtocol::prune_only`]), every machine
    /// answering with its survivors. Under [`crate::protocols::KnnParams::harden`]
    /// (the default) an undershot prune rolls back to every candidate, so
    /// each answer is a superset of the exact ℓ-NN; each query's `stats` are
    /// `Some`, with the survivor count of Lemma 2.3.
    ///
    /// The approx path runs **unaudited**: its answers are supersets, not
    /// the exact partition the semantic audit certifies. It also injects no
    /// source-level lies; a crash or a corrupt link is recovered from like
    /// on the exact path (the sender of a corrupt link is quarantined).
    pub fn run_batch_approx(&self, queries: &[P], ell: usize) -> Result<BatchOutcome, CoreError> {
        self.serve(queries, ell, None, true)
    }

    /// Answer `queries` with protocol `kind` (`None`: the approximate one)
    /// from the shard indices, coordinated by the session leader: in one
    /// engine run per attempt, multiplexed when `mux`, and otherwise — a
    /// single query, as [`crate::cluster::KnnCluster`]'s sequential calls
    /// ask — untagged, as the paper accounts a query. Recovery, audit and
    /// per-query re-planning are the serving loop's, the same one
    /// [`crate::runner::run_query`] runs.
    ///
    /// A query of the wrong [`knn_points::Point::shape`] refuses the whole
    /// call with [`CoreError::ShapeMismatch`] before any query runs.
    pub(crate) fn serve(
        &self,
        queries: &[P],
        ell: usize,
        kind: Option<Algorithm>,
        mux: bool,
    ) -> Result<BatchOutcome, CoreError> {
        queries.iter().try_for_each(|q| check_shape(self.shards, q))?;
        let seating = Seating { kind, ell, opts: &self.opts, k: self.shards.len(), mux };
        let (queries, mut report) = seating
            .serve(self.leader, queries.len(), None, |m, j| self.top(m, &queries[j], ell))?;
        report.election_metrics = self.election_metrics.clone();
        Ok(BatchOutcome { queries, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::{IndexBackend, ShardIndex};
    use crate::runner::{merge_answers, run_query, ElectionKind};
    use knn_points::{IdAssigner, Metric, ScalarPoint};
    use knn_workloads::PartitionStrategy;

    fn shards(values: &[u64], k: usize) -> Vec<Dataset<ScalarPoint>> {
        let mut ids = IdAssigner::new(0);
        let data = Dataset::from_points(values.iter().map(|&v| ScalarPoint(v)).collect(), &mut ids);
        PartitionStrategy::RoundRobin
            .split(data.records, k, 0)
            .into_iter()
            .map(Dataset::new)
            .collect()
    }

    fn indices(sh: &[Dataset<ScalarPoint>]) -> Vec<ShardIndex<ScalarPoint>> {
        sh.iter()
            .map(|d| ShardIndex::build(&d.records, IndexBackend::default(), Metric::Euclidean))
            .collect()
    }

    #[test]
    fn batch_matches_sequential_for_every_algorithm() {
        let values: Vec<u64> = (0..400u64).map(|i| i.wrapping_mul(48271) % 50_000).collect();
        let sh = shards(&values, 5);
        let idx = indices(&sh);
        let queries: Vec<ScalarPoint> =
            [3u64, 17_000, 49_999, 25_000].iter().map(|&v| ScalarPoint(v)).collect();
        let opts = QueryOptions::default();
        let session = QuerySession::new(&sh, &idx, opts.clone()).unwrap();
        for algo in Algorithm::ALL {
            let batch = session.run_batch(&queries, 7, algo).unwrap();
            assert_eq!(batch.queries.len(), queries.len());
            for (j, q) in queries.iter().enumerate() {
                let solo = run_query(&sh, q, 7, algo, &opts).unwrap();
                assert_eq!(
                    merge_answers(&batch.queries[j].local_keys),
                    merge_answers(&solo.local_keys),
                    "{algo:?} query {j}"
                );
            }
        }
    }

    #[test]
    fn session_elects_exactly_once() {
        let sh = shards(&(0..100u64).collect::<Vec<_>>(), 4);
        let idx = indices(&sh);
        let opts = QueryOptions { election: ElectionKind::Star, ..Default::default() };
        let session = QuerySession::new(&sh, &idx, opts).unwrap();
        let em = session.election_metrics().expect("star election ran");
        assert_eq!(em.messages, 2 * 3);
        // Two batches through the same session: the election cost is
        // reported (not re-paid) on both.
        let a = session.run_batch(&[ScalarPoint(5), ScalarPoint(50)], 3, Algorithm::Knn).unwrap();
        let b = session.run_batch(&[ScalarPoint(9)], 3, Algorithm::Simple).unwrap();
        assert_eq!(a.election_metrics.as_ref().unwrap().messages, 6);
        assert_eq!(b.election_metrics.as_ref().unwrap().messages, 6);
        assert_eq!(a.leader, b.leader);
    }

    #[test]
    fn per_query_attribution_partitions_the_batch() {
        let sh = shards(&(0..500u64).collect::<Vec<_>>(), 4);
        let idx = indices(&sh);
        let session = QuerySession::new(&sh, &idx, QueryOptions::default()).unwrap();
        let queries: Vec<ScalarPoint> = (0..6).map(|i| ScalarPoint(i * 80)).collect();
        let batch = session.run_batch(&queries, 9, Algorithm::Simple).unwrap();
        let msg_sum: u64 = batch.queries.iter().map(|q| q.messages).sum();
        let bit_sum: u64 = batch.queries.iter().map(|q| q.bits).sum();
        assert_eq!(msg_sum, batch.metrics.messages);
        assert_eq!(bit_sum, batch.metrics.bits);
        for q in &batch.queries {
            assert!(q.messages > 0);
            assert!(q.done_round <= batch.metrics.rounds);
        }
    }

    #[test]
    fn batch_approx_reports_guarantees() {
        let values: Vec<u64> =
            (0..3000u64).map(|i| i.wrapping_mul(0x9E3779B9) % 1_000_000).collect();
        let sh = shards(&values, 6);
        let idx = indices(&sh);
        let session = QuerySession::new(&sh, &idx, QueryOptions::default()).unwrap();
        let queries: Vec<ScalarPoint> = (0..3).map(|i| ScalarPoint(i * 300_000)).collect();
        let batch = session.run_batch_approx(&queries, 40).unwrap();
        for (j, bq) in batch.queries.iter().enumerate() {
            let stats = bq.stats.expect("approx reports its leader's stats");
            let survivors: usize = bq.local_keys.iter().map(Vec::len).sum();
            assert_eq!(survivors as u64, stats.survivors, "query {j}");
            assert!(bq.contains_exact.unwrap(), "paper constants should not under-prune");
            assert!(!stats.rolled_back);
            assert!(stats.survivors >= 40);
        }
    }

    #[test]
    fn batch_recovers_from_a_crashed_leader() {
        use kmachine::FaultPlan;
        let values: Vec<u64> = (0..400u64).map(|i| i.wrapping_mul(48271) % 50_000).collect();
        let sh = shards(&values, 5);
        let idx = indices(&sh);
        let opts =
            QueryOptions { faults: FaultPlan::default().with_crash(0, 0), ..Default::default() };
        let queries = [ScalarPoint(120), ScalarPoint(44_000)];
        let session = QuerySession::new(&sh, &idx, opts.clone()).unwrap();
        let batch = session.run_batch(&queries, 6, Algorithm::Knn).unwrap();
        assert!(batch.degraded);
        assert_eq!(batch.shards_used, 4);
        assert_ne!(batch.leader, 0, "a dead leader cannot coordinate");
        for (j, q) in queries.iter().enumerate() {
            let bq = &batch.queries[j];
            assert_eq!(bq.local_keys.len(), 5, "answers keep the full shard layout");
            assert!(bq.local_keys[0].is_empty(), "the dead shard contributes nothing");
            // Per-query answers match the sequential recovery path.
            let solo = run_query(&sh, q, 6, Algorithm::Knn, &opts).unwrap();
            assert_eq!(merge_answers(&bq.local_keys), merge_answers(&solo.local_keys), "{j}");
        }
    }

    #[test]
    fn batch_rejoin_is_invisible_and_reported() {
        use kmachine::{BandwidthMode, RecoveryPlan};
        let values: Vec<u64> = (0..400u64).map(|i| i.wrapping_mul(48271) % 50_000).collect();
        let sh = shards(&values, 4);
        let idx = indices(&sh);
        let queries: Vec<ScalarPoint> = (0..4).map(|i| ScalarPoint(i * 12_000)).collect();
        // Tight bandwidth stretches the batch over enough rounds for the
        // outage window to land mid-run.
        let bandwidth = BandwidthMode::Enforce { bits_per_round: 256 };
        let clean_opts = QueryOptions { bandwidth, ..Default::default() };
        let clean = QuerySession::new(&sh, &idx, clean_opts)
            .unwrap()
            .run_batch(&queries, 6, Algorithm::Simple)
            .unwrap();
        let opts = QueryOptions {
            bandwidth,
            recovery: RecoveryPlan::default().with_rejoin(1, 2, 5),
            ..Default::default()
        };
        let batch = QuerySession::new(&sh, &idx, opts)
            .unwrap()
            .run_batch(&queries, 6, Algorithm::Simple)
            .unwrap();
        assert!(!batch.degraded, "a rejoined machine serves: nothing is missing");
        assert_eq!(batch.shards_used, 4);
        assert!(batch.faults.crashed.is_empty(), "a rejoin is a pause, not a fail-stop");
        assert!(batch.recovered);
        assert_eq!(batch.attempts, 1, "recovery happened in-engine, not by retry");
        assert!(batch.replayed_rounds >= 1);
        assert_eq!(batch.recovery.rejoined, vec![1]);
        assert_eq!(batch.metrics.messages, clean.metrics.messages, "byte-identical traffic");
        assert_eq!(batch.metrics.bits, clean.metrics.bits);
        for (j, (got, want)) in batch.queries.iter().zip(&clean.queries).enumerate() {
            assert_eq!(got.local_keys, want.local_keys, "query {j}");
        }
    }

    #[test]
    fn lost_queries_are_replanned_onto_survivors() {
        use kmachine::FaultPlan;
        let values: Vec<u64> = (0..600u64).map(|i| i.wrapping_mul(48271) % 70_000).collect();
        let sh = shards(&values, 5);
        let idx = indices(&sh);
        let queries: Vec<ScalarPoint> = (0..6).map(|i| ScalarPoint(i * 11_000)).collect();
        let full = QuerySession::new(&sh, &idx, QueryOptions::default())
            .unwrap()
            .run_batch(&queries, 6, Algorithm::Knn)
            .unwrap();
        // Survivor reference: the same batch over the shards minus machine 3.
        let sh_sur: Vec<_> =
            sh.iter().enumerate().filter(|&(i, _)| i != 3).map(|(_, d)| d.clone()).collect();
        let idx_sur = indices(&sh_sur);
        let sur = QuerySession::new(&sh_sur, &idx_sur, QueryOptions::default())
            .unwrap()
            .run_batch(&queries, 6, Algorithm::Knn)
            .unwrap();
        let answer =
            |lk: &[Vec<DistKey>]| merge_answers(lk).iter().map(|&(key, _)| key).collect::<Vec<_>>();
        // Sweep the crash round across the batch's lifetime: wherever it
        // lands, every query's answer must be exact over the topology that
        // answered it — the full cluster (attempts == 1) or the survivors
        // (re-planned after the crash took the first answer with it).
        for crash_round in 1..24 {
            let opts = QueryOptions {
                faults: FaultPlan::default().with_crash(3, crash_round),
                ..Default::default()
            };
            let session = QuerySession::new(&sh, &idx, opts).unwrap();
            let batch = session.run_batch(&queries, 6, Algorithm::Knn).unwrap();
            for (j, bq) in batch.queries.iter().enumerate() {
                let want = if bq.attempts == 1 { &full.queries[j] } else { &sur.queries[j] };
                assert_eq!(
                    answer(&bq.local_keys),
                    answer(&want.local_keys),
                    "crash@{crash_round} query {j} (attempts {})",
                    bq.attempts
                );
                assert_eq!(bq.recovered, bq.attempts > 1);
            }
            assert_eq!(batch.recovered, batch.attempts > 1 || batch.recovery.any());
            if batch.attempts > 1 {
                assert!(batch.degraded, "a re-planned batch lost a shard");
            }
        }
    }

    /// Shards holding contiguous value ranges, so tests can aim queries at
    /// (or away from) a specific machine's points.
    fn range_shards(ranges: &[std::ops::Range<u64>]) -> Vec<Dataset<ScalarPoint>> {
        use knn_points::IdAssigner;
        let mut ids = IdAssigner::new(0);
        ranges
            .iter()
            .map(|r| Dataset::from_points(r.clone().map(ScalarPoint).collect(), &mut ids))
            .collect()
    }

    fn answer_of(local_keys: &[Vec<DistKey>]) -> Vec<DistKey> {
        merge_answers(local_keys).iter().map(|&(key, _)| key).collect()
    }

    #[test]
    fn batch_quarantines_a_liar_and_reruns_only_the_poisoned_queries() {
        use kmachine::AdversaryPlan;
        // Machine 1 lies. Query 0's neighborhood lives entirely on the
        // honest machines — the lie is immaterial there, the audit passes,
        // and the first run's answer is kept *certified*. Query 1's
        // neighborhood lives on the liar — the audit fails it, quarantines
        // machine 1, and re-runs only query 1 on the honest survivors. A
        // query answered by a machine caught lying later in the same batch
        // is thus never kept unaudited.
        let sh = range_shards(&[0..100, 10_000..10_100, 100..200]);
        let idx = indices(&sh);
        let queries = [ScalarPoint(50), ScalarPoint(10_050)];
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        let batch = QuerySession::new(&sh, &idx, opts)
            .unwrap()
            .run_batch(&queries, 4, Algorithm::Knn)
            .unwrap();
        assert!(batch.degraded);
        assert_eq!(batch.attempts, 2);
        assert_eq!(batch.audit.suspects_quarantined, 1);
        assert_eq!(batch.audit.audits_run, 3, "two audits in run 1, one in the re-run");
        assert!(batch.audit.digests_verified > 0);
        // Query 0: certified on the first run, against the full cluster.
        assert_eq!(batch.queries[0].attempts, 1);
        assert!(!batch.queries[0].recovered);
        let full = QuerySession::new(&sh, &idx, QueryOptions::default())
            .unwrap()
            .run_batch(&queries[..1], 4, Algorithm::Knn)
            .unwrap();
        assert_eq!(answer_of(&batch.queries[0].local_keys), answer_of(&full.queries[0].local_keys));
        // Query 1: re-run on the honest survivors.
        assert_eq!(batch.queries[1].attempts, 2);
        assert!(batch.queries[1].recovered);
        assert!(batch.queries[1].local_keys[1].is_empty(), "the liar contributes nothing");
        let sh_sur: Vec<_> =
            sh.iter().enumerate().filter(|&(i, _)| i != 1).map(|(_, d)| d.clone()).collect();
        let idx_sur = indices(&sh_sur);
        let sur = QuerySession::new(&sh_sur, &idx_sur, QueryOptions::default())
            .unwrap()
            .run_batch(&queries[1..], 4, Algorithm::Knn)
            .unwrap();
        assert_eq!(answer_of(&batch.queries[1].local_keys), answer_of(&sur.queries[0].local_keys));
    }

    #[test]
    fn a_liars_input_is_sorted_and_both_paths_quarantine_it() {
        use crate::audit;
        use crate::local::brute_top;
        use kmachine::AdversaryPlan;
        let sh = range_shards(&[0..100, 100..200, 200..300, 300..400]);
        let idx = indices(&sh);
        let q = ScalarPoint(150);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        // The two producers agree on the liar's honest top-ℓ; the runner
        // perturbs it and hands it on sorted, as every protocol expects.
        let honest = idx[1].top(&sh[1].records, &q, 6, Metric::Euclidean);
        assert_eq!(honest, brute_top(&sh[1].records, &q, 6, Metric::Euclidean));
        let raw_lie = audit::perturb_input(honest.clone(), opts.adversary.adversary_seed, 1);
        assert!(!raw_lie.is_sorted(), "the per-key offsets reorder the list");
        let lied = opts.fed_by(1, honest.clone());
        assert!(lied.is_sorted());
        assert_eq!(lied.len(), raw_lie.len());
        assert!(lied.iter().all(|key| raw_lie.contains(key)), "the same lie, in order");
        // Same lie, same verdict: machine 1 and nobody else is excluded.
        let session = QuerySession::new(&sh, &idx, opts.clone()).unwrap();
        for algo in Algorithm::ALL {
            let single = run_query(&sh, &q, 6, algo, &opts).unwrap();
            let batch = session.run_batch(&[q], 6, algo).unwrap();
            let of_one = &batch.queries[0].local_keys;
            for (path, keys, report) in
                [("single", &single.local_keys, &single.report), ("batch", of_one, &batch.report)]
            {
                assert_eq!(report.audit.suspects_quarantined, 1, "{algo:?} {path}");
                assert_eq!(report.shards_used, 3, "{algo:?} {path}");
                assert!(keys[1].is_empty(), "{algo:?} {path}: the liar is the one excluded");
                assert_eq!(keys.iter().map(Vec::len).sum::<usize>(), 6, "{algo:?} {path}");
            }
            assert_eq!(of_one, &single.local_keys, "{algo:?}");
        }
    }

    #[test]
    fn batch_audit_failure_is_typed_when_everyone_lies() {
        use kmachine::AdversaryPlan;
        let sh = range_shards(&[0..50, 50..100]);
        let idx = indices(&sh);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(0, 0).with_lie(1, 0),
            ..Default::default()
        };
        let err = QuerySession::new(&sh, &idx, opts)
            .unwrap()
            .run_batch(&[ScalarPoint(50)], 6, Algorithm::Knn)
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::AuditFailed { suspects, alive: 2 } if suspects.len() == 2),
            "want AuditFailed naming both liars, got {err:?}"
        );
    }

    #[test]
    fn batch_corrupt_link_quarantines_the_sender() {
        use kmachine::AdversaryPlan;
        let sh = range_shards(&[0..100, 100..200, 200..300]);
        let idx = indices(&sh);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_corrupt_link(2, 0, 1000),
            ..Default::default()
        };
        let batch = QuerySession::new(&sh, &idx, opts)
            .unwrap()
            .run_batch(&[ScalarPoint(150), ScalarPoint(250)], 4, Algorithm::Simple)
            .unwrap();
        assert_eq!(batch.audit.integrity_violations, 1);
        assert_eq!(batch.audit.suspects_quarantined, 1);
        assert!(batch.degraded);
        for bq in &batch.queries {
            assert!(bq.local_keys[2].is_empty(), "the corrupting sender is quarantined");
        }
    }

    #[test]
    fn batch_approx_is_unaudited_under_a_lie_plan() {
        use kmachine::AdversaryPlan;
        let sh = range_shards(&[0..200, 200..400, 400..600]);
        let idx = indices(&sh);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        let queries = [ScalarPoint(300)];
        let batch =
            QuerySession::new(&sh, &idx, opts).unwrap().run_batch_approx(&queries, 10).unwrap();
        let clean = QuerySession::new(&sh, &idx, QueryOptions::default())
            .unwrap()
            .run_batch_approx(&queries, 10)
            .unwrap();
        assert_eq!(batch.queries[0].local_keys, clean.queries[0].local_keys);
        assert_eq!(batch.audit.audits_run, 0);
        assert_eq!(batch.audit.suspects_quarantined, 0);
        assert!(batch.audit.digests_verified > 0, "armed links still verify digests");
    }

    #[test]
    fn empty_batch_is_free() {
        let sh = shards(&(0..50u64).collect::<Vec<_>>(), 3);
        let idx = indices(&sh);
        let session = QuerySession::new(&sh, &idx, QueryOptions::default()).unwrap();
        let batch = session.run_batch(&[], 5, Algorithm::Knn).unwrap();
        assert!(batch.queries.is_empty());
        assert_eq!(batch.metrics.messages, 0);
        assert_eq!(batch.metrics.rounds, 0);
    }

    #[test]
    fn empty_cluster_is_an_error() {
        let sh: Vec<Dataset<ScalarPoint>> = Vec::new();
        let idx: Vec<ShardIndex<ScalarPoint>> = Vec::new();
        let err = QuerySession::new(&sh, &idx, QueryOptions::default()).unwrap_err();
        assert_eq!(err, CoreError::EmptyCluster);
    }

    #[test]
    fn batched_rounds_per_query_beat_sequential_for_simple() {
        let values: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(48271) % (1 << 20)).collect();
        let sh = shards(&values, 6);
        let idx = indices(&sh);
        let opts = QueryOptions::default();
        let session = QuerySession::new(&sh, &idx, opts.clone()).unwrap();
        let queries: Vec<ScalarPoint> = (0..16).map(|i| ScalarPoint(i * 65_536)).collect();
        let batch = session.run_batch(&queries, 64, Algorithm::Simple).unwrap();
        let sequential: u64 = queries
            .iter()
            .map(|q| run_query(&sh, q, 64, Algorithm::Simple, &opts).unwrap().metrics.rounds)
            .sum();
        assert!(
            batch.metrics.rounds < sequential,
            "batched {} vs sequential {}",
            batch.metrics.rounds,
            sequential
        );
    }
}

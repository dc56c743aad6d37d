//! The candidate stage at the facade: every (machine, query) cell is
//! computed once per engine run — the audit reads the stage's honest output
//! instead of scanning again — and a producer that panics is a typed error
//! on every query path, at every pool size, on both engines.

use std::sync::atomic::{AtomicU64, Ordering};

use kmachine::{AdversaryPlan, Engine, EngineError};
use knn_core::local::brute_top;
use knn_core::CoreError;
use knn_repro::prelude::*;
use rayon::ThreadPoolBuilder;

fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(f)
}

/// Distance evaluations of [`Counted`] points so far.
static DISTANCES: AtomicU64 = AtomicU64::new(0);

/// A point on the line whose every distance evaluation is counted. Its
/// index is a scan, so one `top` — one cell — costs exactly its shard's
/// length on every path.
#[derive(Debug, Clone)]
struct Counted(u64);

impl Point for Counted {
    fn distance(&self, other: &Self, _metric: Metric) -> Dist {
        DISTANCES.fetch_add(1, Ordering::Relaxed);
        Dist::from_u64(self.0.abs_diff(other.0))
    }
}

impl IndexedPoint for Counted {
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

/// Distance evaluations `f` causes.
fn distances_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = DISTANCES.load(Ordering::Relaxed);
    let out = f();
    (out, DISTANCES.load(Ordering::Relaxed) - before)
}

/// One `top` per (alive machine, attempt) on the sequential path and one per
/// (alive machine, query, attempt) on the batched one, audited or not: the
/// audit's truth is the stage's honest output, not a second computation.
#[test]
fn an_audited_answer_scans_each_cell_once() {
    // Machine 1 lies from round 0. Its 100 points are far from query 50 (the
    // lie is immaterial there: certified on the first attempt) and are the
    // whole neighborhood of query 10_050 (caught, quarantined, re-run on the
    // 200 points of the two honest machines).
    let mut ids = IdAssigner::new(0);
    let shards: Vec<Dataset<Counted>> = [0..100u64, 10_000..10_100, 100..200]
        .into_iter()
        .map(|r| Dataset::from_points(r.map(Counted).collect(), &mut ids))
        .collect();
    for pool in [1, 2] {
        for engine in [Engine::Sync, Engine::Event] {
            let mut cluster: KnnCluster<Counted> = KnnCluster::builder()
                .machines(3)
                .engine(engine)
                .adversary(AdversaryPlan::default().with_lie(1, 0))
                .build();
            cluster.load_shards(shards.clone()).expect("three shards");
            let (near, far) = (Counted(50), Counted(10_050));
            with_pool(pool, || {
                let (answer, scanned) = distances_of(|| cluster.query(&near, 4).expect("query"));
                assert_eq!((answer.attempts, answer.audit.audits_run), (1, 1));
                assert_eq!(scanned, 300, "pool {pool} {engine:?}: one scan per machine");

                let (answer, scanned) = distances_of(|| cluster.query(&far, 4).expect("query"));
                assert_eq!((answer.attempts, answer.audit.audits_run), (2, 2));
                assert_eq!(scanned, 300 + 200, "pool {pool} {engine:?}: per machine and attempt");

                let queries = [near.clone(), far.clone()];
                let (batch, scanned) =
                    distances_of(|| cluster.query_batch(&queries, 4).expect("batch"));
                assert_eq!((batch.attempts, batch.audit.audits_run), (2, 3));
                assert_eq!(
                    scanned,
                    2 * 300 + 200,
                    "pool {pool} {engine:?}: per machine, pending query and attempt"
                );
            });
        }
    }
}

/// `Metric::Minkowski(0.5)` trips an assertion inside `Point::distance`, so
/// every candidate producer panics. That must come back as the engines'
/// typed error — machine 0, the lowest alive machine whose cell panicked —
/// and leave the process able to answer the next query.
#[test]
fn a_panicking_metric_is_a_typed_error_on_every_path() {
    let data = || {
        let points = GaussianMixture { dims: 3, clusters: 2, spread: 0.5, range: 4.0 };
        Dataset::from_labeled(points.generate(400, 7), &mut IdAssigner::new(7))
    };
    let cluster_with = |metric, engine| {
        let mut cluster: KnnCluster<VecPoint> =
            KnnCluster::builder().machines(4).metric(metric).engine(engine).build();
        cluster.load(data(), PartitionStrategy::RoundRobin);
        cluster
    };
    let q = VecPoint::new(vec![0.5, -0.25, 1.0]);
    let queries = vec![q.clone(); 5];
    for pool in [1, 2] {
        for engine in [Engine::Sync, Engine::Event] {
            with_pool(pool, || {
                let broken = cluster_with(Metric::Minkowski(0.5), engine);
                let errors = [
                    ("query", broken.query(&q, 6).err()),
                    ("query_approx", broken.query_approx(&q, 6).err()),
                    ("query_batch", broken.query_batch(&queries, 6).err()),
                    ("query_batch_approx", broken.query_batch_approx(&queries, 6).err()),
                ];
                for (path, err) in errors {
                    assert_eq!(
                        err,
                        Some(CoreError::Engine(EngineError::WorkerPanic { machine: 0 })),
                        "{path}, pool {pool}, {engine:?}"
                    );
                }
                let sound = cluster_with(Metric::Euclidean, engine);
                assert_eq!(sound.query(&q, 6).expect("query").neighbors.len(), 6);
                assert_eq!(sound.query_batch(&queries, 6).expect("batch").answers.len(), 5);
            });
        }
    }
}

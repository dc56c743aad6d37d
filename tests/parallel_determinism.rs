//! Determinism under real parallelism.
//!
//! The rayon shim runs pipelines on a genuine work-stealing pool, and the
//! workload generators, the cluster load path and the candidate stage ride
//! on it. These tests pin the contract that makes that safe: **pool size is
//! a pure wall-clock knob** — every generated dataset, every query answer,
//! and every engine `RunOutcome` (outputs *and* metrics) is bit-identical
//! at pool sizes 1, 2, and 8.

use kmachine::engine::run_sync;
use kmachine::{
    AdversaryPlan, AuditMetrics, BandwidthMode, Ctx, FaultMetrics, FaultPlan, MuxOutput,
    MuxProtocol, NetConfig, Payload, Protocol, RunMetrics, RunOutcome, Step,
};
use knn_core::cluster::{ClusterBuilder, KnnCluster, Neighbor};
use knn_core::runner::{merge_answers, run_query, Algorithm};
use knn_core::{IndexedPoint, Report};
use knn_points::{BitsPoint, Dataset, DistKey, IdAssigner, Metric, ScalarPoint, VecPoint};
use knn_workloads::{GaussianMixture, PartitionStrategy, ScalarWorkload};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

const POOLS: [usize; 3] = [1, 2, 8];

fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(f)
}

/// Build a scalar cluster and answer one batch + one single query; returns
/// everything observable (answers and aggregate metrics).
#[allow(clippy::type_complexity)]
fn scalar_pipeline(
    seed: u64,
    k: usize,
    ell: usize,
    algo: Algorithm,
) -> (Vec<Vec<Neighbor>>, RunMetrics, Vec<Neighbor>, RunMetrics) {
    let shards = ScalarWorkload::small(512).generate(k, seed);
    let mut cluster: KnnCluster = KnnCluster::builder().machines(k).seed(seed).build();
    cluster.load_shards(shards).expect("shard count");
    let queries: Vec<ScalarPoint> =
        (0..6u64).map(|i| ScalarPoint(seed.wrapping_mul(31).wrapping_add(i * 977))).collect();
    let batch = cluster.query_batch_with(algo, &queries, ell).expect("batch");
    let single = cluster.query_with(algo, &queries[0], ell).expect("single");
    (
        batch.answers.into_iter().map(|a| a.neighbors).collect(),
        batch.report.metrics,
        single.neighbors,
        single.report.metrics,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full serving pipeline — parallel generation, parallel index
    /// build, mux'd batch run — is bit-identical across pool sizes.
    #[test]
    fn prop_pipeline_identical_across_pool_sizes(
        seed in 0u64..1000,
        k in 2usize..6,
        ell in 1usize..24,
    ) {
        for algo in [Algorithm::Simple, Algorithm::Knn] {
            let reference = with_pool(1, || scalar_pipeline(seed, k, ell, algo));
            for pool in POOLS {
                let got = with_pool(pool, || scalar_pipeline(seed, k, ell, algo));
                prop_assert_eq!(
                    &got.0, &reference.0, "batch answers diverged: pool {}, {:?}", pool, algo
                );
                prop_assert_eq!(
                    &got.1, &reference.1, "batch metrics diverged: pool {}, {:?}", pool, algo
                );
                prop_assert_eq!(
                    &got.2, &reference.2, "single answer diverged: pool {}, {:?}", pool, algo
                );
                prop_assert_eq!(
                    &got.3, &reference.3, "single metrics diverged: pool {}, {:?}", pool, algo
                );
            }
        }
    }
}

/// Worker i streams `payload` tagged values toward a rotating target while
/// drawing from its RNG — enough nondeterminism bait (bandwidth contention,
/// multiple instances, random draws) to catch any scheduling leak.
#[derive(Clone)]
struct StreamSum {
    payload: u64,
    acc: u64,
    finished: usize,
}

#[derive(Debug, Clone)]
enum SsMsg {
    Val(u64),
    Last,
    Ack(u64),
}

impl Payload for SsMsg {
    fn size_bits(&self) -> u64 {
        match self {
            SsMsg::Val(_) | SsMsg::Ack(_) => 64,
            SsMsg::Last => 1,
        }
    }
}

impl Protocol for StreamSum {
    type Msg = SsMsg;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut Ctx<'_, SsMsg>) -> Step<u64> {
        use rand::RngExt;
        if ctx.id() != 0 {
            if ctx.round() == 0 {
                for _ in 0..self.payload {
                    let v: u64 = ctx.rng().random_range(0..1_000_000);
                    ctx.send(0, SsMsg::Val(v));
                }
                ctx.send(0, SsMsg::Last);
                return Step::Continue;
            }
            if let Some(&SsMsg::Ack(total)) = ctx.first_from(0) {
                return Step::Done(total);
            }
            return Step::Continue;
        }
        for env in ctx.inbox() {
            match env.msg {
                SsMsg::Val(v) => self.acc += v,
                SsMsg::Last => self.finished += 1,
                SsMsg::Ack(_) => unreachable!("leader never receives an ack"),
            }
        }
        if self.finished == ctx.k() - 1 {
            ctx.broadcast(SsMsg::Ack(self.acc));
            Step::Done(self.acc)
        } else {
            Step::Continue
        }
    }
}

fn mux_run(seed: u64) -> RunOutcome<MuxOutput<u64>> {
    let k = 4;
    let cfg = NetConfig::new(k)
        .with_seed(seed)
        .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 256 });
    let protos: Vec<MuxProtocol<StreamSum>> = (0..k)
        .map(|_| {
            MuxProtocol::new(
                [3u64, 9, 1, 6]
                    .iter()
                    .map(|&p| StreamSum { payload: p, acc: 0, finished: 0 })
                    .collect(),
            )
        })
        .collect();
    run_sync(&cfg, protos).expect("mux run")
}

/// Raw engine-level `RunOutcome` (outputs + metrics) is bit-identical
/// across pool sizes, including per-tag attribution.
#[test]
fn mux_run_outcome_identical_across_pool_sizes() {
    for seed in [1u64, 42, 977] {
        let reference = with_pool(1, || mux_run(seed));
        for pool in POOLS {
            let got = with_pool(pool, || mux_run(seed));
            assert_eq!(got.outputs, reference.outputs, "pool {pool}");
            assert_eq!(got.metrics, reference.metrics, "pool {pool}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Metrics conservation: with skewed payloads contending for enforced
    /// bandwidth, the per-tag message/bit totals of a mux'd run partition
    /// the aggregate `RunMetrics` exactly.
    #[test]
    fn prop_mux_metrics_conserve(
        seed in any::<u64>(),
        k in 2usize..6,
        payloads in proptest::collection::vec(0u64..32, 1..6),
    ) {
        let cfg = NetConfig::new(k)
            .with_seed(seed)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 256 });
        let mk = || {
            (0..k)
                .map(|_| {
                    MuxProtocol::new(
                        payloads
                            .iter()
                            .map(|&p| StreamSum { payload: p, acc: 0, finished: 0 })
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let got = run_sync(&cfg, mk()).expect("mux run");
        // Every message of a mux'd run carries a tag, so the per-tag table
        // is a partition of the aggregate, not just a subset.
        prop_assert_eq!(got.metrics.per_tag.len(), payloads.len());
        let tag_msgs: u64 = got.metrics.per_tag.iter().map(|t| t.messages).sum();
        let tag_bits: u64 = got.metrics.per_tag.iter().map(|t| t.bits).sum();
        prop_assert_eq!(tag_msgs, got.metrics.messages, "per-tag messages must partition");
        prop_assert_eq!(tag_bits, got.metrics.bits, "per-tag bits must partition");
    }
}

/// Vector pipeline (chunked parallel Gaussian generation + parallel k-d
/// tree index build) is pool-size-invariant end to end.
#[test]
fn vector_pipeline_identical_across_pool_sizes() {
    let run = || {
        let gm = GaussianMixture { dims: 3, clusters: 4, spread: 0.4, range: 8.0 };
        let data = gm.generate(600, 11);
        let mut cluster: KnnCluster<VecPoint> = KnnCluster::builder().machines(4).seed(11).build();
        let mut ids = knn_points::IdAssigner::new(11);
        let dataset = knn_points::Dataset::from_labeled(data, &mut ids);
        cluster.load(dataset, knn_workloads::PartitionStrategy::Shuffled);
        let q = VecPoint::new(vec![0.5, -0.25, 1.0]);
        let ans = cluster.query(&q, 9).expect("query");
        (ans.neighbors, ans.report.metrics)
    };
    let reference = with_pool(1, run);
    for pool in POOLS {
        assert_eq!(with_pool(pool, run), reference, "pool {pool}");
    }
}

/// Everything of an answer that must not depend on how it was scheduled.
#[derive(Debug, PartialEq)]
struct Bytes {
    /// Per query: `(key, machine)` ascending, as [`merge_answers`] lays out.
    neighbors: Vec<Vec<(DistKey, usize)>>,
    metrics: RunMetrics,
    audit: AuditMetrics,
    faults: FaultMetrics,
    attempts: u32,
    degraded: bool,
    shards_used: usize,
    leader: usize,
}

impl Bytes {
    fn of<'a>(answers: impl IntoIterator<Item = &'a [Neighbor]>, report: Report) -> Bytes {
        let keyed = |n: &Neighbor| (DistKey::new(n.dist, n.id), n.machine);
        Bytes {
            neighbors: answers.into_iter().map(|ns| ns.iter().map(keyed).collect()).collect(),
            metrics: report.metrics,
            audit: report.audit,
            faults: report.faults,
            attempts: report.attempts,
            degraded: report.degraded,
            shards_used: report.shards_used,
            leader: report.leader,
        }
    }
}

/// One answer per (protocol, call shape): `Algorithm::ALL` and the
/// approximate protocol (`None`), each asked sequentially, as a batch of 1
/// and as a batch of all `queries`; then each exact algorithm once more
/// through the full-scan [`run_query`] over the cluster's own `shards`.
fn every_path<P: IndexedPoint>(
    cluster: &KnnCluster<P>,
    shards: &[Dataset<P>],
    queries: &[P],
    ell: usize,
) -> Vec<Bytes> {
    let kinds = Algorithm::ALL.into_iter().map(Some).chain([None]);
    let served = kinds.flat_map(|kind| {
        let single = match kind {
            Some(algo) => cluster.query_with(algo, &queries[0], ell),
            None => cluster.query_approx(&queries[0], ell),
        }
        .expect("sequential query");
        let batches = [1, queries.len()].map(|m| {
            let batch = match kind {
                Some(algo) => cluster.query_batch_with(algo, &queries[..m], ell),
                None => cluster.query_batch_approx(&queries[..m], ell),
            }
            .expect("batch");
            Bytes::of(batch.answers.iter().map(|a| &a.neighbors[..]), batch.report)
        });
        [Bytes::of([&single.neighbors[..]], single.report)].into_iter().chain(batches)
    });
    let scanned = Algorithm::ALL.map(|algo| {
        let out = run_query(shards, &queries[0], ell, algo, cluster.options()).expect("run_query");
        let neighbors = merge_answers(&out.local_keys);
        Bytes { neighbors: vec![neighbors], ..Bytes::of([], out.report) }
    });
    served.chain(scanned).collect()
}

/// `cluster`, loaded with `shards`, answers every path with the bytes of
/// its pool-1 run at pools 1, 2 and 8 — and on the
/// reference run `shows` the scenario happened, and each exact algorithm's
/// indexed sequential query equals its full scan.
fn assert_invisible<P: IndexedPoint>(
    name: &str,
    builder: ClusterBuilder,
    shards: Vec<Dataset<P>>,
    queries: &[P],
    shows: fn(&Bytes) -> bool,
) {
    let mut cluster: KnnCluster<P> = builder.build();
    cluster.load_shards(shards.clone()).expect("four shards");
    let reference = with_pool(1, || every_path(&cluster, &shards, queries, 12));
    assert!(reference.iter().any(shows), "{name}: the scenario did not happen");
    for (a, _) in Algorithm::ALL.iter().enumerate() {
        assert_eq!(reference[3 * a], reference[15 + a], "{name}: index and scan disagree");
    }
    for pool in POOLS {
        let got = with_pool(pool, || every_path(&cluster, &shards, queries, 12));
        for (path, (got, want)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "{name}: path {path}, pool {pool}");
        }
    }
}

/// The candidate stage is invisible in the bytes: every protocol, asked
/// every way, gives the pool-1 answer — neighbors, `RunMetrics`
/// (per-tag and per-machine tables included), audit, faults, attempts — at
/// pools 1, 2 and 8, and the indexed sequential query gives
/// what the full scan does. The full scans of 25 600 points a shard are
/// priced into the pool up front; sorted-array cells are cheap and stay
/// inline but in the 17-query batches, and at 64 points a shard everything
/// stays inline. Same again with a liar to quarantine, with a machine dead
/// before its round 0, with an empty shard in the layout, and on bit
/// points, whose index is a scan: their indexed cells — sequential ones
/// included — are timed into the pool (batches of 3 there, for time).
#[test]
fn candidate_stage_is_invisible_in_the_bytes() {
    let shards = |per_machine: usize, emptied: Option<usize>| {
        let mut shards = ScalarWorkload::small(per_machine).generate(4, 23);
        if let Some(m) = emptied {
            shards[m] = Dataset::new(Vec::new());
        }
        shards
    };
    let queries: Vec<ScalarPoint> =
        (0..17u64).map(|i| ScalarPoint(i.wrapping_mul(0x9E37_79B9) % (1 << 32))).collect();
    let healthy = KnnCluster::builder().machines(4).seed(23);
    let liar = healthy.clone().adversary(AdversaryPlan::default().with_lie(1, 0));
    let dead = healthy.clone().faults(FaultPlan::default().with_crash(2, 0));
    // Per scenario: what some path of the reference run must show, so that
    // the scenario is the one its name says.
    type Shows = fn(&Bytes) -> bool;
    let clean: Shows = |b| b.attempts == 1 && !b.degraded;
    let scenarios: [(_, _, _, Shows); 5] = [
        ("healthy", healthy.clone(), shards(25_600, None), clean),
        ("inline", healthy.clone(), shards(64, None), clean),
        ("liar", liar, shards(25_600, None), |b| b.audit.suspects_quarantined == 1),
        ("dead before round 0", dead, shards(25_600, None), |b| b.attempts == 2 && b.degraded),
        // Three shards to scan, so larger ones for the same stage.
        ("empty shard", healthy.clone(), shards(34_200, Some(3)), clean),
    ];
    for (name, builder, shards, shows) in scenarios {
        assert_invisible(name, builder, shards, &queries, shows);
    }
    // A bit-point shard's index is a scan: 8 192 points of two words cost
    // ≈ 0.1 ms a cell in release and ≈ 0.9 ms in the test profile (2 vCPUs),
    // so even a sequential query's four cells are timed into the pool.
    let word = |i: u64| BitsPoint::new(vec![i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i >> 3]);
    let mut ids = IdAssigner::new(23);
    let bits = Dataset::from_points((0..4 * 8_192).map(word).collect(), &mut ids);
    let bits = PartitionStrategy::RoundRobin.split(bits.records, 4, 23);
    let queries: Vec<BitsPoint> = (0..3).map(|i| word(i * 7_919 + 1)).collect();
    let bits = bits.into_iter().map(Dataset::new).collect();
    assert_invisible("bit points", healthy.metric(Metric::Hamming), bits, &queries, clean);
}

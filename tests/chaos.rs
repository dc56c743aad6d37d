//! Chaos suite: deterministic fault injection through the serving stack.
//!
//! The [`kmachine::FaultPlan`] injectors are *seeded, not sampled*: the
//! same plan produces the same drops, the same crash observations, and
//! the same recovery path at every pool size. That turns fault testing
//! into a metamorphic game — a faulty run either equals its fault-free
//! reference byte-for-byte (a healed rejoin), or degrades along an exactly
//! reproducible path (crashes: re-election, surviving-shard answers,
//! `degraded` flags), or fails with a typed error (lossy links past the
//! retry budget) — never a hang, never a silently wrong answer.
//!
//! One test also writes `results/chaos_metrics.json`, the artifact the CI
//! chaos leg uploads.

use kmachine::error::EngineError;
use kmachine::{AdversaryPlan, FaultPlan, RecoveryPlan};
use knn_core::cluster::{BatchAnswer, ClusterBuilder, KnnAnswer, KnnCluster, Neighbor};
use knn_core::error::CoreError;
use knn_core::runner::{run_query, Algorithm, ElectionKind, RetryPolicy};
use knn_core::IndexBackend;
use knn_points::{Dataset, IdAssigner, Record, ScalarPoint};
use knn_workloads::ScalarWorkload;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(f)
}

/// A loaded cluster over the standard scalar workload: Fixed election
/// (leader is machine 0 until a crash forces a re-election), seeded
/// shards, the given fault plan.
fn cluster(k: usize, seed: u64, faults: FaultPlan) -> KnnCluster {
    let shards = ScalarWorkload::small(512).generate(k, seed);
    let mut cluster: KnnCluster = KnnCluster::builder()
        .machines(k)
        .seed(seed)
        .election(ElectionKind::Fixed)
        .faults(faults)
        .build();
    cluster.load_shards(shards).expect("shard count");
    cluster
}

/// A loaded cluster scheduled to self-heal: no fail-stop faults, but a
/// crash-then-rejoin recovery plan (healed by re-running the query).
fn healing_cluster(k: usize, seed: u64, recovery: RecoveryPlan) -> KnnCluster {
    let shards = ScalarWorkload::small(512).generate(k, seed);
    let mut cluster: KnnCluster = KnnCluster::builder()
        .machines(k)
        .seed(seed)
        .election(ElectionKind::Fixed)
        .recovery(recovery)
        .build();
    cluster.load_shards(shards).expect("shard count");
    cluster
}

fn queries(seed: u64, n: u64) -> Vec<ScalarPoint> {
    (0..n).map(|i| ScalarPoint(seed.wrapping_mul(127).wrapping_add(i * 811))).collect()
}

/// Neighbor lists reduced to what must survive a shard-count change:
/// point ids and distances (machine ids are shard-local labels and
/// legitimately differ between a k-cluster and its survivor sub-cluster).
fn ids_and_dists(neighbors: &[Neighbor]) -> Vec<(knn_points::PointId, knn_points::Dist)> {
    neighbors.iter().map(|n| (n.id, n.dist)).collect()
}

/// A crashed leader is survivable: the query layer re-elects over the
/// survivors, re-runs fault-free, and flags the answer as degraded with
/// the surviving shard count — for **every** algorithm. The degraded
/// answer equals what a fault-free cluster of just the survivors says.
#[test]
fn leader_crash_re_elects_and_degrades_for_every_algorithm() {
    let (seed, k, ell) = (17u64, 5usize, 7usize);
    let q = ScalarPoint(seed.wrapping_mul(127));
    let shards = ScalarWorkload::small(512).generate(k, seed);
    // The fault-free reference: the surviving four shards as their own
    // cluster (machine ids shift by one; ids and distances must match).
    let mut survivors: KnnCluster =
        KnnCluster::builder().machines(k - 1).seed(seed).election(ElectionKind::Fixed).build();
    survivors.load_shards(shards[1..].to_vec()).expect("shard count");
    for algo in Algorithm::ALL {
        let crashed = cluster(k, seed, FaultPlan::default().with_crash(0, 0));
        let ans = crashed.query_with(algo, &q, ell).expect("crash must be survivable");
        assert!(ans.degraded, "{algo:?}: answers over survivors must be flagged");
        assert_eq!(ans.shards_used, k - 1, "{algo:?}");
        assert_ne!(ans.leader, 0, "{algo:?}: the dead leader cannot coordinate");
        assert!(
            ans.neighbors.iter().all(|n| n.machine != 0),
            "{algo:?}: no candidates from the crashed shard"
        );
        let want = survivors.query_with(algo, &q, ell).expect("survivor reference");
        assert_eq!(
            ids_and_dists(&ans.neighbors),
            ids_and_dists(&want.neighbors),
            "{algo:?}: degraded answer must equal the survivors' fault-free answer"
        );
    }
}

/// The batched path recovers the same way: one crashed leader, one
/// re-election, every per-query answer flagged and correct.
#[test]
fn batched_queries_survive_a_leader_crash() {
    let (seed, k, ell) = (29u64, 5usize, 6usize);
    let qs = queries(seed, 4);
    let crashed = cluster(k, seed, FaultPlan::default().with_crash(0, 0));
    let batch = crashed.query_batch_with(Algorithm::Knn, &qs, ell).expect("batch recovery");
    assert!(batch.degraded);
    assert_eq!(batch.shards_used, k - 1);
    assert_ne!(batch.leader, 0);
    let mut survivors: KnnCluster =
        KnnCluster::builder().machines(k - 1).seed(seed).election(ElectionKind::Fixed).build();
    let shards = ScalarWorkload::small(512).generate(k, seed);
    survivors.load_shards(shards[1..].to_vec()).expect("shard count");
    let want = survivors.query_batch_with(Algorithm::Knn, &qs, ell).expect("survivor batch");
    for (got, want) in batch.answers.iter().zip(&want.answers) {
        assert!(got.degraded, "per-query answers carry the flag");
        assert_eq!(got.shards_used, k - 1);
        assert_eq!(ids_and_dists(&got.neighbors), ids_and_dists(&want.neighbors));
    }
}

/// A crashed *worker* under the Simple protocol is written off inside the
/// run — the leader observes the crash via `Ctx::crashed`, completes with
/// the surviving censuses, and no retry happens (the realized faults of
/// the answering run still list the dead machine).
#[test]
fn worker_crash_under_simple_is_salvaged_in_run() {
    let (seed, k, ell) = (31u64, 4usize, 6usize);
    let q = ScalarPoint(seed.wrapping_mul(127));
    let crashed = cluster(k, seed, FaultPlan::default().with_crash(2, 0));
    let ans = crashed.query_with(Algorithm::Simple, &q, ell).expect("salvage");
    assert!(ans.degraded);
    assert_eq!(ans.shards_used, k - 1);
    assert_eq!(ans.leader, 0, "the leader survived; no re-election");
    assert_eq!(ans.faults.crashed, vec![2], "the write-off happened inside the run");
    assert!(ans.neighbors.iter().all(|n| n.machine != 2));
}

/// A link whose loss outlives the retry budget is a **typed error**, not
/// a hang and not a panic: total loss with a two-shot budget surfaces
/// `EngineError::LinkDown` through the serving layer.
#[test]
fn exhausted_retries_surface_a_typed_link_down() {
    let (seed, k, ell) = (41u64, 3usize, 5usize);
    let q = ScalarPoint(seed.wrapping_mul(127));
    let lossy = cluster(k, seed, FaultPlan::default().with_loss(1000, 2).with_fault_seed(7));
    match lossy.query_with(Algorithm::Knn, &q, ell) {
        Err(CoreError::Engine(EngineError::LinkDown { retries, .. })) => {
            assert_eq!(retries, 2, "the error reports the exhausted budget");
        }
        other => panic!("total loss must be a typed LinkDown, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Determinism under fire: the same seed and the same fault plan —
    /// survivable link loss — produce byte-identical answers, metrics,
    /// **and realized faults** (drop and retransmission counts included)
    /// at every pool size.
    #[test]
    fn prop_faulty_runs_are_engine_invariant(
        seed in 0u64..500,
        loss in 0u16..150,
        fault_seed in 0u64..1000,
    ) {
        let (k, ell) = (4usize, 6usize);
        let qs = queries(seed, 3);
        let plan = FaultPlan::default().with_loss(loss, 64).with_fault_seed(fault_seed);
        let want = with_pool(1, || {
            let c = cluster(k, seed, plan.clone());
            c.query_batch_with(Algorithm::Knn, &qs, ell).expect("chaos run at pool 1")
        });
        for pool in [2usize, 8] {
            let got = with_pool(pool, || {
                let c = cluster(k, seed, plan.clone());
                c.query_batch_with(Algorithm::Knn, &qs, ell).expect("chaos run")
            });
            for (g, w) in got.answers.iter().zip(&want.answers) {
                prop_assert_eq!(&g.neighbors, &w.neighbors, "pool {}", pool);
            }
            prop_assert_eq!(&got.metrics, &want.metrics, "pool {}", pool);
            prop_assert_eq!(&got.faults, &want.faults,
                "realized faults must be pool-invariant: pool {}", pool);
            prop_assert_eq!(got.degraded, want.degraded);
            prop_assert_eq!(got.shards_used, want.shards_used);
        }
    }

    /// Crash recovery is deterministic too: the same crash plan takes the
    /// same re-election path and yields the same degraded answers at every
    /// pool size.
    #[test]
    fn prop_crash_recovery_is_engine_invariant(
        seed in 0u64..500,
        victim in 0usize..4,
    ) {
        let (k, ell) = (4usize, 6usize);
        let qs = queries(seed, 2);
        let plan = FaultPlan::default().with_crash(victim, 0);
        let want = with_pool(1, || {
            let c = cluster(k, seed, plan.clone());
            c.query_batch_with(Algorithm::Knn, &qs, ell).expect("crash run at pool 1")
        });
        prop_assert!(want.degraded);
        prop_assert_eq!(want.shards_used, k - 1);
        let got = with_pool(8, || {
            let c = cluster(k, seed, plan.clone());
            c.query_batch_with(Algorithm::Knn, &qs, ell).expect("crash run")
        });
        for (g, w) in got.answers.iter().zip(&want.answers) {
            prop_assert_eq!(&g.neighbors, &w.neighbors);
        }
        prop_assert_eq!(&got.metrics, &want.metrics);
        prop_assert_eq!(got.leader, want.leader, "same re-election path");
        prop_assert_eq!(got.degraded, want.degraded);
        prop_assert_eq!(got.shards_used, want.shards_used);
    }
}

/// An empty shard is not a fault: the cluster loads it, the protocols
/// handle it (the BinSearch census writes it off as permanently quiet),
/// and answers come back undegraded.
#[test]
fn empty_shards_are_healthy_not_degraded() {
    let (seed, k, ell) = (53u64, 4usize, 5usize);
    let mut shards = ScalarWorkload::small(512).generate(k, seed);
    shards[2] = Dataset::new(Vec::new());
    let mut c: KnnCluster =
        KnnCluster::builder().machines(k).seed(seed).election(ElectionKind::Fixed).build();
    c.load_shards(shards).expect("shard count");
    for algo in Algorithm::ALL {
        let ans = c.query_with(algo, &ScalarPoint(1234), ell).expect("empty shard");
        assert!(!ans.degraded, "{algo:?}: empty is healthy");
        assert_eq!(ans.shards_used, k, "{algo:?}");
        assert_eq!(ans.neighbors.len(), ell, "{algo:?}: the other shards fill the answer");
    }
}

/// Every query kind: the four exact algorithms, then the approximate query.
const KINDS: [Option<Algorithm>; 5] = [
    Some(Algorithm::Knn),
    Some(Algorithm::Simple),
    Some(Algorithm::SaukasSong),
    Some(Algorithm::BinSearch),
    None,
];

/// `kind`'s batch over `qs` (`None`: the approximate batch).
fn batch_of(
    c: &KnnCluster,
    kind: Option<Algorithm>,
    qs: &[ScalarPoint],
    ell: usize,
) -> BatchAnswer {
    match kind {
        Some(algo) => c.query_batch_with(algo, qs, ell),
        None => c.query_batch_approx(qs, ell),
    }
    .expect("batch")
}

/// `kind`'s single query (`None`: the approximate query).
fn query_of(c: &KnnCluster, kind: Option<Algorithm>, q: &ScalarPoint, ell: usize) -> KnnAnswer {
    match kind {
        Some(algo) => c.query_with(algo, q, ell),
        None => c.query_approx(q, ell),
    }
    .expect("query")
}

/// Crash-then-rejoin is **invisible to the answer** for every query kind,
/// single or batched, at every pool size: the machine that went dark is
/// back for the query's re-run, so the answer and its costs are the
/// fault-free run's — `degraded` clear, every shard used, no realized
/// crash — and the rejoin shows only in `attempts` and `recovery`.
#[test]
fn rejoin_heals_every_query_kind() {
    let (seed, k, ell) = (67u64, 4usize, 6usize);
    let qs = queries(seed, 4);
    let plan = RecoveryPlan::default().with_rejoin(2, 2, 5);
    for kind in KINDS {
        let (want, want_one) = with_pool(1, || {
            let c = cluster(k, seed, FaultPlan::default());
            (batch_of(&c, kind, &qs, ell), query_of(&c, kind, &qs[0], ell))
        });
        assert!(!want.recovered);
        for pool in [1usize, 8] {
            let (got, got_one) = with_pool(pool, || {
                let c = healing_cluster(k, seed, plan.clone());
                (batch_of(&c, kind, &qs, ell), query_of(&c, kind, &qs[0], ell))
            });
            let single = got_one.report.clone();
            let runs =
                [(&got.report, &want.report, "batch"), (&single, &want_one.report, "single")];
            for (g, w, shape) in runs {
                let label = format!("{kind:?} {shape} pool {pool}");
                assert_eq!(g.metrics, w.metrics, "rejoin changed the metrics: {label}");
                assert!(!g.degraded, "the rejoined shard serves; nothing is degraded: {label}");
                assert_eq!(g.shards_used, k, "{label}");
                assert!(g.faults.crashed.is_empty(), "the answering run had no crash: {label}");
                assert_eq!(g.attempts, 2, "the crashed run, then the re-run: {label}");
                assert!(g.recovered, "{label}");
                assert_eq!(g.recovery.rejoined, vec![2], "{label}");
                assert_eq!(g.recovery.checkpoint_bytes, 0, "{label}");
            }
            assert_eq!(got_one.neighbors, want_one.neighbors, "{kind:?} single pool {pool}");
            for (g, w) in got.answers.iter().zip(&want.answers) {
                assert_eq!(g.neighbors, w.neighbors, "rejoin changed an answer: {kind:?}");
                assert_eq!(g.contains_exact, w.contains_exact, "{kind:?}");
            }
        }
    }
}

/// The same crash **without** a rejoin plan degrades the answer; with the
/// plan, the identical crash round heals. This is the self-healing
/// contract in one contrast, on the single-query path.
#[test]
fn rejoin_clears_the_degraded_flag_a_bare_crash_sets() {
    let (seed, k, ell) = (71u64, 4usize, 6usize);
    let q = ScalarPoint(seed.wrapping_mul(127));
    let clean = cluster(k, seed, FaultPlan::default());
    let want = clean.query_with(Algorithm::BinSearch, &q, ell).expect("fault-free reference");
    let bare = cluster(k, seed, FaultPlan::default().with_crash(2, 2));
    let degraded = bare.query_with(Algorithm::BinSearch, &q, ell).expect("survivor retry");
    assert!(degraded.degraded, "an unhealed crash degrades the answer");
    assert_eq!(degraded.shards_used, k - 1);
    assert!(degraded.recovered, "the survivor retry is recovery work");
    assert!(degraded.attempts > 1);
    let healing = healing_cluster(k, seed, RecoveryPlan::default().with_rejoin(2, 2, 5));
    let healed = healing.query_with(Algorithm::BinSearch, &q, ell).expect("healed query");
    assert!(!healed.degraded, "the rejoined shard clears the flag");
    assert_eq!(healed.shards_used, k);
    assert!(healed.recovered);
    assert_eq!(healed.attempts, 2);
    assert_eq!(healed.recovery.rejoined, vec![2]);
    assert_eq!(healed.neighbors, want.neighbors, "healed answer is byte-identical");
    assert_eq!(healed.metrics, want.metrics, "the answering run is the fault-free run");
}

/// Four value ranges: machine `i` holds `100i..100i+100`.
fn range_shards() -> Vec<Dataset<ScalarPoint>> {
    let mut ids = IdAssigner::new(0);
    (0..4u64)
        .map(|i| {
            Dataset::from_points((i * 100..i * 100 + 100).map(ScalarPoint).collect(), &mut ids)
        })
        .collect()
}

/// A cluster over [`range_shards`], so a query can be aimed at one
/// machine's points.
fn range_cluster(builder: ClusterBuilder) -> KnnCluster {
    let mut cluster: KnnCluster = builder.machines(4).seed(5).election(ElectionKind::Fixed).build();
    cluster.load_shards(range_shards()).expect("shard count");
    cluster
}

/// What each entry point that reaches the engine says to a
/// [`range_cluster`] built from `builder`: the sequential, batched and
/// approximate queries, and the shards-only `run_query` under the same
/// options.
fn every_entry(builder: ClusterBuilder) -> Vec<(&'static str, Result<(), CoreError>)> {
    let c = range_cluster(builder);
    let (q, ell) = (ScalarPoint(150), 5);
    vec![
        ("query", c.query(&q, ell).map(drop)),
        ("query_batch", c.query_batch(&[q, ScalarPoint(250)], ell).map(drop)),
        ("query_approx", c.query_approx(&q, ell).map(drop)),
        ("run_query", run_query(&range_shards(), &q, ell, Algorithm::Knn, c.options()).map(drop)),
    ]
}

/// A zero bandwidth, or a fault or adversary plan entry for a machine
/// outside the cluster, is refused as a typed `InvalidPlan` by every entry
/// point. The first used to panic inside the engine. The others were
/// dropped by the projection of the plans onto each attempt's survivors,
/// which answered as if nobody crashed or lied.
#[test]
fn invalid_configs_are_refused_by_every_entry_point() {
    let builders = [
        KnnCluster::builder().bandwidth_bits(0),
        KnnCluster::builder().adversary(AdversaryPlan::default().with_lie(9, 0)),
        KnnCluster::builder().adversary(AdversaryPlan::default().with_equivocate(9)),
        KnnCluster::builder().adversary(AdversaryPlan::default().with_corrupt_link(1, 9, 10)),
        KnnCluster::builder().faults(FaultPlan::default().with_crash(9, 1)),
    ];
    for (case, builder) in builders.into_iter().enumerate() {
        for (entry, got) in every_entry(builder) {
            assert!(
                matches!(got, Err(CoreError::Engine(EngineError::InvalidPlan { .. }))),
                "case {case}, {entry}: {got:?}"
            );
        }
    }
}

/// The edges of healing by restart: a one-machine cluster, a rejoining
/// leader (kept, no re-election), a crash at round 0 (Simple salvages an
/// empty claim there, which completes the run without the shard; no answer
/// is kept from it), and two rejoiners at different rounds (one re-run
/// each).
#[test]
fn rejoin_edge_cases_heal() {
    let (seed, ell) = (41u64, 6usize);
    let q = ScalarPoint(seed.wrapping_mul(127));
    for algo in Algorithm::ALL {
        // k = 1: the only machine is waited for, not given up on.
        let want = cluster(1, seed, FaultPlan::default()).query_with(algo, &q, ell).unwrap();
        let got = healing_cluster(1, seed, RecoveryPlan::default().with_rejoin(0, 0, 2))
            .query_with(algo, &q, ell)
            .expect("k = 1 heals");
        assert_eq!(got.neighbors, want.neighbors, "{algo:?} k = 1");
        assert_eq!((got.attempts, got.recovery.rejoined.clone()), (2, vec![0]), "{algo:?}");
        assert!(!got.degraded, "{algo:?} k = 1");

        let k = 4;
        let clean = cluster(k, seed, FaultPlan::default());
        let want = clean.query_with(algo, &q, ell).unwrap();
        // The leader rejoins: it keeps the lead, nobody is re-elected.
        let got = healing_cluster(k, seed, RecoveryPlan::default().with_rejoin(0, 1, 4))
            .query_with(algo, &q, ell)
            .expect("leader rejoin heals");
        // A re-election over machines 1..k would have picked machine 1.
        assert_eq!(got.leader, 0, "{algo:?}: a rejoining leader keeps the lead");
        assert_eq!(got.neighbors, want.neighbors, "{algo:?} leader");
        assert_eq!(got.metrics, want.metrics, "{algo:?} leader");
        assert_eq!(got.recovery.rejoined, vec![0], "{algo:?}");
        // Crash round 0: the machine never runs, whatever it salvages.
        let got = healing_cluster(k, seed, RecoveryPlan::default().with_rejoin(2, 0, 3))
            .query_with(algo, &q, ell)
            .expect("round-0 rejoin heals");
        assert_eq!(got.neighbors, want.neighbors, "{algo:?} round 0");
        assert_eq!(got.metrics, want.metrics, "{algo:?} round 0");
        assert_eq!((got.attempts, got.shards_used), (2, k), "{algo:?} round 0");
        assert!(!got.degraded, "{algo:?} round 0");
        // Two rejoiners: each unmultiplexed run stops at the first dead
        // machine, so each rejoin costs a re-run of its own.
        let two = RecoveryPlan::default().with_rejoin(1, 1, 3).with_rejoin(2, 3, 6);
        let got = healing_cluster(k, seed, two).query_with(algo, &q, ell).expect("two rejoins");
        assert_eq!(got.neighbors, want.neighbors, "{algo:?} two rejoiners");
        assert_eq!((got.attempts, got.recovery.rejoined.clone()), (3, vec![1, 2]), "{algo:?}");
    }
}

/// A rejoin is charged to the retry policy like any re-run, and waits for
/// the machine: a budget of one attempt, or a round deadline below the
/// rejoin round, is a typed [`CoreError::DeadlineExceeded`].
#[test]
fn rejoin_is_charged_to_the_retry_policy() {
    let (seed, k, ell) = (43u64, 4usize, 6usize);
    let q = ScalarPoint(seed.wrapping_mul(127));
    let plan = RecoveryPlan::default().with_rejoin(2, 1, 40);
    let build = |retry: RetryPolicy| {
        let shards = ScalarWorkload::small(512).generate(k, seed);
        let mut c: KnnCluster = KnnCluster::builder()
            .machines(k)
            .seed(seed)
            .election(ElectionKind::Fixed)
            .recovery(plan.clone())
            .retry(retry)
            .build();
        c.load_shards(shards).expect("shard count");
        c
    };
    let err =
        build(RetryPolicy { max_attempts: 1, ..Default::default() }).query(&q, ell).unwrap_err();
    assert!(matches!(err, CoreError::DeadlineExceeded { attempts: 1, .. }), "{err:?}");
    let err = build(RetryPolicy { deadline_rounds: 39, ..Default::default() })
        .query(&q, ell)
        .unwrap_err();
    assert!(
        matches!(err, CoreError::DeadlineExceeded { spent_rounds, .. } if spent_rounds >= 40),
        "the retry waits out the rejoin round: {err:?}"
    );
    let ok = build(RetryPolicy { deadline_rounds: 40, ..Default::default() }).query(&q, ell);
    assert_eq!(ok.expect("a deadline at the rejoin round suffices").attempts, 2);
}

/// A machine that crashes before its rejoin and also lies rejoins for the
/// next run, is caught lying there, and is quarantined: the answer is the
/// honest survivors', and the machine is not reported rejoined.
#[test]
fn a_lying_rejoiner_is_quarantined() {
    let q = ScalarPoint(250);
    let liar = range_cluster(
        KnnCluster::builder()
            .adversary(AdversaryPlan::default().with_lie(2, 0))
            .recovery(RecoveryPlan::default().with_rejoin(2, 2, 5)),
    );
    let got = liar.query_with(Algorithm::Knn, &q, 6).expect("quarantine");
    assert_eq!(got.audit.suspects_quarantined, 1);
    assert!(got.recovery.rejoined.is_empty(), "a quarantined machine is not rejoined");
    assert!(got.degraded);
    assert_eq!(got.shards_used, 3);
    assert!(got.neighbors.iter().all(|n| n.machine != 2), "the liar contributes nothing");
    let honest = range_cluster(KnnCluster::builder().faults(FaultPlan::default().with_crash(2, 0)));
    let want = honest.query_with(Algorithm::Knn, &q, 6).expect("survivor reference");
    assert_eq!(ids_and_dists(&got.neighbors), ids_and_dists(&want.neighbors));
}

/// A representative self-healing run — crash, wait for the rejoin, re-run —
/// written to `results/recovery_metrics.json` for the CI chaos leg's
/// artifact upload.
#[test]
fn recovery_metrics_artifact() {
    let (seed, k, ell) = (73u64, 5usize, 6usize);
    let qs = queries(seed, 4);
    let batch = with_pool(4, || {
        let c = healing_cluster(k, seed, RecoveryPlan::default().with_rejoin(1, 2, 6));
        c.query_batch_with(Algorithm::Simple, &qs, ell).expect("healing batch")
    });
    assert!(batch.recovered, "the artifact must witness actual recovery work");
    assert!(!batch.degraded);
    assert_eq!(batch.attempts, 2);
    assert_eq!(batch.recovery.rejoined, vec![1]);
    std::fs::create_dir_all("results").expect("results dir");
    let json = serde_json::to_string_pretty(&batch).expect("serialize");
    std::fs::write("results/recovery_metrics.json", json).expect("write artifact");
}

/// A loaded cluster under a Byzantine adversary plan, optionally compounded
/// with fail-stop faults and a recovery plan.
fn byzantine_cluster(
    k: usize,
    seed: u64,
    adversary: AdversaryPlan,
    faults: FaultPlan,
    recovery: RecoveryPlan,
) -> KnnCluster {
    let shards = ScalarWorkload::small(512).generate(k, seed);
    let mut cluster: KnnCluster = KnnCluster::builder()
        .machines(k)
        .seed(seed)
        .election(ElectionKind::Fixed)
        .adversary(adversary)
        .faults(faults)
        .recovery(recovery)
        .build();
    cluster.load_shards(shards).expect("shard count");
    cluster
}

/// Byzantine detection, quarantine, and the certified answer are
/// pool-invariant: the same lie is fabricated, caught, and recovered from
/// identically at every pool size — audits, violations, and quarantine
/// counts included.
#[test]
fn byzantine_recovery_is_engine_and_pool_invariant() {
    let (seed, k, ell) = (83u64, 4usize, 8usize);
    let qs = queries(seed, 4);
    let plan = AdversaryPlan::default().with_lie(1, 0);
    let want = with_pool(1, || {
        let c =
            byzantine_cluster(k, seed, plan.clone(), FaultPlan::default(), RecoveryPlan::default());
        c.query_batch_with(Algorithm::Knn, &qs, ell).expect("byzantine batch")
    });
    assert_eq!(want.audit.suspects_quarantined, 1, "the liar must be caught");
    assert!(want.audit.audits_run > 0);
    assert!(want.degraded, "the quarantined shard degrades the batch");
    for pool in [2usize, 8] {
        let got = with_pool(pool, || {
            let c = byzantine_cluster(
                k,
                seed,
                plan.clone(),
                FaultPlan::default(),
                RecoveryPlan::default(),
            );
            c.query_batch_with(Algorithm::Knn, &qs, ell).expect("byzantine batch")
        });
        let label = format!("pool {pool}");
        for (g, w) in got.answers.iter().zip(&want.answers) {
            assert_eq!(g.neighbors, w.neighbors, "byzantine answers diverged: {label}");
            assert_eq!(g.attempts, w.attempts, "{label}");
        }
        assert_eq!(got.metrics, want.metrics, "{label}");
        assert_eq!(got.audit, want.audit, "audit metrics diverged: {label}");
        assert_eq!(got.degraded, want.degraded, "{label}");
        assert_eq!(got.shards_used, want.shards_used, "{label}");
    }
}

/// Compound faults: survivable link loss **and** a crash-then-rejoin
/// together. The rejoin heals by a re-run, the loss retransmits, and the
/// whole thing stays byte-identical across pool sizes.
#[test]
fn loss_plus_rejoin_compound_is_engine_and_pool_invariant() {
    let (seed, k, ell) = (89u64, 4usize, 6usize);
    let qs = queries(seed, 4);
    let faults = FaultPlan::default().with_loss(40, 16).with_fault_seed(13);
    let recovery = RecoveryPlan::default().with_rejoin(2, 2, 5);
    let want = with_pool(1, || {
        let c =
            byzantine_cluster(k, seed, AdversaryPlan::default(), faults.clone(), recovery.clone());
        c.query_batch_with(Algorithm::Simple, &qs, ell).expect("compound batch")
    });
    assert!(want.recovered, "the rejoin is recovery work");
    assert!(!want.degraded, "the healed shard serves");
    assert_eq!(want.attempts, 2);
    assert_eq!(want.recovery.rejoined, vec![2]);
    assert!(want.faults.dropped_messages > 0, "the loss process must actually bite");
    for pool in [2usize, 8] {
        let got = with_pool(pool, || {
            let c = byzantine_cluster(
                k,
                seed,
                AdversaryPlan::default(),
                faults.clone(),
                recovery.clone(),
            );
            c.query_batch_with(Algorithm::Simple, &qs, ell).expect("compound batch")
        });
        let label = format!("pool {pool}");
        for (g, w) in got.answers.iter().zip(&want.answers) {
            assert_eq!(g.neighbors, w.neighbors, "compound answers diverged: {label}");
        }
        assert_eq!(got.metrics, want.metrics, "{label}");
        assert_eq!(got.faults, want.faults, "realized faults diverged: {label}");
        assert_eq!(got.attempts, want.attempts, "{label}");
        assert_eq!(got.recovery, want.recovery, "{label}");
    }
}

/// An adversary lying while another machine is down for a rejoin: the
/// rejoiner heals, the liar is caught and quarantined, and the certified
/// answer equals the honest survivors' — identically at every pool size.
#[test]
fn lie_during_a_rejoin_is_caught_and_invariant() {
    let (seed, k, ell) = (97u64, 4usize, 6usize);
    let qs = queries(seed, 3);
    let adversary = AdversaryPlan::default().with_lie(1, 0);
    let recovery = RecoveryPlan::default().with_rejoin(2, 2, 5);
    let want = with_pool(1, || {
        let c =
            byzantine_cluster(k, seed, adversary.clone(), FaultPlan::default(), recovery.clone());
        c.query_batch_with(Algorithm::Simple, &qs, ell).expect("lie-during-rejoin batch")
    });
    assert_eq!(want.audit.suspects_quarantined, 1, "the liar must be caught");
    assert_eq!(want.recovery.rejoined, vec![2], "the rejoiner serves the answer");
    // Honest reference: the survivors (everyone but the liar), fault-free.
    let shards = ScalarWorkload::small(512).generate(k, seed);
    let mut honest: KnnCluster =
        KnnCluster::builder().machines(k - 1).seed(seed).election(ElectionKind::Fixed).build();
    let survivors: Vec<Dataset<ScalarPoint>> =
        shards.iter().enumerate().filter(|&(i, _)| i != 1).map(|(_, d)| d.clone()).collect();
    honest.load_shards(survivors).expect("shard count");
    let reference = honest.query_batch_with(Algorithm::Simple, &qs, ell).expect("honest reference");
    for (g, w) in want.answers.iter().zip(&reference.answers) {
        assert_eq!(
            ids_and_dists(&g.neighbors),
            ids_and_dists(&w.neighbors),
            "the certified answer must equal the honest survivors'"
        );
    }
    let got = with_pool(8, || {
        let c =
            byzantine_cluster(k, seed, adversary.clone(), FaultPlan::default(), recovery.clone());
        c.query_batch_with(Algorithm::Simple, &qs, ell).expect("lie-during-rejoin batch")
    });
    for (g, w) in got.answers.iter().zip(&want.answers) {
        assert_eq!(g.neighbors, w.neighbors, "pool 8");
    }
    assert_eq!(got.audit, want.audit, "pool 8");
}

/// A Byzantine cluster whose shards were **mutated by live inserts** after
/// load: the semantic audit recomputes shard-local truth from the mutated
/// shards (through the same [`knn_core::ShardIndex`] the honest machines
/// answer from), so the liar is still caught and quarantined, and the
/// certified answer equals the honest survivors' — with the surviving
/// machines' inserts included — identically at every pool size, on both
/// backends.
#[test]
fn audit_after_live_inserts_still_catches_the_liar() {
    let (seed, k, ell) = (101u64, 4usize, 8usize);
    let qs = queries(seed, 3);
    for backend in [IndexBackend::Exact, IndexBackend::nsw()] {
        let build = |adversary: AdversaryPlan| {
            let shards = ScalarWorkload::small(512).generate(k, seed);
            let mut cluster: KnnCluster = KnnCluster::builder()
                .machines(k)
                .seed(seed)
                .election(ElectionKind::Fixed)
                .adversary(adversary)
                .index_backend(backend)
                .build();
            cluster.load_shards(shards).expect("shard count");
            // Live inserts, routed by the seeded id hash: near-query values
            // that change every shard's local truth after load.
            let placed: Vec<(usize, Record<ScalarPoint>)> = (0..24u64)
                .map(|i| {
                    let point = ScalarPoint(qs[(i % 3) as usize].0.wrapping_add(i));
                    let (id, machine) = cluster.insert(point).expect("live insert");
                    (machine, Record { id, point, label: None })
                })
                .collect();
            (cluster, placed)
        };
        let plan = AdversaryPlan::default().with_lie(1, 0);
        let (byz, placed) = build(plan.clone());
        let want = with_pool(1, || byz.query_batch_with(Algorithm::Simple, &qs, ell))
            .expect("byzantine batch");
        assert_eq!(
            want.audit.suspects_quarantined,
            1,
            "{}: the liar must be caught over mutated shards",
            backend.name()
        );
        assert!(want.audit.audits_run > 0);
        assert!(want.degraded);

        // Honest reference: the survivors (everyone but the liar), holding
        // the same loaded shards *and* the same surviving inserts.
        let shards = ScalarWorkload::small(512).generate(k, seed);
        let mut honest: KnnCluster = KnnCluster::builder()
            .machines(k - 1)
            .seed(seed)
            .election(ElectionKind::Fixed)
            .index_backend(backend)
            .build();
        let survivors: Vec<Dataset<ScalarPoint>> =
            shards.iter().enumerate().filter(|&(i, _)| i != 1).map(|(_, d)| d.clone()).collect();
        honest.load_shards(survivors).expect("shard count");
        for &(machine, ref record) in &placed {
            if machine != 1 {
                let shifted = if machine > 1 { machine - 1 } else { machine };
                honest.insert_record_into(shifted, record.clone()).expect("replay insert");
            }
        }
        let reference =
            honest.query_batch_with(Algorithm::Simple, &qs, ell).expect("honest reference");
        for (g, w) in want.answers.iter().zip(&reference.answers) {
            assert_eq!(
                ids_and_dists(&g.neighbors),
                ids_and_dists(&w.neighbors),
                "{}: certified answer must equal the honest survivors' (inserts included)",
                backend.name()
            );
        }
        let got = with_pool(8, || byz.query_batch_with(Algorithm::Simple, &qs, ell))
            .expect("byzantine batch");
        let label = format!("{}/pool 8", backend.name());
        for (g, w) in got.answers.iter().zip(&want.answers) {
            assert_eq!(g.neighbors, w.neighbors, "{label}");
        }
        assert_eq!(got.audit, want.audit, "{label}");
        assert_eq!(got.metrics, want.metrics, "{label}");
    }
}

/// The dual soundness property: with the audit machinery armed but every
/// machine honest, answers dominated by **freshly inserted points** still
/// certify — nobody is quarantined. If an insert failed to update the
/// shard-local truth the audit recomputes, the honest machine claiming its
/// own inserted point would be indistinguishable from a liar.
#[test]
fn honest_claims_over_inserted_points_certify() {
    let (seed, k, ell) = (103u64, 4usize, 6usize);
    let probe = ScalarPoint(5_000_000);
    for backend in [IndexBackend::Exact, IndexBackend::nsw()] {
        // A zero-rate corrupt link arms the full defense stack (digests +
        // per-query semantic audit) without ever firing.
        let plan = AdversaryPlan::default().with_corrupt_link(0, 1, 0);
        let shards = ScalarWorkload::small(512).generate(k, seed);
        let mut cluster: KnnCluster = KnnCluster::builder()
            .machines(k)
            .seed(seed)
            .election(ElectionKind::Fixed)
            .adversary(plan)
            .index_backend(backend)
            .build();
        cluster.load_shards(shards).expect("shard count");
        // Inserts in a region the workload never reaches: they ARE the
        // answer to the probe query.
        let inserted: Vec<_> = (0..ell as u64)
            .map(|i| cluster.insert(ScalarPoint(probe.0 + i)).expect("insert").0)
            .collect();
        let batch = cluster.query_batch_with(Algorithm::Simple, &[probe], ell).expect("batch");
        assert!(batch.audit.audits_run > 0, "{}: the audit must actually run", backend.name());
        assert_eq!(
            batch.audit.suspects_quarantined,
            0,
            "{}: honest inserts certify",
            backend.name()
        );
        assert!(!batch.degraded, "{}", backend.name());
        let got_ids: Vec<_> = batch.answers[0].neighbors.iter().map(|n| n.id).collect();
        let mut want_ids = inserted.clone();
        want_ids.sort_unstable_by_key(|id| id.0);
        // All ell answers are inserted points (distances 0..ell-1 beat any
        // loaded value by construction), ascending by (distance, id).
        assert_eq!(got_ids.len(), ell, "{}", backend.name());
        for id in &got_ids {
            assert!(inserted.contains(id), "{}: answer {id:?} not an insert", backend.name());
        }
        assert_eq!(batch.answers[0].neighbors[0].dist.as_u64(), 0, "{}", backend.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// **No silently wrong answers, ever.** Under any single-adversary plan
    /// — a round-0 liar, an equivocator, or a corrupting link — a query
    /// either returns the exact answer over its certified topology (the
    /// full cluster when the lie was immaterial, the honest survivors when
    /// the adversary was quarantined) or fails with a typed error. It never
    /// returns an uncertified answer.
    #[test]
    fn prop_no_silently_wrong_answer_under_adversary(
        seed in 0u64..300,
        villain in 0usize..4,
        kind in 0u8..3,
        adv_seed in 0u64..1000,
    ) {
        let (k, ell) = (4usize, 6usize);
        let q = ScalarPoint(seed.wrapping_mul(127));
        let plan = match kind {
            0 => AdversaryPlan::default().with_lie(villain, 0),
            1 => AdversaryPlan::default().with_equivocate(villain),
            _ => AdversaryPlan::default().with_corrupt_link(villain, (villain + 1) % k, 400),
        }
        .with_adversary_seed(adv_seed);
        let c = byzantine_cluster(k, seed, plan, FaultPlan::default(), RecoveryPlan::default());
        match c.query_with(Algorithm::Knn, &q, ell) {
            Ok(ans) => {
                // The answer claims a topology; it must be exact over it.
                let shards = ScalarWorkload::small(512).generate(k, seed);
                let survivors: Vec<Dataset<ScalarPoint>> = if ans.audit.suspects_quarantined > 0 {
                    prop_assert!(ans.degraded);
                    prop_assert!(ans.neighbors.iter().all(|n| n.machine != villain));
                    shards.iter().enumerate()
                        .filter(|&(i, _)| i != villain)
                        .map(|(_, d)| d.clone())
                        .collect()
                } else {
                    shards.clone()
                };
                let mut honest: KnnCluster = KnnCluster::builder()
                    .machines(survivors.len())
                    .seed(seed)
                    .election(ElectionKind::Fixed)
                    .build();
                honest.load_shards(survivors).expect("shard count");
                let want = honest.query_with(Algorithm::Knn, &q, ell).expect("honest reference");
                prop_assert_eq!(
                    ids_and_dists(&ans.neighbors),
                    ids_and_dists(&want.neighbors),
                    "an uncertified answer escaped"
                );
            }
            // Every failure is typed — quarantine exhaustion, retry budget,
            // or a corruption the engine refused to deliver.
            Err(CoreError::AuditFailed { .. })
            | Err(CoreError::DeadlineExceeded { .. })
            | Err(CoreError::Engine(EngineError::IntegrityViolation { .. }))
            | Err(CoreError::Engine(EngineError::LinkDown { .. })) => {}
            Err(other) => prop_assert!(false, "untyped failure: {:?}", other),
        }
    }
}

/// A representative Byzantine run — a lying machine caught by the audit,
/// quarantined, and recovered from — written to
/// `results/audit_metrics.json` for the CI chaos leg's artifact upload.
#[test]
fn audit_metrics_artifact() {
    let (seed, k, ell) = (101u64, 5usize, 6usize);
    let qs = queries(seed, 4);
    let batch = with_pool(4, || {
        let c = byzantine_cluster(
            k,
            seed,
            AdversaryPlan::default().with_lie(1, 0),
            FaultPlan::default(),
            RecoveryPlan::default(),
        );
        c.query_batch_with(Algorithm::Knn, &qs, ell).expect("byzantine batch")
    });
    assert_eq!(batch.audit.suspects_quarantined, 1, "the artifact must witness a quarantine");
    assert!(batch.audit.audits_run > 0);
    assert!(batch.audit.digests_verified > 0);
    std::fs::create_dir_all("results").expect("results dir");
    let json = serde_json::to_string_pretty(&batch).expect("serialize");
    std::fs::write("results/audit_metrics.json", json).expect("write artifact");
}

/// A representative chaos run — survivable loss plus a crashed worker —
/// written to
/// `results/chaos_metrics.json` for the CI chaos leg's artifact upload.
#[test]
fn chaos_metrics_artifact() {
    let (seed, k, ell) = (61u64, 5usize, 6usize);
    let qs = queries(seed, 4);
    let plan = FaultPlan::default().with_loss(50, 16).with_crash(0, 0).with_fault_seed(11);
    let batch = with_pool(4, || {
        let c = cluster(k, seed, plan);
        c.query_batch_with(Algorithm::Knn, &qs, ell).expect("chaos batch")
    });
    assert!(batch.degraded, "the crashed shard degrades the batch");
    assert_eq!(batch.shards_used, k - 1);
    std::fs::create_dir_all("results").expect("results dir");
    let json = serde_json::to_string_pretty(&batch).expect("serialize");
    std::fs::write("results/chaos_metrics.json", json).expect("write artifact");
}

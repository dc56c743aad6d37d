//! Chaos suite: deterministic fault injection through the serving stack.
//!
//! The [`kmachine::FaultPlan`] injectors are *seeded, not sampled*: the
//! same plan produces the same drops, the same crash observations, and
//! the same recovery path on every engine and every pool size. That turns
//! fault testing into the same metamorphic game the engine-conformance
//! suite plays — a faulty run either equals its fault-free reference
//! byte-for-byte (stragglers), or degrades along an exactly reproducible
//! path (crashes: re-election, surviving-shard answers, `degraded`
//! flags), or fails with a typed error (lossy links past the retry
//! budget) — never a hang, never a silently wrong answer.
//!
//! One test also writes `results/chaos_metrics.json`, the artifact the CI
//! chaos leg uploads.

use kmachine::error::EngineError;
use kmachine::{AdversaryPlan, Engine, FaultPlan, RecoveryPlan};
use knn_core::cluster::{KnnCluster, Neighbor};
use knn_core::error::CoreError;
use knn_core::runner::{Algorithm, ElectionKind};
use knn_core::IndexBackend;
use knn_points::{Dataset, Record, ScalarPoint};
use knn_workloads::ScalarWorkload;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(f)
}

/// A loaded cluster over the standard scalar workload: Fixed election
/// (leader is machine 0 until a crash forces a re-election), seeded
/// shards, the given engine and fault plan.
fn cluster(k: usize, seed: u64, engine: Engine, faults: FaultPlan) -> KnnCluster {
    let shards = ScalarWorkload::small(512).generate(k, seed);
    let mut cluster: KnnCluster = KnnCluster::builder()
        .machines(k)
        .seed(seed)
        .engine(engine)
        .election(ElectionKind::Fixed)
        .faults(faults)
        .build();
    cluster.load_shards(shards).expect("shard count");
    cluster
}

/// A loaded cluster scheduled to self-heal: no fail-stop faults, but a
/// crash-then-rejoin recovery plan (checkpoint/restore inside the run).
fn healing_cluster(k: usize, seed: u64, engine: Engine, recovery: RecoveryPlan) -> KnnCluster {
    let shards = ScalarWorkload::small(512).generate(k, seed);
    let mut cluster: KnnCluster = KnnCluster::builder()
        .machines(k)
        .seed(seed)
        .engine(engine)
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

/// Stragglers are pure wall-clock: every answer, every metric, and every
/// flag of a straggling run — on every engine, every pool size — is
/// byte-identical to the fault-free lockstep reference. Only the clock may
/// differ.
#[test]
fn stragglers_change_nothing_but_wall_clock() {
    let (seed, k, ell) = (9u64, 4usize, 8usize);
    let qs = queries(seed, 5);
    let want = with_pool(1, || {
        let c = cluster(k, seed, Engine::Sync, FaultPlan::default());
        c.query_batch_with(Algorithm::Knn, &qs, ell).expect("baseline")
    });
    assert!(!want.degraded);
    assert!(!want.faults.any());
    let plan = FaultPlan::default().with_straggler(1, 4).with_straggler(3, 8);
    for engine in [Engine::Sync, Engine::Event] {
        for pool in [1usize, 8] {
            let got = with_pool(pool, || {
                let c = cluster(k, seed, engine, plan.clone());
                c.query_batch_with(Algorithm::Knn, &qs, ell).expect("straggling batch")
            });
            let label = format!("{engine:?}/pool {pool}");
            for (g, w) in got.answers.iter().zip(&want.answers) {
                assert_eq!(g.neighbors, w.neighbors, "straggler answers diverged: {label}");
            }
            assert_eq!(got.metrics, want.metrics, "straggler metrics diverged: {label}");
            assert!(!got.degraded, "a slow machine is not a failure: {label}");
            assert_eq!(got.shards_used, k, "{label}");
            assert!(!got.faults.any(), "stragglers realize no faults: {label}");
        }
    }
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
        let crashed = cluster(k, seed, Engine::Sync, FaultPlan::default().with_crash(0, 0));
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
    let crashed = cluster(k, seed, Engine::Sync, FaultPlan::default().with_crash(0, 0));
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
    let crashed = cluster(k, seed, Engine::Sync, FaultPlan::default().with_crash(2, 0));
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
    let lossy =
        cluster(k, seed, Engine::Sync, FaultPlan::default().with_loss(1000, 2).with_fault_seed(7));
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
    /// survivable loss, a straggler, a mid-run worker crash — produce
    /// byte-identical answers, metrics, **and realized faults** (drop and
    /// retransmission counts included) on every engine and pool size.
    #[test]
    fn prop_faulty_runs_are_engine_invariant(
        seed in 0u64..500,
        loss in 0u16..150,
        fault_seed in 0u64..1000,
    ) {
        let (k, ell) = (4usize, 6usize);
        let qs = queries(seed, 3);
        let plan = FaultPlan::default()
            .with_loss(loss, 64)
            .with_straggler(1, 2)
            .with_fault_seed(fault_seed);
        let want = with_pool(1, || {
            let c = cluster(k, seed, Engine::Sync, plan.clone());
            c.query_batch_with(Algorithm::Knn, &qs, ell).expect("sync chaos run")
        });
        let engine = Engine::Event;
        for pool in [2usize, 8] {
            let got = with_pool(pool, || {
                let c = cluster(k, seed, engine, plan.clone());
                c.query_batch_with(Algorithm::Knn, &qs, ell).expect("chaos run")
            });
            for (g, w) in got.answers.iter().zip(&want.answers) {
                prop_assert_eq!(&g.neighbors, &w.neighbors, "{:?}/pool {}", engine, pool);
            }
            prop_assert_eq!(&got.metrics, &want.metrics, "{:?}/pool {}", engine, pool);
            prop_assert_eq!(&got.faults, &want.faults,
                "realized faults must be engine-invariant: {:?}/pool {}", engine, pool);
            prop_assert_eq!(got.degraded, want.degraded);
            prop_assert_eq!(got.shards_used, want.shards_used);
        }
    }

    /// Crash recovery is deterministic too: the same crash plan takes the
    /// same re-election path and yields the same degraded answers on
    /// every engine.
    #[test]
    fn prop_crash_recovery_is_engine_invariant(
        seed in 0u64..500,
        victim in 0usize..4,
    ) {
        let (k, ell) = (4usize, 6usize);
        let qs = queries(seed, 2);
        let plan = FaultPlan::default().with_crash(victim, 0);
        let want = with_pool(1, || {
            let c = cluster(k, seed, Engine::Sync, plan.clone());
            c.query_batch_with(Algorithm::Knn, &qs, ell).expect("sync crash run")
        });
        prop_assert!(want.degraded);
        prop_assert_eq!(want.shards_used, k - 1);
        let engine = Engine::Event;
        let got = with_pool(8, || {
            let c = cluster(k, seed, engine, plan.clone());
            c.query_batch_with(Algorithm::Knn, &qs, ell).expect("crash run")
        });
        for (g, w) in got.answers.iter().zip(&want.answers) {
            prop_assert_eq!(&g.neighbors, &w.neighbors, "{:?}", engine);
        }
        prop_assert_eq!(&got.metrics, &want.metrics, "{:?}", engine);
        prop_assert_eq!(got.leader, want.leader, "same re-election path: {:?}", engine);
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

/// Crash-then-rejoin is **invisible to the answer** on every engine and
/// every pool size: a machine that goes dark mid-batch, restores from its
/// last protocol checkpoint, and replays the retained rounds produces a
/// batch byte-identical to the fault-free reference — same neighbors,
/// same aggregate metrics — with `degraded` cleared (the rejoined shard
/// served), no realized crash, and the recovery work reported on the
/// answer (`recovered`, `replayed_rounds`).
#[test]
fn rejoin_is_byte_identical_on_every_engine() {
    let (seed, k, ell) = (67u64, 4usize, 6usize);
    let qs = queries(seed, 4);
    let want = with_pool(1, || {
        let c = cluster(k, seed, Engine::Sync, FaultPlan::default());
        c.query_batch_with(Algorithm::Simple, &qs, ell).expect("fault-free reference")
    });
    assert!(!want.recovered);
    assert_eq!(want.replayed_rounds, 0);
    let plan = RecoveryPlan::default().with_rejoin(2, 2, 5);
    let mut replayed = Vec::new();
    for engine in [Engine::Sync, Engine::Event] {
        for pool in [1usize, 8] {
            let got = with_pool(pool, || {
                let c = healing_cluster(k, seed, engine, plan.clone());
                c.query_batch_with(Algorithm::Simple, &qs, ell).expect("healing batch")
            });
            let label = format!("{engine:?}/pool {pool}");
            for (g, w) in got.answers.iter().zip(&want.answers) {
                assert_eq!(g.neighbors, w.neighbors, "rejoin changed an answer: {label}");
            }
            assert_eq!(got.metrics, want.metrics, "rejoin changed the metrics: {label}");
            assert!(!got.degraded, "the rejoined shard serves; nothing is degraded: {label}");
            assert_eq!(got.shards_used, k, "{label}");
            assert!(
                got.faults.crashed.is_empty(),
                "a healed crash is not a realized fault: {label}"
            );
            assert!(got.recovered, "the recovery work must be reported: {label}");
            assert_eq!(got.attempts, 1, "rejoin heals in-run, without a retry: {label}");
            assert!(got.replayed_rounds >= 1, "{label}");
            replayed.push(got.replayed_rounds);
        }
    }
    assert!(
        replayed.windows(2).all(|w| w[0] == w[1]),
        "recovery metrics must be engine-invariant: {replayed:?}"
    );
}

/// The same crash **without** a rejoin plan degrades the answer; with the
/// plan, the identical crash round heals. This is the self-healing
/// contract in one contrast — and it holds on the single-query path too
/// (BinSearch exercises the other checkpointable protocol).
#[test]
fn rejoin_clears_the_degraded_flag_a_bare_crash_sets() {
    let (seed, k, ell) = (71u64, 4usize, 6usize);
    let q = ScalarPoint(seed.wrapping_mul(127));
    let clean = cluster(k, seed, Engine::Sync, FaultPlan::default());
    let want = clean.query_with(Algorithm::BinSearch, &q, ell).expect("fault-free reference");
    let bare = cluster(k, seed, Engine::Sync, FaultPlan::default().with_crash(2, 2));
    let degraded = bare.query_with(Algorithm::BinSearch, &q, ell).expect("survivor retry");
    assert!(degraded.degraded, "an unhealed crash degrades the answer");
    assert_eq!(degraded.shards_used, k - 1);
    assert!(degraded.recovered, "the survivor retry is recovery work");
    assert!(degraded.attempts > 1);
    let healing =
        healing_cluster(k, seed, Engine::Sync, RecoveryPlan::default().with_rejoin(2, 2, 5));
    let healed = healing.query_with(Algorithm::BinSearch, &q, ell).expect("healed query");
    assert!(!healed.degraded, "the rejoined shard clears the flag");
    assert_eq!(healed.shards_used, k);
    assert!(healed.recovered);
    assert_eq!(healed.attempts, 1);
    assert!(healed.replayed_rounds >= 1);
    assert_eq!(healed.neighbors, want.neighbors, "healed answer is byte-identical");
    // The leader-driven bisection genuinely waits out the offline window
    // (its next probe needs the dark worker's report), so the round count
    // may stretch — but the conversation itself is byte-identical: same
    // messages, same bits.
    assert_eq!(healed.metrics.messages, want.metrics.messages);
    assert_eq!(healed.metrics.bits, want.metrics.bits);
    assert!(healed.metrics.rounds >= want.metrics.rounds);
}

/// A representative self-healing run — crash, checkpoint-restore, replay,
/// rejoin — written to `results/recovery_metrics.json` for the CI chaos
/// leg's artifact upload.
#[test]
fn recovery_metrics_artifact() {
    let (seed, k, ell) = (73u64, 5usize, 6usize);
    let qs = queries(seed, 4);
    let batch = with_pool(4, || {
        let c = healing_cluster(
            k,
            seed,
            Engine::Event,
            RecoveryPlan::default().with_rejoin(1, 2, 6).with_checkpoint_interval(2),
        );
        c.query_batch_with(Algorithm::Simple, &qs, ell).expect("healing batch")
    });
    assert!(batch.recovered, "the artifact must witness actual recovery work");
    assert!(!batch.degraded);
    assert!(batch.replayed_rounds >= 1);
    std::fs::create_dir_all("results").expect("results dir");
    let json = serde_json::to_string_pretty(&batch).expect("serialize");
    std::fs::write("results/recovery_metrics.json", json).expect("write artifact");
}

/// A loaded cluster under a Byzantine adversary plan, optionally compounded
/// with fail-stop faults and a recovery plan.
fn byzantine_cluster(
    k: usize,
    seed: u64,
    engine: Engine,
    adversary: AdversaryPlan,
    faults: FaultPlan,
    recovery: RecoveryPlan,
) -> KnnCluster {
    let shards = ScalarWorkload::small(512).generate(k, seed);
    let mut cluster: KnnCluster = KnnCluster::builder()
        .machines(k)
        .seed(seed)
        .engine(engine)
        .election(ElectionKind::Fixed)
        .adversary(adversary)
        .faults(faults)
        .recovery(recovery)
        .build();
    cluster.load_shards(shards).expect("shard count");
    cluster
}

/// Byzantine detection, quarantine, and the certified answer are engine-
/// and pool-invariant: the same lie is fabricated, caught, and recovered
/// from identically on sync and event, at every pool size — audits,
/// violations, and quarantine counts included.
#[test]
fn byzantine_recovery_is_engine_and_pool_invariant() {
    let (seed, k, ell) = (83u64, 4usize, 8usize);
    let qs = queries(seed, 4);
    let plan = AdversaryPlan::default().with_lie(1, 0);
    let want = with_pool(1, || {
        let c = byzantine_cluster(
            k,
            seed,
            Engine::Sync,
            plan.clone(),
            FaultPlan::default(),
            RecoveryPlan::default(),
        );
        c.query_batch_with(Algorithm::Knn, &qs, ell).expect("byzantine batch")
    });
    assert_eq!(want.audit.suspects_quarantined, 1, "the liar must be caught");
    assert!(want.audit.audits_run > 0);
    assert!(want.degraded, "the quarantined shard degrades the batch");
    for engine in [Engine::Sync, Engine::Event] {
        for pool in [1usize, 8] {
            let got = with_pool(pool, || {
                let c = byzantine_cluster(
                    k,
                    seed,
                    engine,
                    plan.clone(),
                    FaultPlan::default(),
                    RecoveryPlan::default(),
                );
                c.query_batch_with(Algorithm::Knn, &qs, ell).expect("byzantine batch")
            });
            let label = format!("{engine:?}/pool {pool}");
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
}

/// Compound faults in one run: survivable link loss **and** a crash-then-
/// rejoin window together. The rejoin heals in-run, the loss retransmits,
/// and the whole thing stays byte-identical across engines and pool sizes.
#[test]
fn loss_plus_rejoin_compound_is_engine_and_pool_invariant() {
    let (seed, k, ell) = (89u64, 4usize, 6usize);
    let qs = queries(seed, 4);
    let faults = FaultPlan::default().with_loss(40, 16).with_fault_seed(13);
    let recovery = RecoveryPlan::default().with_rejoin(2, 2, 5);
    let want = with_pool(1, || {
        let c = byzantine_cluster(
            k,
            seed,
            Engine::Sync,
            AdversaryPlan::default(),
            faults.clone(),
            recovery.clone(),
        );
        c.query_batch_with(Algorithm::Simple, &qs, ell).expect("compound batch")
    });
    assert!(want.recovered, "the rejoin is recovery work");
    assert!(!want.degraded, "the healed shard serves");
    assert!(want.replayed_rounds >= 1);
    assert!(want.faults.dropped_messages > 0, "the loss process must actually bite");
    let engine = Engine::Event;
    for pool in [1usize, 8] {
        let got = with_pool(pool, || {
            let c = byzantine_cluster(
                k,
                seed,
                engine,
                AdversaryPlan::default(),
                faults.clone(),
                recovery.clone(),
            );
            c.query_batch_with(Algorithm::Simple, &qs, ell).expect("compound batch")
        });
        let label = format!("{engine:?}/pool {pool}");
        for (g, w) in got.answers.iter().zip(&want.answers) {
            assert_eq!(g.neighbors, w.neighbors, "compound answers diverged: {label}");
        }
        assert_eq!(got.metrics, want.metrics, "{label}");
        assert_eq!(got.faults, want.faults, "realized faults diverged: {label}");
        assert_eq!(got.replayed_rounds, want.replayed_rounds, "{label}");
    }
}

/// An adversary lying while another machine is inside its crash-rejoin
/// replay window: the rejoiner heals, the liar is caught and quarantined,
/// and the certified answer equals the honest survivors' — identically on
/// every engine.
#[test]
fn lie_during_a_replay_window_is_caught_and_invariant() {
    let (seed, k, ell) = (97u64, 4usize, 6usize);
    let qs = queries(seed, 3);
    let adversary = AdversaryPlan::default().with_lie(1, 0);
    let recovery = RecoveryPlan::default().with_rejoin(2, 2, 5);
    let want = with_pool(1, || {
        let c = byzantine_cluster(
            k,
            seed,
            Engine::Sync,
            adversary.clone(),
            FaultPlan::default(),
            recovery.clone(),
        );
        c.query_batch_with(Algorithm::Simple, &qs, ell).expect("lie-during-replay batch")
    });
    assert_eq!(want.audit.suspects_quarantined, 1, "the liar must be caught");
    // Honest reference: the survivors (everyone but the liar) with the
    // same rejoin window, shifted onto the 3-machine layout.
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
    let engine = Engine::Event;
    let got = with_pool(8, || {
        let c = byzantine_cluster(
            k,
            seed,
            engine,
            adversary.clone(),
            FaultPlan::default(),
            recovery.clone(),
        );
        c.query_batch_with(Algorithm::Simple, &qs, ell).expect("lie-during-replay batch")
    });
    for (g, w) in got.answers.iter().zip(&want.answers) {
        assert_eq!(g.neighbors, w.neighbors, "{engine:?}");
    }
    assert_eq!(got.audit, want.audit, "{engine:?}");
}

/// A Byzantine cluster whose shards were **mutated by live inserts** after
/// load: the semantic audit recomputes shard-local truth from the mutated
/// shards (through the same [`knn_core::ShardIndex`] the honest machines
/// answer from), so the liar is still caught and quarantined, and the
/// certified answer equals the honest survivors' — with the surviving
/// machines' inserts included — identically on every engine, both backends.
#[test]
fn audit_after_live_inserts_still_catches_the_liar() {
    let (seed, k, ell) = (101u64, 4usize, 8usize);
    let qs = queries(seed, 3);
    for backend in [IndexBackend::Exact, IndexBackend::nsw()] {
        let build = |engine: Engine, adversary: AdversaryPlan| {
            let shards = ScalarWorkload::small(512).generate(k, seed);
            let mut cluster: KnnCluster = KnnCluster::builder()
                .machines(k)
                .seed(seed)
                .engine(engine)
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
        let (byz, placed) = build(Engine::Sync, plan.clone());
        let want = byz.query_batch_with(Algorithm::Simple, &qs, ell).expect("byzantine batch");
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
        let engine = Engine::Event;
        let (byz, _) = build(engine, plan.clone());
        let got = byz.query_batch_with(Algorithm::Simple, &qs, ell).expect("byzantine batch");
        let label = format!("{}/{engine:?}", backend.name());
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
        let c = byzantine_cluster(
            k,
            seed,
            Engine::Sync,
            plan,
            FaultPlan::default(),
            RecoveryPlan::default(),
        );
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
            // or a corruption the engines refused to deliver.
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
            Engine::Event,
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

/// A representative chaos run — survivable loss plus a straggler plus a
/// crashed worker, on the event engine — written to
/// `results/chaos_metrics.json` for the CI chaos leg's artifact upload.
#[test]
fn chaos_metrics_artifact() {
    let (seed, k, ell) = (61u64, 5usize, 6usize);
    let qs = queries(seed, 4);
    let plan = FaultPlan::default()
        .with_loss(50, 16)
        .with_straggler(1, 4)
        .with_crash(0, 0)
        .with_fault_seed(11);
    let batch = with_pool(4, || {
        let c = cluster(k, seed, Engine::Event, plan);
        c.query_batch_with(Algorithm::Knn, &qs, ell).expect("chaos batch")
    });
    assert!(batch.degraded, "the crashed shard degrades the batch");
    assert_eq!(batch.shards_used, k - 1);
    std::fs::create_dir_all("results").expect("results dir");
    let json = serde_json::to_string_pretty(&batch).expect("serialize");
    std::fs::write("results/chaos_metrics.json", json).expect("write artifact");
}

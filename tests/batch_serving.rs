//! The batched serving layer end to end: `query_batch` must return exactly
//! what sequential `query` calls return — for every algorithm and every
//! election mode — while paying one election and one engine run per batch.

use knn_repro::core::runner::RetryPolicy;
use knn_repro::core::CoreError;
use knn_repro::kmachine::{AdversaryPlan, FaultPlan};
use knn_repro::prelude::*;
use proptest::prelude::*;

fn loaded_cluster(k: usize, n: usize, election: ElectionKind, seed: u64) -> KnnCluster {
    let shards = ScalarWorkload { per_machine: n, lo: 0, hi: 1 << 20 }.generate(k, seed);
    let mut cluster: KnnCluster =
        KnnCluster::builder().machines(k).seed(seed).election(election).build();
    cluster.load_shards(shards).unwrap();
    cluster
}

fn neighbor_ids(ans: &KnnAnswer) -> Vec<PointId> {
    ans.neighbors.iter().map(|n| n.id).collect()
}

#[test]
fn batch_equals_sequential_for_every_algorithm_and_election() {
    for election in [ElectionKind::Fixed, ElectionKind::Star, ElectionKind::Flood] {
        let cluster = loaded_cluster(5, 600, election, 3);
        let queries: Vec<ScalarPoint> = QueryStream::scalar(6, 6, 0, 1 << 20, 11).next().unwrap();
        for algo in Algorithm::ALL {
            let batch = cluster.query_batch_with(algo, &queries, 9).unwrap();
            assert_eq!(batch.answers.len(), queries.len());
            for (j, q) in queries.iter().enumerate() {
                let solo = cluster.query_with(algo, q, 9).unwrap();
                assert_eq!(
                    batch.answers[j].neighbors, solo.neighbors,
                    "{algo:?} / {election:?} query {j}"
                );
                // Batched per-query answers report no private election: the
                // batch's single election is on the BatchAnswer.
                assert!(batch.answers[j].election_metrics.is_none());
            }
        }
    }
}

#[test]
fn sixty_four_queries_pay_exactly_one_election() {
    // The acceptance bar: 64 queries, one election, answers identical to
    // sequential serving.
    for (election, expected_messages) in [(ElectionKind::Star, 2 * 7), (ElectionKind::Flood, 8 * 7)]
    {
        let cluster = loaded_cluster(8, 512, election, 5);
        let queries: Vec<ScalarPoint> = QueryStream::scalar(64, 64, 0, 1 << 20, 21).next().unwrap();
        let batch = cluster.query_batch(&queries, 8).unwrap();
        let em = batch.election_metrics.as_ref().expect("an election ran");
        assert_eq!(
            em.messages, expected_messages,
            "{election:?}: exactly one election's worth of messages"
        );
        for (j, q) in queries.iter().enumerate() {
            assert_eq!(
                neighbor_ids(&batch.answers[j]),
                neighbor_ids(&cluster.query(q, 8).unwrap()),
                "{election:?} query {j}"
            );
        }
    }
}

#[test]
fn batched_rounds_per_query_strictly_below_sequential_for_simple() {
    let cluster = loaded_cluster(6, 2048, ElectionKind::Star, 9);
    let queries: Vec<ScalarPoint> = QueryStream::scalar(64, 64, 0, 1 << 20, 2).next().unwrap();
    let batch = cluster.query_batch_with(Algorithm::Simple, &queries, 64).unwrap();
    let batched_rounds =
        batch.metrics.rounds + batch.election_metrics.as_ref().map_or(0, |em| em.rounds);
    let sequential_rounds: u64 = queries
        .iter()
        .map(|q| {
            let ans = cluster.query_with(Algorithm::Simple, q, 64).unwrap();
            ans.metrics.rounds + ans.election_metrics.as_ref().map_or(0, |em| em.rounds)
        })
        .sum();
    assert!(
        batched_rounds < sequential_rounds,
        "batched {batched_rounds} rounds for 64 queries vs sequential {sequential_rounds}"
    );
}

#[test]
fn deterministic_baselines_cost_the_same_alone_and_as_a_batch_of_one() {
    // Each shard's 1,000 values span 2²⁰ while its 10 nearest span a few
    // thousand: a bisection over all of a shard's keys takes about twice the
    // rounds of one over its local top-ℓ. Both paths feed every protocol the
    // same sorted local top-ℓ, so for the two selection baselines that draw
    // no randomness the costs agree to the message.
    let cluster = loaded_cluster(4, 1000, ElectionKind::Fixed, 1);
    let q = ScalarPoint(1 << 19);
    for algo in [Algorithm::SaukasSong, Algorithm::BinSearch] {
        let single = cluster.query_with(algo, &q, 10).unwrap();
        let batch = cluster.query_batch_with(algo, &[q], 10).unwrap();
        assert_eq!(batch.answers[0].neighbors, single.neighbors, "{algo:?}");
        assert_eq!(
            (batch.metrics.rounds, batch.metrics.messages),
            (single.metrics.rounds, single.metrics.messages),
            "{algo:?}: (rounds, messages)"
        );
    }
}

#[test]
fn batch_metrics_attribute_traffic_per_query() {
    let cluster = loaded_cluster(4, 800, ElectionKind::Fixed, 1);
    let queries: Vec<ScalarPoint> = QueryStream::scalar(5, 5, 0, 1 << 20, 4).next().unwrap();
    let batch = cluster.query_batch_with(Algorithm::Simple, &queries, 16).unwrap();
    // Every message of the batch run belongs to exactly one query tag.
    assert_eq!(batch.metrics.per_tag.len(), queries.len());
    let tag_messages: u64 = batch.metrics.per_tag.iter().map(|t| t.messages).sum();
    let tag_bits: u64 = batch.metrics.per_tag.iter().map(|t| t.bits).sum();
    assert_eq!(tag_messages, batch.metrics.messages);
    assert_eq!(tag_bits, batch.metrics.bits);
    for ans in &batch.answers {
        assert!(ans.metrics.messages > 0);
        assert!(ans.metrics.bits > 0);
        assert!(ans.metrics.rounds <= batch.metrics.rounds);
    }
}

#[test]
fn batch_on_both_engines_agrees() {
    let shards = ScalarWorkload { per_machine: 700, lo: 0, hi: 1 << 18 }.generate(4, 13);
    let queries: Vec<ScalarPoint> = QueryStream::scalar(4, 4, 0, 1 << 18, 6).next().unwrap();
    let run = |engine| {
        let mut cluster: KnnCluster =
            KnnCluster::builder().machines(4).seed(2).engine(engine).build();
        cluster.load_shards(shards.clone()).unwrap();
        cluster.query_batch_with(Algorithm::Knn, &queries, 12).unwrap()
    };
    let a = run(Engine::Sync);
    let b = run(Engine::Event);
    for j in 0..queries.len() {
        assert_eq!(a.answers[j].neighbors, b.answers[j].neighbors, "query {j}");
    }
    assert_eq!(a.metrics.rounds, b.metrics.rounds);
    assert_eq!(a.metrics.messages, b.metrics.messages);
    assert_eq!(a.metrics.bits, b.metrics.bits);
    assert_eq!(a.metrics.per_tag, b.metrics.per_tag);
}

#[test]
fn batch_approx_contains_the_exact_batch() {
    let cluster = loaded_cluster(6, 3000, ElectionKind::Fixed, 8);
    let queries: Vec<ScalarPoint> = QueryStream::scalar(3, 3, 0, 1 << 20, 5).next().unwrap();
    let exact = cluster.query_batch(&queries, 50).unwrap();
    let approx = cluster.query_batch_approx(&queries, 50).unwrap();
    for j in 0..queries.len() {
        let sup = &approx.answers[j].neighbors;
        let sub = &exact.answers[j].neighbors;
        assert!(sup.len() >= sub.len(), "query {j}");
        assert_eq!(&sup[..sub.len()], &sub[..], "exact answer must be a prefix of approx");
    }
}

#[test]
fn empty_batch_and_unloaded_cluster() {
    let cluster = loaded_cluster(3, 50, ElectionKind::Fixed, 0);
    let empty = cluster.query_batch(&[], 5).unwrap();
    assert!(empty.answers.is_empty());
    assert_eq!(empty.metrics.messages, 0);

    let unloaded: KnnCluster = KnnCluster::builder().machines(3).build();
    assert!(unloaded.query_batch(&[ScalarPoint(1)], 2).is_err());
}

/// A cluster whose machine `m` holds the values `100m .. 100(m+1)`, so a
/// query can be aimed at one machine's points.
fn range_cluster(k: u64, builder: knn_repro::core::ClusterBuilder) -> KnnCluster {
    let mut ids = IdAssigner::new(0);
    let shards = (0..k)
        .map(|m| {
            Dataset::from_points((m * 100..(m + 1) * 100).map(ScalarPoint).collect(), &mut ids)
        })
        .collect();
    let mut cluster: KnnCluster = builder.machines(k as usize).seed(3).build();
    cluster.load_shards(shards).unwrap();
    cluster
}

#[test]
fn a_single_query_is_a_batch_of_one_through_every_recovery() {
    // Machine 1 owns the query's neighborhood, so its lie is material;
    // machine 0 is the (fixed) leader, so its crash forces a re-election.
    let scenarios = [
        ("healthy", KnnCluster::builder()),
        ("leader crash", KnnCluster::builder().faults(FaultPlan::default().with_crash(0, 0))),
        ("liar", KnnCluster::builder().adversary(AdversaryPlan::default().with_lie(1, 0))),
        (
            "corrupt link",
            KnnCluster::builder().adversary(AdversaryPlan::default().with_corrupt_link(1, 0, 1000)),
        ),
    ];
    let q = ScalarPoint(150);
    let health = |r: &Report| (r.degraded, r.shards_used, r.leader, r.attempts, r.recovered);
    let caught = |r: &Report| (r.audit.suspects_quarantined, r.audit.integrity_violations);
    for (name, builder) in scenarios {
        let cluster = range_cluster(4, builder);
        for algo in Algorithm::ALL {
            let single = cluster.query_with(algo, &q, 6).unwrap();
            let batch = cluster.query_batch_with(algo, &[q], 6).unwrap();
            let of_one = &batch.answers[0];
            assert_eq!(of_one.neighbors, single.neighbors, "{name} / {algo:?}");
            assert_eq!(health(&batch), health(&single), "{name} / {algo:?}: the batch");
            assert_eq!(health(of_one), health(&single), "{name} / {algo:?}: its one answer");
            assert_eq!(caught(&batch), caught(&single), "{name} / {algo:?}");
            assert_eq!(single.attempts, if name == "healthy" { 1 } else { 2 }, "{name} / {algo:?}");
        }
        // The approximate protocol, the fifth column, goes through the same
        // recovery loop. Which survivors it keeps depends on its sampling
        // stream (a tagged instance draws a different one than an untagged
        // one), so the two paths are compared on what they promise — the
        // exact answer over the machines that served is a prefix — and on
        // health, not key for key. It is unaudited: a liar costs no retry.
        let single = cluster.query_approx(&q, 6).unwrap();
        let batch = cluster.query_batch_approx(&[q], 6).unwrap();
        let of_one = &batch.answers[0];
        assert_eq!(health(&batch), health(&single), "{name} / approx: the batch");
        assert_eq!(health(of_one), health(&single), "{name} / approx: its one answer");
        assert_eq!(caught(&batch), caught(&single), "{name} / approx");
        assert_eq!(single.audit.audits_run + batch.audit.audits_run, 0, "{name} / approx");
        let unhurt = matches!(name, "healthy" | "liar");
        assert_eq!(single.attempts, if unhurt { 1 } else { 2 }, "{name} / approx");
        let exact: Vec<_> = if name == "liar" {
            range_cluster(4, KnnCluster::builder()).query(&q, 6).unwrap().neighbors
        } else {
            cluster.query(&q, 6).unwrap().neighbors
        };
        for (path, approx) in [("single", &single), ("batch of one", of_one)] {
            assert_eq!(approx.contains_exact, Some(true), "{name} / approx / {path}");
            assert_eq!(approx.neighbors[..exact.len()], exact[..], "{name} / approx / {path}");
        }
    }
}

#[test]
fn approx_recovers_from_a_mid_run_worker_crash_on_both_paths() {
    // Machine 2 dies in round 1, after its samples left: the survivors
    // stall on it, and both approx entry points re-run without it.
    let builder = KnnCluster::builder().faults(FaultPlan::default().with_crash(2, 1));
    let cluster = range_cluster(4, builder);
    let q = ScalarPoint(150);
    let single = cluster.query_approx(&q, 10).unwrap();
    let batch = cluster.query_batch_approx(&[q], 10).unwrap();
    for (path, report) in [("single", &single.report), ("batch", &batch.report)] {
        assert!(report.degraded, "{path}");
        assert_eq!((report.attempts, report.shards_used), (2, 3), "{path}");
    }
    assert!(single.neighbors.iter().all(|n| n.machine != 2));
}

/// Machine 2 of [`range_cluster`]`(4, …)` crashes in round `crash` under the
/// gather baseline while it owns the whole neighbourhood of the query, which
/// is then answered sequentially and as a batch of one. `armed` adds a
/// corrupt link that never fires: the audit runs, and nobody misbehaves.
fn simple_crash_probe(crash: u64, armed: bool, engine: Engine) -> (KnnAnswer, BatchAnswer) {
    let faults = FaultPlan::default().with_crash(2, crash);
    let mut builder =
        KnnCluster::builder().algorithm(Algorithm::Simple).engine(engine).faults(faults);
    if armed {
        builder = builder.adversary(AdversaryPlan::default().with_corrupt_link(3, 0, 0));
    }
    let cluster = range_cluster(4, builder);
    let q = ScalarPoint(250);
    (cluster.query(&q, 6).unwrap(), cluster.query_batch(&[q], 6).unwrap())
}

#[test]
fn a_worker_crashing_mid_stream_costs_simple_a_retry_not_its_answer() {
    let dists_on = |a: &KnnAnswer| -> Vec<(u64, usize)> {
        a.neighbors.iter().map(|n| (n.dist.as_u64(), n.machine)).collect()
    };
    let survivors = [(50, 3), (51, 1), (51, 3), (52, 1), (52, 3), (53, 1)];
    let full = [(0, 2), (1, 2), (1, 2), (2, 2), (2, 2), (3, 2)];
    for engine in [Engine::Sync, Engine::Event] {
        for crash in 0..=5 {
            let (single, batch) = simple_crash_probe(crash, false, engine);
            let label = format!("crash in round {crash}, {engine:?}");
            // Round 0: machine 2 never sends, and the run salvages it. Rounds
            // 1–3: its candidates already reached the leader's gather, so the
            // run is retried over the survivors. Later: it finished first.
            let (want, degraded, attempts) = match crash {
                0 => (&survivors, true, 1),
                1..=3 => (&survivors, true, 2),
                _ => (&full, false, 1),
            };
            assert_eq!(dists_on(&single), want, "{label}");
            assert_eq!(batch.answers[0].neighbors, single.neighbors, "{label}");
            for (path, report) in [("single", &single.report), ("batch", &batch.report)] {
                assert_eq!(
                    (report.degraded, report.attempts),
                    (degraded, attempts),
                    "{label} {path}"
                );
            }
        }
    }
}

#[test]
fn an_armed_audit_never_quarantines_an_honest_cluster() {
    for engine in [Engine::Sync, Engine::Event] {
        for crash in 0..=5 {
            let (single, batch) = simple_crash_probe(crash, true, engine);
            let (want, want_batch) = simple_crash_probe(crash, false, engine);
            let label = format!("crash in round {crash}, {engine:?}");
            for (path, report) in [("single", &single.report), ("batch", &batch.report)] {
                assert!(report.audit.audits_run > 0, "{label} {path}: the audit must run");
                assert_eq!(report.audit.suspects_quarantined, 0, "{label} {path}");
            }
            assert_eq!(single.neighbors, want.neighbors, "{label}");
            assert_eq!(batch.answers[0].neighbors, want_batch.answers[0].neighbors, "{label}");
        }
    }
}

#[test]
fn nobody_left_to_certify_is_audit_failed_not_a_budget_failure() {
    // Both machines own part of the answer and both lie: no further run
    // could certify anything, so even with no retry budget at all the
    // failure is the audit's — on the sequential and the batched path.
    let builder = KnnCluster::builder()
        .adversary(AdversaryPlan::default().with_lie(0, 0).with_lie(1, 0))
        .retry(RetryPolicy { max_attempts: 1, ..Default::default() });
    let cluster = range_cluster(2, builder);
    let q = ScalarPoint(100);
    let all_suspect = |err: CoreError| {
        assert!(
            matches!(&err, CoreError::AuditFailed { suspects, alive: 2 } if suspects == &[0, 1]),
            "want AuditFailed naming both liars, got {err:?}"
        );
    };
    all_suspect(cluster.query_with(Algorithm::Knn, &q, 6).unwrap_err());
    all_suspect(cluster.query_batch_with(Algorithm::Knn, &[q], 6).unwrap_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Randomized parity: any cluster shape, any ℓ, any batch, every
    /// algorithm — batch answers equal sequential answers key for key.
    #[test]
    fn prop_query_batch_matches_sequential_queries(
        k in 1usize..5,
        n in 1usize..200,
        ell in 0usize..12,
        m in 1usize..5,
        algo_idx in 0usize..4,
        seed in 0u64..500,
    ) {
        let algo = Algorithm::ALL[algo_idx];
        let cluster = loaded_cluster(k, n, ElectionKind::Star, seed);
        let queries: Vec<ScalarPoint> =
            QueryStream::scalar(m, m, 0, 1 << 20, seed ^ 0xAB).next().unwrap();
        let batch = cluster.query_batch_with(algo, &queries, ell).unwrap();
        prop_assert!(batch.election_metrics.is_some());
        for (j, q) in queries.iter().enumerate() {
            let solo = cluster.query_with(algo, q, ell).unwrap();
            prop_assert_eq!(
                &batch.answers[j].neighbors, &solo.neighbors,
                "{:?} query {}", algo, j
            );
        }
    }
}

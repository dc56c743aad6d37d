//! The batched serving layer end to end: `query_batch` must return exactly
//! what sequential `query` calls return — for every algorithm and every
//! election mode — while paying one election and one engine run per batch.

use knn_repro::core::protocols::KnnParams;
use knn_repro::core::runner::RetryPolicy;
use knn_repro::core::CoreError;
use knn_repro::kmachine::json::to_string_pretty;
use knn_repro::kmachine::{AdversaryPlan, AuditMetrics, FaultMetrics, FaultPlan, RecoveryMetrics};
use knn_repro::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

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

#[test]
fn a_batch_spreads_its_coordinators_evenly_and_a_batch_of_one_keeps_the_leader() {
    for (k, m, election) in [
        (4, 10, ElectionKind::Star),
        (5, 64, ElectionKind::Flood),
        (8, 3, ElectionKind::Fixed),
        (6, 6, ElectionKind::Star),
    ] {
        let cluster = loaded_cluster(k, 200, election, 7);
        let queries: Vec<ScalarPoint> = QueryStream::scalar(m, m, 0, 1 << 20, 3).next().unwrap();
        let label = format!("k = {k}, m = {m}, {election:?}");
        let session = cluster.session().unwrap();
        let outcome = session.run_batch(&queries, 5, Algorithm::Knn).unwrap();
        let batch = cluster.query_batch_with(Algorithm::Knn, &queries, 5).unwrap();
        assert_eq!(batch.leader, session.leader(), "{label}: the batch reports the election");
        let mut led = vec![0usize; k];
        for (j, (ans, bq)) in batch.answers.iter().zip(&outcome.queries).enumerate() {
            assert_eq!(ans.leader, (batch.leader + j) % k, "{label}: query {j}");
            assert_eq!(bq.leader, ans.leader, "{label}: query {j}");
            led[ans.leader] += 1;
        }
        for (machine, &count) in led.iter().enumerate() {
            assert!(
                m / k <= count && count <= m.div_ceil(k),
                "{label}: machine {machine} led {count}"
            );
        }
        let one = cluster.query_batch_with(Algorithm::Knn, &queries[..1], 5).unwrap();
        assert_eq!(one.answers[0].leader, one.leader, "{label}: a batch of one");
        assert_eq!(one.leader, session.leader(), "{label}");
    }
}

#[test]
fn a_batch_of_k_queries_ends_near_its_slowest_query_run_alone() {
    // With one query per machine, every machine coordinates one query and
    // the batch's gathers arrive over all k(k − 1) links: the batch costs
    // about what its slowest query costs alone, not the sum of k gathers
    // queued on one coordinator's k − 1 inbound links.
    for k in [8usize, 16] {
        let cluster = loaded_cluster(k, 1024, ElectionKind::Fixed, 4);
        let queries: Vec<ScalarPoint> = QueryStream::scalar(k, k, 0, 1 << 20, 6).next().unwrap();
        for algo in Algorithm::ALL {
            let batch = cluster.query_batch_with(algo, &queries, 64).unwrap();
            let slowest = queries
                .iter()
                .map(|q| cluster.query_with(algo, q, 64).unwrap().metrics.rounds)
                .max()
                .unwrap();
            assert!(
                2 * batch.metrics.rounds <= 3 * slowest + 4,
                "{algo:?} at k = {k}: batch {} rounds vs slowest solo {slowest}",
                batch.metrics.rounds
            );
        }
    }
}

#[test]
fn a_coordinator_crashing_at_round_zero_replans_onto_the_survivors() {
    // Machine 2 is not the leader but coordinates queries 2 and 6 of the
    // batch. Dead from round 0, it contributes nothing to any query: every
    // answer is the survivors' answer, as the same query asked alone under
    // the same plan returns it.
    let builder = KnnCluster::builder().faults(FaultPlan::default().with_crash(2, 0));
    let cluster = range_cluster(4, builder);
    let queries: Vec<ScalarPoint> = (0..8).map(|j| ScalarPoint(25 + 50 * j)).collect();
    for algo in Algorithm::ALL {
        let batch = cluster.query_batch_with(algo, &queries, 6).unwrap();
        assert_eq!(batch.leader, 0, "{algo:?}: the leader survived");
        assert!(batch.degraded, "{algo:?}");
        for (j, q) in queries.iter().enumerate() {
            let single = cluster.query_with(algo, q, 6).unwrap();
            let ans = &batch.answers[j];
            assert_eq!(ans.neighbors, single.neighbors, "{algo:?} query {j}");
            assert!(ans.neighbors.iter().all(|n| n.machine != 2), "{algo:?} query {j}");
            assert_ne!(ans.leader, 2, "{algo:?} query {j}: the dead machine led nothing");
        }
    }
}

/// Algorithm 2 at one sample per `log₂ ℓ` (m = 4 < ℓ = 9, m = 3 < ℓ = 6):
/// its candidate lists are sampled, pruned and selected, where the paper's
/// constants ship every list whole at these ℓ and end at the sampling stage.
/// On that path too, exact batches equal sequential queries for every
/// election, and hold as the prefix of each approximate batch answer, and
/// a coordinator dead from round 0 leaves every answer the survivors'
/// own.
#[test]
fn batch_equals_sequential_on_algorithm_2s_sampled_path() {
    let params = KnnParams { sample_factor: 1, rank_factor: 2 };
    let past_sampling = |ans: &KnnAnswer| ans.metrics.messages > 2 * (ans.shards_used as u64 - 1);
    for election in [ElectionKind::Fixed, ElectionKind::Star, ElectionKind::Flood] {
        let shards = ScalarWorkload { per_machine: 600, lo: 0, hi: 1 << 20 }.generate(5, 3);
        let mut cluster: KnnCluster =
            KnnCluster::builder().machines(5).seed(3).election(election).knn_params(params).build();
        cluster.load_shards(shards).unwrap();
        let queries: Vec<ScalarPoint> = QueryStream::scalar(6, 6, 0, 1 << 20, 11).next().unwrap();
        let exact = cluster.query_batch_with(Algorithm::Knn, &queries, 9).unwrap();
        let approx = cluster.query_batch_approx(&queries, 9).unwrap();
        for (j, q) in queries.iter().enumerate() {
            let what = format!("{election:?} query {j}");
            assert!(past_sampling(&exact.answers[j]), "{what}");
            let solo = cluster.query_with(Algorithm::Knn, q, 9).unwrap();
            assert_eq!(exact.answers[j].neighbors, solo.neighbors, "{what}");
            // The superset depends on the samples drawn, so only its exact
            // prefix is pinned.
            let sup = &approx.answers[j].neighbors;
            assert!(past_sampling(&approx.answers[j]), "{what} approx");
            assert_eq!(sup[..solo.neighbors.len()], solo.neighbors[..], "{what} approx");
        }
    }
    let builder =
        KnnCluster::builder().knn_params(params).faults(FaultPlan::default().with_crash(2, 0));
    let cluster = range_cluster(4, builder);
    let queries: Vec<ScalarPoint> = (0..8).map(|j| ScalarPoint(25 + 50 * j)).collect();
    let batch = cluster.query_batch_with(Algorithm::Knn, &queries, 6).unwrap();
    assert!(batch.degraded);
    for (j, q) in queries.iter().enumerate() {
        let ans = &batch.answers[j];
        assert!(past_sampling(ans), "crash query {j}");
        assert_eq!(ans.neighbors, cluster.query_with(Algorithm::Knn, q, 6).unwrap().neighbors);
        assert!(ans.neighbors.iter().all(|n| n.machine != 2), "crash query {j}");
    }
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
fn simple_crash_probe(crash: u64, armed: bool) -> (KnnAnswer, BatchAnswer) {
    let faults = FaultPlan::default().with_crash(2, crash);
    let mut builder = KnnCluster::builder().algorithm(Algorithm::Simple).faults(faults);
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
    for crash in 0..=5 {
        let (single, batch) = simple_crash_probe(crash, false);
        let label = format!("crash in round {crash}");
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
            assert_eq!((report.degraded, report.attempts), (degraded, attempts), "{label} {path}");
        }
    }
}

#[test]
fn an_armed_audit_never_quarantines_an_honest_cluster() {
    for crash in 0..=5 {
        let (single, batch) = simple_crash_probe(crash, true);
        let (want, want_batch) = simple_crash_probe(crash, false);
        let label = format!("crash in round {crash}");
        for (path, report) in [("single", &single.report), ("batch", &batch.report)] {
            assert!(report.audit.audits_run > 0, "{label} {path}: the audit must run");
            assert_eq!(report.audit.suspects_quarantined, 0, "{label} {path}");
        }
        assert_eq!(single.neighbors, want.neighbors, "{label}");
        assert_eq!(batch.answers[0].neighbors, want_batch.answers[0].neighbors, "{label}");
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

#[test]
fn each_answer_of_a_replanned_batch_reports_its_own_account_and_nothing_of_the_batch() {
    // Machine 2 (not the leader) crashes mid-batch under the gather
    // baseline. Depending on the round, the batch is answered by its first
    // run, re-run whole, or split: queries that completed before the crash
    // keep their first-run answers, the rest are re-planned onto the
    // survivors. Every answer's report must hold exactly its own share —
    // completion round, its tag's traffic, its coordinator, its attempts —
    // plus the batch's final health, and nothing the batch pays once.
    let queries: Vec<ScalarPoint> = QueryStream::scalar(8, 8, 0, 1 << 20, 17).next().unwrap();
    let mut split = false;
    for crash in 1..16 {
        let label = format!("crash in round {crash}");
        let shards = ScalarWorkload { per_machine: 300, lo: 0, hi: 1 << 20 }.generate(4, 3);
        let mut cluster: KnnCluster = KnnCluster::builder()
            .machines(4)
            .seed(3)
            .election(ElectionKind::Star)
            .algorithm(Algorithm::Simple)
            .faults(FaultPlan::default().with_crash(2, crash))
            .build();
        cluster.load_shards(shards).unwrap();
        let leader = cluster.session().unwrap().leader();
        assert_ne!(leader, 2, "{label}: the crash must hit a worker");
        let batch = cluster.query_batch(&queries, 16).unwrap();
        assert!(batch.election_metrics.is_some(), "{label}");
        let attempts: Vec<u32> = batch.answers.iter().map(|a| a.attempts).collect();
        split |= attempts.contains(&1) && attempts.contains(&2);
        for (j, answer) in batch.answers.iter().enumerate() {
            let r = &answer.report;
            let want = Report {
                metrics: RunMetrics {
                    rounds: r.metrics.rounds,
                    messages: r.metrics.messages,
                    bits: r.metrics.bits,
                    ..Default::default()
                },
                wall: Duration::ZERO,
                leader: r.leader,
                election_metrics: None,
                faults: FaultMetrics::default(),
                recovery: RecoveryMetrics::default(),
                audit: AuditMetrics::default(),
                degraded: batch.degraded,
                shards_used: batch.shards_used,
                recovered: r.attempts > 1,
                attempts: r.attempts,
            };
            assert_eq!(to_string_pretty(r), to_string_pretty(&want), "{label} query {j}");
            assert!(r.metrics.rounds > 0 && r.metrics.messages > 0, "{label} query {j}");
            assert!(r.attempts <= batch.attempts, "{label} query {j}");
            if r.attempts == 1 {
                assert_eq!(r.leader, (leader + j) % 4, "{label} query {j}: the first run's spread");
            } else {
                assert_ne!(r.leader, 2, "{label} query {j}: the dead machine leads no re-run");
            }
        }
        if attempts.iter().all(|&a| a == batch.attempts) {
            // One run answered them all: their tag shares partition its bill.
            let messages: u64 = batch.answers.iter().map(|a| a.metrics.messages).sum();
            let bits: u64 = batch.answers.iter().map(|a| a.metrics.bits).sum();
            assert_eq!((messages, bits), (batch.metrics.messages, batch.metrics.bits), "{label}");
        }
        // A single query's report is its run's own, election included.
        let single = cluster.query_with(Algorithm::Simple, &queries[0], 16).unwrap();
        assert!(single.election_metrics.is_some(), "{label}");
        assert_eq!(single.election_metrics, batch.election_metrics, "{label}");
        assert!(!single.metrics.sends_per_machine.is_empty(), "{label}: the run's, per machine");
    }
    assert!(split, "some crash round must split the batch between two runs");
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

//! Engine conformance: relaxed delivery is output-equivalent to lockstep.
//!
//! `DeliveryMode::Relaxed` intentionally breaks the event engine's lockstep
//! *execution* equivalence — machines pipeline rounds past quiet peers —
//! so its correctness contract is **metamorphic**: every observable output
//! of a run (answers, aggregate and per-tag message/bit totals, round
//! accounting, late-delivery counts) must equal `run_sync`'s, while only
//! wall-clock overlap (reported via `SkewMetrics`) may differ. This suite
//! pins that contract over the full serving matrix — all four algorithms ×
//! all three elections × pool sizes {1, 2, 8} — plus a seeded case proving
//! the pipelining is real (recorded max skew > 1), not a no-op mode.
//!
//! The second half is the **wake-driven stepping oracle**: every protocol,
//! solo and multiplexed, against [`Ticking`] — the same protocol with every
//! `Step::Wait` reported as `Step::Continue`, i.e. stepped every round. By
//! `Step::Wait`'s contract the two schedules must agree byte for byte, on
//! every scheduler, fault-free, across a crash-round sweep, and through a
//! crash-and-rejoin.

use std::time::Duration;

use kmachine::engine::{run_event, run_sync};
use kmachine::{
    Ctx, DeliveryMode, Engine, EngineError, FaultMetrics, FaultPlan, MuxProtocol, NetConfig,
    Protocol, RecoveryMetrics, RunMetrics, Step,
};
use knn_core::cluster::{KnnCluster, Neighbor};
use knn_core::protocols::binsearch::BinSearchProtocol;
use knn_core::protocols::saukas_song::SaukasSongProtocol;
use knn_core::protocols::{ApproxKnnProtocol, KnnParams, KnnProtocol, SimpleProtocol};
use knn_core::runner::{Algorithm, ElectionKind};
use knn_points::{Dataset, ScalarPoint};
use knn_workloads::ScalarWorkload;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

const POOLS: [usize; 3] = [1, 2, 8];
const ELECTIONS: [ElectionKind; 3] = [ElectionKind::Fixed, ElectionKind::Star, ElectionKind::Flood];

fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(f)
}

/// Everything observable about one batched serving run plus one single
/// query: per-query answers, per-query attributed costs, aggregate
/// metrics, and the single-query answer/metrics.
#[allow(clippy::type_complexity)]
fn serve(
    engine: Engine,
    delivery: DeliveryMode,
    election: ElectionKind,
    algo: Algorithm,
    seed: u64,
    k: usize,
    ell: usize,
) -> (Vec<Vec<Neighbor>>, Vec<(u64, u64, u64)>, RunMetrics, Vec<Neighbor>, RunMetrics) {
    let shards = ScalarWorkload::small(512).generate(k, seed);
    let mut cluster: KnnCluster = KnnCluster::builder()
        .machines(k)
        .seed(seed)
        .engine(engine)
        .delivery(delivery)
        .election(election)
        .build();
    cluster.load_shards(shards).expect("shard count");
    let queries: Vec<ScalarPoint> =
        (0..6u64).map(|i| ScalarPoint(seed.wrapping_mul(127).wrapping_add(i * 811))).collect();
    let batch = cluster.query_batch_with(algo, &queries, ell).expect("batch");
    let single = cluster.query_with(algo, &queries[0], ell).expect("single");
    (
        batch.answers.iter().map(|a| a.neighbors.clone()).collect(),
        batch
            .answers
            .iter()
            .map(|a| (a.metrics.messages, a.metrics.bits, a.metrics.rounds))
            .collect(),
        batch.report.metrics,
        single.neighbors,
        single.report.metrics,
    )
}

/// The pinned conformance matrix: relaxed event runs reproduce the
/// lockstep outputs and the complete accounting — per-tag message/bit
/// totals included — for every algorithm, election, and pool size.
#[test]
fn relaxed_delivery_matches_sync_across_algorithms_elections_and_pools() {
    let (seed, k, ell) = (42, 4, 8);
    for algo in Algorithm::ALL {
        for election in ELECTIONS {
            let want = with_pool(1, || {
                serve(Engine::Sync, DeliveryMode::Exact, election, algo, seed, k, ell)
            });
            for pool in POOLS {
                let got = with_pool(pool, || {
                    serve(Engine::Event, DeliveryMode::Relaxed, election, algo, seed, k, ell)
                });
                let label = format!("{algo:?}/{election:?}/pool {pool}");
                assert_eq!(got.0, want.0, "batch answers diverged: {label}");
                assert_eq!(got.1, want.1, "per-query msg/bit/round attribution: {label}");
                assert_eq!(got.2, want.2, "aggregate batch metrics (incl. per_tag): {label}");
                assert_eq!(got.3, want.3, "single-query answer: {label}");
                assert_eq!(got.4, want.4, "single-query metrics: {label}");
                // Per-tag totals must partition the aggregate in relaxed
                // mode too, not merely match field-by-field.
                let tag_msgs: u64 = got.2.per_tag.iter().map(|t| t.messages).sum();
                let tag_bits: u64 = got.2.per_tag.iter().map(|t| t.bits).sum();
                assert_eq!(tag_msgs, got.2.messages, "per-tag messages partition: {label}");
                assert_eq!(tag_bits, got.2.bits, "per-tag bits partition: {label}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Metamorphic sweep: random workload shapes through the serving path,
    /// relaxed event vs lockstep, byte-equal observables.
    #[test]
    fn prop_relaxed_serving_is_output_equivalent(
        seed in 0u64..1000,
        k in 2usize..6,
        ell in 1usize..20,
    ) {
        for algo in [Algorithm::Knn, Algorithm::Simple] {
            let want = with_pool(1, || {
                serve(Engine::Sync, DeliveryMode::Exact, ElectionKind::Fixed, algo, seed, k, ell)
            });
            for pool in [2usize, 8] {
                let got = with_pool(pool, || {
                    serve(
                        Engine::Event,
                        DeliveryMode::Relaxed,
                        ElectionKind::Fixed,
                        algo,
                        seed,
                        k,
                        ell,
                    )
                });
                prop_assert_eq!(&got.0, &want.0, "answers: {:?} pool {}", algo, pool);
                prop_assert_eq!(&got.2, &want.2, "metrics: {:?} pool {}", algo, pool);
            }
        }
    }
}

/// Machine 0 pumps one word per round; machine 1 declares a permanent
/// silent horizon, only accumulates, and is artificially slow. The pump
/// must overtake it by more than one round — the overlap exact delivery
/// can never produce — while the outcome stays byte-identical.
enum PumpOrQuiet {
    Pump { rounds: u64 },
    Quiet { expect: u64, got: u64, sleep: Duration },
}

impl Protocol for PumpOrQuiet {
    type Msg = u64;
    type Output = u64;

    fn quiet_until(&self) -> Option<u64> {
        match self {
            PumpOrQuiet::Pump { .. } => None,
            PumpOrQuiet::Quiet { .. } => Some(u64::MAX),
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
        match self {
            PumpOrQuiet::Pump { rounds } => {
                if ctx.round() < *rounds {
                    ctx.send(1, ctx.round());
                    Step::Continue
                } else {
                    Step::Done(ctx.round())
                }
            }
            PumpOrQuiet::Quiet { expect, got, sleep } => {
                if !sleep.is_zero() {
                    std::thread::sleep(*sleep);
                }
                *got += ctx.inbox().len() as u64;
                if got == expect {
                    Step::Done(*got)
                } else {
                    Step::Continue
                }
            }
        }
    }
}

fn pump_protocols(rounds: u64, sleep: Duration) -> Vec<PumpOrQuiet> {
    vec![PumpOrQuiet::Pump { rounds }, PumpOrQuiet::Quiet { expect: rounds, got: 0, sleep }]
}

/// The seeded pipelining proof: recorded max skew **exceeds one round**,
/// which the exact-delivery readiness rule makes impossible — so the
/// conformance equalities above are constraining a genuinely different
/// execution, not a renamed exact mode.
#[test]
fn seeded_case_records_multi_round_skew() {
    let rounds = 24;
    let cfg = NetConfig::new(2)
        .with_seed(7)
        .with_event_workers(2)
        .with_event_window(4)
        .with_delivery(DeliveryMode::Relaxed);
    let want = run_sync(&cfg, pump_protocols(rounds, Duration::ZERO)).expect("sync");
    let got = run_event(&cfg, pump_protocols(rounds, Duration::from_micros(500))).expect("relaxed");
    assert_eq!(want.outputs, got.outputs);
    assert_eq!(want.metrics, got.metrics);
    assert!(
        got.skew.max_skew > 1,
        "pipelining must be real: recorded max skew {} (exact delivery caps at 1)",
        got.skew.max_skew
    );
    assert!(got.skew.max_skew <= 4, "and bounded by the window: {}", got.skew.max_skew);
    assert!(got.skew.promised_rounds > 0);
    assert!(!want.skew.tracked(), "the lockstep reference reports no skew");
    println!(
        "seeded relaxed run: max skew {} (window 4), {} promised rounds, {} promises",
        got.skew.max_skew, got.skew.promised_rounds, got.skew.promises_published
    );
}

/// The serving layer surfaces the skew evidence: a relaxed batch on a
/// multi-worker pool reports tracked `SkewMetrics` on the `BatchAnswer`,
/// and an exact batch reports none.
#[test]
fn batch_answer_surfaces_skew_evidence() {
    let k = 4;
    let shards = ScalarWorkload::small(512).generate(k, 11);
    let mut cluster: KnnCluster = KnnCluster::builder()
        .machines(k)
        .seed(11)
        .engine(Engine::Event)
        .delivery(DeliveryMode::Relaxed)
        .build();
    cluster.load_shards(shards).expect("shard count");
    let queries: Vec<ScalarPoint> = (0..4u64).map(|i| ScalarPoint(i * 1000)).collect();
    let relaxed = with_pool(4, || cluster.query_batch(&queries, 6).expect("relaxed batch"));
    // A KNN_ENGINE override to the lockstep engine would suppress tracking;
    // only the event engine (requested here, or forced) records skew.
    let engine_forced_off =
        std::env::var(kmachine::ENGINE_ENV).is_ok_and(|v| v.trim().eq_ignore_ascii_case("sync"));
    if !engine_forced_off {
        assert!(relaxed.skew.tracked(), "relaxed multi-worker batches must report skew");
        assert_eq!(relaxed.skew.max_skew_per_machine.len(), k);
    }
    cluster.set_delivery(DeliveryMode::Exact);
    let exact = with_pool(4, || cluster.query_batch(&queries, 6).expect("exact batch"));
    // A KNN_DELIVERY override re-relaxes the "exact" run, so only assert
    // the absence of skew when the environment isn't forcing the mode.
    let delivery_forced = std::env::var(kmachine::DELIVERY_ENV).is_ok_and(|v| !v.trim().is_empty());
    if !delivery_forced {
        assert!(!exact.skew.tracked(), "exact batches report none");
    }
    assert_eq!(relaxed.metrics, exact.metrics, "the bill is identical either way");
}

/// True when neither the engine nor the delivery environment override is
/// set — the Auto downgrade policy under test only runs in a clean
/// environment (any forced engine or mode rewrites the policy itself).
fn env_clean() -> bool {
    std::env::var(kmachine::ENGINE_ENV).map_or(true, |v| v.trim().is_empty())
        && std::env::var(kmachine::DELIVERY_ENV).map_or(true, |v| v.trim().is_empty())
}

/// Regression for the silent relaxed→exact downgrade: `Engine::Auto` used
/// to discard a requested `DeliveryMode::Relaxed` for *every* protocol,
/// because none declared quiet phases (`QUIET_AWARE`). The serving
/// algorithms now opt in, so an Auto cluster asked for relaxed delivery
/// must actually pipeline — tracked `SkewMetrics` on the batch — while
/// still reproducing the lockstep answers and accounting byte-for-byte.
/// `SaukasSong` deliberately stays opted out (its phases are never quiet
/// long enough to pay for promise bookkeeping), and the downgrade must
/// keep applying there.
#[test]
fn auto_engine_keeps_relaxed_delivery_for_quiet_aware_algorithms() {
    let (seed, k, ell) = (23, 4, 8);
    for algo in Algorithm::ALL {
        let want = with_pool(1, || {
            serve(Engine::Sync, DeliveryMode::Exact, ElectionKind::Fixed, algo, seed, k, ell)
        });
        // k × default per-link budget meets Auto's work threshold, and the
        // 8-thread pool clears its parallelism bar, so Auto resolves to the
        // event engine here — the only engine where the downgrade matters.
        let (got, skew) = with_pool(8, || {
            let shards = ScalarWorkload::small(512).generate(k, seed);
            let mut cluster: KnnCluster = KnnCluster::builder()
                .machines(k)
                .seed(seed)
                .engine(Engine::Auto)
                .delivery(DeliveryMode::Relaxed)
                .election(ElectionKind::Fixed)
                .build();
            cluster.load_shards(shards).expect("shard count");
            let queries: Vec<ScalarPoint> = (0..6u64)
                .map(|i| ScalarPoint(seed.wrapping_mul(127).wrapping_add(i * 811)))
                .collect();
            let batch = cluster.query_batch_with(algo, &queries, ell).expect("batch");
            let answers: Vec<Vec<Neighbor>> =
                batch.answers.iter().map(|a| a.neighbors.clone()).collect();
            ((answers, batch.report.metrics), batch.report.skew)
        });
        assert_eq!(got.0, want.0, "auto/relaxed answers diverged: {algo:?}");
        assert_eq!(got.1, want.2, "auto/relaxed aggregate metrics: {algo:?}");
        if env_clean() {
            let quiet_aware = !matches!(algo, Algorithm::SaukasSong);
            assert_eq!(
                skew.tracked(),
                quiet_aware,
                "{algo:?}: Auto + Relaxed must {} (QUIET_AWARE = {quiet_aware})",
                if quiet_aware { "pipeline, not silently downgrade to exact" } else { "downgrade" },
            );
        }
    }
}

/// Fault-plan stragglers through a real algorithm: `BinSearch` with an
/// empty shard on the slow machine. The empty worker reports its census
/// once and then goes quiet forever, so under relaxed delivery the leader
/// and the working shards pipeline multiple rounds past it — recorded max
/// skew **exceeds one round** for a non-trivial serving algorithm, while
/// every answer and every metric stays byte-identical to the fault-free
/// lockstep run (stragglers are pure wall-clock, never observable state).
#[test]
fn binsearch_straggler_records_multi_round_skew() {
    let (seed, k, ell) = (5u64, 4usize, 6usize);
    let mut shards = ScalarWorkload::small(512).generate(k, seed);
    shards[3] = Dataset::new(Vec::new());
    let queries: Vec<ScalarPoint> =
        (0..6u64).map(|i| ScalarPoint(seed.wrapping_mul(127).wrapping_add(i * 811))).collect();

    let mut baseline: KnnCluster = KnnCluster::builder()
        .machines(k)
        .seed(seed)
        .engine(Engine::Sync)
        .election(ElectionKind::Fixed)
        .build();
    baseline.load_shards(shards.clone()).expect("shard count");
    let want = baseline.query_batch_with(Algorithm::BinSearch, &queries, ell).expect("baseline");

    let mut straggling: KnnCluster = KnnCluster::builder()
        .machines(k)
        .seed(seed)
        .engine(Engine::Event)
        .delivery(DeliveryMode::Relaxed)
        .election(ElectionKind::Fixed)
        .faults(FaultPlan::default().with_straggler(3, 16))
        .build();
    straggling.load_shards(shards).expect("shard count");
    let got =
        with_pool(4, || straggling.query_batch_with(Algorithm::BinSearch, &queries, ell)).unwrap();

    let want_answers: Vec<&Vec<Neighbor>> = want.answers.iter().map(|a| &a.neighbors).collect();
    let got_answers: Vec<&Vec<Neighbor>> = got.answers.iter().map(|a| &a.neighbors).collect();
    assert_eq!(got_answers, want_answers, "straggler runs must be byte-identical");
    assert_eq!(got.metrics, want.metrics, "stragglers never change the bill");
    assert!(!got.degraded, "a slow machine is not a failed machine");
    assert_eq!(got.shards_used, k);
    assert!(!got.faults.any(), "stragglers are wall-clock only, not realized faults");
    let engine_forced_off =
        std::env::var(kmachine::ENGINE_ENV).is_ok_and(|v| v.trim().eq_ignore_ascii_case("sync"));
    let delivery_forced_exact =
        std::env::var(kmachine::DELIVERY_ENV).is_ok_and(|v| v.trim().eq_ignore_ascii_case("exact"));
    if !engine_forced_off && !delivery_forced_exact {
        assert!(
            got.skew.max_skew > 1,
            "the working shards must pipeline past the straggler: max skew {}",
            got.skew.max_skew
        );
        println!(
            "binsearch straggler run: max skew {} (window 4), {} promised rounds",
            got.skew.max_skew, got.skew.promised_rounds
        );
    }
}

/// The always-step schedule: `P` with every [`Step::Wait`] reported as
/// [`Step::Continue`], so neither the machine step nor the mux ever skips it.
struct Ticking<P>(P);

impl<P: Protocol> Protocol for Ticking<P> {
    type Msg = P::Msg;
    type Output = P::Output;
    const QUIET_AWARE: bool = P::QUIET_AWARE;

    fn on_round(&mut self, ctx: &mut Ctx<'_, P::Msg>) -> Step<P::Output> {
        match self.0.on_round(ctx) {
            Step::Wait | Step::Continue => Step::Continue,
            Step::Done(out) => Step::Done(out),
        }
    }
    fn quiet_until(&self) -> Option<u64> {
        self.0.quiet_until()
    }
    fn on_crash(&mut self) -> Option<P::Output> {
        self.0.on_crash()
    }
    fn checkpoint(&self) -> Option<Vec<u8>> {
        self.0.checkpoint()
    }
    fn restore(&mut self, blob: &[u8]) -> bool {
        self.0.restore(blob)
    }
}

/// Everything a run leaves behind except wall clock and realized skew:
/// outputs (a mux's `done_round` included), the whole of `RunMetrics`
/// (`per_tag`, `sends_per_machine`, `max_link_backlog_bits`,
/// `delivered_after_done`), realized faults and recoveries — or the error.
type Observed<T> = Result<(Vec<T>, RunMetrics, FaultMetrics, RecoveryMetrics), EngineError>;

/// (event workers, delivery): `None` is `run_sync`.
const SCHEDULERS: [Option<(usize, DeliveryMode)>; 5] = [
    None,
    Some((1, DeliveryMode::Exact)),
    Some((1, DeliveryMode::Relaxed)),
    Some((2, DeliveryMode::Exact)),
    Some((2, DeliveryMode::Relaxed)),
];

fn observe<P: Protocol>(
    cfg: &NetConfig,
    scheduler: Option<(usize, DeliveryMode)>,
    protos: Vec<P>,
) -> Observed<P::Output> {
    let out = match scheduler {
        None => run_sync(cfg, protos),
        Some((workers, delivery)) => {
            run_event(&cfg.clone().with_event_workers(workers).with_delivery(delivery), protos)
        }
    };
    out.map(|o| (o.outputs, o.metrics, o.faults, o.recovery))
}

const ORACLE_ELL: u64 = 8;

/// Machine `i`'s raw keys for query `j`: 48 distinct words, a different
/// order (and so a different answer) per query.
fn oracle_keys(i: usize, j: usize) -> Vec<u64> {
    (0..48u64)
        .map(|x| (x * 8 + i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (j as u64) << 20)
        .collect()
}

/// `P` and `Ticking<P>` leave identical observables under `cfg`, solo and
/// multiplexed (m = 1, 8, 64), on every scheduler. `seat(i, j)` is machine
/// `i`'s instance for query `j`.
fn assert_wait_is_a_noop<P>(what: &str, cfg: &NetConfig, seat: &impl Fn(usize, usize) -> P)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    let k = cfg.k;
    for scheduler in SCHEDULERS {
        let label = format!("{what} on {scheduler:?}");
        assert_eq!(
            observe(cfg, scheduler, (0..k).map(|i| seat(i, 0)).collect()),
            observe(cfg, scheduler, (0..k).map(|i| Ticking(seat(i, 0))).collect()),
            "solo {label}"
        );
        for m in [1usize, 8, 64] {
            let waking =
                (0..k).map(|i| MuxProtocol::new((0..m).map(|j| seat(i, j)).collect())).collect();
            let ticking = (0..k)
                .map(|i| MuxProtocol::new((0..m).map(|j| Ticking(seat(i, j))).collect()))
                .collect();
            assert_eq!(
                observe(cfg, scheduler, waking),
                observe(cfg, scheduler, ticking),
                "mux m = {m} {label}"
            );
        }
    }
}

/// Fault-free, then the last of `k` machines fail-stopping at every round
/// of the run's opening — the sweep `session.rs` re-plans lost queries over.
fn sweep_crashes<P>(what: &str, k: usize, seat: impl Fn(usize, usize) -> P)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    let cfg = NetConfig::new(k).with_seed(29);
    assert_wait_is_a_noop(&format!("{what} k = {k} fault-free"), &cfg, &seat);
    for r in 0..24 {
        let cfg = cfg.clone().with_faults(FaultPlan::default().with_crash(k - 1, r));
        assert_wait_is_a_noop(&format!("{what} k = {k} crash@{r}"), &cfg, &seat);
    }
}

/// Machine 1 of four down at `crash`, restored and replayed at `rejoin`:
/// the two checkpointing protocols, through the recovery wrapper.
fn sweep_rejoins<P>(what: &str, seat: impl Fn(usize, usize) -> P)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    for (crash, rejoin) in [(0, 2), (1, 3), (2, 6), (3, 4), (5, 11)] {
        let cfg = NetConfig::new(4).with_seed(29).with_rejoin(1, crash, rejoin);
        assert_wait_is_a_noop(&format!("{what} rejoin {crash}->{rejoin}"), &cfg, &seat);
    }
}

#[test]
fn waiting_is_a_noop_for_algorithm_2() {
    sweep_crashes("knn", 4, |i, j| {
        KnnProtocol::from_keys(i, 4, 0, ORACLE_ELL, KnnParams::default(), oracle_keys(i, j))
    });
}

#[test]
fn waiting_is_a_noop_for_simple() {
    let seat = |i, j| SimpleProtocol::from_keys(i, 0, ORACLE_ELL, 3, oracle_keys(i, j));
    sweep_crashes("simple", 4, seat);
    // One worker, dead before it ever sent: no mail will tell the leader, so
    // only a leader that keeps ticking writes it off. (At k = 4 the other
    // workers' batches happen to wake a leader that wrongly waits.)
    sweep_crashes("simple", 2, seat);
    sweep_rejoins("simple", seat);
}

#[test]
fn waiting_is_a_noop_for_saukas_song() {
    sweep_crashes("saukas-song", 4, |i, j| {
        SaukasSongProtocol::from_keys(i, 4, 0, ORACLE_ELL, oracle_keys(i, j))
    });
}

#[test]
fn waiting_is_a_noop_for_binsearch() {
    let seat = |i, j| BinSearchProtocol::from_keys(i, 4, 0, ORACLE_ELL, oracle_keys(i, j));
    sweep_crashes("binsearch", 4, seat);
    sweep_rejoins("binsearch", seat);
}

#[test]
fn waiting_is_a_noop_for_approx() {
    sweep_crashes("approx", 4, |i, j| {
        ApproxKnnProtocol::from_keys(i, 4, 0, ORACLE_ELL, KnnParams::default(), oracle_keys(i, j))
    });
}

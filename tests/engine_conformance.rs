//! Engine conformance and the wake oracle.
//!
//! The event scheduler runs machines concurrently, each as soon as every
//! peer has published the previous round, so its correctness contract is
//! that every observable output of a run (answers, aggregate and per-tag
//! message/bit totals, round accounting, late-delivery counts) equals
//! `run_sync`'s; only the wall clock may differ. The first half pins that
//! contract over the full serving matrix — all four algorithms × all three
//! elections × pool sizes {1, 2, 8} — and over random workload shapes.
//!
//! The second half is the **wake-driven stepping oracle**: every protocol,
//! solo and multiplexed, against [`Ticking`] — the same protocol with every
//! `Step::Wait` reported as `Step::Continue`, i.e. stepped every round. By
//! `Step::Wait`'s contract the two schedules must agree byte for byte, on
//! every scheduler, fault-free, across a crash-round sweep, and through a
//! crash-and-rejoin.

use kmachine::engine::{run_event, run_sync};
use kmachine::{
    Ctx, Engine, EngineError, FaultMetrics, FaultPlan, MuxProtocol, NetConfig, Protocol,
    RecoveryMetrics, RunMetrics, Step,
};
use knn_core::cluster::{KnnCluster, Neighbor};
use knn_core::protocols::binsearch::BinSearchProtocol;
use knn_core::protocols::saukas_song::SaukasSongProtocol;
use knn_core::protocols::{ApproxKnnProtocol, KnnParams, KnnProtocol, SimpleProtocol};
use knn_core::runner::{Algorithm, ElectionKind};
use knn_points::ScalarPoint;
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
    election: ElectionKind,
    algo: Algorithm,
    seed: u64,
    k: usize,
    ell: usize,
) -> (Vec<Vec<Neighbor>>, Vec<(u64, u64, u64)>, RunMetrics, Vec<Neighbor>, RunMetrics) {
    let shards = ScalarWorkload::small(512).generate(k, seed);
    let mut cluster: KnnCluster =
        KnnCluster::builder().machines(k).seed(seed).engine(engine).election(election).build();
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

/// The pinned conformance matrix: event runs reproduce the lockstep
/// outputs and the complete accounting — per-tag message/bit totals
/// included — for every algorithm, election, and pool size.
#[test]
fn event_matches_sync_across_algorithms_elections_and_pools() {
    let (seed, k, ell) = (42, 4, 8);
    for algo in Algorithm::ALL {
        for election in ELECTIONS {
            let want = with_pool(1, || serve(Engine::Sync, election, algo, seed, k, ell));
            for pool in POOLS {
                let got = with_pool(pool, || serve(Engine::Event, election, algo, seed, k, ell));
                let label = format!("{algo:?}/{election:?}/pool {pool}");
                assert_eq!(got.0, want.0, "batch answers diverged: {label}");
                assert_eq!(got.1, want.1, "per-query msg/bit/round attribution: {label}");
                assert_eq!(got.2, want.2, "aggregate batch metrics (incl. per_tag): {label}");
                assert_eq!(got.3, want.3, "single-query answer: {label}");
                assert_eq!(got.4, want.4, "single-query metrics: {label}");
                // Per-tag totals must partition the aggregate, not merely
                // match field-by-field.
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
    /// event vs lockstep, byte-equal observables.
    #[test]
    fn prop_event_serving_is_output_equivalent(
        seed in 0u64..1000,
        k in 2usize..6,
        ell in 1usize..20,
    ) {
        for algo in [Algorithm::Knn, Algorithm::Simple] {
            let want =
                with_pool(1, || serve(Engine::Sync, ElectionKind::Fixed, algo, seed, k, ell));
            for pool in [2usize, 8] {
                let got = with_pool(pool, || {
                    serve(Engine::Event, ElectionKind::Fixed, algo, seed, k, ell)
                });
                prop_assert_eq!(&got.0, &want.0, "answers: {:?} pool {}", algo, pool);
                prop_assert_eq!(&got.2, &want.2, "metrics: {:?} pool {}", algo, pool);
            }
        }
    }
}

/// The always-step schedule: `P` with every [`Step::Wait`] reported as
/// [`Step::Continue`], so neither the machine step nor the mux ever skips it.
struct Ticking<P>(P);

impl<P: Protocol> Protocol for Ticking<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_round(&mut self, ctx: &mut Ctx<'_, P::Msg>) -> Step<P::Output> {
        match self.0.on_round(ctx) {
            Step::Wait | Step::Continue => Step::Continue,
            Step::Done(out) => Step::Done(out),
        }
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

/// Everything a run leaves behind except wall clock: outputs (a mux's
/// `done_round` included), the whole of `RunMetrics` (`per_tag`,
/// `sends_per_machine`, `max_link_backlog_bits`, `delivered_after_done`),
/// realized faults and recoveries — or the error.
type Observed<T> = Result<(Vec<T>, RunMetrics, FaultMetrics, RecoveryMetrics), EngineError>;

/// Event workers: `None` is `run_sync`.
const SCHEDULERS: [Option<usize>; 3] = [None, Some(1), Some(2)];

fn observe<P: Protocol>(
    cfg: &NetConfig,
    scheduler: Option<usize>,
    protos: Vec<P>,
) -> Observed<P::Output> {
    let out = match scheduler {
        None => run_sync(cfg, protos),
        Some(workers) => run_event(&cfg.clone().with_event_workers(workers), protos),
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

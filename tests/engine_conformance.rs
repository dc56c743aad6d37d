//! The wake oracle.
//!
//! Every protocol, solo and multiplexed, against [`Ticking`] — the same
//! protocol with every `Step::Wait` reported as `Step::Continue`, i.e.
//! stepped every round. By `Step::Wait`'s contract the two schedules must
//! agree byte for byte — fault-free and across a crash-round sweep.

use kmachine::engine::run_sync;
use kmachine::{
    Ctx, EngineError, FaultMetrics, FaultPlan, MuxProtocol, NetConfig, Protocol, RunMetrics, Step,
};
use knn_core::protocols::binsearch::BinSearchProtocol;
use knn_core::protocols::saukas_song::SaukasSongProtocol;
use knn_core::protocols::{top_ell, KnnParams, KnnProtocol, SelectCore, SimpleProtocol};

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
}

/// Everything a run leaves behind except wall clock: outputs (a mux's
/// `done_round` included), the whole of `RunMetrics` (`per_tag`,
/// `sends_per_machine`, `max_link_backlog_bits`, `delivered_after_done`),
/// realized faults — or the error.
type Observed<T> = Result<(Vec<T>, RunMetrics, FaultMetrics), EngineError>;

fn observe<P: Protocol>(cfg: &NetConfig, protos: Vec<P>) -> Observed<P::Output> {
    run_sync(cfg, protos).map(|o| (o.outputs, o.metrics, o.faults))
}

const ORACLE_ELL: u64 = 8;

/// Machine `i`'s raw keys for query `j`: 48 distinct words, a different
/// order (and so a different answer) per query.
fn oracle_keys(i: usize, j: usize) -> Vec<u64> {
    (0..48u64)
        .map(|x| (x * 8 + i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (j as u64) << 20)
        .collect()
}

/// Machine `i`'s candidates for query `j`: its sorted top ℓ.
fn oracle_candidates(i: usize, j: usize) -> Vec<u64> {
    top_ell(oracle_keys(i, j), ORACLE_ELL)
}

/// `P` and `Ticking<P>` leave identical observables under `cfg`, solo and
/// multiplexed (m = 1, 8, 64). `seat(i, j)` is machine `i`'s instance for
/// query `j`.
fn assert_wait_is_a_noop<P>(what: &str, cfg: &NetConfig, seat: &impl Fn(usize, usize) -> P)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    let k = cfg.k;
    assert_eq!(
        observe(cfg, (0..k).map(|i| seat(i, 0)).collect()),
        observe(cfg, (0..k).map(|i| Ticking(seat(i, 0))).collect()),
        "solo {what}"
    );
    for m in [1usize, 8, 64] {
        let waking =
            (0..k).map(|i| MuxProtocol::new((0..m).map(|j| seat(i, j)).collect())).collect();
        let ticking = (0..k)
            .map(|i| MuxProtocol::new((0..m).map(|j| Ticking(seat(i, j))).collect()))
            .collect();
        assert_eq!(observe(cfg, waking), observe(cfg, ticking), "mux m = {m} {what}");
    }
}

/// Fault-free, then the coordinator (machine 0, every seat's leader) and
/// the last of `k` machines each fail-stopping at every round of the run's
/// opening — the sweep `session.rs` re-plans lost queries over.
fn sweep_crashes<P>(what: &str, k: usize, seat: impl Fn(usize, usize) -> P)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    let cfg = NetConfig::new(k).with_seed(29);
    assert_wait_is_a_noop(&format!("{what} k = {k} fault-free"), &cfg, &seat);
    for victim in [0, k - 1] {
        for r in 0..24 {
            let cfg = cfg.clone().with_faults(FaultPlan::default().with_crash(victim, r));
            assert_wait_is_a_noop(&format!("{what} k = {k} crash {victim}@{r}"), &cfg, &seat);
        }
    }
}

#[test]
fn waiting_is_a_noop_for_algorithm_2() {
    sweep_crashes("knn", 4, |i, j| {
        KnnProtocol::new(i, 4, 0, ORACLE_ELL, KnnParams::default(), oracle_candidates(i, j))
    });
}

/// Algorithm 2 at one sample per `log₂ ℓ`: m = 3 < ℓ = 8, so the lists are
/// sampled, pruned and finished by Algorithm 1 (or only pruned, prune-only),
/// where the paper's constants (m = 36) ship them whole and end at the
/// sampling stage.
fn sampled_knn(i: usize, j: usize, prune_only: bool) -> KnnProtocol<u64> {
    let params = KnnParams { sample_factor: 1, rank_factor: 2 };
    let p = KnnProtocol::new(i, 4, 0, ORACLE_ELL, params, oracle_candidates(i, j));
    if prune_only {
        p.prune_only()
    } else {
        p
    }
}

/// The sampled path's crash sweep, after checking that its fault-free run
/// does go past the sampling stage (the short cut sends exactly `2(k − 1)`
/// messages) and answers like brute force: the exact run with the ℓ
/// smallest keys, the prune-only run with a superset holding them first.
fn sweep_sampled(what: &str, prune_only: bool) {
    let solo = run_sync(
        &NetConfig::new(4).with_seed(29),
        (0..4).map(|i| sampled_knn(i, 0, prune_only)).collect(),
    )
    .expect("fault-free run");
    assert!(solo.metrics.messages > 2 * 3, "{what}: the run ended at the sampling stage");
    let mut got: Vec<u64> = solo.outputs.into_iter().flat_map(|o| o.keys).collect();
    got.sort_unstable();
    let want = top_ell((0..4).flat_map(|i| oracle_keys(i, 0)), ORACLE_ELL);
    if prune_only {
        assert_eq!(got[..want.len()], want[..], "{what}");
    } else {
        assert_eq!(got, want, "{what}");
    }
    sweep_crashes(what, 4, |i, j| sampled_knn(i, j, prune_only));
}

#[test]
fn waiting_is_a_noop_for_sampled_algorithm_2() {
    sweep_sampled("sampled knn", false);
}

/// Standalone Algorithm 1 over each machine's whole raw key set, as the
/// Theorem 2.2 table runs it.
#[test]
fn waiting_is_a_noop_for_algorithm_1() {
    sweep_crashes("algorithm 1", 4, |i, j| SelectCore::new(i, 4, 0, ORACLE_ELL, oracle_keys(i, j)));
}

#[test]
fn waiting_is_a_noop_for_simple() {
    let seat = |i, j| SimpleProtocol::new(i, 0, ORACLE_ELL, 3, oracle_candidates(i, j));
    sweep_crashes("simple", 4, seat);
    // One worker, dead before it ever sent: no mail will tell the leader, so
    // only a leader that keeps ticking writes it off. (At k = 4 the other
    // workers' batches happen to wake a leader that wrongly waits.)
    sweep_crashes("simple", 2, seat);
}

#[test]
fn waiting_is_a_noop_for_saukas_song() {
    sweep_crashes("saukas-song", 4, |i, j| {
        SaukasSongProtocol::new(i, 4, 0, ORACLE_ELL, oracle_candidates(i, j))
    });
}

#[test]
fn waiting_is_a_noop_for_binsearch() {
    let seat = |i, j| BinSearchProtocol::new(i, 4, 0, ORACLE_ELL, oracle_candidates(i, j));
    sweep_crashes("binsearch", 4, seat);
}

#[test]
fn waiting_is_a_noop_for_approx() {
    sweep_crashes("approx", 4, |i, j| {
        KnnProtocol::new(i, 4, 0, ORACLE_ELL, KnnParams::default(), oracle_candidates(i, j))
            .prune_only()
    });
}

#[test]
fn waiting_is_a_noop_for_sampled_approx() {
    sweep_sampled("sampled approx", true);
}

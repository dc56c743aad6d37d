//! The wake oracle.
//!
//! Every protocol, solo and multiplexed, against [`Ticking`] — the same
//! protocol with every `Step::Wait` reported as `Step::Continue`, i.e.
//! stepped every round. By `Step::Wait`'s contract the two schedules must
//! agree byte for byte — fault-free, across a crash-round sweep, and
//! through a crash-and-rejoin.

use kmachine::engine::run_sync;
use kmachine::{
    Ctx, EngineError, FaultMetrics, FaultPlan, MuxProtocol, NetConfig, Protocol, RecoveryMetrics,
    RunMetrics, Step,
};
use knn_core::protocols::binsearch::BinSearchProtocol;
use knn_core::protocols::saukas_song::SaukasSongProtocol;
use knn_core::protocols::{KnnParams, KnnProtocol, SimpleProtocol};

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

fn observe<P: Protocol>(cfg: &NetConfig, protos: Vec<P>) -> Observed<P::Output> {
    run_sync(cfg, protos).map(|o| (o.outputs, o.metrics, o.faults, o.recovery))
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
        KnnProtocol::from_keys(i, 4, 0, ORACLE_ELL, KnnParams::default(), oracle_keys(i, j))
            .prune_only()
    });
}

//! Crash-recovery: protocol checkpoints, outage buffering, and replay.
//!
//! A [`crate::config::RecoveryPlan`] schedules machines to *crash then
//! rejoin*: go dark at a crash round, come back at a rejoin round restored
//! from their last [`crate::Protocol::checkpoint`], and catch up by
//! replaying the rounds in between from retained per-round inboxes. The
//! whole mechanism lives in one protocol wrapper,
//! [`Recovering`], that the engine applies when the plan is non-empty — so
//! the engine's own footprint shrinks to plan validation, stall
//! suppression while a rejoin is still pending, and attaching
//! [`RecoveryMetrics`] to the outcome.
//!
//! # Why the recovered run's answers match the fault-free run's
//!
//! During the outage the wrapper keeps cycling rounds but executes nothing
//! and sends nothing; peers that need the machine's data simply wait (every
//! protocol in this tree is content-driven — it waits for messages, not for
//! round numbers — which it already must be to survive bandwidth-induced
//! delivery delay). At the rejoin round the wrapper restores the inner
//! protocol from the checkpoint *with the checkpointed RNG and send-sequence
//! counter*, then re-executes the missing rounds against the retained
//! inboxes. Replayed rounds the machine had really executed before crashing
//! regenerate sends that were already delivered — those are discarded (their
//! sequence numbers are still consumed, reproducing fault-free numbering) —
//! while sends from outage rounds are emitted now, carrying their replayed
//! `sent_round` and sequence numbers. The effect on the network is exactly a
//! temporary bandwidth narrowing on the machine's outgoing links: the same
//! messages flow with the same identities, only later. Outputs, message
//! totals, and per-machine send counts therefore equal the fault-free run;
//! only the round count may stretch.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use rand::rngs::StdRng;

use crate::config::NetConfig;
use crate::ctx::Ctx;
use crate::engine::RunOutcome;
use crate::error::EngineError;
use crate::message::Envelope;
use crate::metrics::RecoveryMetrics;
use crate::protocol::{Protocol, Step};

/// Per-machine rejoin horizons for [`Ctx::rejoined`] (`u64::MAX`: never
/// scheduled), indexed by machine id.
pub(crate) fn rejoin_horizons(cfg: &NetConfig) -> Vec<u64> {
    (0..cfg.k).map(|i| cfg.recovery.rejoin_round(i)).collect()
}

/// Reject self-contradictory fault/recovery plans before any protocol
/// executes.
pub(crate) fn validate(cfg: &NetConfig) -> Result<(), EngineError> {
    let invalid = |reason: String| Err(EngineError::InvalidPlan { reason });
    if cfg.faults.loss_per_mille > 1000 {
        return invalid(format!(
            "loss_per_mille {} exceeds 1000 (100% loss)",
            cfg.faults.loss_per_mille
        ));
    }
    for (i, &(m, r)) in cfg.faults.crashes.iter().enumerate() {
        if cfg.faults.crashes[..i].iter().any(|&(m2, _)| m2 == m) {
            return invalid(format!(
                "machine {m} has duplicate crash entries (second at round {r})"
            ));
        }
    }
    for &(m, _) in &cfg.adversary.lies {
        if m >= cfg.k {
            return invalid(format!("lie entry for machine {m} out of range (k = {})", cfg.k));
        }
    }
    for &m in &cfg.adversary.equivocators {
        if m >= cfg.k {
            return invalid(format!(
                "equivocator entry for machine {m} out of range (k = {})",
                cfg.k
            ));
        }
    }
    for &(src, dst, p) in &cfg.adversary.corrupt_links {
        if p > 1000 {
            return invalid(format!(
                "corrupt link {src} -> {dst}: per_mille {p} exceeds 1000 (100% corruption)"
            ));
        }
        if src >= cfg.k || dst >= cfg.k || src == dst {
            return invalid(format!(
                "corrupt link {src} -> {dst} is not an ordered link of a {}-machine cluster",
                cfg.k
            ));
        }
    }
    let plan = &cfg.recovery;
    for (i, &(m, c, j)) in plan.rejoins.iter().enumerate() {
        if m >= cfg.k {
            return invalid(format!("rejoin entry for machine {m} out of range (k = {})", cfg.k));
        }
        if j <= c {
            return invalid(format!(
                "machine {m} rejoins at round {j}, at-or-before its crash round {c}"
            ));
        }
        if plan.rejoins[..i].iter().any(|&(m2, _, _)| m2 == m) {
            return invalid(format!("machine {m} has duplicate rejoin entries"));
        }
        if cfg.faults.crashes.iter().any(|&(m2, _)| m2 == m) {
            return invalid(format!(
                "machine {m} is both fail-stopped (FaultPlan) and scheduled to rejoin \
                 (RecoveryPlan)"
            ));
        }
        // Best case the machine checkpoints at every interval boundary up to
        // the crash; if even that newest possible checkpoint is outside the
        // retention window, the plan can never be satisfied — fail before
        // running anything. (A protocol that skips checkpoints can still hit
        // the dynamic variant of this error at its crash round.)
        let interval = plan.checkpoint_interval.max(1);
        let best = c - c % interval;
        if j - best > plan.retention.max(1) {
            return Err(EngineError::CheckpointTooOld {
                machine: m,
                checkpoint_round: best,
                rejoin_round: j,
                retention: plan.retention.max(1),
            });
        }
    }
    Ok(())
}

/// State shared between the wrapped machines of one recovering run and its
/// engine: realized metrics, the first recovery failure, and the rejoin
/// horizons the engine consults to keep a quiet cluster alive while an
/// outage is in progress.
pub(crate) struct RecoveryShared {
    metrics: RefCell<RecoveryMetrics>,
    error: RefCell<Option<EngineError>>,
    /// Rejoin rounds of every planned machine (for stall suppression).
    horizons: Vec<u64>,
}

impl RecoveryShared {
    /// Whether the engine should suppress its stall/quiescence error at
    /// `round`: some machine's rejoin is still ahead (the cluster is
    /// legitimately idle, waiting out an outage) and no recovery has failed
    /// yet (a failed rejoin goes permanently silent, and the resulting
    /// stall is how its error surfaces).
    pub(crate) fn pending_at(&self, round: u64) -> bool {
        self.error.borrow().is_none() && self.horizons.iter().any(|&j| j >= round)
    }

    /// The first recorded recovery failure, if any.
    pub(crate) fn error(&self) -> Option<EngineError> {
        self.error.borrow().clone()
    }

    fn record_error(&self, err: EngineError) {
        let mut slot = self.error.borrow_mut();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// Drain the realized metrics (rejoined list sorted by machine id).
    pub(crate) fn take_metrics(&self) -> RecoveryMetrics {
        let mut m = self.metrics.take();
        m.rejoined.sort_unstable();
        m
    }
}

/// Map a recovering run's result: a recorded recovery failure wins over the
/// engine's own (stall-shaped) error, and realized metrics ride the outcome.
pub(crate) fn finish<T>(
    result: Result<RunOutcome<T>, EngineError>,
    state: &RecoveryShared,
) -> Result<RunOutcome<T>, EngineError> {
    if let Some(err) = state.error() {
        return Err(err);
    }
    let mut out = result?;
    out.recovery = state.take_metrics();
    Ok(out)
}

/// Wrap every protocol instance of a run in [`Recovering`] according to the
/// config's [`crate::config::RecoveryPlan`].
pub(crate) fn wrap<P: Protocol>(
    cfg: &NetConfig,
    protocols: Vec<P>,
) -> (Vec<Recovering<P>>, Rc<RecoveryShared>) {
    let shared = Rc::new(RecoveryShared {
        metrics: RefCell::default(),
        error: RefCell::default(),
        horizons: cfg.recovery.rejoins.iter().map(|&(_, _, j)| j).collect(),
    });
    let interval = cfg.recovery.checkpoint_interval.max(1);
    let retention = cfg.recovery.retention.max(1);
    let wrapped = protocols
        .into_iter()
        .enumerate()
        .map(|(id, inner)| {
            let spec = cfg
                .recovery
                .rejoins
                .iter()
                .find(|&&(m, _, _)| m == id)
                .map(|&(_, crash, rejoin)| RejoinSpec { crash, rejoin });
            Recovering {
                id,
                inner,
                spec,
                interval,
                retention,
                shared: Rc::clone(&shared),
                ckpt: None,
                retained: VecDeque::new(),
                offline: false,
                joined: false,
                failed: false,
            }
        })
        .collect();
    (wrapped, shared)
}

/// Crash-then-rejoin schedule of one machine.
#[derive(Clone, Copy)]
struct RejoinSpec {
    /// First round the machine does not execute.
    crash: u64,
    /// Round at which it is restored and catches up.
    rejoin: u64,
}

/// A recorded checkpoint: the inner protocol's blob plus the engine-side
/// state (RNG, send-sequence counter) needed to replay deterministically.
struct Ckpt {
    round: u64,
    /// `None` only as the implicit pristine round-0 marker (usable only if
    /// the machine crashes at round 0, i.e. never executed).
    blob: Option<Vec<u8>>,
    rng: StdRng,
    seq: u64,
}

/// Protocol wrapper implementing checkpoint / crash / rejoin-with-replay
/// around an inner protocol. Machines outside the rejoin plan pass through
/// untouched, and so does a machine that has rejoined — [`Step::Wait`]
/// included; until then the wrapper's own per-round duties keep it awake.
pub(crate) struct Recovering<P: Protocol> {
    id: usize,
    inner: P,
    spec: Option<RejoinSpec>,
    interval: u64,
    retention: u64,
    shared: Rc<RecoveryShared>,
    ckpt: Option<Ckpt>,
    /// Inboxes of every round since the recorded checkpoint, in round order
    /// (pre-crash rounds for state replay, outage rounds for catch-up).
    retained: VecDeque<(u64, Vec<Envelope<P::Msg>>)>,
    offline: bool,
    joined: bool,
    failed: bool,
}

impl<P: Protocol> Recovering<P> {
    /// Record a checkpoint at the top of round `r` when the schedule says
    /// so. A `None` blob from the inner protocol keeps the previous
    /// checkpoint (and its retained inboxes) instead — except at round 0,
    /// where it records the implicit pristine marker.
    fn maybe_checkpoint(&mut self, r: u64, crash: u64, rng: &StdRng, seq: u64) {
        if !r.is_multiple_of(self.interval) || r > crash {
            return;
        }
        // The blob is sealed here — at the recovery layer, not inside the
        // protocol — so every stored snapshot carries an integrity digest
        // without any protocol's blob format changing. `rejoin` verifies
        // the seal before handing the payload to `restore`.
        let blob = self.inner.checkpoint().map(crate::snapshot::seal);
        if blob.is_none() && r > 0 {
            return;
        }
        let bytes = blob.as_ref().map_or(0, |b| b.len() as u64);
        self.ckpt = Some(Ckpt { round: r, blob, rng: rng.clone(), seq });
        self.retained.clear();
        let mut m = self.shared.metrics.borrow_mut();
        m.checkpoints += 1;
        m.checkpoint_bytes += bytes;
    }

    /// Mark this machine's recovery as failed: record the first error and
    /// go permanently silent (fail-stop); the engine's resulting stall is
    /// mapped back to this error by [`finish`].
    fn fail(&mut self, err: EngineError) {
        self.shared.record_error(err);
        self.failed = true;
        self.ckpt = None;
        self.retained.clear();
    }

    /// At the crash round, decide whether the scheduled rejoin can work at
    /// all with the checkpoints actually recorded.
    fn check_rejoinable(&mut self, spec: RejoinSpec) {
        let usable = match &self.ckpt {
            Some(c) if c.blob.is_some() => true,
            // Pristine marker: only usable if the machine never executed.
            Some(c) => c.round == 0 && spec.crash == 0,
            None => false,
        };
        if !usable {
            self.fail(EngineError::Crashed { machine: self.id, round: spec.crash });
            return;
        }
        let p = self.ckpt.as_ref().expect("checked above").round;
        if spec.rejoin - p > self.retention {
            self.fail(EngineError::CheckpointTooOld {
                machine: self.id,
                checkpoint_round: p,
                rejoin_round: spec.rejoin,
                retention: self.retention,
            });
        }
    }

    /// Restore from the checkpoint, replay the retained rounds, then execute
    /// the rejoin round itself. Runs inside the engine's normal `on_round`
    /// slot for the rejoin round, so the catch-up is atomic from every
    /// peer's point of view.
    fn rejoin(&mut self, ctx: &mut Ctx<'_, P::Msg>, spec: RejoinSpec) -> Step<P::Output> {
        let ck = self.ckpt.take().expect("validated at crash round");
        if let Some(blob) = &ck.blob {
            // Seal first: a truncated or bit-flipped blob is a typed
            // corruption report, never a panic and never a silent wrong
            // restore. Only a seal-verified payload reaches `restore` —
            // if *that* fails, the blob was written by a different state
            // and the rejoin is unsalvageable (same report as no blob).
            let Some(payload) = crate::snapshot::unseal(blob) else {
                self.fail(EngineError::SnapshotCorrupt { machine: self.id, round: ck.round });
                return Step::Continue;
            };
            if !self.inner.restore(payload) {
                self.fail(EngineError::Crashed { machine: self.id, round: spec.crash });
                return Step::Continue;
            }
        }
        let mut rng = ck.rng;
        let mut seq = ck.seq;
        let mut scratch: Vec<Envelope<P::Msg>> = Vec::new();
        let mut deferred: Vec<Envelope<P::Msg>> = Vec::new();
        let mut finished = None;
        let mut replayed = 0u64;
        for (s, inbox) in std::mem::take(&mut self.retained) {
            let step = {
                let mut ictx = Ctx {
                    id: ctx.id,
                    k: ctx.k,
                    round: s,
                    inbox: &inbox,
                    outbox: &mut scratch,
                    rng: &mut rng,
                    next_seq: &mut seq,
                    crash_rounds: ctx.crash_rounds,
                    rejoin_rounds: ctx.rejoin_rounds,
                    // A lying machine replays its lies: tamper words are
                    // pure in (machine, round), so the regenerated sends
                    // are bit-identical to the originals.
                    adversary: ctx.adversary,
                };
                self.inner.on_round(&mut ictx)
            };
            replayed += 1;
            if s < spec.crash {
                // The machine really executed this round before crashing:
                // its sends were already delivered, so the regenerated
                // copies are discarded. Their sequence numbers stay
                // consumed, reproducing the fault-free numbering exactly.
                scratch.clear();
            } else {
                deferred.append(&mut scratch);
            }
            if let Step::Done(out) = step {
                finished = Some(out);
                break;
            }
        }
        // The replayed state is now the canonical machine state.
        *ctx.rng = rng;
        *ctx.next_seq = seq;
        ctx.outbox.append(&mut deferred);
        self.joined = true;
        {
            let mut m = self.shared.metrics.borrow_mut();
            m.replayed_rounds += replayed;
            m.rejoined.push(self.id);
        }
        match finished {
            Some(out) => Step::Done(out),
            None => self.inner.on_round(ctx),
        }
    }
}

impl<P: Protocol> Protocol for Recovering<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) -> Step<Self::Output> {
        let Some(spec) = self.spec else {
            return self.inner.on_round(ctx);
        };
        if self.joined {
            return self.inner.on_round(ctx);
        }
        if self.failed {
            // Silent fail-stop: keep cycling (the engine's stall detection
            // will fire once the rejoin horizon passes) without executing.
            return Step::Continue;
        }
        let r = ctx.round;
        if r < spec.crash {
            self.maybe_checkpoint(r, spec.crash, ctx.rng, *ctx.next_seq);
            self.retained.push_back((r, ctx.inbox.to_vec()));
            // The checkpoint schedule, the retained inboxes and the crash
            // round itself all tick per round, so this machine must keep
            // being stepped however idle its inner protocol is.
            return match self.inner.on_round(ctx) {
                Step::Wait | Step::Continue => Step::Continue,
                Step::Done(out) => Step::Done(out),
            };
        }
        if r == spec.crash && !self.offline {
            // Checkpoint-then-crash: a checkpoint scheduled for the crash
            // round itself is taken (the round never executes live).
            self.maybe_checkpoint(r, spec.crash, ctx.rng, *ctx.next_seq);
            self.offline = true;
            self.check_rejoinable(spec);
            if self.failed {
                return Step::Continue;
            }
        }
        if r < spec.rejoin {
            // Outage: buffer the inbox for replay, execute nothing, send
            // nothing. The machine keeps cycling rounds so the engine's
            // transport bookkeeping stays uniform.
            self.retained.push_back((r, ctx.inbox.to_vec()));
            return Step::Continue;
        }
        self.rejoin(ctx, spec)
    }

    fn on_crash(&mut self) -> Option<Self::Output> {
        // Only reachable for machines outside the rejoin plan (validation
        // rejects machines in both plans): forward the salvage hook.
        self.inner.on_crash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecoveryPlan;
    use crate::engine::run_sync;
    use crate::snapshot::{SnapshotReader, SnapshotWriter};

    /// Two-phase checkpointable gossip: round 0 broadcasts a hello; once a
    /// machine holds every hello it broadcasts an ack; done once it holds
    /// every ack. Output is the sum of hello payloads — any lost or
    /// double-counted replay message changes it.
    #[derive(Default)]
    struct TwoPhase {
        hellos: u64,
        acks: u64,
        acc: u64,
        sent_hello: bool,
        sent_ack: bool,
    }

    const HELLO: u64 = 1 << 32;
    const ACK: u64 = 1 << 33;

    impl Protocol for TwoPhase {
        type Msg = u64;
        type Output = u64;

        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            for env in ctx.inbox() {
                if env.msg & HELLO != 0 {
                    self.hellos += 1;
                    self.acc += env.msg & 0xffff_ffff;
                } else {
                    self.acks += 1;
                }
            }
            if !self.sent_hello {
                self.sent_hello = true;
                let id = ctx.id() as u64;
                ctx.broadcast(HELLO | (id * 10 + 1));
                self.acc += ctx.id() as u64 * 10 + 1;
            }
            let everyone = ctx.k() as u64 - 1;
            if self.hellos == everyone && !self.sent_ack {
                self.sent_ack = true;
                ctx.broadcast(ACK);
            }
            if self.sent_ack && self.acks == everyone {
                return Step::Done(self.acc);
            }
            Step::Continue
        }

        fn checkpoint(&self) -> Option<Vec<u8>> {
            let mut w = SnapshotWriter::new();
            w.u64(self.hellos);
            w.u64(self.acks);
            w.u64(self.acc);
            w.flag(self.sent_hello);
            w.flag(self.sent_ack);
            Some(w.finish())
        }

        fn restore(&mut self, blob: &[u8]) -> bool {
            let mut r = SnapshotReader::new(blob);
            let Some((hellos, acks, acc, sent_hello, sent_ack)) =
                (|| Some((r.u64()?, r.u64()?, r.u64()?, r.flag()?, r.flag()?)))()
            else {
                return false;
            };
            if !r.done() {
                return false;
            }
            *self = TwoPhase { hellos, acks, acc, sent_hello, sent_ack };
            true
        }
    }

    /// Like [`TwoPhase`] but with checkpointing unimplemented.
    #[derive(Default)]
    struct NoCkpt(TwoPhase);
    impl Protocol for NoCkpt {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            self.0.on_round(ctx)
        }
    }

    fn fleet(k: usize) -> Vec<TwoPhase> {
        (0..k).map(|_| TwoPhase::default()).collect()
    }

    fn cfg(k: usize) -> NetConfig {
        NetConfig::new(k).with_seed(7)
    }

    #[test]
    fn rejoin_is_byte_identical_to_fault_free() {
        let k = 4;
        let clean = run_sync(&cfg(k), fleet(k)).unwrap();
        for (crash, rejoin) in [(1, 4), (2, 3), (1, 9)] {
            let cfg = cfg(k).with_rejoin(2, crash, rejoin);
            let out = run_sync(&cfg, fleet(k)).unwrap();
            assert_eq!(out.outputs, clean.outputs, "crash {crash} rejoin {rejoin}");
            assert_eq!(out.metrics.messages, clean.metrics.messages);
            assert_eq!(out.metrics.bits, clean.metrics.bits);
            assert_eq!(out.metrics.sends_per_machine, clean.metrics.sends_per_machine);
            assert_eq!(out.recovery.rejoined, vec![2]);
            assert!(out.recovery.checkpoints > 0);
            // Replay may end early when the protocol reaches Done mid-replay,
            // so only a lower bound of one re-executed round is guaranteed.
            assert!(out.recovery.replayed_rounds >= 1);
            assert!(out.faults.crashed.is_empty(), "a rejoined machine is not crashed");
        }
        assert!(!clean.recovery.any(), "fault-free runs carry empty recovery metrics");
    }

    #[test]
    fn crash_at_round_zero_rejoins_from_pristine_state() {
        let k = 3;
        let clean = run_sync(&cfg(k), fleet(k)).unwrap();
        let out = run_sync(&cfg(k).with_rejoin(1, 0, 3), fleet(k)).unwrap();
        assert_eq!(out.outputs, clean.outputs);
        assert_eq!(out.recovery.rejoined, vec![1]);

        // Even a protocol without checkpoint support survives a round-0
        // crash: the instance never executed, so the pristine marker is a
        // complete snapshot.
        let protos: Vec<NoCkpt> = (0..k).map(|_| NoCkpt::default()).collect();
        let out = run_sync(&cfg(k).with_rejoin(1, 0, 3), protos).unwrap();
        assert_eq!(out.outputs, clean.outputs);
    }

    #[test]
    fn unsupported_checkpoint_fails_loudly_not_silently() {
        let k = 3;
        let protos: Vec<NoCkpt> = (0..k).map(|_| NoCkpt::default()).collect();
        let err = run_sync(&cfg(k).with_rejoin(1, 2, 4), protos).unwrap_err();
        assert_eq!(err, EngineError::Crashed { machine: 1, round: 2 });
    }

    #[test]
    fn sparse_checkpoints_replay_executed_rounds_too() {
        let k = 4;
        let clean = run_sync(&cfg(k), fleet(k)).unwrap();
        // Interval 4 means the newest checkpoint before a round-2 crash is
        // round 0: the replay must re-execute rounds 0 and 1 (discarding
        // their regenerated, already-delivered sends) before catching up on
        // the missed round 2.
        let plan = RecoveryPlan::default().with_rejoin(0, 2, 4).with_checkpoint_interval(4);
        let out = run_sync(&cfg(k).with_recovery(plan), fleet(k)).unwrap();
        assert_eq!(out.outputs, clean.outputs);
        assert_eq!(out.metrics.messages, clean.metrics.messages);
        assert_eq!(out.recovery.rejoined, vec![0]);
        assert!(out.recovery.replayed_rounds >= 3, "rounds 0..=2 replayed");
    }

    #[test]
    fn stale_checkpoint_is_rejected_statically() {
        let k = 3;
        let plan = RecoveryPlan::default()
            .with_rejoin(1, 2, 20)
            .with_retention(4)
            .with_checkpoint_interval(1);
        let err = run_sync(&cfg(k).with_recovery(plan), fleet(k)).unwrap_err();
        assert_eq!(
            err,
            EngineError::CheckpointTooOld {
                machine: 1,
                checkpoint_round: 2,
                rejoin_round: 20,
                retention: 4
            }
        );
    }

    #[test]
    fn invalid_adversary_plans_are_rejected_before_execution() {
        use crate::config::AdversaryPlan;
        let k = 3;
        let bad = [
            cfg(k).with_adversary(AdversaryPlan::default().with_lie(5, 0)),
            cfg(k).with_adversary(AdversaryPlan::default().with_equivocate(3)),
            cfg(k).with_adversary(AdversaryPlan::default().with_corrupt_link(0, 1, 1001)),
            cfg(k).with_adversary(AdversaryPlan::default().with_corrupt_link(0, 7, 10)),
            cfg(k).with_adversary(AdversaryPlan::default().with_corrupt_link(1, 1, 10)),
        ];
        for cfg in bad {
            match run_sync(&cfg, fleet(k)) {
                Err(EngineError::InvalidPlan { .. }) => {}
                other => panic!("expected InvalidPlan, got {other:?}"),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Satellite hardening: no mutation of a sealed checkpoint blob ever
        /// restores — a flipped byte, a truncation, or trailing garbage is
        /// rejected by the seal (and even a hypothetical seal pass must make
        /// `restore` return a bool, never panic).
        #[test]
        fn fuzzed_snapshot_mutations_never_restore_and_never_panic(
            flip_at in 0usize..512,
            flip_bits in 1u8..=255,
            cut in 0usize..512,
        ) {
            let state = TwoPhase { hellos: 2, acks: 1, acc: 77, sent_hello: true, sent_ack: false };
            let sealed = crate::snapshot::seal(state.checkpoint().expect("supported"));
            // Bit-flip mutation.
            let mut flipped = sealed.clone();
            let at = flip_at % flipped.len();
            flipped[at] ^= flip_bits;
            proptest::prop_assert!(crate::snapshot::unseal(&flipped).is_none());
            let mut target = TwoPhase::default();
            // Even handed the mutated payload directly, restore returns a
            // verdict (the call simply must not panic; most mutations that
            // keep the length decode to *some* state, which is exactly why
            // the seal layer exists above it).
            let _ = target.restore(&flipped);
            // Truncation mutation.
            let cut = cut % sealed.len();
            proptest::prop_assert!(crate::snapshot::unseal(&sealed[..cut]).is_none());
            let _ = TwoPhase::default().restore(&sealed[..cut]);
            // Extension mutation.
            let mut extended = sealed.clone();
            extended.push(flip_bits);
            proptest::prop_assert!(crate::snapshot::unseal(&extended).is_none());
        }
    }

    #[test]
    fn invalid_plans_are_rejected_before_execution() {
        let k = 3;
        let bad = [
            cfg(k).with_faults(crate::config::FaultPlan::default().with_loss(1001, 3)),
            cfg(k)
                .with_faults(crate::config::FaultPlan::default().with_crash(1, 2).with_crash(1, 5)),
            cfg(k).with_rejoin(1, 5, 5),
            cfg(k).with_rejoin(1, 5, 3),
            cfg(k).with_rejoin(1, 2, 4).with_rejoin(1, 6, 8),
            cfg(k).with_rejoin(7, 2, 4),
            cfg(k)
                .with_faults(crate::config::FaultPlan::default().with_crash(1, 9))
                .with_rejoin(1, 2, 4),
        ];
        for cfg in bad {
            match run_sync(&cfg, fleet(k)) {
                Err(EngineError::InvalidPlan { .. }) => {}
                other => panic!("expected InvalidPlan, got {other:?}"),
            }
        }
    }
}

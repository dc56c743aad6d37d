//! Protocol multiplexing: m instances of one protocol over one engine run.
//!
//! The k-machine model charges per round and per link, so running q queries
//! as q separate engine runs pays q times every fixed cost: leader election,
//! round-0 scheduling, completion broadcasts. [`MuxProtocol`] instead runs m
//! instances of any [`Protocol`] *concurrently* on each machine: messages are
//! wrapped in [`Tagged`] envelopes carrying a 32-bit instance tag, share the
//! same link FIFOs, and compete for the same per-link bandwidth `B` — real
//! query pipelining, with the contention accounted rather than assumed away.
//!
//! Determinism: each instance gets its own RNG stream (derived from the
//! machine RNG at round 0) and its own send-sequence counter, and instances
//! execute in tag order every round — so a multiplexed run is a pure
//! function of `(protocols, seed)`, exactly like a solo run.
//!
//! Cost: stepping is wake-driven. A round steps only the *awake* instances
//! — those whose last step returned [`Step::Continue`] plus those with mail
//! this round — so an instance that [waits](Step::Wait) costs nothing until
//! an envelope carries its tag, and a machine-round costs O(envelopes
//! delivered), not O(instances).
//!
//! Attribution: the engine splits message/bit totals by tag into
//! [`RunMetrics::per_tag`](crate::RunMetrics::per_tag) (via
//! [`Payload::mux_tag`]), and [`MuxOutput::done_round`] records the round in
//! which each instance finished on each machine, so per-query costs survive
//! the sharing.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::ctx::Ctx;
use crate::message::Envelope;
use crate::payload::Payload;
use crate::protocol::{Protocol, Step};

/// Wire size of the multiplexing tag prepended to every tagged message.
pub const MUX_TAG_BITS: u64 = 32;

/// A payload wrapped with the instance tag that owns it.
#[derive(Debug, Clone)]
pub struct Tagged<M> {
    /// Index of the protocol instance this message belongs to.
    pub tag: u32,
    /// The instance's own payload.
    pub msg: M,
}

impl<M: Payload> Payload for Tagged<M> {
    fn size_bits(&self) -> u64 {
        MUX_TAG_BITS + self.msg.size_bits()
    }

    fn mux_tag(&self) -> Option<u32> {
        Some(self.tag)
    }

    /// A lying mux machine lies in every instance: tampering passes through
    /// to the inner payload (the tag itself is never perturbed — a wrong
    /// *value* inside the right instance, per the [`Payload::tamper`]
    /// contract).
    fn tamper(&mut self, word: u64) -> bool {
        self.msg.tamper(word)
    }
}

/// Per-machine output of a multiplexed run.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct MuxOutput<T> {
    /// Instance outputs, indexed by tag. `None` marks an instance **lost to
    /// a crash**: the machine went down mid-batch and that instance had
    /// neither finished nor could its [`Protocol::on_crash`] hook salvage
    /// an answer. A fault-free (or fully salvaged) run is all `Some`;
    /// callers re-plan only the `None` holes instead of retrying the whole
    /// batch.
    pub outputs: Vec<Option<T>>,
    /// Round in which each instance produced its output on this machine
    /// (0 for instances lost to a crash).
    pub done_round: Vec<u64>,
}

/// One instance plus its private determinism state. A finished instance
/// (`live == false`) is never stepped again.
struct Slot<P> {
    proto: P,
    rng: StdRng,
    seq: u64,
    live: bool,
    /// Whether this instance's tag is in [`MuxProtocol::awake`].
    awake: bool,
}

/// Runs m instances of `P` as one protocol, multiplexing their messages
/// over the shared links. See the [module docs](self) for the semantics.
///
/// The machine is done when *all* of its instances are done; messages
/// addressed to an already-finished instance are discarded, mirroring the
/// engine's treatment of messages delivered to finished machines.
pub struct MuxProtocol<P: Protocol> {
    slots: Vec<Slot<P>>,
    outputs: Vec<Option<P::Output>>,
    done_round: Vec<u64>,
    remaining: usize,
    /// Per-tag demux buffers, empty between rounds (each is cleared right
    /// after its instance's step) — kept in the struct so the per-round hot
    /// path reuses their allocations instead of building fresh `Vec`s.
    parts: Vec<Vec<Envelope<P::Msg>>>,
    /// Tags the coming round steps. Between rounds: the instances whose last
    /// step returned [`Step::Continue`], in tag order; `on_round` adds the
    /// tags that have mail.
    awake: Vec<u32>,
    /// Scratch outbox handed to each instance's inner `Ctx`, same reuse.
    inner_outbox: Vec<Envelope<P::Msg>>,
}

impl<P: Protocol> MuxProtocol<P> {
    /// Multiplex `instances` (tag = position) over one engine run.
    ///
    /// Every machine of the run must be handed the same number of instances
    /// in the same tag order; tags above `u32::MAX` are rejected.
    pub fn new(instances: Vec<P>) -> Self {
        assert!(
            u32::try_from(instances.len().saturating_sub(1)).is_ok(),
            "mux tags are 32-bit: {} instances is too many",
            instances.len()
        );
        let m = instances.len();
        MuxProtocol {
            // RNG streams are derived lazily in round 0 from the machine
            // RNG; a placeholder seed keeps the slot layout simple.
            slots: instances
                .into_iter()
                .map(|proto| Slot {
                    proto,
                    rng: StdRng::seed_from_u64(0),
                    seq: 0,
                    live: true,
                    awake: true,
                })
                .collect(),
            outputs: (0..m).map(|_| None).collect(),
            done_round: vec![0; m],
            remaining: m,
            parts: (0..m).map(|_| Vec::new()).collect(),
            awake: (0..m as u32).collect(),
            inner_outbox: Vec::new(),
        }
    }

    /// Number of multiplexed instances.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when multiplexing zero instances.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl<P: Protocol> Protocol for MuxProtocol<P> {
    type Msg = Tagged<P::Msg>;
    type Output = MuxOutput<P::Output>;

    /// Per-instance crash salvage: a crashed mux machine always accounts
    /// for its batch, instance by instance. Finished instances keep their
    /// outputs, still-live instances get one [`Protocol::on_crash`] call
    /// each, and instances that can salvage nothing become `None` holes in
    /// [`MuxOutput::outputs`] — so callers re-plan exactly the lost
    /// queries instead of failing (and retrying) the whole batch.
    fn on_crash(&mut self) -> Option<Self::Output> {
        let mut outputs = Vec::with_capacity(self.slots.len());
        for (tag, slot) in self.slots.iter_mut().enumerate() {
            if slot.live {
                outputs.push(slot.proto.on_crash());
            } else {
                outputs.push(Some(self.outputs[tag].take().expect("done instance has output")));
            }
        }
        Some(MuxOutput { outputs, done_round: std::mem::take(&mut self.done_round) })
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, Tagged<P::Msg>>) -> Step<MuxOutput<P::Output>> {
        let m = self.slots.len();
        if ctx.round() == 0 {
            // Give each instance an independent deterministic RNG stream, so
            // its random choices do not depend on what the *other* instances
            // draw (their consumption interleaves otherwise).
            for slot in self.slots.iter_mut() {
                slot.rng = StdRng::seed_from_u64(ctx.rng().random());
            }
        }

        // Demultiplex this round's inbox by tag into the reused per-tag
        // buffers, preserving the engine's deterministic (src, seq) delivery
        // order within each instance. Mail wakes its instance.
        let carried = self.awake.len();
        for env in ctx.inbox() {
            let tag = env.msg.tag as usize;
            assert!(tag < m, "message for unknown mux tag {tag} (m = {m})");
            let slot = &mut self.slots[tag];
            if slot.live {
                if !slot.awake {
                    slot.awake = true;
                    self.awake.push(env.msg.tag);
                }
                self.parts[tag].push(Envelope {
                    src: env.src,
                    dst: env.dst,
                    sent_round: env.sent_round,
                    seq: env.seq,
                    digest: env.digest,
                    msg: env.msg.msg.clone(),
                });
            }
        }
        // Woken tags were appended in arrival order; instances execute in
        // tag order.
        if self.awake.len() > carried {
            self.awake.sort_unstable();
        }

        let inner_outbox = &mut self.inner_outbox;
        let mut still_awake = 0;
        for i in 0..self.awake.len() {
            let tag = self.awake[i] as usize;
            let slot = &mut self.slots[tag];
            let step = {
                let mut inner = Ctx {
                    id: ctx.id,
                    k: ctx.k,
                    round: ctx.round,
                    inbox: &self.parts[tag],
                    outbox: inner_outbox,
                    rng: &mut slot.rng,
                    next_seq: &mut slot.seq,
                    crash_rounds: ctx.crash_rounds,
                    // The outer ctx applies the adversary when the instance's
                    // sends are re-wrapped below ([`Tagged::tamper`] passes
                    // the lie through); arming the inner ctx too would
                    // double-tamper.
                    adversary: None,
                };
                slot.proto.on_round(&mut inner)
            };
            self.parts[tag].clear();
            // Re-wrap the instance's sends; the outer ctx re-sequences them,
            // which keeps the global (src, seq) order consistent with the
            // tag-ordered execution above.
            for env in inner_outbox.drain(..) {
                ctx.send(env.dst, Tagged { tag: tag as u32, msg: env.msg });
            }
            match step {
                Step::Continue => {
                    self.awake[still_awake] = tag as u32;
                    still_awake += 1;
                }
                Step::Wait => slot.awake = false,
                Step::Done(out) => {
                    slot.awake = false;
                    slot.live = false;
                    self.outputs[tag] = Some(out);
                    self.done_round[tag] = ctx.round();
                    self.remaining -= 1;
                }
            }
        }
        self.awake.truncate(still_awake);

        if self.remaining == 0 {
            Step::Done(MuxOutput {
                outputs: self
                    .outputs
                    .iter_mut()
                    .map(|o| Some(o.take().expect("all instances done")))
                    .collect(),
                done_round: std::mem::take(&mut self.done_round),
            })
        } else if self.awake.is_empty() {
            // Every live instance waits, so this machine does.
            Step::Wait
        } else {
            Step::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BandwidthMode, FaultPlan, NetConfig};
    use crate::engine::run_sync;

    /// Every non-leader streams `payload` values to machine 0; machine 0
    /// acknowledges once everything arrived and outputs the sum; workers
    /// wait for the ack. The gather contends for bandwidth and the ack
    /// round-trip is pure latency — the mix the real serving protocols have.
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
            if ctx.id() != 0 {
                if ctx.round() == 0 {
                    for v in 1..=self.payload {
                        ctx.send(0, SsMsg::Val(v * ctx.id() as u64));
                    }
                    ctx.send(0, SsMsg::Last);
                    return Step::Continue;
                }
                if let Some(&SsMsg::Ack(total)) = ctx.first_from(0) {
                    return Step::Done(total);
                }
                return Step::Continue;
            }
            if ctx.k() == 1 {
                return Step::Done(0);
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

    fn solo(k: usize, payload: u64, seed: u64) -> crate::engine::RunOutcome<u64> {
        let cfg = NetConfig::new(k)
            .with_seed(seed)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 256 });
        let protos: Vec<StreamSum> =
            (0..k).map(|_| StreamSum { payload, acc: 0, finished: 0 }).collect();
        run_sync(&cfg, protos).unwrap()
    }

    fn mux_fleet(k: usize, payloads: &[u64]) -> Vec<MuxProtocol<StreamSum>> {
        (0..k)
            .map(|_| {
                MuxProtocol::new(
                    payloads
                        .iter()
                        .map(|&p| StreamSum { payload: p, acc: 0, finished: 0 })
                        .collect(),
                )
            })
            .collect()
    }

    fn muxed(k: usize, payloads: &[u64], seed: u64) -> crate::engine::RunOutcome<MuxOutput<u64>> {
        let cfg = NetConfig::new(k)
            .with_seed(seed)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 256 });
        run_sync(&cfg, mux_fleet(k, payloads)).unwrap()
    }

    #[test]
    fn instances_match_solo_runs_under_bandwidth_enforcement() {
        let k = 4;
        let payloads = [3u64, 10, 1];
        let out = muxed(k, &payloads, 7);
        for (tag, &p) in payloads.iter().enumerate() {
            let want = solo(k, p, 7);
            assert_eq!(
                out.outputs[0].outputs[tag],
                Some(want.outputs[0]),
                "instance {tag} diverged from its solo run"
            );
        }
    }

    #[test]
    fn mux_is_deterministic() {
        let k = 3;
        let payloads = [5u64, 2, 8, 1];
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
        let cfg = NetConfig::new(k)
            .with_seed(11)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 200 });
        let a = run_sync(&cfg, mk()).unwrap();
        let b = run_sync(&cfg, mk()).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn per_tag_metrics_partition_the_totals() {
        let k = 4;
        let payloads = [4u64, 9, 2];
        let out = muxed(k, &payloads, 3);
        let m = &out.metrics;
        assert_eq!(m.per_tag.len(), payloads.len());
        assert_eq!(m.per_tag.iter().map(|t| t.messages).sum::<u64>(), m.messages);
        assert_eq!(m.per_tag.iter().map(|t| t.bits).sum::<u64>(), m.bits);
        // Bigger payloads cost proportionally more bits.
        assert!(m.per_tag[1].bits > m.per_tag[0].bits);
        assert!(m.per_tag[0].bits > m.per_tag[2].bits);
        // Each instance: (k-1) senders × (payload Vals + 1 Last), plus the
        // leader's (k-1) ack broadcasts.
        for (tag, &p) in payloads.iter().enumerate() {
            assert_eq!(m.per_tag[tag].messages, (k as u64 - 1) * (p + 2));
        }
    }

    #[test]
    fn pipelining_beats_sequential_rounds() {
        let k = 3;
        let payloads = [6u64; 8];
        let batched = muxed(k, &payloads, 5).metrics.rounds;
        let sequential: u64 = payloads.iter().map(|&p| solo(k, p, 5).metrics.rounds).sum();
        assert!(
            batched < sequential,
            "muxing must amortize rounds: batched {batched} vs sequential {sequential}"
        );
    }

    #[test]
    fn done_rounds_are_monotone_in_fifo_order() {
        let k = 2;
        let payloads = [20u64, 20, 20];
        let out = muxed(k, &payloads, 1);
        let leader: &MuxOutput<u64> = &out.outputs[0];
        // All instances enqueue at round 0 on the same FIFO, so the leader
        // finishes them in tag order.
        assert!(leader.done_round.windows(2).all(|w| w[0] <= w[1]));
        assert!(out.metrics.rounds >= *leader.done_round.last().unwrap());
    }

    #[test]
    fn empty_mux_finishes_immediately() {
        let cfg = NetConfig::new(2);
        let protos: Vec<MuxProtocol<StreamSum>> =
            (0..2).map(|_| MuxProtocol::new(Vec::new())).collect();
        assert!(protos[0].is_empty());
        let out = run_sync(&cfg, protos).unwrap();
        assert_eq!(out.metrics.rounds, 0);
        assert_eq!(out.metrics.messages, 0);
        for o in &out.outputs {
            assert!(o.outputs.is_empty());
        }
    }

    #[test]
    fn tagged_payload_charges_the_tag() {
        let t = Tagged { tag: 3, msg: SsMsg::Val(7) };
        assert_eq!(t.size_bits(), MUX_TAG_BITS + 64);
        assert_eq!(t.mux_tag(), Some(3));
        assert_eq!(SsMsg::Last.mux_tag(), None);
    }

    #[test]
    fn single_instance_mux_matches_solo_answer() {
        let k = 5;
        let out = muxed(k, &[12], 9);
        let want = solo(k, 12, 9);
        assert_eq!(out.outputs[0].outputs[0], Some(want.outputs[0]));
        // One tag owns all traffic.
        assert_eq!(out.metrics.per_tag.len(), 1);
        assert_eq!(out.metrics.per_tag[0].messages, out.metrics.messages);
    }

    /// Counts its own steps (the one liberty this fixture takes with the
    /// [`Step::Wait`] contract); waits for mail; a nonzero word finishes it.
    struct Sleeper {
        steps: u64,
    }

    impl Protocol for Sleeper {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            self.steps += 1;
            if ctx.inbox().iter().any(|e| e.msg != 0) {
                Step::Done(self.steps)
            } else {
                Step::Wait
            }
        }
    }

    /// One round of machine 1 of 2, with `mail` as `(tag, word)` from
    /// machine 0.
    fn mux_round(
        mux: &mut MuxProtocol<Sleeper>,
        round: u64,
        mail: &[(u32, u64)],
    ) -> Step<MuxOutput<u64>> {
        let inbox: Vec<_> = (mail.iter().enumerate())
            .map(|(i, &(tag, msg))| Envelope {
                src: 0,
                dst: 1,
                sent_round: round - 1,
                seq: i as u64,
                digest: 0,
                msg: Tagged { tag, msg },
            })
            .collect();
        let mut outbox = Vec::new();
        let mut rng = crate::rng::machine_rng(0, 1);
        let mut ctx = Ctx {
            id: 1,
            k: 2,
            round,
            inbox: &inbox,
            outbox: &mut outbox,
            rng: &mut rng,
            next_seq: &mut 0,
            crash_rounds: &[u64::MAX; 2],
            adversary: None,
        };
        mux.on_round(&mut ctx)
    }

    #[test]
    fn waiting_instances_are_stepped_only_by_their_own_mail() {
        let mut mux = MuxProtocol::new((0..4).map(|_| Sleeper { steps: 0 }).collect());
        let steps = |mux: &MuxProtocol<Sleeper>| -> Vec<u64> {
            mux.slots.iter().map(|s| s.proto.steps).collect()
        };
        // Round 0 steps everyone; all four then wait, so the machine does.
        assert!(matches!(mux_round(&mut mux, 0, &[]), Step::Wait));
        assert_eq!(steps(&mux), [1, 1, 1, 1]);
        // No mail: nobody is stepped.
        assert!(matches!(mux_round(&mut mux, 1, &[]), Step::Wait));
        assert_eq!(steps(&mux), [1, 1, 1, 1]);
        // One envelope wakes exactly its tag — for that round only.
        assert!(matches!(mux_round(&mut mux, 2, &[(2, 0)]), Step::Wait));
        assert_eq!(steps(&mux), [1, 1, 2, 1]);
        assert!(matches!(mux_round(&mut mux, 3, &[]), Step::Wait));
        assert_eq!(steps(&mux), [1, 1, 2, 1]);
        // Woken tags run in tag order whatever order their mail came in, and
        // a finished instance's mail wakes nobody.
        assert!(matches!(mux_round(&mut mux, 4, &[(3, 0), (1, 1)]), Step::Wait));
        assert_eq!(steps(&mux), [1, 2, 2, 2]);
        assert_eq!((mux.done_round[1], mux.remaining), (4, 3));
        assert!(matches!(mux_round(&mut mux, 5, &[(1, 0)]), Step::Wait));
        assert_eq!(steps(&mux), [1, 2, 2, 2]);
        // The last instances finishing ends the machine.
        let done = mux_round(&mut mux, 6, &[(0, 1), (1, 1), (2, 1), (3, 1)]);
        let Step::Done(out) = done else { panic!("all four finished") };
        assert_eq!(out.outputs, [Some(2), Some(2), Some(3), Some(3)]);
    }

    #[test]
    fn crashed_mux_salvages_finished_instances_with_holes() {
        let k = 3;
        let payloads = [1u64, 30];
        // Worker 2 finishes the one-value tag within a couple of rounds but
        // the 30-value tag outlives the crash. Its round-0 sends are already
        // in the link queues and keep draining, so the survivors complete.
        let cfg = NetConfig::new(k)
            .with_seed(5)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 256 })
            .with_faults(FaultPlan::default().with_crash(2, 4));
        let out = run_sync(&cfg, mux_fleet(k, &payloads)).unwrap();
        assert_eq!(out.faults.crashed, vec![2]);
        let salvaged = &out.outputs[2];
        assert!(salvaged.outputs[0].is_some(), "finished instance survives the crash");
        assert_eq!(salvaged.outputs[1], None, "live instance is lost to the crash");
        assert!(salvaged.done_round[0] > 0);
        assert_eq!(salvaged.done_round[1], 0);
        // Survivors still agree with fault-free solo runs on every tag.
        for (tag, &p) in payloads.iter().enumerate() {
            let want = solo(k, p, 5);
            assert_eq!(out.outputs[0].outputs[tag], Some(want.outputs[0]));
            assert_eq!(out.outputs[1].outputs[tag], Some(want.outputs[0]));
        }
    }
}

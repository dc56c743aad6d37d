//! The lockstep scheduler: one sequential sweep of the machine-step core
//! per round.

use std::time::Instant;

use crate::config::NetConfig;
use crate::engine::machine::{self, RunEnv};
use crate::engine::RunOutcome;
use crate::error::EngineError;
use crate::message::Envelope;
use crate::protocol::Protocol;

/// Execute one protocol instance per machine until every machine has
/// produced its output.
///
/// Each loop iteration is one synchronous round: every still-running machine
/// sees the messages delivered to it this round, performs local computation,
/// and hands new messages to the network; then every link drains at most `B`
/// bits toward the next round, and the round pays
/// [`NetConfig::round_latency`]. The run is a pure function of
/// `(protocols, cfg.seed)` — useful both for tests and for exact round and
/// message accounting at machine counts far beyond the host's core count.
/// A panicking protocol ends the run with [`EngineError::WorkerPanic`].
///
/// # Panics
/// If `protocols.len() != cfg.k`, or if bandwidth is `Enforce { 0 }`.
pub fn run_sync<P: Protocol>(
    cfg: &NetConfig,
    protocols: Vec<P>,
) -> Result<RunOutcome<P::Output>, EngineError> {
    cfg.validate()?;
    let k = protocols.len();
    assert_eq!(k, cfg.k, "protocol count {} != cfg.k {}", k, cfg.k);
    let env = RunEnv::new(cfg);

    let start = Instant::now();
    let mut links = machine::lattice(cfg);
    let mut machines: Vec<_> = machine::machines(cfg, protocols, &mut links).collect();
    let mut inboxes: Vec<Vec<Envelope<P::Msg>>> = (0..k).map(|_| Vec::with_capacity(k)).collect();
    let mut outbox: Vec<Envelope<P::Msg>> = Vec::with_capacity(k);
    let mut running = k;
    let mut round: u64 = 0;

    loop {
        // Every machine computes before any link drains, so a round's
        // deliveries can never mix into the inbox of the round in progress.
        let mut sent = 0u64;
        let mut progressed = false;
        for (m, inbox) in machines.iter_mut().zip(&mut inboxes) {
            if m.step(round, inbox, &mut outbox, &env)? {
                running -= 1;
                progressed = true;
            }
            sent += m.enqueue(&mut outbox);
        }
        if running == 0 {
            break;
        }

        let mut delivered = false;
        let mut backlog_bits = 0u64;
        for m in &mut machines {
            let moved = m.transport(round, &env, &mut inboxes)?;
            delivered |= moved.delivered;
            backlog_bits += moved.pending_bits;
        }

        if sent == 0 && !delivered && !progressed && backlog_bits == 0 {
            let first_crashed = machines.iter().position(|m| m.crashed());
            return Err(env.stall_error(round, first_crashed));
        }
        round += 1;
        if round > env.max_rounds {
            return Err(EngineError::MaxRounds { limit: env.max_rounds });
        }
        if !env.latency.is_zero() {
            std::thread::sleep(env.latency);
        }
    }

    machine::collect(machines, &env, round, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdversaryPlan, BandwidthMode, FaultPlan};
    use crate::ctx::Ctx;
    use crate::engine::fixtures::{CrashAwareGossip, GossipSum, SleepForever, Stream, WaitForever};
    use crate::protocol::Step;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn bandwidth_dictates_round_count() {
        // 64 values of 64 bits over a 128-bit link: 2 values per round,
        // so 32 transport rounds.
        let cfg = NetConfig::new(2).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
        let out = run_sync(&cfg, Stream::pair(64)).unwrap();
        assert_eq!(out.outputs[1], 64);
        assert_eq!(out.metrics.rounds, 32);
        assert_eq!(out.metrics.messages, 64);
        assert_eq!(out.metrics.bits, 64 * 64);
        assert!(out.metrics.max_link_backlog_bits > 0);
    }

    #[test]
    fn unlimited_bandwidth_is_one_round() {
        let cfg = NetConfig::new(2).with_bandwidth(BandwidthMode::Unlimited);
        let out = run_sync(&cfg, Stream::pair(64)).unwrap();
        assert_eq!(out.metrics.rounds, 1);
    }

    #[test]
    fn round_latency_slows_wall_clock() {
        let latency = std::time::Duration::from_millis(2);
        let cfg = NetConfig::new(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_round_latency(latency);
        let out = run_sync(&cfg, Stream::pair(8)).unwrap();
        // 8 × 64 bits over a 128-bit link: 4 transport rounds.
        assert_eq!(out.metrics.rounds, 4);
        assert!(out.wall >= latency * 4, "wall = {:?}", out.wall);
    }

    /// Machine 0 ships 16 values to machine 1, which quits after the first
    /// delivery, and one to machine 2, which keeps the run alive to round 6
    /// while the rest of the backlog lands on the finished machine 1.
    struct EarlyQuit {
        received: u64,
    }
    impl Protocol for EarlyQuit {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            self.received += ctx.inbox().len() as u64;
            match ctx.id() {
                0 => {
                    for v in 0..16 {
                        ctx.send(1, v);
                    }
                    ctx.send(2, 16);
                    Step::Done(0)
                }
                1 if ctx.round() >= 1 => Step::Done(self.received),
                2 if ctx.round() == 6 => Step::Done(self.received),
                _ => Step::Continue,
            }
        }
    }

    #[test]
    fn delivered_after_done_counts_mail_to_finished_machines() {
        let cfg = NetConfig::new(3).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
        let mk = || (0..3).map(|_| EarlyQuit { received: 0 }).collect::<Vec<_>>();
        let out = run_sync(&cfg, mk()).unwrap();
        assert_eq!(out.outputs, vec![0, 2, 1]);
        assert_eq!(out.metrics.rounds, 6);
        // Two values a round reach machine 1 in rounds 2–6, after its done.
        assert_eq!(out.metrics.delivered_after_done, 10);
    }

    #[test]
    fn single_machine_cluster_finishes() {
        struct Solo;
        impl Protocol for Solo {
            type Msg = ();
            type Output = u64;
            fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step<u64> {
                Step::Done(7)
            }
        }
        // A lone machine that keeps "continuing" without traffic is a stall
        // (there is nothing left that could wake it); one that finishes
        // immediately reports zero rounds.
        let cfg = NetConfig::new(1);
        let err = run_sync(&cfg, vec![WaitForever]).unwrap_err();
        assert!(matches!(err, EngineError::Stalled { round: 0 }));
        let out = run_sync(&cfg, vec![Solo]).unwrap();
        assert_eq!(out.outputs, vec![7]);
        assert_eq!(out.metrics.rounds, 0);
    }

    #[test]
    fn stall_is_detected() {
        let cfg = NetConfig::new(3);
        let err = run_sync(&cfg, vec![WaitForever, WaitForever, WaitForever]).unwrap_err();
        assert!(matches!(err, EngineError::Stalled { .. }));
    }

    #[test]
    fn waiting_stall_is_reported_at_the_same_round() {
        let cfg = NetConfig::new(3);
        let ticking = run_sync(&cfg, vec![WaitForever, WaitForever, WaitForever]).unwrap_err();
        let waiting = run_sync(&cfg, vec![SleepForever, SleepForever, SleepForever]).unwrap_err();
        assert_eq!(waiting, ticking);
        assert_eq!(waiting, EngineError::Stalled { round: 0 });
    }

    /// Machine 0 publishes the round it is executing (it runs first in every
    /// lockstep sweep), mails machine 1 in rounds 0 and 6, and keeps the run
    /// alive to round 8 by mailing the sink, machine 2, every round. Machine
    /// 1 reads its mail and otherwise waits — or, with `wait` off, ticks
    /// through the same no-op steps.
    enum ClockOrSleeper {
        Clock(Arc<AtomicU64>),
        Sleeper { clock: Arc<AtomicU64>, wait: bool, steps: u64, got: u64 },
        Sink,
    }

    impl Protocol for ClockOrSleeper {
        type Msg = u64;
        /// `(steps executed, messages read, round `on_crash` ran in)`.
        type Output = (u64, u64, u64);
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<Self::Output> {
            match self {
                ClockOrSleeper::Clock(clock) => {
                    clock.store(ctx.round(), Ordering::SeqCst);
                    if ctx.round() == 0 || ctx.round() == 6 {
                        ctx.send(1, ctx.round());
                    }
                    ctx.send(2, ctx.round());
                    if ctx.round() == 8 {
                        Step::Done((0, 0, 0))
                    } else {
                        Step::Continue
                    }
                }
                ClockOrSleeper::Sleeper { wait, steps, got, .. } => {
                    *steps += 1;
                    *got += ctx.inbox().len() as u64;
                    if *wait {
                        Step::Wait
                    } else {
                        Step::Continue
                    }
                }
                ClockOrSleeper::Sink => match ctx.first_from(0) {
                    Some(8) => Step::Done((0, 0, 0)),
                    _ => Step::Wait,
                },
            }
        }
        fn on_crash(&mut self) -> Option<Self::Output> {
            match self {
                ClockOrSleeper::Clock(_) | ClockOrSleeper::Sink => None,
                ClockOrSleeper::Sleeper { clock, steps, got, .. } => {
                    Some((*steps, *got, clock.load(Ordering::SeqCst)))
                }
            }
        }
    }

    #[test]
    fn waiting_machine_still_crashes_on_schedule_and_bills_late_mail() {
        let run = |wait| {
            let clock = Arc::new(AtomicU64::new(0));
            let cfg = NetConfig::new(3).with_faults(FaultPlan::default().with_crash(1, 4));
            let sleeper = ClockOrSleeper::Sleeper { clock: clock.clone(), wait, steps: 0, got: 0 };
            run_sync(&cfg, vec![ClockOrSleeper::Clock(clock), sleeper, ClockOrSleeper::Sink])
                .unwrap()
        };
        let (waiting, ticking) = (run(true), run(false));
        // Stepped in round 0 and for the round-1 delivery, skipped in rounds
        // 2 and 3 — and still crashed at round 4, not at its next mail.
        assert_eq!(waiting.outputs[1], (2, 1, 4));
        assert_eq!(ticking.outputs[1], (4, 1, 4));
        assert_eq!(waiting.faults.crashed, vec![1]);
        // The round-6 message reaches a corpse either way.
        assert_eq!(waiting.metrics.delivered_after_done, 1);
        assert_eq!(waiting.metrics, ticking.metrics);
        assert_eq!(waiting.faults, ticking.faults);
    }

    /// Ping-pong `rounds` times between machines 0 and 1.
    struct PingPong {
        remaining: u64,
    }
    impl Protocol for PingPong {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            let peer = 1 - ctx.id();
            if ctx.id() == 0 && ctx.round() == 0 {
                self.remaining -= 1;
                ctx.send(peer, self.remaining);
                return Step::Continue;
            }
            if let Some(&v) = ctx.first_from(peer) {
                if v == 0 {
                    return Step::Done(ctx.round());
                }
                self.remaining = v - 1;
                ctx.send(peer, self.remaining);
                if self.remaining == 0 {
                    // Sent the final token; it will terminate the peer.
                    return Step::Done(ctx.round());
                }
            }
            Step::Continue
        }
    }

    #[test]
    fn ping_pong_round_count_exact() {
        let cfg = NetConfig::new(2);
        let out =
            run_sync(&cfg, vec![PingPong { remaining: 6 }, PingPong { remaining: 6 }]).unwrap();
        // Tokens 5,4,3,2,1,0 are exchanged: 6 messages, each one round apart.
        assert_eq!(out.metrics.messages, 6);
        assert_eq!(out.metrics.rounds, 6);
    }

    #[test]
    fn max_rounds_guard_trips() {
        // Ping-pong needs 6 rounds but we only allow 3.
        let cfg = NetConfig::new(2).with_max_rounds(3);
        let err =
            run_sync(&cfg, vec![PingPong { remaining: 6 }, PingPong { remaining: 6 }]).unwrap_err();
        assert_eq!(err, EngineError::MaxRounds { limit: 3 });
    }

    #[test]
    fn all_to_all_broadcast() {
        let k = 8;
        let cfg = NetConfig::new(k);
        let out = run_sync(&cfg, GossipSum::cluster(k)).unwrap();
        let expected: u64 = (0..k as u64).sum();
        for (i, got) in out.outputs.iter().enumerate() {
            assert_eq!(*got + i as u64, expected, "machine {i}");
        }
        assert_eq!(out.metrics.messages, (k * (k - 1)) as u64);
        assert_eq!(out.metrics.rounds, 1);
    }

    #[test]
    fn determinism_same_seed_same_everything() {
        let cfg = NetConfig::new(4).with_seed(99);
        let a = run_sync(&cfg, GossipSum::cluster(4)).unwrap();
        let b = run_sync(&cfg, GossipSum::cluster(4)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn unsalvageable_crash_fails_collection() {
        // Machine 1 crashes before running at all; Stream has no salvage
        // hook, so the run reports the crash even though machine 0 is done.
        let cfg = NetConfig::new(2).with_faults(FaultPlan::default().with_crash(1, 0));
        let err = run_sync(&cfg, Stream::pair(4)).unwrap_err();
        assert_eq!(err, EngineError::Crashed { machine: 1, round: 0 });
    }

    #[test]
    fn deadlock_on_crashed_peer_reports_crashed_not_stalled() {
        // Machine 1 crashes after round 0 and never returns the token;
        // machine 0 waits forever. The stall must be attributed to the
        // crash so callers know retrying over survivors can work.
        let cfg = NetConfig::new(2).with_faults(FaultPlan::default().with_crash(1, 1));
        let err =
            run_sync(&cfg, vec![PingPong { remaining: 6 }, PingPong { remaining: 6 }]).unwrap_err();
        assert_eq!(err, EngineError::Crashed { machine: 1, round: 1 });
    }

    #[test]
    fn salvageable_crash_completes_with_fault_accounting() {
        let k = 3;
        let cfg = NetConfig::new(k).with_faults(FaultPlan::default().with_crash(2, 0));
        let out = run_sync(&cfg, CrashAwareGossip::cluster(k)).unwrap();
        // Machines 0 and 1 heard only each other; machine 2 never ran.
        assert_eq!(out.outputs, vec![1, 0, u64::MAX]);
        assert_eq!(out.faults.crashed, vec![2]);
        assert!(out.faults.any());
    }

    #[test]
    fn lossy_links_retry_to_the_same_answer() {
        let clean_cfg =
            NetConfig::new(2).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
        let clean = run_sync(&clean_cfg, Stream::pair(64)).unwrap();
        let lossy_cfg = clean_cfg
            .clone()
            .with_faults(FaultPlan::default().with_loss(200, 64).with_fault_seed(5));
        let lossy = run_sync(&lossy_cfg, Stream::pair(64)).unwrap();
        assert_eq!(lossy.outputs, clean.outputs, "retries must deliver everything");
        assert!(lossy.faults.dropped_messages > 0, "20% loss over 64 messages drops some");
        assert_eq!(
            lossy.faults.retransmitted_bits,
            lossy.faults.dropped_messages * 64,
            "every drop re-pays the full message"
        );
        // The protocol's bill is unchanged — retransmission is fault-layer
        // bookkeeping — but the retries consume real rounds of bandwidth.
        assert_eq!(lossy.metrics.messages, clean.metrics.messages);
        assert_eq!(lossy.metrics.bits, clean.metrics.bits);
        assert!(lossy.metrics.rounds > clean.metrics.rounds);
    }

    #[test]
    fn corrupt_link_surfaces_integrity_violation() {
        let cfg = NetConfig::new(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_adversary(AdversaryPlan::default().with_corrupt_link(0, 1, 1000));
        let err = run_sync(&cfg, Stream::pair(4)).unwrap_err();
        assert!(
            matches!(err, EngineError::IntegrityViolation { src: 0, dst: 1, .. }),
            "guaranteed corruption must be detected at delivery: {err:?}"
        );
    }

    #[test]
    fn armed_but_clean_run_verifies_every_delivery() {
        // A plan with a 0‰ corrupt link still arms the digest machinery:
        // every delivered message is verified, none violate.
        let cfg =
            NetConfig::new(2).with_adversary(AdversaryPlan::default().with_corrupt_link(0, 1, 0));
        let out = run_sync(&cfg, Stream::pair(8)).unwrap();
        assert_eq!(out.outputs[1], 8);
        assert_eq!(out.audit.digests_verified, 8);
        assert_eq!(out.audit.integrity_violations, 0);
        // An unarmed run reports an empty audit block.
        let clean = run_sync(&NetConfig::new(2), Stream::pair(8)).unwrap();
        assert!(!clean.audit.any());
    }

    #[test]
    fn retry_exhaustion_surfaces_as_link_down() {
        let cfg = NetConfig::new(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_faults(FaultPlan::default().with_loss(1000, 2));
        let err = run_sync(&cfg, Stream::pair(4)).unwrap_err();
        assert_eq!(err, EngineError::LinkDown { src: 0, dst: 1, round: 1, retries: 2 });
    }

    #[test]
    fn invalid_plans_are_rejected_before_execution() {
        let k = 3;
        let cfg = NetConfig::new(k).with_seed(7);
        let bad = [
            (
                cfg.clone().with_faults(FaultPlan::default().with_loss(1001, 3)),
                "loss_per_mille 1001 exceeds 1000 (100% loss)",
            ),
            (
                cfg.clone().with_faults(FaultPlan::default().with_crash(1, 2).with_crash(1, 5)),
                "machine 1 has duplicate crash entries (second at round 5)",
            ),
            (
                cfg.clone().with_faults(FaultPlan::default().with_crash(3, 1)),
                "crash entry for machine 3 out of range (k = 3)",
            ),
            (
                cfg.with_bandwidth(BandwidthMode::Enforce { bits_per_round: 0 }),
                "bandwidth must allow at least 1 bit per round",
            ),
        ];
        for (cfg, reason) in bad {
            let err = run_sync(&cfg, GossipSum::cluster(k)).unwrap_err();
            assert_eq!(err, EngineError::InvalidPlan { reason: reason.into() });
        }
    }

    #[test]
    fn invalid_adversary_plans_are_rejected_before_execution() {
        let k = 3;
        let bad = [
            (
                AdversaryPlan::default().with_lie(5, 0),
                "lie entry for machine 5 out of range (k = 3)",
            ),
            (
                AdversaryPlan::default().with_equivocate(3),
                "equivocator entry for machine 3 out of range (k = 3)",
            ),
            (
                AdversaryPlan::default().with_corrupt_link(0, 1, 1001),
                "corrupt link 0 -> 1: per_mille 1001 exceeds 1000 (100% corruption)",
            ),
            (
                AdversaryPlan::default().with_corrupt_link(0, 7, 10),
                "corrupt link 0 -> 7 is not an ordered link of a 3-machine cluster",
            ),
            (
                AdversaryPlan::default().with_corrupt_link(1, 1, 10),
                "corrupt link 1 -> 1 is not an ordered link of a 3-machine cluster",
            ),
        ];
        for (plan, reason) in bad {
            let cfg = NetConfig::new(k).with_seed(7).with_adversary(plan);
            let err = run_sync(&cfg, GossipSum::cluster(k)).unwrap_err();
            assert_eq!(err, EngineError::InvalidPlan { reason: reason.into() });
        }
    }
}

//! Property tests: the engines are observationally identical for
//! deterministic protocols, and the network conserves messages, under
//! randomized traffic patterns.

use kmachine::engine::{run_event, run_sync};
use kmachine::{BandwidthMode, Ctx, Engine, EngineError, NetConfig, Payload, Protocol, Step};
use proptest::prelude::*;
use rand::RngExt;

/// Randomized scatter: in round 0 every machine generates a random batch
/// of random-sized messages for random peers, tells every peer how many to
/// expect (a header message), and sends them. A machine finishes once it
/// has every peer's header and all announced messages — fully
/// message-driven termination, as the engine contract requires.
struct Scatter {
    max_msgs: usize,
    expected: Vec<Option<u64>>,
    got: Vec<u64>,
    digest: u64,
    received_data: u64,
}

#[derive(Clone, Debug)]
enum Msg {
    /// "I will send you this many Data messages."
    Header(u64),
    /// A data blob with an arbitrary wire size.
    Data { tag: u64, bits: u64 },
}

impl Payload for Msg {
    fn size_bits(&self) -> u64 {
        match self {
            Msg::Header(_) => 64,
            Msg::Data { bits, .. } => *bits,
        }
    }
}

impl Protocol for Scatter {
    type Msg = Msg;
    type Output = (u64, u64);

    fn on_round(&mut self, ctx: &mut Ctx<'_, Msg>) -> Step<(u64, u64)> {
        let (k, me, max) = (ctx.k(), ctx.id(), self.max_msgs);
        if ctx.round() == 0 {
            if k == 1 {
                return Step::Done((0, 0));
            }
            let n = ctx.rng().random_range(0..=max);
            let mut plan: Vec<(usize, u64, u64)> = Vec::with_capacity(n);
            let mut counts = vec![0u64; k];
            for _ in 0..n {
                let dst = loop {
                    let d = ctx.rng().random_range(0..k);
                    if d != me {
                        break d;
                    }
                };
                let tag: u64 = ctx.rng().random();
                let bits = ctx.rng().random_range(1..2000);
                plan.push((dst, tag, bits));
                counts[dst] += 1;
            }
            for (dst, &count) in counts.iter().enumerate() {
                if dst != me {
                    ctx.send(dst, Msg::Header(count));
                }
            }
            for (dst, tag, bits) in plan {
                ctx.send(dst, Msg::Data { tag, bits });
            }
            return Step::Continue;
        }

        for env in ctx.inbox() {
            match env.msg {
                Msg::Header(c) => self.expected[env.src] = Some(c),
                Msg::Data { tag, .. } => {
                    self.got[env.src] += 1;
                    self.received_data += 1;
                    // Order-sensitive digest: catches delivery-order
                    // divergence between the engines.
                    self.digest = self
                        .digest
                        .rotate_left(7)
                        .wrapping_add(tag ^ ((env.src as u64) << 32) ^ env.seq);
                }
            }
        }
        let all_in = (0..ctx.k())
            .filter(|&s| s != ctx.id())
            .all(|s| self.expected[s].is_some_and(|c| self.got[s] == c));
        if all_in {
            Step::Done((self.digest, self.received_data))
        } else {
            Step::Continue
        }
    }
}

fn scatter_run(
    k: usize,
    seed: u64,
    bits_per_round: u64,
    max_msgs: usize,
    engine: Engine,
) -> (Vec<(u64, u64)>, u64, u64) {
    let cfg =
        NetConfig::new(k).with_seed(seed).with_bandwidth(BandwidthMode::Enforce { bits_per_round });
    let protos: Vec<Scatter> = (0..k)
        .map(|_| Scatter {
            max_msgs,
            expected: vec![None; k],
            got: vec![0; k],
            digest: 0,
            received_data: 0,
        })
        .collect();
    let out = match engine {
        Engine::Sync => run_sync(&cfg, protos),
        _ => run_event(&cfg, protos),
    }
    .expect("scatter run");
    (out.outputs, out.metrics.messages, out.metrics.bits)
}

/// Machine 1 panics in its first round.
struct Panics;

impl Protocol for Panics {
    type Msg = Msg;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Msg>) -> Step<u64> {
        assert_ne!(ctx.id(), 1, "intentional test panic");
        Step::Done(0)
    }
}

#[test]
fn panicking_protocol_is_the_same_typed_error_on_every_engine() {
    let cfg = NetConfig::new(3);
    let runs = [
        ("sync", run_sync(&cfg, vec![Panics, Panics, Panics])),
        ("event@1", run_event(&cfg.clone().with_event_workers(1), vec![Panics, Panics, Panics])),
        ("event@2", run_event(&cfg.clone().with_event_workers(2), vec![Panics, Panics, Panics])),
        ("threaded", Engine::Threaded.run(&cfg, vec![Panics, Panics, Panics])),
    ];
    for (name, out) in runs {
        assert_eq!(out.unwrap_err(), EngineError::WorkerPanic { machine: 1 }, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn engines_agree_under_random_traffic(
        k in 1usize..7,
        seed in any::<u64>(),
        bits in prop_oneof![Just(64u64), Just(512), Just(4096)],
        max_msgs in 0usize..12,
    ) {
        let a = scatter_run(k, seed, bits, max_msgs, Engine::Sync);
        let b = scatter_run(k, seed, bits, max_msgs, Engine::Event);
        prop_assert_eq!(&a.0, &b.0, "per-machine digests must match");
        prop_assert_eq!(a.1, b.1, "message totals must match");
        prop_assert_eq!(a.2, b.2, "bit totals must match");
    }

    #[test]
    fn network_conserves_messages(
        k in 2usize..7,
        seed in any::<u64>(),
        max_msgs in 0usize..12,
    ) {
        let (outputs, sent_total, _) = scatter_run(k, seed, 256, max_msgs, Engine::Sync);
        let received: u64 = outputs.iter().map(|&(_, r)| r).sum();
        let headers = (k * (k - 1)) as u64;
        prop_assert_eq!(
            received, sent_total - headers,
            "every data message is delivered exactly once"
        );
    }
}

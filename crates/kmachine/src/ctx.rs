//! Per-round execution context handed to a protocol.

use rand::rngs::StdRng;

use crate::config::AdversaryPlan;
use crate::message::{Envelope, MachineId};
use crate::payload::Payload;

/// Per-run lying context derived from the [`AdversaryPlan`], shared by
/// every machine of a run (the engines build it once at entry). Holds only
/// what [`Ctx::send`] needs to decide, purely, whether and how an outgoing
/// message is perturbed — so both engines fabricate identical lies.
#[derive(Debug)]
pub(crate) struct AdversaryCtx {
    /// Per-machine round from which the machine lies (`u64::MAX`: honest).
    /// An equivocator with no explicit lie entry lies from round 0.
    lie_rounds: Vec<u64>,
    /// Per-machine equivocation flags (lies vary per destination).
    equivocate: Vec<bool>,
    /// The plan's adversary seed.
    seed: u64,
}

impl AdversaryCtx {
    /// Build the shared lying context, or `None` when nobody lies (link
    /// corruption alone needs no `Ctx` wiring — it lives in the links).
    pub(crate) fn from_plan(plan: &AdversaryPlan, k: usize) -> Option<AdversaryCtx> {
        if plan.lies.is_empty() && plan.equivocators.is_empty() {
            return None;
        }
        let lie_rounds =
            (0..k).map(|m| if plan.equivocates(m) { 0 } else { plan.lie_round(m) }).collect();
        let equivocate = (0..k).map(|m| plan.equivocates(m)).collect();
        Some(AdversaryCtx { lie_rounds, equivocate, seed: plan.adversary_seed })
    }

    /// Whether `machine` lies in `round`.
    #[inline]
    pub(crate) fn lying(&self, machine: MachineId, round: u64) -> bool {
        round >= self.lie_rounds[machine]
    }

    /// The deterministic perturbation word for one send site. For a plain
    /// liar the word depends only on `(seed, src, round)` — its lie is
    /// consistent across a broadcast; an equivocator's word additionally
    /// keys on `dst`, so different peers receive different fabrications.
    pub(crate) fn tamper_word(&self, src: MachineId, dst: MachineId, round: u64) -> u64 {
        let mut x = self.seed
            ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ round.wrapping_mul(0x1656_67B1_9E37_79F9);
        if self.equivocate[src] {
            x ^= (dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        }
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x
    }
}

/// Everything a machine can observe and do in one round: its identity, the
/// messages delivered this round, a deterministic private RNG, and the
/// ability to send messages (which arrive next round at the earliest).
pub struct Ctx<'a, M> {
    pub(crate) id: MachineId,
    pub(crate) k: usize,
    pub(crate) round: u64,
    pub(crate) inbox: &'a [Envelope<M>],
    pub(crate) outbox: &'a mut Vec<Envelope<M>>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) next_seq: &'a mut u64,
    /// Per-machine crash horizons from the run's
    /// [`crate::config::FaultPlan`] (`u64::MAX`: never crashes). Shared by
    /// every machine of the run; observed through [`Ctx::crashed`].
    pub(crate) crash_rounds: &'a [u64],
    /// Per-machine rejoin rounds from the run's
    /// [`crate::config::RecoveryPlan`] (`u64::MAX`: never scheduled).
    /// Shared by every machine of the run; observed through
    /// [`Ctx::rejoined`].
    pub(crate) rejoin_rounds: &'a [u64],
    /// Shared lying context of the run's [`AdversaryPlan`] (`None` when
    /// nobody lies). Applied inside [`Ctx::send`].
    pub(crate) adversary: Option<&'a AdversaryCtx>,
}

impl<'a, M: Payload> Ctx<'a, M> {
    /// This machine's id in `0..k`.
    #[inline]
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Number of machines in the cluster.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current round number (0 is the initial round with an empty inbox).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Messages delivered this round, ordered by `(src, seq)`. The slice
    /// borrows the round's inbox, not this `Ctx`, so a protocol can
    /// [`Ctx::send`] while it reads.
    #[inline]
    pub fn inbox(&self) -> &'a [Envelope<M>] {
        self.inbox
    }

    /// This machine's private random stream (identical across engines).
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Send `msg` to machine `dst`.
    ///
    /// # Panics
    /// If `dst` is out of range or equal to the sender (the model has no
    /// self-loops; keep local state locally).
    pub fn send(&mut self, dst: MachineId, msg: M) {
        assert!(dst < self.k, "destination {dst} out of range (k = {})", self.k);
        assert_ne!(dst, self.id, "machine {dst} tried to message itself");
        let seq = *self.next_seq;
        *self.next_seq += 1;
        let mut msg = msg;
        if let Some(adv) = self.adversary {
            if adv.lying(self.id, self.round) {
                // A Byzantine machine perturbs what it announces; the lie
                // is deterministic so every engine fabricates the same one.
                msg.tamper(adv.tamper_word(self.id, dst, self.round));
            }
        }
        self.outbox.push(Envelope {
            src: self.id,
            dst,
            sent_round: self.round,
            seq,
            digest: 0,
            msg,
        });
    }

    /// Send a copy of `msg` to every other machine (`k − 1` messages).
    pub fn broadcast(&mut self, msg: M) {
        for dst in 0..self.k {
            if dst != self.id {
                self.send(dst, msg.clone());
            }
        }
    }

    /// First message from `src` in this round's inbox, if any.
    pub fn first_from(&self, src: MachineId) -> Option<&M> {
        self.inbox.iter().find(|e| e.src == src).map(|e| &e.msg)
    }

    /// Whether `peer` is observably crashed (fail-stop, injected via
    /// [`crate::config::FaultPlan`]): it executed its last round and will
    /// never send again. A peer crashing at round `r` becomes observable
    /// from round `r + 1` on — one round after its silence starts, the
    /// earliest a real cluster could detect the missing transport.
    /// Messages the peer sent before crashing may still be in flight and
    /// arrive after this turns true.
    #[inline]
    pub fn crashed(&self, peer: MachineId) -> bool {
        self.round > self.crash_rounds[peer]
    }

    /// Whether `peer` has observably completed a crash-then-rejoin cycle
    /// (see [`crate::config::RecoveryPlan`]): it went dark at its crash
    /// round, was restored from its last checkpoint at its rejoin round,
    /// and is serving again. Like [`Ctx::crashed`], the transition becomes
    /// observable one round after it happens — a peer rejoining at round
    /// `j` reports `true` from round `j + 1` on. During the outage itself
    /// the peer is simply silent: it is *not* [`Ctx::crashed`] (the pause
    /// is recoverable), so protocols that wait on its data keep waiting —
    /// which is exactly what makes the rejoined run's answers byte-identical
    /// to the fault-free run's.
    #[inline]
    pub fn rejoined(&self, peer: MachineId) -> bool {
        self.round > self.rejoin_rounds[peer]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::machine_rng;

    /// No machine ever crashes or rejoins in these unit fixtures.
    static NO_CRASHES: [u64; 4] = [u64::MAX; 4];
    static NO_REJOINS: [u64; 4] = [u64::MAX; 4];

    fn mk_ctx<'a>(
        inbox: &'a [Envelope<u64>],
        outbox: &'a mut Vec<Envelope<u64>>,
        rng: &'a mut StdRng,
        seq: &'a mut u64,
    ) -> Ctx<'a, u64> {
        Ctx {
            id: 1,
            k: 4,
            round: 3,
            inbox,
            outbox,
            rng,
            next_seq: seq,
            crash_rounds: &NO_CRASHES,
            rejoin_rounds: &NO_REJOINS,
            adversary: None,
        }
    }

    #[test]
    fn send_and_broadcast() {
        let inbox = vec![];
        let mut outbox = Vec::new();
        let mut rng = machine_rng(0, 1);
        let mut seq = 0;
        let mut ctx = mk_ctx(&inbox, &mut outbox, &mut rng, &mut seq);
        ctx.send(0, 10);
        ctx.broadcast(20);
        // broadcast reaches 0, 2, 3 (not self).
        assert_eq!(outbox.len(), 4);
        assert!(outbox.iter().all(|e| e.dst != 1));
        let seqs: Vec<u64> = outbox.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "message itself")]
    fn self_send_panics() {
        let inbox = vec![];
        let mut outbox = Vec::new();
        let mut rng = machine_rng(0, 1);
        let mut seq = 0;
        let mut ctx = mk_ctx(&inbox, &mut outbox, &mut rng, &mut seq);
        ctx.send(1, 0);
    }

    #[test]
    fn crash_horizon_becomes_observable_one_round_late() {
        let inbox: Vec<Envelope<u64>> = vec![];
        let mut outbox = Vec::new();
        let mut rng = machine_rng(0, 1);
        let mut seq = 0;
        // Machine 2 crashed at round 2; machine 0 rejoined at round 2,
        // machine 3 rejoins at round 3. This ctx executes round 3.
        let horizons = [u64::MAX, u64::MAX, 2, 3];
        let rejoins = [2, u64::MAX, u64::MAX, 3];
        let ctx = Ctx {
            id: 1,
            k: 4,
            round: 3,
            inbox: &inbox,
            outbox: &mut outbox,
            rng: &mut rng,
            next_seq: &mut seq,
            crash_rounds: &horizons,
            rejoin_rounds: &rejoins,
            adversary: None,
        };
        assert!(!ctx.crashed(0), "healthy peers are never crashed");
        assert!(ctx.crashed(2), "round 3 observes a round-2 crash");
        assert!(!ctx.crashed(3), "a crash at the current round is not yet observable");
        assert!(ctx.rejoined(0), "round 3 observes a round-2 rejoin");
        assert!(!ctx.rejoined(3), "a rejoin at the current round is not yet observable");
        assert!(!ctx.rejoined(1), "machines outside the plan never report rejoined");
    }

    /// A payload that records tampering: the perturbation word is XORed in.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Lying(u64);

    impl Payload for Lying {
        fn size_bits(&self) -> u64 {
            64
        }
        fn tamper(&mut self, word: u64) -> bool {
            self.0 ^= word;
            true
        }
    }

    #[test]
    fn liars_tamper_sends_deterministically() {
        let plan = AdversaryPlan::default().with_lie(1, 3).with_adversary_seed(7);
        let adv = AdversaryCtx::from_plan(&plan, 4).expect("a lie arms the context");
        let send_round = |round: u64, adv: Option<&AdversaryCtx>| {
            let inbox: Vec<Envelope<Lying>> = vec![];
            let mut outbox = Vec::new();
            let mut rng = machine_rng(0, 1);
            let mut seq = 0;
            let mut ctx = Ctx {
                id: 1,
                k: 4,
                round,
                inbox: &inbox,
                outbox: &mut outbox,
                rng: &mut rng,
                next_seq: &mut seq,
                crash_rounds: &NO_CRASHES,
                rejoin_rounds: &NO_REJOINS,
                adversary: adv,
            };
            ctx.send(0, Lying(5));
            ctx.send(2, Lying(5));
            (outbox[0].msg, outbox[1].msg)
        };
        let (a, b) = send_round(2, Some(&adv));
        assert_eq!((a, b), (Lying(5), Lying(5)), "before the lie round the machine is honest");
        let (a, b) = send_round(3, Some(&adv));
        assert_ne!(a, Lying(5), "from the lie round on, sends are perturbed");
        assert_eq!(a, b, "a plain liar lies consistently across destinations");
        assert_eq!(send_round(3, Some(&adv)), send_round(3, Some(&adv)), "lies are deterministic");
        let (honest, _) = send_round(9, None);
        assert_eq!(honest, Lying(5), "no adversary context: no tampering");

        // An equivocator's lies vary per destination, from round 0 even
        // without an explicit lie entry.
        let plan = AdversaryPlan::default().with_equivocate(1).with_adversary_seed(7);
        let adv = AdversaryCtx::from_plan(&plan, 4).expect("an equivocator arms the context");
        let (a, b) = send_round(0, Some(&adv));
        assert_ne!(a, Lying(5));
        assert_ne!(a, b, "equivocation: different peers receive different lies");
    }

    #[test]
    fn first_from_picks_lowest_seq() {
        let inbox = vec![
            Envelope { src: 2, dst: 1, sent_round: 2, seq: 0, digest: 0, msg: 5u64 },
            Envelope { src: 2, dst: 1, sent_round: 2, seq: 1, digest: 0, msg: 6u64 },
            Envelope { src: 3, dst: 1, sent_round: 2, seq: 0, digest: 0, msg: 7u64 },
        ];
        let mut outbox = Vec::new();
        let mut rng = machine_rng(0, 1);
        let mut seq = 0;
        let ctx = mk_ctx(&inbox, &mut outbox, &mut rng, &mut seq);
        assert_eq!(ctx.first_from(2), Some(&5));
        assert_eq!(ctx.first_from(3), Some(&7));
        assert_eq!(ctx.first_from(0), None);
    }
}

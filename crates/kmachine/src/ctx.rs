//! Per-round execution context handed to a protocol.

use rand::rngs::StdRng;

use crate::message::{Envelope, MachineId};
use crate::payload::Payload;

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

    /// This machine's private random stream (derived from the master seed).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::machine_rng;

    /// No machine ever crashes in these unit fixtures.
    static NO_CRASHES: [u64; 4] = [u64::MAX; 4];

    fn mk_ctx<'a>(
        inbox: &'a [Envelope<u64>],
        outbox: &'a mut Vec<Envelope<u64>>,
        rng: &'a mut StdRng,
        seq: &'a mut u64,
    ) -> Ctx<'a, u64> {
        Ctx { id: 1, k: 4, round: 3, inbox, outbox, rng, next_seq: seq, crash_rounds: &NO_CRASHES }
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
        // Machine 2 crashed at round 2, machine 3 crashes at round 3. This
        // ctx executes round 3.
        let horizons = [u64::MAX, u64::MAX, 2, 3];
        let ctx = Ctx {
            id: 1,
            k: 4,
            round: 3,
            inbox: &inbox,
            outbox: &mut outbox,
            rng: &mut rng,
            next_seq: &mut seq,
            crash_rounds: &horizons,
        };
        assert!(!ctx.crashed(0), "healthy peers are never crashed");
        assert!(ctx.crashed(2), "round 3 observes a round-2 crash");
        assert!(!ctx.crashed(3), "a crash at the current round is not yet observable");
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

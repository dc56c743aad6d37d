//! Bandwidth-limited links.
//!
//! Each ordered pair of machines `(u, v)` has a dedicated link modeled as a
//! store-and-forward FIFO. A message of `s` bits sent in round `r` starts
//! transmitting in the transition to round `r + 1`; every transition drains
//! at most `B` bits from the queue. A message is delivered in the round in
//! which its last bit drains, so an `s`-bit message on an idle link arrives
//! at round `r + ⌈s / B⌉` and a backlogged link delays it further. This is
//! exactly the accounting that makes the "simple method" baseline of the
//! paper cost `Θ(ℓ)` rounds.

use std::collections::VecDeque;

use crate::message::{Envelope, MachineId};

/// Loss process of one lossy link, derived from the run's
/// [`crate::config::FaultPlan`]. The drop decision for a message is a pure
/// hash of `(seed, src, dst, message index on this link, attempt)` — no
/// shared RNG, no dependence on drain cadence — so every run at every pool
/// size loses exactly the same messages.
#[derive(Debug, Clone, Copy)]
pub struct LossConfig {
    /// Drop probability in thousandths (≤ 1000).
    pub per_mille: u16,
    /// Retransmissions allowed per message before the link goes down.
    pub max_retries: u32,
    /// Seed of the loss process.
    pub seed: u64,
    /// Sending machine (part of the hash, so each ordered link draws an
    /// independent stream).
    pub src: MachineId,
    /// Receiving machine.
    pub dst: MachineId,
}

/// Integrity/corruption process of one ordered link, derived from the
/// run's [`crate::config::AdversaryPlan`]. When armed, the link stamps a
/// chained digest into every pushed envelope and verifies the chain at
/// delivery; the corruption decision for a message is a pure hash of
/// `(seed, src, dst, message index on this link)` — the same scheme as
/// [`LossConfig`] — so every run at every pool size corrupts exactly the
/// same messages.
#[derive(Debug, Clone, Copy)]
pub struct IntegrityConfig {
    /// In-flight corruption probability in thousandths (≤ 1000; 0 = the
    /// link only verifies, never corrupts).
    pub corrupt_per_mille: u16,
    /// Seed of the corruption process.
    pub seed: u64,
    /// Sending machine (part of both the chain and the corruption hash).
    pub src: MachineId,
    /// Receiving machine.
    pub dst: MachineId,
}

/// One queued message: the envelope, its transmission progress, and the
/// retry bookkeeping the loss layer needs to re-send it at full size.
#[derive(Debug)]
struct InFlight<M> {
    env: Envelope<M>,
    /// Bits still to transmit (counts down; reset to `full` on a drop).
    remaining: u64,
    /// Wire size of the message.
    full: u64,
    /// Position of this message in the link's push order (the loss hash
    /// key, deterministic because pushes happen in execution order).
    index: u64,
    /// Transmission attempts so far (0 = first try).
    tries: u32,
}

/// FIFO state of one ordered link.
#[derive(Debug)]
pub struct LinkFifo<M> {
    queue: VecDeque<InFlight<M>>,
    pending_bits: u64,
    loss: Option<LossConfig>,
    integrity: Option<IntegrityConfig>,
    /// Sender-side digest chain (advanced at push).
    send_chain: u64,
    /// Receiver-side digest chain (advanced at delivery).
    recv_chain: u64,
    digests_verified: u64,
    violated: bool,
    next_index: u64,
    dropped: u64,
    retransmitted_bits: u64,
    down: bool,
}

impl<M> Default for LinkFifo<M> {
    fn default() -> Self {
        LinkFifo {
            queue: VecDeque::new(),
            pending_bits: 0,
            loss: None,
            integrity: None,
            send_chain: 0,
            recv_chain: 0,
            digests_verified: 0,
            violated: false,
            next_index: 0,
            dropped: 0,
            retransmitted_bits: 0,
            down: false,
        }
    }
}

/// splitmix64-style finalizer over the loss hash inputs: cheap, stateless,
/// and well-mixed enough that per-link drop streams are independent.
fn loss_roll(seed: u64, src: MachineId, dst: MachineId, index: u64, tries: u32) -> u64 {
    let mut x = seed
        ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ index.wrapping_mul(0x1656_67B1_9E37_79F9)
        ^ u64::from(tries).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Advance a per-link digest chain over one envelope's identity. Chaining
/// (rather than hashing each message independently) means a mismatch also
/// catches reordering and replay, not just bit-flips.
fn chain_digest(prev: u64, src: MachineId, dst: MachineId, seq: u64, sent_round: u64) -> u64 {
    let mut x = prev
        ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ seq.wrapping_mul(0x1656_67B1_9E37_79F9)
        ^ sent_round.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Salt decorrelating the corruption stream from the loss stream when both
/// run off related seeds.
const CORRUPT_SALT: u64 = 0xB5E0_C0DE_D16E_5751;

impl<M> LinkFifo<M> {
    /// A link that drops messages according to `loss` (a `per_mille` of 0
    /// behaves exactly like [`LinkFifo::default`]).
    pub fn lossy(loss: LossConfig) -> Self {
        LinkFifo { loss: (loss.per_mille > 0).then_some(loss), ..Default::default() }
    }

    /// Arm the integrity layer: stamp a chained digest into every pushed
    /// envelope, verify it at delivery, and corrupt in-flight messages
    /// according to `integrity.corrupt_per_mille`.
    pub fn with_integrity(mut self, integrity: IntegrityConfig) -> Self {
        self.integrity = Some(integrity);
        self
    }

    /// Enqueue a message whose wire size is `bits` (clamped to ≥ 1).
    pub fn push(&mut self, mut env: Envelope<M>, bits: u64) {
        let bits = bits.max(1);
        self.pending_bits += bits;
        let index = self.next_index;
        self.next_index += 1;
        if let Some(integrity) = self.integrity {
            self.send_chain =
                chain_digest(self.send_chain, env.src, env.dst, env.seq, env.sent_round);
            env.digest = self.send_chain;
            if integrity.corrupt_per_mille > 0 {
                let roll = loss_roll(
                    integrity.seed ^ CORRUPT_SALT,
                    integrity.src,
                    integrity.dst,
                    index,
                    0,
                );
                if roll % 1000 < u64::from(integrity.corrupt_per_mille) {
                    // The in-flight bit-flip: the payload is corrupted on
                    // the wire, which the digest (standing in for a
                    // checksum over the payload) no longer matches.
                    env.digest ^= roll | 1;
                }
            }
        }
        self.queue.push_back(InFlight { env, remaining: bits, full: bits, index, tries: 0 });
    }

    /// Drain one round's worth of budget, appending fully-transmitted
    /// messages to `out`. Partial progress on the head message is retained.
    ///
    /// On a lossy link, a message whose last bit drains may be dropped
    /// instead of delivered: it re-enqueues at full size (the retransmit
    /// pays bandwidth again, immediately competing for the remaining
    /// budget) until its retry budget runs out, at which point the link is
    /// [`LinkFifo::is_down`] and stops transmitting — the engine turns
    /// that into [`crate::EngineError::LinkDown`].
    ///
    /// Idle links return immediately — the engine additionally uses
    /// [`LinkFifo::is_empty`] to skip them without a call at all, so a
    /// mostly-quiet k² lattice costs one flag check per link per round.
    pub fn drain_round(&mut self, mut budget: u64, out: &mut Vec<Envelope<M>>) {
        if self.queue.is_empty() || self.down {
            return;
        }
        while budget > 0 {
            let Some(front) = self.queue.front_mut() else { break };
            if front.remaining <= budget {
                budget -= front.remaining;
                self.pending_bits -= front.remaining;
                if let Some(loss) = self.loss {
                    let roll = loss_roll(loss.seed, loss.src, loss.dst, front.index, front.tries);
                    if roll % 1000 < u64::from(loss.per_mille) {
                        if front.tries >= loss.max_retries {
                            // Retry budget exhausted: the message is never
                            // delivered and the link stops. Restore its full
                            // size so backlog accounting stays truthful.
                            front.remaining = front.full;
                            self.pending_bits += front.full;
                            self.down = true;
                            return;
                        }
                        self.dropped += 1;
                        self.retransmitted_bits += front.full;
                        self.pending_bits += front.full;
                        front.remaining = front.full;
                        front.tries += 1;
                        continue;
                    }
                }
                let head = self.queue.pop_front().expect("front exists");
                if self.integrity.is_some() {
                    self.recv_chain = chain_digest(
                        self.recv_chain,
                        head.env.src,
                        head.env.dst,
                        head.env.seq,
                        head.env.sent_round,
                    );
                    if head.env.digest != self.recv_chain {
                        // Poisoned payload: never deliver it. The engine
                        // observes the violation and aborts the run with a
                        // typed error instead of executing on bad data.
                        self.violated = true;
                        return;
                    }
                    self.digests_verified += 1;
                }
                out.push(head.env);
            } else {
                front.remaining -= budget;
                self.pending_bits -= budget;
                break;
            }
        }
    }

    /// Bits still queued (including partially-transmitted head).
    #[inline]
    pub fn pending_bits(&self) -> u64 {
        self.pending_bits
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// True once a message exhausted its retries: the link is dead and will
    /// never deliver again.
    #[inline]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Messages dropped (and retransmitted) so far.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bits spent on retransmissions so far.
    #[inline]
    pub fn retransmitted_bits(&self) -> u64 {
        self.retransmitted_bits
    }

    /// Messages whose chained digest was verified at delivery (always 0 on
    /// an unarmed link).
    #[inline]
    pub fn digests_verified(&self) -> u64 {
        self.digests_verified
    }

    /// True once a delivery found a digest mismatch: the link saw a
    /// corrupted payload and the engine must abort with
    /// [`crate::EngineError::IntegrityViolation`].
    #[inline]
    pub fn integrity_violated(&self) -> bool {
        self.violated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(seq: u64) -> Envelope<u64> {
        Envelope { src: 0, dst: 1, sent_round: 0, seq, digest: 0, msg: seq }
    }

    #[test]
    fn small_messages_fit_in_one_round() {
        let mut link = LinkFifo::default();
        link.push(env(0), 64);
        link.push(env(1), 64);
        let mut out = Vec::new();
        link.drain_round(512, &mut out);
        assert_eq!(out.len(), 2);
        assert!(link.is_empty());
        assert_eq!(link.pending_bits(), 0);
    }

    #[test]
    fn big_message_takes_multiple_rounds() {
        let mut link = LinkFifo::default();
        link.push(env(0), 1000);
        let mut out = Vec::new();
        link.drain_round(512, &mut out);
        assert!(out.is_empty());
        assert_eq!(link.pending_bits(), 488);
        link.drain_round(512, &mut out);
        assert_eq!(out.len(), 1);
        assert!(link.is_empty());
    }

    #[test]
    fn budget_spans_messages_cut_through() {
        let mut link = LinkFifo::default();
        link.push(env(0), 300);
        link.push(env(1), 300);
        link.push(env(2), 300);
        let mut out = Vec::new();
        // Round 1: 300 + 212 of the second message.
        link.drain_round(512, &mut out);
        assert_eq!(out.len(), 1);
        // Round 2: remaining 88 + 300 of the third + leftover budget unused.
        link.drain_round(512, &mut out);
        assert_eq!(out.len(), 3);
        assert!(link.is_empty());
    }

    #[test]
    fn fifo_order_preserved() {
        let mut link = LinkFifo::default();
        for i in 0..10 {
            link.push(env(i), 64);
        }
        let mut out = Vec::new();
        while !link.is_empty() {
            link.drain_round(128, &mut out);
        }
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_bit_message_clamped_to_one() {
        let mut link = LinkFifo::default();
        link.push(env(0), 0);
        assert_eq!(link.pending_bits(), 1);
        let mut out = Vec::new();
        link.drain_round(1, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn conservation_no_loss_no_duplication() {
        let mut link = LinkFifo::default();
        let n = 100u64;
        for i in 0..n {
            link.push(env(i), 17 + (i % 91));
        }
        let mut out = Vec::new();
        let mut rounds = 0;
        while !link.is_empty() {
            link.drain_round(64, &mut out);
            rounds += 1;
            assert!(rounds < 10_000, "link failed to drain");
        }
        assert_eq!(out.len(), n as usize);
        let mut seen: Vec<u64> = out.iter().map(|e| e.seq).collect();
        seen.dedup();
        assert_eq!(seen.len(), n as usize);
    }

    fn lossy_link(per_mille: u16, max_retries: u32, seed: u64) -> LinkFifo<u64> {
        LinkFifo::lossy(LossConfig { per_mille, max_retries, seed, src: 0, dst: 1 })
    }

    #[test]
    fn lossless_loss_config_is_inert() {
        let mut link = lossy_link(0, 3, 7);
        link.push(env(0), 64);
        let mut out = Vec::new();
        link.drain_round(512, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(link.dropped(), 0);
        assert!(!link.is_down());
    }

    #[test]
    fn drops_retransmit_and_eventually_deliver() {
        // Moderate loss, generous retries: everything must get through,
        // with the retransmission bill recorded.
        let mut link = lossy_link(300, 64, 11);
        let n = 50u64;
        for i in 0..n {
            link.push(env(i), 64);
        }
        let mut out = Vec::new();
        let mut rounds = 0;
        while !link.is_empty() {
            link.drain_round(128, &mut out);
            rounds += 1;
            assert!(rounds < 10_000, "lossy link failed to drain");
            assert!(!link.is_down());
        }
        assert_eq!(out.len(), n as usize, "retries must deliver every message");
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>(), "FIFO order survives retransmission");
        assert!(link.dropped() > 0, "30% loss over 50 messages must drop something");
        assert_eq!(link.retransmitted_bits(), link.dropped() * 64);
    }

    #[test]
    fn retry_exhaustion_takes_the_link_down() {
        // Certain loss: the first message burns its retries and the link
        // dies without delivering anything.
        let mut link = lossy_link(1000, 2, 3);
        link.push(env(0), 64);
        link.push(env(1), 64);
        let mut out = Vec::new();
        for _ in 0..10 {
            link.drain_round(512, &mut out);
        }
        assert!(out.is_empty());
        assert!(link.is_down());
        assert!(!link.is_empty(), "the undeliverable message stays queued");
        assert_eq!(link.pending_bits(), 128, "backlog accounting stays truthful");
        // A dead link never delivers, however often it is drained.
        link.drain_round(u64::MAX / 2, &mut out);
        assert!(out.is_empty());
    }

    fn armed_link(corrupt_per_mille: u16, seed: u64) -> LinkFifo<u64> {
        LinkFifo::default().with_integrity(IntegrityConfig {
            corrupt_per_mille,
            seed,
            src: 0,
            dst: 1,
        })
    }

    #[test]
    fn clean_armed_link_verifies_every_delivery() {
        let mut link = armed_link(0, 7);
        for i in 0..20 {
            link.push(env(i), 64);
        }
        let mut out = Vec::new();
        while !link.is_empty() {
            link.drain_round(256, &mut out);
        }
        assert_eq!(out.len(), 20);
        assert_eq!(link.digests_verified(), 20);
        assert!(!link.integrity_violated());
        assert!(out.iter().all(|e| e.digest != 0), "every envelope is stamped");
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn corruption_is_caught_at_delivery_and_stops_the_link() {
        // Certain corruption: the very first delivery must mismatch.
        let mut link = armed_link(1000, 3);
        link.push(env(0), 64);
        link.push(env(1), 64);
        let mut out = Vec::new();
        for _ in 0..5 {
            link.drain_round(512, &mut out);
        }
        assert!(out.is_empty(), "a poisoned payload is never delivered");
        assert!(link.integrity_violated());
        assert_eq!(link.digests_verified(), 0);
    }

    #[test]
    fn corruption_draws_are_deterministic_and_seeded() {
        let run = |per_mille: u16, seed: u64| {
            let mut link = armed_link(per_mille, seed);
            for i in 0..60 {
                link.push(env(i), 64);
            }
            let mut out = Vec::new();
            for _ in 0..200 {
                link.drain_round(256, &mut out);
            }
            (out.len(), link.integrity_violated())
        };
        assert_eq!(run(200, 9), run(200, 9), "same link, same seed: same corruption");
        assert!(run(200, 9).1, "20% corruption over 60 messages must hit");
        assert!(!run(0, 9).1, "a verify-only link never violates");
        // Loss and integrity compose: a lossy + armed link still verifies
        // the messages that survive retransmission.
        let mut link = LinkFifo::lossy(LossConfig {
            per_mille: 300,
            max_retries: 64,
            seed: 11,
            src: 0,
            dst: 1,
        })
        .with_integrity(IntegrityConfig {
            corrupt_per_mille: 0,
            seed: 11,
            src: 0,
            dst: 1,
        });
        for i in 0..30 {
            link.push(env(i), 64);
        }
        let mut out = Vec::new();
        while !link.is_empty() {
            link.drain_round(256, &mut out);
        }
        assert_eq!(out.len(), 30);
        assert_eq!(link.digests_verified(), 30);
        assert!(link.dropped() > 0);
        assert!(!link.integrity_violated());
    }

    #[test]
    fn loss_draws_are_deterministic_and_per_link() {
        let run = |src: MachineId, dst: MachineId, seed: u64| {
            let mut link: LinkFifo<u64> =
                LinkFifo::lossy(LossConfig { per_mille: 400, max_retries: 64, seed, src, dst });
            for i in 0..40 {
                link.push(env(i), 64);
            }
            let mut out = Vec::new();
            while !link.is_empty() {
                link.drain_round(256, &mut out);
            }
            link.dropped()
        };
        assert_eq!(run(0, 1, 9), run(0, 1, 9), "same link, same seed: same drops");
        // Different links and different seeds draw different streams (these
        // particular values differ; equality would mean the hash ignores
        // its inputs).
        assert!(
            run(0, 1, 9) != run(1, 0, 9) || run(0, 1, 9) != run(0, 2, 9),
            "link identity must enter the loss hash"
        );
        assert!(
            run(0, 1, 9) != run(0, 1, 10) || run(0, 1, 9) != run(0, 1, 11),
            "the seed must enter the loss hash"
        );
    }
}

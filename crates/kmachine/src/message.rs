//! Message envelopes.

/// Index of a machine, in `0..k`.
///
/// The k-machine model gives machines distinct identifiers; this simulator
/// exposes them as dense indices.
pub type MachineId = usize;

/// Wire size in bits of the framing a batched key message carries on top of
/// its keys: a 32-bit element count plus a 1-bit "last chunk" flag.
///
/// Both sides of the size accounting use this constant — protocols charge it
/// in [`crate::Payload::size_bits`], and runners subtract it from the link
/// budget when sizing chunks so that one batch fills exactly one link-round.
pub const ENVELOPE_HEADER_BITS: u64 = 33;

/// A message in flight: payload plus routing metadata.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sender.
    pub src: MachineId,
    /// Receiver.
    pub dst: MachineId,
    /// Round in which the sender handed this to the network.
    pub sent_round: u64,
    /// Per-sender monotone sequence number; with `src` it gives every
    /// delivery a deterministic total order, so every run presents
    /// identical inboxes.
    pub seq: u64,
    /// Link-layer integrity digest: a chained per-link digest stamped by
    /// the sending link at push and verified at delivery (see
    /// [`crate::link::LinkFifo`]). Zero until stamped, and left zero
    /// entirely when the run has no [`crate::config::AdversaryPlan`] — the
    /// integrity machinery is armed only for adversarial runs so honest
    /// runs pay nothing.
    pub digest: u64,
    /// The protocol payload.
    pub msg: M,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_is_plain_data() {
        let e = Envelope { src: 1, dst: 2, sent_round: 3, seq: 4, digest: 0, msg: 5u64 };
        let f = e.clone();
        assert_eq!(f.src, 1);
        assert_eq!(f.dst, 2);
        assert_eq!(f.sent_round, 3);
        assert_eq!(f.seq, 4);
        assert_eq!(f.digest, 0);
        assert_eq!(f.msg, 5);
    }
}

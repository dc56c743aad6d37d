//! Message payloads and their size accounting.

/// A protocol message type.
///
/// The simulator never serializes messages; it only needs to know how many
/// bits a message *would* occupy on the wire so that bandwidth-limited links
/// can be enforced and message/bit totals reported. Implementations should
/// return the information-theoretic size of the fields they carry (e.g. a
/// 64-bit value plus a 64-bit id is 128 bits). Sizes are clamped to a minimum
/// of 1 bit by the engine so that "free" messages cannot bypass links.
pub trait Payload: Clone + 'static {
    /// Wire size of this message in bits.
    fn size_bits(&self) -> u64;

    /// Multiplexing tag of this message, when it belongs to one instance of
    /// a [multiplexed protocol](crate::mux::MuxProtocol).
    ///
    /// The engine uses this to attribute per-instance message and bit counts
    /// in [`crate::RunMetrics::per_tag`]. Plain (non-multiplexed) payloads
    /// return `None` and are accounted only in the aggregate totals.
    fn mux_tag(&self) -> Option<u32> {
        None
    }

    /// Byzantine lying hook: perturb this message's announced data using
    /// the deterministic `word` (a pure splitmix64 draw keyed by the
    /// [`crate::config::AdversaryPlan`] seed and the send site, so
    /// every run fabricates the *same* lies). Returns `true` when the
    /// message actually changed.
    ///
    /// The default is a no-op — a payload opts in by overriding this, and
    /// implementations must preserve the message's variant structure
    /// (protocols are entitled to panic on impossible variants; a lie is a
    /// wrong *value*, not a malformed message). Size accounting
    /// ([`Payload::size_bits`]) must be unchanged by tampering so that a
    /// liar's run costs what the honest run does.
    fn tamper(&mut self, word: u64) -> bool {
        let _ = word;
        false
    }
}

impl Payload for () {
    fn size_bits(&self) -> u64 {
        1
    }
}

impl Payload for u32 {
    fn size_bits(&self) -> u64 {
        32
    }
}

impl Payload for u64 {
    fn size_bits(&self) -> u64 {
        64
    }
}

impl Payload for (u64, u64) {
    fn size_bits(&self) -> u64 {
        128
    }
}

impl Payload for Vec<u64> {
    fn size_bits(&self) -> u64 {
        64 * self.len() as u64
    }
}

/// Bits needed to carry `len` items of `item_bits` each plus a small header.
#[inline]
pub fn batch_bits(len: usize, item_bits: u64) -> u64 {
    32 + item_bits * len as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(().size_bits(), 1);
        assert_eq!(7u32.size_bits(), 32);
        assert_eq!(7u64.size_bits(), 64);
        assert_eq!((1u64, 2u64).size_bits(), 128);
        assert_eq!(vec![1u64, 2, 3].size_bits(), 192);
    }

    #[test]
    fn batch_header() {
        assert_eq!(batch_bits(0, 128), 32);
        assert_eq!(batch_bits(4, 128), 32 + 512);
    }
}

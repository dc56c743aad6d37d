//! Tiny byte codec for [`crate::Protocol::checkpoint`] blobs.
//!
//! Checkpoint blobs are opaque to the engine, but every protocol that
//! implements them needs the same few primitives: fixed-width integers,
//! flags, and length-prefixed byte runs, written and read in one
//! deterministic order. This module provides exactly that — little-endian,
//! no framing, no versioning — so protocol snapshots stay small and their
//! encode/decode pairs stay obviously symmetric. [`SnapshotReader`] returns
//! `Option` everywhere: a truncated or misaligned blob decodes to `None`,
//! which [`crate::Protocol::restore`] maps to `false` (rejoin unsupported)
//! instead of panicking inside the engine.

/// Domain-separation salt of the checkpoint seal digest (distinct from the
/// link-layer chain and corruption salts).
const SEAL_SALT: u64 = 0x5EA1_C4EC_4B01_7B10;

/// Content digest of a checkpoint blob: a seeded multiply-xor chain over
/// the bytes (length-prefixed, splitmix64-finalized). Not cryptographic —
/// the threat model is the repo's seeded fault injection plus accidental
/// truncation, not a forging adversary — but any single flipped or missing
/// byte changes the digest.
fn seal_digest(bytes: &[u8]) -> u64 {
    let mut h = SEAL_SALT ^ (bytes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h ^= u64::from_le_bytes(word);
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h
}

/// Seal a checkpoint blob: append its content digest so a
/// later [`unseal`] can prove the bytes are the ones the checkpoint wrote.
/// The inner blob format is untouched — sealing happens at the recovery
/// layer, protocols never see it.
pub fn seal(mut blob: Vec<u8>) -> Vec<u8> {
    let digest = seal_digest(&blob);
    blob.extend_from_slice(&digest.to_le_bytes());
    blob
}

/// Verify a sealed blob and return the payload, or `None` when the seal
/// fails — the blob was truncated, extended, or any byte changed since
/// [`seal`]. Callers map `None` to
/// [`crate::EngineError::SnapshotCorrupt`], never a panic.
pub fn unseal(sealed: &[u8]) -> Option<&[u8]> {
    let split = sealed.len().checked_sub(8)?;
    let (payload, tail) = sealed.split_at(split);
    let claimed = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    (seal_digest(payload) == claimed).then_some(payload)
}

/// Append-only writer for a checkpoint blob.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Start an empty blob.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u128` (16 bytes — the widest key ordinal in the tree).
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a boolean as one byte.
    pub fn flag(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a length-prefixed byte run.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// The finished blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential reader over a blob produced by [`SnapshotWriter`].
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
}

impl<'a> SnapshotReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    /// Next `u32`, or `None` if the blob is exhausted.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Next `u64`, or `None` if the blob is exhausted.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Next `u128`, or `None` if the blob is exhausted.
    pub fn u128(&mut self) -> Option<u128> {
        self.take(16).map(|b| u128::from_le_bytes(b.try_into().expect("16 bytes")))
    }

    /// Next flag byte; only 0 and 1 decode (anything else is corruption).
    pub fn flag(&mut self) -> Option<bool> {
        match self.take(1)? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }

    /// Next length-prefixed byte run.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u64()?;
        self.take(usize::try_from(len).ok()?)
    }

    /// Whether every byte has been consumed (restores should end `true` —
    /// trailing garbage means the blob was not written by the matching
    /// checkpoint).
    pub fn done(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = SnapshotWriter::new();
        w.u32(7);
        w.u64(u64::MAX - 1);
        w.u128(1 << 90);
        w.flag(true);
        w.flag(false);
        w.bytes(b"shard");
        w.bytes(b"");
        let blob = w.finish();

        let mut r = SnapshotReader::new(&blob);
        assert_eq!(r.u32(), Some(7));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.u128(), Some(1 << 90));
        assert_eq!(r.flag(), Some(true));
        assert_eq!(r.flag(), Some(false));
        assert_eq!(r.bytes(), Some(&b"shard"[..]));
        assert_eq!(r.bytes(), Some(&b""[..]));
        assert!(r.done());
    }

    #[test]
    fn seal_round_trips_and_rejects_every_mutation() {
        for payload in [&b""[..], b"x", b"a longer checkpoint blob with content"] {
            let sealed = seal(payload.to_vec());
            assert_eq!(sealed.len(), payload.len() + 8);
            assert_eq!(unseal(&sealed), Some(payload), "clean seal must verify");
            // Every single-byte flip is caught — payload and seal alike.
            for i in 0..sealed.len() {
                let mut bad = sealed.clone();
                bad[i] ^= 0x40;
                assert_eq!(unseal(&bad), None, "flip at byte {i} must fail the seal");
            }
            // Every truncation is caught, including cutting into the seal.
            for len in 0..sealed.len() {
                assert_eq!(unseal(&sealed[..len]), None, "truncation to {len} must fail");
            }
            // Trailing garbage is caught too.
            let mut extended = sealed.clone();
            extended.push(0);
            assert_eq!(unseal(&extended), None);
        }
    }

    #[test]
    fn truncated_and_corrupt_blobs_decode_to_none() {
        let mut w = SnapshotWriter::new();
        w.u64(3);
        let blob = w.finish();
        let mut r = SnapshotReader::new(&blob[..4]);
        assert_eq!(r.u64(), None);
        // A flag byte outside {0, 1} is corruption, not `true`.
        let mut r = SnapshotReader::new(&[7]);
        assert_eq!(r.flag(), None);
        // A length prefix past the end of the blob must not read garbage.
        let mut w = SnapshotWriter::new();
        w.u64(1000);
        let blob = w.finish();
        let mut r = SnapshotReader::new(&blob);
        assert_eq!(r.bytes(), None);
    }
}

//! Checkpoint decoding against hostile bytes: whatever a rejoining machine
//! is handed — noise, a truncated blob, a blob with one bit flipped, a
//! length prefix promising 2⁶⁴ entries — every decoder answers `false` /
//! `None` or accepts; none panics, and none allocates by a length it has not
//! checked against the bytes actually present (that would abort this test
//! binary inside the allocator).

use std::sync::{Arc, Mutex, OnceLock};

use knn_repro::core::protocols::binsearch::BinSearchProtocol;
use knn_repro::core::protocols::SimpleProtocol;
use knn_repro::kmachine::snapshot::{seal, unseal};
use knn_repro::kmachine::{
    run_sync, BandwidthMode, Ctx, MuxProtocol, NetConfig, Protocol, SnapshotReader, Step,
};
use proptest::prelude::*;

type Blobs = Arc<Mutex<Vec<Vec<u8>>>>;

/// A decoder under test: restores into a fresh machine-1 instance.
type Restore = fn(&[u8]) -> bool;

/// Runs `inner` unchanged and keeps every checkpoint it can produce.
struct Spy<P> {
    inner: P,
    blobs: Blobs,
}

impl<P: Protocol> Protocol for Spy<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_round(&mut self, ctx: &mut Ctx<'_, P::Msg>) -> Step<P::Output> {
        let step = self.inner.on_round(ctx);
        self.blobs.lock().unwrap().extend(self.inner.checkpoint());
        step
    }
}

/// One decoder under test with the real checkpoints of its protocol.
struct Target {
    name: &'static str,
    restore: Restore,
    blobs: Vec<Vec<u8>>,
}

/// `restore` with every checkpoint of every machine over one healthy run of
/// `protos` that it — a fresh instance — takes back. (All of them, except
/// that a fresh [`MuxProtocol`] holds no outputs, so it rightly refuses a
/// blob in which one of its instances had already finished.)
fn target<P: Protocol>(name: &'static str, restore: Restore, protos: Vec<P>) -> Target {
    let blobs = Blobs::default();
    // One key per link-round stretches the runs over many distinct states.
    let cfg =
        NetConfig::new(protos.len()).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 161 });
    let spies = protos.into_iter().map(|inner| Spy { inner, blobs: blobs.clone() }).collect();
    run_sync(&cfg, spies).expect("healthy run");
    let mut blobs = std::mem::take(&mut *blobs.lock().unwrap());
    blobs.retain(|blob| restore(blob));
    assert!(blobs.len() > 4, "{name}: the run must checkpoint in several restorable states");
    Target { name, restore, blobs }
}

const K: usize = 3;

fn keys(machine: usize) -> Vec<u64> {
    (0..8u64).map(|i| (i * K as u64 + machine as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
}

fn simple(machine: usize) -> SimpleProtocol<u64> {
    SimpleProtocol::from_keys(machine, 0, 6, 1, keys(machine))
}

fn binsearch(machine: usize) -> BinSearchProtocol<u64> {
    BinSearchProtocol::from_keys(machine, K, 0, 6, keys(machine))
}

fn mux(machine: usize) -> MuxProtocol<SimpleProtocol<u64>> {
    MuxProtocol::new(vec![simple(machine), simple(machine)])
}

fn corpus() -> &'static [Target] {
    static CORPUS: OnceLock<Vec<Target>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        vec![
            target("simple", |b| simple(1).restore(b), (0..K).map(simple).collect()),
            target("binsearch", |b| binsearch(1).restore(b), (0..K).map(binsearch).collect()),
            target("mux", |b| mux(1).restore(b), (0..K).map(mux).collect()),
        ]
    })
}

/// Walk `blob` with a [`SnapshotReader`], letting the bytes themselves pick
/// the primitives, until one of them reports the blob exhausted.
fn read_to_exhaustion(blob: &[u8]) {
    let mut r = SnapshotReader::new(blob);
    for &op in blob {
        let more = match op % 5 {
            0 => r.u32().is_some(),
            1 => r.u64().is_some(),
            2 => r.u128().is_some(),
            3 => r.flag().is_some(),
            _ => r.bytes().is_some(),
        };
        if !more {
            return;
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
        claimed_len in prop_oneof![Just(3u64), Just(1 << 40), Just(u64::MAX)],
    ) {
        // As drawn, and again behind a length prefix that claims far more
        // entries than there are bytes.
        let prefixed = [&claimed_len.to_le_bytes()[..], &bytes[..]].concat();
        for blob in [&bytes, &prefixed] {
            for target in corpus() {
                (target.restore)(blob);
            }
            read_to_exhaustion(blob);
            prop_assert!(unseal(blob).is_none(), "noise does not carry a valid seal");
        }
    }

    #[test]
    fn damaged_real_checkpoints_are_refused_not_trusted_blindly(
        pick in any::<usize>(),
        cut in any::<usize>(),
        bit in any::<usize>(),
    ) {
        for &Target { name, restore, ref blobs } in corpus() {
            let blob = &blobs[pick % blobs.len()];
            // The encodings are self-delimiting, so no strict prefix decodes.
            prop_assert!(!restore(&blob[..cut % blob.len()]), "{}: truncated", name);
            // A flipped bit may land in a key's value — indistinguishable
            // from a different honest state at this layer — so the verdict
            // is free; reaching one is the property. The seal is what turns
            // every flip into a refusal.
            let mut flipped = blob.clone();
            flipped[(bit / 8) % blob.len()] ^= 1 << (bit % 8);
            restore(&flipped);
            let sealed = seal(blob.clone());
            prop_assert_eq!(unseal(&sealed), Some(&blob[..]));
            prop_assert!(unseal(&sealed[..cut % sealed.len()]).is_none(), "{}: cut seal", name);
            let mut flipped = sealed.clone();
            flipped[(bit / 8) % sealed.len()] ^= 1 << (bit % 8);
            prop_assert!(unseal(&flipped).is_none(), "{}: flipped seal", name);
        }
    }
}

//! Distributed protocols in the k-machine model.
//!
//! * [`selection`] — the paper's **Algorithm 1** (randomized distributed
//!   selection), with [`select_core`] holding the reusable state machine.
//! * [`knn`] — the paper's **Algorithm 2** (ℓ-NN via sampling + selection).
//! * [`approx`] — an extension: pruning-only *approximate* ℓ-NN.
//! * [`simple`] — the gather-everything baseline of §3.
//! * [`saukas_song`] — deterministic weighted-median selection \[16\].
//! * [`binsearch`] — value-domain bisection \[3, 18\].
//! * [`kdtree_dist`] — PANDA-like distributed k-d tree \[14\].
//!
//! [`knn`], [`approx`], [`simple`], [`saukas_song`] and [`binsearch`] share
//! one input contract: a [`KeySource`] yielding the machine's candidates
//! **sorted ascending, at most ℓ of them**. Truncating to the local ℓ best is
//! step 1 of Algorithm 2 — local computation, free in the model and the same
//! for every protocol — so it happens once, in the source, and no protocol
//! sorts, selects or draws randomness over its own input.

pub mod approx;
pub mod binsearch;
pub mod kdtree_dist;
pub mod knn;
pub mod saukas_song;
pub mod select_core;
pub mod selection;
pub mod simple;

use knn_points::Key;

pub use approx::{ApproxKnnProtocol, ApproxOutput};
pub use knn::{KnnOutput, KnnParams, KnnProtocol, KnnStats};
pub use select_core::{CoreStatus, SelMsg, SelectCore};
pub use selection::SelectProtocol;
pub use simple::SimpleProtocol;

/// A closure producing this machine's candidates, run inside round 0 so the
/// distance computation executes *inside the machine's own step*, in
/// parallel across machines under the event engine — exactly where the
/// paper's experiment spends its local time.
pub type KeySource<'a, K> = Box<dyn FnOnce() -> Vec<K> + Send + 'a>;

/// A [`KeySource`] over a raw, unordered key set: its `ell` smallest, sorted
/// — what the `from_keys` constructors of the tests and benches feed.
fn raw_source<'a, K: Key>(keys: Vec<K>, ell: u64) -> KeySource<'a, K> {
    Box::new(move || knn_selection::smallest_k(keys, usize::try_from(ell).unwrap_or(usize::MAX)))
}

/// Round 0 of every protocol: run the machine's source, once.
fn candidates<K: Key>(input: &mut Option<KeySource<'_, K>>, ell: u64) -> Vec<K> {
    let keys = (input.take().expect("round 0 runs once"))();
    debug_assert!(keys.is_sorted(), "protocol input must be sorted");
    debug_assert!(keys.len() as u64 <= ell, "protocol input must be truncated to the ℓ best");
    keys
}

//! Distributed protocols in the k-machine model.
//!
//! * [`selection`] — the paper's **Algorithm 1** (randomized distributed
//!   selection), with [`select_core`] holding the reusable state machine.
//! * [`knn`] — the paper's **Algorithm 2** (ℓ-NN via sampling + selection),
//!   and, stopped at its pruning decision
//!   ([`KnnProtocol::prune_only`]), the *approximate* ℓ-NN query.
//! * [`simple`] — the gather-everything baseline of §3.
//! * [`saukas_song`] — deterministic weighted-median selection \[16\].
//! * [`binsearch`] — value-domain bisection \[3, 18\].
//!
//! [`knn`] (either mode), [`simple`], [`saukas_song`] and [`binsearch`] share
//! one input contract: the machine's candidates, by value, **sorted
//! ascending, at most ℓ of them**. Truncating to the local ℓ best is step 1 of
//! Algorithm 2 — local computation, free in the model and the same for every
//! protocol — so it happens before any protocol exists, in
//! [`crate::local::candidate_stage`], for all machines and queries at once;
//! no protocol sorts, selects or draws randomness over its own input, and
//! round 0 only starts talking about it.

pub mod binsearch;
#[cfg(test)]
mod golden;
pub mod knn;
pub mod saukas_song;
pub mod select_core;
pub mod selection;
pub mod simple;

use knn_points::Key;

pub use knn::{KnnOutput, KnnParams, KnnProtocol, KnnStats};
pub use select_core::{CoreStatus, SelMsg, SelectCore};
pub use selection::SelectProtocol;
pub use simple::SimpleProtocol;

/// The input contract, checked where a protocol takes its candidates.
fn debug_assert_candidates<K: Key>(keys: &[K], ell: u64) {
    debug_assert!(keys.is_sorted(), "protocol input must be sorted");
    debug_assert!(keys.len() as u64 <= ell, "protocol input must be truncated to the ℓ best");
}

/// The `ell` smallest of a raw, unordered key set, sorted — what the
/// `from_keys` constructors of the tests and benches turn into candidates.
fn top_ell<K: Key>(keys: Vec<K>, ell: u64) -> Vec<K> {
    knn_selection::smallest_k(keys, usize::try_from(ell).unwrap_or(usize::MAX))
}

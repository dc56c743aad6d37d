//! Distributed protocols in the k-machine model.
//!
//! * [`select_core`] — the paper's **Algorithm 1** (randomized distributed
//!   selection): [`SelectCore`] is its state machine and, run on its own,
//!   its [`Protocol`](kmachine::Protocol) ([`selection`]).
//! * [`knn`] — the paper's **Algorithm 2** (ℓ-NN via sampling + selection),
//!   and, stopped at its pruning decision
//!   ([`KnnProtocol::prune_only`]), the *approximate* ℓ-NN query.
//! * [`simple`] — the gather-everything baseline of §3.
//! * [`saukas_song`] — deterministic weighted-median selection \[16\].
//! * [`binsearch`] — value-domain bisection \[3, 18\].
//!
//! They share one contract. **In:** [`knn`] (either mode), [`simple`],
//! [`saukas_song`] and [`binsearch`] take the machine's candidates, by value,
//! **sorted ascending, at most ℓ of them**. Truncating to the local ℓ best is
//! step 1 of Algorithm 2 — local computation, free in the model and the same
//! for every protocol — so it happens before any protocol exists, in
//! [`crate::local::candidate_stage`] for all machines and queries at once, or
//! in [`top_ell`] for a raw key set; no protocol sorts, selects or draws
//! randomness over its own input, and round 0 only starts talking about it.
//! Standalone Algorithm 1 selects over a machine's whole share instead (the
//! Theorem 2.2 setting) and sorts it locally. **Out:** the leader names the
//! last member of the global ℓ smallest, and every machine answers with its
//! own keys at or below that boundary.
//!
//! **Roles.** As in the paper, only the leader samples, picks pivots,
//! counts and decides; every other machine only answers. So each protocol
//! keeps the leader's bookkeeping — its gathers, range bounds, samples and
//! [`KnnStats`] — in one value that its constructor builds only when
//! `id == leader`, with the leader's steps as that value's methods; a
//! worker holds little more than its keys and the leader's id. A message
//! is handled by one `match` on the message and that value. Mail meant for
//! the other role cannot arrive: only protocol code sends, and it sends
//! requests only to workers and replies only to the leader; a liar lies at
//! the source, in its input, and then runs the protocol faithfully; and a
//! corrupt link is refused by its digest before delivery. So each such
//! `match` ends in one `unreachable!` arm per role instead of an error
//! path. For the same reasons a reply reaches the leader only in the phase
//! that asked for it, and no phase is checked. Nor does non-test code here
//! `expect`, `unwrap` or `panic!`: the lint below denies all three.

#![cfg_attr(not(test), deny(clippy::expect_used, clippy::unwrap_used, clippy::panic))]

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
pub use simple::SimpleProtocol;

/// The input contract, checked where a protocol takes its candidates.
fn debug_assert_candidates<K: Key>(keys: &[K], ell: u64) {
    debug_assert!(keys.is_sorted(), "protocol input must be sorted");
    debug_assert!(keys.len() as u64 <= ell, "protocol input must be truncated to the ℓ best");
}

/// The `ell` smallest of a raw, unordered key set, sorted: a machine's
/// candidates as the protocols take them.
pub fn top_ell<K: Key>(keys: impl IntoIterator<Item = K>, ell: u64) -> Vec<K> {
    knn_selection::smallest_k(keys, usize::try_from(ell).unwrap_or(usize::MAX))
}

/// Index range of `(lo, hi]` within the `sorted` keys (`lo = None` ⇒ −∞,
/// `hi = None` ⇒ +∞).
fn range<K: Key>(sorted: &[K], lo: Option<K>, hi: Option<K>) -> std::ops::Range<usize> {
    let a = lo.map_or(0, |l| sorted.partition_point(|x| *x <= l));
    let b = hi.map_or(sorted.len(), |h| sorted.partition_point(|x| *x <= h));
    a..b.max(a)
}

/// One more reply is in, of the `pending` a leader awaits: whether it was
/// the last.
fn gathered(pending: &mut usize) -> bool {
    *pending -= 1;
    *pending == 0
}

/// The output contract: a machine's keys at or below the leader's
/// `boundary` (none for `None`, the empty answer), from its `sorted` keys.
fn at_or_below<K: Key>(sorted: &[K], boundary: Option<K>) -> Vec<K> {
    let end = boundary.map_or(0, |b| sorted.partition_point(|x| *x <= b));
    sorted[..end].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_or_below_is_boundary_prefix() {
        let sorted = [10u64, 20, 30];
        assert_eq!(at_or_below(&sorted, Some(20)), vec![10, 20]);
        assert_eq!(at_or_below(&sorted, Some(5)), Vec::<u64>::new());
        assert_eq!(at_or_below(&sorted, None), Vec::<u64>::new());
        assert_eq!(at_or_below(&sorted, Some(99)), vec![10, 20, 30]);
    }
}

//! The state machine of **Algorithm 1** (Finding-ℓ-Smallest-Points).
//!
//! This is the paper's distributed randomized selection, written as a
//! message-driven core: it is a [`Protocol`](kmachine::Protocol) of its own
//! (see [`super::selection`]), and the ℓ-NN protocol of Algorithm 2 embeds
//! it for its selection over the pruned candidates — the *same* code.
//!
//! The search maintains a half-open key range `(lo, hi]` (`lo = None` means
//! −∞) and the remaining rank `ell_rem` inside that range, exactly the
//! `min`/`max`/ℓ bookkeeping of the paper's Algorithm 1; the exclusive lower
//! bound plus the globally-unique keys make the duplicate-handling explicit.

use kmachine::{MachineId, Payload};

use super::{gathered, range};
use knn_points::Key;
use rand::{rngs::StdRng, RngExt};

/// Messages of the distributed selection protocol.
#[derive(Debug, Clone)]
pub enum SelMsg<K: Key> {
    /// Leader → all: report `(count, min, max)` of your local points.
    Query,
    /// Reply to [`SelMsg::Query`]; `min`/`max` are `None` for an empty set.
    Report {
        /// Number of local points.
        count: u64,
        /// Smallest local key.
        min: Option<K>,
        /// Largest local key.
        max: Option<K>,
    },
    /// Leader → one machine: sample a pivot uniformly from your keys in
    /// `(lo, hi]`.
    PickPivot {
        /// Exclusive lower bound (−∞ when `None`).
        lo: Option<K>,
        /// Inclusive upper bound.
        hi: K,
    },
    /// The sampled pivot.
    Pivot(K),
    /// Leader → all: how many of your keys lie in `(lo, hi]`?
    GetSize {
        /// Exclusive lower bound (−∞ when `None`).
        lo: Option<K>,
        /// Inclusive upper bound.
        hi: K,
    },
    /// Reply to [`SelMsg::GetSize`].
    Size(u64),
    /// Leader → all: the search is over; output your keys `≤ boundary`
    /// (`None` means the answer set is empty, e.g. ℓ = 0).
    Finished {
        /// Upper boundary of the ℓ-smallest set.
        boundary: Option<K>,
    },
}

impl<K: Key> Payload for SelMsg<K> {
    fn size_bits(&self) -> u64 {
        // 3 tag bits, Option<K> = K + 1 presence bit.
        match self {
            SelMsg::Query => 3,
            SelMsg::Report { .. } => 3 + 64 + 2 * (K::BITS + 1),
            SelMsg::PickPivot { .. } => 3 + 2 * K::BITS + 1,
            SelMsg::Pivot(_) => 3 + K::BITS,
            SelMsg::GetSize { .. } => 3 + 2 * K::BITS + 1,
            SelMsg::Size(_) => 3 + 64,
            SelMsg::Finished { .. } => 3 + K::BITS + 1,
        }
    }
}

/// Progress of the selection core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus<K: Key> {
    /// Still exchanging messages.
    Running,
    /// The boundary is known; the local output is every key `≤ boundary`.
    Finished {
        /// Upper boundary of the answer set (`None` = empty answer).
        boundary: Option<K>,
    },
}

/// Messages a machine queues for sending, in send order.
type Outbox<K> = Vec<(MachineId, SelMsg<K>)>;

/// The leader's bookkeeping, which exists only on the leader: the search
/// range, every machine's count in it, and the gather in progress.
#[derive(Debug)]
struct Coordinator<K: Key> {
    /// The leader's own machine id.
    id: MachineId,
    /// Per-machine count of keys in the current range.
    counts: Vec<u64>,
    /// Per-machine count of keys in `(lo, pivot]`, as the sizes come in.
    incoming: Vec<u64>,
    /// Replies still awaited.
    pending: usize,
    lo: Option<K>,
    /// `None` until a machine reports a key.
    hi: Option<K>,
    /// The pivot being sized (`None` before the first).
    pivot: Option<K>,
    /// Keys still in the range (`Σ counts`).
    s: u64,
    /// Rank still to be located inside the range.
    ell_rem: u64,
    /// Completed pivot iterations (read into
    /// [`KnnStats::select_iterations`](super::KnnStats::select_iterations);
    /// Theorem 2.2 says `O(log n)` whp).
    iterations: u64,
}

/// The per-machine state machine for distributed selection.
///
/// Run it as a [`Protocol`](kmachine::Protocol), or drive it by hand with
/// [`SelectCore::start`] (once) and [`SelectCore::handle`] for every
/// received message; either queues the messages to send, which
/// [`SelectCore::outbox`] hands over so the caller controls the wire format
/// (standalone `SelMsg` or embedded inside another protocol's enum).
#[derive(Debug)]
pub struct SelectCore<K: Key> {
    /// Local keys, sorted ascending (the sort is local computation, free in
    /// the model; counting then costs `O(log |local|)` per request).
    pub(super) local: Vec<K>,
    /// `Some` exactly on the leader (boxed, so a worker's core stays small).
    coordinator: Option<Box<Coordinator<K>>>,
    /// Messages queued by the last `start` / `handle`, reused across rounds.
    out: Outbox<K>,
}

impl<K: Key> SelectCore<K> {
    /// Build the core for machine `id` of `k`, selecting the `ell` smallest
    /// keys overall. `local` is this machine's share: any order, any size,
    /// possibly empty.
    pub fn new(id: MachineId, k: usize, leader: MachineId, ell: u64, mut local: Vec<K>) -> Self {
        local.sort_unstable();
        let coordinator = (id == leader).then(|| {
            Box::new(Coordinator {
                id,
                counts: vec![0; k],
                incoming: vec![0; k],
                pending: 0,
                lo: None,
                hi: None,
                pivot: None,
                s: 0,
                ell_rem: ell,
                iterations: 0,
            })
        });
        SelectCore { local, coordinator, out: Vec::new() }
    }

    /// Completed pivot iterations (leader only; 0 elsewhere).
    pub fn iterations(&self) -> u64 {
        self.coordinator.as_ref().map_or(0, |c| c.iterations)
    }

    /// Messages queued since the last call, in send order.
    pub fn outbox(&mut self) -> std::vec::Drain<'_, (MachineId, SelMsg<K>)> {
        self.out.drain(..)
    }

    /// Kick-off, called once on every machine before any `handle`. The
    /// leader broadcasts the stats query and records its own stats; a
    /// worker does nothing, as it only ever answers mail. On a single
    /// machine every count is local, so the whole search runs here and it
    /// returns finished.
    pub fn start(&mut self, rng: &mut StdRng) -> CoreStatus<K> {
        match &mut self.coordinator {
            Some(c) => c.start(&self.local, &mut self.out, rng),
            None => CoreStatus::Running,
        }
    }

    /// Feed one received message; queue any responses.
    pub fn handle(&mut self, src: MachineId, msg: &SelMsg<K>, rng: &mut StdRng) -> CoreStatus<K> {
        let (local, out) = (&self.local[..], &mut self.out);
        match (msg, &mut self.coordinator) {
            (SelMsg::Query, None) => {
                let (min, max) = (local.first().copied(), local.last().copied());
                out.push((src, SelMsg::Report { count: local.len() as u64, min, max }));
            }
            (&SelMsg::PickPivot { lo, hi }, None) => {
                // The leader asks a machine in proportion to its count in
                // the range, so the range holds a key here.
                let idx = rng.random_range(range(local, lo, Some(hi)));
                out.push((src, SelMsg::Pivot(local[idx])));
            }
            (&SelMsg::GetSize { lo, hi }, None) => {
                out.push((src, SelMsg::Size(range(local, lo, Some(hi)).len() as u64)));
            }
            (&SelMsg::Finished { boundary }, None) => return CoreStatus::Finished { boundary },
            (&SelMsg::Report { count, max, .. }, Some(c)) => {
                c.counts[src] = count;
                c.s += count;
                // `None`, an empty machine's, orders below every key.
                c.hi = c.hi.max(max);
                if gathered(&mut c.pending) {
                    return c.advance(local, out, rng);
                }
            }
            (&SelMsg::Pivot(pivot), Some(c)) => c.size(pivot, local, out),
            (&SelMsg::Size(n), Some(c)) => {
                c.incoming[src] = n;
                if gathered(&mut c.pending) {
                    return c.after_sizes(local, out, rng);
                }
            }
            (_, None) => unreachable!("only the leader is sent replies (see `protocols`)"),
            (_, Some(_)) => unreachable!("the leader is sent only replies (see `protocols`)"),
        }
        CoreStatus::Running
    }
}

impl<K: Key> Coordinator<K> {
    /// Queue `msg` to every machine but the leader.
    fn broadcast(&self, out: &mut Outbox<K>, msg: SelMsg<K>) {
        let others = (0..self.counts.len()).filter(|&dst| dst != self.id);
        out.extend(others.map(|dst| (dst, msg.clone())));
    }

    /// Broadcast the stats query and record the leader's own stats.
    fn start(&mut self, local: &[K], out: &mut Outbox<K>, rng: &mut StdRng) -> CoreStatus<K> {
        self.broadcast(out, SelMsg::Query);
        self.pending = self.counts.len() - 1;
        self.counts[self.id] = local.len() as u64;
        self.s = local.len() as u64;
        self.hi = local.last().copied();
        if self.pending > 0 {
            return CoreStatus::Running;
        }
        let mut status = self.advance(local, out, rng);
        while status == CoreStatus::Running {
            status = self.after_sizes(local, out, rng);
        }
        status
    }

    /// Run the decision loop: either finish, or launch the next pivot probe.
    fn advance(&mut self, local: &[K], out: &mut Outbox<K>, rng: &mut StdRng) -> CoreStatus<K> {
        // Cap the request at the population, once the reports are in: if
        // ell >= s everything is the answer (and ell = 0 means an empty
        // answer). Past that, `ell_rem <= s` holds by itself.
        self.ell_rem = self.ell_rem.min(self.s);
        if self.ell_rem == 0 {
            // Everything at or below `lo` is the answer (possibly nothing).
            return self.finish(self.lo, out);
        }
        // With `s <= ell_rem` the whole range is the answer; `hi` is `None`
        // only while no key is in range, when `s = 0`.
        let Some(hi) = self.hi.filter(|_| self.s > self.ell_rem) else {
            debug_assert_eq!(self.s, self.ell_rem, "invariant ell_rem <= s violated");
            return self.finish(self.hi, out);
        };
        self.iterations += 1;
        // Pick machine i with probability counts[i]/s (Lemma 2.1: combined
        // with the machine's uniform local draw, the pivot is uniform over
        // all in-range keys): the first whose running count passes t.
        let (t, mut acc) = (rng.random_range(0..self.s), 0);
        let chosen = self.counts.iter().take_while(|&&c| {
            acc += c;
            acc <= t
        });
        let chosen = chosen.count();
        if chosen == self.id {
            // Leader sampled itself: draw locally and skip two rounds.
            let pivot = local[rng.random_range(range(local, self.lo, Some(hi)))];
            self.size(pivot, local, out);
        } else {
            out.push((chosen, SelMsg::PickPivot { lo: self.lo, hi }));
        }
        CoreStatus::Running
    }

    /// Ask every machine how many of its keys lie in `(lo, pivot]`, and
    /// count the leader's own.
    fn size(&mut self, pivot: K, local: &[K], out: &mut Outbox<K>) {
        self.broadcast(out, SelMsg::GetSize { lo: self.lo, hi: pivot });
        self.incoming.fill(0);
        self.incoming[self.id] = range(local, self.lo, Some(pivot)).len() as u64;
        self.pending = self.counts.len() - 1;
        self.pivot = Some(pivot);
    }

    fn after_sizes(&mut self, local: &[K], out: &mut Outbox<K>, rng: &mut StdRng) -> CoreStatus<K> {
        let s_prime: u64 = self.incoming.iter().sum();
        debug_assert!(s_prime >= 1, "pivot itself lies in (lo, pivot]");
        if s_prime == self.ell_rem {
            return self.finish(self.pivot, out);
        }
        if s_prime < self.ell_rem {
            // The whole prefix (lo, pivot] joins the answer.
            self.ell_rem -= s_prime;
            self.s -= s_prime;
            for (count, &inside) in self.counts.iter_mut().zip(&self.incoming) {
                *count -= inside;
            }
            self.lo = self.pivot;
        } else {
            // The answer lies within (lo, pivot].
            self.s = s_prime;
            self.counts.copy_from_slice(&self.incoming);
            self.hi = self.pivot;
        }
        self.advance(local, out, rng)
    }

    fn finish(&self, boundary: Option<K>, out: &mut Outbox<K>) -> CoreStatus<K> {
        self.broadcast(out, SelMsg::Finished { boundary });
        CoreStatus::Finished { boundary }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn message_sizes_scale_with_key_bits() {
        let q32: SelMsg<u32> = SelMsg::Query;
        assert_eq!(q32.size_bits(), 3);
        let p: SelMsg<u64> = SelMsg::Pivot(9);
        assert_eq!(p.size_bits(), 3 + 64);
        let g: SelMsg<u64> = SelMsg::GetSize { lo: None, hi: 4 };
        assert_eq!(g.size_bits(), 3 + 129);
    }

    #[test]
    fn range_bounds_on_sorted_keys() {
        let keys = [10u64, 20, 30, 40];
        assert_eq!(range(&keys, None, Some(40)), 0..4);
        assert_eq!(range(&keys, None, Some(25)), 0..2);
        assert_eq!(range(&keys, Some(10), Some(30)), 1..3);
        assert_eq!(range(&keys, Some(40), Some(40)), 4..4);
        assert_eq!(range(&keys, Some(5), Some(9)), 0..0);
        assert_eq!(range(&keys, Some(20), None), 2..4);
    }

    #[test]
    fn single_machine_cluster_finishes_in_start() {
        // start() gathers only its own stats, then runs every pivot
        // iteration locally: k = 1 needs no messages.
        let mut rng = StdRng::seed_from_u64(0);
        let mut core = SelectCore::<u64>::new(0, 1, 0, 3, vec![5, 1, 4, 2, 3]);
        assert_eq!(core.start(&mut rng), CoreStatus::Finished { boundary: Some(3) });
        assert!(core.iterations() > 0, "the search ran pivot iterations");
        assert_eq!(core.outbox().count(), 0, "no messages for k = 1");
    }

    #[test]
    fn ell_zero_yields_empty() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut core = SelectCore::<u64>::new(0, 1, 0, 0, vec![5, 1]);
        let status = core.start(&mut rng);
        assert_eq!(status, CoreStatus::Finished { boundary: None });
    }
}

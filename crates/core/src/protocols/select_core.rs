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

/// Leader-side bookkeeping.
#[derive(Debug)]
struct LeaderState<K: Key> {
    phase: Phase<K>,
    /// Per-machine count of keys in the current range.
    counts: Vec<u64>,
    /// Scratch for the replies being collected.
    incoming: Vec<u64>,
    pending: usize,
    lo: Option<K>,
    hi: Option<K>,
    global_min: Option<K>,
    /// Keys still in the range (`Σ counts`).
    s: u64,
    /// Rank still to be located inside the range.
    ell_rem: u64,
    /// Completed pivot iterations (read into
    /// [`KnnStats::select_iterations`](super::KnnStats::select_iterations);
    /// Theorem 2.2 says `O(log n)` whp).
    iterations: u64,
}

#[derive(Debug, Clone, Copy)]
// The shared Await- prefix mirrors the protocol's "awaiting X" round
// structure; renaming would lose that correspondence.
#[allow(clippy::enum_variant_names)]
enum Phase<K: Key> {
    AwaitReports,
    AwaitPivot,
    AwaitSizes { pivot: K },
}

/// The per-machine state machine for distributed selection.
///
/// Run it as a [`Protocol`](kmachine::Protocol), or drive it by hand with
/// [`SelectCore::start`] (leader only, once) and [`SelectCore::handle`] for
/// every received message; either queues the messages to send, which
/// [`SelectCore::outbox`] hands over so the caller controls the wire format
/// (standalone `SelMsg` or embedded inside another protocol's enum).
#[derive(Debug)]
pub struct SelectCore<K: Key> {
    id: MachineId,
    k: usize,
    pub(super) leader: MachineId,
    /// Local keys, sorted ascending (the sort is local computation, free in
    /// the model; counting then costs `O(log |local|)` per request).
    pub(super) local: Vec<K>,
    lstate: Option<Box<LeaderState<K>>>,
    /// Messages queued by the last `start` / `handle`, reused across rounds.
    out: Vec<(MachineId, SelMsg<K>)>,
}

impl<K: Key> SelectCore<K> {
    /// Build the core for machine `id` of `k`, selecting the `ell` smallest
    /// keys overall. `local` is this machine's share: any order, any size,
    /// possibly empty.
    pub fn new(id: MachineId, k: usize, leader: MachineId, ell: u64, mut local: Vec<K>) -> Self {
        local.sort_unstable();
        let lstate = (id == leader).then(|| {
            Box::new(LeaderState {
                phase: Phase::AwaitReports,
                counts: vec![0; k],
                incoming: vec![0; k],
                pending: 0,
                lo: None,
                hi: None,
                global_min: None,
                s: 0,
                ell_rem: ell,
                iterations: 0,
            })
        });
        SelectCore { id, k, leader, local, lstate, out: Vec::new() }
    }

    /// Completed pivot iterations (leader only; 0 elsewhere).
    pub fn iterations(&self) -> u64 {
        self.lstate.as_ref().map_or(0, |l| l.iterations)
    }

    /// Messages queued since the last call, in send order.
    pub fn outbox(&mut self) -> std::vec::Drain<'_, (MachineId, SelMsg<K>)> {
        self.out.drain(..)
    }

    /// Leader kick-off: broadcast the stats query (and record the leader's
    /// own stats). Must be called exactly once, on the leader, before any
    /// `handle`. On a single machine every count is local, so the whole
    /// search runs here and it returns finished.
    pub fn start(&mut self, rng: &mut StdRng) -> CoreStatus<K> {
        assert_eq!(self.id, self.leader, "start() is leader-only");
        for dst in 0..self.k {
            if dst != self.id {
                self.out.push((dst, SelMsg::Query));
            }
        }
        let (count, min, max) =
            (self.local.len() as u64, self.local.first().copied(), self.local.last().copied());
        let st = self.lstate.as_mut().expect("leader state");
        st.pending = self.k - 1;
        st.counts[self.id] = count;
        st.global_min = min;
        st.hi = max;
        st.s = count;
        if st.pending > 0 {
            return CoreStatus::Running;
        }
        let mut status = self.after_reports(rng);
        while status == CoreStatus::Running {
            status = self.after_sizes(rng);
        }
        status
    }

    /// Feed one received message; queue any responses.
    pub fn handle(&mut self, src: MachineId, msg: &SelMsg<K>, rng: &mut StdRng) -> CoreStatus<K> {
        match msg {
            // ---- worker side ----
            SelMsg::Query => {
                self.out.push((
                    src,
                    SelMsg::Report {
                        count: self.local.len() as u64,
                        min: self.local.first().copied(),
                        max: self.local.last().copied(),
                    },
                ));
                CoreStatus::Running
            }
            SelMsg::PickPivot { lo, hi } => {
                let (a, b) = self.range_bounds(lo, hi);
                assert!(b > a, "leader asked for a pivot from an empty range");
                let idx = rng.random_range(a..b);
                self.out.push((src, SelMsg::Pivot(self.local[idx])));
                CoreStatus::Running
            }
            SelMsg::GetSize { lo, hi } => {
                let (a, b) = self.range_bounds(lo, hi);
                self.out.push((src, SelMsg::Size((b - a) as u64)));
                CoreStatus::Running
            }
            SelMsg::Finished { boundary } => CoreStatus::Finished { boundary: *boundary },

            // ---- leader side ----
            SelMsg::Report { count, min, max } => {
                let st = self.lstate.as_mut().expect("Report reached a non-leader");
                debug_assert!(matches!(st.phase, Phase::AwaitReports));
                st.counts[src] = *count;
                st.s += *count;
                if let Some(m) = min {
                    if st.global_min.is_none_or(|g| *m < g) {
                        st.global_min = Some(*m);
                    }
                }
                if let Some(m) = max {
                    if st.hi.is_none_or(|g| *m > g) {
                        st.hi = Some(*m);
                    }
                }
                st.pending -= 1;
                if st.pending == 0 {
                    return self.after_reports(rng);
                }
                CoreStatus::Running
            }
            SelMsg::Pivot(p) => {
                debug_assert!(matches!(
                    self.lstate.as_ref().expect("leader").phase,
                    Phase::AwaitPivot
                ));
                self.broadcast_getsize(*p);
                CoreStatus::Running
            }
            SelMsg::Size(c) => {
                let st = self.lstate.as_mut().expect("Size reached a non-leader");
                st.incoming[src] = *c;
                st.pending -= 1;
                if st.pending == 0 {
                    return self.after_sizes(rng);
                }
                CoreStatus::Running
            }
        }
    }

    // ---- leader internals ----

    fn after_reports(&mut self, rng: &mut StdRng) -> CoreStatus<K> {
        let st = self.lstate.as_mut().expect("leader");
        // Cap the request at the population: if ell >= s everything is the
        // answer (and ell = 0 means an empty answer).
        st.ell_rem = st.ell_rem.min(st.s);
        self.advance(rng)
    }

    /// Run the decision loop: either finish, or launch the next pivot probe.
    fn advance(&mut self, rng: &mut StdRng) -> CoreStatus<K> {
        let st = self.lstate.as_mut().expect("leader");
        if st.ell_rem == 0 {
            // Everything at or below `lo` is the answer (possibly nothing).
            let boundary = st.lo;
            return self.finish(boundary);
        }
        if st.s <= st.ell_rem {
            debug_assert_eq!(st.s, st.ell_rem, "invariant ell_rem <= s violated");
            let boundary = st.hi;
            return self.finish(boundary);
        }
        st.iterations += 1;
        // Pick machine i with probability counts[i]/s (Lemma 2.1: combined
        // with the machine's uniform local draw, the pivot is uniform over
        // all in-range keys).
        let t = rng.random_range(0..st.s);
        let mut acc = 0u64;
        let mut chosen = usize::MAX;
        for (i, &c) in st.counts.iter().enumerate() {
            acc += c;
            if t < acc {
                chosen = i;
                break;
            }
        }
        debug_assert!(chosen != usize::MAX);
        let lo = st.lo;
        let hi = st.hi.expect("nonempty range has an upper bound");
        st.phase = Phase::AwaitPivot;
        if chosen == self.id {
            // Leader sampled itself: draw locally and skip two rounds.
            let (a, b) = self.range_bounds(&lo, &hi);
            debug_assert!(b > a);
            let idx = rng.random_range(a..b);
            let pivot = self.local[idx];
            self.broadcast_getsize(pivot);
        } else {
            self.out.push((chosen, SelMsg::PickPivot { lo, hi }));
        }
        CoreStatus::Running
    }

    fn broadcast_getsize(&mut self, pivot: K) {
        let lo = self.lstate.as_ref().expect("leader").lo;
        for dst in 0..self.k {
            if dst != self.id {
                self.out.push((dst, SelMsg::GetSize { lo, hi: pivot }));
            }
        }
        let (a, b) = self.range_bounds(&lo, &pivot);
        let st = self.lstate.as_mut().expect("leader");
        st.incoming.iter_mut().for_each(|c| *c = 0);
        st.incoming[self.id] = (b - a) as u64;
        st.pending = self.k - 1;
        st.phase = Phase::AwaitSizes { pivot };
    }

    fn after_sizes(&mut self, rng: &mut StdRng) -> CoreStatus<K> {
        let st = self.lstate.as_mut().expect("leader");
        let Phase::AwaitSizes { pivot } = st.phase else {
            panic!("after_sizes outside AwaitSizes");
        };
        let s_prime: u64 = st.incoming.iter().sum();
        debug_assert!(s_prime >= 1, "pivot itself lies in (lo, pivot]");
        if s_prime == st.ell_rem {
            return self.finish(Some(pivot));
        }
        if s_prime < st.ell_rem {
            // The whole prefix (lo, pivot] joins the answer.
            st.ell_rem -= s_prime;
            st.s -= s_prime;
            for i in 0..st.counts.len() {
                st.counts[i] -= st.incoming[i];
            }
            st.lo = Some(pivot);
        } else {
            // The answer lies within (lo, pivot].
            st.s = s_prime;
            st.counts.copy_from_slice(&st.incoming);
            st.hi = Some(pivot);
        }
        self.advance(rng)
    }

    fn finish(&mut self, boundary: Option<K>) -> CoreStatus<K> {
        for dst in 0..self.k {
            if dst != self.id {
                self.out.push((dst, SelMsg::Finished { boundary }));
            }
        }
        CoreStatus::Finished { boundary }
    }

    /// `[a, b)` index bounds of `(lo, hi]` within the sorted local keys.
    fn range_bounds(&self, lo: &Option<K>, hi: &K) -> (usize, usize) {
        let a = match lo {
            None => 0,
            Some(l) => self.local.partition_point(|x| *x <= *l),
        };
        let b = self.local.partition_point(|x| *x <= *hi);
        (a, b.max(a))
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
        let core = SelectCore::<u64>::new(1, 2, 0, 1, vec![10, 20, 30, 40]);
        assert_eq!(core.range_bounds(&None, &40), (0, 4));
        assert_eq!(core.range_bounds(&None, &25), (0, 2));
        assert_eq!(core.range_bounds(&Some(10), &30), (1, 3));
        assert_eq!(core.range_bounds(&Some(40), &40), (4, 4));
        assert_eq!(core.range_bounds(&Some(5), &9), (0, 0));
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

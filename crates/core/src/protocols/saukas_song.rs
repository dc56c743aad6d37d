//! The **Saukas–Song** deterministic distributed selection baseline
//! (reference \[16\]; SC'98).
//!
//! The work closest in spirit to the paper: each iteration every machine
//! reports the *median* of its live keys together with its live count; the
//! leader partitions at the count-weighted median of those medians. The
//! weighted-median pivot provably discards at least a quarter of the live
//! keys per iteration, so selection over N distributed keys takes
//! `O(log N)` iterations — `O(log(kℓ))` for the ℓ-NN candidate sets —
//! deterministically, versus Algorithm 2's `O(log ℓ)` randomized bound.

use kmachine::{Ctx, MachineId, Payload, Protocol, Step};
use knn_points::Key;
use knn_selection::weighted_median;

use super::{gathered, range};

/// Answer boundary of a selection over a possibly-unbounded range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut<K: Key> {
    /// Empty answer (ℓ = 0 or no keys).
    Nothing,
    /// Every key is in the answer.
    All,
    /// Keys `≤` this value are in the answer.
    At(K),
}

impl<K: Key> Cut<K> {
    /// The same cut as a boundary through a machine's `sorted` keys.
    fn boundary(self, sorted: &[K]) -> Option<K> {
        match self {
            Cut::Nothing => None,
            Cut::All => sorted.last().copied(),
            Cut::At(b) => Some(b),
        }
    }
}

/// Messages of the Saukas–Song protocol.
#[derive(Debug, Clone)]
pub enum SsMsg<K: Key> {
    /// Leader → all: median and count of your keys in `(lo, hi]`
    /// (`lo = None` ⇒ −∞, `hi = None` ⇒ +∞).
    MedianReq {
        /// Exclusive lower bound.
        lo: Option<K>,
        /// Inclusive upper bound (`None` = +∞).
        hi: Option<K>,
    },
    /// Reply: lower median of the live keys (`None` when none are live).
    Median {
        /// Local lower median within the range.
        med: Option<K>,
        /// Number of live keys.
        count: u64,
    },
    /// Leader → all: count keys in `(lo, pivot]`.
    GetSize {
        /// Exclusive lower bound.
        lo: Option<K>,
        /// Inclusive upper bound — the weighted median of medians.
        pivot: K,
    },
    /// Reply to [`SsMsg::GetSize`].
    Size(u64),
    /// Leader → all: final boundary.
    Finished {
        /// Where the answer set ends.
        cut: Cut<K>,
    },
}

impl<K: Key> Payload for SsMsg<K> {
    fn size_bits(&self) -> u64 {
        match self {
            SsMsg::MedianReq { .. } => 3 + 2 * (K::BITS + 1),
            SsMsg::Median { .. } => 3 + K::BITS + 1 + 64,
            SsMsg::GetSize { .. } => 3 + 2 * K::BITS + 1,
            SsMsg::Size(_) => 3 + 64,
            SsMsg::Finished { .. } => 5 + K::BITS,
        }
    }
}

/// The leader's bookkeeping, which exists only on the leader: the live
/// range, the rank still to place in it, and the gather in progress.
struct Coordinator<K: Key> {
    /// Exclusive lower bound of the live range (−∞ when `None`).
    lo: Option<K>,
    /// Inclusive upper bound of the live range (+∞ when `None`).
    hi: Option<K>,
    /// Rank still to be located inside the range.
    ell_rem: u64,
    /// The live medians gathered, each with its machine's live count.
    medians: Vec<(K, u64)>,
    /// The pivot being sized (`None` before the first).
    pivot: Option<K>,
    /// Keys in `(lo, pivot]` gathered so far.
    sizes: u64,
    /// Replies still awaited.
    pending: usize,
}

/// Per-machine instance of Saukas–Song selection.
pub struct SaukasSongProtocol<K: Key> {
    leader: MachineId,
    /// Local top-ℓ candidates, sorted.
    local: Vec<K>,
    /// Round 0 has run.
    started: bool,
    /// `Some` exactly on the leader.
    coordinator: Option<Coordinator<K>>,
}

impl<K: Key> SaukasSongProtocol<K> {
    /// Machine `id` of `k`, selecting the `ell` smallest keys among every
    /// machine's `local` candidates (sorted ascending, at most `ell`).
    pub fn new(id: MachineId, k: usize, leader: MachineId, ell: u64, local: Vec<K>) -> Self {
        super::debug_assert_candidates(&local, ell);
        let coordinator = (id == leader).then(|| Coordinator {
            lo: None,
            hi: None,
            ell_rem: ell,
            medians: Vec::with_capacity(k),
            pivot: None,
            sizes: 0,
            pending: 0,
        });
        SaukasSongProtocol { leader, local, started: false, coordinator }
    }

    /// This machine's keys at or below `cut`.
    fn answer(&self, cut: Cut<K>) -> Vec<K> {
        super::at_or_below(&self.local, cut.boundary(&self.local))
    }
}

/// The lower median of the keys of `local` in `(lo, hi]` (`None` when there
/// are none), and their count.
fn local_median<K: Key>(local: &[K], lo: Option<K>, hi: Option<K>) -> (Option<K>, u64) {
    let live = &local[range(local, lo, hi)];
    (live.get(live.len().saturating_sub(1) / 2).copied(), live.len() as u64)
}

impl<K: Key> Coordinator<K> {
    /// Launch one median-probe iteration over the current range.
    fn request_medians(&mut self, local: &[K], ctx: &mut Ctx<'_, SsMsg<K>>) {
        ctx.broadcast(SsMsg::MedianReq { lo: self.lo, hi: self.hi });
        self.medians.clear();
        if let (Some(med), count) = local_median(local, self.lo, self.hi) {
            self.medians.push((med, count));
        }
        self.pending = ctx.k() - 1;
    }

    /// The answer when it is the whole live range.
    fn upper_cut(&self) -> Cut<K> {
        self.hi.map_or(Cut::All, Cut::At)
    }

    /// All medians in: finish, or partition at the weighted median.
    fn after_medians(&mut self, local: &[K], ctx: &mut Ctx<'_, SsMsg<K>>) -> Option<Cut<K>> {
        let s: u64 = self.medians.iter().map(|&(_, c)| c).sum();
        self.ell_rem = self.ell_rem.min(s);
        if self.ell_rem == 0 {
            return Some(self.lo.map_or(Cut::Nothing, Cut::At));
        }
        // With `s <= ell_rem` the whole live range is the answer; past that
        // some machine holds live keys, so there are medians to weigh.
        let pivot = if s > self.ell_rem { weighted_median(&mut self.medians).ok() } else { None };
        let Some(pivot) = pivot else {
            return Some(self.upper_cut());
        };
        ctx.broadcast(SsMsg::GetSize { lo: self.lo, pivot });
        self.sizes = range(local, self.lo, Some(pivot)).len() as u64;
        self.pending = ctx.k() - 1;
        self.pivot = Some(pivot);
        None
    }

    /// All sizes in: narrow the range to one side of the pivot, or finish
    /// at it.
    fn after_sizes(&mut self, local: &[K], ctx: &mut Ctx<'_, SsMsg<K>>) -> Option<Cut<K>> {
        if self.sizes < self.ell_rem {
            self.ell_rem -= self.sizes;
            self.lo = self.pivot;
        } else {
            self.hi = self.pivot;
            if self.sizes == self.ell_rem {
                return Some(self.upper_cut());
            }
        }
        self.request_medians(local, ctx);
        None
    }
}

impl<K: Key> Protocol for SaukasSongProtocol<K> {
    type Msg = SsMsg<K>;
    type Output = Vec<K>;

    fn on_round(&mut self, ctx: &mut Ctx<'_, SsMsg<K>>) -> Step<Vec<K>> {
        if !self.started {
            self.started = true;
            if let Some(c) = &mut self.coordinator {
                if ctx.k() == 1 {
                    // Select locally: the answer is the ℓ-smallest prefix.
                    let end = (c.ell_rem as usize).min(self.local.len());
                    return Step::Done(self.local[..end].to_vec());
                }
                c.request_medians(&self.local, ctx);
            }
            return Step::Wait;
        }

        // Workers answer probes and the leader collects replies: both only
        // ever react to mail.
        for env in ctx.inbox() {
            let local = &self.local[..];
            let cut = match (&env.msg, &mut self.coordinator) {
                (&SsMsg::MedianReq { lo, hi }, None) => {
                    let (med, count) = local_median(local, lo, hi);
                    ctx.send(self.leader, SsMsg::Median { med, count });
                    None
                }
                (&SsMsg::GetSize { lo, pivot }, None) => {
                    let size = range(local, lo, Some(pivot)).len() as u64;
                    ctx.send(self.leader, SsMsg::Size(size));
                    None
                }
                (&SsMsg::Finished { cut }, None) => return Step::Done(self.answer(cut)),
                (&SsMsg::Median { med, count }, Some(c)) => {
                    c.medians.extend(med.map(|m| (m, count)));
                    gathered(&mut c.pending).then(|| c.after_medians(local, ctx)).flatten()
                }
                (&SsMsg::Size(n), Some(c)) => {
                    c.sizes += n;
                    gathered(&mut c.pending).then(|| c.after_sizes(local, ctx)).flatten()
                }
                (_, None) => unreachable!("a worker is sent only requests (see `protocols`)"),
                (_, Some(_)) => unreachable!("the leader is sent only replies (see `protocols`)"),
            };
            if let Some(cut) = cut {
                ctx.broadcast(SsMsg::Finished { cut });
                return Step::Done(self.answer(cut));
            }
        }
        Step::Wait
    }
}

#[cfg(test)]
mod tests {
    use super::super::top_ell;
    use super::*;
    use kmachine::engine::run_sync;
    use kmachine::NetConfig;
    use knn_workloads::partition::{PartitionStrategy, ALL_STRATEGIES};
    use proptest::prelude::*;

    fn run_ss(shards: Vec<Vec<u64>>, ell: u64, seed: u64) -> (Vec<u64>, kmachine::RunMetrics) {
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(seed);
        let protos: Vec<SaukasSongProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| SaukasSongProtocol::new(i, k, 0, ell, top_ell(local, ell)))
            .collect();
        let out = run_sync(&cfg, protos).expect("saukas-song run");
        let mut merged: Vec<u64> = out.outputs.into_iter().flatten().collect();
        merged.sort_unstable();
        (merged, out.metrics)
    }

    fn expected(shards: &[Vec<u64>], ell: usize) -> Vec<u64> {
        let mut all: Vec<u64> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        all.truncate(ell);
        all
    }

    #[test]
    fn selects_correctly() {
        let shards = vec![vec![10, 40, 70], vec![20, 50, 80], vec![30, 60, 90]];
        let (got, _) = run_ss(shards.clone(), 4, 1);
        assert_eq!(got, expected(&shards, 4));
    }

    #[test]
    fn edge_cases() {
        assert_eq!(run_ss(vec![vec![3, 1], vec![2]], 0, 1).0, Vec::<u64>::new());
        assert_eq!(run_ss(vec![vec![3, 1], vec![2]], 3, 2).0, vec![1, 2, 3]);
        assert_eq!(run_ss(vec![vec![3, 1], vec![2]], 99, 3).0, vec![1, 2, 3]);
        assert_eq!(run_ss(vec![vec![], vec![]], 5, 4).0, Vec::<u64>::new());
        assert_eq!(run_ss(vec![vec![7, 7 + 1]], 1, 5).0, vec![7]);
        assert_eq!(run_ss(vec![vec![], vec![5], vec![]], 1, 6).0, vec![5]);
    }

    #[test]
    fn deterministic_rounds_same_for_any_seed() {
        // The protocol is deterministic: the seed must not affect anything.
        let all: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let shards = PartitionStrategy::RoundRobin.split(all, 8, 0);
        let (a, ma) = run_ss(shards.clone(), 50, 1);
        let (b, mb) = run_ss(shards, 50, 999);
        assert_eq!(a, b);
        assert_eq!(ma.rounds, mb.rounds);
        assert_eq!(ma.messages, mb.messages);
    }

    #[test]
    fn iterations_logarithmic_in_total() {
        // ≥ 1/4 of live keys discarded per iteration ⇒ ≤ log_{4/3}(n) + O(1)
        // iterations; each iteration is 4 rounds.
        let all: Vec<u64> = (0..1 << 14).map(|i: u64| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let shards = PartitionStrategy::Shuffled.split(all, 16, 3);
        let (_, m) = run_ss(shards, 256, 0);
        let bound = 4 * ((16384f64).log(4.0 / 3.0).ceil() as u64 + 4);
        assert!(m.rounds <= bound, "rounds {} > bound {bound}", m.rounds);
    }

    #[test]
    fn all_partition_strategies() {
        let all: Vec<u64> = (0..600u64).map(|i| i.wrapping_mul(48271) % 50_000).collect();
        let want = expected(std::slice::from_ref(&all), 37);
        for strat in ALL_STRATEGIES {
            let shards = strat.split(all.clone(), 7, 5);
            let (got, _) = run_ss(shards, 37, 7);
            assert_eq!(got, want, "{strat:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_matches_sequential(
            values in proptest::collection::hash_set(any::<u64>(), 0..150),
            k in 1usize..8,
            ell in 0u64..40,
            strat_idx in 0usize..5,
            seed in 0u64..200,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let want = expected(std::slice::from_ref(&values), ell as usize);
            let shards = ALL_STRATEGIES[strat_idx].split(values, k, seed);
            let (got, _) = run_ss(shards, ell, seed);
            prop_assert_eq!(got, want);
        }
    }
}

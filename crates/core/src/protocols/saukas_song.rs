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

#[derive(Clone, Copy)]
enum SsPhase<K: Key> {
    Init,
    AwaitMedians,
    AwaitSizes { pivot: K },
    Worker,
}

/// Per-machine instance of Saukas–Song selection.
pub struct SaukasSongProtocol<K: Key> {
    id: MachineId,
    k: usize,
    leader: MachineId,
    ell: u64,
    /// Local top-ℓ candidates, sorted.
    local: Vec<K>,
    phase: SsPhase<K>,
    // Leader state.
    lo: Option<K>,
    hi: Option<K>,
    ell_rem: u64,
    medians: Vec<(K, u64)>,
    sizes: u64,
    pending: usize,
    /// Completed pivot iterations (leader; for the baselines experiment).
    pub iterations: u64,
}

impl<K: Key> SaukasSongProtocol<K> {
    /// Machine `id` of `k`, selecting the `ell` smallest keys among every
    /// machine's `local` candidates (sorted ascending, at most `ell`).
    pub fn new(id: MachineId, k: usize, leader: MachineId, ell: u64, local: Vec<K>) -> Self {
        super::debug_assert_candidates(&local, ell);
        SaukasSongProtocol {
            id,
            k,
            leader,
            ell,
            local,
            phase: SsPhase::Init,
            lo: None,
            hi: None,
            ell_rem: ell,
            medians: Vec::new(),
            sizes: 0,
            pending: 0,
            iterations: 0,
        }
    }

    /// Raw-materialized-keys constructor for tests (sorts and truncates).
    pub fn from_keys(id: MachineId, k: usize, leader: MachineId, ell: u64, keys: Vec<K>) -> Self {
        Self::new(id, k, leader, ell, super::top_ell(keys, ell))
    }

    fn range_bounds(&self, lo: &Option<K>, hi: &Option<K>) -> (usize, usize) {
        let a = match lo {
            None => 0,
            Some(l) => self.local.partition_point(|x| *x <= *l),
        };
        let b = match hi {
            None => self.local.len(),
            Some(h) => self.local.partition_point(|x| *x <= *h),
        };
        (a, b.max(a))
    }

    fn local_median(&self, lo: &Option<K>, hi: &Option<K>) -> (Option<K>, u64) {
        let (a, b) = self.range_bounds(lo, hi);
        if a == b {
            (None, 0)
        } else {
            (Some(self.local[a + (b - a - 1) / 2]), (b - a) as u64)
        }
    }

    fn output_for(&self, cut: Cut<K>) -> Vec<K> {
        match cut {
            Cut::Nothing => Vec::new(),
            Cut::All => self.local.clone(),
            Cut::At(b) => {
                let end = self.local.partition_point(|x| *x <= b);
                self.local[..end].to_vec()
            }
        }
    }

    /// Leader: launch one median-probe iteration over the current range.
    fn request_medians(&mut self, ctx: &mut Ctx<'_, SsMsg<K>>) {
        ctx.broadcast(SsMsg::MedianReq { lo: self.lo, hi: self.hi });
        self.medians.clear();
        let (med, count) = self.local_median(&self.lo.clone(), &self.hi.clone());
        if let Some(m) = med {
            self.medians.push((m, count));
        }
        self.pending = self.k - 1;
        self.phase = SsPhase::AwaitMedians;
    }

    /// Leader: all medians in — finish or partition at the weighted median.
    fn after_medians(&mut self, ctx: &mut Ctx<'_, SsMsg<K>>) -> Option<Cut<K>> {
        let s: u64 = self.medians.iter().map(|&(_, c)| c).sum();
        self.ell_rem = self.ell_rem.min(s);
        if self.ell_rem == 0 {
            return Some(match self.lo {
                None => Cut::Nothing,
                Some(b) => Cut::At(b),
            });
        }
        if s <= self.ell_rem {
            return Some(match self.hi {
                None => Cut::All,
                Some(b) => Cut::At(b),
            });
        }
        self.iterations += 1;
        let pivot = weighted_median(&mut self.medians).expect("s > 0 implies medians");
        ctx.broadcast(SsMsg::GetSize { lo: self.lo, pivot });
        let (a, b) = self.range_bounds(&self.lo.clone(), &Some(pivot));
        self.sizes = (b - a) as u64;
        self.pending = self.k - 1;
        self.phase = SsPhase::AwaitSizes { pivot };
        None
    }

    /// Leader: all sizes in — update the range, maybe finish.
    fn after_sizes(&mut self, ctx: &mut Ctx<'_, SsMsg<K>>) -> Option<Cut<K>> {
        let SsPhase::AwaitSizes { pivot } = self.phase else {
            panic!("after_sizes outside AwaitSizes")
        };
        let s_prime = self.sizes;
        if s_prime == self.ell_rem {
            return Some(Cut::At(pivot));
        }
        if s_prime < self.ell_rem {
            self.ell_rem -= s_prime;
            self.lo = Some(pivot);
        } else {
            self.hi = Some(pivot);
        }
        self.request_medians(ctx);
        None
    }

    fn finish(&mut self, cut: Cut<K>, ctx: &mut Ctx<'_, SsMsg<K>>) -> Step<Vec<K>> {
        ctx.broadcast(SsMsg::Finished { cut });
        Step::Done(self.output_for(cut))
    }
}

impl<K: Key> Protocol for SaukasSongProtocol<K> {
    type Msg = SsMsg<K>;
    type Output = Vec<K>;

    fn on_round(&mut self, ctx: &mut Ctx<'_, SsMsg<K>>) -> Step<Vec<K>> {
        debug_assert_eq!(ctx.id(), self.id, "protocol wired to the wrong machine");
        if matches!(self.phase, SsPhase::Init) {
            if ctx.id() == self.leader {
                if ctx.k() == 1 {
                    // Select locally: the answer is the ℓ-smallest prefix.
                    let end = (self.ell as usize).min(self.local.len());
                    return Step::Done(self.local[..end].to_vec());
                }
                self.request_medians(ctx);
            } else {
                self.phase = SsPhase::Worker;
            }
            return Step::Wait;
        }

        // Workers answer probes and the leader collects replies: both only
        // ever react to mail.
        if ctx.id() != self.leader {
            for env in ctx.inbox() {
                match &env.msg {
                    SsMsg::MedianReq { lo, hi } => {
                        let (med, count) = self.local_median(lo, hi);
                        ctx.send(self.leader, SsMsg::Median { med, count });
                    }
                    SsMsg::GetSize { lo, pivot } => {
                        let (a, b) = self.range_bounds(lo, &Some(*pivot));
                        ctx.send(self.leader, SsMsg::Size((b - a) as u64));
                    }
                    SsMsg::Finished { cut } => return Step::Done(self.output_for(*cut)),
                    other => panic!("worker received a leader-only message {other:?}"),
                }
            }
            return Step::Wait;
        }

        // Leader.
        for env in ctx.inbox() {
            match &env.msg {
                &SsMsg::Median { med, count } => {
                    if let Some(m) = med {
                        self.medians.push((m, count));
                    }
                    self.pending -= 1;
                    if self.pending == 0 {
                        if let Some(cut) = self.after_medians(ctx) {
                            return self.finish(cut, ctx);
                        }
                    }
                }
                SsMsg::Size(c) => {
                    self.sizes += c;
                    self.pending -= 1;
                    if self.pending == 0 {
                        if let Some(cut) = self.after_sizes(ctx) {
                            return self.finish(cut, ctx);
                        }
                    }
                }
                other => panic!("leader received an unexpected message {other:?}"),
            }
        }
        Step::Wait
    }
}

#[cfg(test)]
mod tests {
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
            .map(|(i, local)| SaukasSongProtocol::from_keys(i, k, 0, ell, local))
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

//! Binary search over the **value domain** — the style of distributed ℓ-NN
//! the paper cites as prior work (\[3\] Cahsai et al., \[18\] Yang et al.).
//!
//! Instead of comparing keys, the leader bisects the numeric interval
//! `[min, max]` and asks every machine how many keys fall at or below the
//! midpoint. Round complexity is `O(log V)` where `V` is the spread of the
//! *values* — independent of n and ℓ, but dependent on the value domain,
//! which is exactly why it sits outside the comparison-based lower bound
//! the paper's `O(log ℓ)` result is measured against (§1.3, footnote 2:
//! algorithms using only comparisons cannot beat `Ω(log n)` for median
//! finding; bisection sidesteps the bound by exploiting value structure).

use kmachine::{Ctx, MachineId, Payload, Protocol, Step};
use knn_points::NumericKey;

use super::gathered;

/// Messages of the value-domain bisection protocol. Key values travel as
/// order-preserving `u128` ordinals.
#[derive(Debug, Clone)]
pub enum BsMsg {
    /// Leader → all: report `(count, min, max)` ordinals of your keys.
    Query,
    /// Reply to [`BsMsg::Query`] (`None`s when the machine has no keys).
    Report {
        /// Number of local keys.
        count: u64,
        /// Smallest local ordinal.
        min: Option<u128>,
        /// Largest local ordinal.
        max: Option<u128>,
    },
    /// Leader → all: how many of your keys have ordinal `≤ threshold`?
    Count {
        /// Bisection midpoint.
        threshold: u128,
    },
    /// Reply to [`BsMsg::Count`].
    Size(u64),
    /// Leader → all: output keys with ordinal `≤ threshold` (`None` =
    /// empty answer).
    Finished {
        /// Final boundary ordinal.
        threshold: Option<u128>,
    },
}

impl Payload for BsMsg {
    fn size_bits(&self) -> u64 {
        match self {
            BsMsg::Query => 3,
            BsMsg::Report { .. } => 3 + 64 + 2 * 129,
            BsMsg::Count { .. } => 3 + 128,
            BsMsg::Size(_) => 3 + 64,
            BsMsg::Finished { .. } => 3 + 129,
        }
    }
}

/// The leader's move once a gather is in: `Some(threshold)` when it knows
/// the answer's boundary, `None` while it awaits more replies.
type Verdict = Option<Option<u128>>;

/// The leader's bookkeeping, which exists only on the leader: the census
/// totals, the bisection interval, and the gather in progress.
struct Coordinator {
    /// ℓ, capped at the population once the census is in.
    ell: u64,
    /// Keys on every machine, as the census reports them.
    total: u64,
    /// The boundary lies in `[lo, hi]`; during the census, the least and
    /// greatest ordinals reported so far.
    lo: u128,
    hi: u128,
    /// The midpoint being counted, and the keys at or below it counted so
    /// far.
    mid: u128,
    acc: u64,
    /// Replies still awaited.
    pending: usize,
    /// Workers that reported a nonzero key count — the only ones probed
    /// during bisection (empty workers go silent after the census).
    active: usize,
}

/// Per-machine instance of value-domain bisection selection.
pub struct BinSearchProtocol<K: NumericKey> {
    leader: MachineId,
    /// Local top-ℓ candidates, sorted by ordinal (== key order).
    local: Vec<K>,
    /// Round 0 has run.
    started: bool,
    /// `Some` exactly on the leader.
    coordinator: Option<Coordinator>,
}

impl<K: NumericKey> BinSearchProtocol<K> {
    /// Machine `id` of `k`, selecting the `ell` smallest keys among every
    /// machine's `local` candidates (sorted ascending, at most `ell`).
    pub fn new(id: MachineId, k: usize, leader: MachineId, ell: u64, local: Vec<K>) -> Self {
        super::debug_assert_candidates(&local, ell);
        let coordinator = (id == leader).then_some(Coordinator {
            ell,
            total: 0,
            lo: u128::MAX,
            hi: 0,
            mid: 0,
            acc: 0,
            pending: k - 1,
            active: 0,
        });
        BinSearchProtocol { leader, local, started: false, coordinator }
    }

    fn output_for(&self, threshold: Option<u128>) -> Vec<K> {
        self.local[..threshold.map_or(0, |t| count_leq(&self.local, t))].to_vec()
    }
}

/// How many of the sorted keys `local` have ordinal `≤ threshold`.
fn count_leq<K: NumericKey>(local: &[K], threshold: u128) -> usize {
    local.partition_point(|key| key.to_ordinal() <= threshold)
}

/// `(count, min, max)` of the sorted keys `local`, as ordinals.
fn census<K: NumericKey>(local: &[K]) -> (u64, Option<u128>, Option<u128>) {
    let ordinal = |key: &K| key.to_ordinal();
    (local.len() as u64, local.first().map(ordinal), local.last().map(ordinal))
}

impl Coordinator {
    /// Add one machine's census.
    fn census(&mut self, (count, min, max): (u64, Option<u128>, Option<u128>)) {
        self.total += count;
        if let (Some(min), Some(max)) = (min, max) {
            self.lo = self.lo.min(min);
            self.hi = self.hi.max(max);
        }
    }

    /// The census is in: finish, or bisect.
    fn after_census(&mut self, local: &[impl NumericKey], ctx: &mut Ctx<'_, BsMsg>) -> Verdict {
        self.ell = self.ell.min(self.total);
        if self.ell == 0 {
            return Some(None);
        }
        if self.ell == self.total {
            return Some(Some(self.hi));
        }
        self.bisect(local, ctx)
    }

    /// Every count at or below `mid` is in: finish at it, or bisect on.
    fn after_count(&mut self, local: &[impl NumericKey], ctx: &mut Ctx<'_, BsMsg>) -> Verdict {
        if self.narrow() {
            return Some(Some(self.mid));
        }
        self.bisect(local, ctx)
    }

    /// Bisection steps — either finish or probe the midpoint. When no
    /// worker holds keys (`active == 0`) the probes would go unanswered
    /// (empty workers are silent), so the leader bisects locally to
    /// completion instead — every key it is counting is its own.
    fn bisect(&mut self, local: &[impl NumericKey], ctx: &mut Ctx<'_, BsMsg>) -> Verdict {
        while self.lo < self.hi {
            self.mid = self.lo + (self.hi - self.lo) / 2;
            self.acc = count_leq(local, self.mid) as u64;
            if self.active > 0 {
                ctx.broadcast(BsMsg::Count { threshold: self.mid });
                // Only workers with keys answer probes.
                self.pending = self.active;
                return None;
            }
            if self.narrow() {
                return Some(Some(self.mid));
            }
        }
        Some(Some(self.lo))
    }

    /// Every count at or below `mid` is in: `true` when `{x ≤ mid}` is
    /// exactly the answer set, else narrow `[lo, hi]` to the side that
    /// holds the boundary.
    fn narrow(&mut self) -> bool {
        if self.acc == self.ell {
            return true;
        }
        if self.acc > self.ell {
            self.hi = self.mid;
        } else {
            self.lo = self.mid + 1;
        }
        false
    }
}

impl<K: NumericKey> Protocol for BinSearchProtocol<K> {
    type Msg = BsMsg;
    type Output = Vec<K>;

    /// A machine that ran its round 0 and holds no keys provably
    /// contributes nothing, so a crash there salvages an (exact!) empty
    /// output. Any other crash — keys on board, or dead before round 0 ran
    /// — may lose answer members or the coordinator: unsalvageable, and the
    /// runner retries over the survivors.
    fn on_crash(&mut self) -> Option<Vec<K>> {
        (self.started && self.local.is_empty()).then(Vec::new)
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, BsMsg>) -> Step<Vec<K>> {
        if !self.started {
            self.started = true;
            if let Some(c) = &mut self.coordinator {
                if ctx.k() == 1 {
                    let end = (c.ell as usize).min(self.local.len());
                    return Step::Done(self.local[..end].to_vec());
                }
                ctx.broadcast(BsMsg::Query);
                c.census(census(&self.local));
            }
            return Step::Wait;
        }

        // Workers answer probes and the leader collects replies: both only
        // ever react to mail.
        for env in ctx.inbox() {
            let local = &self.local[..];
            let threshold = match (&env.msg, &mut self.coordinator) {
                (BsMsg::Query, None) => {
                    let (count, min, max) = census(local);
                    ctx.send(self.leader, BsMsg::Report { count, min, max });
                    None
                }
                (&BsMsg::Count { threshold }, None) => {
                    // Empty workers stay silent: their count is always 0
                    // and the leader does not wait for them.
                    if !local.is_empty() {
                        ctx.send(self.leader, BsMsg::Size(count_leq(local, threshold) as u64));
                    }
                    None
                }
                (&BsMsg::Finished { threshold }, None) => {
                    return Step::Done(self.output_for(threshold))
                }
                (&BsMsg::Report { count, min, max }, Some(c)) => {
                    c.active += usize::from(count > 0);
                    c.census((count, min, max));
                    gathered(&mut c.pending).then(|| c.after_census(local, ctx)).flatten()
                }
                (&BsMsg::Size(n), Some(c)) => {
                    c.acc += n;
                    gathered(&mut c.pending).then(|| c.after_count(local, ctx)).flatten()
                }
                (_, None) => unreachable!("a worker is sent only requests (see `protocols`)"),
                (_, Some(_)) => unreachable!("the leader is sent only replies (see `protocols`)"),
            };
            if let Some(threshold) = threshold {
                ctx.broadcast(BsMsg::Finished { threshold });
                return Step::Done(self.output_for(threshold));
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

    fn run_bs(shards: Vec<Vec<u64>>, ell: u64, seed: u64) -> (Vec<u64>, kmachine::RunMetrics) {
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(seed);
        let protos: Vec<BinSearchProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| BinSearchProtocol::new(i, k, 0, ell, top_ell(local, ell)))
            .collect();
        let out = run_sync(&cfg, protos).expect("binsearch run");
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
        let (got, _) = run_bs(shards.clone(), 4, 1);
        assert_eq!(got, expected(&shards, 4));
    }

    #[test]
    fn edge_cases() {
        assert_eq!(run_bs(vec![vec![3, 1], vec![2]], 0, 1).0, Vec::<u64>::new());
        assert_eq!(run_bs(vec![vec![3, 1], vec![2]], 3, 2).0, vec![1, 2, 3]);
        assert_eq!(run_bs(vec![vec![3, 1], vec![2]], 99, 3).0, vec![1, 2, 3]);
        assert_eq!(run_bs(vec![vec![], vec![]], 5, 4).0, Vec::<u64>::new());
        assert_eq!(run_bs(vec![vec![5]], 1, 5).0, vec![5]);
        assert_eq!(run_bs(vec![vec![], vec![5], vec![]], 1, 6).0, vec![5]);
    }

    #[test]
    fn bisection_with_empty_shards_stays_correct() {
        // Empty workers answer the census once and then never speak; the
        // leader probes only the nonzero ones. ell < total forces real
        // bisection iterations through the silent-worker path.
        let shards = vec![vec![100u64, 5, 61, 999, 77], vec![], vec![42, 7, 500, 8]];
        let (got, _) = run_bs(shards.clone(), 4, 9);
        assert_eq!(got, expected(&shards, 4));
        // All keys on the leader: probes would go unanswered, so the
        // leader bisects locally.
        let shards = vec![vec![13u64, 2, 88, 41, 900, 7], vec![], vec![]];
        let (got, m) = run_bs(shards.clone(), 3, 10);
        assert_eq!(got, expected(&shards, 3));
        // Census + final broadcast only — no probe traffic at all.
        assert_eq!(m.messages, 2 + 2 + 2);
    }

    #[test]
    fn adjacent_values_still_separable() {
        // The bisection must cope with keys that differ by 1.
        let shards = vec![vec![100, 101], vec![102, 103], vec![104]];
        let (got, _) = run_bs(shards, 3, 7);
        assert_eq!(got, vec![100, 101, 102]);
    }

    #[test]
    fn rounds_scale_with_value_spread_not_n() {
        // Same n, tiny value domain vs huge value domain.
        let narrow: Vec<u64> = (0..4096u64).map(|i| 1000 + i % 64).collect();
        let wide: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let shards_n = PartitionStrategy::RoundRobin.split(narrow, 8, 0);
        let shards_w = PartitionStrategy::RoundRobin.split(wide, 8, 0);
        let (_, mn) = run_bs(shards_n, 100, 1);
        let (_, mw) = run_bs(shards_w, 100, 1);
        assert!(
            mn.rounds < mw.rounds,
            "narrow domain should need fewer rounds: {} vs {}",
            mn.rounds,
            mw.rounds
        );
        // Spread ≤ 64 values ⇒ ≤ ~6 bisections ⇒ ≤ ~12+4 rounds.
        assert!(mn.rounds <= 20, "narrow rounds = {}", mn.rounds);
    }

    #[test]
    fn rejoin_mid_bisection_is_byte_identical() {
        use crate::runner::{run_query, Algorithm, QueryOptions};
        use kmachine::RecoveryPlan;
        use knn_points::{Dataset, IdAssigner, ScalarPoint};
        // A wide value domain forces dozens of bisection rounds, so the
        // crash lands mid-search for both the leader and a worker; the
        // query re-runs once the machine is back.
        let wide: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let mut ids = IdAssigner::new(0);
        let shards: Vec<Dataset<ScalarPoint>> = PartitionStrategy::RoundRobin
            .split(wide, 4, 0)
            .into_iter()
            .map(|vals| Dataset::from_points(vals.into_iter().map(ScalarPoint).collect(), &mut ids))
            .collect();
        let clean = QueryOptions { seed: 3, ..Default::default() };
        let q = ScalarPoint(1 << 63);
        let want = run_query(&shards, &q, 9, Algorithm::BinSearch, &clean).unwrap();
        for machine in [0usize, 1] {
            let recovery = RecoveryPlan::default().with_rejoin(machine, 5, 9);
            let opts = QueryOptions { recovery, ..clean.clone() };
            let out = run_query(&shards, &q, 9, Algorithm::BinSearch, &opts).unwrap();
            assert_eq!(out.local_keys, want.local_keys, "machine {machine}");
            assert_eq!(out.metrics, want.metrics, "machine {machine}");
            assert_eq!(out.attempts, 2, "machine {machine}");
            assert_eq!(out.recovery.rejoined, vec![machine]);
            assert!(out.faults.crashed.is_empty(), "machine {machine}");
        }
    }

    #[test]
    fn deterministic_like_saukas_song() {
        let all: Vec<u64> = (0..512u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let shards = PartitionStrategy::RoundRobin.split(all, 4, 0);
        let (a, ma) = run_bs(shards.clone(), 17, 1);
        let (b, mb) = run_bs(shards, 17, 2222);
        assert_eq!(a, b);
        assert_eq!(ma.rounds, mb.rounds);
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
            let (got, _) = run_bs(shards, ell, seed);
            prop_assert_eq!(got, want);
        }
    }
}

//! **Approximate ℓ-NN** — an extension of the paper's machinery.
//!
//! Algorithm 2 spends its final `O(log ℓ)` rounds running Algorithm 1 to
//! cut the `≈ 1.75ℓ` pruning survivors down to exactly ℓ. For many of the
//! paper's motivating applications (classification by majority vote,
//! regression by averaging) a slightly larger neighbor set is just as
//! good — so this protocol stops after the pruning broadcast and returns
//! *all* survivors:
//!
//! * the result is a **superset of the true ℓ-NN** whenever at least ℓ
//!   candidates survive (which Lemma 2.3 gives whp, and which the leader
//!   verifies exactly with one extra count round — reported, not assumed);
//! * expected size is `(rank_factor / sample_factor) · ℓ ≈ 1.75ℓ` with the
//!   paper's constants, and at most `11ℓ` whp;
//! * total cost is the sampling transfer plus two broadcasts — the
//!   `O(log ℓ)` *iterated* search of Algorithm 1 disappears entirely.
//!
//! This is the "subroutine" style of use the paper's conclusion gestures
//! at: a cheap superset pass that downstream logic can consume directly.

use kmachine::{Ctx, MachineId, Payload, Protocol, Step};
use knn_points::Key;
use rand::RngExt;

use super::knn::KnnParams;

/// Messages of the approximate protocol.
#[derive(Debug, Clone)]
pub enum ApproxMsg<K: Key> {
    /// Machine → leader: sampled candidate keys plus the candidate count
    /// (the count lets the leader skip pruning when ℓ already covers the
    /// whole population).
    Samples {
        /// The sampled keys.
        keys: Vec<K>,
        /// Candidates held by the sender.
        count: u64,
    },
    /// Leader → all: keep keys `≤ r`; `None` means keep everything
    /// (ℓ covers the entire candidate population, so pruning would only
    /// lose answers).
    Threshold {
        /// The pruning threshold.
        r: Option<K>,
    },
    /// Machine → leader: how many keys survived.
    Count(u64),
    /// Leader → all: global survivor total and whether the survivor set
    /// provably contains the exact ℓ-NN.
    Done {
        /// Global number of survivors.
        total: u64,
        /// Leader-verified containment guarantee.
        contains: bool,
    },
}

impl<K: Key> Payload for ApproxMsg<K> {
    fn size_bits(&self) -> u64 {
        match self {
            ApproxMsg::Samples { keys, .. } => 32 + 64 + K::BITS * keys.len() as u64,
            ApproxMsg::Threshold { .. } => 3 + K::BITS + 1,
            ApproxMsg::Count(_) => 3 + 64,
            ApproxMsg::Done { .. } => 3 + 64 + 1,
        }
    }
}

/// Per-machine output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxOutput<K: Key> {
    /// This machine's surviving keys — globally, all keys `≤ r`.
    pub keys: Vec<K>,
    /// Global survivor count (equal on every machine).
    pub total: u64,
    /// Whether the guarantee `total ≥ min(ℓ, candidates)` held, i.e. the
    /// returned set provably contains the exact ℓ-NN.
    pub contains_exact: bool,
}

enum APhase {
    Init,
    CollectSamples,
    AwaitThreshold,
    CollectCounts,
    AwaitDone,
}

/// Approximate ℓ-NN: pruning-only superset search.
pub struct ApproxKnnProtocol<K: Key> {
    id: MachineId,
    k: usize,
    leader: MachineId,
    ell: u64,
    params: KnnParams,
    /// Local candidates (ℓ best), sorted ascending.
    candidates: Vec<K>,
    kept: usize,
    phase: APhase,
    // Leader scratch.
    samples: Vec<K>,
    pending: usize,
    count_sum: u64,
    total_candidates: u64,
}

impl<K: Key> ApproxKnnProtocol<K> {
    /// Machine `id` of `k`, returning a cheap superset of the `ell`
    /// nearest keys among every machine's `candidates` (sorted ascending,
    /// at most `ell`).
    pub fn new(
        id: MachineId,
        k: usize,
        leader: MachineId,
        ell: u64,
        params: KnnParams,
        candidates: Vec<K>,
    ) -> Self {
        super::debug_assert_candidates(&candidates, ell);
        ApproxKnnProtocol {
            id,
            k,
            leader,
            ell,
            params,
            candidates,
            kept: 0,
            phase: APhase::Init,
            samples: Vec::new(),
            pending: 0,
            count_sum: 0,
            total_candidates: 0,
        }
    }

    /// Raw-materialized-keys constructor for tests (sorts and truncates).
    pub fn from_keys(
        id: MachineId,
        k: usize,
        leader: MachineId,
        ell: u64,
        params: KnnParams,
        keys: Vec<K>,
    ) -> Self {
        Self::new(id, k, leader, ell, params, super::top_ell(keys, ell))
    }

    fn output(&self, total: u64, contains: bool) -> ApproxOutput<K> {
        ApproxOutput {
            keys: self.candidates[..self.kept].to_vec(),
            total,
            contains_exact: contains,
        }
    }
}

impl<K: Key> Protocol for ApproxKnnProtocol<K> {
    type Msg = ApproxMsg<K>;
    type Output = ApproxOutput<K>;

    fn on_round(&mut self, ctx: &mut Ctx<'_, ApproxMsg<K>>) -> Step<ApproxOutput<K>> {
        if matches!(self.phase, APhase::Init) {
            if ctx.k() == 1 {
                self.kept = self.candidates.len();
                let total = self.kept as u64;
                return Step::Done(self.output(total, true));
            }
            let m = self.params.sample_size(self.ell);
            let sample = if self.candidates.len() <= m {
                self.candidates.clone()
            } else {
                (0..m)
                    .map(|_| self.candidates[ctx.rng().random_range(0..self.candidates.len())])
                    .collect()
            };
            if self.id == self.leader {
                self.samples = sample;
                self.total_candidates = self.candidates.len() as u64;
                self.pending = self.k - 1;
                self.phase = APhase::CollectSamples;
            } else {
                ctx.send(
                    self.leader,
                    ApproxMsg::Samples { keys: sample, count: self.candidates.len() as u64 },
                );
                self.phase = APhase::AwaitThreshold;
            }
            return Step::Wait;
        }

        // Every phase past round 0 only reacts to mail.
        for env in ctx.inbox() {
            match &env.msg {
                ApproxMsg::Samples { keys, count } => {
                    self.samples.extend_from_slice(keys);
                    self.total_candidates += count;
                    self.pending -= 1;
                    if self.pending == 0 {
                        // Skip pruning entirely when ℓ covers the whole
                        // candidate population (or nobody has candidates).
                        let r = if self.total_candidates <= self.ell || self.samples.is_empty() {
                            None
                        } else {
                            self.samples.sort_unstable();
                            let rank = self.params.prune_rank(self.ell);
                            Some(self.samples[(rank - 1).min(self.samples.len() - 1)])
                        };
                        ctx.broadcast(ApproxMsg::Threshold { r });
                        self.kept = match r {
                            None => self.candidates.len(),
                            Some(r) => self.candidates.partition_point(|x| *x <= r),
                        };
                        self.count_sum = self.kept as u64;
                        self.pending = self.k - 1;
                        self.phase = APhase::CollectCounts;
                    }
                }
                ApproxMsg::Threshold { r } => {
                    self.kept = match r {
                        None => self.candidates.len(),
                        Some(r) => self.candidates.partition_point(|x| x <= r),
                    };
                    ctx.send(self.leader, ApproxMsg::Count(self.kept as u64));
                    self.phase = APhase::AwaitDone;
                }
                ApproxMsg::Count(c) => {
                    self.count_sum += c;
                    self.pending -= 1;
                    if self.pending == 0 {
                        let total = self.count_sum;
                        let contains = total >= self.ell.min(self.total_candidates);
                        ctx.broadcast(ApproxMsg::Done { total, contains });
                        return Step::Done(self.output(total, contains));
                    }
                }
                &ApproxMsg::Done { total, contains } => {
                    return Step::Done(self.output(total, contains));
                }
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
    use knn_workloads::partition::PartitionStrategy;
    use proptest::prelude::*;

    fn run_approx(
        shards: Vec<Vec<u64>>,
        ell: u64,
        seed: u64,
    ) -> (Vec<ApproxOutput<u64>>, kmachine::RunMetrics) {
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(seed);
        let protos: Vec<ApproxKnnProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                ApproxKnnProtocol::from_keys(i, k, 0, ell, KnnParams::default(), local)
            })
            .collect();
        let out = run_sync(&cfg, protos).expect("approx run");
        (out.outputs, out.metrics)
    }

    fn merged(outputs: &[ApproxOutput<u64>]) -> Vec<u64> {
        let mut all: Vec<u64> = outputs.iter().flat_map(|o| o.keys.clone()).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn returns_superset_of_exact_answer() {
        let all: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        let ell = 128usize;
        let exact = &sorted[..ell];

        let shards = PartitionStrategy::Shuffled.split(all, 16, 3);
        let (outputs, _) = run_approx(shards, ell as u64, 5);
        let got = merged(&outputs);
        assert!(outputs[0].contains_exact);
        assert_eq!(got.len() as u64, outputs[0].total);
        // Superset: the exact answer is a prefix of the merged survivors.
        assert!(got.len() >= ell);
        assert_eq!(&got[..ell], exact, "survivors must contain the true top-ell as a prefix");
    }

    #[test]
    fn size_overhead_is_modest() {
        // Expected survivors ≈ (21/12)·ℓ; far below the 11ℓ bound.
        let all: Vec<u64> = (0..1 << 15).map(|i: u64| i.wrapping_mul(0xD1B54A32D192ED03)).collect();
        let ell = 512u64;
        let mut worst = 0.0f64;
        for seed in 0..5 {
            let shards = PartitionStrategy::Shuffled.split(all.clone(), 32, seed);
            let (outputs, _) = run_approx(shards, ell, seed);
            worst = worst.max(outputs[0].total as f64 / ell as f64);
        }
        assert!(worst <= 4.0, "survivor overhead {worst} too large");
    }

    #[test]
    fn cheaper_than_exact_knn() {
        use crate::protocols::knn::KnnProtocol;
        let all: Vec<u64> = (0..1 << 14).map(|i: u64| i.wrapping_mul(0x2545F4914F6CDD1D)).collect();
        let ell = 1024u64;
        let k = 16;
        let shards = PartitionStrategy::Shuffled.split(all, k, 1);
        let (_, approx_metrics) = run_approx(shards.clone(), ell, 2);

        let cfg = NetConfig::new(k).with_seed(2);
        let protos: Vec<KnnProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| KnnProtocol::from_keys(i, k, 0, ell, KnnParams::default(), local))
            .collect();
        let exact_metrics = run_sync(&cfg, protos).unwrap().metrics;
        assert!(
            approx_metrics.rounds < exact_metrics.rounds,
            "approx ({}) should cost fewer rounds than exact ({})",
            approx_metrics.rounds,
            exact_metrics.rounds
        );
        assert!(approx_metrics.messages < exact_metrics.messages);
    }

    #[test]
    fn edge_cases() {
        // Empty cluster.
        let (outputs, _) = run_approx(vec![vec![], vec![]], 5, 1);
        assert_eq!(outputs[0].total, 0);
        assert!(merged(&outputs).is_empty());
        // Single machine.
        let (outputs, m) = run_approx(vec![vec![5, 1, 9]], 2, 1);
        assert_eq!(merged(&outputs), vec![1, 5]);
        assert_eq!(m.messages, 0);
        // ℓ = 0: candidates are empty everywhere, so nothing survives.
        let (outputs, _) = run_approx(vec![vec![1, 2], vec![3]], 0, 1);
        assert_eq!(outputs[0].total, 0);
        // ℓ ≥ population: pruning is skipped, everything survives, and the
        // containment guarantee is reported on every machine.
        let (outputs, _) = run_approx(vec![vec![9, 1], vec![4, 7, 2]], 100, 1);
        assert_eq!(outputs[0].total, 5);
        assert!(outputs.iter().all(|o| o.contains_exact));
        assert_eq!(merged(&outputs), vec![1, 2, 4, 7, 9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_superset_whenever_flag_says_so(
            values in proptest::collection::hash_set(any::<u64>(), 1..150),
            k in 1usize..7,
            ell in 1u64..30,
            seed in 0u64..200,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let avail = (ell as usize).min(sorted.len());
            let shards = PartitionStrategy::RoundRobin.split(values, k, seed);
            let (outputs, _) = run_approx(shards, ell, seed);
            let got = merged(&outputs);
            prop_assert_eq!(got.len() as u64, outputs[0].total);
            if outputs[0].contains_exact {
                prop_assert!(got.len() >= avail);
                prop_assert_eq!(&got[..avail], &sorted[..avail]);
            }
        }
    }
}

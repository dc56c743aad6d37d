//! **Algorithm 2** — Distributed ℓ-NN computation.
//!
//! Theorem 2.4: `O(log ℓ)` rounds whp and `O(k log ℓ)` messages,
//! *independent of both n and k*. The stages, per the paper:
//!
//! 1. every machine truncates its local input to its ℓ best candidates
//!    (local computation, free in the model);
//! 2. every machine samples `⌈12·log₂ ℓ⌉` candidates uniformly and ships
//!    them to the leader — over a B-bit link this costs `O(log ℓ)` rounds;
//! 3. the leader sorts the `≤ 12k·log₂ ℓ` samples and broadcasts the sample
//!    of rank `⌈21·log₂ ℓ⌉` as the pruning threshold `r`;
//! 4. machines discard candidates beyond `r` — Lemma 2.3: at most `11ℓ`
//!    survive, with probability `≥ 1 − 2/ℓ²`;
//! 5. Algorithm 1 selects the ℓ smallest among the survivors.
//!
//! **Hardening deviation (documented here and on [`KnnParams::harden`]):**
//! the paper's pruning leaves at least ℓ survivors only with high
//! probability *in ℓ*. With `KnnParams::harden` (default), machines report
//! their survivor counts (+2 rounds, O(k) messages); if fewer than ℓ
//! survive, the leader orders a rollback and Algorithm 1 runs on the
//! unpruned candidates. The result is exact selection with certainty, and
//! the fallback rate is itself measured by the Lemma 2.3 experiment.
//!
//! **Prune-only mode ([`KnnProtocol::prune_only`]) — the approximate
//! query.** For consumers that a slightly larger neighbor set serves as
//! well (majority vote, averaging), the instance stops at stage 4: the
//! survivor-count round always runs, the leader's prune decision ends it,
//! and every machine answers with its survivors. That is a superset of the
//! exact ℓ-NN whenever [`KnnStats::contains_exact`] holds — always under
//! [`KnnParams::harden`], which rolls an undershot prune back to every
//! candidate — of `≈ (rank_factor / sample_factor)·ℓ ≈ 1.75ℓ` keys with the
//! paper's constants (at most `11ℓ` whp), for the sampling transfer plus
//! one short message per link each way (threshold, count, decision)
//! instead of Algorithm 1's `O(log ℓ)` iterations.

use kmachine::{Ctx, MachineId, Payload, Protocol, Step};
use knn_points::Key;
use rand::RngExt;

use super::select_core::{CoreStatus, SelMsg, SelectCore};

/// Tunables of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnParams {
    /// Samples per machine = `max(1, ⌈sample_factor · log₂ ℓ⌉)`; the paper
    /// uses 12.
    pub sample_factor: u32,
    /// Pruning threshold rank = `max(1, ⌈rank_factor · log₂ ℓ⌉)`; the paper
    /// uses 21.
    pub rank_factor: u32,
    /// Verify that pruning kept at least `min(ℓ, candidates)` and roll back
    /// to every candidate if not (see module docs). It governs both paths:
    /// the exact answer stays exact with certainty, and the prune-only
    /// (approximate) answer stays a superset. Disable to run the paper's
    /// algorithm verbatim: an undershot prune then leaves an exact answer
    /// short, and an approximate one under-pruned and flagged so by
    /// [`KnnStats::contains_exact`].
    pub harden: bool,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams { sample_factor: 12, rank_factor: 21, harden: true }
    }
}

impl KnnParams {
    /// Samples each machine draws for ℓ requested neighbors.
    pub fn sample_size(&self, ell: u64) -> usize {
        scaled_log(self.sample_factor, ell)
    }

    /// Rank of the pruning threshold within the sorted samples (1-based).
    pub fn prune_rank(&self, ell: u64) -> usize {
        scaled_log(self.rank_factor, ell)
    }
}

/// `max(1, ⌈factor · log₂ ℓ⌉)`.
fn scaled_log(factor: u32, ell: u64) -> usize {
    let lg = (ell.max(1) as f64).log2();
    ((factor as f64 * lg).ceil() as usize).max(1)
}

/// Diagnostics from the leader's point of view, consumed by the
/// experiments (Lemma 2.3, Theorem 2.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct KnnStats {
    /// Samples requested per machine.
    pub sample_size: u64,
    /// Rank used for the pruning threshold.
    pub prune_rank: u64,
    /// Total candidates before pruning (Σ per-machine `min(ℓ, |input|)`).
    pub total_candidates: u64,
    /// Candidates surviving the prune (only known when the count round
    /// runs: under hardening, and always in prune-only mode).
    pub survivors: u64,
    /// Whether the hardening check rolled the prune back.
    pub rolled_back: bool,
    /// Pivot iterations of the embedded Algorithm 1.
    pub select_iterations: u64,
}

impl KnnStats {
    /// Whether a prune-only answer provably contains the exact ℓ-NN: the
    /// prune was rolled back, or at least `min(ℓ, total_candidates)`
    /// candidates survived it.
    pub fn contains_exact(&self, ell: u64) -> bool {
        self.rolled_back || self.survivors >= ell.min(self.total_candidates)
    }
}

/// Per-machine output of Algorithm 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnnOutput<K: Key> {
    /// This machine's members of the global ℓ-NN set (prune-only: its
    /// survivors).
    pub keys: Vec<K>,
    /// Leader-side diagnostics (`None` on non-leaders).
    pub stats: Option<KnnStats>,
}

/// Messages of Algorithm 2.
#[derive(Debug, Clone)]
pub enum KnnMsg<K: Key> {
    /// Machine → leader: its sampled candidate keys (one batch).
    Samples(Vec<K>),
    /// Leader → all: prune to keys `≤ r`.
    Prune {
        /// The pruning threshold (the rank-`⌈21 log₂ ℓ⌉` sample).
        r: K,
    },
    /// Machine → leader (hardening, prune-only): survivor and total
    /// candidate counts.
    PrunedCount {
        /// Candidates with key `≤ r`.
        kept: u64,
        /// Candidates before pruning.
        total: u64,
    },
    /// Leader → all (hardening, prune-only, or no candidates anywhere):
    /// whether to roll the prune back.
    PruneDecision {
        /// `true`: continue on the *unpruned* candidates.
        rollback: bool,
    },
    /// Embedded Algorithm 1 traffic.
    Sel(SelMsg<K>),
}

impl<K: Key> Payload for KnnMsg<K> {
    fn size_bits(&self) -> u64 {
        match self {
            KnnMsg::Samples(v) => 32 + K::BITS * v.len() as u64,
            KnnMsg::Prune { .. } => 3 + K::BITS,
            KnnMsg::PrunedCount { .. } => 3 + 128,
            KnnMsg::PruneDecision { .. } => 4,
            KnnMsg::Sel(inner) => 3 + inner.size_bits(),
        }
    }
}

enum KPhase {
    /// Waiting for round 0.
    Init,
    /// Leader: collecting sample batches.
    CollectSamples,
    /// Worker: waiting for the prune threshold.
    AwaitPrune,
    /// Leader: collecting survivor counts (hardening, prune-only).
    CollectCounts,
    /// Worker: waiting for the rollback decision (hardening, prune-only).
    AwaitDecision,
    /// Embedded Algorithm 1 running.
    Selection,
}

/// Per-machine instance of the paper's Algorithm 2.
pub struct KnnProtocol<K: Key> {
    id: MachineId,
    k: usize,
    leader: MachineId,
    ell: u64,
    params: KnnParams,
    /// Local candidates (ℓ best), sorted ascending.
    candidates: Vec<K>,
    /// Prefix length of `candidates` surviving the prune.
    pruned_len: usize,
    /// Answer with the survivors at the prune decision ([`Self::prune_only`]).
    prune_only: bool,
    phase: KPhase,
    core: Option<SelectCore<K>>,
    stats: KnnStats,
    /// Scratch for the embedded core's outgoing messages, reused across
    /// `Sel` deliveries.
    sel_out: Vec<(MachineId, SelMsg<K>)>,
    // Leader scratch.
    samples: Vec<K>,
    pending: usize,
    kept_sum: u64,
    total_sum: u64,
}

impl<K: Key> KnnProtocol<K> {
    /// Machine `id` of `k`: find the global `ell`-smallest keys among every
    /// machine's `candidates` — its local ℓ best, sorted ascending, at most
    /// `ell` of them.
    pub fn new(
        id: MachineId,
        k: usize,
        leader: MachineId,
        ell: u64,
        params: KnnParams,
        candidates: Vec<K>,
    ) -> Self {
        super::debug_assert_candidates(&candidates, ell);
        KnnProtocol {
            id,
            k,
            leader,
            ell,
            params,
            candidates,
            pruned_len: 0,
            prune_only: false,
            phase: KPhase::Init,
            core: None,
            stats: KnnStats::default(),
            sel_out: Vec::new(),
            samples: Vec::new(),
            pending: 0,
            kept_sum: 0,
            total_sum: 0,
        }
    }

    /// Convenience constructor from raw materialized keys (sorted and
    /// truncated to the ℓ best here, as the contract of [`Self::new`] asks).
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

    /// Stop at the prune decision — the approximate query: the
    /// survivor-count round runs whatever [`KnnParams::harden`] says, the
    /// leader's decision ends the instance, and every machine outputs its
    /// survivors (all its candidates on a rollback) instead of running
    /// Algorithm 1.
    pub fn prune_only(mut self) -> Self {
        self.prune_only = true;
        self
    }

    fn is_leader(&self) -> bool {
        self.id == self.leader
    }

    /// Round 0: draw samples from the local ℓ best.
    fn setup(&mut self, ctx: &mut Ctx<'_, KnnMsg<K>>) -> Option<Vec<K>> {
        self.stats.sample_size = self.params.sample_size(self.ell) as u64;
        self.stats.prune_rank = self.params.prune_rank(self.ell) as u64;

        if ctx.k() == 1 {
            // The local ℓ best are the global ℓ best.
            self.stats.total_candidates = self.candidates.len() as u64;
            self.stats.survivors = self.candidates.len() as u64;
            return Some(self.candidates.clone());
        }

        // Sample with replacement, as the paper's "randomly and
        // independently" prescribes. When the candidate set is no larger
        // than the sample budget, send it whole — strictly more information
        // for fewer bits (the paper's regime n ≫ kℓ never hits this case).
        let m = self.params.sample_size(self.ell);
        let sample = if self.candidates.len() <= m {
            self.candidates.clone()
        } else {
            let mut sample = Vec::with_capacity(m);
            for _ in 0..m {
                let idx = ctx.rng().random_range(0..self.candidates.len());
                sample.push(self.candidates[idx]);
            }
            sample
        };
        if self.is_leader() {
            self.samples = sample;
            self.pending = self.k - 1;
            self.phase = KPhase::CollectSamples;
        } else {
            ctx.send(self.leader, KnnMsg::Samples(sample));
            self.phase = KPhase::AwaitPrune;
        }
        None
    }

    /// Whether the survivor-count round runs.
    fn counts(&self) -> bool {
        self.params.harden || self.prune_only
    }

    /// Leader: all samples in — broadcast the prune threshold (or skip
    /// pruning entirely when nobody has any candidates to offer).
    fn leader_after_samples(&mut self, ctx: &mut Ctx<'_, KnnMsg<K>>) -> Option<KnnOutput<K>> {
        if self.samples.is_empty() {
            // No candidates anywhere: skip straight to the (trivial) end.
            ctx.broadcast(KnnMsg::PruneDecision { rollback: true });
            return self.decide(true, ctx);
        }
        self.samples.sort_unstable();
        let rank = self.params.prune_rank(self.ell);
        let r = self.samples[(rank - 1).min(self.samples.len() - 1)];
        ctx.broadcast(KnnMsg::Prune { r });
        self.pruned_len = self.candidates.partition_point(|x| *x <= r);
        if self.counts() {
            self.kept_sum = self.pruned_len as u64;
            self.total_sum = self.candidates.len() as u64;
            self.pending = self.k - 1;
            self.phase = KPhase::CollectCounts;
        } else {
            self.start_selection(ctx);
        }
        None
    }

    /// The leader's prune decision, on every machine: a rollback restores
    /// every candidate; then a prune-only instance answers with its
    /// survivors, and any other starts Algorithm 1 on them.
    fn decide(&mut self, rollback: bool, ctx: &mut Ctx<'_, KnnMsg<K>>) -> Option<KnnOutput<K>> {
        self.stats.rolled_back = rollback;
        if rollback {
            self.pruned_len = self.candidates.len();
        }
        if self.prune_only {
            let keys = self.candidates[..self.pruned_len].to_vec();
            return Some(KnnOutput { keys, stats: self.is_leader().then_some(self.stats) });
        }
        self.start_selection(ctx);
        None
    }

    /// Construct the embedded Algorithm 1 core over the survivors (leader
    /// also kicks it off).
    fn start_selection(&mut self, ctx: &mut Ctx<'_, KnnMsg<K>>) {
        let active = self.candidates[..self.pruned_len].to_vec();
        let mut core = SelectCore::new(self.id, self.k, self.leader, self.ell, active);
        if self.is_leader() {
            let status = core.start(ctx.rng(), &mut self.sel_out);
            for (dst, msg) in self.sel_out.drain(..) {
                ctx.send(dst, KnnMsg::Sel(msg));
            }
            debug_assert!(
                matches!(status, CoreStatus::Running),
                "k >= 2 selection cannot finish during start"
            );
        }
        self.core = Some(core);
        self.phase = KPhase::Selection;
    }
}

impl<K: Key> Protocol for KnnProtocol<K> {
    type Msg = KnnMsg<K>;
    type Output = KnnOutput<K>;

    /// A machine that ran its round 0 and holds no candidates provably
    /// contributes no answer members, so a crash there salvages an empty
    /// output (mirroring the BinSearch baseline). Any other crash —
    /// candidates on board, or dead before round 0 ran, when its peers have
    /// heard nothing from it — may lose answer members or the coordinator
    /// itself: unsalvageable, and the runner retries over the survivors.
    fn on_crash(&mut self) -> Option<KnnOutput<K>> {
        (!matches!(self.phase, KPhase::Init) && self.candidates.is_empty())
            .then(|| KnnOutput { keys: Vec::new(), stats: None })
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, KnnMsg<K>>) -> Step<KnnOutput<K>> {
        if matches!(self.phase, KPhase::Init) {
            debug_assert_eq!(ctx.round(), 0);
            if let Some(keys) = self.setup(ctx) {
                return Step::Done(KnnOutput { keys, stats: Some(self.stats) });
            }
            return Step::Wait;
        }

        // Every phase past round 0 only reacts to mail, so between
        // deliveries the protocol waits.
        let mut finished: Option<Option<K>> = None;
        for env in ctx.inbox() {
            match &env.msg {
                KnnMsg::Samples(batch) => {
                    debug_assert!(self.is_leader());
                    self.samples.extend_from_slice(batch);
                    self.pending -= 1;
                    if self.pending == 0 {
                        if let Some(out) = self.leader_after_samples(ctx) {
                            return Step::Done(out);
                        }
                    }
                }
                KnnMsg::Prune { r } => {
                    self.pruned_len = self.candidates.partition_point(|x| x <= r);
                    if self.counts() {
                        ctx.send(
                            self.leader,
                            KnnMsg::PrunedCount {
                                kept: self.pruned_len as u64,
                                total: self.candidates.len() as u64,
                            },
                        );
                        self.phase = KPhase::AwaitDecision;
                    } else {
                        self.start_selection(ctx);
                    }
                }
                KnnMsg::PrunedCount { kept, total } => {
                    debug_assert!(self.is_leader());
                    self.kept_sum += kept;
                    self.total_sum += total;
                    self.pending -= 1;
                    if self.pending == 0 {
                        let undershot = self.kept_sum < self.ell.min(self.total_sum);
                        let rollback = undershot && self.params.harden;
                        self.stats.total_candidates = self.total_sum;
                        self.stats.survivors = self.kept_sum;
                        ctx.broadcast(KnnMsg::PruneDecision { rollback });
                        if let Some(out) = self.decide(rollback, ctx) {
                            return Step::Done(out);
                        }
                    }
                }
                &KnnMsg::PruneDecision { rollback } => {
                    // `rollback = true` can also mean "pruning skipped".
                    if self.core.is_none() {
                        if let Some(out) = self.decide(rollback, ctx) {
                            return Step::Done(out);
                        }
                    }
                }
                KnnMsg::Sel(sel) => {
                    let core = self.core.as_mut().expect("selection traffic before setup");
                    let status = core.handle(env.src, sel, ctx.rng(), &mut self.sel_out);
                    for (dst, m) in self.sel_out.drain(..) {
                        ctx.send(dst, KnnMsg::Sel(m));
                    }
                    if let CoreStatus::Finished { boundary } = status {
                        finished = Some(boundary);
                    }
                }
            }
        }

        if let Some(boundary) = finished {
            let core = self.core.as_ref().expect("finished implies core");
            self.stats.select_iterations = core.iterations();
            let keys = core.output_for(boundary);
            let stats = self.is_leader().then_some(self.stats);
            return Step::Done(KnnOutput { keys, stats });
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
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn run_knn(
        shards: Vec<Vec<u64>>,
        ell: u64,
        seed: u64,
        params: KnnParams,
    ) -> (Vec<u64>, kmachine::RunMetrics, KnnStats) {
        run(shards, ell, seed, params, false)
    }

    /// [`run_knn`] in prune-only mode: the approximate query.
    fn run_approx(
        shards: Vec<Vec<u64>>,
        ell: u64,
        seed: u64,
        params: KnnParams,
    ) -> (Vec<u64>, kmachine::RunMetrics, KnnStats) {
        run(shards, ell, seed, params, true)
    }

    fn run(
        shards: Vec<Vec<u64>>,
        ell: u64,
        seed: u64,
        params: KnnParams,
        prune_only: bool,
    ) -> (Vec<u64>, kmachine::RunMetrics, KnnStats) {
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(seed);
        let protos: Vec<KnnProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let p = KnnProtocol::from_keys(i, k, 0, ell, params, local);
                if prune_only {
                    p.prune_only()
                } else {
                    p
                }
            })
            .collect();
        let out = run_sync(&cfg, protos).expect("knn run");
        let stats = out.outputs[0].stats.expect("leader stats");
        let mut merged: Vec<u64> = out.outputs.into_iter().flat_map(|o| o.keys).collect();
        merged.sort_unstable();
        (merged, out.metrics, stats)
    }

    fn expected(shards: &[Vec<u64>], ell: usize) -> Vec<u64> {
        let mut all: Vec<u64> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        all.truncate(ell);
        all
    }

    #[test]
    fn finds_global_smallest() {
        let shards = vec![vec![100, 5, 200], vec![7, 300, 2], vec![50, 60, 1]];
        let (got, _, _) = run_knn(shards.clone(), 4, 1, KnnParams::default());
        assert_eq!(got, expected(&shards, 4));
    }

    #[test]
    fn large_uniform_instance_exact() {
        let all: Vec<u64> = (0..5000u64).map(|i| i.wrapping_mul(0x9E3779B9) % 1_000_000).collect();
        let want = expected(std::slice::from_ref(&all), 64);
        for (i, strat) in ALL_STRATEGIES.into_iter().enumerate() {
            let shards = strat.split(all.clone(), 10, i as u64);
            let (got, _, _) = run_knn(shards, 64, 100 + i as u64, KnnParams::default());
            assert_eq!(got, want, "{strat:?}");
        }
    }

    #[test]
    fn crash_salvage_only_for_materialized_empty_machines() {
        let mut p = KnnProtocol::<u64>::from_keys(1, 3, 0, 4, KnnParams::default(), vec![]);
        assert!(
            p.on_crash().is_none(),
            "dead before round 0: nobody has heard from it, so nothing is written off"
        );
        p.phase = KPhase::AwaitPrune;
        assert_eq!(
            p.on_crash(),
            Some(KnnOutput { keys: Vec::new(), stats: None }),
            "started and empty: provably contributes nothing"
        );
        p.candidates = vec![3, 7];
        assert!(p.on_crash().is_none(), "candidates on board may be answer members");
    }

    #[test]
    fn crashed_empty_shard_is_written_off_by_retry() {
        // An empty shard's machine crashing costs nothing: the runner-level
        // retry (or in-run salvage) must still produce the exact answer.
        use crate::runner::{run_query, Algorithm, QueryOptions};
        use knn_points::{Dataset, IdAssigner, ScalarPoint};
        let mut ids = IdAssigner::new(0);
        let data = Dataset::from_points((0..60u64).map(ScalarPoint).collect::<Vec<_>>(), &mut ids);
        let mut shards: Vec<Dataset<ScalarPoint>> =
            data.records.chunks(30).map(|c| Dataset::new(c.to_vec())).collect();
        shards.push(Dataset::new(Vec::new())); // machine 2: empty shard
        let opts = QueryOptions {
            faults: kmachine::FaultPlan::default().with_crash(2, 1),
            ..Default::default()
        };
        let out = run_query(&shards, &ScalarPoint(10), 5, Algorithm::Knn, &opts).unwrap();
        let want =
            run_query(&shards, &ScalarPoint(10), 5, Algorithm::Knn, &QueryOptions::default())
                .unwrap();
        let keys = |o: &crate::runner::QueryOutcome| {
            crate::runner::merge_answers(&o.local_keys)
                .into_iter()
                .map(|(k, _)| k)
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&out), keys(&want), "losing an empty shard loses nothing");
        assert!(out.recovered);
    }

    #[test]
    fn single_machine_finishes_locally() {
        let (got, m, _) = run_knn(vec![vec![9, 1, 5]], 2, 3, KnnParams::default());
        assert_eq!(got, vec![1, 5]);
        assert_eq!(m.messages, 0);
        assert_eq!(m.rounds, 0);
    }

    #[test]
    fn ell_one_works() {
        let shards = vec![vec![10, 20], vec![5, 30], vec![40]];
        let (got, _, _) = run_knn(shards, 1, 4, KnnParams::default());
        assert_eq!(got, vec![5]);
    }

    #[test]
    fn ell_exceeding_population_returns_everything() {
        let shards = vec![vec![3, 1], vec![2], vec![]];
        let (got, _, _) = run_knn(shards, 50, 5, KnnParams::default());
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn empty_cluster_returns_empty() {
        let shards = vec![vec![], vec![], vec![]];
        let (got, _, stats) = run_knn(shards, 5, 6, KnnParams::default());
        assert!(got.is_empty());
        assert_eq!(stats.total_candidates, 0);
    }

    #[test]
    fn hardening_never_wrong_even_with_tiny_factors() {
        // Absurdly aggressive pruning (factor 1/1) would often under-prune
        // without the rollback; with hardening the answer stays exact.
        let params = KnnParams { sample_factor: 1, rank_factor: 1, harden: true };
        let all: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(2654435761) % 100_000).collect();
        let want = expected(std::slice::from_ref(&all), 100);
        let mut rollbacks = 0;
        for seed in 0..10 {
            let shards = PartitionStrategy::Shuffled.split(all.clone(), 8, seed);
            let (got, _, stats) = run_knn(shards, 100, seed, params);
            assert_eq!(got, want, "seed {seed}");
            rollbacks += u32::from(stats.rolled_back);
        }
        // With rank 1 the threshold is the smallest sample: almost always
        // fewer than ℓ survivors, so rollbacks must actually trigger.
        assert!(rollbacks > 0, "hardening path was never exercised");
    }

    #[test]
    fn paper_factors_rarely_roll_back() {
        let all: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x2545F4914F6CDD1D)).collect();
        let mut rollbacks = 0;
        for seed in 0..10 {
            let shards = PartitionStrategy::Shuffled.split(all.clone(), 16, seed);
            let (_, _, stats) = run_knn(shards, 256, seed, KnnParams::default());
            rollbacks += u32::from(stats.rolled_back);
        }
        assert_eq!(rollbacks, 0, "paper constants should essentially never roll back");
    }

    #[test]
    fn lemma_2_3_survivors_bounded_by_11_ell() {
        let all: Vec<u64> = (0..1 << 14).map(|i: u64| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let ell = 256u64;
        for seed in 0..5 {
            let shards = PartitionStrategy::Shuffled.split(all.clone(), 32, seed);
            let (_, _, stats) = run_knn(shards, ell, seed, KnnParams::default());
            assert!(!stats.rolled_back);
            assert!(
                stats.survivors <= 11 * ell,
                "survivors {} > 11ℓ at seed {seed}",
                stats.survivors
            );
            assert!(stats.survivors >= ell);
        }
    }

    #[test]
    fn rounds_do_not_scale_with_k() {
        // Theorem 2.4: round complexity independent of k. Compare k = 4 and
        // k = 64 on the same global data.
        let all: Vec<u64> = (0..1 << 13).map(|i: u64| i.wrapping_mul(0xD1B54A32D192ED03)).collect();
        let ell = 128;
        let r4: Vec<u64> = (0..4)
            .map(|s| {
                let shards = PartitionStrategy::Shuffled.split(all.clone(), 4, s);
                run_knn(shards, ell, s, KnnParams::default()).1.rounds
            })
            .collect();
        let r64: Vec<u64> = (0..4)
            .map(|s| {
                let shards = PartitionStrategy::Shuffled.split(all.clone(), 64, s);
                run_knn(shards, ell, s, KnnParams::default()).1.rounds
            })
            .collect();
        let a4 = r4.iter().sum::<u64>() as f64 / 4.0;
        let a64 = r64.iter().sum::<u64>() as f64 / 4.0;
        assert!(a64 < a4 * 2.5, "rounds grew with k: avg(k=4) = {a4}, avg(k=64) = {a64}");
    }

    /// Counts `on_round` calls into the shared tally; otherwise `P`.
    struct Counted<P>(P, Arc<AtomicU64>);

    impl<P: Protocol> Protocol for Counted<P> {
        type Msg = P::Msg;
        type Output = P::Output;
        fn on_round(&mut self, ctx: &mut Ctx<'_, P::Msg>) -> Step<P::Output> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.on_round(ctx)
        }
    }

    /// A multiplexed batch steps an instance for round 0 and for its mail,
    /// never for the rounds it spends waiting on the shared links.
    #[test]
    fn muxed_batch_steps_track_deliveries_not_rounds() {
        let (k, m, ell) = (8usize, 64usize, 64u64);
        let calls = Arc::new(AtomicU64::new(0));
        let protos: Vec<_> = (0..k)
            .map(|i| {
                let instances = (0..m as u64).map(|j| {
                    let keys = (0..256u64)
                        .map(|x| {
                            (x * k as u64 + i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ j)
                        })
                        .collect();
                    let p = KnnProtocol::from_keys(i, k, 0, ell, KnnParams::default(), keys);
                    Counted(p, calls.clone())
                });
                kmachine::MuxProtocol::new(instances.collect())
            })
            .collect();
        let out = run_sync(&NetConfig::new(k).with_seed(3), protos).expect("muxed knn run");
        let calls = calls.load(Ordering::Relaxed);
        let delivered = out.metrics.messages - out.metrics.delivered_after_done;
        let ticking = (out.metrics.rounds + 1) * (k * m) as u64;
        assert!(
            calls <= delivered + (k * m) as u64,
            "{calls} inner steps for {delivered} delivered envelopes over {} rounds",
            out.metrics.rounds
        );
        assert!(calls * 4 < ticking, "the batch must be bandwidth-bound: {calls} vs {ticking}");
    }

    #[test]
    fn prune_only_returns_superset_of_exact_answer() {
        let all: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let ell = 128;
        let want = expected(std::slice::from_ref(&all), ell);
        let shards = PartitionStrategy::Shuffled.split(all, 16, 3);
        let (got, _, stats) = run_approx(shards, ell as u64, 5, KnnParams::default());
        assert!(stats.contains_exact(ell as u64));
        assert_eq!(got.len() as u64, stats.survivors);
        assert!(got.len() >= ell);
        assert_eq!(&got[..ell], want, "survivors must contain the true top-ell as a prefix");
    }

    #[test]
    fn prune_only_size_overhead_is_modest() {
        // Expected survivors ≈ (21/12)·ℓ; far below the 11ℓ bound.
        let all: Vec<u64> = (0..1 << 15).map(|i: u64| i.wrapping_mul(0xD1B54A32D192ED03)).collect();
        let ell = 512u64;
        let mut worst = 0.0f64;
        for seed in 0..5 {
            let shards = PartitionStrategy::Shuffled.split(all.clone(), 32, seed);
            let (_, _, stats) = run_approx(shards, ell, seed, KnnParams::default());
            worst = worst.max(stats.survivors as f64 / ell as f64);
        }
        assert!(worst <= 4.0, "survivor overhead {worst} too large");
    }

    #[test]
    fn prune_only_is_cheaper_than_exact() {
        let all: Vec<u64> = (0..1 << 14).map(|i: u64| i.wrapping_mul(0x2545F4914F6CDD1D)).collect();
        let shards = PartitionStrategy::Shuffled.split(all, 16, 1);
        let (_, approx, _) = run_approx(shards.clone(), 1024, 2, KnnParams::default());
        let (_, exact, _) = run_knn(shards, 1024, 2, KnnParams::default());
        assert!(
            approx.rounds < exact.rounds,
            "approx ({}) should cost fewer rounds than exact ({})",
            approx.rounds,
            exact.rounds
        );
        assert!(approx.messages < exact.messages);
    }

    #[test]
    fn prune_only_edge_cases() {
        let params = KnnParams::default();
        // Empty cluster.
        let (got, _, stats) = run_approx(vec![vec![], vec![]], 5, 1, params);
        assert!(got.is_empty());
        assert!(stats.contains_exact(5));
        // Single machine.
        let (got, m, _) = run_approx(vec![vec![5, 1, 9]], 2, 1, params);
        assert_eq!(got, vec![1, 5]);
        assert_eq!(m.messages, 0);
        // ℓ = 0: candidates are empty everywhere, so nothing survives.
        let (got, _, _) = run_approx(vec![vec![1, 2], vec![3]], 0, 1, params);
        assert!(got.is_empty());
        // ℓ ≥ population: everything survives, and the guarantee holds.
        let (got, _, stats) = run_approx(vec![vec![9, 1], vec![4, 7, 2]], 100, 1, params);
        assert_eq!(got, vec![1, 2, 4, 7, 9]);
        assert!(stats.contains_exact(100));
    }

    /// Five machines of 56 keys each send their whole candidate sets as
    /// samples (56 ≤ 92 = ⌈12·log₂ 200⌉), so the threshold is the global
    /// rank-161 key (⌈21·log₂ 200⌉): the prune keeps 161 < ℓ = 200.
    #[test]
    fn prune_only_undershoot_rolls_back_to_a_superset() {
        let all: Vec<u64> = (0..280u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let want = expected(std::slice::from_ref(&all), 200);
        let shards = PartitionStrategy::RoundRobin.split(all, 5, 0);
        let (got, _, stats) = run_approx(shards.clone(), 200, 7, KnnParams::default());
        assert!(stats.rolled_back);
        assert_eq!(stats.survivors, 161);
        assert!(stats.contains_exact(200));
        assert_eq!(got.len(), 280, "the rollback keeps every candidate");
        assert_eq!(&got[..200], want);
        // The paper's algorithm verbatim: under-pruned, and flagged so.
        let verbatim = KnnParams { harden: false, ..KnnParams::default() };
        let (got, _, stats) = run_approx(shards, 200, 7, verbatim);
        assert_eq!(got.len(), 161);
        assert!(!stats.contains_exact(200));
        assert_eq!(got, want[..161]);
    }

    #[test]
    fn param_helpers_match_paper_formulas() {
        let p = KnnParams::default();
        assert_eq!(p.sample_size(1), 1);
        assert_eq!(p.sample_size(2), 12);
        assert_eq!(p.sample_size(1024), 120);
        assert_eq!(p.prune_rank(1024), 210);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// The verbatim (non-hardened) paper algorithm: when the prune
        /// keeps at least ℓ candidates the answer is exact; when it
        /// under-prunes (the event the paper bounds whp), the output is
        /// still the globally smallest `survivors` keys — a prefix of the
        /// sorted global key set, never garbage.
        #[test]
        fn prop_unhardened_output_is_sorted_prefix(
            values in proptest::collection::hash_set(any::<u64>(), 0..150),
            k in 1usize..7,
            ell in 0u64..40,
            seed in 0u64..300,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let params = KnnParams { harden: false, ..KnnParams::default() };
            let shards = PartitionStrategy::RoundRobin.split(values, k, seed);
            let (got, _, _) = run_knn(shards, ell, seed, params);
            prop_assert!(got.len() <= sorted.len());
            prop_assert_eq!(&got[..], &sorted[..got.len()], "must be a sorted-global prefix");
            // Never more than requested, and exact whenever enough survived.
            prop_assert!(got.len() as u64 <= ell || ell as usize >= sorted.len());
        }

        #[test]
        fn prop_knn_equals_sequential_selection(
            values in proptest::collection::hash_set(any::<u64>(), 0..200),
            k in 1usize..8,
            ell in 0u64..40,
            strat_idx in 0usize..5,
            seed in 0u64..300,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let want = expected(std::slice::from_ref(&values), ell as usize);
            let shards = ALL_STRATEGIES[strat_idx].split(values, k, seed);
            let (got, _, _) = run_knn(shards, ell, seed, KnnParams::default());
            prop_assert_eq!(got, want);
        }

        /// Prune-only answers are supersets whenever the leader says so —
        /// always under hardening.
        #[test]
        fn prop_prune_only_superset_whenever_flag_says_so(
            values in proptest::collection::hash_set(any::<u64>(), 1..150),
            k in 1usize..7,
            ell in 1u64..30,
            seed in 0u64..200,
            harden in any::<bool>(),
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let want = expected(std::slice::from_ref(&values), ell as usize);
            let params = KnnParams { harden, ..KnnParams::default() };
            let shards = PartitionStrategy::RoundRobin.split(values, k, seed);
            let (got, _, stats) = run_approx(shards, ell, seed, params);
            let kept = if stats.rolled_back { stats.total_candidates } else { stats.survivors };
            prop_assert_eq!(got.len() as u64, kept);
            prop_assert!(!harden || stats.contains_exact(ell));
            if stats.contains_exact(ell) {
                prop_assert!(got.len() >= want.len());
                prop_assert_eq!(&got[..want.len()], &want[..]);
            }
        }
    }
}

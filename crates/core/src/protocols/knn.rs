//! **Algorithm 2** — Distributed ℓ-NN computation.
//!
//! Theorem 2.4: `O(log ℓ)` rounds whp and `O(k log ℓ)` messages,
//! *independent of both n and k*. The stages, per the paper:
//!
//! 1. every machine truncates its local input to its ℓ best candidates
//!    (local computation, free in the model);
//! 2. every machine samples `⌈12·log₂ ℓ⌉` candidates uniformly and ships
//!    them to the leader — over a B-bit link this costs `O(log ℓ)` rounds;
//! 3. the leader selects the sample of rank `⌈21·log₂ ℓ⌉` among its
//!    `≤ 12k·log₂ ℓ` samples — the key the paper's sort puts there, in
//!    linear time — and broadcasts it as the pruning threshold `r`;
//! 4. machines discard candidates beyond `r` — Lemma 2.3: at most `11ℓ`
//!    survive, with probability `≥ 1 − 2/ℓ²`;
//! 5. Algorithm 1 selects the ℓ smallest among the survivors.
//!
//! **Whole-list deviation:** a machine whose candidate list is no longer
//! than the sample size `m = ⌈12·log₂ ℓ⌉` ships it whole instead of
//! sampling it — strictly more information for fewer bits. Since a machine
//! holds at most ℓ candidates, this depends on ℓ alone: every list goes
//! whole when `ℓ ≤ m`, which at the paper's constants is `ℓ ≤ 75`.
//!
//! **Short cut at the sampling stage:** when `ℓ ≤ m` every list is whole
//! (see above); otherwise a sampled batch holds exactly `m` keys and a
//! whole list at most `m`. So when `ℓ ≤ m`, or every batch the leader
//! collected, its own included, is *shorter* than `m`, the leader holds
//! every candidate. It then selects the ℓ-th smallest of them itself
//! and broadcasts it as Algorithm 1's closing
//! [`SelMsg::Finished`] boundary: stages 3–5 are skipped, the answer is
//! exact with certainty in either mode, and the query costs the sampling
//! transfer plus one round and `2(k − 1)` messages — within Theorem 2.4's
//! bound a fortiori. Past `ℓ = m` a batch of exactly `m` keys is
//! ambiguous (a whole list of `m` or a sample), so it keeps the paper's
//! path. At the paper's constants the short cut takes every query with
//! `ℓ ≤ 75`, and a larger one whenever every list is shorter than `m`.
//!
//! **Count-round deviation:** the paper's prune leaves at least ℓ
//! survivors only with high probability *in ℓ*. After every prune each
//! machine reports its survivor and candidate counts
//! ([`KnnMsg::PrunedCount`]) and the leader answers with
//! [`KnnMsg::PruneDecision`]: if fewer than `min(ℓ, candidates)` survived,
//! it rolls the prune back and stage 5 runs on every candidate. The answer
//! is exact with certainty, for 2 rounds, `2(k − 1)` messages and
//! `135(k − 1)` bits more than the paper's run (and, on a rollback, the
//! selection work of every candidate); the rollback rate is measured by
//! the Lemma 2.3 experiment.
//!
//! **Prune-only mode ([`KnnProtocol::prune_only`]) — the approximate
//! query.** For consumers that a slightly larger neighbor set serves as
//! well (majority vote, averaging), the instance stops at stage 4 (or
//! earlier, at the short cut above, with the exact answer): the leader's
//! prune decision ends it, and every machine answers with its survivors
//! (every candidate after a rollback). That is a superset of the exact
//! ℓ-NN, of `≈ (rank_factor / sample_factor)·ℓ ≈ 1.75ℓ` keys with the
//! paper's constants (at most `11ℓ` whp), for the sampling transfer plus
//! one short message per link each way (threshold, count, decision)
//! instead of Algorithm 1's `O(log ℓ)` iterations.

use kmachine::{Ctx, MachineId, Payload, Protocol, Step};
use knn_points::Key;
use rand::RngExt;

use super::gathered;
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
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams { sample_factor: 12, rank_factor: 21 }
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnnStats {
    /// Samples requested per machine.
    pub sample_size: u64,
    /// Rank used for the pruning threshold.
    pub prune_rank: u64,
    /// Total candidates before pruning (Σ per-machine `min(ℓ, |input|)`).
    pub total_candidates: u64,
    /// Candidates surviving the prune, as the count round reports them;
    /// after the short cut at the sampling stage, the answer size
    /// `min(ℓ, total)`.
    pub survivors: u64,
    /// Whether the count round found fewer than `min(ℓ, total)` survivors
    /// and the leader rolled the prune back.
    pub rolled_back: bool,
    /// Pivot iterations of the embedded Algorithm 1.
    pub select_iterations: u64,
}

kmachine::json_object!(KnnStats {
    sample_size,
    prune_rank,
    total_candidates,
    survivors,
    rolled_back,
    select_iterations
});

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
    /// Machine → leader, the count round after every prune: survivor and
    /// total candidate counts.
    PrunedCount {
        /// Candidates with key `≤ r`.
        kept: u64,
        /// Candidates before pruning.
        total: u64,
    },
    /// Leader → all, ending the count round: whether to roll the prune
    /// back.
    PruneDecision {
        /// `true`: continue on the *unpruned* candidates.
        rollback: bool,
    },
    /// Embedded Algorithm 1 traffic; its closing
    /// [`SelMsg::Finished`] also ends the short cut at the sampling stage.
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

/// Whether a batch of `len` keys is its machine's whole candidate list:
/// any batch when `ℓ ≤ m`, as a machine holds at most ℓ candidates, and
/// past that one shorter than `m`, since a sample holds exactly `m`.
fn is_whole(params: KnnParams, ell: u64, len: usize) -> bool {
    let m = params.sample_size(ell);
    ell <= m as u64 || len < m
}

/// The leader's bookkeeping, which exists only on the leader: its
/// diagnostics and the gather in progress, of samples or of counts.
struct Coordinator<K: Key> {
    /// Filled in as the run goes; the count round sums its survivors and
    /// candidates here.
    stats: KnnStats,
    /// Every batch collected so far, the leader's own first.
    samples: Vec<K>,
    /// Every batch collected so far is its machine's whole list
    /// ([`is_whole`]), so `samples` holds every candidate collected so far.
    whole: bool,
    /// Replies still awaited.
    pending: usize,
}

impl<K: Key> Coordinator<K> {
    /// All samples in: the prune threshold, the `rank`-th smallest sample,
    /// or `None` when the samples are every candidate (the short cut,
    /// module docs; a run with no candidates anywhere takes it too). The
    /// selection draws nothing from `ctx.rng()`: equal keys are identical,
    /// so this is the key a sort would put at that index.
    fn threshold(&mut self, rank: usize) -> Option<K> {
        if self.whole {
            return None;
        }
        let at = (rank - 1).min(self.samples.len().checked_sub(1)?);
        Some(*self.samples.select_nth_unstable(at).1)
    }

    /// The short cut's boundary: the ℓ-th smallest candidate (`None`: no
    /// candidates anywhere, or ℓ = 0), by the same draw-free selection.
    fn answer(&mut self, ell: u64) -> Option<K> {
        let total = self.samples.len();
        let answer = ell.min(total as u64) as usize;
        self.stats.total_candidates = total as u64;
        self.stats.survivors = answer as u64;
        answer.checked_sub(1).map(|at| *self.samples.select_nth_unstable(at).1)
    }
}

/// Per-machine instance of the paper's Algorithm 2.
pub struct KnnProtocol<K: Key> {
    leader: MachineId,
    ell: u64,
    params: KnnParams,
    /// Local candidates (ℓ best), sorted ascending.
    candidates: Vec<K>,
    /// Prefix length of `candidates` surviving the prune (all of them
    /// until a prune runs).
    pruned_len: usize,
    /// Answer with the survivors at the prune decision ([`Self::prune_only`]).
    prune_only: bool,
    /// Round 0 has run.
    started: bool,
    /// Algorithm 1 over the survivors, from the prune decision on.
    core: Option<SelectCore<K>>,
    /// `Some` exactly on the leader.
    coordinator: Option<Coordinator<K>>,
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
        let coordinator = (id == leader).then(|| Coordinator {
            stats: KnnStats {
                sample_size: params.sample_size(ell) as u64,
                prune_rank: params.prune_rank(ell) as u64,
                ..KnnStats::default()
            },
            samples: Vec::new(),
            whole: false,
            pending: k - 1,
        });
        KnnProtocol {
            leader,
            ell,
            params,
            pruned_len: candidates.len(),
            candidates,
            prune_only: false,
            started: false,
            core: None,
            coordinator,
        }
    }

    /// Stop at the prune decision — the approximate query: the leader's
    /// decision ends the instance, and every machine outputs its
    /// survivors (all its candidates on a rollback) instead of running
    /// Algorithm 1. The short cut at the sampling stage (module docs) ends
    /// it earlier still, with the exact answer.
    pub fn prune_only(mut self) -> Self {
        self.prune_only = true;
        self
    }

    /// Round 0: draw samples from the local ℓ best, for the leader.
    fn start(&mut self, ctx: &mut Ctx<'_, KnnMsg<K>>) -> Step<KnnOutput<K>> {
        if ctx.k() == 1 {
            // The local ℓ best are the global ℓ best.
            let total = self.candidates.len() as u64;
            if let Some(c) = &mut self.coordinator {
                (c.stats.total_candidates, c.stats.survivors) = (total, total);
            }
            return Step::Done(self.finish(self.candidates.last().copied()));
        }

        // Sample with replacement, as the paper's "randomly and
        // independently" prescribes. When the candidate set is no larger
        // than the sample budget, send it whole — strictly more information
        // for fewer bits. A machine holds at most ℓ candidates, so every
        // list goes whole whenever ℓ ≤ m (ℓ ≤ 75 at the paper's constants).
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
        match &mut self.coordinator {
            Some(c) => {
                c.whole = is_whole(self.params, self.ell, sample.len());
                c.samples = sample;
            }
            None => ctx.send(self.leader, KnnMsg::Samples(sample)),
        }
        Step::Wait
    }

    /// The leader's prune decision, on every machine: a rollback restores
    /// every candidate; then a prune-only instance answers with its
    /// survivors, and any other starts Algorithm 1 on them (the leader
    /// kicks it off).
    fn decide(&mut self, rollback: bool, ctx: &mut Ctx<'_, KnnMsg<K>>) -> Option<KnnOutput<K>> {
        if rollback {
            self.pruned_len = self.candidates.len();
        }
        let survivors = &self.candidates[..self.pruned_len];
        if self.prune_only {
            return Some(self.finish(survivors.last().copied()));
        }
        let mut core =
            SelectCore::new(ctx.id(), ctx.k(), self.leader, self.ell, survivors.to_vec());
        let status = core.start(ctx.rng());
        debug_assert!(
            matches!(status, CoreStatus::Running),
            "k >= 2 selection cannot finish during start"
        );
        for (dst, msg) in core.outbox() {
            ctx.send(dst, KnnMsg::Sel(msg));
        }
        self.core = Some(core);
        None
    }

    /// Every machine's answer: its candidates at or below the leader's
    /// `boundary`, among the survivors once a prune ran (all of them after
    /// the short cut, which prunes nothing), and the leader's stats.
    fn finish(&self, boundary: Option<K>) -> KnnOutput<K> {
        let keys = super::at_or_below(&self.candidates[..self.pruned_len], boundary);
        let select_iterations = self.core.as_ref().map_or(0, SelectCore::iterations);
        let stats = self.coordinator.as_ref().map(|c| KnnStats { select_iterations, ..c.stats });
        KnnOutput { keys, stats }
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
        (self.started && self.candidates.is_empty())
            .then(|| KnnOutput { keys: Vec::new(), stats: None })
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, KnnMsg<K>>) -> Step<KnnOutput<K>> {
        if !self.started {
            debug_assert_eq!(ctx.round(), 0);
            self.started = true;
            return self.start(ctx);
        }

        // Every phase past round 0 only reacts to mail, so between
        // deliveries the protocol waits.
        let mut finished: Option<Option<K>> = None;
        for env in ctx.inbox() {
            match (&env.msg, &mut self.coordinator, &mut self.core) {
                (KnnMsg::Samples(batch), Some(c), _) => {
                    c.whole &= is_whole(self.params, self.ell, batch.len());
                    c.samples.extend_from_slice(batch);
                    if gathered(&mut c.pending) {
                        let Some(r) = c.threshold(self.params.prune_rank(self.ell)) else {
                            let boundary = c.answer(self.ell);
                            ctx.broadcast(KnnMsg::Sel(SelMsg::Finished { boundary }));
                            return Step::Done(self.finish(boundary));
                        };
                        // Prune, and open the count round with the leader's
                        // own counts.
                        ctx.broadcast(KnnMsg::Prune { r });
                        self.pruned_len = self.candidates.partition_point(|x| *x <= r);
                        c.stats.survivors = self.pruned_len as u64;
                        c.stats.total_candidates = self.candidates.len() as u64;
                        c.pending = ctx.k() - 1;
                    }
                }
                (&KnnMsg::Prune { r }, None, _) => {
                    self.pruned_len = self.candidates.partition_point(|x| *x <= r);
                    ctx.send(
                        self.leader,
                        KnnMsg::PrunedCount {
                            kept: self.pruned_len as u64,
                            total: self.candidates.len() as u64,
                        },
                    );
                }
                (&KnnMsg::PrunedCount { kept, total }, Some(c), _) => {
                    c.stats.survivors += kept;
                    c.stats.total_candidates += total;
                    if gathered(&mut c.pending) {
                        let rollback = c.stats.survivors < self.ell.min(c.stats.total_candidates);
                        c.stats.rolled_back = rollback;
                        ctx.broadcast(KnnMsg::PruneDecision { rollback });
                        if let Some(out) = self.decide(rollback, ctx) {
                            return Step::Done(out);
                        }
                    }
                }
                (&KnnMsg::PruneDecision { rollback }, None, _) => {
                    if let Some(out) = self.decide(rollback, ctx) {
                        return Step::Done(out);
                    }
                }
                // The leader's boundary, after the short cut or after
                // Algorithm 1, whose worker side has nothing to do with it.
                (&KnnMsg::Sel(SelMsg::Finished { boundary }), None, _) => {
                    finished = Some(boundary);
                }
                (KnnMsg::Sel(sel), _, Some(core)) => {
                    let status = core.handle(env.src, sel, ctx.rng());
                    for (dst, m) in core.outbox() {
                        ctx.send(dst, KnnMsg::Sel(m));
                    }
                    if let CoreStatus::Finished { boundary } = status {
                        finished = Some(boundary);
                    }
                }
                // Selection traffic reaches a machine only after the prune
                // decision has built its core (the leader sends the decision
                // first, and links are FIFO).
                (_, None, _) => unreachable!("a worker is sent only requests (see `protocols`)"),
                (_, Some(_), _) => {
                    unreachable!("the leader is sent only replies (see `protocols`)")
                }
            }
        }

        if let Some(boundary) = finished {
            return Step::Done(self.finish(boundary));
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
                let p = KnnProtocol::new(i, k, 0, ell, params, top_ell(local, ell));
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
        let mut p = KnnProtocol::<u64>::new(1, 3, 0, 4, KnnParams::default(), vec![]);
        assert!(
            p.on_crash().is_none(),
            "dead before round 0: nobody has heard from it, so nothing is written off"
        );
        p.started = true;
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
            // Dead before its round 0, so its peers never hear from it and
            // the run cannot salvage it: only the retry writes it off.
            faults: kmachine::FaultPlan::default().with_crash(2, 0),
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
    fn rollback_keeps_tiny_factors_exact() {
        // Absurdly aggressive pruning (factor 1/1) often under-prunes; the
        // count round rolls it back and the answer stays exact.
        let params = KnnParams { sample_factor: 1, rank_factor: 1 };
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
        assert!(rollbacks > 0, "the rollback was never exercised");
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
    /// never for the rounds it spends waiting on the shared links. At
    /// ℓ = 64 every list goes whole and each instance ends at the sampling
    /// stage; at ℓ = 128 the 128-key lists are sampled (m = 84), pruned
    /// and finished by Algorithm 1.
    #[test]
    fn muxed_batch_steps_track_deliveries_not_rounds() {
        let (k, m) = (8usize, 64usize);
        for (ell, selects) in [(64u64, false), (128, true)] {
            let calls = Arc::new(AtomicU64::new(0));
            let protos: Vec<_> = (0..k)
                .map(|i| {
                    let instances = (0..m as u64).map(|j| {
                        let keys = (0..256u64).map(|x| {
                            (x * k as u64 + i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ j)
                        });
                        let p = KnnProtocol::new(
                            i,
                            k,
                            0,
                            ell,
                            KnnParams::default(),
                            top_ell(keys, ell),
                        );
                        Counted(p, calls.clone())
                    });
                    kmachine::MuxProtocol::new(instances.collect())
                })
                .collect();
            let out = run_sync(&NetConfig::new(k).with_seed(3), protos).expect("muxed knn run");
            for (j, o) in out.outputs[0].outputs.iter().enumerate() {
                let stats = o.as_ref().and_then(|o| o.stats).expect("leader stats");
                assert_eq!(stats.select_iterations > 0, selects, "ℓ = {ell} instance {j}");
            }
            let calls = calls.load(Ordering::Relaxed);
            let delivered = out.metrics.messages - out.metrics.delivered_after_done;
            let ticking = (out.metrics.rounds + 1) * (k * m) as u64;
            assert!(
                calls <= delivered + (k * m) as u64,
                "ℓ = {ell}: {calls} inner steps for {delivered} delivered envelopes over {} rounds",
                out.metrics.rounds
            );
            assert!(
                calls * 4 < ticking,
                "ℓ = {ell}: the batch must be bandwidth-bound: {calls} vs {ticking}"
            );
        }
    }

    /// The short cut at the sampling stage: at ℓ ≤ m every list is whole
    /// (ℓ = 0, 1 and 75 here), and so is every list shorter than m past it
    /// (40 keys at ℓ = 76, m = 75). The leader then answers exactly after
    /// the transfer, for `2(k − 1)` messages, in both modes, and reports
    /// the answer's size as its survivors. A list of exactly m past ℓ = m
    /// may be a sample, so it prunes and runs Algorithm 1.
    #[test]
    fn whole_lists_finish_at_the_sampling_stage() {
        let params = KnnParams::default();
        let shards = |per: u64| -> Vec<Vec<u64>> {
            (0..4u64).map(|i| (0..per).map(|x| (x * 4 + i) * 7 % 1_000).collect()).collect()
        };
        for (ell, per) in [(0u64, 5u64), (1, 30), (75, 75), (76, 40)] {
            let total = 4 * per.min(ell);
            let want = KnnStats {
                sample_size: params.sample_size(ell) as u64,
                prune_rank: params.prune_rank(ell) as u64,
                total_candidates: total,
                survivors: ell.min(total),
                rolled_back: false,
                select_iterations: 0,
            };
            for prune_only in [false, true] {
                let (got, metrics, stats) = run(shards(per), ell, 3, params, prune_only);
                let what = format!("ℓ = {ell}, {per} keys a machine, prune-only {prune_only}");
                assert_eq!(got, expected(&shards(per), ell as usize), "{what}");
                assert_eq!(metrics.messages, 2 * 3, "{what}");
                assert_eq!(stats, want, "{what}");
            }
        }
        let (got, metrics, stats) = run_knn(shards(75), 76, 3, params);
        assert_eq!(got, expected(&shards(75), 76));
        assert!(stats.select_iterations > 0, "lists of exactly m = 75 at ℓ = 76 prune");
        assert!(metrics.messages > 2 * 3);
    }

    #[test]
    fn prune_only_returns_superset_of_exact_answer() {
        let all: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let ell = 128;
        let want = expected(std::slice::from_ref(&all), ell);
        let shards = PartitionStrategy::Shuffled.split(all, 16, 3);
        let (got, _, stats) = run_approx(shards, ell as u64, 5, KnnParams::default());
        assert!(!stats.rolled_back);
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
        assert_eq!(stats.total_candidates, 0);
        // Single machine.
        let (got, m, _) = run_approx(vec![vec![5, 1, 9]], 2, 1, params);
        assert_eq!(got, vec![1, 5]);
        assert_eq!(m.messages, 0);
        // ℓ = 0: candidates are empty everywhere, so nothing survives.
        let (got, _, _) = run_approx(vec![vec![1, 2], vec![3]], 0, 1, params);
        assert!(got.is_empty());
        // ℓ ≥ population: everything survives.
        let (got, _, stats) = run_approx(vec![vec![9, 1], vec![4, 7, 2]], 100, 1, params);
        assert_eq!(got, vec![1, 2, 4, 7, 9]);
        assert_eq!(stats.survivors, 5);
    }

    /// Five machines of 56 keys each, sampled `⌈1·log₂ 200⌉ = 8` times
    /// apiece (56 > 8, so no list goes whole), and the threshold is the
    /// rank-8 sample of 40: the prune keeps far fewer than ℓ = 200.
    #[test]
    fn prune_only_undershoot_rolls_back_to_a_superset() {
        let all: Vec<u64> = (0..280u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let want = expected(std::slice::from_ref(&all), 200);
        let shards = PartitionStrategy::RoundRobin.split(all, 5, 0);
        let tiny = KnnParams { sample_factor: 1, rank_factor: 1 };
        let (got, _, stats) = run_approx(shards, 200, 7, tiny);
        assert!(stats.rolled_back);
        assert_eq!(stats.survivors, 53);
        assert_eq!(got.len(), 280, "the rollback keeps every candidate");
        assert_eq!(&got[..200], want);
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

        /// The sampled path, which the paper's constants only reach past
        /// ℓ = 75: at one sample per `log₂ ℓ` (m < ℓ from ℓ = 3 on) lists
        /// are sampled, pruned, rolled back or run through Algorithm 1. The
        /// exact answer equals selection, and the prune-only one holds it
        /// as a prefix.
        #[test]
        fn prop_sampled_path_answers_like_selection(
            values in proptest::collection::hash_set(any::<u64>(), 0..200),
            k in 2usize..7,
            ell in 0u64..40,
            rank_factor in 1u32..3,
            seed in 0u64..300,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let want = expected(std::slice::from_ref(&values), ell as usize);
            let params = KnnParams { sample_factor: 1, rank_factor };
            let shards = PartitionStrategy::RoundRobin.split(values, k, seed);
            let (got, _, _) = run_knn(shards.clone(), ell, seed, params);
            prop_assert_eq!(&got, &want);
            let (got, _, _) = run_approx(shards, ell, seed, params);
            prop_assert_eq!(&got[..want.len()], &want[..]);
        }

        /// Prune-only answers are supersets of the exact ℓ-NN, of as many
        /// keys as the leader's stats say survived.
        #[test]
        fn prop_prune_only_superset_whenever_flag_says_so(
            values in proptest::collection::hash_set(any::<u64>(), 1..150),
            k in 1usize..7,
            ell in 1u64..30,
            seed in 0u64..200,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let want = expected(std::slice::from_ref(&values), ell as usize);
            let shards = PartitionStrategy::RoundRobin.split(values, k, seed);
            let (got, _, stats) = run_approx(shards, ell, seed, KnnParams::default());
            let kept = if stats.rolled_back { stats.total_candidates } else { stats.survivors };
            prop_assert_eq!(got.len() as u64, kept);
            prop_assert!(got.len() >= want.len());
            prop_assert_eq!(&got[..want.len()], &want[..]);
        }
    }
}

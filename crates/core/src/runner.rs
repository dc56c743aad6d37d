//! Query orchestration: pick an algorithm and an election; run
//! distributed ℓ-NN queries through the one serving loop every query path
//! shares; collect outputs and exact communication costs.

use std::time::{Duration, Instant};

use kmachine::leader::{RandRankFlood, RandRankStar};
use kmachine::mux::MuxProtocol;
use kmachine::{
    run_sync, AdversaryPlan, AuditMetrics, BandwidthMode, Engine, EngineError, FaultPlan,
    MachineId, NetConfig, Protocol, RecoveryPlan, RunMetrics, ENVELOPE_HEADER_BITS, MUX_TAG_BITS,
};
use knn_points::{Dataset, DistKey, Key, Metric, Point};

use crate::audit;
use crate::error::CoreError;
use crate::local::{brute_top, candidate_stage, IndexBackend};
use crate::protocols::binsearch::BinSearchProtocol;
use crate::protocols::knn::{KnnOutput, KnnParams, KnnProtocol, KnnStats};
use crate::protocols::saukas_song::SaukasSongProtocol;
use crate::protocols::simple::SimpleProtocol;
use crate::report::Report;
use crate::session::BatchQueryOutcome;
use crate::splitmix64;

/// Which distributed algorithm answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// The paper's Algorithm 2: `O(log ℓ)` rounds whp.
    Knn,
    /// The paper's baseline (§3): gather every machine's local ℓ-NN at the
    /// leader; `Θ(ℓ)` rounds.
    Simple,
    /// Saukas–Song deterministic selection \[16\]: `O(log(kℓ))` rounds.
    SaukasSong,
    /// Value-domain bisection \[3, 18\]: `O(log V)` rounds.
    BinSearch,
}

impl Algorithm {
    /// All algorithms, for comparison sweeps.
    pub const ALL: [Algorithm; 4] =
        [Algorithm::Knn, Algorithm::Simple, Algorithm::SaukasSong, Algorithm::BinSearch];

    /// Short stable name for tables and CSV output.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Knn => "alg2-knn",
            Algorithm::Simple => "simple",
            Algorithm::SaukasSong => "saukas-song",
            Algorithm::BinSearch => "binsearch",
        }
    }
}

/// How the leader is chosen before the main protocol runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ElectionKind {
    /// Machine 0 is the leader by convention (ids are common knowledge in
    /// the k-machine model); zero communication. This matches how the
    /// paper states its bounds, with the election charged separately.
    Fixed,
    /// Random-rank election through machine 0: 2 rounds, `2(k−1)` messages.
    Star,
    /// All-to-all random-rank flood: 1 round, `k(k−1)` messages.
    Flood,
}

/// Deadline-bounded, deterministic retry discipline for fault-aware
/// re-runs. Every budget is counted in **simulated rounds**, never wall
/// clock, so retries stay reproducible at every pool size.
///
/// The default policy replicates the historical behavior: retry until the
/// cluster is down to one machine, with no backoff and no deadline.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    /// Maximum engine runs per query (the first attempt included). `0` is
    /// treated as `1`.
    pub max_attempts: u32,
    /// Total simulated-round budget across failed runs and backoff waits.
    /// Exceeding it surfaces [`CoreError::DeadlineExceeded`].
    pub deadline_rounds: u64,
    /// Exponential backoff unit: retry `n` (1-based) waits
    /// `backoff_base · 2^(n−1)` simulated rounds plus a deterministic
    /// jitter in `[0, backoff_base)`. `0` disables backoff entirely.
    pub backoff_base: u64,
    /// Seed of the jitter stream (split from the attempt number, so two
    /// policies with the same seed produce the same waits).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: u32::MAX,
            deadline_rounds: u64::MAX,
            backoff_base: 0,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Simulated rounds to wait before retry `attempt` (1-based count of
    /// *retries*, i.e. the second engine run is `attempt == 1`).
    pub fn backoff_rounds(&self, attempt: u32) -> u64 {
        if self.backoff_base == 0 {
            return 0;
        }
        let shift = attempt.saturating_sub(1).min(32);
        let base = self.backoff_base.saturating_mul(1u64 << shift);
        base.saturating_add(splitmix64(self.jitter_seed ^ u64::from(attempt)) % self.backoff_base)
    }
}

/// Running tally of a retry loop: attempts made and simulated rounds spent
/// on failed runs plus backoff waits.
#[derive(Debug, Clone, Copy)]
struct RetryState {
    /// Engine runs started so far (≥ 1 once the loop is entered).
    attempts: u32,
    /// Rounds burned by failed runs and backoff waits.
    spent_rounds: u64,
}

impl RetryState {
    /// Account a failed (or partial) run that consumed `rounds`, then
    /// either authorize the next attempt — charging its backoff wait — or
    /// surface [`CoreError::DeadlineExceeded`].
    fn next_attempt(&mut self, policy: &RetryPolicy, rounds: u64) -> Result<(), CoreError> {
        self.spent_rounds = self.spent_rounds.saturating_add(rounds);
        let wait = policy.backoff_rounds(self.attempts);
        self.spent_rounds = self.spent_rounds.saturating_add(wait);
        if self.attempts >= policy.max_attempts.max(1) || self.spent_rounds > policy.deadline_rounds
        {
            return Err(CoreError::DeadlineExceeded {
                attempts: self.attempts,
                spent_rounds: self.spent_rounds,
                max_attempts: policy.max_attempts.max(1),
                deadline_rounds: policy.deadline_rounds,
            });
        }
        self.attempts += 1;
        Ok(())
    }
}

/// Everything configurable about a query run.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Inert: read by nothing. Every run is [`run_sync`]'s lockstep loop,
    /// after the candidate stage ([`candidate_stage`]) has done the local
    /// computation on the rayon pool. A name the frozen benchmark spells
    /// (see `frozen.rs`).
    pub engine: Engine,
    /// Link bandwidth.
    pub bandwidth: BandwidthMode,
    /// Master seed for all protocol randomness.
    pub seed: u64,
    /// Distance metric.
    pub metric: Metric,
    /// Algorithm 2 tunables.
    pub params: KnnParams,
    /// Leader election.
    pub election: ElectionKind,
    /// Synthetic per-round latency, paid once per round.
    pub round_latency: Duration,
    /// Stall safety limit.
    pub max_rounds: u64,
    /// Deterministic fault injection applied to every query run (see
    /// [`FaultPlan`]). Elections run fault-free — leader choice is part of
    /// the control plane, and re-elections after a leader crash must not
    /// themselves crash. When a machine crashes unsalvageably, the runner
    /// retries the query over the surviving shards and flags the answer
    /// [`Report::degraded`].
    pub faults: FaultPlan,
    /// Crash-recovery plan (checkpoint cadence plus scheduled machine
    /// rejoins) handed to the engine with every query run. Rejoins are
    /// invisible to the answer: the machine is restored from its last
    /// checkpoint and replays the missed rounds in-engine. The realized
    /// work is reported through [`Report::replayed_rounds`].
    pub recovery: RecoveryPlan,
    /// Deadline-bounded retry discipline for crash re-runs.
    pub retry: RetryPolicy,
    /// Deterministic Byzantine adversary (see [`AdversaryPlan`]): lying
    /// machines, equivocators, and corrupt links. Arming any of it turns on
    /// the full defense stack for every query run — chained per-link
    /// integrity digests at the engine layer, plus a semantic audit of each
    /// answer against the shard-local oracles at this layer. A caught liar
    /// or corrupt-link source is **quarantined** and the query re-runs over
    /// the honest survivors (flagged [`Report::degraded`], accounted
    /// in [`Report::audit`]); a wrong answer is never returned
    /// silently. Elections stay adversary-free, like [`Self::faults`].
    pub adversary: AdversaryPlan,
    /// Which local index each shard builds (see
    /// [`crate::local::IndexBackend`]): the exact per-type structure
    /// (default) or the approximate NSW graph with its `ef`/`m` recall
    /// knobs. Every [`crate::cluster::KnnCluster`] query — sequential or
    /// batched, exact or approximate — takes its candidates and its audit
    /// truth from that index, so on either backend a batch answers exactly
    /// what sequential queries would. Only the shards-only [`run_query`]
    /// ignores it: it scans every point of every shard.
    pub backend: IndexBackend,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            engine: Engine::Sync,
            bandwidth: BandwidthMode::Enforce {
                bits_per_round: kmachine::config::DEFAULT_BANDWIDTH_BITS,
            },
            seed: 0,
            metric: Metric::Euclidean,
            params: KnnParams::default(),
            election: ElectionKind::Fixed,
            round_latency: Duration::ZERO,
            max_rounds: 10_000_000,
            faults: FaultPlan::default(),
            recovery: RecoveryPlan::default(),
            retry: RetryPolicy::default(),
            adversary: AdversaryPlan::default(),
            backend: IndexBackend::default(),
        }
    }
}

impl QueryOptions {
    /// Fault-free network config: elections and other control-plane runs
    /// use this so a [`FaultPlan`] never disturbs leader choice.
    pub(crate) fn fault_free_config(&self, k: usize) -> NetConfig {
        NetConfig::new(k)
            .with_seed(self.seed)
            .with_bandwidth(self.bandwidth)
            .with_round_latency(self.round_latency)
            .with_max_rounds(self.max_rounds)
    }

    /// Config for a (re)run over the surviving subset `alive` (original
    /// machine ids, ascending): the fault, recovery, and adversary plans
    /// are projected onto the survivors, so the crash (or quarantined liar)
    /// that triggered the retry is gone.
    pub(crate) fn subset_config(&self, alive: &[MachineId]) -> NetConfig {
        self.fault_free_config(alive.len())
            .with_faults(self.faults.project(alive))
            .with_recovery(self.recovery.project(alive))
            .with_adversary(self.adversary.project(alive))
    }

    /// What machine `m` feeds its protocol instance on the exact paths
    /// ([`Seating::run`]), given its `honest` sorted top-ℓ: that, unless `m`
    /// lies at the *source*. A round-0 liar or an equivocator perturbs its
    /// local distances (the wire tamper alone cannot fake the machine's own
    /// self-computed answer slice, so scheduled-from-round-0 lying is
    /// modeled where the claims are actually born) by the pure seeded stream
    /// of [`audit::perturb_input`], and re-sorts: the per-key offsets reorder
    /// the list, and every protocol takes its input sorted. Keyed on the
    /// original machine id, so the lie is identical across
    /// quarantine re-runs and on the sequential and batched paths.
    pub(crate) fn fed_by(&self, m: MachineId, honest: Vec<DistKey>) -> Vec<DistKey> {
        if !self.adversary.equivocates(m) && self.adversary.lie_round(m) != 0 {
            return honest;
        }
        let mut keys = audit::perturb_input(honest, self.adversary.adversary_seed, m);
        keys.sort_unstable();
        keys
    }

    /// Keys per batch message such that one batch fills one link-round.
    pub fn simple_chunk(&self) -> usize {
        self.chunk_after_overhead(ENVELOPE_HEADER_BITS)
    }

    /// Keys per batch message on the multiplexed serving path, where every
    /// message additionally carries its query tag.
    pub fn mux_chunk(&self) -> usize {
        self.chunk_after_overhead(ENVELOPE_HEADER_BITS + MUX_TAG_BITS)
    }

    /// Keys per message after `overhead` framing bits, filling one
    /// link-round.
    fn chunk_after_overhead(&self, overhead: u64) -> usize {
        match self.bandwidth {
            BandwidthMode::Unlimited => 64,
            BandwidthMode::Enforce { bits_per_round } => {
                ((bits_per_round.saturating_sub(overhead)) / DistKey::BITS).max(1) as usize
            }
        }
    }
}

/// Result of one distributed query, before point resolution.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Per-machine answer keys (machine `i`'s members of the ℓ-NN set).
    pub local_keys: Vec<Vec<DistKey>>,
    /// Algorithm 2 diagnostics (`None` for the baselines).
    pub stats: Option<KnnStats>,
    /// Costs and fault / recovery / audit accounting (also reachable
    /// through `Deref`: `outcome.metrics`, `outcome.degraded`, …).
    pub report: Report,
}

/// Elect a leader (when requested) and account its cost. The serving layer
/// ([`crate::session::QuerySession`]) calls this once per session and then
/// amortizes the elected leader across every query it runs.
pub(crate) fn elect(
    k: usize,
    opts: &QueryOptions,
) -> Result<(MachineId, Option<RunMetrics>), CoreError> {
    let cfg = opts.fault_free_config(k);
    match opts.election {
        ElectionKind::Fixed => Ok((0, None)),
        ElectionKind::Star => {
            let out = run_sync(&cfg, (0..k).map(|_| RandRankStar::new()).collect())?;
            Ok((out.outputs[0], Some(out.metrics)))
        }
        ElectionKind::Flood => {
            let out = run_sync(&cfg, (0..k).map(|_| RandRankFlood::new()).collect())?;
            Ok((out.outputs[0], Some(out.metrics)))
        }
    }
}

/// The machines still serving a query, by original id, and which of them
/// coordinates. A retry runs over `alive` only: machine `i` of that run
/// works shard `alive[i]`.
struct Survivors {
    alive: Vec<MachineId>,
    leader: MachineId,
}

impl Survivors {
    /// The leader's machine id within a run over `alive`.
    fn sub_leader(&self) -> usize {
        self.alive.iter().position(|&m| m == self.leader).expect("leader is alive")
    }

    /// Drop the crashed or quarantined machines `dead` (original ids, not
    /// all of `alive`). If the coordinator was among them, re-elect over
    /// the survivors (fault-free, like every election) and keep the new
    /// leader under its original id.
    fn exclude(&mut self, dead: &[MachineId], opts: &QueryOptions) -> Result<(), CoreError> {
        self.alive.retain(|m| !dead.contains(m));
        if !self.alive.contains(&self.leader) {
            let (sub, _) = elect(self.alive.len(), opts)?;
            self.leader = self.alive[sub];
        }
        Ok(())
    }
}

/// Refuse a query or insert `point` whose [`Point::shape`] differs from the
/// loaded data's — no distance between them is defined, and the metric
/// would panic mid-run. Any resident record tells the data's shape, so an
/// empty shard borrows it from the rest of the cluster.
pub(crate) fn check_shape<P: Point>(shards: &[Dataset<P>], point: &P) -> Result<(), CoreError> {
    if let Some(resident) = shards.iter().find_map(|shard| shard.records.first()) {
        let (expected, got) = (resident.point.shape(), point.shape());
        if expected != got {
            return Err(CoreError::ShapeMismatch { expected, got });
        }
    }
    Ok(())
}

/// How one attempt of [`recover`] ended, beside the [`Report`] of its run.
enum Attempt {
    /// Complete and (where audited) certified.
    Done,
    /// Unfinished: drop the machines that crashed in-run, quarantine these
    /// suspects (original ids; empty when the only loss was to a crash)
    /// and go again.
    Retry(Vec<MachineId>),
}

/// Spread a subset run's per-machine keys back over the full `k`-shard
/// layout: machine `i` of the run worked shard `alive[i]`; excluded shards
/// contribute nothing.
fn scatter(sub_keys: Vec<Vec<DistKey>>, alive: &[MachineId], k: usize) -> Vec<Vec<DistKey>> {
    let mut local_keys = vec![Vec::new(); k];
    for (i, keys) in sub_keys.into_iter().enumerate() {
        local_keys[alive[i]] = keys;
    }
    local_keys
}

/// The recovery discipline of [`Seating::serve`], the one loop behind every
/// query, single or batched, exact or approximate.
///
/// `attempt(survivors, n)` makes the `n`-th engine run over the surviving
/// machines and judges it. A run that comes back unfinished — an audit
/// named suspects, or a crashed machine took queries with it — or fails
/// with [`EngineError::Crashed`] / [`EngineError::IntegrityViolation`] (a
/// corrupt link is pinned on its sender) costs the dead and the suspects
/// their place: they are excluded, the leader is re-elected over the
/// survivors if it was among them, and the next attempt runs with the
/// fault, recovery and adversary plans projected onto who is left — which
/// drops every plan entry touching an excluded machine, so the loop
/// terminates. Each re-run is charged to the [`RetryPolicy`]; other engine
/// errors (a lossy link exhausting its retransmits, …) are not retried.
///
/// When nobody would be left the loop gives up *before* charging the retry
/// budget — no further run could certify anything, so it is not a budget
/// failure: [`CoreError::AuditFailed`] if misbehaviour emptied the
/// cluster, the crash itself otherwise.
///
/// The finished [`Report`] is the final run's, with `attempts`,
/// `recovered`, `replayed_rounds` and `audit` totalled over the loop.
fn recover(
    k: usize,
    leader: MachineId,
    opts: &QueryOptions,
    mut attempt: impl FnMut(&Survivors, u32) -> Result<(Report, Attempt), EngineError>,
) -> Result<Report, CoreError> {
    let mut survivors = Survivors { alive: (0..k).collect(), leader };
    let mut retry = RetryState { attempts: 1, spent_rounds: 0 };
    let mut audit = AuditMetrics::default();
    let mut replayed_rounds = 0u64;
    loop {
        let alive = &survivors.alive;
        // Who leaves before the next attempt (original ids), who of them
        // misbehaved, and the simulated rounds the failed attempt burned.
        // Engine errors index the failed run's subset.
        let (mut dead, mut suspects, rounds) = match attempt(&survivors, retry.attempts) {
            Ok((mut report, verdict)) => {
                audit.digests_verified += report.audit.digests_verified;
                audit.audits_run += report.audit.audits_run;
                replayed_rounds += report.replayed_rounds;
                match verdict {
                    Attempt::Done => {
                        report.recovered |= retry.attempts > 1;
                        report.attempts = retry.attempts;
                        report.replayed_rounds = replayed_rounds;
                        report.audit = audit;
                        return Ok(report);
                    }
                    Attempt::Retry(suspects) => {
                        let crashed = report.faults.crashed.iter().map(|&c| alive[c]).collect();
                        (crashed, suspects, report.metrics.rounds)
                    }
                }
            }
            Err(EngineError::Crashed { machine, round }) if alive.len() > 1 => {
                (vec![alive[machine]], Vec::new(), round)
            }
            Err(EngineError::IntegrityViolation { src, round, .. }) if alive.len() > 1 => {
                audit.integrity_violations += 1;
                (Vec::new(), vec![alive[src]], round)
            }
            Err(e) => return Err(e.into()),
        };
        // A batch can name one suspect once per poisoned query.
        suspects.sort_unstable();
        suspects.dedup();
        audit.suspects_quarantined += suspects.len() as u64;
        dead.extend(&suspects);
        dead.sort_unstable();
        dead.dedup();
        if dead.len() >= alive.len() && !suspects.is_empty() {
            return Err(CoreError::AuditFailed { suspects, alive: alive.len() });
        }
        if dead.len() >= alive.len() || dead.is_empty() {
            // Holes without a usable survivor topology (or — impossibly —
            // without a crash or a suspect): surface the crash instead of
            // looping on an unanswerable plan.
            let machine = dead.first().copied().unwrap_or(0);
            return Err(EngineError::Crashed { machine, round: rounds }.into());
        }
        retry.next_attempt(&opts.retry, rounds)?;
        survivors.exclude(&dead, opts)?;
    }
}

/// What one machine's finished protocol instance reports, whichever of the
/// four protocols it ran.
struct Claim {
    keys: Vec<DistKey>,
    /// Algorithm 2 diagnostics (its leader only).
    stats: Option<KnnStats>,
}

impl From<Vec<DistKey>> for Claim {
    fn from(keys: Vec<DistKey>) -> Claim {
        Claim { keys, stats: None }
    }
}

impl From<KnnOutput<DistKey>> for Claim {
    fn from(out: KnnOutput<DistKey>) -> Claim {
        Claim { keys: out.keys, stats: out.stats }
    }
}

/// One query's answer as one engine run left it.
struct Answered {
    /// Per-machine answer keys, in the run's subset order until the loop
    /// keeps the answer and [`scatter`]s them over the full shard layout.
    local_keys: Vec<Vec<DistKey>>,
    /// The leader instance's [`Claim::stats`].
    stats: Option<KnnStats>,
    /// Round in which the query completed (max over machines).
    done_round: u64,
}

/// How one protocol instance is wired into a (possibly degraded) run:
/// positions in the run's surviving subset.
#[derive(Clone, Copy)]
struct Wiring {
    id: usize,
    k: usize,
    leader: MachineId,
}

/// What is served, and how. [`Seating::serve`] is the one loop behind every
/// query path — [`run_query`], a [`crate::cluster::KnnCluster`]'s sequential
/// queries, [`crate::session::QuerySession`] batches — and [`Seating::run`]
/// one engine run of it: the one place a protocol is seated and read.
pub(crate) struct Seating<'r> {
    /// The exact algorithm, or `None` for the approximate query: Algorithm
    /// 2 stopped at its pruning decision ([`KnnProtocol::prune_only`]).
    pub(crate) kind: Option<Algorithm>,
    pub(crate) ell: usize,
    pub(crate) opts: &'r QueryOptions,
    /// Machines of the whole cluster.
    pub(crate) k: usize,
    /// `true`: every machine multiplexes one tagged instance per pending
    /// query over its links ([`MuxProtocol`]). `false`: one query, one
    /// untagged instance per machine — the paper's per-query accounting.
    pub(crate) mux: bool,
}

/// What [`Seating::run`] leaves behind.
struct Seated {
    /// One entry per query — `None` where a crashed machine took its
    /// contribution to that query with it (multiplexed runs only).
    answers: Vec<Option<Answered>>,
    /// The run's report; `wall` covers the candidate stage and the engine.
    report: Report,
    /// On a run whose answers must be audited (an exact protocol under an
    /// adversary plan): the stage's honest output, `[alive position][query]`
    /// — what every machine would have fed its instances had nobody lied,
    /// and so the truth its claims are held against. `None` otherwise.
    truth: Option<Vec<Vec<Vec<DistKey>>>>,
}

impl Seating<'_> {
    /// Answer `queries` queries led by `leader`, `top(machine, j)` being
    /// shard `machine`'s candidates for query `j` (sorted by
    /// `(distance, id)`, at most ℓ). `scan_sizes`: every shard's length when
    /// `top` is a full scan, so the stage knows its least cost up front.
    ///
    /// [`recover`], made **fault-aware per query**: a query whose answer a
    /// crashed machine took with it (a hole; multiplexed runs only) is
    /// re-planned onto the survivors while completed queries keep theirs,
    /// and an unsalvageable [`EngineError::Crashed`] re-runs every pending
    /// query. On an exact protocol under an adversary plan every completed
    /// query is **audited before it is kept** ([`audit::audit_claims`]
    /// against the stage's honest output); one that fails is re-run like a
    /// lost one with its suspects quarantined, so no wrong answer is kept —
    /// not even one a machine answered before it was caught lying on a
    /// later query of the same batch. Per query, `messages` / `bits` are its
    /// tag's share (zero unmultiplexed, where the report holds the totals).
    pub(crate) fn serve(
        &self,
        leader: MachineId,
        queries: usize,
        scan_sizes: Option<&[usize]>,
        top: impl Fn(MachineId, usize) -> Vec<DistKey> + Sync,
    ) -> Result<(Vec<BatchQueryOutcome>, Report), CoreError> {
        let (k, ell, opts) = (self.k, self.ell, self.opts);
        debug_assert!(self.mux || queries == 1, "an unmultiplexed run answers one query");
        if queries == 0 {
            return Ok((Vec::new(), Report::healthy(RunMetrics::new(k), k, leader)));
        }
        // Finished per-query outcomes by original index, filled across runs.
        let mut done: Vec<Option<BatchQueryOutcome>> = (0..queries).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..queries).collect();
        let report = recover(k, leader, opts, |survivors, attempts| {
            let alive = &survivors.alive;
            let Seated { answers, mut report, mut truth } =
                self.run(survivors, pending.len(), scan_sizes, |m, p| top(m, pending[p]))?;
            let mut lost: Vec<usize> = Vec::new();
            let mut suspects: Vec<MachineId> = Vec::new();
            for (p, (&j, answer)) in pending.iter().zip(answers).enumerate() {
                let Some(answer) = answer else {
                    lost.push(j);
                    continue;
                };
                if let Some(truth) = &mut truth {
                    report.audit.audits_run += 1;
                    // No machine is excluded, crashed or not (`Seating::run`).
                    let truth: Vec<Vec<DistKey>> =
                        truth.iter_mut().map(|row| std::mem::take(&mut row[p])).collect();
                    let verdict = audit::audit_claims(&truth, &answer.local_keys, ell, opts.seed);
                    if !verdict.ok {
                        lost.push(j);
                        suspects.extend(verdict.suspects.iter().map(|&s| alive[s]));
                        continue;
                    }
                }
                let tag = report.metrics.tag(p as u32);
                done[j] = Some(BatchQueryOutcome {
                    local_keys: scatter(answer.local_keys, alive, k),
                    messages: tag.messages,
                    bits: tag.bits,
                    done_round: answer.done_round,
                    contains_exact: self.kind.is_none().then(|| {
                        answer.stats.is_some_and(|stats| stats.contains_exact(ell as u64))
                    }),
                    stats: answer.stats,
                    attempts,
                    recovered: attempts > 1,
                });
            }
            if lost.is_empty() {
                return Ok((report, Attempt::Done));
            }
            pending = lost;
            Ok((report, Attempt::Retry(suspects)))
        })?;
        let outcomes = done.into_iter().map(|q| q.expect("every query answered")).collect();
        Ok((outcomes, report))
    }

    /// One engine run over `survivors` for `queries` pending queries (`top`
    /// indexed by pending position): the candidate stage computes every cell
    /// once, on the rayon pool ([`candidate_stage`]), then the engine moves
    /// messages only. A machine that never runs round 0 (crash round 0 in
    /// the [`FaultPlan`]) is fed nothing — the one audit-truth rule: a
    /// machine contributes nothing exactly when its instance is salvaged,
    /// and every protocol salvages a started instance only when it holds no
    /// candidates, so every machine's truth is its stage output. Rejoins
    /// ([`RecoveryPlan`]) are pauses, not crashes, and keep theirs.
    fn run(
        &self,
        survivors: &Survivors,
        queries: usize,
        scan_sizes: Option<&[usize]>,
        top: impl Fn(MachineId, usize) -> Vec<DistKey> + Sync,
    ) -> Result<Seated, EngineError> {
        let (opts, ell, params) = (self.opts, self.ell as u64, self.opts.params);
        let alive = &survivors.alive;
        let chunk = if self.mux { opts.mux_chunk() } else { opts.simple_chunk() };
        let start = Instant::now();
        let runs = |m: MachineId| opts.faults.crash_round(m) > 0;
        let scan_points =
            scan_sizes.map(|sizes| alive.iter().filter(|&&m| runs(m)).map(|&m| sizes[m]).sum());
        let mut fed = candidate_stage(alive, queries, scan_points, |m, j| {
            if runs(m) {
                top(m, j)
            } else {
                Vec::new()
            }
        })?;
        // Approximate answers are supersets no audit certifies, so that path
        // keeps no truth and injects no source-level lies either.
        let audited = self.kind.is_some() && !opts.adversary.is_empty();
        let truth = audited.then(|| fed.clone());
        if audited {
            for (row, &m) in fed.iter_mut().zip(alive) {
                for keys in row {
                    *keys = opts.fed_by(m, std::mem::take(keys));
                }
            }
        }
        let stage = start.elapsed();
        let s = survivors;
        let (answers, mut report) = match self.kind {
            Some(Algorithm::Knn) => self.engine_run(s, fed, |w, keys| {
                KnnProtocol::new(w.id, w.k, w.leader, ell, params, keys)
            }),
            Some(Algorithm::Simple) => self.engine_run(s, fed, |w, keys| {
                SimpleProtocol::new(w.id, w.leader, ell, chunk, keys)
            }),
            Some(Algorithm::SaukasSong) => self.engine_run(s, fed, |w, keys| {
                SaukasSongProtocol::new(w.id, w.k, w.leader, ell, keys)
            }),
            Some(Algorithm::BinSearch) => self.engine_run(s, fed, |w, keys| {
                BinSearchProtocol::new(w.id, w.k, w.leader, ell, keys)
            }),
            None => self.engine_run(s, fed, |w, keys| {
                KnnProtocol::new(w.id, w.k, w.leader, ell, params, keys).prune_only()
            }),
        }?;
        report.wall += stage;
        Ok(Seated { answers, report, truth })
    }

    /// Seat one instance per cell of `fed` (`[alive position][query]`) and
    /// run the engine over them.
    fn engine_run<Proto>(
        &self,
        survivors: &Survivors,
        fed: Vec<Vec<Vec<DistKey>>>,
        build: impl Fn(Wiring, Vec<DistKey>) -> Proto,
    ) -> Result<(Vec<Option<Answered>>, Report), EngineError>
    where
        Proto: Protocol,
        Proto::Output: Into<Claim>,
    {
        let alive = &survivors.alive;
        let leader = survivors.sub_leader();
        let queries = fed[0].len();
        let cfg = self.opts.subset_config(alive);
        let build = &build;
        let seats = fed.into_iter().enumerate().map(|(id, row)| {
            row.into_iter().map(move |keys| build(Wiring { id, k: alive.len(), leader }, keys))
        });
        let read = |outputs: Vec<Proto::Output>, done_round| {
            let claims: Vec<Claim> = outputs.into_iter().map(Into::into).collect();
            let stats = claims[leader].stats;
            let local_keys = claims.into_iter().map(|claim| claim.keys).collect();
            Answered { local_keys, stats, done_round }
        };
        if !self.mux {
            let protos = seats.map(|mut row| row.next().expect("one query, one cell")).collect();
            let out = run_sync(&cfg, protos)?;
            let (outputs, report) = Report::from_run(out, self.k, survivors.leader);
            return Ok((vec![Some(read(outputs, report.metrics.rounds))], report));
        }
        let protos = seats.map(|row| MuxProtocol::new(row.collect())).collect();
        let out = run_sync(&cfg, protos)?;
        let (mut outputs, report) = Report::from_run(out, self.k, survivors.leader);
        let answers = (0..queries)
            .map(|j| {
                // A hole at the query's tag in any machine's mux output: a
                // crashed machine died holding that query's contribution.
                let outs: Option<Vec<_>> =
                    outputs.iter_mut().map(|o| o.outputs[j].take()).collect();
                let done_round = outputs.iter().map(|o| o.done_round[j]).max().unwrap_or(0);
                outs.map(|outs| read(outs, done_round))
            })
            .collect();
        Ok((answers, report))
    }
}

/// Run one ℓ-NN query over `shards` with the chosen algorithm: the paper's
/// full-scan setting, and the index-free reference for the
/// [`crate::cluster::KnnCluster`] queries that read shard indices instead
/// (on the exact backend the answers and every counter are the same).
///
/// Each machine's candidates are a full scan of its shard that keeps only
/// the ℓ best ([`brute_top`]: `O(ℓ)` memory), computed as a stage of its own
/// ([`candidate_stage`]): all k scans run before the protocols are seated, on
/// the rayon pool — the model's "all machines compute at once", and the
/// effect the paper's Figure 2 attributes its measured speedup to. The
/// engine then moves messages only.
///
/// Under a [`QueryOptions::faults`] plan the query **recovers from
/// crashes** and under a [`QueryOptions::adversary`] plan **from lies**,
/// through the one serving loop every query path shares: every successful
/// run's answer is audited ([`crate::audit::audit_claims`]) before it is
/// returned, crashed and suspect machines are excluded, and the query
/// re-runs on the surviving shards under the [`RetryPolicy`] budget, flagged
/// [`Report::degraded`]; [`CoreError::AuditFailed`] surfaces instead of an
/// uncertified answer when quarantining would empty the cluster. A query of
/// the wrong [`Point::shape`] is refused with [`CoreError::ShapeMismatch`]
/// before anything runs.
pub fn run_query<P: Point>(
    shards: &[Dataset<P>],
    query: &P,
    ell: usize,
    algorithm: Algorithm,
    opts: &QueryOptions,
) -> Result<QueryOutcome, CoreError> {
    let k = shards.len();
    if k == 0 {
        return Err(CoreError::EmptyCluster);
    }
    check_shape(shards, query)?;
    let (leader, election_metrics) = elect(k, opts)?;
    let seating = Seating { kind: Some(algorithm), ell, opts, k, mux: false };
    let sizes: Vec<usize> = shards.iter().map(|shard| shard.records.len()).collect();
    let (mut answers, mut report) = seating.serve(leader, 1, Some(&sizes), |m, _| {
        brute_top(&shards[m].records, query, ell, opts.metric)
    })?;
    report.election_metrics = election_metrics;
    let answer = answers.pop().expect("one query, one outcome");
    Ok(QueryOutcome { local_keys: answer.local_keys, stats: answer.stats, report })
}

/// Merge per-machine answer keys into one globally sorted answer,
/// remembering which machine holds each point.
pub fn merge_answers(local_keys: &[Vec<DistKey>]) -> Vec<(DistKey, MachineId)> {
    let mut all: Vec<(DistKey, MachineId)> = local_keys
        .iter()
        .enumerate()
        .flat_map(|(m, keys)| keys.iter().map(move |&key| (key, m)))
        .collect();
    all.sort_unstable_by_key(|&(key, _)| key);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_points::{brute_force_knn, IdAssigner, ScalarPoint};
    use knn_workloads::PartitionStrategy;

    fn shards(values: &[u64], k: usize) -> Vec<Dataset<ScalarPoint>> {
        let mut ids = IdAssigner::new(0);
        let data = Dataset::from_points(values.iter().map(|&v| ScalarPoint(v)).collect(), &mut ids);
        PartitionStrategy::RoundRobin
            .split(data.records, k, 0)
            .into_iter()
            .map(Dataset::new)
            .collect()
    }

    #[test]
    fn all_algorithms_agree_with_brute_force() {
        let values: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(48271) % 100_000).collect();
        let sh = shards(&values, 6);
        let all_records: Vec<_> = sh.iter().flat_map(|d| d.records.clone()).collect();
        let q = ScalarPoint(33_333);
        let want: Vec<_> = brute_force_knn(&all_records, &q, 9, Metric::Euclidean)
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        for algo in Algorithm::ALL {
            let out = run_query(&sh, &q, 9, algo, &QueryOptions::default()).unwrap();
            let got: Vec<DistKey> =
                merge_answers(&out.local_keys).into_iter().map(|(key, _)| key).collect();
            assert_eq!(got, want, "{algo:?}");
        }
    }

    #[test]
    fn elections_change_cost_not_answer() {
        let values: Vec<u64> = (0..200).collect();
        let sh = shards(&values, 5);
        let q = ScalarPoint(77);
        let mut answers = Vec::new();
        for election in [ElectionKind::Fixed, ElectionKind::Star, ElectionKind::Flood] {
            let opts = QueryOptions { election, ..Default::default() };
            let out = run_query(&sh, &q, 4, Algorithm::Knn, &opts).unwrap();
            match election {
                ElectionKind::Fixed => assert!(out.election_metrics.is_none()),
                ElectionKind::Star => {
                    assert_eq!(out.election_metrics.as_ref().unwrap().messages, 8)
                }
                ElectionKind::Flood => {
                    assert_eq!(out.election_metrics.as_ref().unwrap().messages, 20)
                }
            }
            answers.push(
                merge_answers(&out.local_keys).into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            );
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn healthy_run_is_not_degraded() {
        let sh = shards(&(0..100u64).collect::<Vec<_>>(), 4);
        let out =
            run_query(&sh, &ScalarPoint(50), 5, Algorithm::Knn, &QueryOptions::default()).unwrap();
        assert!(!out.degraded);
        assert_eq!(out.shards_used, 4);
        assert!(!out.faults.any());
    }

    #[test]
    fn leader_crash_recovers_with_reelection() {
        let values: Vec<u64> = (0..300u64).map(|i| i.wrapping_mul(48271) % 40_000).collect();
        let sh = shards(&values, 5);
        let q = ScalarPoint(9_999);
        let opts =
            QueryOptions { faults: FaultPlan::default().with_crash(0, 0), ..Default::default() };
        for algo in Algorithm::ALL {
            let out = run_query(&sh, &q, 6, algo, &opts).unwrap();
            assert!(out.degraded, "{algo:?}");
            assert_eq!(out.shards_used, 4, "{algo:?}");
            assert_ne!(out.leader, 0, "{algo:?}: a dead leader cannot coordinate");
            assert!(out.local_keys[0].is_empty(), "{algo:?}: the dead shard contributes nothing");
            // The degraded answer is exact over the surviving shards.
            let survivors: Vec<_> =
                sh.iter().enumerate().filter(|&(i, _)| i != 0).map(|(_, d)| d.clone()).collect();
            let want = run_query(&survivors, &q, 6, algo, &QueryOptions::default()).unwrap();
            let got: Vec<DistKey> =
                merge_answers(&out.local_keys).into_iter().map(|(key, _)| key).collect();
            let want: Vec<DistKey> =
                merge_answers(&want.local_keys).into_iter().map(|(key, _)| key).collect();
            assert_eq!(got, want, "{algo:?}");
        }
    }

    #[test]
    fn worker_crash_under_simple_salvages_in_run() {
        // A crashed worker under the gather baseline does not force a
        // retry: the leader observes the crash horizon and selects over
        // the surviving candidates in the same run.
        let values: Vec<u64> = (0..200).collect();
        let sh = shards(&values, 5);
        let q = ScalarPoint(77);
        let opts =
            QueryOptions { faults: FaultPlan::default().with_crash(2, 0), ..Default::default() };
        let out = run_query(&sh, &q, 8, Algorithm::Simple, &opts).unwrap();
        assert!(out.degraded);
        assert_eq!(out.faults.crashed, vec![2], "salvaged in-run, not excluded by retry");
        assert_eq!(out.shards_used, 4);
        assert_eq!(out.leader, 0, "the leader survived; no re-election");
        assert!(out.local_keys[2].is_empty());
        let survivors: Vec<_> =
            sh.iter().enumerate().filter(|&(i, _)| i != 2).map(|(_, d)| d.clone()).collect();
        let want =
            run_query(&survivors, &q, 8, Algorithm::Simple, &QueryOptions::default()).unwrap();
        assert_eq!(
            merge_answers(&out.local_keys).iter().map(|&(key, _)| key).collect::<Vec<_>>(),
            merge_answers(&want.local_keys).iter().map(|&(key, _)| key).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn retry_accounting_rides_the_outcome() {
        let sh = shards(&(0..200u64).collect::<Vec<_>>(), 5);
        let healthy =
            run_query(&sh, &ScalarPoint(50), 5, Algorithm::Knn, &QueryOptions::default()).unwrap();
        assert!(!healthy.recovered);
        assert_eq!(healthy.attempts, 1);
        assert_eq!(healthy.replayed_rounds, 0);
        let opts =
            QueryOptions { faults: FaultPlan::default().with_crash(0, 0), ..Default::default() };
        let out = run_query(&sh, &ScalarPoint(50), 5, Algorithm::Knn, &opts).unwrap();
        assert!(out.recovered, "a crash retry is a recovery");
        assert_eq!(out.attempts, 2, "one failed run, one successful re-run");
    }

    #[test]
    fn retry_deadline_surfaces_typed_error() {
        let sh = shards(&(0..100u64).collect::<Vec<_>>(), 4);
        let opts = QueryOptions {
            faults: FaultPlan::default().with_crash(0, 0),
            retry: RetryPolicy { max_attempts: 1, ..Default::default() },
            ..Default::default()
        };
        let err = run_query(&sh, &ScalarPoint(1), 4, Algorithm::Knn, &opts).unwrap_err();
        assert!(
            matches!(err, CoreError::DeadlineExceeded { attempts: 1, .. }),
            "attempt budget of 1 forbids the recovery re-run: {err:?}"
        );
        let opts = QueryOptions {
            faults: FaultPlan::default().with_crash(0, 0),
            retry: RetryPolicy { deadline_rounds: 0, backoff_base: 8, ..Default::default() },
            ..Default::default()
        };
        let err = run_query(&sh, &ScalarPoint(1), 4, Algorithm::Knn, &opts).unwrap_err();
        assert!(
            matches!(err, CoreError::DeadlineExceeded { spent_rounds, .. } if spent_rounds > 0),
            "backoff waits count against the round deadline: {err:?}"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let policy = RetryPolicy { backoff_base: 16, jitter_seed: 7, ..Default::default() };
        let waits: Vec<u64> = (1..=4).map(|a| policy.backoff_rounds(a)).collect();
        // Deterministic: same policy, same waits.
        assert_eq!(waits, (1..=4).map(|a| policy.backoff_rounds(a)).collect::<Vec<_>>());
        for (i, &w) in waits.iter().enumerate() {
            let base = 16u64 << i;
            assert!(
                w >= base && w < base + 16,
                "retry {}: {w} outside [{base}, {})",
                i + 1,
                base + 16
            );
        }
        assert_eq!(RetryPolicy::default().backoff_rounds(3), 0, "no backoff by default");
    }

    #[test]
    fn link_down_is_not_retried() {
        let sh = shards(&(0..100u64).collect::<Vec<_>>(), 3);
        let opts =
            QueryOptions { faults: FaultPlan::default().with_loss(1000, 2), ..Default::default() };
        let err = run_query(&sh, &ScalarPoint(1), 4, Algorithm::Simple, &opts).unwrap_err();
        assert!(
            matches!(err, CoreError::Engine(EngineError::LinkDown { .. })),
            "a dead link is a typed error, not a hang or a retry: {err:?}"
        );
    }

    #[test]
    fn empty_cluster_is_an_error() {
        let sh: Vec<Dataset<ScalarPoint>> = Vec::new();
        let err = run_query(&sh, &ScalarPoint(0), 3, Algorithm::Knn, &QueryOptions::default())
            .unwrap_err();
        assert_eq!(err, CoreError::EmptyCluster);
    }

    #[test]
    fn simple_chunk_respects_bandwidth() {
        let opts = QueryOptions {
            bandwidth: BandwidthMode::Enforce { bits_per_round: 512 },
            ..Default::default()
        };
        assert_eq!(opts.simple_chunk(), 3); // (512-33)/128 = 3
        let tiny = QueryOptions {
            bandwidth: BandwidthMode::Enforce { bits_per_round: 64 },
            ..Default::default()
        };
        assert_eq!(tiny.simple_chunk(), 1);
    }

    /// Shards holding contiguous value ranges, so tests can aim queries at
    /// (or away from) a specific machine's points.
    fn range_shards(ranges: &[std::ops::Range<u64>]) -> Vec<Dataset<ScalarPoint>> {
        let mut ids = IdAssigner::new(0);
        ranges
            .iter()
            .map(|r| Dataset::from_points(r.clone().map(ScalarPoint).collect(), &mut ids))
            .collect()
    }

    fn answer_of(local_keys: &[Vec<DistKey>]) -> Vec<DistKey> {
        merge_answers(local_keys).into_iter().map(|(key, _)| key).collect()
    }

    #[test]
    fn liar_is_quarantined_and_answer_matches_survivors_for_every_algorithm() {
        // Machine 1 owns the query's whole neighborhood, so its round-0 lie
        // is always material: the audit must catch it, quarantine it, and
        // certify the re-run over the honest survivors.
        let sh = range_shards(&[0..100, 100..200, 200..300, 300..400]);
        let q = ScalarPoint(150);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        let survivors: Vec<_> =
            sh.iter().enumerate().filter(|&(i, _)| i != 1).map(|(_, d)| d.clone()).collect();
        for algo in Algorithm::ALL {
            let out = run_query(&sh, &q, 6, algo, &opts).unwrap();
            assert!(out.degraded, "{algo:?}");
            assert_eq!(out.shards_used, 3, "{algo:?}");
            assert!(out.recovered, "{algo:?}");
            assert_eq!(out.attempts, 2, "{algo:?}: one audited failure, one certified re-run");
            assert_eq!(out.audit.audits_run, 2, "{algo:?}");
            assert_eq!(out.audit.suspects_quarantined, 1, "{algo:?}");
            assert!(out.local_keys[1].is_empty(), "{algo:?}: the liar contributes nothing");
            let want = run_query(&survivors, &q, 6, algo, &QueryOptions::default()).unwrap();
            assert_eq!(answer_of(&out.local_keys), answer_of(&want.local_keys), "{algo:?}");
        }
    }

    #[test]
    fn equivocator_is_caught_like_a_round_zero_liar() {
        let sh = range_shards(&[0..100, 100..200, 200..300]);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_equivocate(2),
            ..Default::default()
        };
        let out = run_query(&sh, &ScalarPoint(250), 5, Algorithm::Knn, &opts).unwrap();
        assert!(out.degraded);
        assert_eq!(out.audit.suspects_quarantined, 1);
        assert!(out.local_keys[2].is_empty());
    }

    #[test]
    fn immaterial_lie_passes_the_audit_with_a_certified_answer() {
        // The liar's points are nowhere near the query: inflating them
        // changes nothing the selection sees, the claims equal the honest
        // truth, and the audit certifies the first run.
        let sh = range_shards(&[0..100, 10_000..10_100, 100..200]);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        let out = run_query(&sh, &ScalarPoint(50), 5, Algorithm::Knn, &opts).unwrap();
        assert!(!out.degraded);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.audit.audits_run, 1);
        assert_eq!(out.audit.suspects_quarantined, 0);
        let want =
            run_query(&sh, &ScalarPoint(50), 5, Algorithm::Knn, &QueryOptions::default()).unwrap();
        assert_eq!(answer_of(&out.local_keys), answer_of(&want.local_keys));
    }

    #[test]
    fn everyone_lying_surfaces_audit_failed() {
        // Both machines own part of the answer and both lie: quarantining
        // every suspect would empty the cluster, so no certifiable answer
        // exists — the typed error surfaces instead of a wrong answer.
        let sh = range_shards(&[0..50, 50..100]);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(0, 0).with_lie(1, 0),
            ..Default::default()
        };
        let err = run_query(&sh, &ScalarPoint(50), 6, Algorithm::Knn, &opts).unwrap_err();
        assert!(
            matches!(&err, CoreError::AuditFailed { suspects, alive: 2 } if suspects.len() == 2),
            "want AuditFailed naming both liars, got {err:?}"
        );
    }

    #[test]
    fn corrupt_link_quarantines_the_sender() {
        let sh = range_shards(&[0..100, 100..200, 200..300]);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_corrupt_link(1, 0, 1000),
            ..Default::default()
        };
        let out = run_query(&sh, &ScalarPoint(150), 5, Algorithm::Knn, &opts).unwrap();
        assert_eq!(out.audit.integrity_violations, 1, "the digest chain catches the corruption");
        assert_eq!(out.audit.suspects_quarantined, 1);
        assert!(out.degraded);
        assert!(out.local_keys[1].is_empty(), "the corrupting sender is quarantined");
        let survivors: Vec<_> =
            sh.iter().enumerate().filter(|&(i, _)| i != 1).map(|(_, d)| d.clone()).collect();
        let want =
            run_query(&survivors, &ScalarPoint(150), 5, Algorithm::Knn, &QueryOptions::default())
                .unwrap();
        assert_eq!(answer_of(&out.local_keys), answer_of(&want.local_keys));
    }

    #[test]
    fn merge_answers_sorts_globally() {
        use knn_points::{Dist, PointId};
        let a = DistKey::new(Dist::from_u64(5), PointId(1));
        let b = DistKey::new(Dist::from_u64(1), PointId(2));
        let c = DistKey::new(Dist::from_u64(3), PointId(3));
        let merged = merge_answers(&[vec![a], vec![b, c]]);
        assert_eq!(merged.iter().map(|&(_, m)| m).collect::<Vec<_>>(), vec![1, 1, 0]);
        assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}

//! Query orchestration: pick an algorithm and an election; run
//! distributed ℓ-NN queries through the one serving loop every query path
//! shares; collect outputs and exact communication costs.

use std::time::{Duration, Instant};

use kmachine::leader::{RandRankFlood, RandRankStar};
use kmachine::mux::MuxProtocol;
use kmachine::{
    run_sync, AdversaryPlan, AuditMetrics, BandwidthMode, Engine, EngineError, FaultPlan,
    MachineId, NetConfig, Protocol, RecoveryPlan, RunMetrics, TagMetrics, ENVELOPE_HEADER_BITS,
    MUX_TAG_BITS,
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

/// Which distributed algorithm answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// cluster is down to one machine, with no deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum engine runs per query (the first attempt included). `0` is
    /// treated as `1`.
    pub max_attempts: u32,
    /// Total simulated-round budget across failed runs.
    /// Exceeding it surfaces [`CoreError::DeadlineExceeded`].
    pub deadline_rounds: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: u32::MAX, deadline_rounds: u64::MAX }
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
    /// Scheduled machine rejoins (see [`RecoveryPlan`]). Until a machine
    /// has rejoined, its entry is a fail-stop crash in every query run;
    /// once it dies there, the query re-runs with it back (healing by
    /// restart: a query is a pure function of seeds and shards), charged
    /// to [`Self::retry`] up to its rejoin round. Rejoins are invisible to
    /// the answer: it, and its [`Report::metrics`], equal the fault-free
    /// run's, it is not [`Report::degraded`], and the rejoined machines are
    /// listed in [`Report::recovery`].
    pub recovery: RecoveryPlan,
    /// Deadline-bounded retry discipline for crash re-runs.
    pub retry: RetryPolicy,
    /// Deterministic Byzantine adversary (see [`AdversaryPlan`]): machines
    /// that lie at the source, and corrupt links. A lie scheduled for a
    /// round other than 0 is refused as [`EngineError::InvalidPlan`].
    /// Arming any of it turns on
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
    /// machine ids, ascending) once the machines `rejoined` are back: the
    /// fault and adversary plans are projected onto the survivors, so the
    /// crash (or quarantined liar) that triggered the retry is gone, and a
    /// pending rejoin is the crash it is until then.
    pub(crate) fn subset_config(&self, alive: &[MachineId], rejoined: &[MachineId]) -> NetConfig {
        self.fault_free_config(alive.len())
            .with_faults(self.recovery.crashes(&self.faults, rejoined).project(alive))
            .with_adversary(self.adversary.project(alive))
    }

    /// What machine `m` feeds its protocol instance on the exact paths
    /// ([`Seating::run`]), given its `honest` sorted top-ℓ: that, unless `m`
    /// is a liar. A liar lies at the *source*, where its claims are born:
    /// it perturbs its local distances by the pure seeded stream of
    /// [`audit::perturb_input`], and re-sorts (the per-key offsets reorder
    /// the list, and every protocol takes its input sorted). Everything it
    /// then sends, and the answer slice it claims, follows from the lie.
    /// Keyed on the original machine id, so the lie is identical across
    /// quarantine re-runs and on the sequential and batched paths.
    pub(crate) fn fed_by(&self, m: MachineId, honest: Vec<DistKey>) -> Vec<DistKey> {
        if !self.adversary.is_liar(m) {
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

/// Result of one distributed query, before point resolution: alone, or one
/// query of a batch ([`crate::session::BatchOutcome::queries`]).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Per-machine answer keys (machine `i`'s members of the ℓ-NN set).
    pub local_keys: Vec<Vec<DistKey>>,
    /// Algorithm 2 diagnostics, the approximate path's included (`None`
    /// for the baselines).
    pub stats: Option<KnnStats>,
    /// Costs and fault / recovery / audit accounting (also reachable
    /// through `Deref`: `outcome.metrics`, `outcome.degraded`, …). Alone,
    /// the report of the run that answered it; inside a batch, only its own
    /// share (see [`crate::cluster::BatchAnswer`]).
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

/// The machines still serving a query, by original id, which of them
/// coordinates, and which of them are back from a scheduled rejoin. A retry
/// runs over `alive` only: machine `i` of that run works shard `alive[i]`.
struct Survivors {
    alive: Vec<MachineId>,
    /// The leader's position in `alive`: its machine id within a run.
    lead: usize,
    /// Machines of the [`RecoveryPlan`] that crashed and rejoined, in the
    /// order they did; always a subset of `alive`.
    rejoined: Vec<MachineId>,
}

impl Survivors {
    /// Whether `m` has a [`RecoveryPlan`] entry it has not used yet: until
    /// then, every run counts it crashed at its crash round.
    fn rejoins(&self, m: MachineId, plan: &RecoveryPlan) -> bool {
        plan.rejoin_round(m) != u64::MAX && !self.rejoined.contains(&m)
    }

    /// The leader, by original id.
    fn leader(&self) -> MachineId {
        self.alive[self.lead]
    }

    /// Drop the crashed or quarantined machines `dead` (original ids, not
    /// all of `alive`). If the coordinator was among them, re-elect over
    /// the survivors (fault-free, like every election).
    fn exclude(&mut self, dead: &[MachineId], opts: &QueryOptions) -> Result<(), CoreError> {
        let leader = self.leader();
        self.alive.retain(|m| !dead.contains(m));
        self.rejoined.retain(|m| !dead.contains(m));
        self.lead = match self.alive.iter().position(|&m| m == leader) {
            Some(lead) => lead,
            None => elect(self.alive.len(), opts)?.0,
        };
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
    /// The coordinator instance's [`Claim::stats`].
    stats: Option<KnnStats>,
    /// The query's coordinator, by original machine id.
    coordinator: MachineId,
    /// Round in which the query completed (max over machines).
    done_round: u64,
}

/// How one protocol instance is wired into a (possibly degraded) run:
/// positions in the run's surviving subset.
///
/// `coordinator` leads the instance's query: for the query at tag `j` of a
/// run, `alive[(leader + j) mod |alive|]` — the leader's position rotated
/// by the tag. Every machine derives it from what it already knows (the
/// leader, the tag, the surviving set), so spreading a batch's
/// coordinators costs no message, and its gathers arrive over every
/// machine's inbound links instead of queuing on the leader's `k − 1`. Tag
/// 0, and so every single query, is the leader's.
#[derive(Clone, Copy)]
struct Wiring {
    id: usize,
    k: usize,
    coordinator: MachineId,
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
    /// query over its links ([`MuxProtocol`]), the query at tag `j`
    /// coordinated by the leader's run position rotated by `j` ([`Wiring`]).
    /// `false`: one query, one untagged instance per machine, coordinated
    /// by the leader — the paper's per-query accounting.
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
    /// Answer `queries` queries under the elected `leader`, which each
    /// run's queries are coordinated around ([`Wiring`]), `top(machine, j)`
    /// being shard `machine`'s candidates for query `j` (sorted by
    /// `(distance, id)`, at most ℓ). `scan_sizes`: every shard's length when
    /// `top` is a full scan, so the stage knows its least cost up front.
    ///
    /// One loop: run an attempt over the surviving machines ([`Self::run`]),
    /// judge its answers, keep them, exclude machines, retry.
    ///
    /// **Judging**, per query: a query whose answer a crashed machine took
    /// with it (a hole; multiplexed runs only) is lost. On an exact protocol
    /// under an adversary plan every completed query is **audited before it
    /// is kept** ([`audit::audit_claims`] against the stage's honest
    /// output); one that fails is lost too, and its suspects are
    /// quarantined, so no wrong answer is kept — not even one a machine
    /// answered before it was caught lying on a later query of the same
    /// batch. The rest are kept. Nothing is kept from a run a machine was
    /// down in for a rejoin (a salvaged crash may even have completed it
    /// without that shard): the next attempt, with the machine back,
    /// answers every pending query.
    ///
    /// **Retrying.** A run that loses queries, or fails with
    /// [`EngineError::Crashed`] / [`EngineError::IntegrityViolation`] (a
    /// corrupt link is pinned on its sender; every pending query re-runs),
    /// costs the dead and the suspects their place: they are excluded, the
    /// leader is re-elected over the survivors if it was among them, and the
    /// lost queries re-run with the fault and adversary plans projected onto
    /// who is left — which drops every plan entry touching an excluded
    /// machine, so the loop terminates. Other engine errors (a lossy link
    /// exhausting its retransmits, …) are not retried. A dead machine with a
    /// [`RecoveryPlan`] entry it has not yet used is not excluded: it
    /// rejoins, keeping its place (and the lead, if it had it), and the
    /// retry waits for it: it is charged `max(rounds, rejoin round)` where a
    /// plain retry is charged the rounds the failed run burned. Every re-run
    /// counts against the [`RetryPolicy`]; [`CoreError::DeadlineExceeded`]
    /// surfaces when it is spent. When nobody would be left the loop gives
    /// up *before* charging the budget — no further run could certify
    /// anything: [`CoreError::AuditFailed`] if misbehaviour emptied the
    /// cluster, the crash itself otherwise. A zero bandwidth, or a fault or
    /// adversary plan entry for a machine outside the cluster, is refused
    /// before the first attempt as [`EngineError::InvalidPlan`].
    ///
    /// **Accounting.** Each query's [`Report`] is built when it is kept:
    /// `metrics` holds the round it completed in and its tag's messages and
    /// bits (no per-machine sends, no per-tag table), `leader` its
    /// coordinator, `attempts` / `recovered` the engine run that answered
    /// it; `degraded` and `shards_used` are the batch's final ones; `wall`,
    /// `election_metrics`, `faults`, `recovery` and `audit`, which the batch
    /// pays once, stay empty. The batch's report is the final run's, with
    /// `attempts`, `recovered`, `recovery.rejoined` and `audit` totalled over
    /// the loop. Unmultiplexed, that finished report is the one query's
    /// own — the paper's per-query account — which [`Self::serve_one`]
    /// puts on its outcome.
    pub(crate) fn serve(
        &self,
        leader: MachineId,
        queries: usize,
        scan_sizes: Option<&[usize]>,
        top: impl Fn(MachineId, usize) -> Vec<DistKey> + Sync,
    ) -> Result<(Vec<QueryOutcome>, Report), CoreError> {
        let (k, ell, opts) = (self.k, self.ell, self.opts);
        debug_assert!(self.mux || queries == 1, "an unmultiplexed run answers one query");
        if queries == 0 {
            return Ok((Vec::new(), Report::healthy(RunMetrics::new(k), k, leader)));
        }
        // Every attempt runs a projection of the plans, which silently drops
        // an entry for a machine outside the cluster: check them whole, once.
        opts.fault_free_config(k)
            .with_faults(opts.faults.clone())
            .with_adversary(opts.adversary.clone())
            .validate()?;
        opts.recovery.validate(k, &opts.faults)?;
        let mut survivors =
            Survivors { alive: (0..k).collect(), lead: leader, rejoined: Vec::new() };
        let (mut attempts, mut spent_rounds) = (1u32, 0u64);
        let mut audit = AuditMetrics::default();
        // Kept outcomes by original index, filled across runs.
        let mut done: Vec<Option<QueryOutcome>> = (0..queries).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..queries).collect();
        let mut report = loop {
            let alive = &survivors.alive;
            let run = self.run(&survivors, pending.len(), scan_sizes, |m, p| top(m, pending[p]));
            // Who leaves before the next attempt (original ids), who of them
            // misbehaved, and the simulated rounds the failed attempt burned.
            // Engine errors index the failed run's subset.
            let (mut dead, mut suspects, rounds) = match run {
                Ok(Seated { answers, report, mut truth }) => {
                    audit.digests_verified += report.audit.digests_verified;
                    let crashed: Vec<MachineId> =
                        report.faults.crashed.iter().map(|&c| alive[c]).collect();
                    // Every pending query is lost to a run a machine was down
                    // in for a rejoin (a salvaged crash may even have
                    // completed it without that shard).
                    let rejoining = crashed.iter().any(|&m| survivors.rejoins(m, &opts.recovery));
                    let (mut lost, mut suspects) = (Vec::new(), Vec::new());
                    for (p, (&j, answer)) in pending.iter().zip(answers).enumerate() {
                        let Some(answer) = answer.filter(|_| !rejoining) else {
                            lost.push(j);
                            continue;
                        };
                        if let Some(truth) = &mut truth {
                            audit.audits_run += 1;
                            // No machine is excluded, crashed or not (`Seating::run`).
                            let truth: Vec<Vec<DistKey>> =
                                truth.iter_mut().map(|row| std::mem::take(&mut row[p])).collect();
                            let verdict =
                                audit::audit_claims(&truth, &answer.local_keys, ell, opts.seed);
                            if !verdict.ok {
                                lost.push(j);
                                suspects.extend(verdict.suspects.iter().map(|&s| alive[s]));
                                continue;
                            }
                        }
                        let tag = report.metrics.tag(p as u32);
                        done[j] = Some(self.keep(answer, alive, tag, attempts));
                    }
                    if lost.is_empty() {
                        break report;
                    }
                    pending = lost;
                    (crashed, suspects, report.metrics.rounds)
                }
                Err(EngineError::Crashed { machine, round }) => {
                    (vec![alive[machine]], Vec::new(), round)
                }
                Err(EngineError::IntegrityViolation { src, round, .. }) => {
                    audit.integrity_violations += 1;
                    (Vec::new(), vec![alive[src]], round)
                }
                Err(e) => return Err(e.into()),
            };
            // A batch can name one suspect once per poisoned query.
            suspects.sort_unstable();
            suspects.dedup();
            audit.suspects_quarantined += suspects.len() as u64;
            // Crashed before a rejoin it has not made yet: back for the next
            // attempt, which waits for it.
            let back: Vec<MachineId> =
                dead.iter().copied().filter(|&m| survivors.rejoins(m, &opts.recovery)).collect();
            dead.retain(|m| !back.contains(m));
            dead.extend(&suspects);
            dead.sort_unstable();
            dead.dedup();
            if dead.len() >= alive.len() && !suspects.is_empty() {
                return Err(CoreError::AuditFailed { suspects, alive: alive.len() });
            }
            if dead.len() >= alive.len() || (dead.is_empty() && back.is_empty()) {
                // Holes without a usable survivor topology (or — impossibly —
                // without a crash, a rejoin or a suspect): surface the crash
                // instead of looping on an unanswerable plan.
                let machine = dead.first().copied().unwrap_or(0);
                return Err(EngineError::Crashed { machine, round: rounds }.into());
            }
            let wait = back.iter().map(|&m| opts.recovery.rejoin_round(m)).fold(rounds, u64::max);
            spent_rounds = spent_rounds.saturating_add(wait);
            let (max_attempts, deadline_rounds) =
                (opts.retry.max_attempts.max(1), opts.retry.deadline_rounds);
            if attempts >= max_attempts || spent_rounds > deadline_rounds {
                return Err(CoreError::DeadlineExceeded {
                    attempts,
                    spent_rounds,
                    max_attempts,
                    deadline_rounds,
                });
            }
            attempts += 1;
            survivors.rejoined.extend(back);
            survivors.exclude(&dead, opts)?;
        };
        report.recovered = attempts > 1;
        report.attempts = attempts;
        report.recovery.rejoined = survivors.rejoined;
        report.recovery.rejoined.sort_unstable();
        report.audit = audit;
        // The loop ends only once every query is kept.
        let outcomes = done
            .into_iter()
            .filter_map(|outcome| {
                let mut outcome = outcome?;
                outcome.report.degraded = report.degraded;
                outcome.report.shards_used = report.shards_used;
                Some(outcome)
            })
            .collect();
        Ok((outcomes, report))
    }

    /// [`Self::serve`] for one unmultiplexed query: its outcome, carrying
    /// the run's finished report.
    pub(crate) fn serve_one(
        &self,
        leader: MachineId,
        scan_sizes: Option<&[usize]>,
        top: impl Fn(MachineId) -> Vec<DistKey> + Sync,
    ) -> Result<QueryOutcome, CoreError> {
        let (mut outcomes, report) = self.serve(leader, 1, scan_sizes, |m, _| top(m))?;
        let mut outcome = outcomes.pop().expect("`serve` returns one outcome per query");
        outcome.report = report;
        Ok(outcome)
    }

    /// The outcome of a kept `answer`, from the engine run over `alive`
    /// numbered `attempts`, in which its tag's traffic was `tag`: its keys
    /// spread over the full shard layout, and its own report, built here
    /// once (the batch's `degraded` and `shards_used` join it when the
    /// batch ends; unmultiplexed, the run's finished report stands in for
    /// it, as [`Self::serve`] says).
    fn keep(
        &self,
        answer: Answered,
        alive: &[MachineId],
        tag: TagMetrics,
        attempts: u32,
    ) -> QueryOutcome {
        let k = self.k;
        let metrics = RunMetrics {
            rounds: answer.done_round,
            messages: tag.messages,
            bits: tag.bits,
            ..Default::default()
        };
        QueryOutcome {
            local_keys: scatter(answer.local_keys, alive, k),
            stats: answer.stats,
            report: Report {
                recovered: attempts > 1,
                attempts,
                ..Report::healthy(metrics, k, answer.coordinator)
            },
        }
    }

    /// One engine run over `survivors` for `queries` pending queries (`top`
    /// indexed by pending position): the candidate stage computes every cell
    /// once, on the rayon pool ([`candidate_stage`]), then the engine moves
    /// messages only. A machine that never runs round 0 (crash round 0 in
    /// the [`FaultPlan`], or in a [`RecoveryPlan`] entry it has not used
    /// yet) is fed nothing — the one audit-truth rule: a machine contributes
    /// nothing exactly when its instance is salvaged, and every protocol
    /// salvages a started instance only when it holds no candidates, so
    /// every machine's truth is its stage output.
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
        let faults = opts.recovery.crashes(&opts.faults, &survivors.rejoined);
        let runs = |m: MachineId| faults.crash_round(m) > 0;
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
                KnnProtocol::new(w.id, w.k, w.coordinator, ell, params, keys)
            }),
            Some(Algorithm::Simple) => self.engine_run(s, fed, |w, keys| {
                SimpleProtocol::new(w.id, w.coordinator, ell, chunk, keys)
            }),
            Some(Algorithm::SaukasSong) => self.engine_run(s, fed, |w, keys| {
                SaukasSongProtocol::new(w.id, w.k, w.coordinator, ell, keys)
            }),
            Some(Algorithm::BinSearch) => self.engine_run(s, fed, |w, keys| {
                BinSearchProtocol::new(w.id, w.k, w.coordinator, ell, keys)
            }),
            None => self.engine_run(s, fed, |w, keys| {
                KnnProtocol::new(w.id, w.k, w.coordinator, ell, params, keys).prune_only()
            }),
        }?;
        report.wall += stage;
        Ok(Seated { answers, report, truth })
    }

    /// Seat one instance per cell of `fed` (`[alive position][query]`),
    /// query `j`'s under its coordinator ([`Wiring`]), and run the engine
    /// over them.
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
        let leader = survivors.lead;
        let coordinator = |j: usize| (leader + j) % alive.len();
        let queries = fed[0].len();
        let cfg = self.opts.subset_config(alive, &survivors.rejoined);
        let build = &build;
        let seats = fed.into_iter().enumerate().map(|(id, row)| {
            row.into_iter().enumerate().map(move |(j, keys)| {
                build(Wiring { id, k: alive.len(), coordinator: coordinator(j) }, keys)
            })
        });
        let read = |j, outputs: Vec<Proto::Output>, done_round| {
            let claims: Vec<Claim> = outputs.into_iter().map(Into::into).collect();
            let coordinator = coordinator(j);
            let stats = claims[coordinator].stats;
            let local_keys = claims.into_iter().map(|claim| claim.keys).collect();
            Answered { local_keys, stats, coordinator: alive[coordinator], done_round }
        };
        if !self.mux {
            // One query: every machine's row is its one instance.
            let mut protos = Vec::with_capacity(alive.len());
            protos.extend(seats.flatten());
            let out = run_sync(&cfg, protos)?;
            let (outputs, report) = Report::from_run(out, self.k, survivors.leader());
            return Ok((vec![Some(read(0, outputs, report.metrics.rounds))], report));
        }
        let protos = seats.map(|row| MuxProtocol::new(row.collect())).collect();
        let out = run_sync(&cfg, protos)?;
        let (mut outputs, report) = Report::from_run(out, self.k, survivors.leader());
        let answers = (0..queries)
            .map(|j| {
                // A hole at the query's tag in any machine's mux output: a
                // crashed machine died holding that query's contribution.
                let outs: Option<Vec<_>> =
                    outputs.iter_mut().map(|o| o.outputs[j].take()).collect();
                let done_round = outputs.iter().map(|o| o.done_round[j]).max().unwrap_or(0);
                outs.map(|outs| read(j, outs, done_round))
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
    let mut outcome = seating.serve_one(leader, Some(&sizes), |m| {
        brute_top(&shards[m].records, query, ell, opts.metric)
    })?;
    outcome.report.election_metrics = election_metrics;
    Ok(outcome)
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
        assert!(healthy.recovery.rejoined.is_empty());
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
        // A machine that sends different peers different claims lies from
        // its first send on: it is planned as a round-0 liar, and the audit
        // quarantines it the same way, for every algorithm.
        let sh = range_shards(&[0..100, 100..200, 200..300]);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(2, 0),
            ..Default::default()
        };
        for algo in Algorithm::ALL {
            let out = run_query(&sh, &ScalarPoint(250), 5, algo, &opts).unwrap();
            assert!(out.degraded, "{algo:?}");
            assert_eq!(out.audit.suspects_quarantined, 1, "{algo:?}");
            assert!(out.local_keys[2].is_empty(), "{algo:?}");
        }
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

//! Network configuration for a simulated k-machine cluster.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Per-link bandwidth policy.
///
/// The k-machine model allows `B` bits per link per round; the usual choice
/// is `B = Θ(log n)`. With [`BandwidthMode::Enforce`], every ordered link is
/// a store-and-forward FIFO draining at most `B` bits per round, so a machine
/// that ships `m` bits over one link pays `⌈m / B⌉` rounds. With
/// [`BandwidthMode::Unlimited`], every message is delivered in the next round
/// and bandwidth is only *accounted*, not enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BandwidthMode {
    /// Deliver everything next round; only record bit counts.
    Unlimited,
    /// At most this many bits drain per ordered link per round.
    Enforce {
        /// Link capacity in bits per round (`B` in the model).
        bits_per_round: u64,
    },
}

impl BandwidthMode {
    /// Link budget per round, or `u64::MAX` when unlimited.
    #[inline]
    pub fn budget(&self) -> u64 {
        match *self {
            BandwidthMode::Unlimited => u64::MAX,
            BandwidthMode::Enforce { bits_per_round } => bits_per_round,
        }
    }
}

/// Default bandwidth used throughout the reproduction: enough for a constant
/// number of `(value, id)` keys per round, the model's `Θ(log n)` regime.
pub const DEFAULT_BANDWIDTH_BITS: u64 = 512;

/// Deterministic fault-injection plan: which machines straggle, which
/// crash, and how lossy the links are.
///
/// Everything here is seeded and pure — two runs with the same
/// [`NetConfig`] (including the same plan) inject byte-identical faults,
/// on every engine and at every pool size. Stragglers are a pure
/// wall-clock knob (the event engine delays their scheduling; outputs and
/// metrics never change). Crashes are fail-stop: a machine with crash
/// round `r` executes rounds `< r` and is then treated as done — its
/// in-flight messages still drain, peers observe the horizon through
/// [`crate::Ctx::crashed`], and the salvage hook
/// [`crate::Protocol::on_crash`] decides whether the run can still
/// collect an output for it (otherwise the run reports
/// [`crate::EngineError::Crashed`]). Loss drops fully-transmitted
/// messages pseudo-randomly per link; each drop re-enqueues the message at
/// full size (the retransmission pays bandwidth again) until
/// `max_retries` is exhausted, at which point the run aborts with
/// [`crate::EngineError::LinkDown`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// `(machine, factor)` speed multipliers: the event engine delays the
    /// machine by `(factor − 1)` scheduling quanta per round. Factor 1 (or
    /// an absent entry) means full speed. The other machines wait for it
    /// every round (they are never more than one round ahead), so this
    /// perturbs timing — which is what the determinism tests use it for —
    /// and nothing else.
    pub stragglers: Vec<(crate::message::MachineId, u32)>,
    /// `(machine, round)` fail-stop injections: the machine executes rounds
    /// `< round` and then stops (round 0: it never runs at all).
    pub crashes: Vec<(crate::message::MachineId, u64)>,
    /// Per-message drop probability in thousandths (0 = lossless,
    /// 1000 = every message drops until the link goes down).
    pub loss_per_mille: u16,
    /// Retransmissions allowed per message before the link is declared
    /// down.
    pub max_retries: u32,
    /// Seed of the loss process, independent of [`NetConfig::seed`] so the
    /// same workload can be replayed under different fault draws.
    pub fault_seed: u64,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.stragglers.is_empty() && self.crashes.is_empty() && self.loss_per_mille == 0
    }

    /// Round at which `machine` crashes (`u64::MAX`: never).
    pub fn crash_round(&self, machine: crate::message::MachineId) -> u64 {
        self.crashes
            .iter()
            .filter(|(m, _)| *m == machine)
            .map(|&(_, r)| r)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Speed factor of `machine` (≥ 1; 1 = full speed).
    pub fn slowdown(&self, machine: crate::message::MachineId) -> u32 {
        self.stragglers.iter().find(|(m, _)| *m == machine).map_or(1, |&(_, f)| f.max(1))
    }

    /// Add a straggler entry.
    pub fn with_straggler(mut self, machine: crate::message::MachineId, factor: u32) -> Self {
        self.stragglers.push((machine, factor));
        self
    }

    /// Add a crash entry.
    pub fn with_crash(mut self, machine: crate::message::MachineId, round: u64) -> Self {
        self.crashes.push((machine, round));
        self
    }

    /// Set the loss rate and retry budget.
    ///
    /// Values above 1000 (100% loss) are kept as-is and rejected with
    /// [`EngineError::InvalidPlan`](crate::EngineError::InvalidPlan) when the
    /// plan is validated at engine entry.
    pub fn with_loss(mut self, per_mille: u16, max_retries: u32) -> Self {
        self.loss_per_mille = per_mille;
        self.max_retries = max_retries;
        self
    }

    /// Set the loss-process seed.
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Project the plan onto the surviving subset `alive` (original machine
    /// ids, ascending): entries for machines outside `alive` are dropped,
    /// the rest are remapped to the subset's indices. This is what a retry
    /// over survivors runs under — the crash that killed the excluded
    /// machine is gone, so the retry loop terminates.
    pub fn project(&self, alive: &[crate::message::MachineId]) -> FaultPlan {
        let remap = |m: crate::message::MachineId| alive.iter().position(|&a| a == m);
        FaultPlan {
            stragglers: self
                .stragglers
                .iter()
                .filter_map(|&(m, f)| remap(m).map(|i| (i, f)))
                .collect(),
            crashes: self.crashes.iter().filter_map(|&(m, r)| remap(m).map(|i| (i, r))).collect(),
            loss_per_mille: self.loss_per_mille,
            max_retries: self.max_retries,
            fault_seed: self.fault_seed,
        }
    }
}

/// Deterministic Byzantine-fault plan: which machines *lie*, which links
/// corrupt payloads in flight, and which machines equivocate.
///
/// Everything here is seeded and pure, mirroring [`FaultPlan`]: two runs
/// with the same plan inject byte-identical wrong-answer faults on every
/// engine and at every pool size. The three fault families are
///
/// * **Lies** — `(machine, round)`: from `round` on, the machine perturbs
///   the candidate distances/ids it announces (a lie scheduled for round 0
///   also poisons the machine's materialized input, so its *output claims*
///   are wrong too — the case the query-layer audit can blame soundly).
///   Wire-level perturbation goes through [`crate::Payload::tamper`].
/// * **Link corruption** — `(src, dst, per_mille)`: fully-transmitted
///   messages on the ordered link `src → dst` are bit-flipped in flight
///   with the given probability. The decision is a pure splitmix64 roll
///   (same scheme as [`FaultPlan`] loss), so both engines corrupt the
///   *same* messages; the flip lands on the link-layer integrity digest
///   and is caught at delivery as
///   [`crate::EngineError::IntegrityViolation`].
/// * **Equivocation** — the machine's lies additionally vary *per
///   destination*: different peers receive different fabrications.
///
/// Lying machines compute valid digests over their lies — integrity
/// checking cannot catch them. Detecting them is the job of the semantic
/// audit in the query layer (`knn-core`), which recomputes claims against
/// the shard-local oracles and quarantines suspects.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdversaryPlan {
    /// `(machine, round)` lying injections: the machine perturbs what it
    /// announces from `round` on (round 0: its materialized input too).
    pub lies: Vec<(crate::message::MachineId, u64)>,
    /// `(src, dst, per_mille)` in-flight corruption rates per ordered link
    /// (0 = clean, 1000 = every message corrupted).
    pub corrupt_links: Vec<(crate::message::MachineId, crate::message::MachineId, u16)>,
    /// Machines whose lies vary per destination.
    pub equivocators: Vec<crate::message::MachineId>,
    /// Seed of the lie/corruption processes, independent of
    /// [`NetConfig::seed`] so the same workload replays under different
    /// adversary draws.
    pub adversary_seed: u64,
}

impl AdversaryPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.lies.is_empty() && self.corrupt_links.is_empty() && self.equivocators.is_empty()
    }

    /// Round from which `machine` lies (`u64::MAX`: honest forever).
    pub fn lie_round(&self, machine: crate::message::MachineId) -> u64 {
        self.lies.iter().filter(|(m, _)| *m == machine).map(|&(_, r)| r).min().unwrap_or(u64::MAX)
    }

    /// Whether `machine` equivocates (per-destination lies).
    pub fn equivocates(&self, machine: crate::message::MachineId) -> bool {
        self.equivocators.contains(&machine)
    }

    /// Corruption rate of the ordered link `src → dst` in thousandths.
    pub fn corrupt_per_mille(
        &self,
        src: crate::message::MachineId,
        dst: crate::message::MachineId,
    ) -> u16 {
        self.corrupt_links
            .iter()
            .filter(|&&(s, d, _)| s == src && d == dst)
            .map(|&(_, _, p)| p)
            .max()
            .unwrap_or(0)
    }

    /// Add a lying machine (perturbs announced candidates from `round` on).
    pub fn with_lie(mut self, machine: crate::message::MachineId, round: u64) -> Self {
        self.lies.push((machine, round));
        self
    }

    /// Add an in-flight corruption rate for the ordered link `src → dst`.
    ///
    /// Values above 1000 (100% corruption) are kept as-is and rejected with
    /// [`EngineError::InvalidPlan`](crate::EngineError::InvalidPlan) when
    /// the plan is validated at engine entry.
    pub fn with_corrupt_link(
        mut self,
        src: crate::message::MachineId,
        dst: crate::message::MachineId,
        per_mille: u16,
    ) -> Self {
        self.corrupt_links.push((src, dst, per_mille));
        self
    }

    /// Mark `machine` as an equivocator (its lies vary per destination).
    pub fn with_equivocate(mut self, machine: crate::message::MachineId) -> Self {
        self.equivocators.push(machine);
        self
    }

    /// Set the adversary seed.
    pub fn with_adversary_seed(mut self, seed: u64) -> Self {
        self.adversary_seed = seed;
        self
    }

    /// Project the plan onto the surviving subset `alive` (original machine
    /// ids, ascending), mirroring [`FaultPlan::project`]: entries touching
    /// machines outside `alive` are dropped, the rest are remapped to the
    /// subset's indices. A corrupt-link entry is dropped when *either*
    /// endpoint was quarantined — this is what makes quarantine-and-retry
    /// terminate.
    pub fn project(&self, alive: &[crate::message::MachineId]) -> AdversaryPlan {
        let remap = |m: crate::message::MachineId| alive.iter().position(|&a| a == m);
        AdversaryPlan {
            lies: self.lies.iter().filter_map(|&(m, r)| remap(m).map(|i| (i, r))).collect(),
            corrupt_links: self
                .corrupt_links
                .iter()
                .filter_map(|&(s, d, p)| Some((remap(s)?, remap(d)?, p)))
                .collect(),
            equivocators: self.equivocators.iter().filter_map(|&m| remap(m)).collect(),
            adversary_seed: self.adversary_seed,
        }
    }
}

/// Default number of rounds of per-link transports a rejoining machine's
/// replay window may span (see [`RecoveryPlan::retention`]).
pub const DEFAULT_RETENTION_ROUNDS: u64 = 64;

/// Deterministic crash-*recovery* plan: which machines crash and later
/// rejoin, how often they checkpoint, and how many rounds of delivered
/// transports are retained for replay.
///
/// A rejoin entry `(machine, crash_round, rejoin_round)` is the recoverable
/// counterpart of a [`FaultPlan`] crash: the machine goes dark at
/// `crash_round` (it executes rounds `< crash_round`, sends nothing during
/// the outage, and its inbound traffic is retained), then at `rejoin_round`
/// it is restored from its last [`crate::Protocol::checkpoint`] and replays
/// the retained rounds — emitting only the sends the fault-free execution
/// would have produced during the outage — before executing normally again.
/// Peers never observe the machine through [`crate::Ctx::crashed`] (the
/// outage is a pause, not a fail-stop); they observe the rejoin through
/// [`crate::Ctx::rejoined`] one round after `rejoin_round`. A machine
/// listed here must **not** also appear in [`FaultPlan::crashes`] — the
/// engines reject such plans with [`crate::EngineError::InvalidPlan`].
///
/// Everything is seeded and pure: the same plan realizes byte-identical
/// recoveries (and [`crate::metrics::RecoveryMetrics`]) on every engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPlan {
    /// `(machine, crash_round, rejoin_round)` entries, one per recovering
    /// machine. `rejoin_round` must be strictly greater than `crash_round`.
    pub rejoins: Vec<(crate::message::MachineId, u64, u64)>,
    /// Checkpoint cadence in rounds for machines in the plan: a checkpoint
    /// is attempted at the top of every round `r` with
    /// `r % checkpoint_interval == 0`, up to and including the crash round.
    /// Clamped to ≥ 1 by [`RecoveryPlan::with_checkpoint_interval`].
    pub checkpoint_interval: u64,
    /// Maximum number of rounds the replay window (last checkpoint →
    /// rejoin) may span; the per-round inbox copies retained for replay are
    /// bounded by this. A rejoin whose window exceeds it fails with
    /// [`crate::EngineError::CheckpointTooOld`].
    pub retention: u64,
}

impl Default for RecoveryPlan {
    fn default() -> Self {
        RecoveryPlan {
            rejoins: Vec::new(),
            checkpoint_interval: 1,
            retention: DEFAULT_RETENTION_ROUNDS,
        }
    }
}

impl RecoveryPlan {
    /// True when no machine is scheduled to rejoin.
    pub fn is_empty(&self) -> bool {
        self.rejoins.is_empty()
    }

    /// Round at which `machine` rejoins (`u64::MAX`: never scheduled).
    pub fn rejoin_round(&self, machine: crate::message::MachineId) -> u64 {
        self.rejoins
            .iter()
            .filter(|(m, _, _)| *m == machine)
            .map(|&(_, _, j)| j)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Add a crash-then-rejoin entry for `machine`.
    pub fn with_rejoin(
        mut self,
        machine: crate::message::MachineId,
        crash_round: u64,
        rejoin_round: u64,
    ) -> Self {
        self.rejoins.push((machine, crash_round, rejoin_round));
        self
    }

    /// Set the checkpoint cadence (clamped to ≥ 1).
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval.max(1);
        self
    }

    /// Set the replay retention window (clamped to ≥ 1).
    pub fn with_retention(mut self, rounds: u64) -> Self {
        self.retention = rounds.max(1);
        self
    }

    /// Project the plan onto the surviving subset `alive` (original machine
    /// ids, ascending), mirroring [`FaultPlan::project`]: entries for
    /// machines outside `alive` are dropped, the rest are remapped to the
    /// subset's indices.
    pub fn project(&self, alive: &[crate::message::MachineId]) -> RecoveryPlan {
        let remap = |m: crate::message::MachineId| alive.iter().position(|&a| a == m);
        RecoveryPlan {
            rejoins: self
                .rejoins
                .iter()
                .filter_map(|&(m, c, j)| remap(m).map(|i| (i, c, j)))
                .collect(),
            checkpoint_interval: self.checkpoint_interval,
            retention: self.retention,
        }
    }
}

/// Configuration of a simulated cluster run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetConfig {
    /// Number of machines (`k ≥ 2` in the model; we also allow 1 for tests).
    pub k: usize,
    /// Link bandwidth policy.
    pub bandwidth: BandwidthMode,
    /// Master seed; per-machine RNG streams are derived deterministically.
    pub seed: u64,
    /// Abort the run with [`crate::EngineError::MaxRounds`] past this round.
    pub max_rounds: u64,
    /// Synthetic per-round network latency (models cluster RTT), paid once
    /// per round on every engine: the sync engine sleeps it after each
    /// round's transport; the event engine holds each machine back that
    /// long after its own transport, so machines sharing a worker overlap
    /// their waits.
    pub round_latency: Duration,
    /// Worker threads of the event engine's scheduler (`None`: the ambient
    /// rayon pool size, so `RAYON_NUM_THREADS` and `ThreadPool::install`
    /// govern it like every other parallel path). A pure wall-clock knob:
    /// outputs and metrics are identical at every value.
    pub event_workers: Option<usize>,
    /// Deterministic fault injection (default: no faults). See
    /// [`FaultPlan`].
    pub faults: FaultPlan,
    /// Deterministic crash-recovery plan (default: nobody rejoins). See
    /// [`RecoveryPlan`].
    #[serde(default)]
    pub recovery: RecoveryPlan,
    /// Deterministic Byzantine-fault plan (default: everyone honest). See
    /// [`AdversaryPlan`].
    #[serde(default)]
    pub adversary: AdversaryPlan,
}

impl NetConfig {
    /// A config with `k` machines, enforced default bandwidth, seed 0.
    pub fn new(k: usize) -> Self {
        NetConfig {
            k,
            bandwidth: BandwidthMode::Enforce { bits_per_round: DEFAULT_BANDWIDTH_BITS },
            seed: 0,
            max_rounds: 10_000_000,
            round_latency: Duration::ZERO,
            event_workers: None,
            faults: FaultPlan::default(),
            recovery: RecoveryPlan::default(),
            adversary: AdversaryPlan::default(),
        }
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the bandwidth mode.
    pub fn with_bandwidth(mut self, bw: BandwidthMode) -> Self {
        self.bandwidth = bw;
        self
    }

    /// Set the per-round latency every engine pays.
    pub fn with_round_latency(mut self, latency: Duration) -> Self {
        self.round_latency = latency;
        self
    }

    /// Set the stall safety limit.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Pin the event engine's worker count (default: ambient rayon pool).
    pub fn with_event_workers(mut self, workers: usize) -> Self {
        self.event_workers = Some(workers.max(1));
        self
    }

    /// Set the fault-injection plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the crash-recovery plan (see [`RecoveryPlan`]).
    pub fn with_recovery(mut self, recovery: RecoveryPlan) -> Self {
        self.recovery = recovery;
        self
    }

    /// Set the Byzantine-fault plan (see [`AdversaryPlan`]).
    pub fn with_adversary(mut self, adversary: AdversaryPlan) -> Self {
        self.adversary = adversary;
        self
    }

    /// Add one lying machine to the adversary plan (see
    /// [`AdversaryPlan::with_lie`]).
    pub fn with_lie(mut self, machine: crate::message::MachineId, round: u64) -> Self {
        self.adversary = std::mem::take(&mut self.adversary).with_lie(machine, round);
        self
    }

    /// Add one in-flight corruption rate to the adversary plan (see
    /// [`AdversaryPlan::with_corrupt_link`]).
    pub fn with_corrupt_link(
        mut self,
        src: crate::message::MachineId,
        dst: crate::message::MachineId,
        per_mille: u16,
    ) -> Self {
        self.adversary = std::mem::take(&mut self.adversary).with_corrupt_link(src, dst, per_mille);
        self
    }

    /// Mark one machine as an equivocator in the adversary plan (see
    /// [`AdversaryPlan::with_equivocate`]).
    pub fn with_equivocate(mut self, machine: crate::message::MachineId) -> Self {
        self.adversary = std::mem::take(&mut self.adversary).with_equivocate(machine);
        self
    }

    /// Add one crash-then-rejoin entry to the recovery plan.
    pub fn with_rejoin(
        mut self,
        machine: crate::message::MachineId,
        crash_round: u64,
        rejoin_round: u64,
    ) -> Self {
        self.recovery =
            std::mem::take(&mut self.recovery).with_rejoin(machine, crash_round, rejoin_round);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_enforces_bandwidth() {
        let cfg = NetConfig::new(8);
        assert_eq!(cfg.k, 8);
        assert_eq!(cfg.bandwidth.budget(), DEFAULT_BANDWIDTH_BITS);
    }

    #[test]
    fn unlimited_budget_is_max() {
        assert_eq!(BandwidthMode::Unlimited.budget(), u64::MAX);
    }

    #[test]
    fn builder_chain() {
        let cfg = NetConfig::new(4)
            .with_seed(7)
            .with_bandwidth(BandwidthMode::Unlimited)
            .with_max_rounds(99)
            .with_round_latency(Duration::from_micros(50))
            .with_event_workers(3);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.bandwidth, BandwidthMode::Unlimited);
        assert_eq!(cfg.max_rounds, 99);
        assert_eq!(cfg.round_latency, Duration::from_micros(50));
        assert_eq!(cfg.event_workers, Some(3));
    }

    #[test]
    fn event_knobs_default_and_clamp() {
        let cfg = NetConfig::new(2);
        assert_eq!(cfg.event_workers, None);
        let cfg = cfg.with_event_workers(0);
        assert_eq!(cfg.event_workers, Some(1));
    }

    #[test]
    fn fault_plan_defaults_to_no_faults() {
        let cfg = NetConfig::new(3);
        assert!(cfg.faults.is_empty());
        assert_eq!(cfg.faults.crash_round(0), u64::MAX);
        assert_eq!(cfg.faults.slowdown(2), 1);
    }

    #[test]
    fn fault_plan_builders_and_lookups() {
        let plan = FaultPlan::default()
            .with_straggler(1, 8)
            .with_crash(2, 5)
            .with_loss(50, 3)
            .with_fault_seed(99);
        assert!(!plan.is_empty());
        assert_eq!(plan.slowdown(1), 8);
        assert_eq!(plan.slowdown(0), 1);
        assert_eq!(plan.crash_round(2), 5);
        assert_eq!(plan.crash_round(1), u64::MAX);
        assert_eq!(plan.loss_per_mille, 50);
        assert_eq!(plan.max_retries, 3);
        assert_eq!(plan.fault_seed, 99);
        // Multiple crash entries for one machine: the earliest wins; a
        // straggler factor of 0 is clamped to full speed.
        let plan = plan.with_crash(2, 3).with_straggler(3, 0);
        assert_eq!(plan.crash_round(2), 3);
        assert_eq!(plan.slowdown(3), 1);
        let cfg = NetConfig::new(4).with_faults(plan.clone());
        assert_eq!(cfg.faults, plan);
    }

    #[test]
    fn fault_plan_projection_drops_and_remaps() {
        let plan = FaultPlan::default()
            .with_straggler(0, 2)
            .with_straggler(3, 4)
            .with_crash(1, 7)
            .with_crash(3, 9)
            .with_loss(10, 5)
            .with_fault_seed(42);
        // Machine 1 was excluded; 0, 2, 3 survive as 0, 1, 2.
        let sub = plan.project(&[0, 2, 3]);
        assert_eq!(sub.stragglers, vec![(0, 2), (2, 4)]);
        assert_eq!(sub.crashes, vec![(2, 9)]);
        assert_eq!(sub.loss_per_mille, 10);
        assert_eq!(sub.max_retries, 5);
        assert_eq!(sub.fault_seed, 42);
    }

    #[test]
    fn recovery_plan_defaults_builders_and_lookups() {
        let cfg = NetConfig::new(3);
        assert!(cfg.recovery.is_empty());
        assert_eq!(cfg.recovery.checkpoint_interval, 1);
        assert_eq!(cfg.recovery.retention, DEFAULT_RETENTION_ROUNDS);
        assert_eq!(cfg.recovery.rejoin_round(1), u64::MAX);

        let plan = RecoveryPlan::default()
            .with_rejoin(1, 3, 7)
            .with_checkpoint_interval(0)
            .with_retention(0);
        assert!(!plan.is_empty());
        assert_eq!(plan.rejoin_round(1), 7);
        assert_eq!(plan.checkpoint_interval, 1, "interval clamps to >= 1");
        assert_eq!(plan.retention, 1, "retention clamps to >= 1");

        let cfg = NetConfig::new(4).with_recovery(plan.clone()).with_rejoin(2, 5, 9);
        assert_eq!(cfg.recovery.rejoins, vec![(1, 3, 7), (2, 5, 9)]);
        assert_eq!(cfg.recovery.checkpoint_interval, plan.checkpoint_interval);
    }

    #[test]
    fn recovery_plan_projection_drops_and_remaps() {
        let plan = RecoveryPlan::default().with_rejoin(1, 3, 7).with_rejoin(3, 2, 5);
        // Machine 1 was excluded; 0, 2, 3 survive as 0, 1, 2.
        let sub = plan.project(&[0, 2, 3]);
        assert_eq!(sub.rejoins, vec![(2, 2, 5)]);
        assert_eq!(sub.checkpoint_interval, plan.checkpoint_interval);
        assert_eq!(sub.retention, plan.retention);
    }

    #[test]
    fn adversary_plan_defaults_builders_and_lookups() {
        let cfg = NetConfig::new(3);
        assert!(cfg.adversary.is_empty());
        assert_eq!(cfg.adversary.lie_round(0), u64::MAX);
        assert_eq!(cfg.adversary.corrupt_per_mille(0, 1), 0);
        assert!(!cfg.adversary.equivocates(2));

        let plan = AdversaryPlan::default()
            .with_lie(1, 4)
            .with_corrupt_link(0, 2, 75)
            .with_equivocate(2)
            .with_adversary_seed(99);
        assert!(!plan.is_empty());
        assert_eq!(plan.lie_round(1), 4);
        assert_eq!(plan.lie_round(0), u64::MAX);
        assert_eq!(plan.corrupt_per_mille(0, 2), 75);
        assert_eq!(plan.corrupt_per_mille(2, 0), 0, "corruption is per ordered link");
        assert!(plan.equivocates(2));
        assert_eq!(plan.adversary_seed, 99);
        // Multiple lie entries for one machine: the earliest wins.
        let plan = plan.with_lie(1, 2);
        assert_eq!(plan.lie_round(1), 2);
        let cfg = NetConfig::new(4).with_adversary(plan.clone());
        assert_eq!(cfg.adversary, plan);
        // NetConfig convenience builders compose onto the plan in place.
        let cfg = NetConfig::new(4).with_lie(0, 1).with_corrupt_link(1, 2, 10).with_equivocate(0);
        assert_eq!(cfg.adversary.lie_round(0), 1);
        assert_eq!(cfg.adversary.corrupt_per_mille(1, 2), 10);
        assert!(cfg.adversary.equivocates(0));
    }

    #[test]
    fn adversary_plan_projection_drops_and_remaps() {
        let plan = AdversaryPlan::default()
            .with_lie(1, 3)
            .with_lie(3, 0)
            .with_corrupt_link(0, 1, 50)
            .with_corrupt_link(0, 3, 60)
            .with_corrupt_link(3, 2, 70)
            .with_equivocate(1)
            .with_equivocate(3)
            .with_adversary_seed(5);
        // Machine 1 was quarantined; 0, 2, 3 survive as 0, 1, 2.
        let sub = plan.project(&[0, 2, 3]);
        assert_eq!(sub.lies, vec![(2, 0)]);
        assert_eq!(sub.corrupt_links, vec![(0, 2, 60), (2, 1, 70)]);
        assert_eq!(sub.equivocators, vec![2]);
        assert_eq!(sub.adversary_seed, 5);
        // Quarantining a corrupt link's endpoint silences that link.
        let sub = plan.project(&[1, 2]);
        assert_eq!(sub.corrupt_links, Vec::<(usize, usize, u16)>::new());
    }
}

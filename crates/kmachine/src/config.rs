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

/// Deterministic fault-injection plan: which machines crash, and how lossy
/// the links are.
///
/// Everything here is seeded and pure — two runs with the same
/// [`NetConfig`] (including the same plan) inject byte-identical faults at
/// every pool size. Crashes are fail-stop: a machine with crash
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
        self.crashes.is_empty() && self.loss_per_mille == 0
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
/// with the same plan inject byte-identical wrong-answer faults at every
/// pool size. The three fault families are
///
/// * **Lies** — `(machine, round)`: from `round` on, the machine perturbs
///   the candidate distances/ids it announces (a lie scheduled for round 0
///   also poisons the machine's materialized input, so its *output claims*
///   are wrong too — the case the query-layer audit can blame soundly).
///   Wire-level perturbation goes through [`crate::Payload::tamper`].
/// * **Link corruption** — `(src, dst, per_mille)`: fully-transmitted
///   messages on the ordered link `src → dst` are bit-flipped in flight
///   with the given probability. The decision is a pure splitmix64 roll
///   (same scheme as [`FaultPlan`] loss), so every run corrupts the
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

/// Deterministic crash-*recovery* plan: which machines crash and later
/// rejoin.
///
/// A rejoin entry `(machine, crash_round, rejoin_round)` is the recoverable
/// counterpart of a [`FaultPlan`] crash. Until the machine has rejoined, the
/// entry *is* a fail-stop crash at `crash_round` ([`RecoveryPlan::crashes`]
/// folds it into the fault plan), so the engine never sees the plan. The
/// query layer heals the crash by restart: a query is a pure function of
/// seeds and shards, so once `rejoin_round` has passed the machine simply
/// takes part in the query's next run, which answers exactly what the
/// fault-free run answers. A machine listed here must **not** also appear
/// in [`FaultPlan::crashes`]; [`RecoveryPlan::validate`] rejects such plans
/// with [`crate::EngineError::InvalidPlan`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPlan {
    /// `(machine, crash_round, rejoin_round)` entries, one per recovering
    /// machine. `rejoin_round` must be strictly greater than `crash_round`.
    pub rejoins: Vec<(crate::message::MachineId, u64, u64)>,
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

    /// `faults` plus a fail-stop crash at its crash round for every machine
    /// of the plan not in `rejoined`: what a run is subject to while those
    /// machines are still down.
    pub fn crashes(&self, faults: &FaultPlan, rejoined: &[crate::message::MachineId]) -> FaultPlan {
        let mut plan = faults.clone();
        let down = self.rejoins.iter().filter(|(m, _, _)| !rejoined.contains(m));
        plan.crashes.extend(down.map(|&(m, c, _)| (m, c)));
        plan
    }

    /// Reject a plan that contradicts itself or `faults` on a `k`-machine
    /// cluster: a machine out of range, a rejoin at-or-before its crash
    /// round, duplicate entries for one machine, or a machine both
    /// fail-stopped and scheduled to rejoin.
    pub fn validate(&self, k: usize, faults: &FaultPlan) -> Result<(), crate::EngineError> {
        let invalid = |reason: String| Err(crate::EngineError::InvalidPlan { reason });
        for (i, &(m, c, j)) in self.rejoins.iter().enumerate() {
            if m >= k {
                return invalid(format!("rejoin entry for machine {m} out of range (k = {k})"));
            }
            if j <= c {
                return invalid(format!(
                    "machine {m} rejoins at round {j}, at-or-before its crash round {c}"
                ));
            }
            if self.rejoins[..i].iter().any(|&(m2, _, _)| m2 == m) {
                return invalid(format!("machine {m} has duplicate rejoin entries"));
            }
            if faults.crashes.iter().any(|&(m2, _)| m2 == m) {
                return invalid(format!(
                    "machine {m} is both fail-stopped (FaultPlan) and scheduled to rejoin \
                     (RecoveryPlan)"
                ));
            }
        }
        Ok(())
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
    /// Synthetic per-round network latency (models cluster RTT): the engine
    /// sleeps it after each round's transport.
    pub round_latency: Duration,
    /// Deterministic fault injection (default: no faults). See
    /// [`FaultPlan`].
    pub faults: FaultPlan,
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
            faults: FaultPlan::default(),
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

    /// Set the per-round latency.
    pub fn with_round_latency(mut self, latency: Duration) -> Self {
        self.round_latency = latency;
        self
    }

    /// Set the stall safety limit.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Set the fault-injection plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
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

    /// Reject a zero bandwidth and self-contradictory fault and adversary
    /// plans (an entry for a machine outside the `k`-machine cluster among
    /// them) before any protocol executes; [`run_sync`](crate::run_sync)
    /// calls this first.
    pub fn validate(&self) -> Result<(), crate::EngineError> {
        let invalid = |reason: String| Err(crate::EngineError::InvalidPlan { reason });
        let (k, faults, adversary) = (self.k, &self.faults, &self.adversary);
        if self.bandwidth.budget() == 0 {
            return invalid("bandwidth must allow at least 1 bit per round".into());
        }
        if faults.loss_per_mille > 1000 {
            return invalid(format!(
                "loss_per_mille {} exceeds 1000 (100% loss)",
                faults.loss_per_mille
            ));
        }
        for (i, &(m, r)) in faults.crashes.iter().enumerate() {
            if m >= k {
                return invalid(format!("crash entry for machine {m} out of range (k = {k})"));
            }
            if faults.crashes[..i].iter().any(|&(m2, _)| m2 == m) {
                return invalid(format!(
                    "machine {m} has duplicate crash entries (second at round {r})"
                ));
            }
        }
        for &(m, _) in &adversary.lies {
            if m >= k {
                return invalid(format!("lie entry for machine {m} out of range (k = {k})"));
            }
        }
        for &m in &adversary.equivocators {
            if m >= k {
                return invalid(format!(
                    "equivocator entry for machine {m} out of range (k = {k})"
                ));
            }
        }
        for &(src, dst, p) in &adversary.corrupt_links {
            if p > 1000 {
                return invalid(format!(
                    "corrupt link {src} -> {dst}: per_mille {p} exceeds 1000 (100% corruption)"
                ));
            }
            if src >= k || dst >= k || src == dst {
                return invalid(format!(
                    "corrupt link {src} -> {dst} is not an ordered link of a {k}-machine cluster"
                ));
            }
        }
        Ok(())
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
            .with_round_latency(Duration::from_micros(50));
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.bandwidth, BandwidthMode::Unlimited);
        assert_eq!(cfg.max_rounds, 99);
        assert_eq!(cfg.round_latency, Duration::from_micros(50));
    }

    #[test]
    fn fault_plan_defaults_to_no_faults() {
        let cfg = NetConfig::new(3);
        assert!(cfg.faults.is_empty());
        assert_eq!(cfg.faults.crash_round(0), u64::MAX);
    }

    #[test]
    fn fault_plan_builders_and_lookups() {
        let plan = FaultPlan::default().with_crash(2, 5).with_loss(50, 3).with_fault_seed(99);
        assert!(!plan.is_empty());
        assert_eq!(plan.crash_round(2), 5);
        assert_eq!(plan.crash_round(1), u64::MAX);
        assert_eq!(plan.loss_per_mille, 50);
        assert_eq!(plan.max_retries, 3);
        assert_eq!(plan.fault_seed, 99);
        // Multiple crash entries for one machine: the earliest wins.
        let plan = plan.with_crash(2, 3);
        assert_eq!(plan.crash_round(2), 3);
        let cfg = NetConfig::new(4).with_faults(plan.clone());
        assert_eq!(cfg.faults, plan);
    }

    #[test]
    fn fault_plan_projection_drops_and_remaps() {
        let plan = FaultPlan::default()
            .with_crash(1, 7)
            .with_crash(3, 9)
            .with_loss(10, 5)
            .with_fault_seed(42);
        // Machine 1 was excluded; 0, 2, 3 survive as 0, 1, 2.
        let sub = plan.project(&[0, 2, 3]);
        assert_eq!(sub.crashes, vec![(2, 9)]);
        assert_eq!(sub.loss_per_mille, 10);
        assert_eq!(sub.max_retries, 5);
        assert_eq!(sub.fault_seed, 42);
    }

    #[test]
    fn recovery_plan_defaults_builders_and_lookups() {
        assert!(RecoveryPlan::default().is_empty());
        assert_eq!(RecoveryPlan::default().rejoin_round(1), u64::MAX);
        let plan = RecoveryPlan::default().with_rejoin(1, 3, 7).with_rejoin(2, 5, 9);
        assert!(!plan.is_empty());
        assert_eq!(plan.rejoins, vec![(1, 3, 7), (2, 5, 9)]);
        assert_eq!(plan.rejoin_round(1), 7);
        assert_eq!(plan.rejoin_round(0), u64::MAX);
    }

    #[test]
    fn recovery_plan_projection_drops_and_remaps() {
        // A pending rejoin is projected as the fail-stop crash it folds into.
        let plan = RecoveryPlan::default().with_rejoin(1, 3, 7).with_rejoin(3, 2, 5);
        let faults = FaultPlan::default().with_crash(2, 4);
        // Machine 1 was excluded; 0, 2, 3 survive as 0, 1, 2.
        let sub = plan.crashes(&faults, &[]).project(&[0, 2, 3]);
        assert_eq!(sub.crashes, vec![(1, 4), (2, 2)]);
        // Once machine 3 has rejoined it is projected as a live machine.
        assert_eq!(plan.crashes(&faults, &[3]).project(&[0, 2, 3]).crashes, vec![(1, 4)]);
    }

    #[test]
    fn recovery_plan_folds_pending_rejoins_into_crashes_and_validates() {
        let plan = RecoveryPlan::default().with_rejoin(1, 3, 7).with_rejoin(2, 5, 9);

        // Until a machine has rejoined, its entry is a fail-stop crash.
        let faults = FaultPlan::default().with_crash(0, 4).with_loss(10, 5);
        let folded = plan.crashes(&faults, &[]);
        assert_eq!(folded.crashes, vec![(0, 4), (1, 3), (2, 5)]);
        assert_eq!((folded.loss_per_mille, folded.max_retries), (10, 5));
        assert_eq!(plan.crashes(&faults, &[2]).crashes, vec![(0, 4), (1, 3)]);
        assert_eq!(plan.crashes(&faults, &[1, 2]), faults);
        assert_eq!(plan.validate(3, &faults), Ok(()));

        // Every contradiction is refused with its reason.
        let none = FaultPlan::default();
        let bad = [
            (
                RecoveryPlan::default().with_rejoin(1, 5, 5),
                &none,
                3,
                "machine 1 rejoins at round 5, at-or-before its crash round 5",
            ),
            (
                RecoveryPlan::default().with_rejoin(1, 5, 3),
                &none,
                3,
                "machine 1 rejoins at round 3, at-or-before its crash round 5",
            ),
            (
                RecoveryPlan::default().with_rejoin(1, 2, 4).with_rejoin(1, 6, 8),
                &none,
                3,
                "machine 1 has duplicate rejoin entries",
            ),
            (
                RecoveryPlan::default().with_rejoin(7, 2, 4),
                &none,
                3,
                "rejoin entry for machine 7 out of range (k = 3)",
            ),
            (
                RecoveryPlan::default().with_rejoin(1, 2, 4),
                &FaultPlan::default().with_crash(1, 9),
                3,
                "machine 1 is both fail-stopped (FaultPlan) and scheduled to rejoin (RecoveryPlan)",
            ),
        ];
        for (plan, faults, k, reason) in bad {
            assert_eq!(
                plan.validate(k, faults),
                Err(crate::EngineError::InvalidPlan { reason: reason.into() })
            );
        }
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

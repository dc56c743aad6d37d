//! Execution engines: two schedulers over one machine-step core.
//!
//! The k-machine model has one execution rule — synchronous rounds over
//! bandwidth-limited links — and the private `machine` module implements it
//! once: a machine's compute step (crash horizon, protocol round, send
//! accounting), its transport step (one bandwidth budget per busy link,
//! fault and integrity detection), and outcome collection. The two public
//! entry points only decide *when* each machine takes each step, so they
//! produce identical outputs, round counts, message counts, and errors.
//! [`run_sync`] sweeps the machines sequentially, one lockstep round at a
//! time, and scales to thousands of simulated machines; [`run_event`] drops
//! the global round boundary for per-link dependency scheduling on a small
//! worker pool, so machines compute in parallel and never more than one
//! round apart. Both pay [`NetConfig::round_latency`] once per round.

mod event;
#[cfg(test)]
mod fixtures;
mod machine;
mod sync;

pub use event::run_event;
pub use sync::run_sync;

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::config::NetConfig;
use crate::error::EngineError;
use crate::frozen::SkewMetrics;
use crate::metrics::{AuditMetrics, FaultMetrics, RecoveryMetrics, RunMetrics};
use crate::protocol::Protocol;

/// Environment variable that, when set, overrides every [`Engine::run`]
/// call's engine choice — `sync`, `event`, `auto`, or the legacy `threaded`
/// (see [`Engine::Threaded`]). Used by CI to force the whole test suite
/// through one engine.
pub const ENGINE_ENV: &str = "KNN_ENGINE";

/// Below this much potential per-round work (`k × per-link budget bits`),
/// [`Engine::Auto`] keeps the sequential engine: rounds are too cheap for
/// cross-thread scheduling to pay for itself.
const AUTO_MIN_ROUND_BITS: u64 = 2048;

/// Result of a completed run.
#[derive(Debug)]
pub struct RunOutcome<T> {
    /// Per-machine outputs, indexed by machine id.
    pub outputs: Vec<T>,
    /// Exact communication accounting. Identical across engines for
    /// deterministic protocols.
    pub metrics: RunMetrics,
    /// Always zero; a name the frozen benchmark spells (see `frozen.rs`).
    pub skew: SkewMetrics,
    /// Wall-clock time of the run, [`NetConfig::round_latency`] included.
    /// Local computation overlaps only on the event engine; on the sync
    /// engine this is simulation CPU time plus the latency.
    pub wall: Duration,
    /// Realized faults of the run (crashed machines, dropped and
    /// retransmitted traffic from the [`crate::config::FaultPlan`]). Lives
    /// outside [`RunMetrics`] — the engine-equivalence contract covers it
    /// separately (same plan, same faults on every engine), and fault-free
    /// runs report it empty.
    pub faults: FaultMetrics,
    /// Realized crash-recoveries of the run (checkpoints taken, rounds
    /// replayed, machines rejoined — from the
    /// [`crate::config::RecoveryPlan`]). Lives outside [`RunMetrics`] like
    /// [`RunOutcome::faults`]: same plan, same recoveries on every engine,
    /// and recovery-free runs report it empty.
    pub recovery: RecoveryMetrics,
    /// Byzantine-audit accounting of the run (link digests verified under an
    /// armed [`crate::config::AdversaryPlan`]; the query layer above adds
    /// its semantic-audit counters on top). Lives outside [`RunMetrics`]
    /// like [`RunOutcome::faults`]: same plan, same counts on every engine,
    /// and adversary-free runs report it empty.
    pub audit: AuditMetrics,
}

/// Which engine to run a protocol on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// Deterministic sequential lockstep simulation.
    Sync,
    /// A name only, kept because `KNN_ENGINE=threaded`, serialized configs,
    /// and the frozen benchmark spell it: [`Engine::Event`] with one worker
    /// per machine.
    Threaded,
    /// Per-link dependency scheduling on a worker pool — no global barrier;
    /// machines are never more than one round apart.
    Event,
    /// Pick sync / event per run from the cluster size, the per-round
    /// payload budget, and the ambient pool size (see [`Engine::resolve`]).
    Auto,
}

impl Engine {
    /// Resolve [`Engine::Auto`] to a concrete engine for `cfg`; concrete
    /// engines resolve to themselves.
    ///
    /// The policy, in order:
    /// 1. an effective pool of one worker (`min(rayon pool, k)`) cannot
    ///    parallelize → `Sync`;
    /// 2. rounds with little potential work — fewer than
    ///    `AUTO_MIN_ROUND_BITS` of `k × per-link budget` payload bits — are
    ///    cheaper to simulate than to schedule → `Sync`;
    /// 3. otherwise → `Event`. Whether that is the faster choice is open:
    ///    on the benchmark's batch shape (`scalar_batch` vs
    ///    `scalar_batch_event`, 2 vCPUs) event at 2 workers measured ≈ 0.5×
    ///    of sync, and ROADMAP's "why does a second event worker cost
    ///    40–50 %" item decides what this rule should become.
    pub fn resolve(self, cfg: &NetConfig) -> Engine {
        match self {
            Engine::Auto => {
                let pool =
                    cfg.event_workers.unwrap_or_else(rayon::current_num_threads).min(cfg.k.max(1));
                if pool <= 1 {
                    return Engine::Sync;
                }
                let per_link = match cfg.bandwidth {
                    crate::config::BandwidthMode::Unlimited => AUTO_MIN_ROUND_BITS,
                    crate::config::BandwidthMode::Enforce { bits_per_round } => bits_per_round,
                };
                if (cfg.k as u64).saturating_mul(per_link) < AUTO_MIN_ROUND_BITS {
                    Engine::Sync
                } else {
                    Engine::Event
                }
            }
            concrete => concrete,
        }
    }

    /// Short stable name for tables, CSV output, and [`ENGINE_ENV`].
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Sync => "sync",
            Engine::Threaded => "threaded",
            Engine::Event => "event",
            Engine::Auto => "auto",
        }
    }

    /// Run `protocols` (one per machine) under `cfg`.
    ///
    /// The [`ENGINE_ENV`] environment variable, when set, overrides `self`;
    /// [`Engine::Auto`] (from either source) is resolved per run via
    /// [`Engine::resolve`].
    ///
    /// A set-but-unparseable override fails the run with
    /// [`EngineError::BadEnvOverride`] before any protocol executes.
    pub fn run<P: Protocol>(
        self,
        cfg: &NetConfig,
        protocols: Vec<P>,
    ) -> Result<RunOutcome<P::Output>, EngineError> {
        match env_engine()?.unwrap_or(self).resolve(cfg) {
            Engine::Sync => run_sync(cfg, protocols),
            Engine::Threaded => run_event(&cfg.clone().with_event_workers(cfg.k), protocols),
            Engine::Event => run_event(cfg, protocols),
            Engine::Auto => unreachable!("resolve() always returns a concrete engine"),
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sync" => Ok(Engine::Sync),
            "threaded" => Ok(Engine::Threaded),
            "event" => Ok(Engine::Event),
            "auto" => Ok(Engine::Auto),
            "" => Err("empty engine name: expected sync|threaded|event|auto".to_string()),
            other => Err(format!("unknown engine {other:?}: expected sync|threaded|event|auto")),
        }
    }
}

/// Normalization of the [`ENGINE_ENV`] override: an unset or
/// whitespace-only variable means "no override" (`Ok(None)`), and anything
/// else must parse — a forced-engine CI run with a typo must fail loudly
/// (with the variants listed), not silently fall back. The failure is a
/// typed [`EngineError::BadEnvOverride`] surfaced through
/// [`Engine::run`], never a panic: library callers embed the engine
/// in long-lived services, and a typo in a deploy environment should be an
/// error they can report, not a process abort (the bench binaries turn it
/// back into a loud exit via `unwrap`/`expect`). Pure in the raw value so
/// the policy is testable without mutating process environment; `FromStr`
/// trims and lowercases, so `" Event "` is accepted.
fn parse_env_override(raw: &str) -> Result<Option<Engine>, EngineError> {
    if raw.trim().is_empty() {
        return Ok(None);
    }
    raw.parse().map(Some).map_err(|reason| EngineError::BadEnvOverride { var: ENGINE_ENV, reason })
}

/// The [`ENGINE_ENV`] override, if set (see [`parse_env_override`]).
fn env_engine() -> Result<Option<Engine>, EngineError> {
    match std::env::var(ENGINE_ENV) {
        Ok(raw) => parse_env_override(&raw),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BandwidthMode;

    #[test]
    fn names_round_trip_through_fromstr() {
        for e in [Engine::Sync, Engine::Threaded, Engine::Event, Engine::Auto] {
            assert_eq!(e.name().parse::<Engine>().unwrap(), e);
        }
        assert_eq!(" Event ".parse::<Engine>().unwrap(), Engine::Event);
        assert_eq!("SYNC\n".parse::<Engine>().unwrap(), Engine::Sync);
        let err = "barrier".parse::<Engine>().unwrap_err();
        assert!(err.contains("sync|threaded|event|auto"), "error must list the variants: {err}");
        let err = "  ".parse::<Engine>().unwrap_err();
        assert!(err.contains("sync|threaded|event|auto"), "empty input lists variants too: {err}");
    }

    #[test]
    fn env_override_parsing_is_normalized() {
        // Unset-like values mean "no override"...
        assert_eq!(parse_env_override("").unwrap(), None);
        assert_eq!(parse_env_override("  \t").unwrap(), None);
        // ...valid values parse case/whitespace-insensitively...
        assert_eq!(parse_env_override(" Event ").unwrap(), Some(Engine::Event));
        assert_eq!(parse_env_override("SYNC\n").unwrap(), Some(Engine::Sync));
    }

    #[test]
    fn invalid_engine_env_is_a_typed_error() {
        let err = parse_env_override("barrier").unwrap_err();
        match &err {
            EngineError::BadEnvOverride { var, reason } => {
                assert_eq!(*var, ENGINE_ENV);
                assert!(reason.contains("sync|threaded|event|auto"), "{reason}");
            }
            other => panic!("expected BadEnvOverride, got {other:?}"),
        }
        assert!(err.to_string().contains("KNN_ENGINE"), "{err}");
    }

    #[test]
    fn threaded_is_a_name_for_the_event_scheduler() {
        assert_eq!("threaded".parse::<Engine>().unwrap(), Engine::Threaded);
        assert_eq!(Engine::Threaded.name(), "threaded");
        let cfg = NetConfig::new(4).with_seed(3);
        let want = run_sync(&cfg, fixtures::GossipSum::cluster(4)).unwrap();
        let got = Engine::Threaded.run(&cfg, fixtures::GossipSum::cluster(4)).unwrap();
        assert_eq!(got.outputs, want.outputs);
        assert_eq!(got.metrics, want.metrics);
    }

    #[test]
    fn concrete_engines_resolve_to_themselves() {
        let cfg = NetConfig::new(8);
        for e in [Engine::Sync, Engine::Threaded, Engine::Event] {
            assert_eq!(e.resolve(&cfg), e);
        }
    }

    #[test]
    fn auto_policy_picks_by_latency_pool_and_payload() {
        // Every engine honours latency, so it does not sway the choice.
        let latency = NetConfig::new(8).with_round_latency(Duration::from_millis(1));
        assert_eq!(Engine::Auto.resolve(&latency.clone().with_event_workers(8)), Engine::Event);
        assert_eq!(Engine::Auto.resolve(&latency.with_event_workers(1)), Engine::Sync);
        // One effective worker cannot parallelize.
        let solo = NetConfig::new(8).with_event_workers(1);
        assert_eq!(Engine::Auto.resolve(&solo), Engine::Sync);
        // Tiny rounds (k × budget below the threshold) stay sequential.
        let tiny = NetConfig::new(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 512 })
            .with_event_workers(4);
        assert_eq!(Engine::Auto.resolve(&tiny), Engine::Sync);
        // Real per-round work with a real pool goes event-driven.
        let wide = NetConfig::new(8)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 512 })
            .with_event_workers(4);
        assert_eq!(Engine::Auto.resolve(&wide), Engine::Event);
        let unlimited =
            NetConfig::new(8).with_bandwidth(BandwidthMode::Unlimited).with_event_workers(4);
        assert_eq!(Engine::Auto.resolve(&unlimited), Engine::Event);
    }
}

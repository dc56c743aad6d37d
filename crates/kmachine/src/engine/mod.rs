//! The execution engine: one lockstep scheduler over the machine-step core.
//!
//! The k-machine model has one execution rule — synchronous rounds over
//! bandwidth-limited links — and the private `machine` module implements it
//! once: a machine's compute step (crash horizon, protocol round, send
//! accounting), its transport step (one bandwidth budget per busy link,
//! fault and integrity detection), and outcome collection. [`run_sync`]
//! sweeps the machines sequentially, one round at a time, pays
//! [`crate::NetConfig::round_latency`] once per round, and scales to thousands of
//! simulated machines. Local computation is not the engine's: the query
//! layer computes every machine's candidates before the protocols are
//! seated, on the rayon pool, so a round is message passing only.

#[cfg(test)]
mod fixtures;
mod machine;
mod sync;

pub use sync::run_sync;

use std::time::Duration;

use crate::frozen::SkewMetrics;
use crate::metrics::{AuditMetrics, FaultMetrics, RunMetrics};

/// Result of a completed run.
#[derive(Debug)]
pub struct RunOutcome<T> {
    /// Per-machine outputs, indexed by machine id.
    pub outputs: Vec<T>,
    /// Exact communication accounting, a pure function of the protocols and
    /// the config.
    pub metrics: RunMetrics,
    /// Always zero; a name the frozen benchmark spells (see `frozen.rs`).
    pub skew: SkewMetrics,
    /// Wall-clock time of the run: simulation CPU time plus
    /// [`NetConfig::round_latency`] once per round.
    ///
    /// [`NetConfig::round_latency`]: crate::NetConfig::round_latency
    pub wall: Duration,
    /// Realized faults of the run (crashed machines, dropped and
    /// retransmitted traffic from the [`crate::config::FaultPlan`]). Lives
    /// outside [`RunMetrics`]; fault-free runs report it empty.
    pub faults: FaultMetrics,
    /// Byzantine-audit accounting of the run (link digests verified under an
    /// armed [`crate::config::AdversaryPlan`]; the query layer above adds
    /// its semantic-audit counters on top). Lives outside [`RunMetrics`]
    /// like [`RunOutcome::faults`]; adversary-free runs report it empty.
    pub audit: AuditMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::Engine;
    use crate::NetConfig;

    /// `Engine::Threaded` once named the event scheduler; it is now a frozen
    /// name (see `frozen.rs`) and must run exactly the lockstep loop.
    #[test]
    fn threaded_is_a_name_for_the_event_scheduler() {
        let cfg = NetConfig::new(4).with_seed(3);
        let want = run_sync(&cfg, fixtures::GossipSum::cluster(4)).unwrap();
        let got = Engine::Threaded.run(&cfg, fixtures::GossipSum::cluster(4)).unwrap();
        assert_eq!(got.outputs, want.outputs);
        assert_eq!(got.metrics, want.metrics);
        assert_eq!(got.faults, want.faults);
        assert_eq!(got.skew.max_skew, 0);
    }
}

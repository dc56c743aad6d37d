//! **Frozen names.** Everything below is what is left of two mechanisms
//! that were measured and deleted: a second, event-driven scheduler
//! (0.19–0.97× of the lockstep loop on every serving and full-scan shape it
//! was measured on) and its promise-based delivery discipline (0.95–1.01× of
//! the one rule it had). They do nothing: every name runs
//! [`run_sync`](crate::run_sync). They exist because the frozen benchmark
//! package (`ledger/`) compiles against them; nothing else in the workspace
//! may mention them, and they go in the next `[benchmark]` refresh (ROADMAP).
//!
//! One frozen name lives outside this file, on a struct that is otherwise
//! live: [`RecoveryMetrics::checkpoint_bytes`](crate::RecoveryMetrics::checkpoint_bytes)
//! is inert and always 0. Rejoins heal by re-running the query, nothing is
//! checkpointed, and the field stays only because the benchmark reads it.

use crate::config::NetConfig;
use crate::engine::{run_sync, RunOutcome};
use crate::error::EngineError;
use crate::protocol::Protocol;

/// Not read by anything in this workspace: setting `KNN_ENGINE` has no
/// effect.
pub const ENGINE_ENV: &str = "KNN_ENGINE";

/// Not read by anything in this workspace: setting `KNN_DELIVERY` has no
/// effect.
pub const DELIVERY_ENV: &str = "KNN_DELIVERY";

/// Inert: every variant runs [`run_sync`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// The lockstep loop.
    Sync,
    /// The lockstep loop.
    Event,
    /// The lockstep loop.
    Threaded,
}

impl Engine {
    /// [`run_sync`], whatever the variant.
    pub fn run<P: Protocol>(
        self,
        cfg: &NetConfig,
        protocols: Vec<P>,
    ) -> Result<RunOutcome<P::Output>, EngineError> {
        run_sync(cfg, protocols)
    }
}

/// Inert: there is one delivery discipline.
#[derive(Debug, Clone, Copy)]
pub enum DeliveryMode {
    /// The one discipline.
    Exact,
    /// Accepted and ignored.
    Relaxed,
}

/// Always `max_skew == 0`: every machine executes every round in lockstep.
#[derive(Debug, Clone, Copy)]
pub struct SkewMetrics {
    /// Always 0.
    pub max_skew: u64,
}

impl NetConfig {
    /// Inert: returns `self` unchanged.
    pub fn with_delivery(self, _delivery: DeliveryMode) -> Self {
        self
    }

    /// Inert: returns `self` unchanged.
    pub fn with_event_workers(self, _workers: usize) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leader::RandRankFlood;

    #[test]
    fn the_frozen_names_are_inert() {
        // Nothing reads either variable any more, so setting them here
        // cannot disturb the tests running beside this one.
        std::env::set_var(ENGINE_ENV, "garbage");
        std::env::set_var(DELIVERY_ENV, "garbage");
        let plain = NetConfig::new(4).with_seed(3);
        let election = || (0..4).map(|_| RandRankFlood::new()).collect();
        let want = run_sync(&plain, election()).unwrap();
        let spelled = [
            plain.clone().with_delivery(DeliveryMode::Relaxed),
            plain.clone().with_event_workers(1),
            plain.clone().with_event_workers(2),
        ];
        for engine in [Engine::Sync, Engine::Event, Engine::Threaded] {
            for cfg in std::iter::once(&plain).chain(&spelled) {
                let got = engine.run(cfg, election()).unwrap();
                assert_eq!(got.outputs, want.outputs, "{engine:?}");
                assert_eq!(got.metrics, want.metrics, "{engine:?}");
                assert_eq!(got.skew.max_skew, 0);
            }
        }
    }
}

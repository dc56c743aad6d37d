//! **Frozen names.** The four spellings below — [`DeliveryMode`],
//! [`NetConfig::with_delivery`], [`DELIVERY_ENV`] and
//! [`RunOutcome::skew`](crate::RunOutcome::skew)`.max_skew` — are all that
//! is left of a second, promise-based delivery discipline that was measured
//! (0.95–1.01× of the one rule in `engine/event.rs`) and deleted. They do
//! nothing. They exist because the frozen benchmark package (`ledger/`)
//! compiles against them; nothing else in the workspace may mention them,
//! and they go in the next `[benchmark]` refresh (ROADMAP).

use crate::config::NetConfig;

/// Not read by anything in this workspace: setting `KNN_DELIVERY` has no
/// effect on [`Engine::run`](crate::Engine::run).
pub const DELIVERY_ENV: &str = "KNN_DELIVERY";

/// Inert: the event scheduler has one delivery discipline.
#[derive(Debug, Clone, Copy)]
pub enum DeliveryMode {
    /// The one discipline (see `engine/event.rs`).
    Exact,
    /// Accepted and ignored.
    Relaxed,
}

/// Always `max_skew == 0`: machines never run more than the one round apart
/// that the readiness rule allows.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leader::RandRankFlood;
    use crate::Engine;

    #[test]
    fn the_frozen_names_are_inert() {
        // Nothing reads the variable any more, so setting it here cannot
        // disturb the tests running beside this one.
        std::env::set_var(DELIVERY_ENV, "garbage");
        let plain = NetConfig::new(4).with_seed(3).with_event_workers(2);
        let spelled = plain.clone().with_delivery(DeliveryMode::Relaxed);
        let election = || (0..4).map(|_| RandRankFlood::new()).collect();
        let want = Engine::Event.run(&plain, election()).unwrap();
        let got = Engine::Event.run(&spelled, election()).unwrap();
        assert_eq!(got.outputs, want.outputs);
        assert_eq!(got.metrics, want.metrics);
        assert_eq!(got.skew.max_skew, 0);
    }
}

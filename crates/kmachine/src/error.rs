//! Engine errors.

use std::fmt;

/// Failure modes of a simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// No machine progressed, nothing was in flight, and not everyone was
    /// done — the protocol deadlocked (it is waiting for a message that will
    /// never arrive).
    Stalled {
        /// Round at which the stall was detected.
        round: u64,
    },
    /// The run exceeded [`crate::NetConfig::max_rounds`].
    MaxRounds {
        /// The configured limit.
        limit: u64,
    },
    /// A protocol's `on_round` panicked (caught by the engine).
    WorkerPanic {
        /// Machine whose protocol panicked.
        machine: usize,
    },
    /// A machine crashed (fail-stop, injected via
    /// [`crate::config::FaultPlan`]) and the run could not complete
    /// without it: either the protocol's [`crate::Protocol::on_crash`]
    /// salvage hook declined to produce an output for it, or surviving
    /// machines deadlocked waiting for its messages. Callers recover by
    /// retrying over the surviving machines.
    Crashed {
        /// The crashed machine (lowest id when several crashed).
        machine: usize,
        /// The round it was scheduled to crash at (its first unexecuted
        /// round).
        round: u64,
    },
    /// A lossy link dropped one message more than
    /// [`crate::config::FaultPlan::max_retries`] times; the link is
    /// declared down and the run aborts instead of hanging on traffic that
    /// will never arrive.
    LinkDown {
        /// Sending machine of the dead link.
        src: usize,
        /// Receiving machine of the dead link.
        dst: usize,
        /// Round in which the retry budget ran out.
        round: u64,
        /// The exhausted retry budget.
        retries: u32,
    },
    /// A fault, adversary or recovery plan is self-contradictory (a loss
    /// rate above 100%, duplicate crash entries for one machine, a rejoin
    /// scheduled at-or-before its crash round, a machine both fail-stopped
    /// and scheduled to rejoin, …). Rejected before any protocol executes:
    /// fault and adversary plans at engine entry, a recovery plan by
    /// [`crate::config::RecoveryPlan::validate`] before a query's first run.
    InvalidPlan {
        /// Human-readable description of the contradiction.
        reason: String,
    },
    /// A message arrived whose chained link-layer integrity digest did not
    /// match the receiver's chain: the payload was corrupted in flight
    /// (injected via [`crate::config::AdversaryPlan::corrupt_links`]).
    /// The run aborts at the first mismatch instead of delivering poisoned
    /// data; callers recover by quarantining the sending machine and
    /// retrying over the survivors.
    IntegrityViolation {
        /// Sending machine of the corrupted link.
        src: usize,
        /// Receiving machine of the corrupted link.
        dst: usize,
        /// Round in which the mismatch was detected at delivery.
        round: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Stalled { round } => {
                write!(
                    f,
                    "protocol stalled at round {round}: no progress and no messages in flight"
                )
            }
            EngineError::MaxRounds { limit } => {
                write!(f, "exceeded the configured round limit ({limit})")
            }
            EngineError::WorkerPanic { machine } => {
                write!(f, "worker thread for machine {machine} panicked")
            }
            EngineError::Crashed { machine, round } => {
                write!(f, "machine {machine} crashed at round {round} and the run cannot complete without it")
            }
            EngineError::LinkDown { src, dst, round, retries } => {
                write!(
                    f,
                    "link {src} -> {dst} went down at round {round} after exhausting {retries} \
                     retransmissions"
                )
            }
            EngineError::InvalidPlan { reason } => {
                write!(f, "invalid fault/recovery plan: {reason}")
            }
            EngineError::IntegrityViolation { src, dst, round } => {
                write!(
                    f,
                    "integrity violation on link {src} -> {dst}: digest mismatch detected at \
                     delivery in round {round}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let s = EngineError::Stalled { round: 5 }.to_string();
        assert!(s.contains("round 5"));
        let s = EngineError::MaxRounds { limit: 10 }.to_string();
        assert!(s.contains("10"));
        let s = EngineError::WorkerPanic { machine: 3 }.to_string();
        assert!(s.contains("3"));
        let s = EngineError::Crashed { machine: 1, round: 4 }.to_string();
        assert!(s.contains("machine 1") && s.contains("round 4"));
        let s = EngineError::LinkDown { src: 0, dst: 2, round: 9, retries: 3 }.to_string();
        assert!(s.contains("0 -> 2") && s.contains("round 9") && s.contains("3"));
        let s = EngineError::InvalidPlan { reason: "duplicate crash".into() }.to_string();
        assert!(s.contains("duplicate crash"));
        let s = EngineError::IntegrityViolation { src: 1, dst: 3, round: 6 }.to_string();
        assert!(s.contains("1 -> 3") && s.contains("round 6"));
    }
}

//! Error type of the distributed k-NN layer.

use std::fmt;

use kmachine::EngineError;
use knn_points::PointId;

/// Failures surfaced by the runner and the cluster facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The underlying simulation failed (stall, round limit, panic).
    Engine(EngineError),
    /// The cluster has zero machines.
    EmptyCluster,
    /// `load_shards` was given the wrong number of shards.
    ShardCount {
        /// Machines in the cluster.
        expected: usize,
        /// Shards provided.
        got: usize,
    },
    /// A query was issued before any data was loaded.
    NotLoaded,
    /// Fault-aware retries ran out of budget: the
    /// [`RetryPolicy`](crate::runner::RetryPolicy) exhausted its attempt
    /// count or its simulated-round deadline before a run succeeded.
    DeadlineExceeded {
        /// Engine runs attempted (the first included).
        attempts: u32,
        /// Simulated rounds consumed by failed runs and backoff waits.
        spent_rounds: u64,
        /// The policy's attempt ceiling.
        max_attempts: u32,
        /// The policy's round budget.
        deadline_rounds: u64,
    },
    /// The Byzantine audit could not isolate an honest majority to answer
    /// from: quarantining every suspect would leave no machine standing
    /// (every machine's claims failed the audit, or suspects kept failing
    /// until the cluster emptied). Surfaced instead of returning an answer
    /// the audit could not certify.
    AuditFailed {
        /// Machines the final audit flagged as suspects.
        suspects: Vec<usize>,
        /// Machines still alive when the audit gave up.
        alive: usize,
    },
    /// An insert carried an id already present on some shard. Ids are the
    /// identity the protocols and the audit reason about; silently
    /// double-indexing one would corrupt both.
    DuplicateId {
        /// The offending id.
        id: PointId,
    },
    /// An insert targeted a machine the cluster does not have.
    NoSuchMachine {
        /// The requested machine.
        machine: usize,
        /// Machines in the cluster.
        machines: usize,
    },
    /// An insert or a query carried a point whose
    /// [`Point::shape`](knn_points::Point::shape) (dimensionality,
    /// bit-string length) differs from the data already loaded; no distance
    /// between them is defined.
    ShapeMismatch {
        /// Shape of the points the cluster holds.
        expected: usize,
        /// Shape of the rejected point.
        got: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Engine(e) => write!(f, "simulation failed: {e}"),
            CoreError::EmptyCluster => write!(f, "cluster has no machines"),
            CoreError::ShardCount { expected, got } => {
                write!(f, "expected {expected} shards, got {got}")
            }
            CoreError::NotLoaded => write!(f, "no data loaded into the cluster"),
            CoreError::DeadlineExceeded {
                attempts,
                spent_rounds,
                max_attempts,
                deadline_rounds,
            } => {
                write!(
                    f,
                    "retry budget exhausted after {attempts} attempts / {spent_rounds} simulated \
                     rounds (policy: {max_attempts} attempts, {deadline_rounds} rounds)"
                )
            }
            CoreError::AuditFailed { suspects, alive } => {
                write!(
                    f,
                    "audit cannot certify an answer: {} of {alive} alive machines are suspects \
                     ({suspects:?})",
                    suspects.len()
                )
            }
            CoreError::DuplicateId { id } => {
                write!(f, "insert rejected: id {id:?} is already loaded")
            }
            CoreError::NoSuchMachine { machine, machines } => {
                write!(f, "insert rejected: machine {machine} of a {machines}-machine cluster")
            }
            CoreError::ShapeMismatch { expected, got } => {
                write!(f, "point of shape {got} rejected: the data has shape {expected}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: CoreError = EngineError::Stalled { round: 3 }.into();
        assert!(e.to_string().contains("round 3"));
        assert!(CoreError::EmptyCluster.to_string().contains("no machines"));
        assert!(CoreError::ShardCount { expected: 4, got: 2 }.to_string().contains("4"));
        assert!(CoreError::NotLoaded.to_string().contains("loaded"));
    }

    #[test]
    fn deadline_exceeded_reports_budget_and_spend() {
        let e = CoreError::DeadlineExceeded {
            attempts: 3,
            spent_rounds: 42,
            max_attempts: 3,
            deadline_rounds: 40,
        };
        let s = e.to_string();
        assert!(s.contains("3 attempts"), "{s}");
        assert!(s.contains("42"), "{s}");
        assert!(s.contains("40 rounds"), "{s}");
    }

    #[test]
    fn insert_errors_report_the_offender() {
        let s = CoreError::DuplicateId { id: PointId(7) }.to_string();
        assert!(s.contains("already loaded"), "{s}");
        let s = CoreError::NoSuchMachine { machine: 9, machines: 4 }.to_string();
        assert!(s.contains("machine 9"), "{s}");
        assert!(s.contains("4-machine"), "{s}");
        let s = CoreError::ShapeMismatch { expected: 3, got: 2 }.to_string();
        assert!(s.contains("shape 2") && s.contains("shape 3"), "{s}");
    }

    #[test]
    fn audit_failed_reports_suspects_and_survivors() {
        let e = CoreError::AuditFailed { suspects: vec![0, 2], alive: 2 };
        let s = e.to_string();
        assert!(s.contains("2 of 2"), "{s}");
        assert!(s.contains("[0, 2]"), "{s}");
    }
}

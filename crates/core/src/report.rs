//! The one cost-and-health report every answer carries.
//!
//! A query, an approximate query and a batch all end the same way: some
//! payload (keys, neighbors, per-query outcomes) plus the same account of
//! what producing it cost and what went wrong on the way. [`Report`] is that
//! account, declared once; the result structs embed it as `report` and
//! `Deref` to it, so `answer.metrics`, `outcome.degraded`, … read straight
//! through.

use std::ops::Deref;
use std::time::Duration;

use kmachine::{AuditMetrics, FaultMetrics, MachineId, RecoveryMetrics, RunMetrics, RunOutcome};

/// Costs, leadership and fault / recovery / audit accounting of one answer.
///
/// Embedded in [`QueryOutcome`](crate::runner::QueryOutcome),
/// [`BatchOutcome`](crate::session::BatchOutcome),
/// [`KnnAnswer`](crate::cluster::KnnAnswer) and
/// [`BatchAnswer`](crate::cluster::BatchAnswer). For a batch it describes the
/// batch as a whole; the per-query [`KnnAnswer`](crate::cluster::KnnAnswer)s
/// inside a batch carry only what is attributable to one query (see
/// [`BatchAnswer`](crate::cluster::BatchAnswer)).
///
/// The approximate paths go through the same recovery loop as the exact
/// ones (a crash or a corrupt link costs the machine its place and the query
/// re-runs) but are never semantically audited: `audit.audits_run` stays 0.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Report {
    /// Rounds / messages / bits of the main protocol — the engine run that
    /// produced the answer. For a batch: the aggregate of its one run
    /// (`per_tag` splits messages/bits by query).
    pub metrics: RunMetrics,
    /// Wall-clock time of the attempt that produced the answer: its
    /// candidate stage ([`crate::local::candidate_stage`] — every machine's
    /// local computation, on the rayon pool) plus its engine run (synthetic
    /// round latency included). Earlier, failed attempts are not in it.
    pub wall: Duration,
    /// The leader that coordinated the answer. Normally the elected (for a
    /// batch: the session's) leader; differs when that machine crashed or
    /// was quarantined and the survivors re-elected.
    pub leader: MachineId,
    /// Election cost (`None` under
    /// [`ElectionKind::Fixed`](crate::runner::ElectionKind::Fixed)). A
    /// session elects once: every batch reports the same cost, it is *not*
    /// re-paid per batch.
    pub election_metrics: Option<RunMetrics>,
    /// Realized faults of the final engine run. Retries run over
    /// progressively smaller clusters; this records the run that produced
    /// the answer.
    pub faults: FaultMetrics,
    /// The machines of the [`QueryOptions::recovery`] plan that crashed
    /// and then served the answering run (`rejoined`). `checkpoint_bytes`
    /// is always 0.
    ///
    /// [`QueryOptions::recovery`]: crate::runner::QueryOptions::recovery
    pub recovery: RecoveryMetrics,
    /// Byzantine-audit accounting summed over the whole
    /// quarantine-and-retry loop: digests verified by every engine run,
    /// integrity violations caught, semantic audits executed, suspects
    /// quarantined. Empty without an [`kmachine::AdversaryPlan`]; identical
    /// at every pool size.
    pub audit: AuditMetrics,
    /// True when the answer may be missing candidates: one or more shards
    /// crashed or were quarantined (salvaged in-run or excluded by a retry)
    /// and the selection ran over the survivors.
    pub degraded: bool,
    /// Shards whose candidates actually reached the selection (`== k` on a
    /// healthy run).
    pub shards_used: usize,
    /// `attempts > 1`: the answer needed a retry over the survivors, a
    /// re-planned subset of lost queries, or a re-run after a rejoin.
    pub recovered: bool,
    /// Engine runs the answer took (1 on a healthy run). Re-planning a
    /// batch after a partial loss, or re-running it once a crashed machine
    /// has rejoined, counts like a full retry.
    pub attempts: u32,
}

impl Report {
    /// A healthy answer that cost `metrics` on a `k`-machine cluster led by
    /// `leader`: one attempt, every shard used, nothing to report.
    pub(crate) fn healthy(metrics: RunMetrics, k: usize, leader: MachineId) -> Report {
        Report {
            metrics,
            wall: Duration::ZERO,
            leader,
            election_metrics: None,
            faults: FaultMetrics::default(),
            recovery: RecoveryMetrics::default(),
            audit: AuditMetrics::default(),
            degraded: false,
            shards_used: k,
            recovered: false,
            attempts: 1,
        }
    }

    /// Split one engine run over `out.outputs.len()` of a cluster's `k`
    /// machines into its outputs and its report.
    pub(crate) fn from_run<T>(out: RunOutcome<T>, k: usize, leader: MachineId) -> (Vec<T>, Report) {
        let RunOutcome { outputs, metrics, wall, faults, audit, .. } = out;
        let shards_used = outputs.len() - faults.crashed.len();
        let report = Report {
            wall,
            degraded: shards_used < k,
            shards_used,
            faults,
            audit,
            ..Report::healthy(metrics, k, leader)
        };
        (outputs, report)
    }
}

macro_rules! deref_to_report {
    ($($outcome:ty),*) => {$(
        impl Deref for $outcome {
            type Target = Report;
            fn deref(&self) -> &Report {
                &self.report
            }
        }
    )*};
}

deref_to_report!(
    crate::runner::QueryOutcome,
    crate::session::BatchOutcome,
    crate::cluster::KnnAnswer,
    crate::cluster::BatchAnswer
);

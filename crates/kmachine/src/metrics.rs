//! Run accounting: rounds, messages, bits.

use serde::{Deserialize, Serialize};

/// Communication totals attributed to one multiplexing tag (one protocol
/// instance inside a [`crate::mux::MuxProtocol`] run).
///
/// Rounds are a property of the whole run, not of a single instance — the
/// instances share every link — so per-tag accounting covers messages and
/// bits; per-instance completion rounds are reported by
/// [`crate::mux::MuxOutput::done_round`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TagMetrics {
    /// Messages sent carrying this tag.
    pub messages: u64,
    /// Payload bits sent carrying this tag (tag framing included).
    pub bits: u64,
}

/// Realized-fault accounting of one run under a
/// [`crate::config::FaultPlan`].
///
/// Carried on [`crate::RunOutcome::faults`], *not* inside [`RunMetrics`]:
/// retransmission traffic is fault-layer bookkeeping, not protocol cost — the protocol's bill stays identical whether or not
/// the network dropped and re-sent under it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultMetrics {
    /// Machines that executed their scheduled crash during this run,
    /// ascending. Empty in a fault-free (or crash-free) run.
    pub crashed: Vec<usize>,
    /// Messages dropped by lossy links (each drop triggers a
    /// retransmission until the retry budget runs out).
    pub dropped_messages: u64,
    /// Bits re-transmitted after drops (charged to the fault layer, not to
    /// [`RunMetrics::bits`]).
    pub retransmitted_bits: u64,
}

impl FaultMetrics {
    /// True when the run realized at least one injected fault (a crash or
    /// a dropped message).
    pub fn any(&self) -> bool {
        !self.crashed.is_empty() || self.dropped_messages > 0
    }
}

/// What healing a query's [`crate::config::RecoveryPlan`] took.
///
/// Filled by the query layer (`knn-core`), which heals a scheduled rejoin by
/// re-running the query with the machine back; the engine never reads a
/// recovery plan. Deterministic like the plan itself: the same plan yields
/// the same `RecoveryMetrics` on every run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryMetrics {
    /// Always 0: nothing is checkpointed. A name the frozen benchmark
    /// spells (see `frozen.rs`).
    pub checkpoint_bytes: u64,
    /// Machines that crashed before their scheduled rejoin and served the
    /// answering run, ascending.
    pub rejoined: Vec<usize>,
}

/// Byzantine-audit accounting of one run (and, in `knn-core`, of one
/// query's quarantine-and-retry loop) under a
/// [`crate::config::AdversaryPlan`].
///
/// Carried on [`crate::RunOutcome::audit`], *not* inside [`RunMetrics`],
/// for the same reason as [`FaultMetrics`]: integrity verification and
/// semantic auditing are defense-layer bookkeeping — the protocol's
/// communication bill stays identical whether or not anyone was checking.
/// The audit realization is deterministic: the same plan yields
/// byte-identical `AuditMetrics` at every pool size.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditMetrics {
    /// Messages whose chained link digest was verified at delivery (zero
    /// when the run had no adversary plan — integrity is armed only then).
    pub digests_verified: u64,
    /// Digest mismatches caught at delivery. At the engine layer a
    /// violation aborts the run with
    /// [`crate::EngineError::IntegrityViolation`], so a single run reports
    /// at most the violations it died on; the query layer accumulates them
    /// across its quarantine retries.
    pub integrity_violations: u64,
    /// Semantic audit passes run by the query layer (leader recomputation
    /// of claimed contributions against the shard-local oracles).
    pub audits_run: u64,
    /// Machines quarantined out of the run by failed audits or integrity
    /// violations.
    pub suspects_quarantined: u64,
}

impl AuditMetrics {
    /// True when the run recorded any audit activity at all.
    pub fn any(&self) -> bool {
        self.digests_verified > 0
            || self.integrity_violations > 0
            || self.audits_run > 0
            || self.suspects_quarantined > 0
    }
}

/// Exact communication costs of one protocol run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Number of communication rounds used: the index of the last round in
    /// which any machine was still executing. A protocol that never
    /// communicates finishes in round 0 and reports `rounds == 0`.
    pub rounds: u64,
    /// Total messages handed to the network.
    pub messages: u64,
    /// Total payload bits handed to the network (each message ≥ 1 bit).
    pub bits: u64,
    /// Messages sent by each machine.
    pub sends_per_machine: Vec<u64>,
    /// Largest backlog (queued bits) observed on any single link at any
    /// round boundary. Zero when bandwidth is unlimited or never exceeded.
    pub max_link_backlog_bits: u64,
    /// Messages that arrived at a machine after it had already produced its
    /// output (they are discarded; a nonzero value is normal for protocols
    /// whose completion broadcast races with traffic still in flight).
    pub delivered_after_done: u64,
    /// Per-tag message and bit totals, indexed by multiplexing tag. Empty
    /// unless the protocol's payload reports [`crate::Payload::mux_tag`]s
    /// (i.e. the run multiplexed several instances over shared links).
    pub per_tag: Vec<TagMetrics>,
}

impl RunMetrics {
    /// New zeroed metrics for `k` machines.
    pub fn new(k: usize) -> Self {
        RunMetrics { sends_per_machine: vec![0; k], ..Default::default() }
    }

    /// Record one send; `tag` attributes it to a multiplexed instance.
    #[inline]
    pub fn on_send(&mut self, src: usize, bits: u64, tag: Option<u32>) {
        let bits = bits.max(1);
        self.messages += 1;
        self.bits += bits;
        self.sends_per_machine[src] += 1;
        if let Some(tag) = tag {
            self.on_tagged(tag, bits);
        }
    }

    /// Attribute `bits` (one message) to `tag`, growing the table on demand.
    #[inline]
    pub fn on_tagged(&mut self, tag: u32, bits: u64) {
        let idx = tag as usize;
        if idx >= self.per_tag.len() {
            self.per_tag.resize(idx + 1, TagMetrics::default());
        }
        self.per_tag[idx].messages += 1;
        self.per_tag[idx].bits += bits;
    }

    /// Totals attributed to `tag` (zeros when the tag never sent).
    #[inline]
    pub fn tag(&self, tag: u32) -> TagMetrics {
        self.per_tag.get(tag as usize).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_accounting() {
        let mut m = RunMetrics::new(3);
        m.on_send(0, 64, None);
        m.on_send(0, 0, None); // clamped
        m.on_send(2, 100, None);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bits, 64 + 1 + 100);
        assert_eq!(m.sends_per_machine, vec![2, 0, 1]);
        assert!(m.per_tag.is_empty());
    }

    #[test]
    fn tagged_sends_are_attributed() {
        let mut m = RunMetrics::new(2);
        m.on_send(0, 64, Some(2));
        m.on_send(1, 32, Some(0));
        m.on_send(1, 16, Some(2));
        m.on_send(0, 8, None);
        assert_eq!(m.messages, 4);
        assert_eq!(m.bits, 64 + 32 + 16 + 8);
        assert_eq!(m.per_tag.len(), 3);
        assert_eq!(m.tag(0), TagMetrics { messages: 1, bits: 32 });
        assert_eq!(m.tag(1), TagMetrics::default());
        assert_eq!(m.tag(2), TagMetrics { messages: 2, bits: 80 });
        assert_eq!(m.tag(9), TagMetrics::default());
        // Tagged traffic is a subset of the aggregate totals.
        let tagged_bits: u64 = m.per_tag.iter().map(|t| t.bits).sum();
        assert!(tagged_bits <= m.bits);
    }

    #[test]
    fn serializes_to_json() {
        let m = RunMetrics::new(2);
        let s = serde_json::to_string(&m).unwrap();
        assert!(s.contains("\"rounds\":0"));
    }

    #[test]
    fn fault_metrics_flag_realized_faults() {
        let mut f = FaultMetrics::default();
        assert!(!f.any());
        f.dropped_messages = 1;
        f.retransmitted_bits = 64;
        assert!(f.any());
        let f = FaultMetrics { crashed: vec![2], ..Default::default() };
        assert!(f.any());
    }

    #[test]
    fn audit_metrics_flag_realized_audits() {
        let mut a = AuditMetrics::default();
        assert!(!a.any());
        a.digests_verified = 12;
        assert!(a.any());
        let a = AuditMetrics { suspects_quarantined: 1, ..Default::default() };
        assert!(a.any());
        let s = serde_json::to_string(&a).unwrap();
        assert!(s.contains("\"suspects_quarantined\":1"));
    }
}

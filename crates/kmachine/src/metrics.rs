//! Run accounting: rounds, messages, bits.

/// Communication totals attributed to one multiplexing tag (one protocol
/// instance inside a [`crate::mux::MuxProtocol`] run).
///
/// Rounds are a property of the whole run, not of a single instance — the
/// instances share every link — so per-tag accounting covers messages and
/// bits; per-instance completion rounds are reported by
/// [`crate::mux::MuxOutput::done_round`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    /// Totals attributed to `tag` (zeros when the tag never sent).
    #[inline]
    pub fn tag(&self, tag: u32) -> TagMetrics {
        self.per_tag.get(tag as usize).copied().unwrap_or_default()
    }
}

crate::json_object!(TagMetrics { messages, bits });
crate::json_object!(FaultMetrics { crashed, dropped_messages, retransmitted_bits });
crate::json_object!(RecoveryMetrics { checkpoint_bytes, rejoined });
crate::json_object!(AuditMetrics {
    digests_verified,
    integrity_violations,
    audits_run,
    suspects_quarantined
});
crate::json_object!(RunMetrics {
    rounds,
    messages,
    bits,
    sends_per_machine,
    max_link_backlog_bits,
    delivered_after_done,
    per_tag
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::to_string_pretty;
    use crate::{run_sync, Ctx, NetConfig, Payload, Protocol, Step};

    /// A message of a scripted wire size and multiplexing tag.
    #[derive(Clone)]
    struct Wire {
        bits: u64,
        tag: Option<u32>,
    }

    impl Payload for Wire {
        fn size_bits(&self) -> u64 {
            self.bits
        }
        fn mux_tag(&self) -> Option<u32> {
            self.tag
        }
    }

    /// Sends its script to the next machine in round 0 and is done.
    struct Script(Vec<Wire>);

    impl Protocol for Script {
        type Msg = Wire;
        type Output = ();
        fn on_round(&mut self, ctx: &mut Ctx<'_, Wire>) -> Step<()> {
            let next = (ctx.id() + 1) % ctx.k();
            for wire in self.0.drain(..) {
                ctx.send(next, wire);
            }
            Step::Done(())
        }
    }

    /// The engine's bill for one run in which machine `i` sends `scripts[i]`,
    /// each message given as `(bits, tag)`.
    fn billed(scripts: &[&[(u64, Option<u32>)]]) -> RunMetrics {
        let protocols = scripts
            .iter()
            .map(|script| Script(script.iter().map(|&(bits, tag)| Wire { bits, tag }).collect()))
            .collect();
        run_sync(&NetConfig::new(scripts.len()), protocols).expect("the script runs").metrics
    }

    #[test]
    fn send_accounting() {
        let m = billed(&[&[(64, None), (0, None)], &[], &[(100, None)]]);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bits, 64 + 1 + 100, "a 0-bit message is billed 1 bit");
        assert_eq!(m.sends_per_machine, vec![2, 0, 1]);
        assert!(m.per_tag.is_empty());
    }

    #[test]
    fn tagged_sends_are_attributed() {
        let m = billed(&[&[(64, Some(2)), (8, None)], &[(32, Some(0)), (16, Some(2))]]);
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
        let m = RunMetrics {
            messages: 1,
            bits: 64,
            sends_per_machine: vec![1],
            per_tag: vec![TagMetrics { messages: 1, bits: 64 }],
            ..Default::default()
        };
        let want = r#"{
  "rounds": 0,
  "messages": 1,
  "bits": 64,
  "sends_per_machine": [
    1
  ],
  "max_link_backlog_bits": 0,
  "delivered_after_done": 0,
  "per_tag": [
    {
      "messages": 1,
      "bits": 64
    }
  ]
}"#;
        assert_eq!(to_string_pretty(&m), want);
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
        let want = r#"{
  "digests_verified": 0,
  "integrity_violations": 0,
  "audits_run": 0,
  "suspects_quarantined": 1
}"#;
        assert_eq!(to_string_pretty(&a), want);
    }
}

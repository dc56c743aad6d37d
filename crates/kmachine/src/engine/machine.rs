//! The machine-step core [`run_sync`](super::run_sync) drives.
//!
//! One simulated round of one machine is a **compute step**
//! ([`Machine::step`] then [`Machine::enqueue`]: crash horizon and salvage,
//! late-delivery billing, the protocol's `on_round` behind a panic guard —
//! skipped while the protocol is [waiting](Step::Wait) on an empty inbox —
//! outbox → per-destination FIFOs with send accounting) followed by a
//! **transport step** ([`Machine::transport`]: one bandwidth budget per busy
//! outbound link, integrity / link-down detection, backlog accounting).
//! [`collect`] folds the per-machine tallies and link counters into a
//! [`RunOutcome`]. Fault and adversary injection live here and only here;
//! the scheduler decides *when* each machine takes each step, nothing else.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use rand::rngs::StdRng;

use crate::config::NetConfig;
use crate::ctx::{AdversaryCtx, Ctx};
use crate::engine::RunOutcome;
use crate::error::EngineError;
use crate::frozen::SkewMetrics;
use crate::link::{IntegrityConfig, LinkFifo, LossConfig};
use crate::message::{Envelope, MachineId};
use crate::metrics::{AuditMetrics, FaultMetrics, RunMetrics, TagMetrics};
use crate::payload::Payload;
use crate::protocol::{Protocol, Step};
use crate::rng::machine_rng;

/// One link `src → dst`, lossy when the fault plan says so and
/// integrity-armed when an [`crate::config::AdversaryPlan`] is active.
fn build_link<M>(cfg: &NetConfig, src: usize, dst: usize) -> LinkFifo<M> {
    let link = if cfg.faults.loss_per_mille == 0 {
        LinkFifo::default()
    } else {
        LinkFifo::lossy(LossConfig {
            per_mille: cfg.faults.loss_per_mille,
            max_retries: cfg.faults.max_retries,
            seed: cfg.faults.fault_seed,
            src,
            dst,
        })
    };
    if cfg.adversary.is_empty() {
        link
    } else {
        link.with_integrity(IntegrityConfig {
            corrupt_per_mille: cfg.adversary.corrupt_per_mille(src, dst),
            seed: cfg.adversary.adversary_seed,
            src,
            dst,
        })
    }
}

/// The run's dense link lattice: slot `src * k + dst` holds the FIFO of the
/// ordered link `src → dst`, so row `src` is that machine's outbound links.
/// Allocated once per run (an empty `VecDeque` does not allocate); memory is
/// O(k²) FIFO headers — the complete network the model assumes.
pub(super) fn lattice<M>(cfg: &NetConfig) -> Vec<LinkFifo<M>> {
    let k = cfg.k;
    (0..k * k).map(|idx| build_link(cfg, idx / k, idx % k)).collect()
}

/// Read-only facts of one run that every machine step consults.
pub(super) struct RunEnv {
    pub(super) k: usize,
    pub(super) max_rounds: u64,
    /// [`NetConfig::round_latency`]: the delay added to every round.
    pub(super) latency: Duration,
    budget: u64,
    /// Per-machine fail-stop horizons from the fault plan (`u64::MAX`:
    /// never crashes).
    crash_rounds: Vec<u64>,
    /// Byzantine lying context (`None` unless the plan has liars or
    /// equivocators — the honest hot path pays one `Option` check per send).
    adversary: Option<AdversaryCtx>,
    /// Retry budget a lossy link exhausts before going down.
    max_retries: u32,
}

impl RunEnv {
    pub(super) fn new(cfg: &NetConfig) -> Self {
        RunEnv {
            k: cfg.k,
            max_rounds: cfg.max_rounds,
            latency: cfg.round_latency,
            budget: cfg.bandwidth.budget(),
            crash_rounds: (0..cfg.k).map(|i| cfg.faults.crash_round(i)).collect(),
            adversary: AdversaryCtx::from_plan(&cfg.adversary, cfg.k),
            max_retries: cfg.faults.max_retries,
        }
    }

    /// The error of a round in which nothing was sent, delivered, in flight,
    /// or finished. Survivors deadlocked waiting for a crashed peer report
    /// the crash, not the stall, so callers know a retry over the survivors
    /// can succeed.
    pub(super) fn stall_error(&self, round: u64, first_crashed: Option<MachineId>) -> EngineError {
        match first_crashed {
            Some(machine) => self.crashed_error(machine),
            None => EngineError::Stalled { round },
        }
    }

    /// The `Crashed` report: the lowest crashed machine id with its
    /// scheduled crash round.
    fn crashed_error(&self, machine: MachineId) -> EngineError {
        EngineError::Crashed { machine, round: self.crash_rounds[machine] }
    }
}

/// Why a machine is no longer scheduled (its late arrivals are discarded).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Halt {
    Running,
    Done,
    Crashed,
}

/// Everything one machine owns: protocol, determinism state, outbound links,
/// and plain metric tallies (merged once by [`collect`] — no step touches a
/// shared counter).
pub(super) struct Machine<'l, P: Protocol> {
    id: MachineId,
    proto: P,
    rng: StdRng,
    seq: u64,
    /// Row `id` of the run's [`lattice`]: the FIFO toward each destination
    /// (`fifos[id]` stays empty — the model has no self-loops).
    fifos: &'l mut [LinkFifo<P::Msg>],
    halt: Halt,
    /// The protocol's last step returned [`Step::Wait`]: until mail arrives
    /// its `on_round` is a no-op by contract, and [`Machine::step`] skips it.
    waiting: bool,
    output: Option<P::Output>,
    /// Envelopes delivered after this machine halted, discarded unread.
    late: u64,
    sends: u64,
    bits: u64,
    max_backlog: u64,
    tags: Vec<TagMetrics>,
}

/// One [`Machine`] per protocol instance, each borrowing its row of `links`.
pub(super) fn machines<'l, P: Protocol>(
    cfg: &NetConfig,
    protocols: Vec<P>,
    links: &'l mut [LinkFifo<P::Msg>],
) -> impl Iterator<Item = Machine<'l, P>> {
    let seed = cfg.seed;
    protocols.into_iter().zip(links.chunks_mut(cfg.k.max(1))).enumerate().map(
        move |(id, (proto, fifos))| Machine {
            id,
            proto,
            rng: machine_rng(seed, id),
            seq: 0,
            fifos,
            halt: Halt::Running,
            waiting: false,
            output: None,
            late: 0,
            sends: 0,
            bits: 0,
            max_backlog: 0,
            tags: Vec::new(),
        },
    )
}

/// What one transport step moved.
pub(super) struct Transported {
    /// Whether any envelope reached a destination.
    pub(super) delivered: bool,
    /// Bits still queued on this machine's outbound links.
    pub(super) pending_bits: u64,
}

impl<'l, P: Protocol> Machine<'l, P> {
    /// Whether this machine has produced its output or crashed.
    fn halted(&self) -> bool {
        self.halt != Halt::Running
    }

    pub(super) fn crashed(&self) -> bool {
        self.halt == Halt::Crashed
    }

    /// Discard a halted machine's `inbox`, counting it as late traffic.
    fn bill_late(&mut self, inbox: &mut Vec<Envelope<P::Msg>>) {
        self.late += inbox.len() as u64;
        inbox.clear();
    }

    /// Execute `round` against `inbox` (consumed), leaving the round's sends
    /// in `outbox` for [`Machine::enqueue`]. Returns whether the machine
    /// halted in this round — produced its output, or hit its crash horizon.
    /// A panicking protocol is [`EngineError::WorkerPanic`].
    #[inline]
    pub(super) fn step(
        &mut self,
        round: u64,
        inbox: &mut Vec<Envelope<P::Msg>>,
        outbox: &mut Vec<Envelope<P::Msg>>,
        env: &RunEnv,
    ) -> Result<bool, EngineError> {
        if self.halted() {
            self.bill_late(inbox);
            return Ok(false);
        }
        if round >= env.crash_rounds[self.id] {
            // Fail-stop: the machine never executes this round. Its salvage
            // hook may still account for its output; messages delivered to
            // the corpse count as late, and earlier sends keep draining.
            self.bill_late(inbox);
            self.output = self.proto.on_crash();
            self.halt = Halt::Crashed;
            return Ok(true);
        }
        if self.waiting && inbox.is_empty() {
            // What the no-op step would have shown: not halted, nothing sent.
            return Ok(false);
        }
        // Keys (src, seq) are unique per delivery, so stability buys
        // nothing — unstable sort avoids the temp-buffer allocation.
        inbox.sort_unstable_by_key(|e| (e.src, e.seq));
        let mut ctx = Ctx {
            id: self.id,
            k: env.k,
            round,
            inbox: inbox.as_slice(),
            outbox,
            rng: &mut self.rng,
            next_seq: &mut self.seq,
            crash_rounds: &env.crash_rounds,
            adversary: env.adversary.as_ref(),
        };
        let step = catch_unwind(AssertUnwindSafe(|| self.proto.on_round(&mut ctx)));
        inbox.clear();
        match step {
            Ok(Step::Continue) => {
                self.waiting = false;
                Ok(false)
            }
            Ok(Step::Wait) => {
                self.waiting = true;
                Ok(false)
            }
            Ok(Step::Done(out)) => {
                self.output = Some(out);
                self.halt = Halt::Done;
                Ok(true)
            }
            Err(_) => Err(EngineError::WorkerPanic { machine: self.id }),
        }
    }

    /// Hand `outbox` to the network: bill every message and queue it on its
    /// destination's FIFO. Returns how many were sent.
    #[inline]
    pub(super) fn enqueue(&mut self, outbox: &mut Vec<Envelope<P::Msg>>) -> u64 {
        let sent = outbox.len() as u64;
        for env in outbox.drain(..) {
            let bits = env.msg.size_bits().max(1);
            self.bits += bits;
            if let Some(tag) = env.msg.mux_tag() {
                let idx = tag as usize;
                if idx >= self.tags.len() {
                    self.tags.resize(idx + 1, TagMetrics::default());
                }
                self.tags[idx].messages += 1;
                self.tags[idx].bits += bits;
            }
            self.fifos[env.dst].push(env, bits);
        }
        self.sends += sent;
        sent
    }

    /// Drain one round of budget from each busy outbound link into the
    /// destination's next-round inbox; idle links cost one emptiness check.
    #[inline]
    pub(super) fn transport(
        &mut self,
        round: u64,
        env: &RunEnv,
        inboxes: &mut [Vec<Envelope<P::Msg>>],
    ) -> Result<Transported, EngineError> {
        let mut moved = Transported { delivered: false, pending_bits: 0 };
        for (dst, fifo) in self.fifos.iter_mut().enumerate() {
            if fifo.is_empty() {
                continue;
            }
            let slot = &mut inboxes[dst];
            let before = slot.len();
            fifo.drain_round(env.budget, slot);
            moved.delivered |= slot.len() > before;
            if fifo.integrity_violated() {
                return Err(EngineError::IntegrityViolation { src: self.id, dst, round });
            }
            if fifo.is_down() {
                let retries = env.max_retries;
                return Err(EngineError::LinkDown { src: self.id, dst, round, retries });
            }
            let pending = fifo.pending_bits();
            self.max_backlog = self.max_backlog.max(pending);
            moved.pending_bits += pending;
        }
        Ok(moved)
    }
}

/// Fold the machines (in id order) of a run that ended in `final_round`
/// into its outcome.
pub(super) fn collect<'l, P: Protocol + 'l>(
    machines: impl IntoIterator<Item = Machine<'l, P>>,
    env: &RunEnv,
    final_round: u64,
    wall: Duration,
) -> Result<RunOutcome<P::Output>, EngineError> {
    let mut metrics = RunMetrics::new(env.k);
    metrics.rounds = final_round;
    let mut faults = FaultMetrics::default();
    let mut audit = AuditMetrics::default();
    let mut outputs = Vec::with_capacity(env.k);
    for m in machines {
        for fifo in m.fifos.iter() {
            faults.dropped_messages += fifo.dropped();
            faults.retransmitted_bits += fifo.retransmitted_bits();
            audit.digests_verified += fifo.digests_verified();
        }
        if m.crashed() {
            faults.crashed.push(m.id);
        }
        metrics.messages += m.sends;
        metrics.bits += m.bits;
        metrics.sends_per_machine[m.id] = m.sends;
        metrics.max_link_backlog_bits = metrics.max_link_backlog_bits.max(m.max_backlog);
        metrics.delivered_after_done += m.late;
        if metrics.per_tag.len() < m.tags.len() {
            metrics.per_tag.resize(m.tags.len(), TagMetrics::default());
        }
        for (total, mine) in metrics.per_tag.iter_mut().zip(&m.tags) {
            total.messages += mine.messages;
            total.bits += mine.bits;
        }
        outputs.extend(m.output);
    }
    // A panic is an error before collection, so a missing output means a
    // crashed machine's salvage hook declined: a hole no output can fill.
    if outputs.len() < env.k {
        return Err(env.crashed_error(faults.crashed[0]));
    }
    Ok(RunOutcome { outputs, metrics, skew: SkewMetrics { max_skew: 0 }, wall, faults, audit })
}

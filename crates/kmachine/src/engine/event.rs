//! Event-driven scheduler: per-link dependency scheduling, no global
//! barrier.
//!
//! Lockstep execution ends every simulated round at a cluster-wide boundary,
//! so one slow machine stalls everyone. This scheduler drives the same
//! machine-step core with **neighbor-local synchronization** over a
//! round-slotted staging ring per destination:
//!
//! * every machine gets two watermarks — `published` (how many transport
//!   phases it has completed, one release store per round no matter how
//!   many links it drove) and `consumed` (how many rounds it has drained) —
//!   and a round-slotted inbound staging ring: slot `t % RING` of
//!   machine m's ring collects what every source's transport phase `t`
//!   delivered toward m. Sources append at different times; the core's
//!   `(src, seq)` inbox sort restores the deterministic order, so
//!   sharing one slot per (destination, round) costs nothing and lets an
//!   idle link cost literally zero (an empty transport is just the one
//!   watermark store);
//! * machine `m` may execute round `r` as soon as every peer has
//!   `published ≥ r` (its inputs exist) and `consumed + RING > r` (the
//!   staging slots it may write are free) — nothing else in the cluster
//!   matters. That is the one readiness rule, and it bounds machine skew
//!   at **one round**: because any peer may send to m in any round, m can
//!   only know its round-r inbox is complete once *every* peer has
//!   finished round r−1 (an empty transport is information too). What the
//!   scheduler removes is the *cost* of synchronization, not its data-flow
//!   edges: no machine ever waits at a global round boundary, k machines
//!   share a few worker threads instead of owning one each, and a
//!   machine's synchronization is wait-free whenever its peers have kept
//!   pace. Running further ahead would buy nothing: every machine must
//!   execute every round up to the final one, so passing a slow peer does
//!   not shorten that peer's own critical path (CHANGES.md, PR 23, has the
//!   measurement);
//! * [`NetConfig::round_latency`] gates each machine on its own clock: it
//!   may not start a round until that long after its previous transport, so
//!   every round costs the latency once however many machines share a
//!   worker;
//! * machines are cooperatively-scheduled tasks on a small worker pool
//!   ([`NetConfig::event_workers`], default: the ambient rayon pool size),
//!   not one OS thread each — and a pool of **one** worker takes the
//!   degenerate path outright: dependency scheduling with nobody to overlap
//!   with is exactly the lockstep sweep, so it runs [`run_sync`]'s loop
//!   instead of paying watermark bookkeeping for concurrency that cannot
//!   happen.
//!
//! Outputs, round counts, and every `RunMetrics` field are byte-identical
//! to [`run_sync`](super::run_sync) for deterministic protocols at any
//! worker count: both drive one core, per-round inboxes are reassembled in
//! the same `(src, seq)` order, and the run-ahead bookkeeping (speculative
//! transports past the final round, late deliveries consumed out of
//! lockstep) is filtered back to exactly what the lockstep sweep observes.
//! `tests/parallel_determinism.rs` pins this for the full serving pipeline;
//! the unit tests below pin the error paths.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Condvar;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::config::NetConfig;
use crate::engine::machine::{self, Inbound, Machine, RunEnv};
use crate::engine::RunOutcome;
use crate::error::EngineError;
use crate::message::{Envelope, MachineId};
use crate::protocol::Protocol;
use crate::recovery;

/// How long an idle worker parks before re-sweeping, bounding the cost of a
/// lost wakeup (the fast path never sleeps: any publish bumps the epoch and
/// notifies parked workers).
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Wall-clock quantum a straggling machine loses per unit of slowdown: a
/// [`crate::config::FaultPlan`] speed factor of `f` delays each of the
/// machine's rounds by `(f − 1)` quanta. Purely a scheduling delay — the
/// simulated execution is unchanged, only the wall clock moves.
const STRAGGLE_QUANTUM: Duration = Duration::from_micros(200);

/// Depth of every staging ring. Two keeps the minimum-round machine always
/// runnable (its consumers' `consumed` trails its round by at most one), and
/// the one-round skew bound means no more than two slots are ever in flight.
const RING: u64 = 2;

/// One machine's inbound staging ring: slot `t % RING` collects what
/// every source's transport phase `t` delivered toward this machine,
/// consumed whole at round `t + 1`. Sources may append interleaved — the
/// `(src, seq)` inbox sort restores the deterministic delivery order — and
/// slot buffers keep their allocations warm across ring reuse.
///
/// Writers are gated by the owner's `consumed` watermark (slot space) and
/// readers by each peer's `published` watermark (content completeness), so
/// the mutex is held only for the append/take itself.
type InboundRing<M> = Mutex<Vec<Vec<Envelope<M>>>>;

/// Slot `slot` of every destination's staging ring: where one transport
/// phase delivers.
struct RingSlot<'a, M> {
    inbound: &'a [InboundRing<M>],
    slot: usize,
}

impl<M> Inbound<M> for RingSlot<'_, M> {
    fn with<R>(&mut self, dst: MachineId, f: impl FnOnce(&mut Vec<Envelope<M>>) -> R) -> R {
        f(&mut self.inbound[dst].lock()[self.slot])
    }
}

/// A machine plus its position in the schedule.
struct Task<'l, P: Protocol> {
    core: Machine<'l, P>,
    round: u64,
    inbox: Vec<Envelope<P::Msg>>,
    exited: bool,
    /// [`NetConfig::round_latency`]: the earliest instant this machine may
    /// start its next round.
    not_before: Instant,
}

/// Cross-machine coordination state.
struct Shared<'a, M> {
    env: RunEnv<'a>,
    /// Transport phases machine i has completed (one release store per
    /// round; transport `t` feeds every destination's round `t + 1`).
    published: Vec<AtomicU64>,
    /// Rounds machine i has consumed; gates writers of its staging ring.
    consumed: Vec<AtomicU64>,
    /// Per-destination round-slotted staging rings.
    inbound: Vec<InboundRing<M>>,
    /// All machines finished (or an error was recorded); exit after
    /// consuming through `final_round`.
    stop: AtomicBool,
    /// Error shutdown: exit immediately, metrics are not reported.
    abort: AtomicBool,
    /// Highest round in which any machine produced its output — exactly
    /// `RunMetrics::rounds` of the lockstep sweep.
    final_round: AtomicU64,
    done_count: AtomicUsize,
    exited_count: AtomicUsize,
    error: Mutex<Option<EngineError>>,
    /// Stall detector: slot `r % len` packs `(round << 16) | quiet_count`.
    /// When the count for one round reaches k, the run is stalled — the
    /// same "nothing sent, nothing delivered, nothing in flight, nobody
    /// progressed" conjunction `run_sync` checks every round.
    quiet: Vec<AtomicU64>,
    /// Bumped on every completed machine-round; parked workers recheck it.
    epoch: AtomicU64,
    sleepers: AtomicUsize,
    idle: Mutex<()>,
    cv: Condvar,
    /// How long an idle worker parks: [`IDLE_PARK`], or the round latency
    /// when that is shorter (nothing notifies a latency gate opening).
    park: Duration,
    /// Per-machine speed factors from the fault plan (1: full speed).
    slowdowns: Vec<u32>,
    /// Lowest id among machines that hit their fail-stop horizon
    /// (`usize::MAX`: none), for the stall report.
    first_crashed: AtomicUsize,
}

impl<M> Shared<'_, M> {
    fn wake(&self) {
        if self.sleepers.load(Ordering::Acquire) > 0 {
            self.cv.notify_all();
        }
    }

    fn fail(&self, err: EngineError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        self.abort.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        self.cv.notify_all();
    }
}

/// Execute one protocol instance per machine with per-link dependency
/// scheduling on a small worker pool.
///
/// Semantics (outputs, rounds, messages, every metric, every error) match
/// [`run_sync`](super::run_sync); wall-clock time reflects genuinely
/// parallel local computation *without* a per-round global barrier —
/// machines synchronize only against their slowest peer's previous round
/// (the data-flow minimum for bit-exact complete-graph delivery; the
/// module docs in `engine/event.rs` say why that bounds skew at one
/// round) — plus [`NetConfig::round_latency`] once per round.
///
/// With an effective pool of one worker (including `k == 1`) the scheduler
/// takes the degenerate path: one worker sweeping dependency-ready machines
/// *is* the lockstep order, so it runs [`run_sync`](super::run_sync)'s
/// loop and pays zero scheduling overhead.
///
/// # Panics
/// If `protocols.len() != cfg.k`, bandwidth is `Enforce { 0 }`, or
/// `k > 65535` (the stall detector packs per-round quiet counts in 16 bits).
pub fn run_event<P: Protocol>(
    cfg: &NetConfig,
    protocols: Vec<P>,
) -> Result<RunOutcome<P::Output>, EngineError> {
    recovery::validate(cfg)?;
    let k = protocols.len();
    assert_eq!(k, cfg.k, "protocol count {} != cfg.k {}", k, cfg.k);
    let workers = cfg.event_workers.unwrap_or_else(rayon::current_num_threads).clamp(1, k.max(1));
    if workers <= 1 {
        // Degenerate before wrapping: `run_sync` applies its own recovery
        // wrapper, so delegating here never double-wraps.
        return super::run_sync(cfg, protocols);
    }
    if cfg.recovery.is_empty() {
        return event_core(cfg, protocols, workers, None);
    }
    let (wrapped, state) = recovery::wrap(cfg, protocols);
    recovery::finish(event_core(cfg, wrapped, workers, Some(&state)), &state)
}

/// The scheduler run itself; `recovering` carries the shared rejoin state
/// when a [`crate::config::RecoveryPlan`] is active.
fn event_core<P: Protocol>(
    cfg: &NetConfig,
    protocols: Vec<P>,
    workers: usize,
    recovering: Option<&recovery::RecoveryShared>,
) -> Result<RunOutcome<P::Output>, EngineError> {
    let k = protocols.len();
    let env = RunEnv::new(cfg, recovering);
    assert!(k <= u16::MAX as usize, "event engine supports at most 65535 machines");

    let shared = Shared::<P::Msg> {
        published: (0..k).map(|_| AtomicU64::new(0)).collect(),
        consumed: (0..k).map(|_| AtomicU64::new(0)).collect(),
        inbound: (0..k).map(|_| Mutex::new((0..RING).map(|_| Vec::new()).collect())).collect(),
        stop: AtomicBool::new(false),
        abort: AtomicBool::new(false),
        final_round: AtomicU64::new(0),
        done_count: AtomicUsize::new(0),
        exited_count: AtomicUsize::new(0),
        error: Mutex::new(None),
        quiet: (0..RING + 2).map(|_| AtomicU64::new(0)).collect(),
        epoch: AtomicU64::new(0),
        sleepers: AtomicUsize::new(0),
        idle: Mutex::new(()),
        cv: Condvar::new(),
        park: if env.latency.is_zero() { IDLE_PARK } else { IDLE_PARK.min(env.latency) },
        slowdowns: (0..k).map(|i| cfg.faults.slowdown(i)).collect(),
        first_crashed: AtomicUsize::new(usize::MAX),
        env,
    };
    let start = Instant::now();
    let mut links = machine::lattice(cfg);
    let tasks: Vec<Mutex<Task<'_, P>>> = machine::machines(cfg, protocols, &mut links)
        .map(|core| {
            Mutex::new(Task {
                core,
                round: 0,
                inbox: Vec::with_capacity(k),
                exited: false,
                not_before: start,
            })
        })
        .collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let shared = &shared;
            let tasks = &tasks;
            scope.spawn(move || worker(w, workers, tasks, shared));
        }
    });
    let wall = start.elapsed();

    if let Some(err) = shared.error.lock().take() {
        return Err(err);
    }

    let cores = tasks.into_iter().map(|task| task.into_inner().core);
    let fin = shared.final_round.load(Ordering::Acquire);
    machine::collect(cores, &shared.env, fin, wall)
}

/// Worker loop: sweep the machines (staggered start per worker so workers
/// spread over distinct machines), advancing each as far as its link
/// dependencies allow; park briefly when a whole sweep makes no progress.
fn worker<P: Protocol>(
    w: usize,
    workers: usize,
    tasks: &[Mutex<Task<'_, P>>],
    shared: &Shared<'_, P::Msg>,
) {
    let k = tasks.len();
    let start = w * k / workers.max(1);
    // Scratch for the round in progress: every compute step drains it.
    let mut outbox = Vec::with_capacity(k);
    loop {
        if shared.exited_count.load(Ordering::Acquire) == k {
            return;
        }
        let epoch_before = shared.epoch.load(Ordering::Acquire);
        let mut progressed = false;
        for i in 0..k {
            let m = (start + i) % k;
            // A machine locked by another worker is already being advanced.
            if let Some(mut task) = tasks[m].try_lock() {
                progressed |= advance(m, &mut task, &mut outbox, shared);
            }
        }
        if shared.exited_count.load(Ordering::Acquire) == k {
            return;
        }
        if !progressed {
            shared.sleepers.fetch_add(1, Ordering::AcqRel);
            let guard = shared.idle.lock();
            if shared.epoch.load(Ordering::Acquire) == epoch_before {
                let _ = shared.cv.wait_timeout(guard, shared.park);
            } else {
                drop(guard);
            }
            shared.sleepers.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Advance one machine as many rounds as its dependencies currently allow.
/// Returns whether at least one round completed (or the machine exited).
fn advance<P: Protocol>(
    id: MachineId,
    st: &mut Task<'_, P>,
    outbox: &mut Vec<Envelope<P::Msg>>,
    sh: &Shared<'_, P::Msg>,
) -> bool {
    let k = sh.env.k;
    let mut progressed = false;
    // Record `err`, shut the run down, and leave.
    let fail = |st: &mut Task<'_, P>, err: EngineError| {
        sh.fail(err);
        exit(st, sh);
        true
    };
    loop {
        if st.exited {
            return progressed;
        }
        if sh.abort.load(Ordering::Acquire) {
            exit(st, sh);
            return true;
        }
        if sh.stop.load(Ordering::Acquire) {
            // Normal completion. Every transport the lockstep sweep would
            // have run (rounds 0..final_round-1) is already published — some
            // machine computed round `final_round`, which required them all
            // — so drain the remaining rounds for exact late-delivery
            // accounting, then exit.
            let fin = sh.final_round.load(Ordering::Acquire);
            while st.round <= fin {
                let r = st.round;
                consume_round(id, st, sh, r);
                st.core.bill_late(r, &mut st.inbox);
                st.round += 1;
            }
            exit(st, sh);
            return true;
        }

        let r = st.round;
        if !st.core.halted() && r > sh.env.max_rounds {
            return fail(st, EngineError::MaxRounds { limit: sh.env.max_rounds });
        }
        if !sh.env.latency.is_zero() && Instant::now() < st.not_before {
            return progressed;
        }
        // Inbound dependency: every peer has published its round r-1
        // transport. Outbound space: slot r % RING of every peer's staging
        // ring is free (its round r-RING contents were consumed).
        let ready = (0..k).filter(|&peer| peer != id).all(|peer| {
            sh.published[peer].load(Ordering::Acquire) >= r
                && sh.consumed[peer].load(Ordering::Acquire) + RING > r
        });
        if !ready {
            return progressed;
        }

        // Straggler injection: a slowed machine loses wall-clock on every
        // round it executes. The simulated execution is untouched.
        let slow = sh.slowdowns[id];
        if slow > 1 && !st.core.halted() {
            std::thread::sleep(STRAGGLE_QUANTUM * (slow - 1));
        }

        // --- compute: this round's inbox, then the machine's step ---
        consume_round(id, st, sh, r);
        let became_done = match st.core.step(r, &mut st.inbox, outbox, &sh.env) {
            Ok(halted) => halted,
            Err(err) => return fail(st, err),
        };
        let sent = st.core.enqueue(outbox);
        if became_done {
            if st.core.crashed() {
                sh.first_crashed.fetch_min(id, Ordering::AcqRel);
            }
            sh.final_round.fetch_max(r, Ordering::AcqRel);
            let done_now = sh.done_count.fetch_add(1, Ordering::AcqRel) + 1;
            if done_now == k {
                // The wall-clock-last finisher always holds the highest
                // done round: any machine that reached a higher round
                // needed this one's transports to get there, so this one
                // would already have passed that round (crashed machines
                // keep publishing empty transports as done machines, so
                // the argument covers them too). Like run_sync's break,
                // round `r` sees no transport, and the stop branch above
                // has nothing left to drain for this machine.
                debug_assert!(
                    sh.final_round.load(Ordering::Acquire) == r,
                    "last finisher must hold the final round"
                );
                st.round = r + 1;
                sh.stop.store(true, Ordering::Release);
                sh.cv.notify_all();
                continue;
            }
        }

        // --- transport: one budget round per busy outbound FIFO into the
        // destination's staging slot; idle links cost nothing and the whole
        // phase publishes with one release store ---
        let mut ring = RingSlot { inbound: &sh.inbound, slot: (r % RING) as usize };
        let moved = match st.core.transport(r, &sh.env, &mut ring) {
            Ok(moved) => moved,
            Err(err) => return fail(st, err),
        };
        sh.published[id].store(r + 1, Ordering::Release);
        if !sh.env.latency.is_zero() {
            st.not_before = Instant::now() + sh.env.latency;
        }

        // --- stall accounting: run_sync's per-round conjunction, split per
        // machine and joined through the per-round quiet counter ---
        if sent == 0
            && !became_done
            && !moved.delivered
            && moved.pending_bits == 0
            && !sh.env.awaiting_rejoin(r)
        {
            let slots = sh.quiet.len() as u64;
            let slot = &sh.quiet[(r % slots) as usize];
            let stalled = loop {
                let cur = slot.load(Ordering::Acquire);
                // Machines can spread at most `RING` rounds, and the ring
                // has RING + 2 slots, so a stale entry is always for an
                // older round — never a newer one.
                let count = if cur >> 16 == r { (cur & 0xffff) + 1 } else { 1 };
                let next = (r << 16) | count;
                if slot.compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                    break count as usize == k;
                }
            };
            if stalled {
                let first_crashed = sh.first_crashed.load(Ordering::Acquire);
                let first_crashed = (first_crashed != usize::MAX).then_some(first_crashed);
                return fail(st, sh.env.stall_error(r, first_crashed));
            }
        }

        st.round = r + 1;
        progressed = true;
        sh.epoch.fetch_add(1, Ordering::AcqRel);
        sh.wake();
    }
}

/// Move this round's staging slot into the machine's inbox (`append` keeps
/// both allocations warm) and release the ring space. The slot holds every
/// source's deliveries in arrival order; the core's `(src, seq)` sort makes
/// that order deterministic.
fn consume_round<P: Protocol>(
    id: MachineId,
    st: &mut Task<'_, P>,
    sh: &Shared<'_, P::Msg>,
    r: u64,
) {
    if r == 0 {
        return;
    }
    let mut ring = sh.inbound[id].lock();
    st.inbox.append(&mut ring[((r - 1) % RING) as usize]);
    drop(ring);
    sh.consumed[id].store(r, Ordering::Release);
}

fn exit<P: Protocol>(st: &mut Task<'_, P>, sh: &Shared<'_, P::Msg>) {
    if !st.exited {
        st.exited = true;
        sh.exited_count.fetch_add(1, Ordering::AcqRel);
        sh.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BandwidthMode, FaultPlan};
    use crate::ctx::Ctx;
    use crate::engine::fixtures::{CrashAwareGossip, GossipSum, SleepForever, Stream, WaitForever};
    use crate::engine::{run_sync, Engine};
    use crate::protocol::Step;

    /// Unit tests pin the worker count ≥ 2: the ambient pool of a small CI
    /// host would otherwise send every run down the degenerate
    /// `run_sync` path and leave the scheduler untested.
    fn cfg(k: usize) -> NetConfig {
        NetConfig::new(k).with_event_workers(2)
    }

    #[test]
    fn matches_sync_engine_exactly() {
        let cfg = cfg(8).with_seed(5);
        let a = run_sync(&cfg, GossipSum::cluster(8)).unwrap();
        let b = run_event(&cfg, GossipSum::cluster(8)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }

    /// A done sender keeps draining its backlog: the narrow link forces 32
    /// transport rounds long after machine 0 produced its output, and the
    /// round count must match the lockstep engines bit for bit.
    #[test]
    fn bandwidth_rounds_and_backlog_match_sync() {
        let cfg = cfg(2).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
        let a = run_sync(&cfg, Stream::pair(64)).unwrap();
        let b = run_event(&cfg, Stream::pair(64)).unwrap();
        assert_eq!(b.metrics.rounds, 32);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }

    /// Late deliveries to a finished machine are counted exactly as the
    /// lockstep engines count them, even though the event engine's machines
    /// consume them out of lockstep (and may speculate past the final
    /// round).
    struct EarlyQuit {
        n: u64,
        received: u64,
    }
    impl Protocol for EarlyQuit {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            match ctx.id() {
                0 => {
                    if ctx.round() == 0 {
                        for v in 0..self.n {
                            ctx.send(1, v);
                        }
                        ctx.send(2, 1);
                    }
                    Step::Done(0)
                }
                1 => {
                    // Quits after the first delivery; the rest of machine
                    // 0's backlog arrives after done.
                    if ctx.round() >= 1 {
                        self.received += ctx.inbox().len() as u64;
                        return Step::Done(self.received);
                    }
                    Step::Continue
                }
                _ => {
                    // Keeps the run alive long enough for backlog to land.
                    self.received += ctx.inbox().len() as u64;
                    if ctx.round() == 6 {
                        Step::Done(self.received)
                    } else {
                        Step::Continue
                    }
                }
            }
        }
    }

    #[test]
    fn delivered_after_done_matches_sync() {
        let cfg = cfg(3).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
        let mk = || (0..3).map(|_| EarlyQuit { n: 16, received: 0 }).collect::<Vec<_>>();
        let a = run_sync(&cfg, mk()).unwrap();
        let b = run_event(&cfg, mk()).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert!(a.metrics.delivered_after_done > 0, "test must exercise late deliveries");
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn stall_detected_without_deadlock() {
        let cfg = cfg(4);
        let err =
            run_event(&cfg, vec![WaitForever, WaitForever, WaitForever, WaitForever]).unwrap_err();
        assert!(matches!(err, EngineError::Stalled { .. }));
        // Machines that declare the wait are never stepped after round 0;
        // the stall is the same one, at the same round.
        let waiting = run_event(&cfg, (0..4).map(|_| SleepForever).collect()).unwrap_err();
        assert_eq!(waiting, err);
    }

    #[test]
    fn max_rounds_guard_trips() {
        let cfg = cfg(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_max_rounds(3);
        let err = run_event(&cfg, Stream::pair(64)).unwrap_err();
        assert_eq!(err, EngineError::MaxRounds { limit: 3 });
    }

    struct PanicsOnRoundOne;
    impl Protocol for PanicsOnRoundOne {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            if ctx.id() == 1 {
                panic!("intentional test panic");
            }
            if ctx.round() == 0 {
                ctx.send(1, 7);
                return Step::Continue;
            }
            Step::Done(0)
        }
    }

    #[test]
    fn worker_panic_is_reported_not_hung() {
        let cfg = cfg(2);
        let err = run_event(&cfg, vec![PanicsOnRoundOne, PanicsOnRoundOne]).unwrap_err();
        assert_eq!(err, EngineError::WorkerPanic { machine: 1 });
    }

    /// Machine 2 sleeps before answering, so with several workers the other
    /// machines finish their rounds long before it and race one iteration
    /// past it through the slotted links — and the outcome still matches
    /// the lockstep engine exactly.
    struct Straggler {
        rounds: u64,
        acc: u64,
    }
    impl Protocol for Straggler {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            if ctx.id() == 2 {
                std::thread::sleep(Duration::from_micros(300));
            }
            for e in ctx.inbox() {
                self.acc = self.acc.wrapping_mul(31).wrapping_add(e.msg);
            }
            if ctx.round() < self.rounds {
                let dst = (ctx.id() + 1) % ctx.k();
                ctx.send(dst, ctx.round() * 1000 + ctx.id() as u64);
                return Step::Continue;
            }
            Step::Done(self.acc)
        }
    }

    #[test]
    fn stragglers_do_not_change_the_outcome() {
        let cfg = NetConfig::new(4).with_seed(9).with_event_workers(3);
        let mk = || (0..4).map(|_| Straggler { rounds: 24, acc: 0 }).collect::<Vec<_>>();
        let want = run_sync(&cfg, mk()).unwrap();
        for _ in 0..3 {
            let got = run_event(&cfg, mk()).unwrap();
            assert_eq!(got.outputs, want.outputs);
            assert_eq!(got.metrics, want.metrics);
        }
    }

    #[test]
    fn worker_count_is_a_pure_wall_clock_knob() {
        let base = NetConfig::new(6).with_seed(3);
        let want = run_sync(&base, GossipSum::cluster(6)).unwrap();
        for workers in [1, 2, 6, 16] {
            let cfg = base.clone().with_event_workers(workers);
            let got = run_event(&cfg, GossipSum::cluster(6)).unwrap();
            assert_eq!(got.outputs, want.outputs, "workers {workers}");
            assert_eq!(got.metrics, want.metrics, "workers {workers}");
        }
    }

    // ---- fault injection: stragglers, crashes, lossy links ----

    #[test]
    fn straggler_injection_changes_nothing_but_wall_clock() {
        let base = cfg(4).with_seed(7);
        let slow = base.clone().with_faults(FaultPlan::default().with_straggler(2, 3));
        let want = run_sync(&base, GossipSum::cluster(4)).unwrap();
        let got = run_event(&slow, GossipSum::cluster(4)).unwrap();
        assert_eq!(want.outputs, got.outputs);
        assert_eq!(want.metrics, got.metrics);
        assert!(!got.faults.any(), "a straggler is not a fault the answer can observe");
    }

    #[test]
    fn crash_deadlock_reports_crashed_not_stalled() {
        // Machine 0 crashes before sending anything; machine 1 waits for a
        // stream that never comes.
        let cfg = cfg(2).with_faults(FaultPlan::default().with_crash(0, 0));
        let err = run_event(&cfg, Stream::pair(4)).unwrap_err();
        assert_eq!(err, EngineError::Crashed { machine: 0, round: 0 });
    }

    #[test]
    fn unsalvageable_crash_reported_identically_to_sync() {
        let cfg = cfg(2).with_faults(FaultPlan::default().with_crash(1, 0));
        let a = run_sync(&cfg, Stream::pair(4)).unwrap_err();
        let b = run_event(&cfg, Stream::pair(4)).unwrap_err();
        assert_eq!(a, EngineError::Crashed { machine: 1, round: 0 });
        assert_eq!(a, b);
    }

    #[test]
    fn salvageable_crash_matches_sync_exactly() {
        let k = 3;
        let cfg = cfg(k).with_faults(FaultPlan::default().with_crash(2, 0));
        let a = run_sync(&cfg, CrashAwareGossip::cluster(k)).unwrap();
        let b = run_event(&cfg, CrashAwareGossip::cluster(k)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.outputs, vec![1, 0, u64::MAX]);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.faults, b.faults);
        assert_eq!(b.faults.crashed, vec![2]);
    }

    #[test]
    fn lossy_run_matches_sync_exactly() {
        let cfg = cfg(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_faults(FaultPlan::default().with_loss(200, 64).with_fault_seed(5));
        let a = run_sync(&cfg, Stream::pair(64)).unwrap();
        let b = run_event(&cfg, Stream::pair(64)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.faults, b.faults, "loss process must be keyed identically");
        assert!(b.faults.dropped_messages > 0);
    }

    #[test]
    fn retry_exhaustion_surfaces_as_link_down() {
        let cfg = cfg(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_faults(FaultPlan::default().with_loss(1000, 2));
        let err = run_event(&cfg, Stream::pair(4)).unwrap_err();
        assert_eq!(err, EngineError::LinkDown { src: 0, dst: 1, round: 1, retries: 2 });
    }

    #[test]
    fn round_latency_slows_wall_clock() {
        let latency = Duration::from_millis(2);
        let base = NetConfig::new(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_round_latency(latency);
        let runs = [
            ("sync", run_sync(&base, Stream::pair(8))),
            ("event@1", run_event(&base.clone().with_event_workers(1), Stream::pair(8))),
            ("event@2", run_event(&base.clone().with_event_workers(2), Stream::pair(8))),
            ("threaded", Engine::Threaded.run(&base, Stream::pair(8))),
        ];
        for (name, out) in runs {
            let out = out.unwrap();
            // 8 × 64 bits over a 128-bit link: 4 transport rounds.
            assert_eq!(out.metrics.rounds, 4, "{name}");
            assert!(out.wall >= latency * 4, "{name}: wall = {:?}", out.wall);
        }
    }

    #[test]
    fn single_machine_cluster_finishes() {
        struct Solo;
        impl Protocol for Solo {
            type Msg = ();
            type Output = u64;
            fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step<u64> {
                Step::Done(7)
            }
        }
        // A lone machine that keeps "continuing" without traffic is a stall
        // in every engine (there is nothing left that could wake it); one
        // that finishes immediately reports zero rounds.
        let cfg = NetConfig::new(1);
        let err = run_event(&cfg, vec![WaitForever]).unwrap_err();
        assert!(matches!(err, EngineError::Stalled { round: 0 }));
        let out = run_event(&cfg, vec![Solo]).unwrap();
        assert_eq!(out.outputs, vec![7]);
        let want = run_sync(&cfg, vec![Solo]).unwrap();
        assert_eq!(out.metrics, want.metrics);
    }
}

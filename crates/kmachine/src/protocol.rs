//! The protocol trait: distributed algorithms as per-machine state machines.

use crate::ctx::Ctx;
use crate::payload::Payload;

/// Result of one round of execution on one machine.
#[derive(Debug)]
pub enum Step<T> {
    /// Keep running; the engine will call `on_round` again next round.
    Continue,
    /// Keep running, but there is nothing to do until mail arrives. The
    /// promise: **until this machine's inbox is next non-empty, `on_round`
    /// would send nothing, draw no randomness, change no state, and return
    /// `Wait` again.** A scheduler may therefore skip those calls — the
    /// machine step the [engine](crate::engine) drives does not step a
    /// waiting machine whose inbox is empty, and
    /// [`MuxProtocol`](crate::mux::MuxProtocol) does not step a waiting
    /// instance without mail — or make them anyway: by the promise the two
    /// executions are byte-identical. See [`Protocol`] for who may and may
    /// not return it.
    Wait,
    /// This machine is finished and yields its local output. The engine
    /// stops scheduling it; late messages addressed to it are discarded
    /// (and counted in [`crate::RunMetrics::delivered_after_done`]).
    Done(T),
}

/// A distributed algorithm written from the point of view of one machine.
///
/// The engine calls [`Protocol::on_round`] once per synchronous round, with
/// round 0 having an empty inbox (the "initial" round in which first sends
/// happen). Protocol code must be a deterministic function of its own state,
/// the inbox contents, and the private RNG — every run is then a pure
/// function of the protocols and the config.
///
/// # Waiting
///
/// `on_round` is called every round only while it returns
/// [`Step::Continue`]. A state whose every action is a reaction to mail —
/// a worker awaiting the leader's next probe, a leader collecting replies —
/// should return [`Step::Wait`] instead: the schedulers then spend nothing
/// on it until a message for it is delivered, so a run's simulation cost
/// tracks messages rather than rounds × machines (× multiplexed instances).
///
/// * **After a `Wait`** the next `on_round` call either carries a non-empty
///   inbox, or is one the scheduler was free to skip — it must send nothing,
///   leave the RNG and every field untouched, and return `Wait` again. The
///   round number may have advanced by any amount in between.
/// * **A waiting machine is still in the run.** It crashes at its
///   [`crate::config::FaultPlan`] round ([`Protocol::on_crash`] is called on
///   schedule) and counts toward stall detection and `max_rounds` exactly
///   as a no-op step would.
/// * **Never return `Wait` from a state that watches the clock.** Anything
///   that reads [`Ctx::round`] or [`Ctx::crashed`] to decide what to do can
///   change its mind on an empty inbox, so it must keep `Continue`: the
///   gather leader of `SimpleProtocol` (knn-core) writes off a sender once
///   `ctx.crashed(s)` turns true.
pub trait Protocol {
    /// Message type exchanged by this protocol.
    type Msg: Payload;
    /// Per-machine output.
    type Output;

    /// Execute one round.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) -> Step<Self::Output>;

    /// Salvage hook for fail-stop crash injection (see
    /// [`crate::config::FaultPlan::crashes`]): called exactly once, in
    /// place of the `on_round` the machine was scheduled to crash at.
    /// Returning `Some(output)` lets the run complete with whatever the
    /// machine can still account for (e.g. "my shard contributes
    /// nothing"); the machine then behaves like a done machine — its
    /// earlier sends keep draining, late arrivals are discarded. Returning
    /// `None` (the default) means the run cannot produce this machine's
    /// output, and collection fails with [`crate::EngineError::Crashed`]
    /// so callers can retry over the survivors.
    fn on_crash(&mut self) -> Option<Self::Output> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Protocol for Nop {
        type Msg = ();
        type Output = u8;
        fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step<u8> {
            Step::Done(9)
        }
    }

    #[test]
    fn trait_is_object_safe_enough_for_generics() {
        // Compile-time check that a trivial protocol satisfies the bounds.
        fn assert_protocol<P: Protocol>(_p: P) {}
        assert_protocol(Nop);
    }

    #[test]
    fn crash_hook_defaults_to_unsalvageable() {
        assert_eq!(Nop.on_crash(), None);
    }
}

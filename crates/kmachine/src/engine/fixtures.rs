//! Toy protocols the scheduler unit tests share.

use crate::ctx::Ctx;
use crate::protocol::{Protocol, Step};

/// Machine 0 streams `n` 64-bit values to machine 1.
pub(super) struct Stream {
    n: u64,
    received: u64,
}

impl Stream {
    pub(super) fn pair(n: u64) -> Vec<Stream> {
        vec![Stream { n, received: 0 }, Stream { n, received: 0 }]
    }
}

impl Protocol for Stream {
    type Msg = u64;
    type Output = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
        match ctx.id() {
            0 => {
                if ctx.round() == 0 {
                    for v in 0..self.n {
                        ctx.send(1, v);
                    }
                }
                Step::Done(0)
            }
            _ => {
                self.received += ctx.inbox().len() as u64;
                if self.received == self.n {
                    Step::Done(self.received)
                } else {
                    Step::Continue
                }
            }
        }
    }
}

/// A deadlocked protocol: everyone waits forever.
pub(super) struct WaitForever;

impl Protocol for WaitForever {
    type Msg = ();
    type Output = ();
    fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step<()> {
        Step::Continue
    }
}

/// The same deadlock, declared: everyone [waits](Step::Wait) for mail that
/// never comes, so after round 0 no machine is stepped at all.
pub(super) struct SleepForever;

impl Protocol for SleepForever {
    type Msg = ();
    type Output = ();
    fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step<()> {
        Step::Wait
    }
}

/// Everyone broadcasts its id; everyone outputs the sum of what it saw.
pub(super) struct GossipSum {
    acc: u64,
    got: usize,
}

impl GossipSum {
    pub(super) fn cluster(k: usize) -> Vec<GossipSum> {
        (0..k).map(|_| GossipSum { acc: 0, got: 0 }).collect()
    }
}

impl Protocol for GossipSum {
    type Msg = u64;
    type Output = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
        if ctx.round() == 0 {
            ctx.broadcast(ctx.id() as u64);
            return Step::Continue;
        }
        for e in ctx.inbox() {
            self.acc += e.msg;
            self.got += 1;
        }
        if self.got == ctx.k() - 1 {
            Step::Done(self.acc)
        } else {
            Step::Continue
        }
    }
}

/// Gossip that tolerates crashed peers: done once every peer has either
/// been heard from or is observably crashed ([`Ctx::crashed`]); a crashed
/// machine salvages a sentinel output.
pub(super) struct CrashAwareGossip {
    acc: u64,
    heard: Vec<bool>,
}

impl CrashAwareGossip {
    pub(super) fn cluster(k: usize) -> Vec<CrashAwareGossip> {
        (0..k).map(|_| CrashAwareGossip { acc: 0, heard: vec![false; k] }).collect()
    }
}

impl Protocol for CrashAwareGossip {
    type Msg = u64;
    type Output = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
        if ctx.round() == 0 {
            ctx.broadcast(ctx.id() as u64);
            return Step::Continue;
        }
        for e in ctx.inbox() {
            self.acc += e.msg;
            self.heard[e.src] = true;
        }
        let id = ctx.id();
        let settled = (0..ctx.k()).all(|p| p == id || self.heard[p] || ctx.crashed(p));
        if settled {
            Step::Done(self.acc)
        } else {
            Step::Continue
        }
    }
    fn on_crash(&mut self) -> Option<u64> {
        Some(u64::MAX)
    }
}

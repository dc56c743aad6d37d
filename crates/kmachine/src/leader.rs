//! Leader election protocols.
//!
//! The paper (following Kutten, Pandurangan, Peleg, Robinson, Trehan;
//! TCS 2015, reference \[9\]) elects a leader in O(1) rounds and
//! O(√k·log^{3/2} k) messages and then treats it as a black box. In this
//! simulator machine indices `0..k` are globally known — exactly as in the
//! k-machine model, where machines have distinct known IDs — so three
//! elections of increasing communication cost are provided:
//!
//! * [`fixed_leader`] — zero communication: everyone agrees on machine 0.
//!   The default for the paper's algorithms, whose theorems assume a leader
//!   is already known or charge the election separately.
//! * [`RandRankStar`] — 2 rounds, `2(k−1)` messages: every machine draws a
//!   random rank and sends it to machine 0, which announces the argmin.
//!   Random ranks (not indices) make the choice adversary-independent.
//! * [`RandRankFlood`] — 1 round, `k(k−1)` messages: everyone broadcasts its
//!   rank; everyone takes the argmin locally. Fewest rounds, most messages.
//!
//! All three produce the same *type* of output — the elected
//! [`MachineId`] — so the distributed k-NN runner can compose any of them
//! before its main protocol. Election message costs are reported by the
//! normal engine metrics.

use rand::RngExt;

use crate::ctx::Ctx;
use crate::message::MachineId;
use crate::payload::Payload;
use crate::protocol::{Protocol, Step};

/// The leader every machine agrees on without communication: machine 0.
///
/// Valid in the k-machine model because machine identifiers are common
/// knowledge; included so experiments can exclude election cost, matching
/// how the paper states its round/message bounds.
pub fn fixed_leader(_k: usize) -> MachineId {
    0
}

/// Message carrying a random 64-bit rank (and implicitly the sender id).
#[derive(Debug, Clone, Copy)]
pub struct Rank(pub u64);

impl Payload for Rank {
    fn size_bits(&self) -> u64 {
        64
    }
}

/// Election by rank gathering through machine 0 ("star"): 2 rounds,
/// `2(k−1)` messages.
#[derive(Debug, Default)]
pub struct RandRankStar {
    my_rank: u64,
    best: Option<(u64, MachineId)>,
    got: usize,
}

impl RandRankStar {
    /// Fresh instance (one per machine).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Announcement of the winning machine.
#[derive(Debug, Clone, Copy)]
pub enum StarMsg {
    /// A machine's rank, sent to the coordinator.
    Rank(u64),
    /// The coordinator's announcement of the elected leader.
    Winner(u64),
}

impl Payload for StarMsg {
    fn size_bits(&self) -> u64 {
        // One value plus a 1-bit tag.
        65
    }
}

impl Protocol for RandRankStar {
    type Msg = StarMsg;
    type Output = MachineId;

    fn on_round(&mut self, ctx: &mut Ctx<'_, StarMsg>) -> Step<MachineId> {
        if ctx.round() == 0 {
            self.my_rank = ctx.rng().random();
            if ctx.id() == 0 {
                self.best = Some((self.my_rank, 0));
                self.got = 1;
                if ctx.k() == 1 {
                    return Step::Done(0);
                }
            } else {
                ctx.send(0, StarMsg::Rank(self.my_rank));
            }
            return Step::Wait;
        }
        if ctx.id() == 0 {
            for env in ctx.inbox() {
                if let StarMsg::Rank(r) = env.msg {
                    self.got += 1;
                    // Ties broken by machine index (ranks are 64-bit random,
                    // so ties are vanishingly rare anyway).
                    let cand = (r, env.src);
                    if self.best.is_none_or(|b| cand < b) {
                        self.best = Some(cand);
                    }
                }
            }
            if self.got == ctx.k() {
                let winner = self.best.expect("at least own rank").1;
                ctx.broadcast(StarMsg::Winner(winner as u64));
                return Step::Done(winner);
            }
            return Step::Wait;
        }
        if let Some(StarMsg::Winner(w)) = ctx.first_from(0) {
            return Step::Done(*w as MachineId);
        }
        Step::Wait
    }
}

/// Election by all-to-all rank flooding: 1 round, `k(k−1)` messages.
#[derive(Debug, Default)]
pub struct RandRankFlood {
    my_rank: u64,
    best: Option<(u64, MachineId)>,
    got: usize,
}

impl RandRankFlood {
    /// Fresh instance (one per machine).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Protocol for RandRankFlood {
    type Msg = Rank;
    type Output = MachineId;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Rank>) -> Step<MachineId> {
        if ctx.round() == 0 {
            self.my_rank = ctx.rng().random();
            self.best = Some((self.my_rank, ctx.id()));
            self.got = 1;
            if ctx.k() == 1 {
                return Step::Done(0);
            }
            ctx.broadcast(Rank(self.my_rank));
            return Step::Wait;
        }
        for env in ctx.inbox() {
            self.got += 1;
            let cand = (env.msg.0, env.src);
            if self.best.is_none_or(|b| cand < b) {
                self.best = Some(cand);
            }
        }
        if self.got == ctx.k() {
            Step::Done(self.best.expect("has own rank").1)
        } else {
            Step::Wait
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::engine::{run_event, run_sync};

    #[test]
    fn fixed_leader_is_zero() {
        assert_eq!(fixed_leader(17), 0);
    }

    #[test]
    fn star_election_agrees_and_costs_two_rounds() {
        let k = 9;
        let cfg = NetConfig::new(k).with_seed(11);
        let out = run_sync(&cfg, (0..k).map(|_| RandRankStar::new()).collect()).unwrap();
        let leader = out.outputs[0];
        assert!(out.outputs.iter().all(|&l| l == leader));
        assert_eq!(out.metrics.rounds, 2);
        assert_eq!(out.metrics.messages, 2 * (k as u64 - 1));
    }

    #[test]
    fn flood_election_agrees_and_costs_one_round() {
        let k = 9;
        let cfg = NetConfig::new(k).with_seed(12);
        let out = run_sync(&cfg, (0..k).map(|_| RandRankFlood::new()).collect()).unwrap();
        let leader = out.outputs[0];
        assert!(out.outputs.iter().all(|&l| l == leader));
        assert_eq!(out.metrics.rounds, 1);
        assert_eq!(out.metrics.messages, (k * (k - 1)) as u64);
    }

    #[test]
    fn elections_are_uniformish_over_seeds() {
        // Each machine's rank is uniform, so the winner should vary by seed.
        let k = 4;
        let mut winners = std::collections::HashSet::new();
        for seed in 0..32 {
            let cfg = NetConfig::new(k).with_seed(seed);
            let out = run_sync(&cfg, (0..k).map(|_| RandRankFlood::new()).collect()).unwrap();
            winners.insert(out.outputs[0]);
        }
        assert!(winners.len() >= 3, "winners seen: {winners:?}");
    }

    #[test]
    fn engines_agree_on_star_election() {
        let k = 6;
        let cfg = NetConfig::new(k).with_seed(3).with_event_workers(2);
        let a = run_sync(&cfg, (0..k).map(|_| RandRankStar::new()).collect()).unwrap();
        let b = run_event(&cfg, (0..k).map(|_| RandRankStar::new()).collect()).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
        assert_eq!(a.metrics.messages, b.metrics.messages);
    }

    #[test]
    fn single_machine_elects_itself() {
        let cfg = NetConfig::new(1);
        let out = run_sync(&cfg, vec![RandRankStar::new()]).unwrap();
        assert_eq!(out.outputs, vec![0]);
        assert_eq!(out.metrics.rounds, 0);
    }
}

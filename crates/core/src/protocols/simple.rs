//! The **simple method** — the baseline the paper's experiment compares
//! against (§3).
//!
//! Every machine finds its local ℓ nearest points, ships *all ℓ of them* to
//! the leader, and the leader selects the final ℓ among the `kℓ` received
//! candidates. Under the model's `B = Θ(log n)` bandwidth this costs
//! `Θ(ℓ)` rounds (each link carries O(1) keys per round) and `Θ(kℓ)`
//! messages — exponentially more rounds than Algorithm 2's `O(log ℓ)`.

use kmachine::{Ctx, MachineId, Payload, Protocol, Step, ENVELOPE_HEADER_BITS};
use knn_points::Key;

/// Messages of the simple gather baseline.
#[derive(Debug, Clone)]
pub enum SimpleMsg<K: Key> {
    /// A chunk of the sender's local top-ℓ keys; `last` marks the final
    /// chunk. Chunks are sized by the runner to one link-round each, so the
    /// paper's O(kℓ) message count is reproduced faithfully rather than
    /// bypassed with one giant message.
    Batch {
        /// The keys in this chunk (ascending within the sender).
        keys: Vec<K>,
        /// True on the sender's final chunk.
        last: bool,
    },
    /// Leader → all: the ℓ-th smallest key overall; output your keys
    /// `≤ boundary` (`None` = empty answer).
    Boundary {
        /// Upper bound of the answer set.
        boundary: Option<K>,
    },
}

impl<K: Key> Payload for SimpleMsg<K> {
    fn size_bits(&self) -> u64 {
        match self {
            SimpleMsg::Batch { keys, .. } => ENVELOPE_HEADER_BITS + K::BITS * keys.len() as u64,
            SimpleMsg::Boundary { .. } => 2 + K::BITS,
        }
    }
}

/// The leader's gather, which exists only on the leader.
struct Gather<K: Key> {
    /// Every candidate received so far, the leader's own included.
    keys: Vec<K>,
    /// Which machines have delivered their final chunk (`true` for the
    /// leader itself). Per-sender — not a count — so an observably crashed
    /// sender can be written off without hanging the gather.
    finished: Vec<bool>,
}

/// Per-machine instance of the simple gather baseline.
pub struct SimpleProtocol<K: Key> {
    leader: MachineId,
    ell: u64,
    /// Keys per [`SimpleMsg::Batch`]; pick
    /// `⌊(B − ENVELOPE_HEADER_BITS) / K::BITS⌋.max(1)` to model one full
    /// link-round per message.
    chunk: usize,
    /// Local top-ℓ, sorted.
    candidates: Vec<K>,
    /// Round 0 has run.
    started: bool,
    /// `Some` exactly on the leader.
    gather: Option<Gather<K>>,
}

impl<K: Key> SimpleProtocol<K> {
    /// Machine `id`, gathering everyone's `candidates` — the local top-`ell`,
    /// sorted ascending — at `leader`.
    pub fn new(
        id: MachineId,
        leader: MachineId,
        ell: u64,
        chunk: usize,
        candidates: Vec<K>,
    ) -> Self {
        assert!(chunk >= 1, "chunk must be at least 1 key");
        super::debug_assert_candidates(&candidates, ell);
        let gather = (id == leader).then(|| Gather { keys: Vec::new(), finished: Vec::new() });
        SimpleProtocol { leader, ell, chunk, candidates, started: false, gather }
    }
}

impl<K: Key> Protocol for SimpleProtocol<K> {
    type Msg = SimpleMsg<K>;
    type Output = Vec<K>;

    /// A machine that crashed before round 0, or had no candidates, sent the
    /// gather nothing: the protocol still terminates (the leader writes off
    /// observably crashed senders) and the survivors' outputs are exactly
    /// their share of the survivors' answer, so the crash is salvageable
    /// with an empty contribution. One that already streamed candidates may
    /// have placed them in the leader's gather and boundary — an answer it
    /// can no longer claim — so it salvages nothing and the run is retried
    /// over the survivors.
    fn on_crash(&mut self) -> Option<Vec<K>> {
        (!self.started || self.candidates.is_empty()).then(Vec::new)
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, SimpleMsg<K>>) -> Step<Vec<K>> {
        if !self.started {
            self.started = true;
            let Some(g) = &mut self.gather else {
                // Stream the whole local top-ℓ; the bandwidth-limited link
                // delivers it over ⌈ℓ/chunk⌉ rounds.
                if self.candidates.is_empty() {
                    ctx.send(self.leader, SimpleMsg::Batch { keys: Vec::new(), last: true });
                } else {
                    let chunks: Vec<&[K]> = self.candidates.chunks(self.chunk).collect();
                    let n = chunks.len();
                    for (i, chunk) in chunks.into_iter().enumerate() {
                        ctx.send(
                            self.leader,
                            SimpleMsg::Batch { keys: chunk.to_vec(), last: i + 1 == n },
                        );
                    }
                }
                // From here on a worker only reads the leader's boundary.
                return Step::Wait;
            };
            if ctx.k() == 1 {
                return Step::Done(self.candidates.clone());
            }
            g.keys = self.candidates.clone();
            g.finished = vec![false; ctx.k()];
            g.finished[ctx.id()] = true;
            return Step::Continue;
        }

        for env in ctx.inbox() {
            match (&env.msg, &mut self.gather) {
                (SimpleMsg::Batch { keys, last }, Some(g)) => {
                    g.keys.extend_from_slice(keys);
                    g.finished[env.src] |= *last;
                }
                (&SimpleMsg::Boundary { boundary }, None) => {
                    return Step::Done(super::at_or_below(&self.candidates, boundary))
                }
                (_, None) => unreachable!("a worker is sent only the boundary (see `protocols`)"),
                (_, Some(_)) => unreachable!("the leader is sent only batches (see `protocols`)"),
            }
        }
        let Some(g) = &mut self.gather else {
            // A worker only reads the leader's boundary.
            return Step::Wait;
        };
        // A sender counts as finished once its final chunk arrived — or
        // once it is observably crashed: a fail-stop machine will never
        // complete its stream, so waiting would deadlock. Its in-flight
        // chunks may still arrive after we finish; fail-stop recovery
        // accepts that loss and the answer is flagged degraded by the
        // runner.
        if !(0..ctx.k()).all(|s| g.finished[s] || ctx.crashed(s)) {
            // Not `Wait`: `ctx.crashed(s)` turns true with the round number,
            // not with mail, so an empty inbox can still complete the
            // gather.
            return Step::Continue;
        }
        // All kℓ candidates are in: the ℓ-th smallest bounds the answer, and
        // a linear-time selection finds it.
        let answer = (self.ell as usize).min(g.keys.len());
        let boundary = answer.checked_sub(1).map(|at| *g.keys.select_nth_unstable(at).1);
        ctx.broadcast(SimpleMsg::Boundary { boundary });
        Step::Done(super::at_or_below(&self.candidates, boundary))
    }
}

#[cfg(test)]
mod tests {
    use super::super::top_ell;
    use super::*;
    use kmachine::engine::run_sync;
    use kmachine::{BandwidthMode, FaultPlan, NetConfig};
    use knn_workloads::partition::{PartitionStrategy, ALL_STRATEGIES};
    use proptest::prelude::*;

    fn run_simple(
        shards: Vec<Vec<u64>>,
        ell: u64,
        seed: u64,
        chunk: usize,
    ) -> (Vec<u64>, kmachine::RunMetrics) {
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(seed);
        let protos: Vec<SimpleProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| SimpleProtocol::new(i, 0, ell, chunk, top_ell(local, ell)))
            .collect();
        let out = run_sync(&cfg, protos).expect("simple run");
        let mut merged: Vec<u64> = out.outputs.into_iter().flatten().collect();
        merged.sort_unstable();
        (merged, out.metrics)
    }

    fn expected(shards: &[Vec<u64>], ell: usize) -> Vec<u64> {
        let mut all: Vec<u64> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        all.truncate(ell);
        all
    }

    #[test]
    fn gathers_and_selects() {
        let shards = vec![vec![100, 5, 200], vec![7, 300, 2], vec![50, 60, 1]];
        let (got, _) = run_simple(shards.clone(), 4, 1, 4);
        assert_eq!(got, expected(&shards, 4));
    }

    #[test]
    fn all_strategies_and_edges() {
        let all: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(48271) % 10_000).collect();
        for strat in ALL_STRATEGIES {
            let shards = strat.split(all.clone(), 5, 3);
            let (got, _) = run_simple(shards, 20, 3, 4);
            assert_eq!(got, expected(std::slice::from_ref(&all), 20), "{strat:?}");
        }
        // Edge cases.
        assert_eq!(run_simple(vec![vec![], vec![]], 5, 0, 4).0, Vec::<u64>::new());
        assert_eq!(run_simple(vec![vec![1], vec![]], 0, 0, 4).0, Vec::<u64>::new());
        assert_eq!(run_simple(vec![vec![2, 1]], 9, 0, 4).0, vec![1, 2]);
    }

    #[test]
    fn rounds_scale_linearly_with_ell() {
        // Θ(ℓ) rounds: with 128-bit batches of 1 key over a 512-bit link...
        // chunk=1 gives one key per message; bandwidth 128 bits/round gives
        // one message per round — so rounds ≈ ℓ.
        let k = 4;
        let data: Vec<u64> = (0..4096).collect();
        let mk = |ell: u64| {
            let shards = PartitionStrategy::Shuffled.split(data.clone(), k, 1);
            let cfg = NetConfig::new(k)
                .with_seed(1)
                .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 97 });
            let protos: Vec<SimpleProtocol<u64>> = shards
                .into_iter()
                .enumerate()
                .map(|(i, local)| SimpleProtocol::new(i, 0, ell, 1, top_ell(local, ell)))
                .collect();
            run_sync(&cfg, protos).unwrap().metrics.rounds
        };
        let r64 = mk(64);
        let r256 = mk(256);
        assert!(r64 >= 64, "r64 = {r64}");
        let ratio = r256 as f64 / r64 as f64;
        assert!(
            (3.0..5.0).contains(&ratio),
            "rounds should scale ~4x when ℓ quadruples: {r64} -> {r256}"
        );
    }

    #[test]
    fn message_count_is_k_times_ell_over_chunk() {
        let k = 6;
        let ell = 32u64;
        let shards: Vec<Vec<u64>> =
            (0..k as u64).map(|i| (0..200).map(|j| i * 1000 + j).collect()).collect();
        let (_, m) = run_simple(shards, ell, 2, 1);
        // (k-1) machines send ell keys each + final boundary broadcast.
        assert_eq!(m.messages, (k as u64 - 1) * ell + (k as u64 - 1));
    }

    #[test]
    fn leader_writes_off_a_crashed_worker() {
        // Machine 1 crashes before it ever sends: the leader observes the
        // horizon, selects over the surviving candidates, and the crashed
        // machine salvages an empty output — no stall, no error.
        let shards = vec![vec![10u64, 20, 30], vec![1, 2, 3], vec![100, 200, 300]];
        let cfg = NetConfig::new(3).with_faults(FaultPlan::default().with_crash(1, 0));
        let protos: Vec<SimpleProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| SimpleProtocol::new(i, 0, 4, 2, top_ell(local, 4)))
            .collect();
        let out = run_sync(&cfg, protos).expect("crash is salvaged in-run");
        assert_eq!(out.faults.crashed, vec![1]);
        assert!(out.outputs[1].is_empty());
        let mut merged: Vec<u64> = out.outputs.into_iter().flatten().collect();
        merged.sort_unstable();
        // Machine 1's keys are lost; the best 4 of the survivors win.
        assert_eq!(merged, vec![10, 20, 30, 100]);
    }

    #[test]
    fn leader_rejoin_is_byte_identical_to_fault_free() {
        use crate::runner::{run_query, Algorithm, QueryOptions};
        use kmachine::RecoveryPlan;
        use knn_points::{Dataset, IdAssigner, ScalarPoint};
        // Tight bandwidth stretches the gather over many rounds, so the
        // leader's crash interrupts it mid-stream; the query re-runs once
        // the leader is back, to the exact fault-free answer and costs.
        let mut ids = IdAssigner::new(0);
        let shards: Vec<Dataset<ScalarPoint>> =
            [[10u64, 20, 30, 40], [1, 2, 3, 4], [100, 200, 300, 400]]
                .iter()
                .map(|vals| {
                    Dataset::from_points(vals.iter().map(|&v| ScalarPoint(v)).collect(), &mut ids)
                })
                .collect();
        let bandwidth = BandwidthMode::Enforce { bits_per_round: 161 };
        let clean = QueryOptions { bandwidth, seed: 9, ..Default::default() };
        let healing = QueryOptions {
            recovery: RecoveryPlan::default().with_rejoin(0, 2, 4),
            ..clean.clone()
        };
        let q = ScalarPoint(0);
        let want = run_query(&shards, &q, 6, Algorithm::Simple, &clean).unwrap();
        let out = run_query(&shards, &q, 6, Algorithm::Simple, &healing).unwrap();
        assert_eq!(out.local_keys, want.local_keys);
        assert_eq!(out.metrics, want.metrics);
        assert_eq!((out.attempts, out.leader), (2, 0));
        assert_eq!(out.recovery.rejoined, vec![0]);
        assert!(out.faults.crashed.is_empty(), "the answering run had no crash");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_simple_matches_sequential(
            values in proptest::collection::hash_set(any::<u64>(), 0..120),
            k in 1usize..7,
            ell in 0u64..30,
            chunk in 1usize..9,
            seed in 0u64..200,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let want = expected(std::slice::from_ref(&values), ell as usize);
            let shards = PartitionStrategy::RoundRobin.split(values, k, seed);
            let (got, _) = run_simple(shards, ell, seed, chunk);
            prop_assert_eq!(got, want);
        }
    }
}

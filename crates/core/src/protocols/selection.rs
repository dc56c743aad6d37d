//! **Algorithm 1** as a standalone [`Protocol`]: Finding-ℓ-Smallest-Points.
//!
//! Theorem 2.2: `O(log n)` rounds and `O(k log n)` messages, both with high
//! probability, for n keys distributed arbitrarily over k machines.

use kmachine::{Ctx, MachineId, Protocol, Step};
use knn_points::Key;

use super::select_core::{CoreStatus, SelMsg, SelectCore};

/// Per-machine instance of distributed randomized selection.
///
/// Every machine outputs the subset of *its own* keys that belong to the
/// global ℓ-smallest set; the union over machines is exactly that set
/// (keys are assumed distinct, which [`knn_points::DistKey`] guarantees by
/// construction).
pub struct SelectProtocol<K: Key> {
    core: SelectCore<K>,
    leader: MachineId,
    /// Scratch for the core's outgoing messages, reused across rounds.
    out: Vec<(MachineId, SelMsg<K>)>,
    /// Pivot iterations observed (leader only) — exposed for the
    /// Theorem 2.2 experiments.
    pub iterations: u64,
}

impl<K: Key> SelectProtocol<K> {
    /// Machine `id` of `k`, selecting the `ell` smallest keys; `local` is
    /// this machine's share (any order, any size, may be empty).
    pub fn new(id: MachineId, k: usize, leader: MachineId, ell: u64, local: Vec<K>) -> Self {
        SelectProtocol {
            core: SelectCore::new(id, k, leader, ell, local),
            leader,
            out: Vec::new(),
            iterations: 0,
        }
    }
}

impl<K: Key> Protocol for SelectProtocol<K> {
    type Msg = SelMsg<K>;
    type Output = Vec<K>;

    fn on_round(&mut self, ctx: &mut Ctx<'_, SelMsg<K>>) -> Step<Vec<K>> {
        let out = &mut self.out;
        let mut status = CoreStatus::Running;
        if ctx.round() == 0 {
            if ctx.id() == self.leader {
                status = self.core.start(ctx.rng(), out);
                // Single-machine clusters run the whole search locally.
                while ctx.k() == 1 && status == CoreStatus::Running {
                    status = self.core.poke(ctx.rng(), out);
                }
            }
        } else {
            for env in ctx.inbox() {
                let st = self.core.handle(env.src, &env.msg, ctx.rng(), out);
                if let CoreStatus::Finished { .. } = st {
                    status = st;
                }
            }
        }
        for (dst, msg) in out.drain(..) {
            ctx.send(dst, msg);
        }
        match status {
            // The core only ever reacts to mail.
            CoreStatus::Running => Step::Wait,
            CoreStatus::Finished { boundary } => {
                self.iterations = self.core.iterations();
                Step::Done(self.core.output_for(boundary))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmachine::engine::{run_event, run_sync};
    use kmachine::{BandwidthMode, NetConfig};
    use knn_workloads::partition::{PartitionStrategy, ALL_STRATEGIES};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    /// Run distributed selection and return the merged, sorted output.
    fn run_selection(
        shards: Vec<Vec<u64>>,
        ell: u64,
        seed: u64,
    ) -> (Vec<u64>, kmachine::RunMetrics) {
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(seed);
        let protos: Vec<SelectProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| SelectProtocol::new(i, k, 0, ell, local))
            .collect();
        let out = run_sync(&cfg, protos).expect("selection run");
        let mut merged: Vec<u64> = out.outputs.into_iter().flatten().collect();
        merged.sort_unstable();
        (merged, out.metrics)
    }

    fn expected_smallest(shards: &[Vec<u64>], ell: usize) -> Vec<u64> {
        let mut all: Vec<u64> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        all.truncate(ell);
        all
    }

    #[test]
    fn selects_smallest_across_machines() {
        let shards = vec![vec![10, 40, 70], vec![20, 50, 80], vec![30, 60, 90]];
        let (got, _) = run_selection(shards.clone(), 4, 1);
        assert_eq!(got, expected_smallest(&shards, 4));
    }

    #[test]
    fn ell_equals_n_returns_everything() {
        let shards = vec![vec![3, 1], vec![2]];
        let (got, _) = run_selection(shards, 3, 2);
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn ell_larger_than_n_returns_everything() {
        let shards = vec![vec![3, 1], vec![2]];
        let (got, _) = run_selection(shards, 100, 3);
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn ell_zero_returns_nothing() {
        let shards = vec![vec![3, 1], vec![2]];
        let (got, _) = run_selection(shards, 0, 4);
        assert!(got.is_empty());
    }

    #[test]
    fn empty_machines_are_fine() {
        let shards = vec![vec![], vec![5, 1, 9], vec![], vec![7]];
        let (got, _) = run_selection(shards, 2, 5);
        assert_eq!(got, vec![1, 5]);
    }

    #[test]
    fn all_data_on_one_machine() {
        let shards = vec![(0..100u64).rev().collect(), vec![], vec![]];
        let (got, _) = run_selection(shards, 10, 6);
        assert_eq!(got, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn single_machine_cluster() {
        let shards = vec![vec![9, 2, 7, 4]];
        let (got, m) = run_selection(shards, 2, 7);
        assert_eq!(got, vec![2, 4]);
        assert_eq!(m.messages, 0, "k=1 needs no communication");
        assert_eq!(m.rounds, 0);
    }

    #[test]
    fn adversarial_sorted_contiguous_layout() {
        // Machine 0 holds exactly the answer; the protocol must not be
        // confused by the fully-sorted layout.
        let all: Vec<u64> = (0..256).collect();
        let shards = PartitionStrategy::Contiguous.split(all, 8, 0);
        let (got, _) = run_selection(shards, 16, 8);
        assert_eq!(got, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn every_partition_strategy_gives_same_answer() {
        let all: Vec<u64> = (0..300u64).map(|i| i * 7919 % 100_000).collect();
        let expected = expected_smallest(std::slice::from_ref(&all), 25);
        for strat in ALL_STRATEGIES {
            let shards = strat.split(all.clone(), 6, 42);
            let (got, _) = run_selection(shards, 25, 9);
            assert_eq!(got, expected, "{strat:?}");
        }
    }

    #[test]
    fn rounds_scale_logarithmically_not_linearly() {
        // Theorem 2.2: O(log n) rounds. With n = 4096 keys the search
        // should take on the order of 4·log2(n) ≈ 48 rounds, nowhere near
        // n rounds. Allow generous slack for randomness over 5 seeds.
        let mut rng = StdRng::seed_from_u64(77);
        let all: Vec<u64> = (0..4096u64).map(|_| rng.random::<u64>()).collect();
        for seed in 0..5 {
            let shards = PartitionStrategy::Shuffled.split(all.clone(), 16, seed);
            let (_, m) = run_selection(shards, 100, seed);
            assert!(m.rounds <= 150, "rounds = {} at seed {seed}", m.rounds);
        }
    }

    #[test]
    fn message_count_is_o_k_log_n() {
        let mut rng = StdRng::seed_from_u64(78);
        let all: Vec<u64> = (0..4096u64).map(|_| rng.random::<u64>()).collect();
        let k = 32;
        let shards = PartitionStrategy::Shuffled.split(all, k, 0);
        let (_, m) = run_selection(shards, 64, 1);
        // Each iteration costs ~3k messages; O(log n) iterations.
        let bound = 3 * (k as u64) * 40;
        assert!(m.messages <= bound, "messages = {} > {bound}", m.messages);
    }

    #[test]
    fn event_engine_agrees_with_sync() {
        let shards = vec![vec![10u64, 40, 70, 15], vec![20, 50, 80], vec![30, 60, 90, 5, 6]];
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(13).with_event_workers(2);
        let mk = |shards: &[Vec<u64>]| {
            shards
                .iter()
                .enumerate()
                .map(|(i, local)| SelectProtocol::new(i, k, 0, 5, local.clone()))
                .collect::<Vec<_>>()
        };
        let a = run_sync(&cfg, mk(&shards)).unwrap();
        let b = run_event(&cfg, mk(&shards)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
        assert_eq!(a.metrics.messages, b.metrics.messages);
    }

    #[test]
    fn non_zero_leader_works() {
        let shards = vec![vec![10u64, 40], vec![20, 50], vec![30, 60]];
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(21);
        let protos: Vec<SelectProtocol<u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| SelectProtocol::new(i, k, 2, 3, local))
            .collect();
        let out = run_sync(&cfg, protos).unwrap();
        let mut merged: Vec<u64> = out.outputs.into_iter().flatten().collect();
        merged.sort_unstable();
        assert_eq!(merged, vec![10, 20, 30]);
    }

    #[test]
    fn unlimited_bandwidth_does_not_change_output() {
        let shards = vec![vec![5u64, 3, 8], vec![1, 9, 2]];
        let k = shards.len();
        let mk = |shards: &[Vec<u64>]| {
            shards
                .iter()
                .enumerate()
                .map(|(i, local)| SelectProtocol::new(i, k, 0, 3, local.clone()))
                .collect::<Vec<_>>()
        };
        let a = run_sync(&NetConfig::new(k).with_seed(1), mk(&shards)).unwrap();
        let b = run_sync(
            &NetConfig::new(k).with_seed(1).with_bandwidth(BandwidthMode::Unlimited),
            mk(&shards),
        )
        .unwrap();
        assert_eq!(a.outputs, b.outputs);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_sequential_selection(
            values in proptest::collection::hash_set(any::<u64>(), 0..150),
            k in 1usize..9,
            ell_frac in 0.0f64..1.2,
            strat_idx in 0usize..5,
            seed in 0u64..500,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let ell = (values.len() as f64 * ell_frac) as u64;
            let expected = expected_smallest(std::slice::from_ref(&values), ell as usize);
            let shards = ALL_STRATEGIES[strat_idx].split(values, k, seed);
            let (got, _) = run_selection(shards, ell, seed);
            prop_assert_eq!(got, expected);
        }
    }
}

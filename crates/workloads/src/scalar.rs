//! The paper's experimental workload: uniform integers on a line.

use knn_points::{Dataset, IdAssigner, Record, ScalarPoint};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use rayon::prelude::*;

/// Generator configuration for per-machine uniform scalar data.
///
/// The paper's §3 setup is [`ScalarWorkload::paper_full`]: each of the k
/// processes draws 2²² values uniformly from `[0, 2³² − 1]`. The default is
/// a 2¹⁶-per-machine scale suitable for tests and quick experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarWorkload {
    /// Points generated by each machine.
    pub per_machine: usize,
    /// Inclusive lower bound of the value range.
    pub lo: u64,
    /// Exclusive upper bound of the value range.
    pub hi: u64,
}

impl Default for ScalarWorkload {
    fn default() -> Self {
        ScalarWorkload { per_machine: 1 << 16, lo: 0, hi: 1 << 32 }
    }
}

impl ScalarWorkload {
    /// The paper's full-scale configuration: 2²² points per machine in
    /// `[0, 2³²)`.
    pub fn paper_full() -> Self {
        ScalarWorkload { per_machine: 1 << 22, lo: 0, hi: 1 << 32 }
    }

    /// A small configuration for unit tests.
    pub fn small(per_machine: usize) -> Self {
        ScalarWorkload { per_machine, ..Default::default() }
    }

    /// Generate `k` per-machine shards. Machines generate independently
    /// (matching the paper: "each process generated … points
    /// independently"), in parallel via rayon — one work item per machine,
    /// so a pool of p threads generates min(k, p) shards concurrently —
    /// with ids unique across the whole cluster. Each machine's RNG stream
    /// is derived from `(seed, machine)` alone, so the output is
    /// byte-identical at every pool size.
    pub fn generate(&self, k: usize, seed: u64) -> Vec<Dataset<ScalarPoint>> {
        assert!(self.lo < self.hi, "empty value range");
        (0..k)
            .into_par_iter()
            .map(|machine| {
                let mut rng = StdRng::seed_from_u64(
                    seed ^ (machine as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
                );
                let mut ids = IdAssigner::with_stream(seed, machine as u64);
                let records = (0..self.per_machine)
                    .map(|_| Record {
                        id: ids.next_id(),
                        point: ScalarPoint(rng.random_range(self.lo..self.hi)),
                        label: None,
                    })
                    .collect();
                Dataset::new(records)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn shards_have_requested_size_and_range() {
        let w = ScalarWorkload { per_machine: 500, lo: 10, hi: 1000 };
        let shards = w.generate(4, 7);
        assert_eq!(shards.len(), 4);
        for s in &shards {
            assert_eq!(s.len(), 500);
            assert!(s.records.iter().all(|r| (10..1000).contains(&r.point.0)));
        }
    }

    #[test]
    fn ids_unique_across_machines() {
        let shards = ScalarWorkload::small(1000).generate(8, 3);
        let mut seen = HashSet::new();
        for s in &shards {
            for r in &s.records {
                assert!(seen.insert(r.id), "duplicate id across shards");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ScalarWorkload::small(100).generate(3, 11);
        let b = ScalarWorkload::small(100).generate(3, 11);
        let c = ScalarWorkload::small(100).generate(3, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn machines_generate_independently() {
        let shards = ScalarWorkload::small(100).generate(2, 5);
        let v0: Vec<u64> = shards[0].records.iter().map(|r| r.point.0).collect();
        let v1: Vec<u64> = shards[1].records.iter().map(|r| r.point.0).collect();
        assert_ne!(v0, v1);
    }

    #[test]
    fn generation_is_pool_size_invariant() {
        let w = ScalarWorkload::small(2000);
        let pool = |t: usize| rayon::ThreadPoolBuilder::new().num_threads(t).build().expect("pool");
        let base = pool(1).install(|| w.generate(6, 13));
        for t in [2usize, 8] {
            assert_eq!(pool(t).install(|| w.generate(6, 13)), base, "pool {t}");
        }
    }

    #[test]
    fn paper_full_matches_paper_parameters() {
        let w = ScalarWorkload::paper_full();
        assert_eq!(w.per_machine, 1 << 22);
        assert_eq!(w.lo, 0);
        assert_eq!(w.hi, 1 << 32);
    }

    #[test]
    #[should_panic(expected = "empty value range")]
    fn bad_range_panics() {
        let w = ScalarWorkload { per_machine: 1, lo: 5, hi: 5 };
        let _ = w.generate(1, 0);
    }
}

//! Exhaustive small-scope certificate for the four algorithms.
//!
//! Every cluster of k ∈ {1, 2, 3} machines whose shards each hold a
//! multiset of 0–3 points at three distances from the query (distinct ids,
//! so many distance ties), every ℓ from 1 to the population + 1, through
//! every entry point: `query_with`, `query_batch_with`, `query_approx` and
//! `runner::run_query`. Algorithm 2 runs at the sampling constants (1, 1),
//! (1, 2) and the paper's (12, 21), so its sample size m lands on both
//! sides of every candidate-list length: lists that go whole and end at the
//! sampling stage, lists of exactly m, sampled lists that prune and roll
//! back.
//!
//! Each case asserts:
//!
//! * every exact answer equals brute force;
//! * every approximate answer holds the exact answer as its prefix;
//! * every Algorithm 2 answer's [`KnnStats`], exact and approximate, on
//!   every entry point, shows the count round's invariant: the prune was
//!   rolled back, or at least `min(ℓ, total_candidates)` survived it;
//! * every answer, counter and [`KnnStats`] is identical at pool sizes 1
//!   and 2.
//!
//! Tier-1 runs every k = 1 case and a strided subset of the rest; the whole
//! enumeration is ignored by default and runs in release:
//!
//! ```text
//! cargo test --release --test small_scope -- --ignored
//! ```

use kmachine::RunMetrics;
use knn_core::cluster::{KnnAnswer, KnnCluster};
use knn_core::protocols::{KnnParams, KnnStats};
use knn_core::runner::{merge_answers, run_query, Algorithm};
use knn_points::{Dataset, DistKey, IdAssigner, Metric, Point, ScalarPoint};
use rayon::{ThreadPool, ThreadPoolBuilder};

/// Distances from the query: a point at `v` lies at distance `v` from 0.
const VALUES: u64 = 3;
/// Largest shard.
const MAX_PER_SHARD: usize = 3;
/// Algorithm 2's `(sample_factor, rank_factor)` settings.
const FACTORS: [(u32, u32); 3] = [(1, 1), (1, 2), (12, 21)];
/// The query every entry point answers, and the second query of a batch.
const QUERIES: [ScalarPoint; 2] = [ScalarPoint(0), ScalarPoint(2)];

/// Every multiset of 0..=`MAX_PER_SHARD` values below `VALUES`, ascending.
fn multisets() -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..MAX_PER_SHARD {
        let mut next = Vec::new();
        for set in &frontier {
            let from = set.last().copied().unwrap_or(0);
            for v in from..VALUES {
                let mut grown: Vec<u64> = set.clone();
                grown.push(v);
                next.push(grown);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// Every shard layout of k ≤ 3 machines, k = 1 first.
fn layouts() -> Vec<Vec<Vec<u64>>> {
    let sets = multisets();
    let mut out: Vec<Vec<Vec<u64>>> = Vec::new();
    let mut level: Vec<Vec<Vec<u64>>> = vec![Vec::new()];
    for _ in 0..3 {
        level = level
            .iter()
            .flat_map(|layout| {
                sets.iter().map(move |set| {
                    let mut grown = layout.clone();
                    grown.push(set.clone());
                    grown
                })
            })
            .collect();
        out.extend(level.iter().cloned());
    }
    out
}

/// What one run shows that must not depend on the pool size: the answer's
/// `(distance, id)` keys, its counters and Algorithm 2's diagnostics.
type Seen = (Vec<DistKey>, RunMetrics, Option<KnnStats>);

fn seen(answer: &KnnAnswer) -> Seen {
    let keys = answer.neighbors.iter().map(|n| DistKey::new(n.dist, n.id)).collect();
    (keys, answer.report.metrics.clone(), answer.stats)
}

/// The count round's invariant on an Algorithm 2 answer's stats (none on
/// the baselines): the prune was rolled back, or it kept at least
/// `min(ℓ, total_candidates)`.
fn assert_counted(stats: Option<KnnStats>, ell: usize, what: &str) {
    if let Some(s) = stats {
        let floor = (ell as u64).min(s.total_candidates);
        assert!(s.rolled_back || s.survivors >= floor, "{what}: undershot prune kept: {s:?}");
    }
}

/// One layout, loaded into one cluster per Algorithm 2 setting.
struct Case {
    shards: Vec<Dataset<ScalarPoint>>,
    /// Every point's key per query, ascending: brute force.
    sorted: [Vec<DistKey>; 2],
}

impl Case {
    fn new(layout: &[Vec<u64>]) -> Self {
        let mut ids = IdAssigner::new(0);
        let shards: Vec<Dataset<ScalarPoint>> = layout
            .iter()
            .map(|values| {
                Dataset::from_points(values.iter().map(|&v| ScalarPoint(v)).collect(), &mut ids)
            })
            .collect();
        let sorted = QUERIES.map(|q| {
            let mut keys: Vec<DistKey> = shards
                .iter()
                .flat_map(|shard| &shard.records)
                .map(|r| DistKey::new(r.point.distance(&q, Metric::Euclidean), r.id))
                .collect();
            keys.sort_unstable();
            keys
        });
        Case { shards, sorted }
    }

    fn cluster(&self, seed: u64, params: KnnParams) -> KnnCluster {
        let mut cluster: KnnCluster =
            KnnCluster::builder().machines(self.shards.len()).seed(seed).knn_params(params).build();
        cluster.load_shards(self.shards.clone()).expect("one shard per machine");
        cluster
    }

    fn brute(&self, query: usize, ell: usize) -> &[DistKey] {
        &self.sorted[query][..ell.min(self.sorted[query].len())]
    }

    /// Run every algorithm × entry point × setting at every ℓ, check each
    /// answer, and return what each run showed.
    fn certify(&self, seed: u64) -> Vec<Seen> {
        let mut log = Vec::new();
        let population = self.sorted[0].len();
        let clusters = FACTORS.map(|(sample_factor, rank_factor)| {
            let params = KnnParams { sample_factor, rank_factor };
            (params, self.cluster(seed, params))
        });
        for ell in 1..=population + 1 {
            for (params, cluster) in &clusters {
                let default = *params == KnnParams::default();
                for algo in Algorithm::ALL {
                    // The baselines ignore Algorithm 2's settings: run them
                    // once, on the default cluster.
                    if algo != Algorithm::Knn && !default {
                        continue;
                    }
                    let what = format!("{algo:?} {params:?} ℓ = {ell}");
                    let exact = |(keys, _, stats): &Seen, query: usize, entry: &str| {
                        assert_eq!(keys, self.brute(query, ell), "{entry} {what}");
                        assert_counted(*stats, ell, &format!("{entry} {what}"));
                    };

                    let single = cluster.query_with(algo, &QUERIES[0], ell).expect("query");
                    exact(&seen(&single), 0, "query_with");
                    log.push(seen(&single));

                    let batch = cluster.query_batch_with(algo, &QUERIES, ell).expect("query_batch");
                    for (query, answer) in batch.answers.iter().enumerate() {
                        exact(&seen(answer), query, "query_batch_with");
                        log.push(seen(answer));
                    }
                    log.push((Vec::new(), batch.report.metrics.clone(), None));

                    let out = run_query(&self.shards, &QUERIES[0], ell, algo, cluster.options())
                        .expect("run_query");
                    let keys: Vec<DistKey> =
                        merge_answers(&out.local_keys).into_iter().map(|(key, _)| key).collect();
                    let run = (keys, out.report.metrics.clone(), out.stats);
                    exact(&run, 0, "run_query");
                    log.push(run);
                }

                let approx = cluster.query_approx(&QUERIES[0], ell).expect("query_approx");
                let (keys, _, stats) = seen(&approx);
                let what = format!("query_approx {params:?} ℓ = {ell}");
                let want = self.brute(0, ell);
                assert!(keys.is_sorted(), "{what}: unsorted");
                assert!(keys.len() >= want.len(), "{what}: short");
                assert_eq!(&keys[..want.len()], want, "{what}: no exact prefix");
                assert!(stats.is_some(), "{what}: no stats");
                assert_counted(stats, ell, &what);
                log.push(seen(&approx));
            }
        }
        log
    }
}

fn pool(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("pool")
}

/// Certify every layout whose index is a multiple of `stride` (k = 1
/// layouts always), at pool sizes 1 and 2; returns how many ran.
fn certify_every(stride: usize) -> usize {
    let (one, two) = (pool(1), pool(2));
    let mut ran = 0;
    for (i, layout) in layouts().iter().enumerate() {
        if layout.len() > 1 && i % stride != 0 {
            continue;
        }
        let case = Case::new(layout);
        let seed = i as u64;
        let at_one = one.install(|| case.certify(seed));
        let at_two = two.install(|| case.certify(seed));
        assert!(at_one == at_two, "layout {layout:?}: pool 1 and pool 2 disagree");
        ran += 1;
    }
    ran
}

#[test]
fn small_scope_strided() {
    // 1 + 3 + 6 + 10 multisets per shard, k = 1, 2, 3.
    assert_eq!(layouts().len(), 20 + 20 * 20 + 20 * 20 * 20);
    assert_eq!(certify_every(53), 20 + 7 + 151);
}

#[test]
#[ignore = "the whole enumeration: run in release (see module docs)"]
fn small_scope_exhaustive() {
    assert_eq!(certify_every(1), 20 + 20 * 20 + 20 * 20 * 20);
}

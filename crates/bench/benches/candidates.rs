//! The candidate stage (`knn_core::local::candidate_stage`) under a 1-thread
//! pool against the ambient pool, on the benchmark's three cell shapes:
//!
//! * `scan-8x2^17` — the full-scan `run_query` over `scalar_single`'s
//!   shards: 8 scans of 2¹⁷ scalar points (≈ 240 µs a cell), known up front
//!   to be worth the pool;
//! * `kdtree-8x8` — `vector_exact_churn`: 8 machines × 8 queries through
//!   16-d k-d trees of 2¹² points at ℓ = 10 (≈ 35 µs a cell), timed into
//!   the pool by its first cell;
//! * `sorted-16x1` — a one-query batch on `scalar_batch`: 16 cells of
//!   ≈ 1.5 µs through sorted arrays. Too small to repay a pool operation, so it
//!   must stay inline: both rows read the same. Each cell reads the next of
//!   4,096 seeded random queries, so, as on the workloads, a call finds
//!   little of its shard in cache beyond the index's directory.
//!
//! On a 1-CPU host the ambient pool is 1 and every pair reads the same.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kmachine::MachineId;
use knn_core::local::{brute_top, candidate_stage};
use knn_core::{IndexBackend, ShardIndex};
use knn_points::{Dataset, DistKey, IdAssigner, Metric, ScalarPoint, VecPoint};
use knn_workloads::{GaussianMixture, PartitionStrategy, ScalarWorkload};
use rand::{rngs::StdRng, RngExt, SeedableRng};

const METRIC: Metric = Metric::Euclidean;

/// Bench one stage shape at `install(1)` and on the ambient pool.
fn bench_stage(
    c: &mut Criterion,
    name: &str,
    machines: usize,
    queries: usize,
    scan_points: Option<usize>,
    top: impl Fn(MachineId, usize) -> Vec<DistKey> + Sync,
) {
    let alive: Vec<MachineId> = (0..machines).collect();
    let stage = || candidate_stage(&alive, queries, scan_points, &top).expect("no cell panics");
    let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let mut group = c.benchmark_group(format!("candidates-{name}"));
    group.bench_function(BenchmarkId::from_parameter("pool-1"), |b| {
        b.iter(|| black_box(one.install(stage)));
    });
    let ambient = format!("pool-{}", rayon::current_num_threads());
    group.bench_function(BenchmarkId::from_parameter(ambient), |b| {
        b.iter(|| black_box(stage()));
    });
    group.finish();
}

fn scalar_workload() -> ScalarWorkload {
    ScalarWorkload::small(1 << 17)
}

fn scalar_shards(k: usize) -> Vec<Dataset<ScalarPoint>> {
    scalar_workload().generate(k, 7)
}

fn bench_scan(c: &mut Criterion) {
    let shards = scalar_shards(8);
    let (query, ell) = (ScalarPoint(1 << 31), 64);
    let scanned = shards.iter().map(|d| d.records.len()).sum();
    bench_stage(c, "scan-8x2^17", 8, 1, Some(scanned), |m, _| {
        brute_top(&shards[m].records, &query, ell, METRIC)
    });
}

fn bench_kdtree(c: &mut Criterion) {
    let mixture = GaussianMixture { dims: 16, clusters: 5, spread: 1.0, range: 10.0 };
    let data = Dataset::from_labeled(mixture.generate(8 << 12, 7), &mut IdAssigner::new(7));
    let shards = PartitionStrategy::RoundRobin.split(data.records, 8, 7);
    let indices: Vec<ShardIndex<VecPoint>> = shards
        .iter()
        .map(|records| ShardIndex::build(records, IndexBackend::Exact, METRIC))
        .collect();
    let queries: Vec<VecPoint> =
        mixture.generate(8, 8).into_iter().map(|(point, _)| point).collect();
    bench_stage(c, "kdtree-8x8", 8, 8, None, |m, j| {
        indices[m].top(&shards[m], &queries[j], 10, METRIC)
    });
}

fn bench_sorted(c: &mut Criterion) {
    let shards = scalar_shards(16);
    let indices: Vec<ShardIndex<ScalarPoint>> =
        shards.iter().map(|d| ShardIndex::build(&d.records, IndexBackend::Exact, METRIC)).collect();
    let workload = scalar_workload();
    let mut rng = StdRng::seed_from_u64(8);
    let pool: Vec<ScalarPoint> =
        (0..4096).map(|_| ScalarPoint(rng.random_range(workload.lo..workload.hi))).collect();
    let next = AtomicUsize::new(0);
    bench_stage(c, "sorted-16x1", 16, 1, None, |m, _| {
        let query = &pool[next.fetch_add(1, Ordering::Relaxed) % pool.len()];
        indices[m].top(&shards[m].records, query, 64, METRIC)
    });
}

criterion_group!(benches, bench_scan, bench_kdtree, bench_sorted);
criterion_main!(benches);

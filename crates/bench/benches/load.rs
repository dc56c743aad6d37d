//! The cluster's load and its answer resolution, the two places the
//! per-shard id columns are built and read: `load_shards` of 16 × 2¹⁴
//! assigner-id scalar shards (id columns plus sorted-array indices), and one
//! `query_batch` of 64 queries at ℓ = 64, whose answers resolve every
//! neighbour's label through the id columns.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use knn_core::KnnCluster;
use knn_points::{Dataset, ScalarPoint};
use knn_workloads::ScalarWorkload;
use rand::{rngs::StdRng, RngExt, SeedableRng};

const MACHINES: usize = 16;
const PER_MACHINE: usize = 1 << 14;

fn cluster() -> KnnCluster<ScalarPoint> {
    KnnCluster::builder().machines(MACHINES).seed(7).build()
}

fn bench_load(c: &mut Criterion) {
    let workload = ScalarWorkload::small(PER_MACHINE);
    let shards: Vec<Dataset<ScalarPoint>> = workload.generate(MACHINES, 7);
    let mut group = c.benchmark_group("load");
    group.bench_function(BenchmarkId::from_parameter("load_shards-16x2^14"), |b| {
        b.iter_custom(|iters| {
            let mut spent = Duration::ZERO;
            for _ in 0..iters {
                let (copy, mut cluster) = (shards.clone(), cluster());
                let start = Instant::now();
                cluster.load_shards(copy).expect("one shard per machine");
                spent += start.elapsed();
                black_box(cluster);
            }
            spent
        });
    });

    let mut loaded = cluster();
    loaded.load_shards(shards).expect("one shard per machine");
    let mut rng = StdRng::seed_from_u64(8);
    let queries: Vec<ScalarPoint> =
        (0..64).map(|_| ScalarPoint(rng.random_range(workload.lo..workload.hi))).collect();
    group.bench_function(BenchmarkId::from_parameter("query_batch-64-ell64"), |b| {
        b.iter(|| loaded.query_batch(&queries, 64).expect("batch"));
    });
    group.finish();
}

criterion_group!(benches, bench_load);
criterion_main!(benches);

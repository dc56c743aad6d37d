//! Micro-benchmarks of the k-d tree substrate (B-LOCAL): bulk build, ℓ-NN
//! queries against the linear-scan oracle — on 3-d uniform points and on
//! the vector workloads' 16-d mixture shard — and one in-place insert
//! against the rebuild it replaced.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use knn_core::local::brute_top;
use knn_kdtree::KdTree;
use knn_points::{brute_force_knn, Dataset, IdAssigner, Metric, PointId, Record, VecPoint};
use knn_workloads::GaussianMixture;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn records(n: usize, dims: usize, seed: u64) -> Vec<Record<VecPoint>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = IdAssigner::new(seed);
    (0..n)
        .map(|_| Record {
            id: ids.next_id(),
            point: VecPoint::new(
                (0..dims).map(|_| rng.random_range(-100.0..100.0)).collect::<Vec<f64>>(),
            ),
            label: None,
        })
        .collect()
}

fn points(n: usize, dims: usize, seed: u64) -> Vec<(PointId, Box<[f64]>)> {
    records(n, dims, seed).into_iter().map(|r| (r.id, r.point.0)).collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdtree-build");
    for &n in &[1usize << 12, 1 << 15] {
        let input = points(n, 3, 1);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &input, |b, input| {
            b.iter(|| black_box(KdTree::build(input.clone())));
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdtree-query");
    let n = 1usize << 15;
    let recs = records(n, 3, 2);
    let tree = KdTree::from_records(&recs);
    let mut rng = StdRng::seed_from_u64(3);
    let queries: Vec<Vec<f64>> =
        (0..64).map(|_| (0..3).map(|_| rng.random_range(-100.0..100.0)).collect()).collect();

    for &ell in &[1usize, 16, 128] {
        group.bench_with_input(BenchmarkId::new("kdtree", ell), &queries, |b, queries| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % queries.len();
                black_box(tree.knn(&queries[i], ell, Metric::Euclidean))
            });
        });
    }
    group.bench_with_input(BenchmarkId::new("linear-scan", 16usize), &queries, |b, queries| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            black_box(brute_force_knn(
                &recs,
                &VecPoint::new(queries[i].clone()),
                16,
                Metric::Euclidean,
            ))
        });
    });
    group.finish();
}

/// ℓ = 10 queries on one shard of the vector workloads' shape — 4,096
/// points of the 5-cluster 16-d mixture — beside `brute_top`, the linear
/// scan the tree must equal, over the same records: the rows to re-run when
/// sweeping the tree's leaf size.
fn bench_query_16d(c: &mut Criterion) {
    const ELL: usize = 10;
    let mixture = GaussianMixture { dims: 16, clusters: 5, spread: 1.0, range: 10.0 };
    let shard = Dataset::from_labeled(mixture.generate(1 << 12, 7), &mut IdAssigner::new(7));
    let tree = KdTree::from_records(&shard.records);
    let queries: Vec<VecPoint> =
        mixture.generate_with(64, 7, 8).into_iter().map(|(point, _)| point).collect();
    let mut group = c.benchmark_group("kdtree-query-16d");
    group.bench_with_input(BenchmarkId::new("kdtree", ELL), &queries, |b, queries| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            black_box(tree.knn(&queries[i].0, ELL, Metric::Euclidean))
        });
    });
    group.bench_with_input(BenchmarkId::new("brute_top", ELL), &queries, |b, queries| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            black_box(brute_top(&shard.records, &queries[i], ELL, Metric::Euclidean))
        });
    });
    group.finish();
}

/// One `insert` into an n-point 16-d tree (the vector workloads' shape)
/// beside `from_records` over the same points — what a shard paid per insert
/// when the exact index rebuilt. Inserts run in bursts on a fresh clone of
/// the n-point tree, so the tree measured never grows past n + `BURST`.
/// Neither the clone nor its first insert is timed.
fn bench_insert(c: &mut Criterion) {
    const BURST: usize = 256;
    let mut group = c.benchmark_group("kdtree-insert");
    for &n in &[1usize << 12, 1 << 15] {
        let recs = records(n + BURST, 16, 4);
        let base = KdTree::from_records(&recs[..n - 1]);
        group.bench_function(BenchmarkId::new("insert", n), |b| {
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                let mut left = iters as usize;
                while left > 0 {
                    let burst = &recs[n..n + left.min(BURST)];
                    let mut tree = base.clone();
                    tree.insert(recs[n - 1].id, &recs[n - 1].point.0);
                    let start = Instant::now();
                    for r in burst {
                        tree.insert(r.id, &r.point.0);
                    }
                    timed += start.elapsed();
                    black_box(&tree);
                    left -= burst.len();
                }
                timed
            });
        });
        group.bench_function(BenchmarkId::new("from_records", n), |b| {
            b.iter(|| black_box(KdTree::from_records(&recs[..=n])));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_query, bench_query_16d, bench_insert);
criterion_main!(benches);

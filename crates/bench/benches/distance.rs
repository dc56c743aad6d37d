//! Micro-benchmarks of the distance kernels (B-LOCAL) — the inner loop of
//! every machine's local computation (the candidate stage).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use knn_points::{Metric, Point, ScalarPoint, VecPoint};
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn bench_scalar(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let n = 1usize << 16;
    let points: Vec<ScalarPoint> = (0..n).map(|_| ScalarPoint(rng.random())).collect();
    let q = ScalarPoint(rng.random());

    let mut group = c.benchmark_group("distance-scalar");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("abs-diff-sweep", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &points {
                acc ^= p.distance(&q, Metric::Euclidean).as_u64();
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_vector(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance-vector");
    for &dims in &[4usize, 32, 128] {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 1usize << 12;
        let points: Vec<VecPoint> = (0..n)
            .map(|_| {
                VecPoint::new((0..dims).map(|_| rng.random_range(-1.0..1.0)).collect::<Vec<f64>>())
            })
            .collect();
        let q = VecPoint::new((0..dims).map(|_| rng.random_range(-1.0..1.0)).collect::<Vec<f64>>());
        group.throughput(Throughput::Elements(n as u64));
        for metric in [Metric::Euclidean, Metric::SquaredEuclidean, Metric::Manhattan] {
            group.bench_with_input(
                BenchmarkId::new(format!("{metric:?}"), dims),
                &points,
                |b, points| {
                    b.iter(|| {
                        let mut worst = knn_points::Dist::ZERO;
                        for p in points {
                            worst = worst.max(p.distance(&q, metric));
                        }
                        black_box(worst)
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scalar, bench_vector);
criterion_main!(benches);

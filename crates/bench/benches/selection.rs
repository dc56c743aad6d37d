//! Micro-benchmark of the per-machine top-ℓ (B-LOCAL): the bounded heap
//! every machine truncates its local set with, against std
//! `select_nth_unstable`-then-sort — the "local computation" whose
//! parallelization the paper's Figure 2 speedup comes from.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use knn_selection::smallest_k;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn data(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random()).collect()
}

fn bench_top_ell(c: &mut Criterion) {
    let mut group = c.benchmark_group("top-ell");
    let n = 1usize << 17;
    let input = data(n, 3);
    for &ell in &[16usize, 256, 4096] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("bounded-heap", ell), &input, |b, input| {
            b.iter(|| black_box(smallest_k(input.iter().copied(), ell)));
        });
        group.bench_with_input(BenchmarkId::new("select-then-sort", ell), &input, |b, input| {
            b.iter(|| {
                let mut v = input.clone();
                v.select_nth_unstable(ell - 1);
                v.truncate(ell);
                v.sort_unstable();
                black_box(v)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_top_ell);
criterion_main!(benches);

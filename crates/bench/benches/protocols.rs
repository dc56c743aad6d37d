//! Micro-benchmarks of the distributed protocols on the exact (sync)
//! engine: simulation throughput of Algorithm 1, Algorithm 2, and the
//! baselines at a fixed workload. These measure *simulator* cost, not the
//! model's round complexity (that's `rounds_table`); they guard against
//! regressions in the engine hot path. The multiplexed case is the serving
//! shape: 64 Algorithm-2 instances per machine sharing the links, where
//! almost every instance spends almost every round waiting for bandwidth —
//! the cost wake-driven stepping removes.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kmachine::{engine::run_sync, MuxProtocol, NetConfig};
use knn_core::protocols::knn::{KnnParams, KnnProtocol};
use knn_core::protocols::selection::SelectProtocol;
use knn_core::protocols::simple::SimpleProtocol;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn shards(k: usize, per_machine: usize, seed: u64) -> Vec<Vec<u64>> {
    (0..k)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64) << 32);
            (0..per_machine).map(|_| rng.random()).collect()
        })
        .collect()
}

fn bench_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync-engine");
    let k = 16;
    let per_machine = 1usize << 12;
    let ell = 256u64;
    let data = shards(k, per_machine, 7);

    group.bench_with_input(BenchmarkId::new("algorithm1", k), &data, |b, data| {
        b.iter(|| {
            let cfg = NetConfig::new(k).with_seed(3);
            let protos: Vec<SelectProtocol<u64>> = data
                .iter()
                .enumerate()
                .map(|(i, local)| SelectProtocol::new(i, k, 0, ell, local.clone()))
                .collect();
            black_box(run_sync(&cfg, protos).unwrap().metrics.rounds)
        });
    });

    group.bench_with_input(BenchmarkId::new("algorithm2", k), &data, |b, data| {
        b.iter(|| {
            let cfg = NetConfig::new(k).with_seed(3);
            let protos: Vec<KnnProtocol<u64>> = data
                .iter()
                .enumerate()
                .map(|(i, local)| {
                    KnnProtocol::from_keys(i, k, 0, ell, KnnParams::default(), local.clone())
                })
                .collect();
            black_box(run_sync(&cfg, protos).unwrap().metrics.rounds)
        });
    });

    group.bench_with_input(BenchmarkId::new("simple", k), &data, |b, data| {
        b.iter(|| {
            let cfg = NetConfig::new(k).with_seed(3);
            let protos: Vec<SimpleProtocol<u64>> = data
                .iter()
                .enumerate()
                .map(|(i, local)| SimpleProtocol::from_keys(i, 0, ell, 3, local.clone()))
                .collect();
            black_box(run_sync(&cfg, protos).unwrap().metrics.rounds)
        });
    });

    // One batch of 64 queries: instance j of every machine runs Algorithm 2
    // over that machine's keys as query j sees them.
    let (instances, ell) = (64u64, 64u64);
    group.bench_with_input(BenchmarkId::new("algorithm2-mux64", k), &data, |b, data| {
        b.iter(|| {
            let cfg = NetConfig::new(k).with_seed(3);
            let protos: Vec<MuxProtocol<KnnProtocol<u64>>> = data
                .iter()
                .enumerate()
                .map(|(i, local)| {
                    let seat = |j: u64| {
                        let keys = local.iter().map(|x| x ^ j.wrapping_mul(0x9E37_79B9)).collect();
                        KnnProtocol::from_keys(i, k, 0, ell, KnnParams::default(), keys)
                    };
                    MuxProtocol::new((0..instances).map(seat).collect())
                })
                .collect();
            black_box(run_sync(&cfg, protos).unwrap().metrics.rounds)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);

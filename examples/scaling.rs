//! A miniature of the paper's Figure 2, runnable in seconds.
//!
//! ```text
//! cargo run --release --example scaling
//! ```
//!
//! For a grid of (k, ℓ) it runs both Algorithm 2 and the simple baseline
//! on the event engine (machines on a worker pool, 20 µs synthetic
//! per-round latency) and prints the wall-clock ratio — the paper's
//! Figure 2 y-axis. The full-scale reproduction lives in
//! `cargo run -p knn-bench --release --bin fig2`.

use std::time::Duration;

use knn_repro::prelude::*;

fn main() {
    let per_machine = 1 << 14;
    println!("points per machine: {per_machine}");
    println!("{:>4} {:>8} {:>14} {:>14} {:>8}", "k", "ell", "simple", "algorithm2", "ratio");

    for &k in &[2usize, 4, 8] {
        let shards = ScalarWorkload { per_machine, lo: 0, hi: 1 << 32 }.generate(k, 7);
        let mut cluster: KnnCluster = KnnCluster::builder()
            .machines(k)
            .seed(1)
            .engine(Engine::Event)
            .round_latency(Duration::from_micros(20))
            .build();
        cluster.load_shards(shards).expect("shards");

        for &ell in &[64usize, 512, 4096] {
            let q = ScalarPoint(1 << 31);
            let fast = cluster.query_with(Algorithm::Knn, &q, ell).expect("knn");
            let slow = cluster.query_with(Algorithm::Simple, &q, ell).expect("simple");
            assert_eq!(
                fast.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
                slow.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
            );
            println!(
                "{:>4} {:>8} {:>12.2?} {:>12.2?} {:>7.1}x",
                k,
                ell,
                slow.wall,
                fast.wall,
                slow.wall.as_secs_f64() / fast.wall.as_secs_f64()
            );
        }
    }
    println!("\nratio > 1 means the paper's algorithm wins; it grows with ell and k.");
}

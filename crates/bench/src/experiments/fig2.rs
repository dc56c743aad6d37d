//! **Figure 2 reproduction** — "Run-time performance of our Algorithm 2
//! compared to the simple method."
//!
//! Paper setup (§3): k ∈ \[2, 128\] processes on a cluster, 2²² uniform u32
//! points per process, random queries, y-axis = time(simple) / time(Alg 2),
//! x-axis = ℓ. The ratio grows with ℓ and with k (80× at k = 128).
//!
//! Our substitution (README "Performance"): every machine's local
//! computation — the scan of its shard — runs as one stage on the rayon
//! pool before the protocols are seated (`knn_core::local::candidate_stage`),
//! and the lockstep engine then runs the message rounds with a synthetic
//! per-round latency; `wall` covers both. On a host with fewer
//! cores than simulated machines the *local-computation* part of the
//! speedup saturates at the core count, so alongside the wall-clock ratio
//! we report the hardware-independent **round ratio** from the exact engine
//! — the paper's own explanation of the effect ("the number of rounds does
//! not depend on the number of machines … the speed up [in wall clock] is
//! due to local computation").
//!
//! ```text
//! cargo run -p knn-bench --release --bin paper -- fig2 [--full]
//!     [--ks 2,4,8,16] [--ells 16,64,256,1024,4096]
//!     [--per-machine 65536] [--reps 3] [--latency-us 50] [--seed 1]
//! ```

use std::time::Duration;

use knn_core::runner::{run_query, Algorithm, QueryOptions};
use knn_points::ScalarPoint;
use knn_workloads::{query::scalar_queries, ScalarWorkload};

use crate::args::Args;
use crate::emit;
use crate::stats::Summary;
use crate::table::Table;

table_row! {
    struct Cell {
        k: usize,
        ell: usize,
        wall_simple_ms: f64,
        wall_knn_ms: f64,
        wall_ratio: f64,
        rounds_simple: f64,
        rounds_knn: f64,
        round_ratio: f64,
    }
}

/// Print the table and write `results/fig2.{json,csv}`.
pub fn run(args: &Args) {
    let full = args.has("full");
    let ks = args.get_list("ks", if full { &[2, 4, 8, 16, 32, 64] } else { &[2, 4, 8, 16] });
    let ells = args.get_list(
        "ells",
        if full { &[16, 64, 256, 1024, 4096, 16384] } else { &[16, 64, 256, 1024, 4096] },
    );
    let per_machine = args.get("per-machine", if full { 1usize << 18 } else { 1 << 16 });
    let reps = args.get("reps", if full { 10usize } else { 3 });
    let latency = Duration::from_micros(args.get("latency-us", 50));
    let seed = args.get("seed", 1u64);

    println!("Figure 2 reproduction: time(simple) / time(Algorithm 2)");
    println!(
        "per-machine points = {per_machine}, reps = {reps}, round latency = {latency:?}, host cores = {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!();

    let mut table = Table::new(&[
        "k",
        "ell",
        "simple ms",
        "alg2 ms",
        "wall ratio",
        "simple rounds",
        "alg2 rounds",
        "round ratio",
    ]);
    let mut cells = Vec::new();

    for &k in &ks {
        let shards = ScalarWorkload { per_machine, lo: 0, hi: 1 << 32 }.generate(k, seed);
        let queries = scalar_queries(reps, 0, 1 << 32, seed ^ 0xABCD);
        for &ell in &ells {
            let mut wall = [Vec::new(), Vec::new()];
            let mut rounds = [Vec::new(), Vec::new()];
            for (rep, q) in queries.iter().enumerate() {
                for (slot, algo) in [Algorithm::Simple, Algorithm::Knn].into_iter().enumerate() {
                    let opts = QueryOptions {
                        seed: seed.wrapping_add(rep as u64),
                        round_latency: latency,
                        ..Default::default()
                    };
                    let out =
                        run_query(&shards, &ScalarPoint(q.0), ell, algo, &opts).expect("fig2 run");
                    wall[slot].push(out.wall.as_secs_f64() * 1e3);
                    rounds[slot].push(out.metrics.rounds as f64);
                }
            }
            let ws = Summary::of(&wall[0]);
            let wk = Summary::of(&wall[1]);
            let rs = Summary::of(&rounds[0]);
            let rk = Summary::of(&rounds[1]);
            let cell = Cell {
                k,
                ell,
                wall_simple_ms: ws.mean,
                wall_knn_ms: wk.mean,
                wall_ratio: ws.mean / wk.mean,
                rounds_simple: rs.mean,
                rounds_knn: rk.mean,
                round_ratio: rs.mean / rk.mean,
            };
            table.row(vec![
                k.to_string(),
                ell.to_string(),
                format!("{:.2}", cell.wall_simple_ms),
                format!("{:.2}", cell.wall_knn_ms),
                format!("{:.2}x", cell.wall_ratio),
                format!("{:.0}", cell.rounds_simple),
                format!("{:.0}", cell.rounds_knn),
                format!("{:.2}x", cell.round_ratio),
            ]);
            cells.push(cell);
        }
    }

    emit("fig2", &table, &cells);
    println!(
        "\npaper's claim: the ratio grows with ell (and, with enough physical cores, with k);\n\
         Algorithm 2 wins by orders of magnitude once ell is past the crossover."
    );
}

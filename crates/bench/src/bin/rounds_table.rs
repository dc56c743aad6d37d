//! **Theorems 2.2 and 2.4** — round complexity tables.
//!
//! Section 1: Algorithm 1 (distributed selection) rounds vs n for several
//! k — Theorem 2.2 says `O(log n)` whp, independent of k. A least-squares
//! fit of mean rounds against `log₂ n` is printed.
//!
//! Section 2: Algorithm 2 (ℓ-NN) rounds vs ℓ for several k — Theorem 2.4
//! says `O(log ℓ)` whp, independent of both n and k.
//!
//! ```text
//! cargo run -p knn-bench --release --bin rounds_table
//!     [--seeds 20] [--ks 4,16,64,256] [--full]
//! ```

use kmachine::{engine::run_sync, NetConfig};
use knn_bench::args::Args;
use knn_bench::stats::{linear_fit, Summary};
use knn_bench::table::Table;
use knn_bench::{write_csv, write_json};
use knn_core::protocols::knn::{KnnParams, KnnProtocol};
use knn_core::protocols::selection::SelectProtocol;
use knn_workloads::partition::split_round_robin;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn uniform_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random()).collect()
}

#[derive(Debug, serde::Serialize)]
struct Row {
    section: &'static str,
    k: usize,
    n: usize,
    ell: usize,
    rounds_mean: f64,
    rounds_std: f64,
    messages_mean: f64,
}

fn main() {
    let args = Args::parse();
    let seeds = args.get_u64("seeds", if args.has("full") { 50 } else { 20 });
    let ks = args.get_list("ks", &[4, 16, 64, 256]);
    let mut rows: Vec<Row> = Vec::new();

    // ---- Section 1: Algorithm 1, rounds vs n (Theorem 2.2) ----
    println!("== Theorem 2.2: Algorithm 1 rounds vs n  (ell = n/16, {seeds} seeds) ==\n");
    let ns: Vec<usize> = (10..=20).step_by(2).map(|e| 1usize << e).collect();
    let mut t1 = Table::new(&["k", "n", "log2 n", "rounds", "messages", "msgs/k"]);
    for &k in &ks {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &n in &ns {
            let mut rounds = Vec::new();
            let mut msgs = Vec::new();
            for s in 0..seeds {
                let keys = uniform_keys(n, s.wrapping_mul(0x9E37) ^ n as u64);
                let shards = split_round_robin(keys, k);
                let cfg = NetConfig::new(k).with_seed(s);
                let protos: Vec<SelectProtocol<u64>> = shards
                    .into_iter()
                    .enumerate()
                    .map(|(i, local)| SelectProtocol::new(i, k, 0, (n / 16) as u64, local))
                    .collect();
                let out = run_sync(&cfg, protos).expect("selection");
                rounds.push(out.metrics.rounds);
                msgs.push(out.metrics.messages);
            }
            let r = Summary::of_u64(&rounds);
            let m = Summary::of_u64(&msgs);
            xs.push((n as f64).log2());
            ys.push(r.mean);
            t1.row(vec![
                k.to_string(),
                n.to_string(),
                format!("{:.0}", (n as f64).log2()),
                r.pm(),
                format!("{:.0}", m.mean),
                format!("{:.1}", m.mean / k as f64),
            ]);
            rows.push(Row {
                section: "alg1-vs-n",
                k,
                n,
                ell: n / 16,
                rounds_mean: r.mean,
                rounds_std: r.std,
                messages_mean: m.mean,
            });
        }
        let (slope, intercept, r2) = linear_fit(&xs, &ys);
        t1.row(vec![
            k.to_string(),
            "fit".into(),
            "-".into(),
            format!("{slope:.2}*log2(n) + {intercept:.1}"),
            format!("R2={r2:.3}"),
            "-".into(),
        ]);
    }
    t1.print();

    // ---- Section 2: Algorithm 2, rounds vs ell (Theorem 2.4) ----
    println!(
        "\n== Theorem 2.4: Algorithm 2 rounds vs ell  (2^16 keys/machine, {seeds} seeds) ==\n"
    );
    let ells: Vec<usize> = (2..=14).step_by(2).map(|e| 1usize << e).collect();
    let per_machine = 1usize << 16;
    let mut t2 = Table::new(&["k", "ell", "log2 ell", "rounds", "messages", "msgs/(k log2 ell)"]);
    for &k in &ks {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &ell in &ells {
            let mut rounds = Vec::new();
            let mut msgs = Vec::new();
            for s in 0..seeds {
                let cfg = NetConfig::new(k).with_seed(s);
                let protos: Vec<KnnProtocol<u64>> = (0..k)
                    .map(|i| {
                        let keys = uniform_keys(
                            per_machine,
                            s ^ (i as u64) << 32 ^ (ell as u64) << 8 ^ k as u64,
                        );
                        KnnProtocol::from_keys(i, k, 0, ell as u64, KnnParams::default(), keys)
                    })
                    .collect();
                let out = run_sync(&cfg, protos).expect("knn");
                rounds.push(out.metrics.rounds);
                msgs.push(out.metrics.messages);
            }
            let r = Summary::of_u64(&rounds);
            let m = Summary::of_u64(&msgs);
            let lg = (ell as f64).log2();
            xs.push(lg);
            ys.push(r.mean);
            t2.row(vec![
                k.to_string(),
                ell.to_string(),
                format!("{lg:.0}"),
                r.pm(),
                format!("{:.0}", m.mean),
                format!("{:.1}", m.mean / (k as f64 * lg)),
            ]);
            rows.push(Row {
                section: "alg2-vs-ell",
                k,
                n: per_machine * k,
                ell,
                rounds_mean: r.mean,
                rounds_std: r.std,
                messages_mean: m.mean,
            });
        }
        let (slope, intercept, r2) = linear_fit(&xs, &ys);
        t2.row(vec![
            k.to_string(),
            "fit".into(),
            "-".into(),
            format!("{slope:.2}*log2(ell) + {intercept:.1}"),
            format!("R2={r2:.3}"),
            "-".into(),
        ]);
    }
    t2.print();

    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.section.to_string(),
                r.k.to_string(),
                r.n.to_string(),
                r.ell.to_string(),
                format!("{:.2}", r.rounds_mean),
                format!("{:.2}", r.rounds_std),
                format!("{:.1}", r.messages_mean),
            ]
        })
        .collect();
    let csv = write_csv(
        "rounds_table",
        &["section", "k", "n", "ell", "rounds_mean", "rounds_std", "messages_mean"],
        &csv_rows,
    );
    let json = write_json("rounds_table", &rows);
    println!("\nwrote {} and {}", csv.display(), json.display());
}

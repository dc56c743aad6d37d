//! **Message complexity table** — Theorem 2.4's `O(k log ℓ)` bound.
//!
//! For a grid of (k, ℓ) this reports the measured message count of
//! Algorithm 2 and the normalized ratio `messages / (k · log₂ ℓ)`, which
//! the theorem predicts to be bounded by a constant. The simple method's
//! `Θ(k·ℓ)` count is printed alongside for contrast.
//!
//! ```text
//! cargo run -p knn-bench --release --bin messages_table
//!     [--seeds 20] [--ks 4,16,64,256] [--ells 16,64,256,1024,4096]
//! ```

use kmachine::{engine::run_sync, NetConfig};
use knn_bench::args::Args;
use knn_bench::stats::Summary;
use knn_bench::table::Table;
use knn_bench::{write_csv, write_json};
use knn_core::protocols::knn::{KnnParams, KnnProtocol};
use knn_core::protocols::simple::SimpleProtocol;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn uniform_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random()).collect()
}

#[derive(Debug, serde::Serialize)]
struct Row {
    k: usize,
    ell: usize,
    knn_messages: f64,
    knn_normalized: f64,
    knn_bits: f64,
    simple_messages: f64,
    simple_per_k_ell: f64,
}

fn main() {
    let args = Args::parse();
    let seeds = args.get_u64("seeds", 20);
    let ks = args.get_list("ks", &[4, 16, 64, 256]);
    let ells = args.get_list("ells", &[16, 64, 256, 1024, 4096]);
    let per_machine = 1usize << 14;

    println!("== Theorem 2.4: messages of Algorithm 2 vs k·log2(ell)  ({seeds} seeds) ==\n");
    let mut table = Table::new(&[
        "k",
        "ell",
        "alg2 msgs",
        "alg2 msgs/(k log2 ell)",
        "alg2 bits",
        "simple msgs",
        "simple msgs/(k ell)",
    ]);
    let mut rows = Vec::new();

    for &k in &ks {
        for &ell in &ells {
            let mut knn_msgs = Vec::new();
            let mut knn_bits = Vec::new();
            let mut simple_msgs = Vec::new();
            for s in 0..seeds {
                let mk_keys =
                    |i: usize| uniform_keys(per_machine, s ^ ((i as u64) << 32) ^ ell as u64);
                let cfg = NetConfig::new(k).with_seed(s);
                let protos: Vec<KnnProtocol<u64>> = (0..k)
                    .map(|i| {
                        KnnProtocol::from_keys(
                            i,
                            k,
                            0,
                            ell as u64,
                            KnnParams::default(),
                            mk_keys(i),
                        )
                    })
                    .collect();
                let out = run_sync(&cfg, protos).expect("knn");
                knn_msgs.push(out.metrics.messages);
                knn_bits.push(out.metrics.bits);

                let protos: Vec<SimpleProtocol<u64>> = (0..k)
                    .map(|i| SimpleProtocol::from_keys(i, 0, ell as u64, 7, mk_keys(i)))
                    .collect();
                let out = run_sync(&cfg, protos).expect("simple");
                simple_msgs.push(out.metrics.messages);
            }
            let km = Summary::of_u64(&knn_msgs);
            let kb = Summary::of_u64(&knn_bits);
            let sm = Summary::of_u64(&simple_msgs);
            let norm = km.mean / (k as f64 * (ell.max(2) as f64).log2());
            let row = Row {
                k,
                ell,
                knn_messages: km.mean,
                knn_normalized: norm,
                knn_bits: kb.mean,
                simple_messages: sm.mean,
                simple_per_k_ell: sm.mean / (k as f64 * ell as f64),
            };
            table.row(vec![
                k.to_string(),
                ell.to_string(),
                format!("{:.0}", row.knn_messages),
                format!("{:.2}", row.knn_normalized),
                format!("{:.0}", row.knn_bits),
                format!("{:.0}", row.simple_messages),
                format!("{:.3}", row.simple_per_k_ell),
            ]);
            rows.push(row);
        }
    }
    table.print();

    let max_norm = rows.iter().map(|r| r.knn_normalized).fold(0.0, f64::max);
    let min_norm = rows.iter().map(|r| r.knn_normalized).fold(f64::INFINITY, f64::min);
    println!(
        "\nnormalized Algorithm 2 messages stay within [{min_norm:.2}, {max_norm:.2}] across the\n\
         whole grid — a bounded constant, as O(k log ell) requires; the simple method's\n\
         msgs/(k*ell) column is likewise ~constant, pinning its Theta(k*ell) cost."
    );

    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                r.ell.to_string(),
                format!("{:.1}", r.knn_messages),
                format!("{:.3}", r.knn_normalized),
                format!("{:.0}", r.knn_bits),
                format!("{:.1}", r.simple_messages),
                format!("{:.4}", r.simple_per_k_ell),
            ]
        })
        .collect();
    let csv = write_csv(
        "messages_table",
        &[
            "k",
            "ell",
            "knn_messages",
            "knn_normalized",
            "knn_bits",
            "simple_messages",
            "simple_per_k_ell",
        ],
        &csv_rows,
    );
    let json = write_json("messages_table", &rows);
    println!("\nwrote {} and {}", csv.display(), json.display());
}

//! **Ablation of the paper's sampling constants** (12 and 21).
//!
//! Algorithm 2 samples `12·log₂ ℓ` candidates per machine and prunes at
//! the sample of rank `21·log₂ ℓ`. Lemma 2.3's proof needs the ratio and
//! magnitudes to make both tails small; this experiment sweeps both
//! factors and measures what actually breaks:
//!
//! * **rank/sample ratio too small** (≈1) — the threshold undershoots, too
//!   few candidates survive, and the hardening fallback (rollback to the
//!   unpruned sets) fires, wasting the sampling rounds;
//! * **factors too large** — the sampling transfer itself costs extra
//!   rounds (`samples·keybits / B` per machine) with no accuracy benefit;
//! * the paper's (12, 21) sits in the cheap-and-never-rolls-back corner.
//!
//! ```text
//! cargo run -p knn-bench --release --bin ablation
//!     [--trials 50] [--k 16] [--ell 256]
//! ```

use kmachine::{engine::run_sync, NetConfig};
use knn_bench::args::Args;
use knn_bench::stats::Summary;
use knn_bench::table::Table;
use knn_bench::{write_csv, write_json};
use knn_core::protocols::knn::{KnnParams, KnnProtocol};
use rand::{rngs::StdRng, RngExt, SeedableRng};

#[derive(Debug, serde::Serialize)]
struct Row {
    sample_factor: u32,
    rank_factor: u32,
    rollback_rate: f64,
    survivors_over_ell: f64,
    rounds_mean: f64,
    messages_mean: f64,
}

fn main() {
    let args = Args::parse();
    let trials = args.get_u64("trials", 50);
    let k = args.get_usize("k", 16);
    let ell = args.get_usize("ell", 256);
    let per_machine = 4 * ell;

    println!(
        "== Ablation of Algorithm 2's sampling constants  (k = {k}, ell = {ell}, {trials} trials) =="
    );
    println!("paper's values: sample_factor = 12, rank_factor = 21\n");

    let mut table =
        Table::new(&["sample", "rank", "rollback rate", "survivors/ell", "rounds", "messages"]);
    let mut rows = Vec::new();

    for &sample_factor in &[2u32, 6, 12, 24] {
        for &rank_factor in &[0u32, 1, 2] {
            // rank = ratio * sample, approximately: test ratios 1.0, 1.75, 3.0
            let rank_factor = match rank_factor {
                0 => sample_factor,           // ratio 1.0 — tight
                1 => (sample_factor * 7) / 4, // ratio 1.75 — the paper's
                _ => sample_factor * 3,       // ratio 3.0 — loose
            };
            let params = KnnParams { sample_factor, rank_factor, harden: true };
            let mut rollbacks = 0u64;
            let mut ratios = Vec::new();
            let mut rounds = Vec::new();
            let mut msgs = Vec::new();
            for t in 0..trials {
                let cfg = NetConfig::new(k).with_seed(t);
                let protos: Vec<KnnProtocol<u64>> = (0..k)
                    .map(|i| {
                        let mut rng = StdRng::seed_from_u64(
                            t ^ ((i as u64) << 20) ^ ((sample_factor as u64) << 40),
                        );
                        let keys: Vec<u64> = (0..per_machine).map(|_| rng.random()).collect();
                        KnnProtocol::from_keys(i, k, 0, ell as u64, params, keys)
                    })
                    .collect();
                let out = run_sync(&cfg, protos).expect("ablation run");
                let stats = out.outputs[0].stats.expect("stats");
                rollbacks += u64::from(stats.rolled_back);
                ratios.push(stats.survivors as f64 / ell as f64);
                rounds.push(out.metrics.rounds);
                msgs.push(out.metrics.messages);
            }
            let row = Row {
                sample_factor,
                rank_factor,
                rollback_rate: rollbacks as f64 / trials as f64,
                survivors_over_ell: Summary::of(&ratios).mean,
                rounds_mean: Summary::of_u64(&rounds).mean,
                messages_mean: Summary::of_u64(&msgs).mean,
            };
            table.row(vec![
                sample_factor.to_string(),
                rank_factor.to_string(),
                format!("{:.2}", row.rollback_rate),
                format!("{:.2}", row.survivors_over_ell),
                format!("{:.1}", row.rounds_mean),
                format!("{:.0}", row.messages_mean),
            ]);
            rows.push(row);
        }
    }
    table.print();
    println!(
        "\nreading the table: ratio 1.0 rows roll back often (wasted rounds); ratio 3.0\n\
         rows survive ~3x ell candidates into the selection phase; larger sample factors\n\
         pay more sampling rounds. The paper's 12/21 never rolled back at tiny overhead."
    );

    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sample_factor.to_string(),
                r.rank_factor.to_string(),
                format!("{:.3}", r.rollback_rate),
                format!("{:.3}", r.survivors_over_ell),
                format!("{:.2}", r.rounds_mean),
                format!("{:.1}", r.messages_mean),
            ]
        })
        .collect();
    let csv = write_csv(
        "ablation",
        &[
            "sample_factor",
            "rank_factor",
            "rollback_rate",
            "survivors_over_ell",
            "rounds",
            "messages",
        ],
        &csv_rows,
    );
    let json = write_json("ablation", &rows);
    println!("\nwrote {} and {}", csv.display(), json.display());
}

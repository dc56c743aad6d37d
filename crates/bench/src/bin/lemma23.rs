//! **Lemma 2.3 validation** — the sampling prune leaves at most `11ℓ`
//! candidates with probability `≥ 1 − 2/ℓ²`.
//!
//! For each (k, ℓ) this runs Algorithm 2's sampling stage many times and
//! reports the distribution of `survivors / ℓ`, the empirical probability
//! of exceeding the 11ℓ bound, and how often the hardening fallback
//! (survivors < ℓ) fired.
//!
//! ```text
//! cargo run -p knn-bench --release --bin lemma23
//!     [--trials 200] [--ks 8,32,128] [--ells 16,64,256,1024]
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
    k: usize,
    ell: usize,
    trials: u64,
    ratio_mean: f64,
    ratio_max: f64,
    exceed_11ell: u64,
    rollbacks: u64,
}

fn main() {
    let args = Args::parse();
    let trials = args.get_u64("trials", 200);
    let ks = args.get_list("ks", &[8, 32, 128]);
    let ells = args.get_list("ells", &[16, 64, 256, 1024]);
    // Enough points that every machine holds a full ℓ candidates.
    let per_machine_factor = 4;

    println!("== Lemma 2.3: survivors after pruning <= 11*ell whp  ({trials} trials) ==\n");
    let mut table = Table::new(&[
        "k",
        "ell",
        "survivors/ell (mean)",
        "survivors/ell (max)",
        "P(> 11 ell)",
        "rollback rate",
    ]);
    let mut rows = Vec::new();

    for &k in &ks {
        for &ell in &ells {
            let per_machine = ell * per_machine_factor;
            let mut ratios = Vec::new();
            let mut exceed = 0u64;
            let mut rollbacks = 0u64;
            for t in 0..trials {
                let cfg = NetConfig::new(k).with_seed(t);
                let protos: Vec<KnnProtocol<u64>> = (0..k)
                    .map(|i| {
                        let mut rng = StdRng::seed_from_u64(
                            t ^ ((i as u64) << 24) ^ ((ell as u64) << 48) ^ k as u64,
                        );
                        let keys: Vec<u64> = (0..per_machine).map(|_| rng.random()).collect();
                        KnnProtocol::from_keys(i, k, 0, ell as u64, KnnParams::default(), keys)
                    })
                    .collect();
                let out = run_sync(&cfg, protos).expect("knn");
                let stats = out.outputs[0].stats.expect("leader stats");
                let ratio = stats.survivors as f64 / ell as f64;
                ratios.push(ratio);
                exceed += u64::from(stats.survivors > 11 * ell as u64);
                rollbacks += u64::from(stats.rolled_back);
            }
            let s = Summary::of(&ratios);
            table.row(vec![
                k.to_string(),
                ell.to_string(),
                format!("{:.2}", s.mean),
                format!("{:.2}", s.max),
                format!("{:.4}", exceed as f64 / trials as f64),
                format!("{:.4}", rollbacks as f64 / trials as f64),
            ]);
            rows.push(Row {
                k,
                ell,
                trials,
                ratio_mean: s.mean,
                ratio_max: s.max,
                exceed_11ell: exceed,
                rollbacks,
            });
        }
    }
    table.print();
    println!(
        "\nLemma 2.3 predicts P(survivors > 11 ell) <= 2/ell^2 — e.g. <= 0.0078 at ell = 16,\n\
         <= 0.000002 at ell = 1024. The rollback column measures the hardening fallback\n\
         (survivors < ell), which the paper's whp analysis leaves implicit."
    );

    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                r.ell.to_string(),
                r.trials.to_string(),
                format!("{:.3}", r.ratio_mean),
                format!("{:.3}", r.ratio_max),
                r.exceed_11ell.to_string(),
                r.rollbacks.to_string(),
            ]
        })
        .collect();
    let csv = write_csv(
        "lemma23",
        &["k", "ell", "trials", "ratio_mean", "ratio_max", "exceed_11ell", "rollbacks"],
        &csv_rows,
    );
    let json = write_json("lemma23", &rows);
    println!("\nwrote {} and {}", csv.display(), json.display());
}

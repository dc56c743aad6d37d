//! **Lemma 2.3 validation** — the sampling prune leaves at most `11ℓ`
//! candidates with probability `≥ 1 − 2/ℓ²`.
//!
//! For each (k, ℓ) this runs Algorithm 2's sampling stage many times and
//! reports the distribution of `survivors / ℓ`, the empirical probability
//! of exceeding the 11ℓ bound, and how often the count round rolled the
//! prune back (survivors < ℓ).
//!
//! Rows with `ℓ ≤ ⌈12·log₂ ℓ⌉` (ℓ ≤ 75 at the paper's sample factor)
//! prune nothing: every machine's at most ℓ candidates fit in the sample
//! size, so each ships its whole list, the leader holds every candidate and
//! Algorithm 2 finishes at the sampling stage. A survivors/ℓ of 1 there
//! would read as a tight Lemma 2.3, so those rows print "whole lists, no
//! prune" and stay out of the `P(> 11 ell)` column. The default ℓ values
//! show both branches.
//!
//! ```text
//! cargo run -p knn-bench --release --bin paper -- lemma23
//!     [--trials 200] [--ks 8,32,128] [--ells 16,128,256,1024]
//! ```

use knn_core::protocols::knn::KnnParams;

use super::algorithm2;
use crate::args::Args;
use crate::emit;
use crate::stats::Summary;
use crate::table::Table;

table_row! {
    struct Row {
        k: usize,
        ell: usize,
        trials: u64,
        ratio_mean: f64,
        ratio_max: f64,
        exceed_11ell: u64,
        rollbacks: u64,
        pruned: bool,
    }
}

/// Print the table and write `results/lemma23.{json,csv}`.
pub fn run(args: &Args) {
    let trials = args.get("trials", 200u64);
    let ks = args.get_list("ks", &[8, 32, 128]);
    let ells = args.get_list("ells", &[16, 128, 256, 1024]);
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
            let pruned = KnnParams::default().sample_size(ell as u64) < ell;
            let per_machine = ell * per_machine_factor;
            let mut ratios = Vec::new();
            let mut exceed = 0u64;
            let mut rollbacks = 0u64;
            for t in 0..trials {
                let out = algorithm2(k, per_machine, ell, KnnParams::default(), t, |i| {
                    t ^ ((i as u64) << 24) ^ ((ell as u64) << 48) ^ k as u64
                });
                let stats = out.outputs[0].stats.expect("leader stats");
                let ratio = stats.survivors as f64 / ell as f64;
                ratios.push(ratio);
                exceed += u64::from(stats.survivors > 11 * ell as u64);
                rollbacks += u64::from(stats.rolled_back);
            }
            let s = Summary::of(&ratios);
            let (mean, max, p_exceed) = if pruned {
                let p = format!("{:.4}", exceed as f64 / trials as f64);
                (format!("{:.2}", s.mean), format!("{:.2}", s.max), p)
            } else {
                let none = "whole lists, no prune".to_string();
                (none.clone(), none, "-".to_string())
            };
            table.row(vec![
                k.to_string(),
                ell.to_string(),
                mean,
                max,
                p_exceed,
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
                pruned,
            });
        }
    }
    emit("lemma23", &table, &rows);
    println!(
        "\nLemma 2.3 predicts P(survivors > 11 ell) <= 2/ell^2 — e.g. <= 0.00012 at ell = 128,\n\
         <= 0.000002 at ell = 1024. The rollback column counts the count round's rollbacks\n\
         (survivors < ell), which the paper's whp analysis leaves implicit."
    );
}

//! # knn-bench — the experiment harness
//!
//! Regenerates every evaluation artifact of the paper (see EXPERIMENTS.md
//! for the mapping):
//!
//! | binary           | artifact |
//! |------------------|----------|
//! | `fig2`           | Figure 2: wall-clock ratio simple/Algorithm 2     |
//! | `rounds_table`   | Theorems 2.2 & 2.4: rounds vs n, ℓ, k             |
//! | `messages_table` | Message complexity vs `k·log₂ ℓ`                  |
//! | `lemma23`        | Lemma 2.3: survivor distribution after pruning    |
//! | `baselines`      | All algorithms: rounds / messages / bits          |
//! | `throughput`     | Serving layer: batch size × algorithm sweep       |
//! | `recall`         | NSW graph index: `m × ef` vs recall@ℓ and latency |
//!
//! plus Criterion micro-benchmarks of the sequential substrates
//! (`cargo bench -p knn-bench`).
//!
//! Each binary prints an aligned table and writes CSV + JSON under
//! `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod stats;
pub mod table;

use std::fs;
use std::path::{Path, PathBuf};

/// Directory where experiment outputs are written.
pub fn results_dir() -> PathBuf {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    dir.to_path_buf()
}

/// Write CSV rows (first row = header) to `results/<name>.csv`.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(&path, out).expect("write csv");
    path
}

/// Write a serde-serializable record set to `results/<name>.json`.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string_pretty(value).expect("serialize")).expect("write json");
    path
}

//! # knn-bench — the experiment harness
//!
//! Regenerates every evaluation artifact of the paper through one binary,
//! `cargo run --release -p knn-bench --bin paper -- <table> [--flags]`,
//! whose subcommands are the modules of [`experiments`]:
//!
//! | table            | artifact |
//! |------------------|----------|
//! | `fig2`           | Figure 2: wall-clock ratio simple/Algorithm 2     |
//! | `rounds_table`   | Theorems 2.2 & 2.4: rounds vs n, ℓ, k             |
//! | `messages_table` | Message complexity vs `k·log₂ ℓ`                  |
//! | `lemma23`        | Lemma 2.3: survivor distribution after pruning    |
//! | `ablation`       | Algorithm 2's sampling constants (12, 21) swept   |
//! | `baselines`      | All algorithms: rounds / messages / bits          |
//! | `throughput`     | Serving layer: batch size × algorithm sweep       |
//! | `recall`         | NSW graph index: `m × ef` vs recall@ℓ and latency |
//!
//! plus Criterion micro-benchmarks of the sequential substrates
//! (`cargo bench -p knn-bench`).
//!
//! Each table prints an aligned table and writes its rows to
//! `results/<table>.json` and `results/<table>.csv` ([`emit`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod stats;
pub mod table;

/// Protocols the evaluation runs and no `knn-core` query path does.
pub mod protocols {
    pub mod kdtree_dist;
}

use std::fs;
use std::path::Path;

use serde_json::Value;
use table::Table;

/// Print `table`, then write `rows` to `results/<name>.json` and
/// `results/<name>.csv`.
pub fn emit<T: serde::Serialize>(name: &str, table: &Table, rows: &[T]) {
    table.print();
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let json = dir.join(format!("{name}.json"));
    fs::write(&json, serde_json::to_string_pretty(rows).expect("serialize")).expect("write json");
    let csv = dir.join(format!("{name}.csv"));
    fs::write(&csv, to_csv(rows)).expect("write csv");
    println!("\nwrote {} and {}", csv.display(), json.display());
}

/// `rows` as CSV: the rows' serde field names, in declaration order, as the
/// header line, then one line per row.
pub fn to_csv<T: serde::Serialize>(rows: &[T]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let Value::Object(fields) = serde_json::to_value(row).expect("serialize") else {
            panic!("a table row must serialize to an object");
        };
        if i == 0 {
            let header: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
            out.push_str(&header.join(","));
            out.push('\n');
        }
        let cells: Vec<String> = fields.into_iter().map(|(name, v)| csv_cell(&name, v)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn csv_cell(name: &str, value: Value) -> String {
    match value {
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => n,
        Value::String(s) if s.contains([',', '"', '\n']) => {
            format!("\"{}\"", s.replace('"', "\"\""))
        }
        Value::String(s) => s,
        nested => panic!("column {name} is not a scalar: {nested:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(dead_code)]
    #[derive(Debug, serde::Serialize)]
    struct Row {
        zeta: usize,
        alpha: &'static str,
        mid: f64,
        flag: bool,
    }

    #[test]
    fn csv_header_is_the_field_names_in_declaration_order() {
        let rows = [
            Row { zeta: 3, alpha: "alg2-knn", mid: 1.5, flag: true },
            Row { zeta: 4, alpha: "a,b", mid: 0.25, flag: false },
        ];
        let csv = to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines, ["zeta,alpha,mid,flag", "3,alg2-knn,1.5,true", "4,\"a,b\",0.25,false"]);
        assert_eq!(to_csv::<Row>(&[]), "");
    }
}

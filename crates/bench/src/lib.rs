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
//! Each table prints an aligned table and writes its rows to
//! `results/<table>.json` and `results/<table>.csv` ([`emit`]). A row type
//! lists its `(name, cell)` pairs once ([`TableRow`]); both files are
//! written from that list, through `kmachine::json`'s number and string
//! rendering, so they cannot disagree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Declares a row struct and its [`TableRow`] impl: every field, by name
/// and in declaration order, is a column. Defined before the modules so
/// that they can use it.
macro_rules! table_row {
    (struct $row:ident { $($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)? }) => {
        struct $row {
            $($(#[$doc])* $field: $ty),*
        }

        impl $crate::TableRow for $row {
            fn cells(&self) -> Vec<(&'static str, &dyn $crate::Column)> {
                vec![$((stringify!($field), &self.$field as &dyn $crate::Column)),*]
            }
        }
    };
}

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

use kmachine::json::{to_string_pretty, JsonWriter, WriteJson};
use table::Table;

/// A cell of a [`TableRow`]: written to the row's JSON object by its
/// [`WriteJson`] impl and to its CSV line by [`Column::csv`].
pub trait Column: WriteJson {
    /// The value as one CSV field; by default its JSON text.
    fn csv(&self) -> String {
        to_string_pretty(self)
    }
}

impl Column for bool {}
impl Column for u32 {}
impl Column for u64 {}
impl Column for usize {}

impl Column for f64 {
    /// Its `Debug` text: a non-finite value bare (`NaN`), not quoted.
    fn csv(&self) -> String {
        format!("{self:?}")
    }
}

impl Column for str {
    /// Raw, unless it holds a `,`, `"` or newline, which CSV-quote it.
    fn csv(&self) -> String {
        if self.contains([',', '"', '\n']) {
            format!("\"{}\"", self.replace('"', "\"\""))
        } else {
            self.to_string()
        }
    }
}

impl<T: Column + ?Sized> Column for &T {
    fn csv(&self) -> String {
        (**self).csv()
    }
}

/// A row of a `paper` table: its `(name, cell)` pairs in column order,
/// from which [`emit`] writes both the JSON object and the CSV line.
/// Declared with `table_row!`, which lists each field once.
pub trait TableRow {
    /// The row's columns, named, in declaration order.
    fn cells(&self) -> Vec<(&'static str, &dyn Column)>;
}

/// One row's cells as a JSON object.
struct Record<'a>(Vec<(&'static str, &'a dyn Column)>);

impl WriteJson for Record<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| self.0.iter().for_each(|&(name, cell)| w.field(name, cell)));
    }
}

/// Print `table`, then write `rows` to `results/<name>.json` (an array of
/// objects) and `results/<name>.csv`, both from the rows' [`TableRow::cells`].
pub fn emit<R: TableRow>(name: &str, table: &Table, rows: &[R]) {
    table.print();
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let json = dir.join(format!("{name}.json"));
    let records: Vec<Record> = rows.iter().map(|row| Record(row.cells())).collect();
    fs::write(&json, to_string_pretty(&records)).expect("write json");
    let csv = dir.join(format!("{name}.csv"));
    fs::write(&csv, to_csv(rows)).expect("write csv");
    println!("\nwrote {} and {}", csv.display(), json.display());
}

/// `rows` as CSV: the column names, in declaration order, as the header
/// line, then one line per row.
pub fn to_csv<R: TableRow>(rows: &[R]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let cells = row.cells();
        if i == 0 {
            let header: Vec<&str> = cells.iter().map(|(name, _)| *name).collect();
            out.push_str(&header.join(","));
            out.push('\n');
        }
        let line: Vec<String> = cells.iter().map(|(_, cell)| cell.csv()).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    table_row! {
        struct Row {
            zeta: usize,
            alpha: &'static str,
            mid: f64,
            flag: bool,
        }
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

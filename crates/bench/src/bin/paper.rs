//! The paper's figure and tables, one subcommand each (see the `knn_bench`
//! crate doc for the list):
//!
//! ```text
//! cargo run --release -p knn-bench --bin paper -- <table> [--key value ...]
//! ```

use knn_bench::args::Args;

fn main() {
    let mut argv = std::env::args().skip(1);
    let table = argv.next().unwrap_or_default();
    knn_bench::experiments::run(&table, &Args::from_tokens(argv));
}

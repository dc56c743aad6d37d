//! The paper's evaluation: one module per `paper` subcommand, each with a
//! `run(&Args)` that prints its table and writes its rows under `results/`.

pub mod ablation;
pub mod baselines;
pub mod fig2;
pub mod lemma23;
pub mod messages_table;
pub mod recall;
pub mod rounds_table;
pub mod throughput;

use kmachine::{run_sync, NetConfig, RunOutcome};
use knn_core::protocols::{top_ell, KnnOutput, KnnParams, KnnProtocol};
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::args::Args;

/// A subcommand's entry point: print its table and write its rows.
pub type Entry = fn(&Args);

/// Every subcommand of the `paper` binary, by name.
pub const TABLES: [(&str, Entry); 8] = [
    ("fig2", fig2::run),
    ("rounds_table", rounds_table::run),
    ("messages_table", messages_table::run),
    ("lemma23", lemma23::run),
    ("ablation", ablation::run),
    ("baselines", baselines::run),
    ("throughput", throughput::run),
    ("recall", recall::run),
];

/// Run the subcommand `name`. An unknown name panics, listing the known ones.
pub fn run(name: &str, args: &Args) {
    let Some((_, run)) = TABLES.iter().find(|(table, _)| *table == name) else {
        let names: Vec<&str> = TABLES.iter().map(|(table, _)| *table).collect();
        panic!("unknown table {name:?}; expected one of {}", names.join(", "));
    };
    run(args);
}

/// `n` keys drawn uniformly from `u64`, seeded with `seed`.
fn uniform_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random()).collect()
}

/// One Algorithm 2 run led by machine 0 over a network seeded `net_seed`,
/// where machine `i` of `k` holds `per_machine` [`uniform_keys`] seeded
/// `key_seed(i)`.
fn algorithm2(
    k: usize,
    per_machine: usize,
    ell: usize,
    params: KnnParams,
    net_seed: u64,
    key_seed: impl Fn(usize) -> u64,
) -> RunOutcome<KnnOutput<u64>> {
    let protos: Vec<KnnProtocol<u64>> = (0..k)
        .map(|i| {
            let keys = top_ell(uniform_keys(per_machine, key_seed(i)), ell as u64);
            KnnProtocol::new(i, k, 0, ell as u64, params, keys)
        })
        .collect();
    run_sync(&NetConfig::new(k).with_seed(net_seed), protos).expect("Algorithm 2 run")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(
        expected = "unknown table \"fig3\"; expected one of fig2, rounds_table, messages_table, \
                    lemma23, ablation, baselines, throughput, recall"
    )]
    fn unknown_table_panics_listing_the_eight() {
        run("fig3", &Args::default());
    }
}

//! **Serving throughput** — batch size × algorithm sweep over one loaded
//! cluster, the scenario the ROADMAP's serving layer targets.
//!
//! Batch size 1 is the sequential baseline (one [`KnnCluster::query_with`]
//! call per query: an election and a full engine run each). Larger batch
//! sizes serve the *same* query sequence through
//! [`KnnCluster::query_batch_with`]: one election and one engine run per
//! batch, queries multiplexed over the shared links, candidates from the
//! per-shard indices. Reported per algorithm × batch size:
//!
//! * `qps` — queries per second of wall clock;
//! * `rounds/q` — simulated communication rounds per query;
//! * `msgs/q`, `kbits/q` — traffic per query (tag framing included);
//! * `elections` — leader elections run for the whole sweep.
//!
//! Reading the rounds column: for every algorithm the batch>1 rows differ
//! from batch=1 by election amortization, pipelining, and spread
//! coordinators — query j of a batch is led by the machine j places after
//! the leader, so the batch's gathers drain over every machine's inbound
//! links instead of queuing on the leader's — while both paths feed the
//! protocols the same sorted local top-ℓ. The run checks that every
//! algorithm's largest batch pays fewer rounds per query than batch=1.
//!
//! Fault accounting rides every row: `--loss` (per-mille message loss,
//! seeded) realizes drops and retransmissions that
//! show up in the `dropped`/`rexmit_kbits` columns. Fault-free rows carry
//! zeros — the columns are always present so CI diffs line up.
//!
//! Byzantine accounting rides the rows the same way: `--lie M` makes
//! machine `M` a round-0 liar and `--corrupt SRC,DST[,PERMILLE]` corrupts
//! a link (default 1000‰). The audit catches the adversary, quarantines
//! it, and re-runs on the honest survivors — the `audits`/`quarantined`
//! columns record the work.
//!
//! ```text
//! cargo run -p knn-bench --release --bin paper -- throughput
//!     [--k 8] [--per-machine 4096] [--ell 64] [--queries 64]
//!     [--batches 1,8,64]
//!     [--loss 0] [--loss-retries 64] [--lie M] [--corrupt SRC,DST[,P]]
//!     [--seed 7]
//! ```
//!
//! Writes `results/throughput.{csv,json}` so CI accumulates the perf
//! trajectory across commits.

use std::time::Instant;

use kmachine::{AdversaryPlan, FaultPlan};
use knn_core::cluster::KnnCluster;
use knn_core::runner::{Algorithm, ElectionKind};
use knn_core::Report;
use knn_workloads::{QueryStream, ScalarWorkload};

use crate::args::Args;
use crate::emit;
use crate::table::Table;

table_row! {
    struct Row {
        algorithm: &'static str,
        batch_size: usize,
        queries: usize,
        qps: f64,
        rounds_per_query: f64,
        messages_per_query: f64,
        kilobits_per_query: f64,
        elections: u64,
        /// Realized faults across the sweep's runs.
        crashes: u64,
        dropped_messages: u64,
        retransmitted_kilobits: f64,
        /// Byzantine-audit work across the sweep's runs (zero without `--lie`
        /// / `--corrupt`).
        audits_run: u64,
        integrity_violations: u64,
        suspects_quarantined: u64,
    }
}

/// What a row sums over the reports of its sweep: the answering runs'
/// costs plus every election's, and their fault and audit counters.
#[derive(Default)]
struct Tally {
    rounds: u64,
    messages: u64,
    bits: u64,
    elections: u64,
    crashes: u64,
    dropped: u64,
    rexmit_bits: u64,
    audits: u64,
    violations: u64,
    quarantined: u64,
}

impl Tally {
    fn add(&mut self, report: &Report) {
        self.rounds += report.metrics.rounds;
        self.messages += report.metrics.messages;
        self.bits += report.metrics.bits;
        self.crashes += report.faults.crashed.len() as u64;
        self.dropped += report.faults.dropped_messages;
        self.rexmit_bits += report.faults.retransmitted_bits;
        self.audits += report.audit.audits_run;
        self.violations += report.audit.integrity_violations;
        self.quarantined += report.audit.suspects_quarantined;
        if let Some(em) = &report.election_metrics {
            self.elections += 1;
            self.rounds += em.rounds;
            self.messages += em.messages;
            self.bits += em.bits;
        }
    }
}

/// Print the table, write `results/throughput.{json,csv}`, and check that
/// batching amortizes every algorithm's rounds.
pub fn run(args: &Args) {
    let k = args.get("k", 8usize);
    let per_machine = args.get("per-machine", 1usize << 12);
    let ell = args.get("ell", 64usize);
    let total = args.get("queries", 64usize);
    let batches = args.get_list("batches", &[1, 8, 64]);
    let loss = args.get("loss", 0u16);
    let loss_retries = args.get("loss-retries", 64u32);
    let seed = args.get("seed", 7u64);
    let hi = 1u64 << 32;

    let mut faults = FaultPlan::default();
    if loss > 0 {
        faults = faults.with_loss(loss, loss_retries);
    }
    let mut adversary = AdversaryPlan::default();
    let lie = args.get_str("lie", "");
    if !lie.is_empty() {
        let m: usize = lie.parse().unwrap_or_else(|_| panic!("--lie expects a machine id"));
        adversary = adversary.with_lie(m, 0);
    }
    let corrupt = args.get_str("corrupt", "");
    if !corrupt.is_empty() {
        let parts: Vec<&str> = corrupt.split(',').map(str::trim).collect();
        let bad = || -> ! { panic!("--corrupt expects SRC,DST[,PERMILLE], got {corrupt:?}") };
        if !(2..=3).contains(&parts.len()) {
            bad();
        }
        let src: usize = parts[0].parse().unwrap_or_else(|_| bad());
        let dst: usize = parts[1].parse().unwrap_or_else(|_| bad());
        let per_mille: u16 = parts.get(2).map_or(Ok(1000), |p| p.parse()).unwrap_or_else(|_| bad());
        adversary = adversary.with_corrupt_link(src, dst, per_mille);
    }
    let shards = ScalarWorkload { per_machine, lo: 0, hi }.generate(k, seed);
    let mut cluster: KnnCluster = KnnCluster::builder()
        .machines(k)
        .seed(seed)
        .election(ElectionKind::Star)
        .faults(faults)
        .adversary(adversary)
        .build();
    cluster.load_shards(shards).expect("shard count matches k");

    println!(
        "== Serving throughput: k = {k}, {per_machine} pts/machine, ell = {ell}, \
         {total} queries ==\n"
    );
    let mut table = Table::new(&[
        "algorithm",
        "batch",
        "qps",
        "rounds/q",
        "msgs/q",
        "kbits/q",
        "elections",
        "dropped",
        "audits",
        "quarantined",
    ]);
    let mut rows: Vec<Row> = Vec::new();

    for algo in Algorithm::ALL {
        for &bs in &batches {
            let mut tally = Tally::default();
            let start = Instant::now();
            if bs <= 1 {
                // Sequential baseline: every query pays its own
                // election and its own engine run.
                for batch in QueryStream::scalar(total, 1, 0, hi, seed) {
                    tally.add(&cluster.query_with(algo, &batch[0], ell).expect("query").report);
                }
            } else {
                for batch in QueryStream::scalar(total, bs, 0, hi, seed) {
                    tally.add(&cluster.query_batch_with(algo, &batch, ell).expect("batch").report);
                }
            }
            let wall = start.elapsed().as_secs_f64();
            let row = Row {
                algorithm: algo.name(),
                batch_size: bs,
                queries: total,
                qps: total as f64 / wall.max(1e-9),
                rounds_per_query: tally.rounds as f64 / total as f64,
                messages_per_query: tally.messages as f64 / total as f64,
                kilobits_per_query: tally.bits as f64 / 1000.0 / total as f64,
                elections: tally.elections,
                crashes: tally.crashes,
                dropped_messages: tally.dropped,
                retransmitted_kilobits: tally.rexmit_bits as f64 / 1000.0,
                audits_run: tally.audits,
                integrity_violations: tally.violations,
                suspects_quarantined: tally.quarantined,
            };
            table.row(vec![
                row.algorithm.to_string(),
                bs.to_string(),
                format!("{:.0}", row.qps),
                format!("{:.2}", row.rounds_per_query),
                format!("{:.1}", row.messages_per_query),
                format!("{:.2}", row.kilobits_per_query),
                row.elections.to_string(),
                row.dropped_messages.to_string(),
                row.audits_run.to_string(),
                row.suspects_quarantined.to_string(),
            ]);
            rows.push(row);
        }
    }
    emit("throughput", &table, &rows);

    // The amortization headline the serving layer exists for: batching must
    // strictly reduce rounds per query, for every algorithm.
    let Some(&max_batch) = batches.iter().max().filter(|&&bs| bs > 1) else { return };
    println!();
    for algo in Algorithm::ALL {
        let name = algo.name();
        let rounds = |bs: usize| {
            rows.iter()
                .find(|r| r.algorithm == name && r.batch_size == bs)
                .map(|r| r.rounds_per_query)
        };
        let (Some(seq), Some(batched)) = (rounds(1), rounds(max_batch)) else { continue };
        println!(
            "amortization check ({name}): sequential {seq:.2} rounds/query vs batched \
             {batched:.2} at batch {max_batch} -> {}",
            if batched < seq { "amortized" } else { "NOT amortized" }
        );
        assert!(
            batched < seq,
            "{name}: batched rounds/query ({batched:.2}) must be strictly below sequential \
             ({seq:.2})"
        );
    }
}

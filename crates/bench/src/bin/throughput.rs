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
//! from batch=1 only by election amortization and pipelining — both paths
//! feed the protocols the same sorted local top-ℓ.
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
//! cargo run -p knn-bench --release --bin throughput
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
use knn_bench::args::Args;
use knn_bench::table::Table;
use knn_bench::{write_csv, write_json};
use knn_core::cluster::KnnCluster;
use knn_core::runner::{Algorithm, ElectionKind};
use knn_workloads::{QueryStream, ScalarWorkload};

#[derive(Debug, serde::Serialize)]
struct Row {
    algorithm: String,
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

fn main() {
    let args = Args::parse();
    let k = args.get_usize("k", 8);
    let per_machine = args.get_usize("per-machine", 1 << 12);
    let ell = args.get_usize("ell", 64);
    let total = args.get_usize("queries", 64);
    let batches = args.get_list("batches", &[1, 8, 64]);
    let loss = args.get_u64("loss", 0);
    let loss_retries = args.get_u64("loss-retries", 64) as u32;
    let seed = args.get_u64("seed", 7);
    let hi = 1u64 << 32;

    let mut faults = FaultPlan::default();
    if loss > 0 {
        faults = faults.with_loss(loss as u16, loss_retries);
    }
    let mut adversary = AdversaryPlan::default();
    let lie = args.get_str("lie", "");
    if !lie.is_empty() {
        let m: usize = lie.parse().unwrap_or_else(|_| panic!("--lie expects a machine id"));
        adversary = adversary.with_lie(m, 0);
    }
    let corrupt = args.get_str("corrupt", "");
    if !corrupt.is_empty() {
        let parts: Vec<u64> = corrupt
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| panic!("--corrupt expects SRC,DST[,PERMILLE]"))
            })
            .collect();
        assert!(
            (2..=3).contains(&parts.len()),
            "--corrupt expects SRC,DST[,PERMILLE], got {corrupt:?}"
        );
        let per_mille = parts.get(2).copied().unwrap_or(1000) as u16;
        adversary = adversary.with_corrupt_link(parts[0] as usize, parts[1] as usize, per_mille);
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
            let mut rounds = 0u64;
            let mut messages = 0u64;
            let mut bits = 0u64;
            let mut elections = 0u64;
            let mut crashes = 0u64;
            let mut dropped = 0u64;
            let mut rexmit_bits = 0u64;
            let mut audits = 0u64;
            let mut violations = 0u64;
            let mut quarantined = 0u64;
            let start = Instant::now();
            if bs <= 1 {
                // Sequential baseline: every query pays its own
                // election and its own engine run.
                for batch in QueryStream::scalar(total, 1, 0, hi, seed) {
                    let ans = cluster.query_with(algo, &batch[0], ell).expect("query");
                    rounds += ans.metrics.rounds;
                    messages += ans.metrics.messages;
                    bits += ans.metrics.bits;
                    crashes += ans.faults.crashed.len() as u64;
                    dropped += ans.faults.dropped_messages;
                    rexmit_bits += ans.faults.retransmitted_bits;
                    audits += ans.audit.audits_run;
                    violations += ans.audit.integrity_violations;
                    quarantined += ans.audit.suspects_quarantined;
                    if let Some(em) = &ans.election_metrics {
                        elections += 1;
                        rounds += em.rounds;
                        messages += em.messages;
                        bits += em.bits;
                    }
                }
            } else {
                for batch in QueryStream::scalar(total, bs, 0, hi, seed) {
                    let out = cluster.query_batch_with(algo, &batch, ell).expect("batch");
                    rounds += out.metrics.rounds;
                    messages += out.metrics.messages;
                    bits += out.metrics.bits;
                    crashes += out.faults.crashed.len() as u64;
                    dropped += out.faults.dropped_messages;
                    rexmit_bits += out.faults.retransmitted_bits;
                    audits += out.audit.audits_run;
                    violations += out.audit.integrity_violations;
                    quarantined += out.audit.suspects_quarantined;
                    if let Some(em) = &out.election_metrics {
                        elections += 1;
                        rounds += em.rounds;
                        messages += em.messages;
                        bits += em.bits;
                    }
                }
            }
            let wall = start.elapsed().as_secs_f64();
            let row = Row {
                algorithm: algo.name().to_string(),
                batch_size: bs,
                queries: total,
                qps: total as f64 / wall.max(1e-9),
                rounds_per_query: rounds as f64 / total as f64,
                messages_per_query: messages as f64 / total as f64,
                kilobits_per_query: bits as f64 / 1000.0 / total as f64,
                elections,
                crashes,
                dropped_messages: dropped,
                retransmitted_kilobits: rexmit_bits as f64 / 1000.0,
                audits_run: audits,
                integrity_violations: violations,
                suspects_quarantined: quarantined,
            };
            table.row(vec![
                row.algorithm.clone(),
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
    table.print();

    // The amortization headline the serving layer exists for: batching must
    // strictly reduce rounds per query for the bandwidth-bound baseline.
    let simple = |bs: usize| {
        rows.iter()
            .find(|r| r.algorithm == Algorithm::Simple.name() && r.batch_size == bs)
            .map(|r| r.rounds_per_query)
    };
    if let (Some(seq), Some(&max_batch)) = (simple(1), batches.iter().max()) {
        if let Some(batched) = simple(max_batch).filter(|_| max_batch > 1) {
            println!(
                "\namortization check (simple): sequential {seq:.2} rounds/query vs batched \
                 {batched:.2} at batch {max_batch} -> {}",
                if batched < seq { "amortized" } else { "NOT amortized" }
            );
            assert!(
                batched < seq,
                "batched rounds/query ({batched:.2}) must be strictly below sequential ({seq:.2})"
            );
        }
    }

    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algorithm.clone(),
                r.batch_size.to_string(),
                r.queries.to_string(),
                format!("{:.1}", r.qps),
                format!("{:.3}", r.rounds_per_query),
                format!("{:.2}", r.messages_per_query),
                format!("{:.3}", r.kilobits_per_query),
                r.elections.to_string(),
                r.crashes.to_string(),
                r.dropped_messages.to_string(),
                format!("{:.3}", r.retransmitted_kilobits),
                r.audits_run.to_string(),
                r.integrity_violations.to_string(),
                r.suspects_quarantined.to_string(),
            ]
        })
        .collect();
    let csv = write_csv(
        "throughput",
        &[
            "algorithm",
            "batch",
            "queries",
            "qps",
            "rounds_per_query",
            "messages_per_query",
            "kilobits_per_query",
            "elections",
            "crashes",
            "dropped_messages",
            "retransmitted_kilobits",
            "audits_run",
            "integrity_violations",
            "suspects_quarantined",
        ],
        &csv_rows,
    );
    let json = write_json("throughput", &rows);
    println!("\nwrote {} and {}", csv.display(), json.display());
}

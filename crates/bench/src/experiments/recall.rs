//! **NSW recall / latency sweep** — the graph-index quality curve that
//! backs the README's recall table and the ROADMAP's graph-index check-off.
//!
//! Builds one [`NswIndex`] per shard over the seeded Gaussian-mixture
//! vector workload (the same distribution the conformance suite pins),
//! then sweeps `m × ef`, answering each query the way a cluster serve
//! does: shard-local top-ℓ candidates merged into a global top-ℓ. Each
//! row reports against the brute-force `(distance, id)` oracle:
//!
//! * `recall` / `min_recall` — mean and worst-case recall@ℓ;
//! * `build_ms` — wall clock to build all `k` shard graphs at this `m`;
//! * `us/q` — mean per-query latency (all-shard search + merge);
//! * `speedup` — brute-force scan time over graph search time.
//!
//! Every `m` also gets an `ef = n` row: the search knob saturates at an
//! exact scan by construction, so that row must report recall 1.0 — the
//! table asserts it, and asserts mean recall ≥ 0.95 at the default knobs
//! (`m = 12`, `ef = 64`), the acceptance floor CI smokes on every push.
//!
//! ```text
//! cargo run -p knn-bench --release --bin paper -- recall
//!     [--k 4] [--per-shard 2048] [--dims 16] [--ell 10] [--queries 64]
//!     [--ms 6,12,24] [--efs 16,32,64,128,256] [--seed 42]
//! ```
//!
//! Writes `results/recall.{csv,json}` so CI accumulates the quality
//! trajectory across commits.

use std::time::Instant;

use knn_core::local::{brute_top, recall};
use knn_core::{NswIndex, NswParams};
use knn_points::{Dataset, DistKey, IdAssigner, Metric, Record, VecPoint};
use knn_workloads::{GaussianMixture, PartitionStrategy};

use crate::args::Args;
use crate::emit;
use crate::table::Table;

table_row! {
    struct Row {
        m: usize,
        ef: usize,
        exact: bool,
        ell: usize,
        queries: usize,
        recall_mean: f64,
        recall_min: f64,
        build_ms: f64,
        micros_per_query: f64,
        speedup_vs_scan: f64,
    }
}

/// Shard-local top-ℓ from every graph, merged into the global top-ℓ — the
/// candidate path a cluster serve uses.
fn merged_top(
    indices: &[NswIndex],
    shards: &[Vec<Record<VecPoint>>],
    query: &VecPoint,
    ell: usize,
    ef: usize,
) -> Vec<DistKey> {
    let mut merged: Vec<DistKey> = indices
        .iter()
        .zip(shards)
        .flat_map(|(index, records)| index.search(records, query, ell, ef))
        .collect();
    merged.sort_unstable();
    merged.truncate(ell);
    merged
}

/// Print the table, check the exact rows and the default knobs' recall
/// floor, and write `results/recall.{json,csv}`.
pub fn run(args: &Args) {
    let k = args.get("k", 4usize);
    let per_shard = args.get("per-shard", 1usize << 11);
    let dims = args.get("dims", 16usize);
    let ell = args.get("ell", 10usize);
    let queries = args.get("queries", 64usize);
    let ms = args.get_list("ms", &[6, 12, 24]);
    let efs = args.get_list("efs", &[16, 32, 64, 128, 256]);
    let seed = args.get("seed", 42u64);
    let defaults = NswParams::default();

    // The conformance suite's seeded workload: labeled Gaussian mixture,
    // round-robin sharded; queries drawn from the same centers with fresh
    // noise, so they land where near neighbors exist.
    let mixture = GaussianMixture { dims, clusters: 10, spread: 1.5, range: 20.0 };
    let mut ids = IdAssigner::new(seed);
    let data = Dataset::from_labeled(mixture.generate(k * per_shard, seed), &mut ids);
    let all_records = data.records.clone();
    let shards: Vec<Vec<Record<VecPoint>>> =
        PartitionStrategy::RoundRobin.split(data.records, k, seed);
    let probes: Vec<VecPoint> =
        mixture.generate_with(queries, seed, seed ^ 0xABCD).into_iter().map(|(p, _)| p).collect();

    // Oracle answers and the scan baseline, once.
    let scan_start = Instant::now();
    let oracle: Vec<Vec<DistKey>> =
        probes.iter().map(|q| brute_top(&all_records, q, ell, Metric::Euclidean)).collect();
    let scan_us = scan_start.elapsed().as_secs_f64() * 1e6 / probes.len() as f64;

    println!(
        "NSW recall sweep: k {k}, per-shard {per_shard}, dims {dims}, ell {ell}, \
         {queries} queries, seed {seed} (brute scan: {scan_us:.1} us/q)"
    );

    let mut table =
        Table::new(&["m", "ef", "exact", "recall", "min", "build_ms", "us/q", "speedup"]);
    let mut rows: Vec<Row> = Vec::new();
    for &m in &ms {
        let params = NswParams { m, ..defaults };
        let build_start = Instant::now();
        let indices: Vec<NswIndex> = shards
            .iter()
            .map(|records| NswIndex::build(records, params, Metric::Euclidean))
            .collect();
        let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

        // The saturating row: ef covering the shard degenerates to the
        // exact scan by construction.
        let mut sweep: Vec<(usize, bool)> = efs.iter().map(|&ef| (ef, false)).collect();
        sweep.push((per_shard, true));
        for (ef, exact) in sweep {
            let search_start = Instant::now();
            let answers: Vec<Vec<DistKey>> =
                probes.iter().map(|q| merged_top(&indices, &shards, q, ell, ef)).collect();
            let micros = search_start.elapsed().as_secs_f64() * 1e6 / probes.len() as f64;
            let (mut total, mut min) = (0.0f64, 1.0f64);
            for (got, want) in answers.iter().zip(&oracle) {
                let r = recall(got, want);
                total += r;
                min = min.min(r);
            }
            let mean = total / probes.len() as f64;
            if exact {
                assert!(
                    (mean - 1.0).abs() < f64::EPSILON,
                    "ef = n row must be exact, got recall {mean}"
                );
            }
            let row = Row {
                m,
                ef,
                exact,
                ell,
                queries,
                recall_mean: mean,
                recall_min: min,
                build_ms,
                micros_per_query: micros,
                speedup_vs_scan: scan_us / micros,
            };
            table.row(vec![
                row.m.to_string(),
                row.ef.to_string(),
                if row.exact { "yes".into() } else { "".into() },
                format!("{:.4}", row.recall_mean),
                format!("{:.2}", row.recall_min),
                format!("{:.0}", row.build_ms),
                format!("{:.1}", row.micros_per_query),
                format!("{:.1}x", row.speedup_vs_scan),
            ]);
            rows.push(row);
        }
    }
    emit("recall", &table, &rows);

    // The acceptance floor: default knobs must clear 0.95 mean recall
    // whenever the sweep includes them.
    if let Some(default_row) = rows.iter().find(|r| r.m == defaults.m && r.ef == defaults.ef_search)
    {
        assert!(
            default_row.recall_mean >= 0.95,
            "default knobs (m {}, ef {}) fell to recall {}",
            defaults.m,
            defaults.ef_search,
            default_row.recall_mean
        );
        println!(
            "default knobs (m {}, ef {}): recall {:.4} >= 0.95 ✓",
            defaults.m, defaults.ef_search, default_row.recall_mean
        );
    }
}

//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is [`manifest_json`] verbatim (a unit test keeps them equal).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may get worse; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: Some(bound), what }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: None, what }
}

use Better::{Higher, Lower};

/// What a caller of `KnnCluster` sees. The bounds were fixed from sets of
/// ten seeds on the 2-vCPU development host (README, "Host noise"): the
/// wall-clock and resident-set spreads there reach 0.17, so those bounds sit
/// at the 0.25 the contract allows; across seeds the counters repeat to
/// within 0.013 and NSW recall to within 0.019.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25, "median of the run's full set-ups (3 to 15): data generation + cluster build + load/load_shards"),
    e2e("qps", "1/s", Higher, 0.25, "queries answered / wall of the fastest timed slice (interleaved inserts are inside the slice)"),
    e2e("query_p50_ms", "ms", Lower, 0.25, "median latency of one query call (query_with in scalar_single, query_batch_with elsewhere) over all timed slices"),
    e2e("recall", "ratio", Higher, 0.05, "mean recall@ell of the checked sample against the brute-force oracle as of that op (exactly 1 on Exact workloads)"),
    e2e("rounds_per_query", "rounds", Lower, 0.05, "protocol + election rounds / queries over the counted slices; exact for a seed"),
    e2e("msgs_per_query", "msgs", Lower, 0.05, "protocol + election messages / queries over the counted slices; exact for a seed"),
    e2e("kbits_per_query", "kbit", Lower, 0.05, "protocol + election kilobits / queries over the counted slices; exact for a seed"),
    e2e("peak_rss_mb", "MB", Lower, 0.25, "VmHWM when the last counted slice ends (one set-up, a fixed number of ops)"),
];

/// Single layers, measured by the traced run through each layer's public
/// functions. Names start with the module they measure.
pub const PER_LAYER: &[Metric] = &[
    layer("workloads.gen_s", "s", Lower, "data generation (knn-workloads), fastest of the set-up repetitions"),
    layer("cluster.load_s", "s", Lower, "KnnCluster load/load_shards on the benchmark pool"),
    layer("cluster.load1_s", "s", Lower, "KnnCluster::load_shards of the same shards under a 1-thread pool, so parts add"),
    layer("cluster.load.partition_s", "s", Lower, "PartitionStrategy::RoundRobin.split of the workload's records (what `load` pays before `load_shards`)"),
    layer("cluster.load.idmap_s", "s", Lower, "derived: cluster.load1_s - local.build_s (the per-shard id -> position maps)"),
    layer("cluster.bytes_per_point", "B", Lower, "resident-set growth across load / points loaded"),
    layer("cluster.session_open_us", "us", Lower, "KnnCluster::session (one election)"),
    layer("cluster.query_batch_us_per_query", "us", Lower, "traced query call wall / queries in it, fastest traced slice"),
    layer("cluster.resolve_share", "ratio", Lower, "median over paired calls of the share of a cluster query call not spent in session() + run_batch (run_query on scalar_single): answer resolution"),
    layer("cluster.insert_p50_us", "us", Lower, "median KnnCluster::insert latency (traced slices on churn workloads, an 8-insert probe elsewhere)"),
    layer("cluster.insert_p95_us", "us", Lower, "p95 of the same, or the highest percentile with >= 10 samples beyond it"),
    layer("cluster.allocs_per_query", "count", Lower, "heap allocations during one traced slice / queries (counting allocator)"),
    layer("cluster.alloc_kb_per_query", "kB", Lower, "bytes allocated during the same slice / queries"),
    layer("local.scan_us", "us", Lower, "dist_keys of one shard for one query (the full scan the sequential path pays per machine)"),
    layer("local.scan_ns_per_point", "ns", Lower, "local.scan_us / points in the shard"),
    layer("local.top_us", "us", Lower, "ShardIndex::top of one shard for one query on the workload's backend"),
    layer("local.top_share", "ratio", Lower, "derived: k * local.top_us / session.run_batch_us_per_query (same sample queries, same shards)"),
    layer("local.build_s", "s", Lower, "ShardIndex::build over every shard, sequentially"),
    layer("local.insert_us", "us", Lower, "ShardIndex::insert of one appended record"),
    layer("local.nsw.shard_recall", "ratio", Higher, "mean recall of ShardIndex::top against brute_top on single shards (1 on Exact)"),
    layer("kdtree.build_s", "s", Lower, "KdTree::from_records on one 16-d shard of the vector workloads' shape"),
    layer("kdtree.knn_us", "us", Lower, "KdTree::knn at ell = 10 on that tree"),
    layer("kdtree.depth", "count", Lower, "KdTree::stats().depth of that tree"),
    layer("kdtree.nodes", "count", Lower, "KdTree::stats().len of that tree"),
    layer("points.dist_ns", "ns", Lower, "one Point::distance at the workload's dimensionality"),
    layer("selection.smallest_k_ns_per_elem", "ns", Lower, "smallest_k_sorted(ell) over k*ell keys, per input key"),
    layer("protocols.knn.rounds_per_query", "rounds", Lower, "Algorithm 2, batches of 64 on the protocol probe cluster (k = 16, ell = 64, fixed leader)"),
    layer("protocols.knn.msgs_per_query", "msgs", Lower, "same run"),
    layer("protocols.knn.kbits_per_query", "kbit", Lower, "same run"),
    layer("protocols.knn.us_per_query", "us", Lower, "same run, fastest of three"),
    layer("protocols.simple.rounds_per_query", "rounds", Lower, "the paper's baseline, same probe"),
    layer("protocols.simple.msgs_per_query", "msgs", Lower, "same run"),
    layer("protocols.simple.kbits_per_query", "kbit", Lower, "same run"),
    layer("protocols.simple.us_per_query", "us", Lower, "same run, fastest of three"),
    layer("protocols.saukas_song.rounds_per_query", "rounds", Lower, "Saukas-Song selection, same probe"),
    layer("protocols.saukas_song.msgs_per_query", "msgs", Lower, "same run"),
    layer("protocols.saukas_song.kbits_per_query", "kbit", Lower, "same run"),
    layer("protocols.saukas_song.us_per_query", "us", Lower, "same run, fastest of three"),
    layer("protocols.binsearch.rounds_per_query", "rounds", Lower, "value-domain bisection, same probe"),
    layer("protocols.binsearch.msgs_per_query", "msgs", Lower, "same run"),
    layer("protocols.binsearch.kbits_per_query", "kbit", Lower, "same run"),
    layer("protocols.binsearch.us_per_query", "us", Lower, "same run, fastest of three"),
    layer("protocols.approx.rounds_per_query", "rounds", Lower, "pruning-only approximate protocol (query_batch_approx), same probe"),
    layer("protocols.approx.msgs_per_query", "msgs", Lower, "same run"),
    layer("protocols.approx.kbits_per_query", "kbit", Lower, "same run"),
    layer("protocols.approx.us_per_query", "us", Lower, "same run, fastest of three"),
    layer("protocols.knn.rounds_over_log2_ell", "ratio", Lower, "Theorem 2.4: mean rounds of 16 sequential Algorithm 2 queries / log2(ell), ell = 64"),
    layer("protocols.knn.msgs_over_k_log2_ell", "ratio", Lower, "Theorem 2.4: mean messages of the same queries / (k * log2(ell)), k = 16"),
    layer("protocols.knn.survivors_over_ell_max", "ratio", Lower, "Lemma 2.3: largest survivors / ell over those queries (the lemma's bound is 11)"),
    layer("protocols.knn.iterations_mean", "count", Lower, "mean pivot iterations of the embedded Algorithm 1 over those queries"),
    layer("protocols.simple.rounds_over_ell", "ratio", Lower, "Theorem 2.2 counterpart: mean rounds of 16 sequential Simple queries / ell"),
    layer("runner.run_query_us", "us", Lower, "run_query (Algorithm 2, fixed leader, sync) on the workload's shards"),
    layer("runner.scan_share", "ratio", Lower, "derived: k * local.scan_us / runner.run_query_us"),
    layer("runner.election_us", "us", Lower, "median of paired run_query walls, ElectionKind::Star minus Fixed, on ell points a shard (nothing to scan)"),
    layer("session.run_batch_us_per_query", "us", Lower, "QuerySession::run_batch at the workload's batch size (64 on scalar_single) on a held session / queries"),
    layer("session.engine_share", "ratio", Lower, "BatchOutcome.wall / wall of the run_batch call"),
    layer("session.batch1_over_batch", "ratio", Higher, "per-query wall of run_batch with 1 query / at that batch size"),
    layer("mux.bits_overhead_ratio", "ratio", Lower, "bits per query batched (64) / sequential, probe cluster, exact"),
    layer("mux.rounds_amortization", "ratio", Higher, "rounds per query sequential / batched (64), probe cluster, exact"),
    layer("engine.sync.rounds_per_s", "1/s", Higher, "all-pairs stream protocol (k = 16, B = 512) through Engine::Sync"),
    layer("engine.event1.rounds_per_s", "1/s", Higher, "Engine::Event, 1 worker, exact delivery"),
    layer("engine.event2.rounds_per_s", "1/s", Higher, "Engine::Event, 2 workers, exact delivery"),
    layer("engine.event2_relaxed.rounds_per_s", "1/s", Higher, "Engine::Event, 2 workers, relaxed delivery"),
    layer("engine.threaded.rounds_per_s", "1/s", Higher, "Engine::Threaded (k OS threads, barriers)"),
    layer("engine.sync.allocs_per_round", "count", Lower, "heap allocations of the sync run / rounds"),
    layer("engine.event2.allocs_per_round", "count", Lower, "heap allocations of the event2 run / rounds"),
    layer("engine.event2_relaxed.max_skew", "rounds", Higher, "SkewMetrics.max_skew of the relaxed run"),
    layer("link.push_drain_ns_per_envelope", "ns", Lower, "LinkFifo push + drain_round over a k*k lattice, per envelope"),
    layer("link.integrity_ns_per_envelope", "ns", Lower, "same with the digest chain armed"),
    layer("link.lossy_ns_per_envelope", "ns", Lower, "same with 50 per-mille loss"),
    layer("leader.star_us", "us", Lower, "RandRankStar election at the workload's k through Engine::Sync"),
    layer("leader.star_rounds", "rounds", Lower, "its rounds"),
    layer("leader.star_msgs", "msgs", Lower, "its messages"),
    layer("leader.flood_us", "us", Lower, "RandRankFlood election at the workload's k"),
    layer("audit.claims_us", "us", Lower, "audit_claims of one honest answer (k = 16, ell = 64)"),
    layer("recovery.liar_retry_cost_ratio", "ratio", Lower, "wall of a probe batch with one round-0 liar / clean batch"),
    layer("recovery.crash_retry_cost_ratio", "ratio", Lower, "wall of a probe batch with one fail-stop crash / clean batch"),
    layer("recovery.checkpoint_bytes_per_query", "B", Lower, "RecoveryMetrics.checkpoint_bytes of a Simple probe batch with one rejoin / queries (Algorithm 2 keeps no checkpoint)"),
    layer("host.cpus", "count", Higher, "available_parallelism of the host"),
    layer("host.calib_ms_before", "ms", Lower, "fixed splitmix + sort kernel before the run (explains a slow host)"),
    layer("host.calib_ms_after", "ms", Lower, "the same kernel after the run"),
    layer("trace.overhead_share", "ratio", Lower, "1 - traced qps / untraced qps of the same run"),
];

/// One workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "scalar_single",
        why: "the paper's own setting: sequential query_with, each paying an election, a full scan of every shard and one engine run; local's scan, key selection and runner do the work",
    },
    WorkloadSpec {
        name: "scalar_batch",
        why: "the serving path: batches of 64 over sorted-array shards, so session, mux, protocols, engine, link and answer resolution do the work and local little; carries the largest load",
    },
    WorkloadSpec {
        name: "scalar_batch_event",
        why: "scalar_batch's inputs and op stream on the event engine (exact delivery, pool 2): the only end-to-end gate on the event scheduler",
    },
    WorkloadSpec {
        name: "vector_exact_churn",
        why: "16-d mixture on the k-d tree backend, 2 inserts beside each batch of 8: every insert rebuilds a shard's tree, so a write gain that costs reads (or the reverse) shows",
    },
    WorkloadSpec {
        name: "vector_nsw_churn",
        why: "the same data and ops on the NSW graph backend: graph build dominates set-up, graph search the queries, and recall is live (< 1), so qps bought with recall shows",
    },
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// Directory of the benchmark package, relative to the repo root.
pub const BENCH_DIR: &str = "ledger";

fn push_str_field(out: &mut String, key: &str, value: &str, last: bool) {
    out.push_str(&format!("\"{key}\": \"{value}\"{}", if last { "" } else { ", " }));
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"{BENCH_DIR}/Cargo.toml\", \"--\"],\n"
    ));
    out.push_str(&format!("  \"paths\": [\"{BENCH_DIR}\"],\n"));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str("    {");
        push_str_field(&mut out, "name", w.name, false);
        push_str_field(&mut out, "why", w.why, true);
        out.push_str(if i + 1 == WORKLOADS.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str("    {");
        push_str_field(&mut out, "name", m.name, false);
        push_str_field(&mut out, "unit", m.unit, false);
        push_str_field(&mut out, "better", m.better.name(), false);
        out.push_str(&format!("\"bound\": {}", m.bound.expect("end-to-end metrics are bounded")));
        out.push_str(if i + 1 == END_TO_END.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str("    {");
        push_str_field(&mut out, "name", m.name, false);
        push_str_field(&mut out, "unit", m.unit, false);
        push_str_field(&mut out, "better", m.better.name(), true);
        out.push_str(if i + 1 == PER_LAYER.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Look a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `ledger --list`: every metric with unit, direction and bound.
pub fn print_list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<20} {}", w.name, w.why);
    }
    println!("end-to-end metrics (name, unit, better, bound):");
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics are bounded");
        println!("  {:<42} {:<7} {:<7} {:<5} {}", m.name, m.unit, m.better.name(), bound, m.what);
    }
    println!("per-layer metrics (name, unit, better), measured with --trace 1:");
    for m in PER_LAYER {
        println!("  {:<42} {:<7} {:<7} -     {}", m.name, m.unit, m.better.name(), m.what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.name
            );
        }
        for m in END_TO_END {
            let bound = m.bound.expect("bounded");
            assert!((0.0..=0.25).contains(&bound), "{} bound {bound}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `ledger --manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn readme_glossary_names_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(readme.contains(&format!("`{name}`")), "README.md lacks `{name}`");
        }
    }
}

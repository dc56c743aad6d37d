//! The traced run: the workload's own inputs replayed at each layer
//! boundary, from the ledger's side of each layer's public functions. A
//! span surrounds every such call; per-layer times are read back from the
//! spans (fastest pass, like `qps`), counts are exact. The workload-shaped
//! layers (`cluster`, `local`, `runner`, `session`, `points`, `selection`,
//! `leader`) replay the workload's data and queries; the others run fixed
//! probes whose inputs derive from `--seed` alone.

use std::hint::black_box;
use std::time::Instant;

use kmachine::leader::{RandRankFlood, RandRankStar};
use kmachine::{
    AdversaryPlan, BandwidthMode, Ctx, DeliveryMode, Engine, Envelope, FaultPlan, IntegrityConfig,
    LinkFifo, LossConfig, NetConfig, Payload, Protocol, RecoveryPlan, Step,
};
use knn_core::local::{brute_top, dist_keys, recall};
use knn_core::runner::{run_query, QueryOutcome};
use knn_core::{
    audit_claims, Algorithm, BatchOutcome, ElectionKind, IndexedPoint, KnnCluster, QueryOptions,
    QuerySession, ShardIndex,
};
use knn_kdtree::KdTree;
use knn_points::{Dataset, DistKey, IdAssigner, PointId, Record, ScalarPoint, VecPoint};
use knn_selection::smallest_k_sorted;
use knn_workloads::{PartitionStrategy, ScalarWorkload};
use rand::{rngs::StdRng, SeedableRng};

use crate::host::{self, splitmix64};
use crate::run::{Driver, Options, Outcome, SliceResult, METRIC};
use crate::spec;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Inputs, Shape, Source, ALGORITHM, PROTOCOL_SEED};

/// Untraced, then traced, slices the traced run replays.
const REPLAY_SLICES: usize = 3;
/// Passes over a fixed probe; the fastest counts.
const PASSES: usize = 3;
/// Queries replayed against the layers below the cluster.
const SAMPLE: usize = 64;

/// The protocol probe cluster: the `scalar_batch` shape at a size that
/// builds in milliseconds (sorted-array candidates make n irrelevant).
const PROBE_K: usize = 16;
const PROBE_PER_MACHINE: usize = 1 << 14;
const PROBE_ELL: usize = 64;
const PROBE_BATCH: usize = 64;
const PROBE_SEQUENTIAL: usize = 16;

/// The per-layer values of one traced run, in any order.
#[derive(Default)]
struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Record a value under its registered name (a bug if it has none).
    fn set(&mut self, name: &str, value: f64) {
        let metric = spec::PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values.push((metric.name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("set before it is read")
    }

    /// The values in the registry's order.
    fn in_order(&self) -> Vec<(&'static str, f64)> {
        spec::PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    self.values.iter().find(|(n, _)| *n == m.name).map_or(f64::NAN, |(_, v)| *v),
                )
            })
            .collect()
    }
}

/// What every layer probe writes to: the span recorder, the metric values
/// and the count of calls that failed.
#[derive(Default)]
struct Probe {
    t: Tracer,
    l: Layers,
    failed: u64,
}

/// Mean of the fastest of `passes` equal chunks of `micros`.
fn best_pass_mean(micros: &[f64], passes: usize) -> f64 {
    let per_pass = micros.len() / passes;
    micros
        .chunks(per_pass.max(1))
        .map(|pass| pass.iter().sum::<f64>() / pass.len() as f64)
        .fold(f64::INFINITY, f64::min)
}

fn seconds(micros: f64) -> f64 {
    micros / 1e6
}

pub fn traced<P: Inputs>(shape: &Shape, opts: &Options) -> Result<Outcome, String> {
    let seed = opts.seed;
    let mut p = Probe::default();
    p.l.set("host.cpus", host::cpus() as f64);
    p.l.set("host.calib_ms_before", host::calib_ms());

    // -- set-up, part by part ------------------------------------------------
    let source = p.t.span("workloads.gen", 0, |_| P::data(shape, seed));
    p.l.set("workloads.gen_s", seconds(p.t.best_micros("workloads.gen")));
    let flat: Vec<Record<P>> = source.records().cloned().collect();
    let split = p.t.span("cluster.load.partition", 0, |_| {
        PartitionStrategy::RoundRobin.split(flat, shape.k, seed)
    });
    p.l.set("cluster.load.partition_s", seconds(p.t.best_micros("cluster.load.partition")));
    // The ledger's own copy of the shards the cluster ends up with.
    let mut shards: Vec<Dataset<P>> = match &source {
        Source::Whole(_) => split.into_iter().map(Dataset::new).collect(),
        Source::Shards(shards) => shards.clone(),
    };

    let mut cluster = workloads::cluster::<P>(shape);
    let rss_before = host::rss_mb();
    p.t.span("cluster.load", 0, |_| source.load_into(&mut cluster));
    let grown_bytes = (host::rss_mb() - rss_before).max(0.0) * 1024.0 * 1024.0;
    p.l.set("cluster.load_s", seconds(p.t.best_micros("cluster.load")));
    p.l.set("cluster.bytes_per_point", grown_bytes / shape.points() as f64);

    // Load probes run under a 1-thread pool so that parts add.
    let one_thread =
        rayon::ThreadPoolBuilder::new().num_threads(1).build().map_err(|e| e.to_string())?;
    let mut indices: Vec<ShardIndex<P>> = one_thread.install(|| {
        let copy = shards.clone();
        let mut scratch = workloads::cluster::<P>(shape);
        p.t.span("cluster.load1", 0, |_| scratch.load_shards(copy)).expect("one shard per machine");
        drop(scratch);
        p.t.span("local.build", 0, |_| {
            shards.iter().map(|d| ShardIndex::build(&d.records, shape.backend, METRIC)).collect()
        })
    });
    p.l.set("cluster.load1_s", seconds(p.t.best_micros("cluster.load1")));
    p.l.set("local.build_s", seconds(p.t.best_micros("local.build")));
    p.l.set("cluster.load.idmap_s", p.l.get("cluster.load1_s") - p.l.get("local.build_s"));

    // -- the workload itself: untraced, traced, and allocation-counted slices --
    let mut driver = Driver::new(shape, seed, cluster);
    driver.run_slice(None);
    let untraced: Vec<SliceResult<P>> =
        (0..REPLAY_SLICES).map(|_| driver.run_slice(None)).collect();
    let traced: Vec<SliceResult<P>> =
        (0..REPLAY_SLICES).map(|_| driver.run_slice(Some(&mut p.t))).collect();
    let (counted, allocs, alloc_bytes) = host::count_allocs(|| driver.run_slice(None));
    let queries = shape.queries_per_slice();
    let rate = |slices: &[SliceResult<P>]| {
        stats::best_slice_rate(queries, &slices.iter().map(|s| s.wall_s).collect::<Vec<_>>())
    };
    p.l.set("trace.overhead_share", 1.0 - rate(&traced) / rate(&untraced));
    let call_us_per_query = traced
        .iter()
        .map(|s| s.query_ms.iter().sum::<f64>() * 1e3 / queries as f64)
        .fold(f64::INFINITY, f64::min);
    p.l.set("cluster.query_batch_us_per_query", call_us_per_query);
    p.l.set("cluster.allocs_per_query", allocs as f64 / queries as f64);
    p.l.set("cluster.alloc_kb_per_query", alloc_bytes as f64 / 1e3 / queries as f64);

    let slices: Vec<&SliceResult<P>> = untraced.iter().chain(&traced).chain([&counted]).collect();
    let mut attempted: u64 = slices.iter().map(|s| s.attempted).sum();
    p.failed += slices.iter().map(|s| s.errors).sum::<u64>();
    let mut insert_us: Vec<f64> =
        slices.iter().flat_map(|s| s.insert_ms.iter().map(|ms| ms * 1e3)).collect();
    if insert_us.is_empty() {
        // A workload without inserts: probe a few after its slices are done.
        for point in P::draw(8, splitmix64(seed ^ 0x1A5E)) {
            let start = Instant::now();
            let result = p.t.span("cluster.insert", u64::MAX, |_| driver.cluster.insert(point));
            insert_us.push(start.elapsed().as_secs_f64() * 1e6);
            attempted += 1;
            p.failed += u64::from(result.is_err());
        }
    }
    p.l.set("cluster.insert_p50_us", stats::median(&insert_us));
    p.l.set("cluster.insert_p95_us", stats::high_percentile(&insert_us, 0.95).1);
    for _ in 0..16 {
        p.failed +=
            u64::from(p.t.span("cluster.session_open", 0, |_| driver.cluster.session().is_err()));
    }
    p.l.set("cluster.session_open_us", p.t.best_micros("cluster.session_open"));

    // -- below the cluster: the ledger's own shards and indices ---------------
    let sample = P::draw(SAMPLE, splitmix64(seed ^ 0x5A3C));
    local_layer(shape, &shards, &indices, &sample, &mut p);
    runner_layer(shape, &shards, &sample, &mut p);
    session_layer(shape, &driver.cluster, &shards, &indices, &sample, &mut p);
    leader_layer(shape.k, &mut p);

    // ShardIndex::insert mutates, so it runs last, on the ledger's copy.
    for (i, point) in P::draw(4, splitmix64(seed ^ 0x1D5)).into_iter().enumerate() {
        let records = &mut shards[0].records;
        records.push(Record { id: PointId(u64::MAX - 1 - i as u64), point, label: None });
        p.t.span("local.insert", i as u64, |_| indices[0].insert(records, records.len() - 1));
    }
    p.l.set("local.insert_us", p.t.best_micros("local.insert"));
    drop((shards, indices, driver));

    // -- fixed probes ----------------------------------------------------------
    kdtree_layer(seed, &mut p);
    protocol_layers(seed, &mut p);
    engine_layer(&mut p);
    link_layer(&mut p);
    p.l.set("host.calib_ms_after", host::calib_ms());

    if let Some(path) = &opts.spans {
        p.t.write_jsonl(path).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(Outcome {
        workload: shape.name,
        seed,
        trace: true,
        correct: p.failed == 0,
        attempted,
        failed: p.failed,
        metrics: p.l.in_order(),
        notes: vec![("insert_samples", insert_us.len().to_string())],
    })
}

/// `local` and `points`, `selection`: shard scans and index lookups for the
/// sample queries, one span per (query, shard).
fn local_layer<P: IndexedPoint>(
    shape: &Shape,
    shards: &[Dataset<P>],
    indices: &[ShardIndex<P>],
    sample: &[P],
    p: &mut Probe,
) {
    let Probe { t, l, .. } = p;
    // In the engine's order: each machine serves a whole batch from its shard
    // before the next machine runs. Lookups first, scans after: a scan walks
    // the whole shard and would evict what stays cached between real lookups.
    let batch = shape.batch.min(sample.len());
    let mut tops: Vec<Vec<DistKey>> = Vec::new();
    let mut shard_recall = Vec::new();
    for pass in 0..PASSES {
        for name in ["local.top", "local.scan"] {
            for (op, queries) in sample.chunks(batch).enumerate() {
                t.span("replay.local", op as u64, |t| {
                    for (data, index) in shards.iter().zip(indices) {
                        let records = &data.records;
                        for query in queries {
                            if name == "local.scan" {
                                t.span(name, op as u64, |_| {
                                    black_box(dist_keys(records, query, METRIC))
                                });
                                continue;
                            }
                            let top = t.span(name, op as u64, |_| {
                                index.top(records, query, shape.ell, METRIC)
                            });
                            if pass == 0 {
                                shard_recall.push(recall(
                                    &top,
                                    &brute_top(records, query, shape.ell, METRIC),
                                ));
                                tops.push(top);
                            }
                        }
                    }
                });
            }
        }
    }
    // k * ell candidates, as many as a leader merges for one query.
    let candidates: Vec<DistKey> = tops[..shards.len()].concat();
    l.set("local.top_us", best_pass_mean(&t.micros("local.top"), PASSES));
    l.set("local.scan_us", best_pass_mean(&t.micros("local.scan"), PASSES));
    l.set("local.scan_ns_per_point", l.get("local.scan_us") * 1e3 / shape.per_machine as f64);
    l.set("local.nsw.shard_recall", shard_recall.iter().sum::<f64>() / shard_recall.len() as f64);

    let records = &shards[0].records;
    for pass in 0..PASSES {
        t.span("points.dist", pass as u64, |_| {
            let mut acc = 0u64;
            for r in records {
                acc ^= r.point.distance(&sample[0], METRIC).encoding();
            }
            black_box(acc)
        });
    }
    l.set("points.dist_ns", t.best_micros("points.dist") * 1e3 / records.len() as f64);

    let mut rng = StdRng::seed_from_u64(1);
    const REPS: usize = 512;
    for pass in 0..PASSES {
        t.span("selection.smallest_k", pass as u64, |_| {
            for _ in 0..REPS {
                black_box(smallest_k_sorted(black_box(&candidates), shape.ell, &mut rng));
            }
        });
    }
    l.set(
        "selection.smallest_k_ns_per_elem",
        t.best_micros("selection.smallest_k") * 1e3 / (REPS * candidates.len()) as f64,
    );
}

/// The workload's query options, as its cluster holds them.
fn options(shape: &Shape, election: ElectionKind) -> QueryOptions {
    QueryOptions {
        seed: PROTOCOL_SEED,
        engine: shape.engine,
        election,
        backend: shape.backend,
        ..QueryOptions::default()
    }
}

/// `runner`: one-shot `run_query` (full scan per shard) under a fixed and an
/// elected leader.
fn runner_layer<P: IndexedPoint>(
    shape: &Shape,
    shards: &[Dataset<P>],
    sample: &[P],
    p: &mut Probe,
) {
    let Probe { t, l, failed } = p;
    let fixed = QueryOptions { engine: Engine::Sync, ..options(shape, ElectionKind::Fixed) };
    let star = QueryOptions { election: ElectionKind::Star, ..fixed.clone() };
    for _ in 0..2 {
        for (op, query) in sample[..8].iter().enumerate() {
            let ok = t.span("runner.run_query", op as u64, |_| {
                run_query(shards, query, shape.ell, ALGORITHM, &fixed).is_ok()
            });
            *failed += u64::from(!ok);
        }
    }
    l.set("runner.run_query_us", best_pass_mean(&t.micros("runner.run_query"), 2));
    // An election costs microseconds, a scan milliseconds: the difference
    // only resolves where there is nothing to scan, on `ell` points a shard.
    let tiny: Vec<Dataset<P>> =
        shards.iter().map(|d| Dataset::new(d.records[..shape.ell].to_vec())).collect();
    let mut paired = Vec::new();
    for (op, query) in sample.iter().enumerate() {
        let mut wall = |name, opts: &QueryOptions| {
            let start = Instant::now();
            let ok = t.span(name, op as u64, |_| {
                run_query(&tiny, query, shape.ell, ALGORITHM, opts).is_ok()
            });
            *failed += u64::from(!ok);
            start.elapsed().as_secs_f64() * 1e6
        };
        let elected = wall("runner.tiny.star", &star);
        paired.push(elected - wall("runner.tiny.fixed", &fixed));
    }
    l.set("runner.election_us", stats::median(&paired));
    l.set(
        "runner.scan_share",
        shape.k as f64 * l.get("local.scan_us") / l.get("runner.run_query_us"),
    );
}

/// `session`: batches on a held session (no election per batch), and what
/// is left of a cluster call once session and run_batch are taken out.
fn session_layer<P: IndexedPoint>(
    shape: &Shape,
    cluster: &KnnCluster<P>,
    shards: &[Dataset<P>],
    indices: &[ShardIndex<P>],
    sample: &[P],
    p: &mut Probe,
) {
    let Probe { t, l, failed } = p;
    // scalar_single never batches; its session numbers are read at 64.
    let batch = if shape.batch == 1 { SAMPLE } else { shape.batch };
    let session = match QuerySession::new(shards, indices, options(shape, ElectionKind::Star)) {
        Ok(session) => session,
        Err(_) => {
            *failed += 1;
            return;
        }
    };
    let mut engine_share = Vec::new();
    for pass in 0..PASSES {
        for (op, queries) in sample.chunks(batch).enumerate() {
            let start = Instant::now();
            let out = t.span("session.run_batch", op as u64, |_| {
                session.run_batch(queries, shape.ell, ALGORITHM)
            });
            let call = start.elapsed().as_secs_f64();
            match out {
                Ok(out) => engine_share.push(out.wall.as_secs_f64() / call),
                Err(_) => *failed += queries.len() as u64,
            }
        }
        if pass < 2 {
            for (op, query) in sample[..16].iter().enumerate() {
                let ok = t.span("session.run_batch1", op as u64, |_| {
                    session.run_batch(std::slice::from_ref(query), shape.ell, ALGORITHM).is_ok()
                });
                *failed += u64::from(!ok);
            }
        }
    }
    let per_call = best_pass_mean(&t.micros("session.run_batch"), PASSES);
    l.set("session.run_batch_us_per_query", per_call / batch as f64);
    l.set("session.engine_share", stats::median(&engine_share));
    // Same sample queries, same shards, measured minutes apart at most.
    l.set(
        "local.top_share",
        shape.k as f64 * l.get("local.top_us") / l.get("session.run_batch_us_per_query"),
    );
    l.set(
        "session.batch1_over_batch",
        best_pass_mean(&t.micros("session.run_batch1"), 2)
            / l.get("session.run_batch_us_per_query"),
    );
    // What a cluster call spends outside the layers below it, from paired
    // calls on the same queries a moment apart: a batch call against
    // session() + run_batch, query_with against run_query under the
    // workload's star election. The cluster holds the run's inserts, the
    // ledger's shards do not; at these sizes that is under 3 % more points.
    let star = QueryOptions { engine: Engine::Sync, ..options(shape, ElectionKind::Star) };
    let open_us = l.get("cluster.session_open_us");
    let mut outside = Vec::new();
    for (op, queries) in sample.chunks(shape.batch).take(32).enumerate() {
        let start = Instant::now();
        let (whole, below) = if shape.batch == 1 {
            let whole = t.span("pair.cluster.query", op as u64, |_| {
                cluster.query_with(ALGORITHM, &queries[0], shape.ell).is_ok()
            });
            let mid = start.elapsed().as_secs_f64();
            let below = t.span("pair.runner.run_query", op as u64, |_| {
                run_query(shards, &queries[0], shape.ell, ALGORITHM, &star).is_ok()
            });
            *failed += u64::from(!whole) + u64::from(!below);
            (mid, start.elapsed().as_secs_f64() - mid)
        } else {
            let whole = t.span("pair.cluster.query_batch", op as u64, |_| {
                cluster.query_batch_with(ALGORITHM, queries, shape.ell).is_ok()
            });
            let mid = start.elapsed().as_secs_f64();
            let below = t.span("pair.session.run_batch", op as u64, |_| {
                session.run_batch(queries, shape.ell, ALGORITHM).is_ok()
            });
            *failed += u64::from(!whole) + u64::from(!below);
            (mid, start.elapsed().as_secs_f64() - mid + open_us / 1e6)
        };
        outside.push(1.0 - below / whole);
    }
    l.set("cluster.resolve_share", stats::median(&outside));
}

/// `leader`: the two election protocols at the workload's k.
fn leader_layer(k: usize, p: &mut Probe) {
    let Probe { t, l, failed } = p;
    let cfg = NetConfig::new(k).with_seed(PROTOCOL_SEED);
    for rep in 0..16 {
        let star = t.span("leader.star", rep, |_| {
            Engine::Sync.run(&cfg, (0..k).map(|_| RandRankStar::new()).collect())
        });
        let flood = t.span("leader.flood", rep, |_| {
            Engine::Sync.run(&cfg, (0..k).map(|_| RandRankFlood::new()).collect())
        });
        match (star, flood) {
            (Ok(star), Ok(_)) if rep == 0 => {
                l.set("leader.star_rounds", star.metrics.rounds as f64);
                l.set("leader.star_msgs", star.metrics.messages as f64);
            }
            (Ok(_), Ok(_)) => {}
            _ => *failed += 1,
        }
    }
    l.set("leader.star_us", t.best_micros("leader.star"));
    l.set("leader.flood_us", t.best_micros("leader.flood"));
}

/// `kdtree`: one shard of the vector workloads' shape, whatever the
/// workload, so the numbers compare across runs.
fn kdtree_layer(seed: u64, p: &mut Probe) {
    let Probe { t, l, .. } = p;
    const POINTS: usize = 1 << 14;
    const ELL: usize = 10;
    let mut ids = IdAssigner::new(seed);
    let records = Dataset::from_points(VecPoint::draw(POINTS, seed), &mut ids).records;
    let queries = VecPoint::draw(SAMPLE, splitmix64(seed ^ 0x7D));
    let mut tree = KdTree::from_records(&records[..1]);
    for pass in 0..PASSES {
        tree = t.span("kdtree.build", pass as u64, |_| KdTree::from_records(&records));
        for (op, query) in queries.iter().enumerate() {
            t.span("kdtree.knn", op as u64, |_| black_box(tree.knn(&query.0, ELL, METRIC)));
        }
    }
    l.set("kdtree.build_s", seconds(t.best_micros("kdtree.build")));
    l.set("kdtree.knn_us", best_pass_mean(&t.micros("kdtree.knn"), PASSES));
    l.set("kdtree.depth", tree.stats().depth as f64);
    l.set("kdtree.nodes", tree.stats().len as f64);
}

/// Rounds, messages, kilobits and microseconds per query of one batch run
/// of protocol `algo`.
fn batch_cost(l: &mut Layers, algo: &str, out: &BatchOutcome, queries: usize, best_us: f64) {
    let q = queries as f64;
    l.set(&format!("protocols.{algo}.rounds_per_query"), out.metrics.rounds as f64 / q);
    l.set(&format!("protocols.{algo}.msgs_per_query"), out.metrics.messages as f64 / q);
    l.set(&format!("protocols.{algo}.kbits_per_query"), out.metrics.bits as f64 / 1e3 / q);
    l.set(&format!("protocols.{algo}.us_per_query"), best_us / q);
}

/// `protocols`, `mux`, `audit`, `recovery`: every algorithm on one probe
/// cluster (k = 16, ell = 64, batches of 64, fixed leader, sync engine), in
/// the paper's own currency, beside the bounds of Theorems 2.2 and 2.4.
fn protocol_layers(seed: u64, p: &mut Probe) {
    let Probe { t, l, failed } = p;
    let shards = ScalarWorkload { per_machine: PROBE_PER_MACHINE, lo: 0, hi: 1 << 32 }
        .generate(PROBE_K, splitmix64(seed ^ 0x9B0B));
    let indices: Vec<ShardIndex<ScalarPoint>> = shards
        .iter()
        .map(|d| ShardIndex::build(&d.records, knn_core::IndexBackend::Exact, METRIC))
        .collect();
    let queries = ScalarPoint::draw(PROBE_BATCH, splitmix64(seed ^ 0x9B0C));
    let base = QueryOptions { seed: PROTOCOL_SEED, ..QueryOptions::default() };
    let session = |opts: &QueryOptions| {
        QuerySession::new(&shards, &indices, opts.clone()).expect("the probe cluster has shards")
    };
    let clean = session(&base);

    // One batch per algorithm: counts from the first pass, time from the fastest.
    let run = |t: &mut Tracer, name: &'static str, work: &dyn Fn() -> Option<BatchOutcome>| {
        let mut first = None;
        for pass in 0..PASSES {
            let out = t.span(name, pass as u64, |_| work());
            first = first.or(out);
        }
        first.map(|out| (out, t.best_micros(name)))
    };
    let algorithms: [(&'static str, &'static str, Algorithm); 4] = [
        ("knn", "protocols.knn", Algorithm::Knn),
        ("simple", "protocols.simple", Algorithm::Simple),
        ("saukas_song", "protocols.saukas_song", Algorithm::SaukasSong),
        ("binsearch", "protocols.binsearch", Algorithm::BinSearch),
    ];
    let mut knn_batched = None;
    for (algo, span, algorithm) in algorithms {
        match run(t, span, &|| clean.run_batch(&queries, PROBE_ELL, algorithm).ok()) {
            Some((out, us)) => {
                batch_cost(l, algo, &out, queries.len(), us);
                if algorithm == Algorithm::Knn {
                    knn_batched = Some((out, us));
                }
            }
            None => *failed += queries.len() as u64,
        }
    }
    match run(t, "protocols.approx", &|| clean.run_batch_approx(&queries, PROBE_ELL).ok()) {
        Some((out, us)) => batch_cost(l, "approx", &out, queries.len(), us),
        None => *failed += queries.len() as u64,
    }

    // Sequential queries: the theorems speak of one query at a time.
    let sequential = |algorithm: Algorithm| -> Vec<QueryOutcome> {
        queries[..PROBE_SEQUENTIAL]
            .iter()
            .filter_map(|q| run_query(&shards, q, PROBE_ELL, algorithm, &base).ok())
            .collect()
    };
    let knn = sequential(Algorithm::Knn);
    let simple = sequential(Algorithm::Simple);
    *failed += (2 * PROBE_SEQUENTIAL - knn.len() - simple.len()) as u64;
    let mean = |values: &mut dyn Iterator<Item = u64>| {
        let v: Vec<u64> = values.collect();
        v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
    };
    let log2_ell = (PROBE_ELL as f64).log2();
    let knn_rounds = mean(&mut knn.iter().map(|o| o.metrics.rounds));
    let knn_bits = mean(&mut knn.iter().map(|o| o.metrics.bits));
    l.set("protocols.knn.rounds_over_log2_ell", knn_rounds / log2_ell);
    l.set(
        "protocols.knn.msgs_over_k_log2_ell",
        mean(&mut knn.iter().map(|o| o.metrics.messages)) / (PROBE_K as f64 * log2_ell),
    );
    let stats: Vec<_> = knn.iter().filter_map(|o| o.stats).collect();
    l.set(
        "protocols.knn.survivors_over_ell_max",
        stats.iter().map(|s| s.survivors).max().unwrap_or(0) as f64 / PROBE_ELL as f64,
    );
    l.set("protocols.knn.iterations_mean", mean(&mut stats.iter().map(|s| s.select_iterations)));
    l.set(
        "protocols.simple.rounds_over_ell",
        mean(&mut simple.iter().map(|o| o.metrics.rounds)) / PROBE_ELL as f64,
    );

    // `mux`: what multiplexing 64 instances over shared links costs and saves.
    let (clean_out, clean_us) = match knn_batched {
        Some(batched) => batched,
        None => return,
    };
    let q = queries.len() as f64;
    l.set("mux.bits_overhead_ratio", clean_out.metrics.bits as f64 / q / knn_bits);
    l.set("mux.rounds_amortization", knn_rounds / (clean_out.metrics.rounds as f64 / q));

    // `audit`: certify one honest answer.
    if let Some(honest) = knn.first() {
        let truth: Vec<Vec<DistKey>> =
            shards.iter().map(|d| brute_top(&d.records, &queries[0], PROBE_ELL, METRIC)).collect();
        for rep in 0..64 {
            let report = t.span("audit.claims", rep, |_| {
                audit_claims(&truth, &honest.local_keys, PROBE_ELL, PROTOCOL_SEED)
            });
            *failed += u64::from(rep == 0 && !report.ok);
        }
        l.set("audit.claims_us", t.best_micros("audit.claims"));
    }

    // `recovery`: what a retry costs, against the clean batch above.
    let liar = session(&QueryOptions {
        adversary: AdversaryPlan::default().with_lie(1, 0),
        ..base.clone()
    });
    let crash =
        session(&QueryOptions { faults: FaultPlan::default().with_crash(1, 2), ..base.clone() });
    // Algorithm 2 keeps no checkpoint; Simple does, so the rejoin probe runs it.
    let rejoin = session(&QueryOptions {
        recovery: RecoveryPlan::default().with_rejoin(2, 1, 3),
        ..base.clone()
    });
    for (name, metric, session) in [
        ("recovery.liar", "recovery.liar_retry_cost_ratio", &liar),
        ("recovery.crash", "recovery.crash_retry_cost_ratio", &crash),
    ] {
        match run(t, name, &|| session.run_batch(&queries, PROBE_ELL, Algorithm::Knn).ok()) {
            Some((out, us)) => {
                *failed += u64::from(out.attempts < 2);
                l.set(metric, us / clean_us);
            }
            None => *failed += queries.len() as u64,
        }
    }
    match rejoin.run_batch(&queries, PROBE_ELL, Algorithm::Simple) {
        Ok(out) => {
            l.set("recovery.checkpoint_bytes_per_query", out.recovery.checkpoint_bytes as f64 / q)
        }
        Err(_) => *failed += queries.len() as u64,
    }
}

/// Every machine streams `n` 64-bit words to every other machine under the
/// enforced per-link budget: all k*k FIFOs stay busy for many rounds.
struct AllPairsStream {
    n: u64,
    expected: u64,
    received: u64,
    checksum: u64,
}

#[derive(Debug, Clone)]
struct Word(u64);

impl Payload for Word {
    fn size_bits(&self) -> u64 {
        64
    }
}

impl Protocol for AllPairsStream {
    type Msg = Word;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Word>) -> Step<u64> {
        if ctx.round() == 0 {
            for v in 0..self.n {
                for dst in 0..ctx.k() {
                    if dst != ctx.id() {
                        ctx.send(dst, Word(v));
                    }
                }
            }
        }
        for env in ctx.inbox() {
            self.received += 1;
            self.checksum = self.checksum.wrapping_add(env.msg.0);
        }
        if self.received == self.expected {
            Step::Done(self.checksum)
        } else {
            Step::Continue
        }
    }
}

/// `engine`: the round loop of each engine on the same bandwidth-bound
/// protocol, through `Engine::run`.
fn engine_layer(p: &mut Probe) {
    let Probe { t, l, failed } = p;
    const K: usize = 16;
    const STREAM: u64 = 1024;
    let cfg = NetConfig::new(K)
        .with_seed(PROTOCOL_SEED)
        .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 512 });
    let protocols = || -> Vec<AllPairsStream> {
        (0..K)
            .map(|_| AllPairsStream {
                n: STREAM,
                expected: STREAM * (K as u64 - 1),
                received: 0,
                checksum: 0,
            })
            .collect()
    };
    let event =
        |workers: usize, delivery| cfg.clone().with_event_workers(workers).with_delivery(delivery);
    let rows: [(&'static str, Engine, NetConfig); 5] = [
        ("engine.sync", Engine::Sync, cfg.clone()),
        ("engine.event1", Engine::Event, event(1, DeliveryMode::Exact)),
        ("engine.event2", Engine::Event, event(2, DeliveryMode::Exact)),
        ("engine.event2_relaxed", Engine::Event, event(2, DeliveryMode::Relaxed)),
        ("engine.threaded", Engine::Threaded, cfg.clone()),
    ];
    let mut reference: Option<Vec<u64>> = None;
    for (span, engine, cfg) in rows {
        let mut rounds = 0;
        for pass in 0..=PASSES {
            // The extra last pass counts allocations instead of time.
            let counting = pass == PASSES;
            let (out, allocs, _) = if counting {
                host::count_allocs(|| engine.run(&cfg, protocols()))
            } else {
                (t.span(span, pass as u64, |_| engine.run(&cfg, protocols())), 0, 0)
            };
            let Ok(out) = out else {
                *failed += 1;
                continue;
            };
            rounds = out.metrics.rounds;
            if reference.get_or_insert_with(|| out.outputs.clone()) != &out.outputs {
                *failed += 1;
            }
            match span {
                "engine.sync" | "engine.event2" if counting => {
                    l.set(&format!("{span}.allocs_per_round"), allocs as f64 / rounds as f64)
                }
                "engine.event2_relaxed" if counting => {
                    l.set("engine.event2_relaxed.max_skew", out.skew.max_skew as f64)
                }
                _ => {}
            }
        }
        l.set(&format!("{span}.rounds_per_s"), rounds as f64 / seconds(t.best_micros(span)));
    }
}

/// `link`: the transport loop the engines share — push a wave onto every
/// FIFO of a k*k lattice, drain rounds until all are empty.
fn link_layer(p: &mut Probe) {
    let Probe { t, l, .. } = p;
    const K: usize = 16;
    const WAVES: usize = 16;
    const PER_LINK: usize = 64;
    const BUDGET: u64 = 512;
    type Make = fn(u64, usize, usize) -> LinkFifo<Word>;
    let plain: Make = |_, _, _| LinkFifo::default();
    let integrity: Make = |seed, src, dst| {
        LinkFifo::default().with_integrity(IntegrityConfig { corrupt_per_mille: 0, seed, src, dst })
    };
    let lossy: Make = |seed, src, dst| {
        LinkFifo::lossy(LossConfig { per_mille: 50, max_retries: 64, seed, src, dst })
    };
    let rows: [(&'static str, Make); 3] =
        [("link.push_drain", plain), ("link.integrity", integrity), ("link.lossy", lossy)];
    for (span, make) in rows {
        for pass in 0..PASSES {
            let mut links: Vec<LinkFifo<Word>> =
                (0..K * K).map(|i| make(PROTOCOL_SEED, i % K, i / K)).collect();
            let mut out: Vec<Envelope<Word>> = Vec::new();
            t.span(span, pass as u64, |_| {
                for wave in 0..WAVES {
                    for (i, link) in links.iter_mut().enumerate() {
                        let (src, dst) = (i % K, i / K);
                        if src == dst {
                            continue;
                        }
                        for seq in 0..PER_LINK {
                            let seq = (wave * PER_LINK + seq) as u64;
                            let env = Envelope {
                                src,
                                dst,
                                sent_round: wave as u64,
                                seq,
                                digest: 0,
                                msg: Word(seq),
                            };
                            link.push(env, 64);
                        }
                    }
                    while links.iter().any(|link| !link.is_empty()) {
                        for link in links.iter_mut().filter(|link| !link.is_empty()) {
                            link.drain_round(BUDGET, &mut out);
                        }
                        black_box(&out);
                        out.clear();
                    }
                }
            });
        }
        let envelopes = WAVES * K * (K - 1) * PER_LINK;
        l.set(&format!("{span}_ns_per_envelope"), t.best_micros(span) * 1e3 / envelopes as f64);
    }
}
